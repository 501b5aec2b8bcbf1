#include "core/codec.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine_context.hpp"
#include "core/wire.hpp"
#include "image/kernels.hpp"

namespace slspvr::core {

void PayloadCodec::encode_rect(const img::Image&, const img::Rect&, const img::Rect&,
                               img::PackBuffer&, Counters&) const {
  throw std::logic_error(std::string(name()) + ": codec does not encode rectangles");
}

void PayloadCodec::encode_range(const img::Image&, const img::InterleavedRange&,
                                img::PackBuffer&, Counters&) const {
  throw std::logic_error(std::string(name()) + ": codec does not encode progressions");
}

img::Rect PayloadCodec::decode_rect_into(DecodeSink&, const img::Rect&,
                                         img::UnpackBuffer&) const {
  throw std::logic_error(std::string(name()) + ": codec does not decode rectangles");
}

void PayloadCodec::decode_range_into(DecodeSink&, const img::InterleavedRange&,
                                     img::UnpackBuffer&) const {
  throw std::logic_error(std::string(name()) + ": codec does not decode progressions");
}

namespace {

/// Reinterpret a borrowed wire section as `T[count]`, bouncing through
/// `bounce` when the in-buffer address is misaligned for T (possible only if
/// the transport hands us an oddly based buffer — reinterpreting anyway
/// would be UB, so the copy is the safe slow path).
template <typename T>
const T* aligned_view(std::span<const std::byte> bytes, std::size_t count,
                      std::vector<T>& bounce) {
  if ((reinterpret_cast<std::uintptr_t>(bytes.data()) % alignof(T)) == 0) {
    return reinterpret_cast<const T*>(bytes.data());
  }
  bounce.resize(count);
  std::memcpy(bounce.data(), bytes.data(), count * sizeof(T));
  return bounce.data();
}

/// Each composited pixel is one over op and one received pixel.
void charge(DecodeSink& sink, std::int64_t composited) {
  sink.counters.over_ops += composited;
  sink.counters.pixels_received += composited;
}

/// Blend a raw row-major pixel payload over `rect`, straight out of the
/// receive buffer (FullPixel / BoundingRect bodies).
void composite_raw_rect_view(DecodeSink& sink, const img::Rect& rect, img::UnpackBuffer& in) {
  const std::span<const std::byte> bytes =
      in.get_bytes(static_cast<std::size_t>(rect.area()) * sizeof(img::Pixel));
  const img::Pixel* pixels = aligned_view(bytes, static_cast<std::size_t>(rect.area()),
                                          sink.engine.scratch().bounce);
  for (int y = 0; y < rect.height(); ++y) {
    img::kern::composite_span(&sink.image.at(rect.x0, rect.y0 + y),
                              pixels + static_cast<std::int64_t>(y) * rect.width(),
                              rect.width(), sink.incoming_in_front);
  }
  charge(sink, rect.area());
}

/// Raw region pixels, no header: 16 B/pixel over the whole part.
class FullPixelCodec final : public PayloadCodec {
 public:
  [[nodiscard]] std::string_view name() const override { return "full-pixel"; }
  [[nodiscard]] WireTraits traits() const override {
    return WireTraits{check::PayloadClass::kFullRegion, 0, 16, 0, false};
  }
  void encode_rect(const img::Image& image, const img::Rect& part, const img::Rect&,
                   img::PackBuffer& buf, Counters& counters) const override {
    buf.reserve(buf.size() + static_cast<std::size_t>(part.area()) * sizeof(img::Pixel));
    wire::pack_rect_pixels(image, part, buf);
    counters.pixels_sent += part.area();
  }
  img::Rect decode_rect_into(DecodeSink& sink, const img::Rect& part,
                             img::UnpackBuffer& in) const override {
    composite_raw_rect_view(sink, part, in);
    return part;
  }
};

/// WireRect header + raw pixels of the clipped rectangle (BSBR).
class BoundingRectCodec final : public PayloadCodec {
 public:
  [[nodiscard]] std::string_view name() const override { return "bounding-rect"; }
  [[nodiscard]] WireTraits traits() const override {
    return WireTraits{check::PayloadClass::kBoundingRect, 8, 16, 0, false};
  }
  [[nodiscard]] bool tracks_rect() const override { return true; }
  void encode_rect(const img::Image& image, const img::Rect&, const img::Rect& clip,
                   img::PackBuffer& buf, Counters& counters) const override {
    wire::pack_raw_rect(image, clip, buf, counters);
  }
  img::Rect decode_rect_into(DecodeSink& sink, const img::Rect&,
                             img::UnpackBuffer& in) const override {
    const img::Rect rect = wire::parse_rect(in, sink.image.bounds());
    if (!rect.empty()) composite_raw_rect_view(sink, rect, in);
    return rect;
  }
};

/// WireRect header + row-major RLE of the clipped rectangle (BSBRC).
class RleRectCodec final : public PayloadCodec {
 public:
  [[nodiscard]] std::string_view name() const override { return "rle-rect"; }
  [[nodiscard]] WireTraits traits() const override {
    // WireRect (8 B) + code-count headroom (4 B) + RLE worst case 18 B/pixel.
    return WireTraits{check::PayloadClass::kNonBlank, 12, 18, 0, false};
  }
  [[nodiscard]] bool tracks_rect() const override { return true; }
  void encode_rect(const img::Image& image, const img::Rect&, const img::Rect& clip,
                   img::PackBuffer& buf, Counters& counters) const override {
    wire::pack_rle_rect(image, clip, buf, counters);
  }
  img::Rect decode_rect_into(DecodeSink& sink, const img::Rect&,
                             img::UnpackBuffer& in) const override {
    const img::Rect rect = wire::parse_rect(in, sink.image.bounds());
    if (rect.empty()) return rect;
    EngineScratch& scratch = sink.engine.scratch();
    const wire::RleView view =
        wire::parse_rle_view(in, rect.area(), scratch.bounce, scratch.code_bounce);
    const int w = rect.width();
    std::int64_t composited = 0;
    // Whole runs at a time, split only where a run crosses a rectangle row.
    img::rle_for_each_non_blank_run(
        view.codes, view.ncodes, view.pixels,
        [&](std::int64_t pos, std::int64_t len, const img::Pixel* pixels) {
          composited += len;
          while (len > 0) {
            const int x = rect.x0 + static_cast<int>(pos % w);
            const int y = rect.y0 + static_cast<int>(pos / w);
            const std::int64_t chunk = std::min<std::int64_t>(len, rect.x1 - x);
            img::kern::composite_span(&sink.image.at(x, y), pixels, chunk,
                                      sink.incoming_in_front);
            pos += chunk;
            pixels += chunk;
            len -= chunk;
          }
        });
    charge(sink, composited);
    return rect;
  }
};

/// WireRect header + scanline spans of the clipped rectangle (BSBRS).
class SpanRectCodec final : public PayloadCodec {
 public:
  [[nodiscard]] std::string_view name() const override { return "span-rect"; }
  [[nodiscard]] WireTraits traits() const override {
    // WireRect + 4 B span-count headroom, 20 B per single-pixel span, 2 B
    // span-count per rectangle row (paid even when the row is blank).
    return WireTraits{check::PayloadClass::kNonBlank, 12, 20, 2, false};
  }
  [[nodiscard]] bool tracks_rect() const override { return true; }
  void encode_rect(const img::Image& image, const img::Rect&, const img::Rect& clip,
                   img::PackBuffer& buf, Counters& counters) const override {
    wire::pack_span_rect(image, clip, buf, counters);
  }
  img::Rect decode_rect_into(DecodeSink& sink, const img::Rect&,
                             img::UnpackBuffer& in) const override {
    const img::Rect rect = wire::parse_rect(in, sink.image.bounds());
    if (rect.empty()) return rect;
    const wire::SpanView view = wire::parse_spans_view(in, rect, sink.engine.scratch().bounce);
    charge(sink, img::kern::composite_span_rows(&sink.image.at(rect.x0, rect.y0),
                                                sink.image.width(), view.row_counts,
                                                rect.height(), view.spans, view.pixels,
                                                sink.incoming_in_front));
    return rect;
  }
};

/// RLE over an interleaved pixel progression, no header (BSLC).
class InterleavedRleCodec final : public PayloadCodec {
 public:
  [[nodiscard]] std::string_view name() const override { return "interleaved-rle"; }
  [[nodiscard]] WireTraits traits() const override {
    // Worst case one 2 B code per 16 B pixel, behind a 4 B count headroom.
    return WireTraits{check::PayloadClass::kNonBlank, 4, 18, 0, true};
  }
  [[nodiscard]] bool scalar() const override { return true; }
  void encode_range(const img::Image& image, const img::InterleavedRange& part,
                    img::PackBuffer& buf, Counters& counters) const override {
    const img::Rle rle = wire::encode_strided(image, part, counters);
    counters.pixels_sent += rle.non_blank_count();
    buf.reserve(buf.size() + static_cast<std::size_t>(rle.wire_bytes()));
    wire::pack_rle(rle, buf);
  }
  void decode_range_into(DecodeSink& sink, const img::InterleavedRange& part,
                         img::UnpackBuffer& in) const override {
    EngineScratch& scratch = sink.engine.scratch();
    const wire::RleView view =
        wire::parse_rle_view(in, part.count, scratch.bounce, scratch.code_bounce);
    img::Pixel* frame = sink.image.pixels().data();
    std::vector<img::Pixel>& staging = scratch.staging;
    std::int64_t composited = 0;
    // Per run: gather the local strided pixels contiguous, blend the whole
    // run with the span kernel, scatter the result back.
    img::rle_for_each_non_blank_run(
        view.codes, view.ncodes, view.pixels,
        [&](std::int64_t pos, std::int64_t len, const img::Pixel* pixels) {
          if (static_cast<std::int64_t>(staging.size()) < len) {
            staging.resize(static_cast<std::size_t>(len));
          }
          const std::int64_t offset = part.index(pos);
          img::kern::gather_strided(frame, offset, part.stride, len, staging.data());
          img::kern::composite_span(staging.data(), pixels, len, sink.incoming_in_front);
          img::kern::scatter_strided(staging.data(), len, frame, offset, part.stride);
          composited += len;
        });
    charge(sink, composited);
  }
};

}  // namespace

const PayloadCodec& codec_for(CodecKind kind) {
  static const FullPixelCodec full;
  static const BoundingRectCodec brect;
  static const RleRectCodec rle;
  static const SpanRectCodec span;
  static const InterleavedRleCodec strided;
  switch (kind) {
    case CodecKind::kFullPixel: return full;
    case CodecKind::kBoundingRect: return brect;
    case CodecKind::kRleRect: return rle;
    case CodecKind::kSpanRect: return span;
    case CodecKind::kInterleavedRle: return strided;
  }
  throw std::invalid_argument("codec_for: unknown codec kind");
}

std::string_view codec_name(CodecKind kind) { return codec_for(kind).name(); }

}  // namespace slspvr::core
