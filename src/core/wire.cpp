#include "core/wire.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "image/kernels.hpp"

namespace slspvr::core::wire {

namespace {

/// Staging area for the BSLC strided gather/scatter kernels: interleaved
/// progressions are gathered contiguous here so the batched
/// classify/composite kernels can run over them, then scattered back. One
/// arena per calling thread, i.e. per rank (the streaming decoders use the
/// rank's explicit EngineScratch instead).
std::vector<img::Pixel>& strided_scratch(std::int64_t count) {
  thread_local std::vector<img::Pixel> scratch;
  if (static_cast<std::int64_t>(scratch.size()) < count) {
    scratch.resize(static_cast<std::size_t>(count));
  }
  return scratch;
}

/// Reinterpret a borrowed wire section as `T[count]`, bouncing through
/// `bounce` when the in-buffer address is not aligned for T (pixel payloads
/// sit 2-mod-4 after an odd code count). The returned pointer aliases either
/// the message or the bounce vector.
template <typename T>
const T* typed_view(std::span<const std::byte> bytes, std::size_t count,
                    std::vector<T>& bounce) {
  // An empty section is never read; its (maybe null) data() needs no bounce.
  if (count == 0 || (reinterpret_cast<std::uintptr_t>(bytes.data()) % alignof(T)) == 0) {
    return reinterpret_cast<const T*>(bytes.data());
  }
  bounce.resize(count);
  std::memcpy(bounce.data(), bytes.data(), count * sizeof(T));
  return bounce.data();
}

}  // namespace

void pack_rect_pixels(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf) {
  for (int y = rect.y0; y < rect.y1; ++y) {
    const img::Pixel* row = &image.at(rect.x0, y);
    buf.put_span(std::span<const img::Pixel>(row, static_cast<std::size_t>(rect.width())));
  }
}

void unpack_composite_rect(img::Image& image, const img::Rect& rect, img::UnpackBuffer& buf,
                           bool incoming_in_front, Counters& counters) {
  for (int y = rect.y0; y < rect.y1; ++y) {
    const auto row = buf.get_vector<img::Pixel>(static_cast<std::size_t>(rect.width()));
    img::kern::composite_span(&image.at(rect.x0, y), row.data(), rect.width(),
                              incoming_in_front);
  }
  counters.over_ops += rect.area();
  counters.pixels_received += rect.area();
}

img::Rle encode_rect(const img::Image& image, const img::Rect& rect, Counters& counters) {
  // Row-at-a-time run classification; RunState carries runs across row
  // boundaries so the codes equal the single-sequence encoding exactly.
  img::Rle rle;
  rle.length = rect.area();
  img::kern::RunState state;
  for (int y = rect.y0; y < rect.y1; ++y) {
    img::kern::rle_classify_span(&image.at(rect.x0, y), rect.width(), state, rle);
  }
  if (rle.length > 0) img::kern::rle_classify_flush(state, rle);
  counters.encoded_pixels += rect.area();
  counters.codes_emitted += static_cast<std::int64_t>(rle.codes.size());
  return rle;
}

img::Rle encode_strided(const img::Image& image, const img::InterleavedRange& range,
                        Counters& counters) {
  // Gather the interleaved progression contiguous, then classify it with
  // the same batched kernel the rectangle path uses.
  std::vector<img::Pixel>& scratch = strided_scratch(range.count);
  img::kern::gather_strided(image.pixels().data(), range.offset, range.stride, range.count,
                            scratch.data());
  img::Rle rle;
  rle.length = range.count;
  img::kern::RunState state;
  img::kern::rle_classify_span(scratch.data(), range.count, state, rle);
  if (range.count > 0) img::kern::rle_classify_flush(state, rle);
  counters.encoded_pixels += range.count;
  counters.codes_emitted += static_cast<std::int64_t>(rle.codes.size());
  return rle;
}

void pack_rle(const img::Rle& rle, img::PackBuffer& buf) {
  buf.put_span(std::span<const std::uint16_t>(rle.codes));
  buf.put_span(std::span<const img::Pixel>(rle.pixels));
}

img::Rle parse_rle(img::UnpackBuffer& buf, std::int64_t expected_length) {
  img::Rle rle;
  rle.length = expected_length;
  std::int64_t total = 0;
  std::int64_t foreground = 0;
  bool blank = true;
  while (total < expected_length) {
    const auto code = buf.get<std::uint16_t>();
    rle.codes.push_back(code);
    total += code;
    if (!blank) foreground += code;
    blank = !blank;
  }
  if (total != expected_length) {
    throw img::DecodeError("parse_rle: codes overshoot the expected length (" +
                           std::to_string(total) + " > " + std::to_string(expected_length) +
                           ")");
  }
  rle.pixels = buf.get_vector<img::Pixel>(static_cast<std::size_t>(foreground));
  return rle;
}

img::Rect parse_rect(img::UnpackBuffer& buf, const img::Rect& bounds) {
  const img::Rect rect = img::from_wire(buf.get<img::WireRect>());
  if (rect.empty()) return img::kEmptyRect;
  if (!bounds.contains(rect)) {
    throw img::DecodeError("parse_rect: rectangle [" + std::to_string(rect.x0) + "," +
                           std::to_string(rect.y0) + "," + std::to_string(rect.x1) + "," +
                           std::to_string(rect.y1) + ") escapes the frame [" +
                           std::to_string(bounds.x0) + "," + std::to_string(bounds.y0) + "," +
                           std::to_string(bounds.x1) + "," + std::to_string(bounds.y1) + ")");
  }
  return rect;
}

void composite_rle_rect(img::Image& image, const img::Rect& rect, const img::Rle& rle,
                        bool incoming_in_front, Counters& counters) {
  const int w = rect.width();
  std::int64_t composited = 0;
  // Whole runs at a time, split only where a run crosses a rectangle row.
  img::rle_for_each_non_blank_run(
      rle, [&](std::int64_t pos, std::int64_t len, const img::Pixel* pixels) {
        while (len > 0) {
          const int x = rect.x0 + static_cast<int>(pos % w);
          const int y = rect.y0 + static_cast<int>(pos / w);
          const std::int64_t chunk = std::min<std::int64_t>(len, rect.x1 - x);
          img::kern::composite_span(&image.at(x, y), pixels, chunk, incoming_in_front);
          pos += chunk;
          pixels += chunk;
          len -= chunk;
          composited += chunk;
        }
      });
  counters.over_ops += composited;
  counters.pixels_received += composited;
}

void composite_rle_strided(img::Image& image, const img::InterleavedRange& range,
                           const img::Rle& rle, bool incoming_in_front, Counters& counters) {
  std::int64_t composited = 0;
  // Per run: gather the local strided pixels contiguous, blend the whole
  // run with the span kernel, scatter the result back (O(non-blank) work).
  img::rle_for_each_non_blank_run(
      rle, [&](std::int64_t pos, std::int64_t len, const img::Pixel* pixels) {
        std::vector<img::Pixel>& scratch = strided_scratch(len);
        const std::int64_t offset = range.index(pos);
        img::kern::gather_strided(image.pixels().data(), offset, range.stride, len,
                                  scratch.data());
        img::kern::composite_span(scratch.data(), pixels, len, incoming_in_front);
        img::kern::scatter_strided(scratch.data(), len, image.pixels().data(), offset,
                                   range.stride);
        composited += len;
      });
  counters.over_ops += composited;
  counters.pixels_received += composited;
}

void pack_raw_rect(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf,
                   Counters& counters) {
  buf.put(img::to_wire(rect));
  if (!rect.empty()) {
    pack_rect_pixels(image, rect, buf);
    counters.pixels_sent += rect.area();
  }
}

img::Rect unpack_composite_raw_rect(img::Image& image, img::UnpackBuffer& buf,
                                    const img::Rect& bounds, bool incoming_in_front,
                                    Counters& counters) {
  const img::Rect rect = parse_rect(buf, bounds);
  if (!rect.empty()) {
    unpack_composite_rect(image, rect, buf, incoming_in_front, counters);
  }
  return rect;
}

void pack_rle_rect(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf,
                   Counters& counters) {
  buf.put(img::to_wire(rect));
  if (!rect.empty()) {
    const img::Rle rle = encode_rect(image, rect, counters);
    counters.pixels_sent += rle.non_blank_count();
    pack_rle(rle, buf);
  }
}

img::Rect unpack_composite_rle_rect(img::Image& image, img::UnpackBuffer& buf,
                                    const img::Rect& bounds, bool incoming_in_front,
                                    Counters& counters) {
  const img::Rect rect = parse_rect(buf, bounds);
  if (!rect.empty()) {
    const img::Rle incoming = parse_rle(buf, rect.area());
    composite_rle_rect(image, rect, incoming, incoming_in_front, counters);
  }
  return rect;
}

void pack_span_rect(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf,
                    Counters& counters) {
  buf.put(img::to_wire(rect));
  if (!rect.empty()) {
    const img::SpanImage spans = encode_spans(image, rect, counters);
    counters.pixels_sent += spans.non_blank_count();
    pack_spans(spans, buf);
  }
}

img::Rect unpack_composite_span_rect(img::Image& image, img::UnpackBuffer& buf,
                                     const img::Rect& bounds, bool incoming_in_front,
                                     Counters& counters) {
  const img::Rect rect = parse_rect(buf, bounds);
  if (!rect.empty()) {
    const img::SpanImage incoming = parse_spans(buf, rect);
    composite_spans(image, incoming, incoming_in_front, counters);
  }
  return rect;
}

img::SpanImage encode_spans(const img::Image& image, const img::Rect& rect,
                            Counters& counters) {
  std::int64_t scanned = 0;
  img::SpanImage spans = img::span_encode_rect(image, rect, &scanned);
  counters.encoded_pixels += scanned;
  // 2-byte units: one per row count, two per span (offset + length).
  counters.codes_emitted += static_cast<std::int64_t>(spans.row_counts.size()) +
                            2 * static_cast<std::int64_t>(spans.spans.size());
  return spans;
}

void pack_spans(const img::SpanImage& spans, img::PackBuffer& buf) {
  buf.put_span(std::span<const std::uint16_t>(spans.row_counts));
  buf.put_span(std::span<const img::Span>(spans.spans));
  buf.put_span(std::span<const img::Pixel>(spans.pixels));
}

img::SpanImage parse_spans(img::UnpackBuffer& buf, const img::Rect& rect) {
  img::SpanImage spans;
  spans.rect = rect;
  if (rect.empty()) return spans;
  spans.row_counts = buf.get_vector<std::uint16_t>(static_cast<std::size_t>(rect.height()));
  std::size_t total_spans = 0;
  for (const auto c : spans.row_counts) total_spans += c;
  spans.spans = buf.get_vector<img::Span>(total_spans);
  // A corrupted span must not index outside the rectangle when composited.
  for (const img::Span& s : spans.spans) {
    if (static_cast<int>(s.x) + static_cast<int>(s.len) > rect.width()) {
      throw img::DecodeError("parse_spans: span [" + std::to_string(s.x) + "+" +
                             std::to_string(s.len) + "] exceeds rectangle width " +
                             std::to_string(rect.width()));
    }
  }
  std::size_t total_pixels = 0;
  for (const auto& s : spans.spans) total_pixels += s.len;
  spans.pixels = buf.get_vector<img::Pixel>(total_pixels);
  return spans;
}

void composite_spans(img::Image& image, const img::SpanImage& spans,
                     bool incoming_in_front, Counters& counters) {
  const std::int64_t ops = img::span_composite(image, spans, incoming_in_front);
  counters.over_ops += ops;
  counters.pixels_received += ops;
}

RleView parse_rle_view(img::UnpackBuffer& buf, std::int64_t expected_length,
                       std::vector<img::Pixel>& pixel_bounce,
                       std::vector<std::uint16_t>& code_bounce) {
  // Prescan the code section in place (memcpy per 2-byte code — alignment-
  // agnostic) to find where it ends, exactly mirroring parse_rle: stop as
  // soon as the total reaches the expected length, throw on overshoot, and
  // let truncation surface as a short read.
  const std::span<const std::byte> rest = buf.peek_remaining();
  std::size_t ncodes = 0;
  std::int64_t total = 0;
  std::int64_t foreground = 0;
  bool blank = true;
  while (total < expected_length) {
    if ((ncodes + 1) * sizeof(std::uint16_t) > rest.size()) {
      throw img::DecodeError("parse_rle_view: short read (codes truncated at " +
                             std::to_string(total) + " of " +
                             std::to_string(expected_length) + " pixels)");
    }
    std::uint16_t code = 0;
    std::memcpy(&code, rest.data() + ncodes * sizeof(std::uint16_t), sizeof(code));
    ++ncodes;
    total += code;
    if (!blank) foreground += code;
    blank = !blank;
  }
  if (total != expected_length) {
    throw img::DecodeError("parse_rle_view: codes overshoot the expected length (" +
                           std::to_string(total) + " > " + std::to_string(expected_length) +
                           ")");
  }
  RleView view;
  view.ncodes = ncodes;
  view.non_blank = foreground;
  view.codes = typed_view(buf.get_bytes(ncodes * sizeof(std::uint16_t)), ncodes, code_bounce);
  view.pixels =
      typed_view(buf.get_bytes(static_cast<std::size_t>(foreground) * sizeof(img::Pixel)),
                 static_cast<std::size_t>(foreground), pixel_bounce);
  return view;
}

SpanView parse_spans_view(img::UnpackBuffer& buf, const img::Rect& rect,
                          std::vector<img::Pixel>& pixel_bounce) {
  SpanView view;
  if (rect.empty()) return view;
  const auto height = static_cast<std::size_t>(rect.height());
  // row_counts and spans are 2-byte-aligned by construction (they follow an
  // 8-byte header and 2-byte-multiple sections), so these views never
  // bounce; the DecodeError checks match parse_spans exactly.
  const std::span<const std::byte> counts_bytes = buf.get_bytes(height * sizeof(std::uint16_t));
  thread_local std::vector<std::uint16_t> counts_bounce;
  view.row_counts = typed_view(counts_bytes, height, counts_bounce);
  std::size_t total_spans = 0;
  for (std::size_t r = 0; r < height; ++r) total_spans += view.row_counts[r];
  thread_local std::vector<img::Span> span_bounce;
  view.spans = typed_view(buf.get_bytes(total_spans * sizeof(img::Span)), total_spans,
                          span_bounce);
  view.nspans = total_spans;
  std::size_t total_pixels = 0;
  for (std::size_t s = 0; s < total_spans; ++s) {
    const img::Span& span = view.spans[s];
    // A corrupted span must not index outside the rectangle when composited.
    if (static_cast<int>(span.x) + static_cast<int>(span.len) > rect.width()) {
      throw img::DecodeError("parse_spans_view: span [" + std::to_string(span.x) + "+" +
                             std::to_string(span.len) + "] exceeds rectangle width " +
                             std::to_string(rect.width()));
    }
    total_pixels += span.len;
  }
  view.pixels = typed_view(buf.get_bytes(total_pixels * sizeof(img::Pixel)), total_pixels,
                           pixel_bounce);
  view.non_blank = static_cast<std::int64_t>(total_pixels);
  return view;
}

}  // namespace slspvr::core::wire
