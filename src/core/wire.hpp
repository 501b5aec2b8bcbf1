// Wire helpers shared by the binary-swap family: packing raw rectangles,
// run-length encoded rectangles, and run-length encoded interleaved ranges
// into send buffers, and compositing them back out of receive buffers.
// The unpack-then-blend functions (unpack_composite_*, composite_rle_*) are
// the reference decoders: the codecs' streaming decode_*_into paths are
// tested byte-for-byte against them, and Fold's pre-stage uses
// unpack_composite_rle_rect directly.
#pragma once

#include <cstdint>
#include <vector>

#include "core/counters.hpp"
#include "image/image.hpp"
#include "image/interleave.hpp"
#include "image/pack.hpp"
#include "image/rle.hpp"
#include "image/spans.hpp"

namespace slspvr::core::wire {

/// Append the raw pixels of `rect` (row-major) to `buf`.
void pack_rect_pixels(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf);

/// Composite raw rect pixels from `buf` into `image` over `rect`.
/// Every pixel of the rectangle costs one over op (the BSBR disadvantage:
/// blank pixels inside the rectangle are shipped and composited too).
void unpack_composite_rect(img::Image& image, const img::Rect& rect, img::UnpackBuffer& buf,
                           bool incoming_in_front, Counters& counters);

/// Run-length encode the pixels of `rect` in row-major order.
/// Counts rect.area() encoded pixels and the emitted codes.
[[nodiscard]] img::Rle encode_rect(const img::Image& image, const img::Rect& rect,
                                   Counters& counters);

/// Run-length encode the pixels of an interleaved progression.
[[nodiscard]] img::Rle encode_strided(const img::Image& image,
                                      const img::InterleavedRange& range,
                                      Counters& counters);

/// Append an Rle to `buf`: codes then pixels, no header — the decoder knows
/// the expected sequence length, so wire bytes are exactly
/// 2*#codes + 16*#pixels (the R_code / A_opaque terms of Eqs. 6 and 8).
void pack_rle(const img::Rle& rle, img::PackBuffer& buf);

/// Parse an Rle representing `expected_length` pixels from `buf`.
/// Throws img::DecodeError when the codes overshoot the expected sequence
/// length or the buffer is truncated — never reads out of bounds.
[[nodiscard]] img::Rle parse_rle(img::UnpackBuffer& buf, std::int64_t expected_length);

/// Parse an 8-byte wire rectangle and validate it against `bounds`: the
/// rectangle must be empty or well-formed and fully inside `bounds`.
/// Throws img::DecodeError otherwise (a corrupted or hostile header must
/// not drive out-of-bounds pixel writes in the compositing loops).
[[nodiscard]] img::Rect parse_rect(img::UnpackBuffer& buf, const img::Rect& bounds);

/// Composite an Rle whose sequence is the row-major scan of `rect`.
/// Only non-blank pixels are composited (one over op each).
void composite_rle_rect(img::Image& image, const img::Rect& rect, const img::Rle& rle,
                        bool incoming_in_front, Counters& counters);

/// Composite an Rle whose sequence is the interleaved progression `range`.
void composite_rle_strided(img::Image& image, const img::InterleavedRange& range,
                           const img::Rle& rle, bool incoming_in_front, Counters& counters);

// ---- header + payload sequences ------------------------------------------
// The WireRect-then-payload pack/parse sequences BSBR/BSBRC/BSBRS/Fold used
// to each spell out inline. One shared copy keeps the header handling (and
// its bounds checks) identical across every method that ships a rectangle.

/// BSBR wire format: 8 B WireRect, then the rectangle's raw pixels (nothing
/// when the rectangle is empty). Adds rect.area() to pixels_sent.
void pack_raw_rect(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf,
                   Counters& counters);

/// Parse a pack_raw_rect message and composite it into `image`. The header
/// rectangle is validated against `bounds` before any pixel is touched.
/// Returns the received rectangle (empty when the sender had nothing).
[[nodiscard]] img::Rect unpack_composite_raw_rect(img::Image& image, img::UnpackBuffer& buf,
                                                  const img::Rect& bounds,
                                                  bool incoming_in_front, Counters& counters);

/// BSBRC wire format: 8 B WireRect, then the rectangle's row-major RLE
/// (codes + non-blank pixels). Adds the non-blank count to pixels_sent.
void pack_rle_rect(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf,
                   Counters& counters);

/// Parse a pack_rle_rect message and composite its non-blank pixels.
[[nodiscard]] img::Rect unpack_composite_rle_rect(img::Image& image, img::UnpackBuffer& buf,
                                                  const img::Rect& bounds,
                                                  bool incoming_in_front, Counters& counters);

/// BSBRS wire format: 8 B WireRect, then the rectangle's scanline spans.
void pack_span_rect(const img::Image& image, const img::Rect& rect, img::PackBuffer& buf,
                    Counters& counters);

/// Parse a pack_span_rect message and composite its span pixels.
[[nodiscard]] img::Rect unpack_composite_span_rect(img::Image& image, img::UnpackBuffer& buf,
                                                   const img::Rect& bounds,
                                                   bool incoming_in_front, Counters& counters);

// ---- streaming views (decode→composite) ----------------------------------
// The codec decoders blend straight out of the receive buffer, so instead of
// materializing img::Rle / img::SpanImage (allocating and copying codes and
// pixels) they take zero-copy *views* of the payload. Validation is the same
// as the materializing parsers — truncation, overshooting code totals and
// out-of-rect spans all throw img::DecodeError before any pixel is touched.
// Pixel payloads land 2-mod-4 whenever an odd number of 2-byte codes
// precedes them; a misaligned section is copied once into the caller's
// bounce vector (still cheaper than the full materializing parse).

/// Zero-copy view of a pack_rle message: codes + payload, still in `buf`.
struct RleView {
  const std::uint16_t* codes = nullptr;
  std::size_t ncodes = 0;
  const img::Pixel* pixels = nullptr;
  std::int64_t non_blank = 0;  ///< total payload pixels (sum of non-blank runs)
};

/// Parse an RLE view for `expected_length` sequence elements. Consumes the
/// message bytes from `buf`; `pixel_bounce`/`code_bounce` back misaligned
/// sections and must outlive every use of the view.
[[nodiscard]] RleView parse_rle_view(img::UnpackBuffer& buf, std::int64_t expected_length,
                                     std::vector<img::Pixel>& pixel_bounce,
                                     std::vector<std::uint16_t>& code_bounce);

/// Zero-copy view of a pack_spans message for a known rectangle.
struct SpanView {
  const std::uint16_t* row_counts = nullptr;  ///< rect.height() entries
  const img::Span* spans = nullptr;
  std::size_t nspans = 0;
  const img::Pixel* pixels = nullptr;
  std::int64_t non_blank = 0;
};

/// Parse a span view for `rect` (same validation as parse_spans).
[[nodiscard]] SpanView parse_spans_view(img::UnpackBuffer& buf, const img::Rect& rect,
                                        std::vector<img::Pixel>& pixel_bounce);

// ---- scanline-span codec (future-work encoding; see image/spans.hpp) -----

/// Span-encode the pixels of `rect`; counts rect.area() encoded pixels and
/// one "code" per row plus two per span (matching its 2-byte units so the
/// cost model's R_code term stays comparable with the RLE methods).
[[nodiscard]] img::SpanImage encode_spans(const img::Image& image, const img::Rect& rect,
                                          Counters& counters);

/// Append a SpanImage (rows, spans, pixels — rect is shipped separately).
void pack_spans(const img::SpanImage& spans, img::PackBuffer& buf);

/// Parse a SpanImage for the known `rect` from `buf`.
[[nodiscard]] img::SpanImage parse_spans(img::UnpackBuffer& buf, const img::Rect& rect);

/// Composite the span pixels into `image` (over ops = non-blank count).
void composite_spans(img::Image& image, const img::SpanImage& spans,
                     bool incoming_in_front, Counters& counters);

}  // namespace slspvr::core::wire
