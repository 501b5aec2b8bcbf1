// Background/foreground run-length encoding (Sec. 3.3, Figure 5).
//
// The paper's key observation: value-based RLE (Ahrens–Painter) degenerates
// on volume-rendered images because adjacent non-blank float pixels rarely
// repeat. Encoding the *blank/non-blank* pattern instead needs only a 2-byte
// count per run (the R_code term of Eq. 6/8) plus the raw non-blank pixels.
//
// Codes alternate blank-count, non-blank-count, ..., starting with a blank
// run (possibly zero-length). Runs longer than 65535 are split by inserting
// a zero-length run of the opposite kind, preserving alternation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "image/pixel.hpp"

namespace slspvr::img {

/// A run-length encoded pixel sequence.
struct Rle {
  std::vector<std::uint16_t> codes;  ///< alternating blank/non-blank counts
  std::vector<Pixel> pixels;         ///< non-blank pixel values, in order
  std::int64_t length = 0;           ///< total pixels represented

  /// Bytes this encoding occupies on the wire: 2 per code + 16 per pixel
  /// (the 2*R_code + 16*A_opaque terms of Eq. 6 and Eq. 8).
  [[nodiscard]] std::int64_t wire_bytes() const noexcept {
    return 2 * static_cast<std::int64_t>(codes.size()) +
           16 * static_cast<std::int64_t>(pixels.size());
  }

  [[nodiscard]] std::int64_t non_blank_count() const noexcept {
    return static_cast<std::int64_t>(pixels.size());
  }
};

inline constexpr std::uint32_t kMaxRun = 65535;

namespace detail {
inline void emit_run(std::vector<std::uint16_t>& codes, std::int64_t count) {
  while (count > kMaxRun) {
    codes.push_back(static_cast<std::uint16_t>(kMaxRun));
    codes.push_back(0);  // zero-length run of the opposite kind
    count -= kMaxRun;
  }
  codes.push_back(static_cast<std::uint16_t>(count));
}
}  // namespace detail

/// Encode `n` pixels obtained via `get(i)` (0 <= i < n). `get` must return a
/// value convertible to `const Pixel&`. The sequence abstraction covers both
/// BSBRC's rectangle scan order and BSLC's interleaved progression.
template <typename GetPixel>
[[nodiscard]] Rle rle_encode_sequence(std::int64_t n, GetPixel&& get) {
  Rle out;
  out.length = n;
  bool current_blank = true;  // encoding starts with a (possibly empty) blank run
  std::int64_t run = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const Pixel& p = get(i);
    const bool blank = is_blank(p);
    if (blank != current_blank) {
      detail::emit_run(out.codes, run);
      current_blank = blank;
      run = 0;
    }
    ++run;
    if (!blank) out.pixels.push_back(p);
  }
  if (n > 0) detail::emit_run(out.codes, run);
  return out;
}

/// Walk the non-blank entries: calls `visit(sequence_index, pixel)` for each.
/// This is how the receiver composites "only the non-blank pixels in a
/// receiving buffer according to the run-length codes" (Sec. 3.3).
template <typename Visit>
void rle_for_each_non_blank(const Rle& rle, Visit&& visit) {
  std::int64_t pos = 0;
  std::size_t pix = 0;
  bool blank = true;
  for (const std::uint16_t code : rle.codes) {
    if (!blank) {
      for (std::uint16_t j = 0; j < code; ++j) visit(pos + j, rle.pixels[pix++]);
    }
    pos += code;
    blank = !blank;
  }
}

/// Walk whole non-blank *runs*: calls `visit(start_index, length, pixels)`
/// once per non-empty foreground run, with `pixels` pointing at `length`
/// consecutive payload entries. The batched form of rle_for_each_non_blank
/// — receivers hand each run to the span kernels instead of compositing
/// pixel by pixel. This overload walks raw code/payload arrays, so a wire
/// view still sitting in the receive buffer needs no unpacked Rle.
template <typename VisitRun>
void rle_for_each_non_blank_run(const std::uint16_t* codes, std::size_t ncodes,
                                const Pixel* pixels, VisitRun&& visit) {
  std::int64_t pos = 0;
  bool blank = true;
  for (std::size_t i = 0; i < ncodes; ++i) {
    const std::uint16_t code = codes[i];
    if (!blank && code > 0) {
      visit(pos, static_cast<std::int64_t>(code), pixels);
      pixels += code;
    }
    pos += code;
    blank = !blank;
  }
}

template <typename VisitRun>
void rle_for_each_non_blank_run(const Rle& rle, VisitRun&& visit) {
  rle_for_each_non_blank_run(rle.codes.data(), rle.codes.size(), rle.pixels.data(), visit);
}

/// Structural validation: codes sum to length, pixel count matches
/// foreground codes, alternation invariants hold. Used by tests and by the
/// receive path as a cheap corruption check.
[[nodiscard]] bool rle_valid(const Rle& rle);

}  // namespace slspvr::img
