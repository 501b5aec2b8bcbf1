// Batched hot-path kernels for the per-pixel work of every compositing
// method: over-blending a span, the blank/non-blank opacity scan behind
// bounding rectangles, blank/non-blank run classification for the RLE
// encoder, and strided gather/scatter for the BSLC interleaved progression.
//
// Once BSBR/BSLC/BSBRC have minimized compositing *traffic*, these local
// loops dominate a frame (the Distributed FrameBuffer observation). The
// kernels whose vector body pays off have two implementations selected at
// run time (the strided gather/scatter and the span-row walk have one):
//
//  * a portable scalar reference — the oracle, semantically identical to the
//    historical one-pixel-at-a-time loops;
//  * an AVX2 implementation (x86-64, compiled only when <immintrin.h> is
//    available — the SLSPVR_KERNELS_X86 configure-time gate set by
//    src/image/CMakeLists.txt) that processes pixels in SIMD lanes and
//    scans opacity word-at-a-time through bitmasks.
//
// The two paths are *byte-identical* by construction: the vector over-blend
// uses the same multiply-then-add ordering as img::over (no FMA
// contraction), the opacity masks evaluate exactly `a == 0.0f`, and the run
// classifier emits the same codes as img::rle_encode_sequence. CI asserts
// whole-frame byte equality for every paper method under both settings.
//
// Dispatch policy (see docs/performance.md):
//  1. SLSPVR_SCALAR_KERNELS=1 in the environment forces the scalar oracle;
//  2. force_scalar_kernels() overrides the environment (tests, benches);
//  3. otherwise the best ISA compiled in AND supported by the CPU runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "image/pixel.hpp"
#include "image/rle.hpp"
#include "image/spans.hpp"

namespace slspvr::img::kern {

/// Instruction sets a kernel call may resolve to.
enum class Isa { kScalar, kAvx2 };

[[nodiscard]] std::string_view isa_name(Isa isa) noexcept;

/// True when the AVX2 implementations were compiled in (configure-time).
[[nodiscard]] bool simd_compiled() noexcept;

/// The implementation the next kernel call will take, after the environment
/// (SLSPVR_SCALAR_KERNELS=1), any force_scalar_kernels() override, and the
/// CPU's capabilities are consulted.
[[nodiscard]] Isa active_isa() noexcept;

/// Test/bench hook: `true` pins every kernel to the scalar oracle, `false`
/// pins them to the best available ISA regardless of the environment.
/// Returns the previous override state. Call clear_kernel_override() to
/// fall back to the environment-driven default.
bool force_scalar_kernels(bool scalar) noexcept;
void clear_kernel_override() noexcept;

// ---------------------------------------------------------------------------
// 1. composite_rows: over-blend `n` contiguous pixels.
//    local[i] = incoming[i] OVER local[i]   when incoming_in_front,
//    local[i] = local[i] OVER incoming[i]   otherwise.
// `local` and `incoming` must not overlap.
void composite_span(Pixel* local, const Pixel* incoming, std::int64_t n,
                    bool incoming_in_front) noexcept;

// ---------------------------------------------------------------------------
// 2. Blank scan (word-at-a-time opacity test) for bounding rectangles.

/// Index extent of the non-blank pixels of a row; {-1, -1} when all blank.
struct RowExtent {
  std::int64_t first = -1;
  std::int64_t last = -1;
};

[[nodiscard]] RowExtent row_non_blank_extent(const Pixel* row, std::int64_t n) noexcept;

/// Number of non-blank pixels among `n` contiguous pixels.
[[nodiscard]] std::int64_t count_non_blank_span(const Pixel* row, std::int64_t n) noexcept;

// ---------------------------------------------------------------------------
// 3. RLE run classification feeding img::Rle (BSBRC / BSLC encoders).

/// Carry-over between consecutive spans of the same scan: runs straddle row
/// boundaries in a rectangle scan, so the classifier is resumable.
struct RunState {
  bool blank = true;      ///< kind of the run currently open
  std::int64_t run = 0;   ///< its length so far
};

/// Classify `n` contiguous pixels, continuing `state`: appends completed
/// run codes (via the same escape logic as img::detail::emit_run) and the
/// non-blank pixel payload to `out`. Does NOT emit the final open run —
/// call rle_classify_flush once after the last span of the scan.
void rle_classify_span(const Pixel* row, std::int64_t n, RunState& state, Rle& out);

/// Emit the run left open by the last rle_classify_span call. Matches the
/// trailing emit of img::rle_encode_sequence (call only when the scan
/// covered at least one pixel).
void rle_classify_flush(RunState& state, Rle& out);

// ---------------------------------------------------------------------------
// 4. Strided gather/scatter for the BSLC interleaved pack path. One body on
//    every ISA: an unrolled AVX2 copy measured no faster.

/// out[i] = base[offset + i*stride] for i in [0, count).
void gather_strided(const Pixel* base, std::int64_t offset, std::int64_t stride,
                    std::int64_t count, Pixel* out) noexcept;

/// base[offset + i*stride] = src[i] for i in [0, count).
void scatter_strided(const Pixel* src, std::int64_t count, Pixel* base,
                     std::int64_t offset, std::int64_t stride) noexcept;

// ---------------------------------------------------------------------------
// 5. Scratch-arena fill: dst[0..n) = fully transparent blank pixels.
void fill_zero(Pixel* dst, std::int64_t n) noexcept;

// ---------------------------------------------------------------------------
// 6. Fused wire→frame kernel: blend straight out of a span payload still
//    sitting in the receive buffer, instead of materializing the unpacked
//    img::SpanImage first. The per-pixel arithmetic delegates to the
//    dispatched composite_span above, so the SLSPVR_SCALAR_KERNELS /
//    force_scalar_kernels contract and the byte-identity guarantee carry
//    over unchanged.

/// Blend `rows` scanline-span rows straight from wire arrays: row r has
/// row_counts[r] spans, taken in order from `spans` and their payload from
/// `pixels`. Row r starts at top_left + r * row_stride. Returns the number
/// of pixels composited.
std::int64_t composite_span_rows(Pixel* top_left, std::int64_t row_stride,
                                 const std::uint16_t* row_counts, std::int64_t rows,
                                 const Span* spans, const Pixel* pixels,
                                 bool incoming_in_front);

// ---------------------------------------------------------------------------
// 7. Non-temporal copy for the final gather: the root writes every placed
//    row exactly once and never re-reads it this frame, so streaming stores
//    skip the read-for-ownership and leave the cache to the pixels that are
//    still live. Scalar oracle: memcpy (copies are copies — byte-identity
//    is trivial); AVX2: 32-byte streaming stores with scalar head/tail.
void copy_span_nt(Pixel* dst, const Pixel* src, std::int64_t n) noexcept;

}  // namespace slspvr::img::kern
