// Independent oracles for benchmark frames. Nothing here calls the
// program's compositors: the over-composite is the benchmark's own loop,
// and the render oracle is the single-brick ray caster run over the whole
// volume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "pvr/experiment.hpp"
#include "volume/datasets.hpp"

namespace framebench {

/// Max-abs tolerance between a frame and the benchmark's own over-composite
/// (the tolerance tests/test_helpers.hpp uses).
inline constexpr double kOverTolerance = 5e-5;

/// Front-to-back premultiplied over of `subimages` in `front_to_back` order,
/// written out here rather than taken from core::composite_reference.
[[nodiscard]] slspvr::img::Image over_front_to_back(
    const std::vector<slspvr::img::Image>& subimages, const std::vector<int>& front_to_back);

/// Largest per-channel difference; +infinity when the sizes differ.
[[nodiscard]] double max_abs_diff(const slspvr::img::Image& a, const slspvr::img::Image& b);

/// Does `frame` match the over-composite of `subimages` within
/// kOverTolerance? The composite is formed pixel by pixel, so the check
/// allocates nothing.
[[nodiscard]] bool matches_over(const slspvr::img::Image& frame,
                                const std::vector<slspvr::img::Image>& subimages,
                                const std::vector<int>& front_to_back);

/// Max-abs difference between `frame` and render::render_full of the same
/// view, and the bound it must stay under: 1 - early_termination (each
/// brick stops its rays at that opacity, the full render stops once), plus
/// float rounding slack.
struct RenderCheck {
  double diff = 0.0;
  double bound = 0.0;
  [[nodiscard]] bool ok() const { return diff <= bound; }
  friend bool operator<(const RenderCheck& a, const RenderCheck& b) { return a.diff < b.diff; }
};
[[nodiscard]] RenderCheck check_against_full_render(const slspvr::img::Image& frame,
                                                    const slspvr::vol::Dataset& dataset,
                                                    const slspvr::pvr::ExperimentConfig& config);

/// M_max of the four paper methods for one view.
struct MessageSizes {
  std::uint64_t bs = 0;
  std::uint64_t bsbr = 0;
  std::uint64_t bslc = 0;
  std::uint64_t bsbrc = 0;
};
/// The Sec. 4 message-size properties: M_BS = (1 - 1/P)·N²·16 exactly,
/// M_BS + 128 >= M_BSBR, M_BSBR + 128 >= M_BSBRC and M_BS >= M_BSLC.
/// Returns the first violated property, or "" when all hold.
/// M_BSBRC >= M_BSLC is deliberately not asserted: it is false on some
/// rendered views.
[[nodiscard]] std::string message_size_violation(const MessageSizes& m, int image_size,
                                                 int ranks);

/// 64-bit FNV-1a over the frame's bytes (dimensions included).
[[nodiscard]] std::uint64_t frame_hash(const slspvr::img::Image& image);

/// Checker self-test: `good` must pass against the over-composite of
/// `subimages`, and three bad frames built from them (one pixel perturbed
/// by 1e-3, the depth order reversed, one column short) must each be
/// counted as a failed frame. Returns "" on success, else what went wrong.
[[nodiscard]] std::string checker_self_test(const slspvr::img::Image& good,
                                            const std::vector<slspvr::img::Image>& subimages,
                                            const std::vector<int>& front_to_back);

}  // namespace framebench
