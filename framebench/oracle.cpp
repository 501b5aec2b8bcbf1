#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "render/camera.hpp"
#include "render/raycast.hpp"

namespace framebench {

using slspvr::img::Image;
using slspvr::img::Pixel;

namespace {

/// Pixel i of the front-to-back over of `subimages` in `front_to_back` order.
Pixel over_pixel(const std::vector<Image>& subimages, const std::vector<int>& front_to_back,
                 std::size_t i) {
  Pixel f{};
  for (const int rank : front_to_back) {
    const Pixel& b = subimages.at(static_cast<std::size_t>(rank)).pixels()[i];
    const float t = 1.0f - f.a;
    f = Pixel{f.r + t * b.r, f.g + t * b.g, f.b + t * b.b, f.a + t * b.a};
  }
  return f;
}

float channel_diff(const Pixel& a, const Pixel& b) {
  return std::max({std::fabs(a.r - b.r), std::fabs(a.g - b.g), std::fabs(a.b - b.b),
                   std::fabs(a.a - b.a)});
}

}  // namespace

Image over_front_to_back(const std::vector<Image>& subimages,
                         const std::vector<int>& front_to_back) {
  if (subimages.empty()) return Image{};
  Image acc(subimages.front().width(), subimages.front().height());
  std::span<Pixel> out = acc.pixels();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = over_pixel(subimages, front_to_back, i);
  return acc;
}

double max_abs_diff(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  std::span<const Pixel> pa = a.pixels();
  std::span<const Pixel> pb = b.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    worst = std::max(worst, static_cast<double>(channel_diff(pa[i], pb[i])));
  }
  return worst;
}

bool matches_over(const Image& frame, const std::vector<Image>& subimages,
                  const std::vector<int>& front_to_back) {
  for (const Image& sub : subimages) {
    if (sub.width() != frame.width() || sub.height() != frame.height()) return false;
  }
  std::span<const Pixel> px = frame.pixels();
  for (std::size_t i = 0; i < px.size(); ++i) {
    if (channel_diff(px[i], over_pixel(subimages, front_to_back, i)) > kOverTolerance) {
      return false;
    }
  }
  return true;
}

RenderCheck check_against_full_render(const Image& frame, const slspvr::vol::Dataset& dataset,
                                      const slspvr::pvr::ExperimentConfig& config) {
  namespace render = slspvr::render;
  render::OrthoCamera camera(dataset.volume.dims(), config.image_size, config.image_size,
                             config.rot_x_deg, config.rot_y_deg);
  render::RaycastOptions options;
  options.step = config.step;
  Image full(config.image_size, config.image_size);
  render::render_full(dataset.volume, dataset.tf, camera, full, options);
  // 1e-6 (about eight float ulps at 1.0) covers rounding in the opacity
  // accumulated along a ray; the measured worst case sits within 1e-6 of
  // 1 - early_termination.
  return RenderCheck{max_abs_diff(frame, full),
                     1.0 - static_cast<double>(options.early_termination) + 1e-6};
}

std::string message_size_violation(const MessageSizes& m, int image_size, int ranks) {
  const std::uint64_t n2 = static_cast<std::uint64_t>(image_size) *
                           static_cast<std::uint64_t>(image_size);
  const std::uint64_t expect_bs = n2 * 16 / static_cast<std::uint64_t>(ranks) *
                                  static_cast<std::uint64_t>(ranks - 1);
  if (m.bs != expect_bs) {
    return "M_BS " + std::to_string(m.bs) + " != (1-1/P)N^2*16 = " + std::to_string(expect_bs);
  }
  if (m.bs + 128 < m.bsbr) return "M_BS + 128 < M_BSBR (" + std::to_string(m.bsbr) + ")";
  if (m.bsbr + 128 < m.bsbrc) return "M_BSBR + 128 < M_BSBRC (" + std::to_string(m.bsbrc) + ")";
  if (m.bs < m.bslc) return "M_BS < M_BSLC (" + std::to_string(m.bslc) + ")";
  return "";
}

std::uint64_t frame_hash(const Image& image) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(image.width()));
  mix(static_cast<std::uint64_t>(image.height()));
  std::span<const Pixel> px = image.pixels();
  const auto* bytes = reinterpret_cast<const unsigned char*>(px.data());
  for (std::size_t off = 0; off < px.size_bytes(); off += sizeof(std::uint64_t)) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + off, sizeof(word));
    mix(word);
  }
  return h;
}

std::string checker_self_test(const Image& good, const std::vector<Image>& subimages,
                              const std::vector<int>& front_to_back) {
  if (!matches_over(good, subimages, front_to_back)) {
    return "the program's own frame failed the checker";
  }

  std::vector<Image> bad;
  Image perturbed = good;
  perturbed.at(perturbed.width() / 2, perturbed.height() / 2).r += 1e-3f;
  bad.push_back(std::move(perturbed));
  bad.push_back(over_front_to_back(
      subimages, std::vector<int>(front_to_back.rbegin(), front_to_back.rend())));
  Image narrow(good.width() - 1, good.height());
  for (int y = 0; y < narrow.height(); ++y) {
    for (int x = 0; x < narrow.width(); ++x) narrow.at(x, y) = good.at(x, y);
  }
  bad.push_back(std::move(narrow));

  const char* names[] = {"perturbed pixel", "reversed depth order", "wrong size"};
  std::string missed;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    if (matches_over(bad[i], subimages, front_to_back)) {
      missed += std::string(missed.empty() ? "" : ", ") + names[i];
    }
  }
  return missed.empty() ? "" : "bad frame(s) passed the checker: " + missed;
}

}  // namespace framebench
