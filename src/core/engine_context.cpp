#include "core/engine_context.hpp"

#include <stdexcept>

#include "image/kernels.hpp"

namespace slspvr::core {

img::Image& EngineContext::scratch_frame(int width, int height) {
  img::Image& frame = scratch_.frame;
  if (frame.width() != width || frame.height() != height) {
    frame = img::Image(width, height);  // freshly zeroed by construction
  } else {
    img::kern::fill_zero(frame.pixels().data(), frame.pixel_count());
  }
  return frame;
}

namespace {

template <typename T>
std::size_t vec_bytes(const std::vector<T>& v) noexcept {
  return v.capacity() * sizeof(T);
}

/// Release a vector outright when its capacity exceeds `budget` elements —
/// the "reset" arm of the shrink-or-reset policy (it regrows on demand).
template <typename T>
void reset_if_over(std::vector<T>& v, std::int64_t budget) {
  if (static_cast<std::int64_t>(v.capacity()) > budget) {
    v = std::vector<T>();
  }
}

}  // namespace

std::size_t EngineContext::scratch_bytes() const noexcept {
  const EngineScratch& s = scratch_;
  return s.pack.capacity() +
         static_cast<std::size_t>(s.frame.pixel_count()) * sizeof(img::Pixel) +
         vec_bytes(s.staging) + vec_bytes(s.staging2) + vec_bytes(s.bounce) +
         vec_bytes(s.code_bounce);
}

void EngineContext::trim(std::int64_t max_pixels) {
  if (max_pixels < 0) throw std::invalid_argument("EngineContext::trim: negative budget");
  // The budgets are steady-state caps, not worst-case bounds: capacity is
  // never a correctness matter (every buffer regrows on demand), so trim
  // sizes the scratch for the *typical* frame at `max_pixels` and lets a
  // pathological frame (worst-case-dense RLE, a whole-frame message) pay one
  // regrow. Worst-case budgets would defeat the audit — a frame 4x larger
  // than the budget still fits inside the smaller frame's worst case, and
  // the context would keep reporting the big frame's buffers forever.
  //
  //  * pack: raw pixels are 16 B; RLE output above ~8 B/px of the whole
  //    frame means the arena was sized by a larger (or pathological) frame.
  //  * per-message buffers (staging, bounce, codes): one exchange carries
  //    at most a region, and regions are at most half the frame whenever
  //    there are >= 2 ranks.
  const std::int64_t pack_budget = max_pixels * 8 + 64;
  const std::int64_t message_budget = max_pixels / 2 + 64;
  EngineScratch& s = scratch_;
  if (static_cast<std::int64_t>(s.pack.capacity()) > pack_budget) s.pack.reset();
  if (s.frame.pixel_count() > max_pixels) s.frame = img::Image();
  reset_if_over(s.staging, message_budget);
  reset_if_over(s.staging2, message_budget);
  reset_if_over(s.bounce, message_budget);
  reset_if_over(s.code_bounce, message_budget);
}

EngineContext::UseGuard::UseGuard(EngineContext& ctx) : ctx_(ctx) {
  if (ctx_.in_use_.exchange(true, std::memory_order_acquire)) {
    throw std::logic_error(
        "EngineContext: already in use — two frames may not share one engine "
        "context concurrently (give each frame its own, e.g. via EngineArena)");
  }
}

EngineContext::UseGuard::~UseGuard() { ctx_.in_use_.store(false, std::memory_order_release); }

}  // namespace slspvr::core
