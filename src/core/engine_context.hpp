// Per-rank engine context: the scratch one rank's stage loop reuses.
//
// A rank used to be exactly one thread, and the engine's scratch arenas were
// thread_local on the strength of that invariant. That breaks down the
// moment two frames composite concurrently in one process — the frames
// share scratch. This header replaces it with explicit state:
//
//  * EngineContext — one rank's engine instance: its EngineScratch.
//    plan_composite takes a context and guards it against concurrent use,
//    so two frames sharing a context is a hard error instead of a data race;
//  * EngineArena — a pool of per-rank contexts reused across the frames of
//    one session (scratch capacity survives between frames; trim() bounds
//    the carryover when frame sizes shrink).
//
// Each rank runs the stage loop on its own thread, exactly as one processing
// element of the paper's multicomputer does: there is no intra-rank fan-out.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "image/image.hpp"
#include "image/pack.hpp"
#include "image/pixel.hpp"

namespace slspvr::core {

/// Explicit per-rank scratch, replacing the engine's old thread_local
/// arenas: the send-buffer arena, the depth-order ping-pong frame, the
/// staging vectors behind the strided gather/blend/scatter, and the
/// misaligned-payload bounce copies of the streaming decode path.
struct EngineScratch {
  img::PackBuffer pack;                  ///< send-buffer arena
  img::Image frame;                      ///< depth-order scratch frame
  std::vector<img::Pixel> staging;       ///< strided gather/blend staging
  std::vector<img::Pixel> staging2;      ///< second gather operand
  std::vector<img::Pixel> bounce;        ///< misaligned wire-pixel bounce
  std::vector<std::uint16_t> code_bounce;  ///< misaligned wire-code bounce
};

/// One rank's engine instance and the scratch it owns. Exactly one frame
/// may use a context at a time — plan_composite acquires the context for
/// the duration of the stage loop and throws if it is already held, so two
/// frames sharing scratch is a deterministic error.
class EngineContext {
 public:
  EngineContext() = default;
  EngineContext(const EngineContext&) = delete;
  EngineContext& operator=(const EngineContext&) = delete;

  [[nodiscard]] EngineScratch& scratch() noexcept { return scratch_; }

  /// The rank's depth-order scratch frame: reused when the dimensions match
  /// (blanked with the vectorized fill), reallocated otherwise. The engine
  /// swaps it with the rank's frame at stage end, so consecutive stages
  /// ping-pong two long-lived allocations.
  [[nodiscard]] img::Image& scratch_frame(int width, int height);

  /// Bytes currently held by the scratch buffers (capacity, not size) —
  /// what a session's arena accounting reports.
  [[nodiscard]] std::size_t scratch_bytes() const noexcept;

  /// Shrink-or-reset: release any scratch buffer whose capacity exceeds
  /// what a `max_pixels`-pixel frame can need; smaller buffers are kept.
  /// Sessions call this when their frame size shrinks, so a 768² frame's
  /// arenas are not carried (and reported) under a 384² workload.
  void trim(std::int64_t max_pixels);

  /// Scoped exclusive use. Throws std::logic_error if the context is
  /// already held by another frame — the assert-no-concurrent-use guard.
  class UseGuard {
   public:
    explicit UseGuard(EngineContext& ctx);
    ~UseGuard();
    UseGuard(const UseGuard&) = delete;
    UseGuard& operator=(const UseGuard&) = delete;

   private:
    EngineContext& ctx_;
  };

 private:
  EngineScratch scratch_;
  std::atomic<bool> in_use_{false};
};

/// A session's pool of per-rank engine contexts, reused frame to frame so
/// scratch capacity amortizes across a frame sequence. Grow with require()
/// on the submitting thread *before* rank threads spawn; rank r then draws
/// context(r) with no synchronization.
class EngineArena {
 public:
  explicit EngineArena(int ranks = 0) { require(ranks); }

  [[nodiscard]] int size() const noexcept { return static_cast<int>(contexts_.size()); }

  /// Ensure at least `ranks` contexts exist (existing ones are kept).
  void require(int ranks) {
    while (static_cast<int>(contexts_.size()) < ranks) {
      contexts_.push_back(std::make_unique<EngineContext>());
    }
  }

  [[nodiscard]] EngineContext& context(int rank) {
    return *contexts_[static_cast<std::size_t>(rank)];
  }

  [[nodiscard]] std::size_t scratch_bytes() const noexcept {
    std::size_t total = 0;
    for (const auto& ctx : contexts_) total += ctx->scratch_bytes();
    return total;
  }

  void trim(std::int64_t max_pixels) {
    for (const auto& ctx : contexts_) ctx->trim(max_pixels);
  }

 private:
  std::vector<std::unique_ptr<EngineContext>> contexts_;
};

}  // namespace slspvr::core
