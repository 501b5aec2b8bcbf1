// Frame recovery: per-stage partial retention and the resume/degrade logic
// that finishes a faulted frame from the survivors.
//
// Extracted from run_compositing_ft so both failure paths share one
// implementation:
//  * in-process (threads-as-PEs): the runtime's poison machinery aborts the
//    ranks, their SnapshotStore slots are already in this address space,
//    and recover_frame runs directly;
//  * multi-process (socket backend): aborting workers serialize their
//    retained partials and ship them to the supervisor, which rebuilds a
//    SnapshotStore via add() and calls the *same* recover_frame — resume
//    and degraded recomposition always execute in the supervisor process,
//    which holds every rank's rendered subimage from before the fork.
//
// Recovery policy (unchanged from PR 3/5): try mid-frame plan repair first —
// survivors agree on the deepest stage everyone retained (poison-safe
// consensus round), re-contribute the dead ranks' orphaned regions from
// their own still-live subimages, and run a repaired k-ary exchange; when
// repair is not applicable (no rect plan, non-contiguous contributor
// classes, missing snapshots) the frame is recomposited degraded from the
// survivors via the fold extension.
#pragma once

#include <string_view>
#include <vector>

#include "core/compositor.hpp"
#include "core/cost_model.hpp"
#include "core/engine.hpp"
#include "core/engine_context.hpp"
#include "mp/runtime.hpp"
#include "pvr/experiment.hpp"

namespace slspvr::pvr {

/// Per-stage partial-result retention: each PE appends a copy of its owned
/// partial after every completed stage of a balanced rect plan. Slots are
/// per-rank and written only by that rank's thread (or rebuilt via add()
/// from a worker's shipped snapshots); readers wait for the run to end.
class SnapshotStore final : public core::StageSnapshotSink {
 public:
  struct Snap {
    int stage = 0;  ///< 1-based stage marker (== completed stage count)
    img::Image image;
    img::Rect region;
  };

  explicit SnapshotStore(int ranks) : slots_(static_cast<std::size_t>(ranks)) {}

  void on_stage_complete(int rank, int stage, const img::Image& image,
                         const img::Rect& region) override;

  /// Supervisor-side rebuild from a worker's serialized snapshots.
  void add(int rank, int stage, img::Image image, const img::Rect& region) {
    slots_[static_cast<std::size_t>(rank)].push_back({stage, std::move(image), region});
  }

  /// Highest completed stage rank `r` retained a partial for (0 = none).
  [[nodiscard]] int height(int rank) const;

  [[nodiscard]] const Snap* at_stage(int rank, int stage) const;

  /// All retained snapshots of one rank (serialization by the worker side).
  [[nodiscard]] const std::vector<Snap>& slots(int rank) const {
    return slots_[static_cast<std::size_t>(rank)];
  }

 private:
  std::vector<std::vector<Snap>> slots_;
};

/// Scoped install of the thread-local retention sink on a PE thread.
class RetentionGuard {
 public:
  explicit RetentionGuard(core::StageSnapshotSink* sink) { core::set_stage_retention(sink); }
  ~RetentionGuard() { core::set_stage_retention(nullptr); }
  RetentionGuard(const RetentionGuard&) = delete;
  RetentionGuard& operator=(const RetentionGuard&) = delete;
};

/// A clean SPMD run's MethodResult: the critical-path model times, the
/// staged timeline, M_max and the per-rank received bytes derived from the
/// traffic trace, plus the counters, wall clock and gathered frame. The
/// thread backend (run_attempt) and the worker-process backend (from the
/// workers' shipped reports) both assemble their results here.
[[nodiscard]] MethodResult assemble_result(std::string_view method,
                                           std::vector<core::Counters> per_rank,
                                           const mp::TrafficTrace& trace,
                                           const core::CostModel& model, double wall_ms,
                                           img::Image final_image);

/// One SPMD execution's outcome (an empty result on failure).
struct Attempt {
  MethodResult result;
  std::vector<mp::RankFailure> failures;
  mp::RetryStats retry_stats;  ///< what the transport healed this attempt
};

/// One SPMD execution under the given runtime options. On failure the
/// MethodResult is empty — callers either rethrow or fold the failed ranks
/// out and retry. With a non-null `store`, every rank retains per-stage
/// partials for mid-frame repair.
/// Rank r composites with `arena->context(r)`; a null arena gets a one-shot
/// arena for this attempt. The arena
/// is grown on the calling thread before any rank thread spawns.
[[nodiscard]] Attempt run_attempt(const core::Compositor& method,
                                  const std::vector<img::Image>& subimages,
                                  const core::SwapOrder& order, const core::CostModel& model,
                                  const mp::RunOptions& opts, SnapshotStore* store = nullptr,
                                  core::EngineArena* arena = nullptr);

/// Finish a faulted frame from the survivors: mid-frame plan repair when
/// possible, degraded fold-out recomposition otherwise. `failed` marks the
/// original ranks lost in the faulted attempt; `report` arrives seeded with
/// that attempt's events/retry stats (faulted = true) and is completed with
/// retries, failed_ranks, pixels_lost and the resume/degrade verdict.
/// Always runs in-process (threads) over the caller's subimages. Recovery
/// rounds draw per-rank engine contexts from `arena` when one is supplied
/// (survivor rank i uses context i), else from per-round one-shot arenas.
[[nodiscard]] FtMethodResult recover_frame(const core::Compositor& method,
                                           const std::vector<img::Image>& subimages,
                                           const core::SwapOrder& order,
                                           const core::CostModel& model,
                                           const SnapshotStore& store,
                                           std::vector<bool> failed, FaultReport report,
                                           core::EngineArena* arena = nullptr);

}  // namespace slspvr::pvr
