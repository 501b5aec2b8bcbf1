// End-to-end sort-last experiment harness: partitioning phase + rendering
// phase + compositing phase (Figure 1 of the paper), instrumented the way
// the evaluation section needs.
//
// An Experiment renders the per-PE subimages once; each call to run()
// executes one compositing method SPMD over those subimages and returns the
// modelled times (SP2 cost model), M_max, wall-clock, per-rank counters and
// the gathered final image. Power-of-two rank counts use the kd partition;
// any other count automatically switches to the slab decomposition and
// wraps the method in the non-power-of-two fold extension.
//
// The frame path: each phase of a frame has one implementation —
// partition_frame (partition + compositing order), render_subimage (one
// brick) and FrameMethod (the fold choice) below, run_attempt and
// assemble_result in pvr/recovery.hpp — and every runner goes through them:
// Experiment, the --procs and sequence worker processes
// (pvr/proc_runner.cpp) and FrameService.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/compositor.hpp"
#include "core/cost_model.hpp"
#include "core/engine_context.hpp"
#include "core/timeline.hpp"
#include "core/order.hpp"
#include "mp/fault.hpp"
#include "mp/runtime.hpp"
#include "volume/datasets.hpp"
#include "volume/partition.hpp"

namespace slspvr::pvr {

struct ProcOptions;  // pvr/proc_runner.hpp — multi-process (socket) backend

struct ExperimentConfig {
  vol::DatasetKind dataset = vol::DatasetKind::EngineLow;
  double volume_scale = 1.0;   ///< 1.0 = the paper's 256^3-class volumes
  int image_size = 384;        ///< square image (384 or 768 in the paper)
  int ranks = 4;
  float rot_x_deg = 18.0f;     ///< default off-axis view (avoids degenerate
  float rot_y_deg = 24.0f;     ///  all-empty/all-full bounding rectangles)
  bool balanced_partition = false;  ///< future-work load-balanced kd splits
  bool use_splatting = false;       ///< future-work splatting renderer
  /// Execute the partitioning phase over the message-passing runtime: rank 0
  /// ships each PE its ghost brick and PEs render from purely local data
  /// (identical images; adds partition-traffic accounting). Ray caster only.
  bool distributed_partitioning = false;
  float step = 1.0f;                ///< ray sampling step (voxels)
  core::CostModel cost_model = core::CostModel::sp2();
};

/// One observed failure during a fault-tolerant run. Ranks are reported in
/// the *original* (attempt-0) numbering, including failures seen during
/// degraded retries.
struct FaultEvent {
  int rank = -1;
  int stage = 0;        ///< compositing stage the rank had reached
  bool primary = false; ///< original fault vs. poison-propagated abort
  int attempt = 0;      ///< 0 = the faulted full run, 1.. = degraded retries
  std::string what;
};

/// Structured outcome of a fault-tolerant compositing run, emitted alongside
/// the traffic trace: which PEs were folded out, how far they got, how many
/// rendered (non-blank) pixels their subimages contributed, and how many
/// retry rounds the frame needed.
struct FaultReport {
  bool faulted = false;   ///< at least one rank failed
  bool degraded = false;  ///< the frame was restarted from the survivors
  /// The frame was completed via mid-frame plan repair: survivors resumed
  /// from their retained stage-`resume_epoch` partials instead of
  /// recompositing from scratch (mutually exclusive with `degraded`).
  bool resumed = false;
  int resume_epoch = -1;  ///< completed stages the repair resumed from
  int retries = 0;        ///< recovery rounds (resume attempt + degraded)
  std::vector<int> failed_ranks;   ///< original ranks folded out, ascending
  std::vector<FaultEvent> events;  ///< every failure observed, all attempts
  std::int64_t pixels_lost = 0;    ///< non-blank pixels actually lost
  /// What the reliable transport healed (NAKs, retransmits, bytes) across
  /// all attempts — nonzero heals with `faulted == false` mean drops or
  /// corruption occurred and were repaired without losing the frame.
  mp::RetryStats retry_stats;
  /// Sequence mode (run_compositing_sequence): resurrection accounting.
  /// `respawns` counts successful mid-sequence resurrections; `generations`
  /// is the final per-rank incarnation number (0 = never died);
  /// `stale_rejects` counts frames refused for carrying a dead
  /// incarnation's generation. All zero/empty for single-frame runs.
  int respawns = 0;
  std::vector<std::uint32_t> generations;
  std::uint64_t stale_rejects = 0;

  /// One-line human-readable digest ("2 PE(s) failed ... finished degraded").
  [[nodiscard]] std::string summary() const;
};

struct MethodResult {
  std::string method;
  core::ModelTimes times;   ///< critical-path modelled T_comp / T_comm (ms)
  core::TimelineResult timeline;  ///< staged simulation incl. sync wait
  std::uint64_t m_max = 0;  ///< paper's maximum received message size (bytes)
  double wall_ms = 0.0;     ///< wall-clock of the SPMD compositing section
  img::Image final_image;   ///< gathered at rank 0
  std::vector<core::Counters> per_rank;
  std::vector<std::uint64_t> received_bytes_per_rank;  ///< m_i per rank
};

/// Result of a fault-tolerant run: the (possibly degraded) frame plus the
/// structured fault report.
struct FtMethodResult {
  MethodResult result;
  FaultReport report;
};

class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& config);

  /// Run the pipeline over a user-supplied volume + transfer function
  /// (config.dataset / volume_scale are ignored; everything else applies).
  /// This is the bring-your-own-data entry point used by tools/.
  Experiment(const vol::Dataset& dataset, const ExperimentConfig& config);

  [[nodiscard]] const ExperimentConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<img::Image>& subimages() const noexcept {
    return subimages_;
  }
  [[nodiscard]] const core::SwapOrder& order() const noexcept { return order_; }
  [[nodiscard]] const std::vector<vol::Brick>& bricks() const noexcept { return bricks_; }

  /// Sequential depth-ordered composite of the subimages — the ground truth.
  [[nodiscard]] img::Image reference() const;

  /// Partitioning-phase traffic (nonzero only with distributed_partitioning).
  [[nodiscard]] std::uint64_t total_partition_bytes() const noexcept {
    return total_partition_bytes_;
  }
  [[nodiscard]] std::uint64_t max_partition_bytes() const noexcept {
    return max_partition_bytes_;
  }

  /// Execute one compositing method over the rendered subimages.
  [[nodiscard]] MethodResult run(const core::Compositor& method) const;

  /// Fault-tolerant variant: runs `method` under the given fault plan; on
  /// PE failure the frame is finished from the survivors (degraded mode)
  /// and the FaultReport says what was lost. With an empty plan this is
  /// behaviourally identical to run(). A non-null `arena` supplies pooled
  /// per-rank engine contexts (FrameService passes its session's arena).
  [[nodiscard]] FtMethodResult run_ft(const core::Compositor& method,
                                      const mp::FaultPlan& faults,
                                      core::EngineArena* arena = nullptr) const;

  /// Multi-process variant: the compositing phase runs in real worker
  /// processes over the socket backend (defined in pvr/proc_runner.cpp).
  /// Clean runs produce a final frame byte-identical to run()'s; real
  /// worker deaths are finished from the survivors via recover_frame, with
  /// the supervisor's provenance ("killed by signal 9 (SIGKILL)",
  /// "heartbeat timeout: ...") in the FaultReport events.
  [[nodiscard]] FtMethodResult run_procs(const core::Compositor& method,
                                         const ProcOptions& opts) const;

 private:
  ExperimentConfig config_;
  std::vector<vol::Brick> bricks_;
  core::SwapOrder order_;
  std::vector<img::Image> subimages_;
  std::uint64_t total_partition_bytes_ = 0;
  std::uint64_t max_partition_bytes_ = 0;
};

/// Partitioning phase for one view: kd bricks and their swap order at a
/// power-of-two rank count, else depth-ordered slabs along x with the fold
/// order. Deterministic in (volume, config), so a respawned worker derives
/// the same bricks as its dead predecessor.
struct FramePartition {
  std::vector<vol::Brick> bricks;
  core::SwapOrder order;
};
[[nodiscard]] FramePartition partition_frame(const vol::Dataset& dataset,
                                             const ExperimentConfig& config);

/// Rendering phase for one brick: ray cast (or splat) it into a full-frame
/// subimage of the config's view.
[[nodiscard]] img::Image render_subimage(const vol::Dataset& dataset,
                                         const ExperimentConfig& config,
                                         const vol::Brick& brick);

/// The fold choice: over a power-of-two rank count a frame composites with
/// `method` itself; over any other count (slab partition, fold order) with
/// `method` wrapped in the fold extension. get() is valid while both this
/// and `method` live.
class FrameMethod {
 public:
  FrameMethod(const core::Compositor& method, int ranks);
  [[nodiscard]] const core::Compositor& get() const noexcept { return *chosen_; }

 private:
  std::unique_ptr<core::Compositor> fold_;  ///< null at a power-of-two count
  const core::Compositor* chosen_ = nullptr;
};

/// Run one compositing method SPMD over externally supplied subimages (no
/// rendering phase) — the workhorse behind Experiment::run, also used
/// directly by the ablation benches and property tests. `final_image` is
/// gathered at rank 0. A non-null `arena` supplies pooled per-rank engine
/// contexts (FrameService reuses one arena across a session's frames);
/// otherwise the run uses a one-shot arena.
[[nodiscard]] MethodResult run_compositing(const core::Compositor& method,
                                           const std::vector<img::Image>& subimages,
                                           const core::SwapOrder& order,
                                           const core::CostModel& model = core::CostModel::sp2(),
                                           core::EngineArena* arena = nullptr);

/// Fault-tolerant workhorse: execute `method` under `faults` (injected
/// kills, drops, corruption, recv deadline). If any rank fails, the run is
/// aborted deadlock-free, the failed PEs are folded out, and the frame is
/// recomposited from the surviving subimages in their original depth order
/// (non-power-of-two survivor counts use the fold extension). The degraded
/// frame equals the sequential reference composited over the survivors.
[[nodiscard]] FtMethodResult run_compositing_ft(
    const core::Compositor& method, const std::vector<img::Image>& subimages,
    const core::SwapOrder& order, const mp::FaultPlan& faults,
    const core::CostModel& model = core::CostModel::sp2(), core::EngineArena* arena = nullptr);

/// All four of the paper's methods, in Table 1 column order.
struct MethodSet {
  [[nodiscard]] static std::vector<std::unique_ptr<core::Compositor>> paper_methods();
  /// The three proposed methods (Table 2 / Figures 8-11).
  [[nodiscard]] static std::vector<std::unique_ptr<core::Compositor>> proposed_methods();
  /// Everything in the library, including related-work baselines.
  [[nodiscard]] static std::vector<std::unique_ptr<core::Compositor>> all_methods();
  /// Cross-bred (plan, codec) combinations the decomposition makes free:
  /// k-ary group exchanges (any P, no Fold wrapper) carrying each paper
  /// payload, plus tree and direct-send re-bound to BSBRC's RLE-in-rect.
  [[nodiscard]] static std::vector<std::unique_ptr<core::Compositor>> plan_combinations();
};

}  // namespace slspvr::pvr
