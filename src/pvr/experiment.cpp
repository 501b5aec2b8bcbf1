#include "pvr/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "core/binary_swap.hpp"
#include "core/binary_tree.hpp"
#include "core/bsbr.hpp"
#include "core/bsbrc.hpp"
#include "core/bsbrs.hpp"
#include "core/bslc.hpp"
#include "core/direct_send.hpp"
#include "core/engine.hpp"
#include "core/fold.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/plan_compositor.hpp"
#include "core/reference.hpp"
#include "mp/runtime.hpp"
#include "pvr/distribute.hpp"
#include "pvr/recovery.hpp"
#include "render/camera.hpp"
#include "render/raycast.hpp"
#include "render/splatting.hpp"

namespace slspvr::pvr {

Experiment::Experiment(const ExperimentConfig& config)
    : Experiment(vol::make_dataset(config.dataset, config.volume_scale), config) {}

namespace {

render::OrthoCamera frame_camera(const vol::Dataset& dataset, const ExperimentConfig& config) {
  return render::OrthoCamera(dataset.volume.dims(), config.image_size, config.image_size,
                             config.rot_x_deg, config.rot_y_deg);
}

render::RaycastOptions raycast_options(const ExperimentConfig& config) {
  render::RaycastOptions options;
  options.step = config.step;
  return options;
}

}  // namespace

FramePartition partition_frame(const vol::Dataset& dataset, const ExperimentConfig& config) {
  const vol::Dims dims = dataset.volume.dims();
  float dir[3];
  frame_camera(dataset, config).view_dir_array(dir);
  if (vol::is_power_of_two(config.ranks)) {
    const vol::KdPartition partition =
        config.balanced_partition
            ? vol::kd_partition_balanced(dataset.volume, config.ranks, 64)
            : vol::kd_partition(dims, config.ranks);
    return {partition.bricks, core::make_swap_order(partition, dir)};
  }
  // Non-power-of-two: depth-ordered slabs along x + the fold extension.
  return {vol::slab_partition(dims, config.ranks, /*axis=*/0),
          core::make_fold_order(config.ranks, /*axis=*/0, dir)};
}

img::Image render_subimage(const vol::Dataset& dataset, const ExperimentConfig& config,
                           const vol::Brick& brick) {
  const render::OrthoCamera camera = frame_camera(dataset, config);
  img::Image sub(config.image_size, config.image_size);
  if (config.use_splatting) {
    render::splat_brick(dataset.volume, dataset.tf, camera, brick, sub);
  } else {
    render::render_brick(dataset.volume, dataset.tf, camera, brick, sub,
                         raycast_options(config));
  }
  return sub;
}

FrameMethod::FrameMethod(const core::Compositor& method, int ranks)
    : fold_(vol::is_power_of_two(ranks) ? nullptr
                                        : std::make_unique<core::FoldCompositor>(method)),
      chosen_(fold_ != nullptr ? fold_.get() : &method) {}

Experiment::Experiment(const vol::Dataset& dataset, const ExperimentConfig& config)
    : config_(config) {
  if (config.ranks <= 0) throw std::invalid_argument("Experiment: ranks must be positive");

  FramePartition partition = partition_frame(dataset, config);
  bricks_ = std::move(partition.bricks);
  order_ = std::move(partition.order);

  // Rendering phase. The distributed path executes the partitioning phase
  // over the message-passing runtime (rank 0 ships ghost bricks, PEs render
  // local-only); the default renders each brick against the shared volume —
  // identical images, no partition traffic to account.
  if (config.distributed_partitioning && !config.use_splatting) {
    DistributedRender distributed =
        distribute_and_render(dataset.volume, dataset.tf, bricks_,
                              frame_camera(dataset, config), raycast_options(config));
    subimages_ = std::move(distributed.subimages);
    total_partition_bytes_ = distributed.total_partition_bytes;
    max_partition_bytes_ = distributed.max_partition_bytes;
    return;
  }
  subimages_.reserve(bricks_.size());
  for (const vol::Brick& brick : bricks_) {
    subimages_.push_back(render_subimage(dataset, config, brick));
  }
}

img::Image Experiment::reference() const {
  return core::composite_reference(subimages_, order_.front_to_back);
}

MethodResult run_compositing(const core::Compositor& method,
                             const std::vector<img::Image>& subimages,
                             const core::SwapOrder& order, const core::CostModel& model,
                             core::EngineArena* arena) {
  core::EngineArena local_arena;
  if (arena == nullptr) arena = &local_arena;
  Attempt attempt = run_attempt(method, subimages, order, model, {}, nullptr, arena);
  // Preserve the historical contract: a rank failure in the plain entry
  // point rethrows the original (primary) exception after the join.
  for (const mp::RankFailure& f : attempt.failures) {
    if (f.primary) std::rethrow_exception(f.error);
  }
  if (!attempt.failures.empty()) std::rethrow_exception(attempt.failures.front().error);
  return std::move(attempt.result);
}

std::string FaultReport::summary() const {
  std::string healed;
  if (retry_stats.naks > 0 || retry_stats.retransmits > 0) {
    healed = "; transport healed " + std::to_string(retry_stats.retransmits) +
             " message(s), " + std::to_string(retry_stats.healed_bytes) + " byte(s) (" +
             std::to_string(retry_stats.naks) + " NAK(s))";
  }
  if (retry_stats.abandoned > 0) {
    healed += "; " + std::to_string(retry_stats.abandoned) +
              " channel(s) abandoned after retry exhaustion";
  }
  if (respawns > 0) {
    healed += "; resurrected " + std::to_string(respawns) + " worker incarnation(s)";
    if (stale_rejects > 0) {
      healed += ", " + std::to_string(stale_rejects) + " stale-generation frame(s) rejected";
    }
  }
  if (!faulted) return "no faults" + healed;
  std::string out = std::to_string(failed_ranks.size()) + " PE(s) failed (rank";
  for (const int r : failed_ranks) {
    out += ' ';
    out += std::to_string(r);
  }
  out += "), " + std::to_string(pixels_lost) + " rendered pixel(s) lost, " +
         std::to_string(retries) + " retry round(s): ";
  if (resumed) {
    out += "finished via mid-frame repair from epoch " + std::to_string(resume_epoch);
  } else if (degraded) {
    out += "finished degraded from the survivors";
  } else {
    out += "frame lost";
  }
  return out + healed;
}

FtMethodResult run_compositing_ft(const core::Compositor& method,
                                  const std::vector<img::Image>& subimages,
                                  const core::SwapOrder& order, const mp::FaultPlan& faults,
                                  const core::CostModel& model,
                                  core::EngineArena* arena) {
  const int ranks = static_cast<int>(subimages.size());
  core::EngineArena local_arena;
  if (arena == nullptr) arena = &local_arena;
  FtMethodResult out;

  mp::FaultInjector injector(faults);
  mp::RunOptions opts;
  opts.retry = faults.retry;
  if (!faults.empty()) {
    opts.injector = &injector;
    opts.recv_timeout = faults.recv_timeout;
  }
  // Retain per-stage partials only when faults can actually strike — the
  // clean path keeps its zero-copy fast path.
  SnapshotStore store(ranks);
  SnapshotStore* retain = faults.empty() ? nullptr : &store;
  Attempt first = run_attempt(method, subimages, order, model, opts, retain, arena);
  out.report.retry_stats += first.retry_stats;
  if (first.failures.empty()) {
    out.result = std::move(first.result);
    return out;
  }

  out.report.faulted = true;
  std::vector<bool> failed(static_cast<std::size_t>(ranks), false);
  for (const mp::RankFailure& f : first.failures) {
    out.report.events.push_back({f.rank, f.stage, f.primary, /*attempt=*/0, f.what});
    if (f.primary) failed[static_cast<std::size_t>(f.rank)] = true;
  }
  return recover_frame(method, subimages, order, model, store, std::move(failed),
                       std::move(out.report), arena);
}

FtMethodResult Experiment::run_ft(const core::Compositor& method, const mp::FaultPlan& faults,
                                  core::EngineArena* arena) const {
  const FrameMethod frame(method, config_.ranks);
  return run_compositing_ft(frame.get(), subimages_, order_, faults, config_.cost_model, arena);
}

MethodResult Experiment::run(const core::Compositor& method) const {
  const FrameMethod frame(method, config_.ranks);
  return run_compositing(frame.get(), subimages_, order_, config_.cost_model);
}

std::vector<std::unique_ptr<core::Compositor>> MethodSet::paper_methods() {
  std::vector<std::unique_ptr<core::Compositor>> methods;
  methods.push_back(std::make_unique<core::BinarySwapCompositor>());
  methods.push_back(std::make_unique<core::BsbrCompositor>());
  methods.push_back(std::make_unique<core::BslcCompositor>());
  methods.push_back(std::make_unique<core::BsbrcCompositor>());
  return methods;
}

std::vector<std::unique_ptr<core::Compositor>> MethodSet::proposed_methods() {
  std::vector<std::unique_ptr<core::Compositor>> methods;
  methods.push_back(std::make_unique<core::BsbrCompositor>());
  methods.push_back(std::make_unique<core::BslcCompositor>());
  methods.push_back(std::make_unique<core::BsbrcCompositor>());
  return methods;
}

std::vector<std::unique_ptr<core::Compositor>> MethodSet::all_methods() {
  auto methods = paper_methods();
  methods.push_back(std::make_unique<core::BsbrsCompositor>());
  methods.push_back(std::make_unique<core::BinaryTreeCompositor>());
  methods.push_back(std::make_unique<core::DirectSendCompositor>(false));
  methods.push_back(std::make_unique<core::DirectSendCompositor>(true));
  methods.push_back(std::make_unique<core::ParallelPipelineCompositor>());
  return methods;
}

std::vector<std::unique_ptr<core::Compositor>> MethodSet::plan_combinations() {
  using core::CodecKind;
  using core::PlanCompositor;
  using core::PlanFamily;
  using core::TrackerKind;
  std::vector<std::unique_ptr<core::Compositor>> methods;
  methods.push_back(std::make_unique<PlanCompositor>(
      "KaryBS", PlanFamily::kKary, CodecKind::kFullPixel, TrackerKind::kNone));
  methods.push_back(std::make_unique<PlanCompositor>(
      "KaryBR", PlanFamily::kKary, CodecKind::kBoundingRect, TrackerKind::kUnion));
  methods.push_back(std::make_unique<PlanCompositor>(
      "KaryBRC", PlanFamily::kKary, CodecKind::kRleRect, TrackerKind::kUnion));
  methods.push_back(std::make_unique<PlanCompositor>(
      "KaryLC", PlanFamily::kKary, CodecKind::kInterleavedRle, TrackerKind::kNone));
  methods.push_back(std::make_unique<PlanCompositor>(
      "Tree-BRC", PlanFamily::kBinaryTree, CodecKind::kRleRect, TrackerKind::kUnion));
  methods.push_back(std::make_unique<PlanCompositor>(
      "DirectSend-BRC", PlanFamily::kDirectSend, CodecKind::kRleRect, TrackerKind::kUnion));
  return methods;
}

}  // namespace slspvr::pvr
