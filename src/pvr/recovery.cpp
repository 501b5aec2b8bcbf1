#include "pvr/recovery.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/fold.hpp"
#include "core/plan_compositor.hpp"

namespace slspvr::pvr {

void SnapshotStore::on_stage_complete(int rank, int stage, const img::Image& image,
                                      const img::Rect& region) {
  // Retain only the owned rectangle — the rest of the frame is stale.
  img::Image partial(image.width(), image.height());
  for (int y = region.y0; y < region.y1; ++y) {
    for (int x = region.x0; x < region.x1; ++x) partial.at(x, y) = image.at(x, y);
  }
  slots_[static_cast<std::size_t>(rank)].push_back({stage, std::move(partial), region});
}

int SnapshotStore::height(int rank) const {
  int best = 0;
  for (const Snap& s : slots_[static_cast<std::size_t>(rank)]) best = std::max(best, s.stage);
  return best;
}

const SnapshotStore::Snap* SnapshotStore::at_stage(int rank, int stage) const {
  for (const Snap& s : slots_[static_cast<std::size_t>(rank)]) {
    if (s.stage == stage) return &s;
  }
  return nullptr;
}

MethodResult assemble_result(std::string_view method, std::vector<core::Counters> per_rank,
                             const mp::TrafficTrace& trace, const core::CostModel& model,
                             double wall_ms, img::Image final_image) {
  MethodResult result;
  result.method = std::string(method);
  result.per_rank = std::move(per_rank);
  result.wall_ms = wall_ms;
  result.times = model.critical_path(result.per_rank, trace);
  result.timeline = core::simulate_timeline(result.per_rank, trace, model);
  result.m_max = core::max_received_message_bytes(trace);
  result.received_bytes_per_rank.resize(result.per_rank.size());
  for (std::size_t r = 0; r < result.per_rank.size(); ++r) {
    result.received_bytes_per_rank[r] =
        core::received_message_bytes(trace, static_cast<int>(r));
  }
  result.final_image = std::move(final_image);
  return result;
}

Attempt run_attempt(const core::Compositor& method, const std::vector<img::Image>& subimages,
                    const core::SwapOrder& order, const core::CostModel& model,
                    const mp::RunOptions& opts, SnapshotStore* store,
                    core::EngineArena* arena) {
  const int ranks = static_cast<int>(subimages.size());
  Attempt attempt;
  std::vector<core::Counters> per_rank(static_cast<std::size_t>(ranks));

  // Per-rank engine contexts, grown on this thread before the rank threads
  // spawn so context(r) below needs no synchronization.
  core::EngineArena local_arena;
  core::EngineArena& engines = arena != nullptr ? *arena : local_arena;
  engines.require(ranks);

  img::Image final_image;
  std::mutex final_mutex;

  const auto t0 = std::chrono::steady_clock::now();
  const mp::RunResult run = mp::Runtime::run_tolerant(ranks, [&](mp::Comm& comm) {
    const RetentionGuard retention(store);
    const int rank = comm.rank();
    img::Image local = subimages[static_cast<std::size_t>(rank)];  // methods mutate
    core::Counters& counters = per_rank[static_cast<std::size_t>(rank)];
    const core::Ownership owned =
        method.composite(comm, local, order, counters, engines.context(rank));
    img::Image gathered = core::gather_final(comm, local, owned, /*root=*/0);
    if (rank == 0) {
      const std::lock_guard lock(final_mutex);
      final_image = std::move(gathered);
    }
  }, opts);
  const auto t1 = std::chrono::steady_clock::now();

  attempt.retry_stats = run.trace().retry_stats();
  attempt.failures = run.failures();
  if (!attempt.failures.empty()) return attempt;

  attempt.result = assemble_result(method.name(), std::move(per_rank), run.trace(), model,
                                   std::chrono::duration<double, std::milli>(t1 - t0).count(),
                                   std::move(final_image));
  return attempt;
}

namespace {

/// Poison-safe consensus on the resume epoch: a fresh SPMD round over the
/// survivors in which each contributes the height of its retained snapshots
/// and all agree on the minimum (gather at rank 0, broadcast back) — the
/// round runs on the full runtime, so a hung or dying participant aborts it
/// cleanly through the poison machinery instead of stalling recovery.
/// Returns nullopt when the round itself fails.
std::optional<int> agree_on_epoch(const std::vector<int>& heights) {
  const int n = static_cast<int>(heights.size());
  std::vector<int> agreed(static_cast<std::size_t>(n), -1);
  const mp::RunResult run = mp::Runtime::run_tolerant(n, [&](mp::Comm& comm) {
    const int mine = heights[static_cast<std::size_t>(comm.rank())];
    const auto all = comm.gather(0, std::as_bytes(std::span(&mine, 1)));
    int epoch = mine;
    if (comm.rank() == 0) {
      for (const auto& bytes : all) {
        int h = 0;
        if (bytes.size() == sizeof(int)) std::memcpy(&h, bytes.data(), sizeof(int));
        epoch = std::min(epoch, h);
      }
    }
    const auto decided = comm.broadcast(0, std::as_bytes(std::span(&epoch, 1)));
    int out = -1;
    if (decided.size() == sizeof(int)) std::memcpy(&out, decided.data(), sizeof(int));
    agreed[static_cast<std::size_t>(comm.rank())] = out;
  });
  if (!run.ok()) return std::nullopt;
  for (const int e : agreed) {
    if (e < 0 || e != agreed.front()) return std::nullopt;
  }
  return agreed.front();
}

/// The resume exchange: run the repaired k-ary plan over the survivors'
/// sparse full-frame inputs with the RLE-in-rect payload (the inputs are
/// mostly blank, so RLE keeps the healing traffic small).
class RepairCompositor final : public core::Compositor {
 public:
  RepairCompositor(const core::ExchangePlan& base, int epoch, std::vector<int> survivors,
                   std::string name)
      : plan_(core::repair_plan(base, epoch, survivors)), name_(std::move(name)) {}

  [[nodiscard]] std::string_view name() const override { return name_; }

  using core::Compositor::composite;
  core::Ownership composite(mp::Comm& comm, img::Image& image, const core::SwapOrder& order,
                            core::Counters& counters,
                            core::EngineContext& engine) const override {
    return core::plan_composite(plan_, core::codec_for(core::CodecKind::kRleRect),
                                core::TrackerKind::kUnion, comm, image, order, counters,
                                engine);
  }

  [[nodiscard]] check::CommSchedule schedule(int /*ranks*/) const override {
    return core::derive_schedule(plan_, core::codec_for(core::CodecKind::kRleRect).traits(),
                                 name_);
  }

 private:
  core::ExchangePlan plan_;
  std::string name_;
};

/// Mid-frame repair is exact only when every contributor class (the ranks
/// whose subimages a partial composite already merged) occupies a contiguous
/// block of the depth order — then a retained partial composites as a unit
/// at its class's position. k-ary prefix classes are contiguous rank
/// intervals, so monotone orders always pass; exotic hand-built orders fall
/// back to degrade.
bool classes_contiguous_in(const std::vector<int>& depth_order,
                           const core::EpochState& state) {
  std::vector<int> pos(depth_order.size(), -1);
  for (std::size_t i = 0; i < depth_order.size(); ++i) {
    pos[static_cast<std::size_t>(depth_order[i])] = static_cast<int>(i);
  }
  for (const auto& members : state.contributors) {
    int lo = static_cast<int>(depth_order.size());
    int hi = -1;
    for (const int m : members) {
      const int p = pos[static_cast<std::size_t>(m)];
      if (p < 0) return false;
      lo = std::min(lo, p);
      hi = std::max(hi, p);
    }
    if (hi - lo + 1 != static_cast<int>(members.size())) return false;
  }
  return true;
}

void paste_region(img::Image& dst, const img::Image& src, const img::Rect& region) {
  for (int y = region.y0; y < region.y1; ++y) {
    for (int x = region.x0; x < region.x1; ++x) dst.at(x, y) = src.at(x, y);
  }
}

}  // namespace

FtMethodResult recover_frame(const core::Compositor& method,
                             const std::vector<img::Image>& subimages,
                             const core::SwapOrder& order, const core::CostModel& model,
                             const SnapshotStore& store, std::vector<bool> failed,
                             FaultReport report, core::EngineArena* arena) {
  const int ranks = static_cast<int>(subimages.size());
  FtMethodResult out;
  out.report = std::move(report);
  out.report.faulted = true;

  // `to_original[r]` maps an attempt-local rank to its original id.
  const auto absorb = [&](const std::vector<mp::RankFailure>& failures,
                          const std::vector<int>& to_original, int attempt_no) {
    for (const mp::RankFailure& f : failures) {
      const int original =
          to_original.empty() ? f.rank : to_original[static_cast<std::size_t>(f.rank)];
      out.report.events.push_back({original, f.stage, f.primary, attempt_no, f.what});
      if (f.primary) failed[static_cast<std::size_t>(original)] = true;
    }
  };

  // Depth order of the original ranks (identity when the order carries no
  // explicit traversal, e.g. hand-built test orders).
  std::vector<int> depth_order(order.front_to_back.begin(), order.front_to_back.end());
  if (static_cast<int>(depth_order.size()) != ranks) {
    depth_order.resize(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) depth_order[static_cast<std::size_t>(r)] = r;
  }

  // ---- mid-frame plan repair ----------------------------------------------
  // Before throwing the frame away, try to resume it: survivors agree on
  // the failure epoch, keep their retained stage partials, re-contribute
  // the dead ranks' orphaned regions from their own (still live) rendered
  // subimages, and run a repaired k-ary exchange over the survivor set —
  // stages before the failure are never re-executed.
  std::optional<core::EpochState> resume_state;
  const auto try_resume = [&]() -> bool {
    const auto base_plan = method.resume_plan(ranks);
    if (!base_plan) return false;  // no per-rank rectangle state to resume
    std::vector<int> survivors;  // original ids, ascending
    for (int r = 0; r < ranks; ++r) {
      if (!failed[static_cast<std::size_t>(r)]) survivors.push_back(r);
    }
    if (survivors.empty() || static_cast<int>(survivors.size()) == ranks) return false;

    // Survivors agree on the resume epoch: the deepest stage every one of
    // them retained a partial for (poison-safe gather/broadcast round).
    std::vector<int> heights;
    heights.reserve(survivors.size());
    for (const int r : survivors) {
      heights.push_back(std::min(store.height(r), base_plan->stages()));
    }
    const std::optional<int> agreed = agree_on_epoch(heights);
    if (!agreed) return false;
    const int epoch = *agreed;

    core::EpochState state;
    try {
      state = core::plan_epoch_state(*base_plan, epoch, subimages.front().bounds());
    } catch (const std::invalid_argument&) {
      return false;  // scalar/band plan slipped through: degrade instead
    }
    if (!classes_contiguous_in(depth_order, state)) return false;

    // Virtual rank i of the repair exchange is the i-th *surviving* rank in
    // the original front-to-back order — k-ary suffix classes are contiguous
    // rank intervals, so with depth-ordered virtual ranks every merge in the
    // repaired exchange combines adjacent depth blocks (exact `over`).
    std::vector<int> survivors_depth;  // original ids, front to back
    survivors_depth.reserve(survivors.size());
    for (const int r : depth_order) {
      if (!failed[static_cast<std::size_t>(r)]) survivors_depth.push_back(r);
    }

    // Sparse full-frame resume inputs: the survivor's own partial over its
    // owned rectangle, plus its re-rendered contribution to every dead
    // rank's orphaned region (spatially disjoint by construction — prefix
    // parts of the same frame partition).
    std::vector<img::Image> resume_subs;
    resume_subs.reserve(survivors.size());
    for (const int s : survivors_depth) {
      img::Image input(subimages.front().width(), subimages.front().height());
      if (epoch == 0) {
        input = subimages[static_cast<std::size_t>(s)];
      } else {
        const SnapshotStore::Snap* snap = store.at_stage(s, epoch);
        if (snap == nullptr) return false;  // consensus said it exists; be safe
        paste_region(input, snap->image, state.region[static_cast<std::size_t>(s)]);
      }
      for (int d = 0; d < ranks; ++d) {
        if (!failed[static_cast<std::size_t>(d)]) continue;
        const auto& club = state.contributors[static_cast<std::size_t>(d)];
        if (!std::binary_search(club.begin(), club.end(), s)) continue;
        paste_region(input, subimages[static_cast<std::size_t>(s)],
                     state.region[static_cast<std::size_t>(d)]);
      }
      resume_subs.push_back(std::move(input));
    }

    // Virtual ranks are already front-to-back, so the repair exchange uses
    // the identity traversal (retained partials slot in as blocks — the
    // contiguity check above guarantees that is exact).
    core::SwapOrder resume_order;
    resume_order.front_to_back.resize(survivors.size());
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      resume_order.front_to_back[i] = static_cast<int>(i);
    }

    const RepairCompositor repair(*base_plan, epoch, survivors,
                                  std::string(method.name()) + "-repair");
    ++out.report.retries;
    Attempt resumed =
        run_attempt(repair, resume_subs, resume_order, model, {}, nullptr, arena);
    out.report.retry_stats += resumed.retry_stats;
    if (!resumed.failures.empty()) {
      absorb(resumed.failures, survivors_depth, out.report.retries);
      return false;  // fall back to degrade with the extra failures folded in
    }
    out.report.resumed = true;
    out.report.resume_epoch = epoch;
    out.result = std::move(resumed.result);
    out.result.method = std::string(method.name()) + " [resumed]";
    resume_state = std::move(state);
    return true;
  };

  if (try_resume()) {
    for (int r = 0; r < ranks; ++r) {
      if (!failed[static_cast<std::size_t>(r)]) continue;
      out.report.failed_ranks.push_back(r);
      // Only the dead contributors' pixels inside the dead rank's owned
      // rectangle are actually gone; everything else was resumed.
      for (const int c : resume_state->contributors[static_cast<std::size_t>(r)]) {
        if (!failed[static_cast<std::size_t>(c)]) continue;
        out.report.pixels_lost +=
            img::count_non_blank(subimages[static_cast<std::size_t>(c)],
                                 resume_state->region[static_cast<std::size_t>(r)]);
      }
    }
    return out;
  }

  // Degraded mode: fold the failed PEs out and recomposite the survivors in
  // their original depth order. The fold extension accepts any survivor
  // count; front-to-back survivor index i is simply slab i of the retry.
  const core::FoldCompositor folded(method);
  for (;;) {
    ++out.report.retries;
    std::vector<int> survivors;  // original ids, front to back
    for (const int r : depth_order) {
      if (!failed[static_cast<std::size_t>(r)]) survivors.push_back(r);
    }
    if (survivors.empty()) {
      // Every PE lost: deliver a structured report and a blank frame.
      out.result.method = std::string(method.name());
      out.result.final_image =
          img::Image(subimages.front().width(), subimages.front().height());
      break;
    }

    std::vector<img::Image> degraded_subs;
    degraded_subs.reserve(survivors.size());
    for (const int r : survivors) degraded_subs.push_back(subimages[static_cast<std::size_t>(r)]);
    const float view_dir[3] = {1.0f, 0.0f, 0.0f};  // ascending = front to back
    const core::SwapOrder degraded_order =
        core::make_fold_order(static_cast<int>(survivors.size()), /*axis=*/0, view_dir);

    // Retries run without the injector: the fault already materialised, and
    // re-applying rank-keyed rules to the renumbered survivors would be
    // meaningless. A retry can still fail (it reuses the full stack), in
    // which case its primary ranks are folded out too.
    Attempt retry =
        run_attempt(folded, degraded_subs, degraded_order, model, {}, nullptr, arena);
    if (retry.failures.empty()) {
      out.report.degraded = true;
      out.result = std::move(retry.result);
      out.result.method = std::string(method.name()) + " [degraded]";
      break;
    }
    absorb(retry.failures, survivors, out.report.retries);
    const bool any_primary =
        std::any_of(retry.failures.begin(), retry.failures.end(),
                    [](const mp::RankFailure& f) { return f.primary; });
    if (!any_primary) {
      // Cannot make progress (should not happen: every failed retry has a
      // primary). Surface the original error rather than looping.
      std::rethrow_exception(retry.failures.front().error);
    }
  }

  for (int r = 0; r < ranks; ++r) {
    if (!failed[static_cast<std::size_t>(r)]) continue;
    out.report.failed_ranks.push_back(r);
    out.report.pixels_lost += img::count_non_blank(subimages[static_cast<std::size_t>(r)],
                                                   subimages[static_cast<std::size_t>(r)].bounds());
  }
  return out;
}

}  // namespace slspvr::pvr
