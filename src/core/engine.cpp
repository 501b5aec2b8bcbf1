#include "core/engine.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine_context.hpp"
#include "image/kernels.hpp"

namespace slspvr::core {

namespace {

/// Static horizontal bands of the full frame (direct send's floor-ratio
/// boundaries, matching the historical band_of).
[[nodiscard]] std::vector<img::Rect> band_parts(const img::Rect& bounds, int radix) {
  std::vector<img::Rect> parts(static_cast<std::size_t>(radix));
  const std::int64_t h = bounds.height();
  for (int j = 0; j < radix; ++j) {
    const int y0 = bounds.y0 + static_cast<int>(h * j / radix);
    const int y1 = bounds.y0 + static_cast<int>(h * (j + 1) / radix);
    parts[static_cast<std::size_t>(j)] = img::Rect{bounds.x0, y0, bounds.x1, y1};
  }
  return parts;
}

/// Split an interleaved progression `radix` ways: balanced keeps every part
/// evenly spread (stride multiplies — InterleavedRange::split at radix 2);
/// contiguous takes consecutive index blocks with ceil boundaries.
[[nodiscard]] std::vector<img::InterleavedRange> split_range_parts(
    const img::InterleavedRange& range, int radix, SplitRule split) {
  std::vector<img::InterleavedRange> parts(static_cast<std::size_t>(radix));
  if (split == SplitRule::kContiguous) {
    for (int j = 0; j < radix; ++j) {
      const std::int64_t c0 = (range.count * j + radix - 1) / radix;
      const std::int64_t c1 = (range.count * (j + 1) + radix - 1) / radix;
      parts[static_cast<std::size_t>(j)] =
          img::InterleavedRange{range.offset + c0 * range.stride, range.stride, c1 - c0};
    }
  } else {
    for (int j = 0; j < radix; ++j) {
      parts[static_cast<std::size_t>(j)] =
          img::InterleavedRange{range.offset + j * range.stride, range.stride * radix,
                                (range.count + radix - 1 - j) / radix};
    }
  }
  return parts;
}

/// The calling PE thread's snapshot sink (null = retention off). Per PE
/// thread: only the rank's own thread walks the stage loop.
thread_local StageSnapshotSink* g_stage_retention = nullptr;

/// "Own contribution" blend of a depth-order rect stage: result = result
/// OVER image inside `rect`, row by row. Same per-pixel arithmetic as
/// img::composite_region (which this replaces on the engine path); charges
/// rect.area() over ops like it.
void composite_own_rect(img::Image& result, const img::Image& image, const img::Rect& rect,
                        Counters& counters) {
  if (rect.empty()) return;
  for (int y = rect.y0; y < rect.y1; ++y) {
    img::kern::composite_span(&result.at(rect.x0, y), &image.at(rect.x0, y), rect.width(),
                              /*incoming_in_front=*/false);
  }
  counters.over_ops += rect.area();
}

/// "Own contribution" blend of a depth-order scalar stage: gather both
/// strided progressions contiguous into scratch, blend with the span
/// kernel, scatter back — same arithmetic/order as the historical per-pixel
/// loop, batched.
void composite_own_range(EngineScratch& scratch, img::Image& result, const img::Image& image,
                         const img::InterleavedRange& keep, Counters& counters) {
  counters.over_ops += keep.count;
  if (keep.count == 0) return;
  const auto n = static_cast<std::size_t>(keep.count);
  if (scratch.staging.size() < n) scratch.staging.resize(n);
  if (scratch.staging2.size() < n) scratch.staging2.resize(n);
  img::kern::gather_strided(result.pixels().data(), keep.offset, keep.stride, keep.count,
                            scratch.staging.data());
  img::kern::gather_strided(image.pixels().data(), keep.offset, keep.stride, keep.count,
                            scratch.staging2.data());
  img::kern::composite_span(scratch.staging.data(), scratch.staging2.data(), keep.count,
                            /*incoming_in_front=*/false);
  img::kern::scatter_strided(scratch.staging.data(), keep.count, result.pixels().data(),
                             keep.offset, keep.stride);
}

}  // namespace

void set_stage_retention(StageSnapshotSink* sink) noexcept { g_stage_retention = sink; }

StageSnapshotSink* stage_retention() noexcept { return g_stage_retention; }

Ownership plan_composite(const ExchangePlan& plan, const PayloadCodec& codec,
                         TrackerKind tracker_kind, mp::Comm& comm, img::Image& image,
                         const SwapOrder& order, Counters& counters, EngineContext& engine) {
  // Exclusive hold for the whole stage loop: a second frame passing the
  // same context fails deterministically instead of racing on scratch.
  const EngineContext::UseGuard exclusive(engine);
  const int rank = comm.rank();
  if (plan.ranks != comm.size()) {
    throw std::invalid_argument("plan_composite: plan is for " + std::to_string(plan.ranks) +
                                " ranks, communicator has " + std::to_string(comm.size()));
  }
  if (plan.split == SplitRule::kRing) {
    throw std::logic_error("plan_composite: ring plans are schedule-only");
  }
  const bool scalar = codec.scalar();
  if (scalar &&
      (plan.split != SplitRule::kBalanced && plan.split != SplitRule::kContiguous)) {
    throw std::invalid_argument("plan_composite: scalar codec " + std::string(codec.name()) +
                                " needs a balanced or contiguous split");
  }
  if (!scalar && plan.split == SplitRule::kContiguous) {
    throw std::invalid_argument("plan_composite: contiguous splits are scalar-only");
  }

  img::Rect region = image.bounds();
  img::InterleavedRange range = img::InterleavedRange::whole(image.pixel_count());
  // Only sparse rect codecs carry a tracked rectangle (and pay its scan).
  const bool clip_parts = !scalar && codec.tracks_rect();
  RegionTracker tracker(clip_parts ? tracker_kind : TrackerKind::kNone);
  if (clip_parts) tracker.init(image, counters);

  img::PackBuffer& buf = engine.scratch().pack;

  const int stages = plan.stages();
  for (int st = 0; st < stages; ++st) {
    const RankStage& rs =
        plan.per_rank[static_cast<std::size_t>(rank)][static_cast<std::size_t>(st)];
    if (rs.sends.empty() && rs.recv_peers.empty()) continue;  // retired rank
    comm.set_stage(st + 1);
    const int tag = st + 1;

    std::vector<img::Rect> rparts;
    std::vector<img::InterleavedRange> sparts;
    if (scalar) {
      sparts = split_range_parts(range, rs.radix, plan.split);
    } else if (plan.split == SplitRule::kBand) {
      rparts = band_parts(image.bounds(), rs.radix);
    } else if (plan.split == SplitRule::kGather) {
      rparts = {region};  // part 0 is the whole accumulated region
    } else {
      rparts = split_rect_parts(region, rs.radix);
    }
    const img::Rect keep_rect =
        (!scalar && rs.keep >= 0) ? rparts[static_cast<std::size_t>(rs.keep)] : img::kEmptyRect;

    // Sends first, in plan order (sends are eager, so this cannot deadlock
    // and matches the event order derive_schedule emits).
    for (const PartSend& ps : rs.sends) {
      buf.clear();
      if (scalar) {
        codec.encode_range(image, sparts[static_cast<std::size_t>(ps.part)], buf, counters);
      } else {
        const img::Rect part = rparts[static_cast<std::size_t>(ps.part)];
        codec.encode_rect(image, part, tracker.clip(part), buf, counters);
      }
      comm.send(ps.peer, tag, buf.bytes());
    }

    img::Rect recv_union = img::kEmptyRect;
    if (plan.front == FrontRule::kSwapBit) {
      // Pairing on rank bit `st`: composite the single partner's payload in
      // place, front side decided by the order's per-bit rule.
      if (rs.recv_peers.size() > 1) {
        throw std::logic_error("plan_composite: kSwapBit stages receive from one peer");
      }
      for (const int peer : rs.recv_peers) {
        const bool in_front = order.incoming_in_front(rank, st);
        const auto received = comm.recv(peer, tag);
        img::UnpackBuffer in(received);
        DecodeSink sink{image, in_front, counters, engine};
        if (scalar) {
          codec.decode_range_into(sink, sparts[static_cast<std::size_t>(rs.keep)], in);
        } else {
          recv_union =
              img::bounding_union(recv_union, codec.decode_rect_into(sink, keep_rect, in));
        }
      }
    } else {
      // Depth-order grouping: buffer every contribution, then composite the
      // kept part front-to-back (left-associative, like the reference).
      std::vector<std::vector<std::byte>> inbox;
      inbox.reserve(rs.recv_peers.size());
      for (const int peer : rs.recv_peers) inbox.push_back(comm.recv(peer, tag));

      img::Image& result = engine.scratch_frame(image.width(), image.height());
      std::size_t composited = 0;
      for (const int contributor : order.front_to_back) {
        if (contributor == rank) {
          if (scalar) {
            composite_own_range(engine.scratch(), result, image, sparts[static_cast<std::size_t>(rs.keep)],
                                counters);
          } else {
            composite_own_rect(result, image, keep_rect, counters);
          }
          ++composited;
          continue;
        }
        const auto slot = std::find(rs.recv_peers.begin(), rs.recv_peers.end(), contributor);
        if (slot == rs.recv_peers.end()) continue;
        img::UnpackBuffer in(inbox[static_cast<std::size_t>(slot - rs.recv_peers.begin())]);
        // `result` holds everything nearer, so the incoming pixels are
        // behind: local over incoming.
        DecodeSink sink{result, /*incoming_in_front=*/false, counters, engine};
        if (scalar) {
          codec.decode_range_into(sink, sparts[static_cast<std::size_t>(rs.keep)], in);
        } else {
          recv_union =
              img::bounding_union(recv_union, codec.decode_rect_into(sink, keep_rect, in));
        }
        ++composited;
      }
      if (composited != rs.recv_peers.size() + 1) {
        throw std::invalid_argument(
            "plan_composite: order.front_to_back does not cover this stage's group");
      }
      // Swap rather than move: the retired buffer becomes the next stage's
      // (pre-owned) scratch frame instead of being freed.
      std::swap(image, result);
    }

    if (clip_parts) tracker.after_stage(image, keep_rect, recv_union, counters);
    if (scalar) {
      range = rs.keep >= 0 ? sparts[static_cast<std::size_t>(rs.keep)]
                           : img::InterleavedRange{0, 1, 0};
    } else {
      region = rs.keep >= 0 ? keep_rect : img::kEmptyRect;
    }
    counters.mark_stage();
    // Mid-frame repair retention: after each completed stage of a balanced
    // rect plan, hand the installed sink the partial this rank now owns.
    if (!scalar && plan.split == SplitRule::kBalanced && g_stage_retention != nullptr) {
      g_stage_retention->on_stage_complete(rank, st + 1, image, region);
    }
  }
  comm.set_stage(0);

  if (plan.split == SplitRule::kGather) return Ownership::full_at_root();
  if (scalar) return Ownership::interleaved(range);
  return Ownership::full_rect(region);
}

}  // namespace slspvr::core
