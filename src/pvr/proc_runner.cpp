#include "pvr/proc_runner.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/engine.hpp"
#include "core/engine_context.hpp"
#include "core/reference.hpp"
#include "mp/communicator.hpp"
#include "mp/socket.hpp"
#include "mp/socket_transport.hpp"
#include "mp/supervisor.hpp"
#include "pvr/recovery.hpp"
#include "pvr/serialize.hpp"

namespace slspvr::pvr {

namespace {

/// kReport payload discriminators (the frame's tag field).
constexpr int kReportState = 1;      ///< counters + traffic records + wall clock
constexpr int kReportImage = 2;      ///< rank 0's gathered final frame
constexpr int kReportFailure = 3;    ///< stage, primary flag, reason
constexpr int kReportSnapshots = 4;  ///< retained per-stage partials
constexpr int kReportSubimage = 5;   ///< sequence mode, demoted roster: the
                                     ///< rank's rendered subimage (the parent
                                     ///< folds the frame out from these)

/// Execute a planted process-level crash. kExit does not return.
void trigger_crash(const ProcCrash& crash) {
  switch (crash.kind) {
    case ProcCrash::Kind::kSigstop:
      (void)::raise(SIGSTOP);
      break;
    case ProcCrash::Kind::kSigsegv:
      // Restore the default action first: a sanitizer runtime installs its
      // own SIGSEGV handler, which reports and exits instead of letting the
      // process die by the signal the supervisor is meant to see.
      (void)::signal(SIGSEGV, SIG_DFL);
      (void)::raise(SIGSEGV);
      break;
    case ProcCrash::Kind::kExit:
      std::_Exit(crash.exit_code);
    case ProcCrash::Kind::kSigkill:
      (void)::raise(SIGKILL);
      break;
  }
}

void ship_state(mp::SocketTransport& sock, int rank, const mp::CommContext& ctx,
                const core::Counters& counters, double wall_ms) {
  ByteWriter w;
  write_counters(w, counters);
  const auto& sent = ctx.trace.sent(rank);
  w.u32(static_cast<std::uint32_t>(sent.size()));
  for (const mp::MessageRecord& rec : sent) write_record(w, rec);
  const auto& received = ctx.trace.received(rank);
  w.u32(static_cast<std::uint32_t>(received.size()));
  for (const mp::MessageRecord& rec : received) write_record(w, rec);
  const auto& clock = ctx.trace.clock(rank);
  w.u32(static_cast<std::uint32_t>(clock.size()));
  for (const std::uint64_t c : clock) w.u64(c);
  w.u64(ctx.trace.naks(rank));
  w.u64(ctx.trace.retry_messages(rank));
  w.u64(ctx.trace.retry_bytes(rank));
  w.u64(ctx.trace.abandoned(rank));
  w.f64(wall_ms);
  sock.send_report(kReportState, w.data());
}

void ship_failure(mp::SocketTransport& sock, int stage, bool primary,
                  const std::string& what, const SnapshotStore& store, int rank) {
  {
    ByteWriter w;
    w.i32(stage);
    w.u8(primary ? 1 : 0);
    w.str(what);
    sock.send_report(kReportFailure, w.data());
  }
  {
    ByteWriter w;
    const auto& snaps = store.slots(rank);
    w.u32(static_cast<std::uint32_t>(snaps.size()));
    for (const SnapshotStore::Snap& snap : snaps) {
      w.i32(snap.stage);
      write_rect(w, snap.region);
      write_image(w, snap.image);
    }
    sock.send_report(kReportSnapshots, w.data());
  }
}

/// Stage observer of one worker frame: report each stage to the supervisor
/// and fire any crash planted at (rank, stage) for frame `frame` — a *real*
/// crash, not an injected exception: the process dies (or goes silent)
/// mid-frame and the supervisor finds out the hard way.
void observe_stages(mp::CommContext& ctx, mp::SocketTransport& sock,
                    const std::vector<ProcCrash>& crashes, int frame) {
  ctx.stage_observer = [&sock, &crashes, frame](int r, int stage) {
    sock.note_stage(stage);
    for (const ProcCrash& crash : crashes) {
      if (crash.rank == r && crash.stage == stage &&
          (crash.frame < 0 || crash.frame == frame)) {
        trigger_crash(crash);
      }
    }
  };
}

/// One rank's compositing phase in a worker process: run_attempt's SPMD body
/// (composite, then gather_final), so a clean multi-process frame is
/// byte-identical to the in-process one. A clean rank ships its counters
/// and traffic (rank 0 also the gathered frame). A failed rank ships its
/// stage and retained partials so the supervisor can repair mid-frame; a
/// primary failure is announced first, and the supervisor aborts the
/// survivors with kPeerFailed. Returns the worker exit code of the outcome.
int composite_and_ship(mp::SocketTransport& sock, mp::CommContext& ctx, int rank, int ranks,
                       const core::Compositor& method, img::Image& local,
                       const core::SwapOrder& order, core::EngineContext& engine) {
  SnapshotStore store(ranks);
  try {
    const RetentionGuard retention(&store);
    mp::Comm comm(&ctx, rank);
    core::Counters counters;
    const auto t0 = std::chrono::steady_clock::now();
    const core::Ownership owned = method.composite(comm, local, order, counters, engine);
    img::Image gathered = core::gather_final(comm, local, owned, /*root=*/0);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    ship_state(sock, rank, ctx, counters, wall_ms);
    if (rank == 0) {
      ByteWriter w;
      write_image(w, gathered);
      sock.send_report(kReportImage, w.data());
    }
    return mp::kWorkerExitClean;
  } catch (const mp::PeerFailedError& e) {
    // Secondary casualty: a peer's already-known death aborted this rank.
    ship_failure(sock, ctx.trace.stage(rank), /*primary=*/false, e.what(), store, rank);
    return mp::kWorkerExitAborted;
  } catch (const std::exception& e) {
    const int stage = ctx.trace.stage(rank);
    sock.announce_failure(stage, e.what());
    ship_failure(sock, stage, /*primary=*/true, e.what(), store, rank);
    return mp::kWorkerExitError;
  }
}

/// Connect to the supervisor (bounded backoff) and say hello as incarnation
/// `generation`; nullopt when the connect budget runs out.
std::optional<mp::Fd> connect_and_hello(const mp::Endpoint& endpoint,
                                        const mp::RetryPolicy& policy, int rank,
                                        std::uint32_t generation) {
  mp::Fd link;
  try {
    link = mp::connect_with_backoff(endpoint, policy, rank);
  } catch (...) {
    return std::nullopt;  // typed RetryExhaustedError upstream
  }
  mp::Frame hello;
  hello.kind = mp::FrameKind::kHello;
  hello.source = rank;
  hello.generation = generation;
  mp::send_all(link.get(), mp::pack_frame(hello));
  return link;
}

/// A single-frame worker's whole life: composite its rank's subimage
/// (rendered by the parent before the fork), ship the outcome, say goodbye.
int worker_main(int rank, const mp::Endpoint& endpoint, const core::Compositor& method,
                const std::vector<img::Image>& subimages, const core::SwapOrder& order,
                const ProcOptions& opts) {
  try {
    std::optional<mp::Fd> link = connect_and_hello(endpoint, opts.connect, rank, 0);
    if (!link) return mp::kWorkerExitConnect;

    const int ranks = static_cast<int>(subimages.size());
    mp::CommContext ctx(ranks);
    ctx.mailboxes[static_cast<std::size_t>(rank)].set_capacity(opts.inbox_capacity);
    mp::SocketTransport::Options topts;
    topts.backend = opts.transport;
    topts.heartbeat_interval = opts.heartbeat_interval;
    auto transport =
        std::make_unique<mp::SocketTransport>(&ctx, rank, std::move(*link), std::move(topts));
    mp::SocketTransport& sock = *transport;
    ctx.transport = std::move(transport);
    observe_stages(ctx, sock, opts.crashes, /*frame=*/0);
    sock.start();

    // This process IS one rank: one explicit engine context for its frame.
    core::EngineContext engine;
    img::Image local = subimages[static_cast<std::size_t>(rank)];  // methods mutate
    const int code = composite_and_ship(sock, ctx, rank, ranks, method, local, order, engine);
    sock.goodbye_and_wait(opts.drain_deadline);
    return code;
  } catch (...) {
    return mp::kWorkerExitError;
  }
}

mp::Endpoint make_endpoint(const ProcOptions& opts) {
  if (opts.endpoint_override) return mp::parse_endpoint(*opts.endpoint_override);
  mp::Endpoint ep;
  if (opts.transport == "tcp") {
    ep.kind = mp::Endpoint::Kind::kTcp;
    ep.host = "127.0.0.1";
    ep.port = 0;  // ephemeral; resolved by the supervisor's listen
    return ep;
  }
  if (opts.transport != "unix") {
    throw std::invalid_argument("ProcOptions.transport must be \"unix\" or \"tcp\", got \"" +
                                opts.transport + "\"");
  }
  // One live supervisor per path: the pid disambiguates concurrent test
  // binaries, the counter disambiguates runs within this process.
  static int counter = 0;
  ep.kind = mp::Endpoint::Kind::kUnix;
  ep.path = "/tmp/slspvr-" + std::to_string(::getpid()) + "-" + std::to_string(counter++) +
            ".sock";
  return ep;
}

/// One worker's kReportFailure payload, decoded.
struct WorkerFailureReport {
  int rank = -1;
  int stage = 0;
  bool primary = false;
  std::string what;
};

/// Everything the parent can decode out of one batch of worker reports
/// (one full run, or one frame of a sequence).
struct DecodedReports {
  std::vector<core::Counters> counters;
  std::vector<bool> have_state;
  std::vector<double> walls;
  std::optional<img::Image> final_image;
  std::vector<WorkerFailureReport> worker_failures;
  SnapshotStore store;
  mp::TrafficTrace trace;
  /// kReportSubimage per rank (sequence mode, demoted roster only).
  std::vector<std::optional<img::Image>> subimages;

  explicit DecodedReports(int ranks)
      : counters(static_cast<std::size_t>(ranks)),
        have_state(static_cast<std::size_t>(ranks), false),
        walls(static_cast<std::size_t>(ranks), 0.0),
        store(ranks),
        trace(ranks),
        subimages(static_cast<std::size_t>(ranks)) {}
};

/// Decode a report stream. A report truncated by a dying worker is dropped
/// (its death is already a recorded failure); the frame CRC has vouched for
/// everything that parses.
DecodedReports decode_reports(const std::vector<mp::WorkerReport>& reports, int ranks) {
  DecodedReports dec(ranks);
  for (const mp::WorkerReport& rep : reports) {
    if (rep.rank < 0 || rep.rank >= ranks) continue;
    const std::size_t i = static_cast<std::size_t>(rep.rank);
    ByteReader r(rep.payload);
    try {
      switch (rep.kind) {
        case kReportState: {
          dec.counters[i] = read_counters(r);
          std::vector<mp::MessageRecord> sent(r.u32());
          for (mp::MessageRecord& rec : sent) rec = read_record(r);
          std::vector<mp::MessageRecord> received(r.u32());
          for (mp::MessageRecord& rec : received) rec = read_record(r);
          std::vector<std::uint64_t> clock(r.u32());
          for (std::uint64_t& c : clock) c = r.u64();
          const std::uint64_t naks = r.u64();
          const std::uint64_t retries = r.u64();
          const std::uint64_t retry_bytes = r.u64();
          const std::uint64_t abandoned = r.u64();
          dec.walls[i] = r.f64();
          dec.trace.import_rank(rep.rank, std::move(sent), std::move(received),
                                std::move(clock), naks, retries, retry_bytes, abandoned);
          dec.have_state[i] = true;
          break;
        }
        case kReportImage:
          dec.final_image = read_image(r);
          break;
        case kReportFailure: {
          WorkerFailureReport wf;
          wf.rank = rep.rank;
          wf.stage = r.i32();
          wf.primary = r.u8() != 0;
          wf.what = r.str();
          dec.worker_failures.push_back(std::move(wf));
          break;
        }
        case kReportSnapshots: {
          const std::uint32_t n = r.u32();
          for (std::uint32_t k = 0; k < n; ++k) {
            const int stage = r.i32();
            const img::Rect region = read_rect(r);
            dec.store.add(rep.rank, stage, read_image(r), region);
          }
          break;
        }
        case kReportSubimage:
          dec.subimages[i] = read_image(r);
          break;
        default:
          break;  // unknown report kind: forward compatibility, skip
      }
    } catch (const std::out_of_range&) {
      continue;
    }
  }
  return dec;
}

/// Supervisor knobs shared by the single-frame and the sequence runner.
mp::SupervisorOptions supervisor_options(const ProcOptions& opts, int ranks) {
  mp::SupervisorOptions sup;
  sup.endpoint = make_endpoint(opts);
  sup.procs = ranks;
  sup.heartbeat_timeout = opts.heartbeat_timeout;
  sup.accept_deadline = opts.accept_deadline;
  sup.drain_deadline = opts.drain_deadline;
  return sup;
}

/// A frame every worker finished: its MethodResult, from the shipped reports.
MethodResult result_from_reports(std::string_view method, DecodedReports& dec,
                                 const core::CostModel& model) {
  if (!dec.final_image ||
      !std::all_of(dec.have_state.begin(), dec.have_state.end(), [](bool b) { return b; })) {
    throw mp::TransportError("clean " + std::string(method) +
                             " frame but incomplete worker reports");
  }
  return assemble_result(method, std::move(dec.counters), dec.trace, model,
                         *std::max_element(dec.walls.begin(), dec.walls.end()),
                         std::move(*dec.final_image));
}

/// Seed the report of a frame workers died in: the supervisor's failures
/// (primary, with their provenance), then the survivors' own secondary
/// aborts (a primary worker report repeats the supervisor's record).
/// Returns the failed-rank mask.
std::vector<bool> seed_failures(FaultReport& report,
                                const std::vector<mp::WorkerFailure>& failures,
                                const DecodedReports& dec, int ranks) {
  report.faulted = true;
  std::vector<bool> failed(static_cast<std::size_t>(ranks), false);
  for (const mp::WorkerFailure& f : failures) {
    if (f.rank < 0 || f.rank >= ranks) continue;
    failed[static_cast<std::size_t>(f.rank)] = true;
    report.events.push_back({f.rank, f.stage, /*primary=*/true, /*attempt=*/0, f.what});
  }
  for (const WorkerFailureReport& wf : dec.worker_failures) {
    if (wf.primary) continue;
    report.events.push_back({wf.rank, wf.stage, /*primary=*/false, /*attempt=*/0, wf.what});
  }
  return failed;
}

// ---- sequence mode ------------------------------------------------------

/// The camera for frame `f` of a sequence: the base view stepped per frame,
/// exactly as examples/rotation_sweep steps views. Pure, so a respawned
/// worker derives the same view as everyone else.
ExperimentConfig sequence_frame_config(const ExperimentConfig& base,
                                       const SequenceProcOptions& opts, int frame) {
  ExperimentConfig cfg = base;
  cfg.rot_x_deg = base.rot_x_deg + opts.rot_step_x * static_cast<float>(frame);
  cfg.rot_y_deg = base.rot_y_deg + opts.rot_step_y * static_cast<float>(frame);
  return cfg;
}

/// Non-owning Transport adapter: a sequence worker's SocketTransport
/// outlives the per-frame CommContext, but CommContext::transport owns its
/// pointee — so each frame installs one of these instead.
class BorrowedTransport final : public mp::Transport {
 public:
  explicit BorrowedTransport(mp::SocketTransport* inner) : inner_(inner) {}
  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] bool shared_memory() const noexcept override { return false; }
  void submit(int dest, mp::Message msg) override { inner_->submit(dest, std::move(msg)); }

 private:
  mp::SocketTransport* inner_;  ///< not owned; outlives every frame
};

/// A sequence worker's whole life (any incarnation): connect, hello with the
/// generation, then loop kFrameStart -> render own brick -> composite ->
/// kFrameDone until the supervisor says kShutdown. Every frame builds a
/// fresh CommContext, so per-channel seq spaces restart cleanly per frame
/// and per generation. `method` is the frame method (fold choice made).
int sequence_worker_main(int rank, std::uint32_t generation, const mp::Endpoint& endpoint,
                         const core::Compositor& method, const vol::Dataset& dataset,
                         const ExperimentConfig& base, const SequenceProcOptions& opts) {
  try {
    std::optional<mp::Fd> link = connect_and_hello(endpoint, opts.proc.connect, rank, generation);
    if (!link) return mp::kWorkerExitConnect;

    mp::SocketTransport::Options topts;
    topts.backend = opts.proc.transport;
    topts.heartbeat_interval = opts.proc.heartbeat_interval;
    topts.generation = generation;
    topts.sequence = true;
    mp::SocketTransport sock(/*ctx=*/nullptr, rank, std::move(*link), std::move(topts));
    sock.start();

    // One explicit engine context for this rank, reused across the whole
    // frame sequence — scratch warms up on frame 0 and stays hot.
    core::EngineContext engine;

    for (;;) {
      const std::optional<mp::FrameRoster> roster = sock.await_frame_start(opts.frame_deadline);
      if (!roster) break;  // kShutdown, dead link, or frame deadline
      const int frame = roster->frame;
      const ExperimentConfig cfg = sequence_frame_config(base, opts, frame);
      const FramePartition partition = partition_frame(dataset, cfg);
      img::Image local =
          render_subimage(dataset, cfg, partition.bricks[static_cast<std::size_t>(rank)]);

      if (!roster->demoted.empty()) {
        // Demoted roster: no full-strength plan exists anymore. Every
        // survivor ships its rendered subimage and the parent folds the
        // frame out degraded — the bottom rung of the recovery ladder.
        ByteWriter w;
        write_image(w, local);
        sock.send_report(kReportSubimage, w.data());
        sock.end_frame(frame, /*aborted=*/false);
        continue;
      }

      mp::CommContext ctx(base.ranks);
      ctx.mailboxes[static_cast<std::size_t>(rank)].set_capacity(opts.proc.inbox_capacity);
      ctx.transport = std::make_unique<BorrowedTransport>(&sock);
      observe_stages(ctx, sock, opts.proc.crashes, frame);
      sock.begin_frame(&ctx);
      const int code = composite_and_ship(sock, ctx, rank, base.ranks, method, local,
                                          partition.order, engine);
      sock.end_frame(frame, /*aborted=*/code != mp::kWorkerExitClean);
    }

    if (sock.link_lost()) return mp::kWorkerExitError;
    sock.goodbye_and_wait(opts.proc.drain_deadline);
    return mp::kWorkerExitClean;
  } catch (...) {
    return mp::kWorkerExitError;
  }
}

}  // namespace

FtMethodResult Experiment::run_procs(const core::Compositor& method,
                                     const ProcOptions& opts) const {
  const int ranks = config_.ranks;
  const FrameMethod frame(method, ranks);
  const mp::SupervisorOptions sup = supervisor_options(opts, ranks);
  const mp::SupervisorOutcome outcome = mp::Supervisor::run(
      sup, [&](int rank, const mp::Endpoint& at) {
        return worker_main(rank, at, frame.get(), subimages_, order_, opts);
      });
  if (sup.endpoint.kind == mp::Endpoint::Kind::kUnix) (void)::unlink(sup.endpoint.path.c_str());

  DecodedReports dec = decode_reports(outcome.reports, ranks);
  FtMethodResult out;
  out.report.retry_stats += dec.trace.retry_stats();
  if (outcome.clean()) {
    out.result = result_from_reports(frame.get().name(), dec, config_.cost_model);
    return out;
  }
  // Real failures: finish the frame in this process from the shipped snapshots.
  std::vector<bool> failed = seed_failures(out.report, outcome.failures, dec, ranks);
  return recover_frame(frame.get(), subimages_, order_, config_.cost_model, dec.store,
                       std::move(failed), std::move(out.report));
}

SequenceRunResult run_compositing_sequence(const core::Compositor& method,
                                           const vol::Dataset& dataset,
                                           const ExperimentConfig& base,
                                           const SequenceProcOptions& opts) {
  const int ranks = base.ranks;
  if (ranks <= 0) {
    throw std::invalid_argument("run_compositing_sequence: ranks must be positive");
  }
  if (opts.frames <= 0) {
    throw std::invalid_argument("run_compositing_sequence: frames must be positive");
  }

  const FrameMethod frame_method(method, ranks);
  const mp::SupervisorOptions sup = supervisor_options(opts.proc, ranks);
  mp::SequenceOptions seq;
  seq.frames = opts.frames;
  seq.respawn = opts.respawn;

  const mp::SequenceOutcome outcome = mp::Supervisor::run_sequence(
      sup, seq, [&](int rank, std::uint32_t generation, const mp::Endpoint& at) {
        return sequence_worker_main(rank, generation, at, frame_method.get(), dataset, base,
                                    opts);
      });
  if (sup.endpoint.kind == mp::Endpoint::Kind::kUnix) (void)::unlink(sup.endpoint.path.c_str());

  SequenceRunResult out;
  out.report.respawns = outcome.respawns;
  out.report.generations = outcome.generations;
  out.report.stale_rejects = outcome.stale_rejects;
  std::vector<bool> ever_failed(static_cast<std::size_t>(ranks), false);
  for (const int r : outcome.demoted) {
    if (r >= 0 && r < ranks) ever_failed[static_cast<std::size_t>(r)] = true;
  }

  for (const mp::FrameOutcome& fo : outcome.frames) {
    const ExperimentConfig cfg = sequence_frame_config(base, opts, fo.frame);
    DecodedReports dec = decode_reports(fo.reports, ranks);

    FtMethodResult ft;
    ft.report.retry_stats += dec.trace.retry_stats();
    // Failed resurrections between frames are provenance, not frame faults:
    // the frame that follows ran at whatever strength the roster says.
    for (const mp::WorkerFailure& f : fo.boundary_failures) {
      ft.report.events.push_back(
          {f.rank, f.stage, /*primary=*/true, /*attempt=*/0, "boundary: " + f.what});
    }

    if (!fo.demoted.empty()) {
      // Bottom rung: the roster is demoted, survivors shipped raw subimages,
      // and the parent folds the frame out here in depth order. A survivor
      // that died mid-frame (or whose subimage never arrived) is folded out
      // too — a blank subimage is the over-operator identity.
      const FramePartition partition = partition_frame(dataset, cfg);
      std::vector<bool> lost = seed_failures(ft.report, fo.failures, dec, ranks);
      for (const int r : fo.demoted) {
        if (r >= 0 && r < ranks) lost[static_cast<std::size_t>(r)] = true;
      }
      std::vector<img::Image> subs;
      subs.reserve(static_cast<std::size_t>(ranks));
      for (int r = 0; r < ranks; ++r) {
        const std::size_t i = static_cast<std::size_t>(r);
        if (!lost[i] && dec.subimages[i]) {
          subs.push_back(std::move(*dec.subimages[i]));
        } else {
          lost[i] = true;  // survivor whose subimage never arrived
          subs.emplace_back(cfg.image_size, cfg.image_size);
        }
      }
      ft.report.degraded = true;
      const img::Rect full{0, 0, cfg.image_size, cfg.image_size};
      for (int r = 0; r < ranks; ++r) {
        if (!lost[static_cast<std::size_t>(r)]) continue;
        ft.report.failed_ranks.push_back(r);
        ft.report.pixels_lost += img::count_non_blank(
            render_subimage(dataset, cfg, partition.bricks[static_cast<std::size_t>(r)]), full);
      }
      ft.result.method = std::string(method.name());
      ft.result.final_image = core::composite_reference(subs, partition.order.front_to_back);
    } else if (fo.failures.empty()) {
      // Clean full-strength frame: byte-identical to a single-frame run of
      // the same view.
      ft.result = result_from_reports(frame_method.get().name(), dec, base.cost_model);
    } else {
      // Mid-frame deaths at full strength: re-render the frame's subimages
      // here and run the single-frame recovery ladder (mid-frame plan repair
      // from shipped snapshots, else degraded recomposite).
      const Experiment rendered(dataset, cfg);
      std::vector<bool> failed = seed_failures(ft.report, fo.failures, dec, ranks);
      ft = recover_frame(frame_method.get(), rendered.subimages(), rendered.order(),
                         base.cost_model, dec.store, std::move(failed), std::move(ft.report));
    }

    out.report.faulted = out.report.faulted || ft.report.faulted;
    out.report.degraded = out.report.degraded || ft.report.degraded;
    out.report.resumed = out.report.resumed || ft.report.resumed;
    out.report.retries += ft.report.retries;
    out.report.pixels_lost += ft.report.pixels_lost;
    out.report.retry_stats += ft.report.retry_stats;
    for (const int r : ft.report.failed_ranks) {
      if (r >= 0 && r < ranks) ever_failed[static_cast<std::size_t>(r)] = true;
    }
    out.report.events.insert(out.report.events.end(), ft.report.events.begin(),
                             ft.report.events.end());
    out.frames.push_back(std::move(ft));
  }

  for (int r = 0; r < ranks; ++r) {
    if (ever_failed[static_cast<std::size_t>(r)]) out.report.failed_ranks.push_back(r);
  }
  return out;
}

}  // namespace slspvr::pvr
