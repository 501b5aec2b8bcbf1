// Multi-process backend tests: wire framing, endpoint parsing, bounded
// connect backoff, and the tentpole acceptance bar — real worker processes
// over the socket transport produce frames byte-identical to the in-process
// runtime, and real mid-frame crashes (SIGKILL, SIGSTOP) are detected by the
// supervisor and finished from the survivors with genuine provenance in the
// FaultReport.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/bsbrc.hpp"
#include "core/reference.hpp"
#include "mp/errors.hpp"
#include "mp/socket.hpp"
#include "pvr/experiment.hpp"
#include "pvr/proc_runner.hpp"
#include "test_helpers.hpp"

namespace mp = slspvr::mp;
namespace pvr = slspvr::pvr;
namespace vol = slspvr::vol;
namespace img = slspvr::img;

namespace {

pvr::ExperimentConfig small_config(int ranks) {
  pvr::ExperimentConfig config;
  config.dataset = vol::DatasetKind::Head;
  config.volume_scale = 0.15;
  config.image_size = 64;
  config.ranks = ranks;
  return config;
}

pvr::ProcOptions fast_opts(const std::string& transport = "unix") {
  pvr::ProcOptions opts;
  opts.transport = transport;
  return opts;
}

void expect_images_identical(const img::Image& got, const img::Image& want) {
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  for (int y = 0; y < got.height(); ++y) {
    for (int x = 0; x < got.width(); ++x) {
      const img::Pixel& g = got.at(x, y);
      const img::Pixel& w = want.at(x, y);
      // Byte-identical, not near: same code ran in a real process, floats
      // crossed the wire as bit patterns.
      ASSERT_EQ(g.r, w.r) << "at (" << x << "," << y << ")";
      ASSERT_EQ(g.g, w.g) << "at (" << x << "," << y << ")";
      ASSERT_EQ(g.b, w.b) << "at (" << x << "," << y << ")";
      ASSERT_EQ(g.a, w.a) << "at (" << x << "," << y << ")";
    }
  }
}

bool any_event_contains(const pvr::FaultReport& report, const std::string& needle) {
  for (const pvr::FaultEvent& e : report.events) {
    if (e.what.find(needle) != std::string::npos) return true;
  }
  return false;
}

pvr::SequenceProcOptions seq_opts(int frames, const std::string& transport = "unix") {
  pvr::SequenceProcOptions opts;
  opts.proc = fast_opts(transport);
  opts.frames = frames;
  return opts;
}

/// The camera config sequence frame `f` renders at — must mirror the
/// sequence runner's per-frame stepping exactly for byte-compares to hold.
pvr::ExperimentConfig stepped(const pvr::ExperimentConfig& base,
                              const pvr::SequenceProcOptions& opts, int frame) {
  pvr::ExperimentConfig cfg = base;
  cfg.rot_x_deg += opts.rot_step_x * static_cast<float>(frame);
  cfg.rot_y_deg += opts.rot_step_y * static_cast<float>(frame);
  return cfg;
}

}  // namespace

// --- Wire framing ------------------------------------------------------------

TEST(Wire, FrameSurvivesPackAndIncrementalParse) {
  mp::Frame frame;
  frame.kind = mp::FrameKind::kData;
  frame.source = 2;
  frame.dest = 5;
  frame.tag = -1002;
  frame.seq = 41;
  frame.clock = {7, 0, 9, 1};
  frame.payload = {std::byte{0xDE}, std::byte{0xAD}, std::byte{0xBE}};

  const std::vector<std::byte> wire = mp::pack_frame(frame);
  mp::FrameReader reader;
  // Feed one byte at a time: the incremental parser must never yield a frame
  // early and must produce exactly the original at the last byte.
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    reader.feed(std::span(&wire[i], 1));
    ASSERT_FALSE(reader.next().has_value()) << "frame yielded early at byte " << i;
  }
  reader.feed(std::span(&wire[wire.size() - 1], 1));
  const auto got = reader.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->kind, frame.kind);
  EXPECT_EQ(got->source, frame.source);
  EXPECT_EQ(got->dest, frame.dest);
  EXPECT_EQ(got->tag, frame.tag);
  EXPECT_EQ(got->seq, frame.seq);
  EXPECT_EQ(got->clock, frame.clock);
  EXPECT_EQ(got->payload, frame.payload);
  EXPECT_EQ(reader.buffered(), 0u);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Wire, BackToBackFramesDrainInOrder) {
  mp::Frame a;
  a.kind = mp::FrameKind::kHeartbeat;
  a.source = 1;
  a.tag = 3;
  mp::Frame b;
  b.kind = mp::FrameKind::kGoodbye;
  b.source = 1;

  std::vector<std::byte> wire = mp::pack_frame(a);
  const std::vector<std::byte> second = mp::pack_frame(b);
  wire.insert(wire.end(), second.begin(), second.end());

  mp::FrameReader reader;
  reader.feed(wire);
  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->kind, mp::FrameKind::kHeartbeat);
  EXPECT_EQ(first->tag, 3);
  const auto next = reader.next();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->kind, mp::FrameKind::kGoodbye);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Wire, DamagedFrameIsATypedTransportError) {
  mp::Frame frame;
  frame.kind = mp::FrameKind::kData;
  frame.payload.assign(64, std::byte{0x5A});
  std::vector<std::byte> wire = mp::pack_frame(frame);
  wire.back() ^= std::byte{0x01};  // flip one payload bit: CRC must catch it

  mp::FrameReader reader;
  reader.feed(wire);
  EXPECT_THROW((void)reader.next(), mp::TransportError);
}

// --- Endpoint parsing --------------------------------------------------------

TEST(Endpoint, ParsesUnixAndTcpSpecs) {
  const mp::Endpoint u = mp::parse_endpoint("unix:/tmp/slspvr-test.sock");
  EXPECT_EQ(u.kind, mp::Endpoint::Kind::kUnix);
  EXPECT_EQ(u.path, "/tmp/slspvr-test.sock");

  const mp::Endpoint t = mp::parse_endpoint("tcp:127.0.0.1:4455");
  EXPECT_EQ(t.kind, mp::Endpoint::Kind::kTcp);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 4455);
}

TEST(Endpoint, RejectsMalformedSpecs) {
  EXPECT_THROW((void)mp::parse_endpoint(""), std::invalid_argument);
  EXPECT_THROW((void)mp::parse_endpoint("carrier-pigeon:coop"), std::invalid_argument);
  EXPECT_THROW((void)mp::parse_endpoint("unix:"), std::invalid_argument);
  EXPECT_THROW((void)mp::parse_endpoint("tcp:127.0.0.1"), std::invalid_argument);
  EXPECT_THROW((void)mp::parse_endpoint("tcp:127.0.0.1:notaport"), std::invalid_argument);
}

// --- Bounded connect ---------------------------------------------------------

TEST(Connect, BackoffExhaustionIsTypedNotAHang) {
  mp::Endpoint nowhere;
  nowhere.kind = mp::Endpoint::Kind::kUnix;
  nowhere.path = "/tmp/slspvr-test-no-such-supervisor.sock";
  mp::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay = std::chrono::milliseconds{1};
  policy.deadline = std::chrono::milliseconds{200};
  try {
    (void)mp::connect_with_backoff(nowhere, policy, /*rank=*/4);
    FAIL() << "connect to a dead endpoint must throw";
  } catch (const mp::RetryExhaustedError& e) {
    EXPECT_EQ(e.rank, 4);
    EXPECT_EQ(e.source, -1);  // peer -1 = the supervisor
  }
}

// --- Tentpole acceptance: byte-identical clean frames ------------------------

TEST(Procs, EveryPaperMethodIsByteIdenticalToInProcess) {
  const pvr::Experiment experiment(small_config(4));
  for (const auto& method : pvr::MethodSet::paper_methods()) {
    SCOPED_TRACE(std::string("method ") + std::string(method->name()));
    const pvr::MethodResult in_process = experiment.run(*method);
    const pvr::FtMethodResult procs = experiment.run_procs(*method, fast_opts());
    EXPECT_FALSE(procs.report.faulted);
    expect_images_identical(procs.result.final_image, in_process.final_image);
    // Worker-shipped accounting reached the supervisor for every rank.
    ASSERT_EQ(procs.result.per_rank.size(), in_process.per_rank.size());
    ASSERT_EQ(procs.result.received_bytes_per_rank.size(), 4u);
  }
}

TEST(Procs, TcpLoopbackMatchesToo) {
  const pvr::Experiment experiment(small_config(4));
  const slspvr::core::BsbrcCompositor bsbrc;
  const pvr::MethodResult in_process = experiment.run(bsbrc);
  const pvr::FtMethodResult procs = experiment.run_procs(bsbrc, fast_opts("tcp"));
  EXPECT_FALSE(procs.report.faulted);
  expect_images_identical(procs.result.final_image, in_process.final_image);
}

TEST(Procs, NonPowerOfTwoRanksFoldAcrossProcesses) {
  const pvr::Experiment experiment(small_config(3));
  const slspvr::core::BsbrcCompositor bsbrc;
  const pvr::MethodResult in_process = experiment.run(bsbrc);
  const pvr::FtMethodResult procs = experiment.run_procs(bsbrc, fast_opts());
  EXPECT_FALSE(procs.report.faulted);
  expect_images_identical(procs.result.final_image, in_process.final_image);
}

// --- Tentpole acceptance: real crashes, real provenance ----------------------

TEST(ProcsChaos, SigkillMidFrameFinishesFromSurvivors) {
  const pvr::Experiment experiment(small_config(4));
  const slspvr::core::BsbrcCompositor bsbrc;
  pvr::ProcOptions opts = fast_opts();
  opts.crashes = {pvr::ProcCrash{/*rank=*/1, /*stage=*/1, pvr::ProcCrash::Kind::kSigkill}};

  const pvr::FtMethodResult ft = experiment.run_procs(bsbrc, opts);
  EXPECT_TRUE(ft.report.faulted);
  EXPECT_TRUE(ft.report.resumed || ft.report.degraded) << ft.report.summary();
  ASSERT_EQ(ft.report.failed_ranks.size(), 1u);
  EXPECT_EQ(ft.report.failed_ranks[0], 1);
  // Real provenance: the supervisor saw the wait status, not an injector.
  EXPECT_TRUE(any_event_contains(ft.report, "SIGKILL")) << ft.report.summary();
  // The frame still completed from the survivors.
  EXPECT_EQ(ft.result.final_image.width(), 64);
  EXPECT_EQ(ft.result.final_image.height(), 64);
  EXPECT_GT(img::count_non_blank(ft.result.final_image, ft.result.final_image.bounds()), 0);
}

TEST(ProcsChaos, SigstopIsCaughtByTheHeartbeatWatchdog) {
  const pvr::Experiment experiment(small_config(4));
  const slspvr::core::BsbrcCompositor bsbrc;
  pvr::ProcOptions opts = fast_opts();
  opts.heartbeat_interval = std::chrono::milliseconds{20};
  opts.heartbeat_timeout = std::chrono::milliseconds{300};
  opts.crashes = {pvr::ProcCrash{/*rank=*/2, /*stage=*/1, pvr::ProcCrash::Kind::kSigstop}};

  const pvr::FtMethodResult ft = experiment.run_procs(bsbrc, opts);
  EXPECT_TRUE(ft.report.faulted);
  ASSERT_EQ(ft.report.failed_ranks.size(), 1u);
  EXPECT_EQ(ft.report.failed_ranks[0], 2);
  // A stopped process sends nothing: only the heartbeat watchdog can see it.
  EXPECT_TRUE(any_event_contains(ft.report, "heartbeat timeout")) << ft.report.summary();
  EXPECT_GT(img::count_non_blank(ft.result.final_image, ft.result.final_image.bounds()), 0);
}

TEST(ProcsChaos, SigsegvProvenanceIsHumanReadable) {
  const pvr::Experiment experiment(small_config(4));
  const slspvr::core::BsbrcCompositor bsbrc;
  pvr::ProcOptions opts = fast_opts();
  opts.crashes = {pvr::ProcCrash{/*rank=*/3, /*stage=*/1, pvr::ProcCrash::Kind::kSigsegv}};

  const pvr::FtMethodResult ft = experiment.run_procs(bsbrc, opts);
  EXPECT_TRUE(ft.report.faulted);
  ASSERT_EQ(ft.report.failed_ranks.size(), 1u);
  EXPECT_EQ(ft.report.failed_ranks[0], 3);
  EXPECT_TRUE(any_event_contains(ft.report, "killed by signal 11 (SIGSEGV)"))
      << ft.report.summary();
  EXPECT_GT(img::count_non_blank(ft.result.final_image, ft.result.final_image.bounds()), 0);
}

TEST(ProcsChaos, NonzeroExitProvenanceIsHumanReadable) {
  const pvr::Experiment experiment(small_config(4));
  const slspvr::core::BsbrcCompositor bsbrc;
  pvr::ProcOptions opts = fast_opts();
  pvr::ProcCrash crash;
  crash.rank = 1;
  crash.stage = 1;
  crash.kind = pvr::ProcCrash::Kind::kExit;
  crash.exit_code = 7;
  opts.crashes = {crash};

  const pvr::FtMethodResult ft = experiment.run_procs(bsbrc, opts);
  EXPECT_TRUE(ft.report.faulted);
  ASSERT_EQ(ft.report.failed_ranks.size(), 1u);
  EXPECT_EQ(ft.report.failed_ranks[0], 1);
  // A worker that bails with exit() dies without a signal; the wait status
  // still yields a readable cause.
  EXPECT_TRUE(any_event_contains(ft.report, "exited with code 7")) << ft.report.summary();
  EXPECT_GT(img::count_non_blank(ft.result.final_image, ft.result.final_image.bounds()), 0);
}

// --- Jittered backoff (pure) -------------------------------------------------

TEST(Connect, BackoffDelayIsBoundedDeterministicAndJittered) {
  mp::RetryPolicy policy;
  policy.base_delay = std::chrono::milliseconds{8};
  for (int rank = 0; rank < 4; ++rank) {
    for (int attempt = 1; attempt <= 8; ++attempt) {
      const auto delay = mp::backoff_delay(policy, attempt, rank);
      const std::int64_t exponential =
          std::min<std::int64_t>(std::int64_t{8} << (attempt - 1), 200);
      // Bounds: capped exponential plus jitter in [0, base/2].
      EXPECT_GE(delay.count(), exponential) << "rank " << rank << " attempt " << attempt;
      EXPECT_LE(delay.count(), exponential + 4) << "rank " << rank << " attempt " << attempt;
      // Deterministic: the same (rank, attempt) always sleeps the same.
      EXPECT_EQ(delay, mp::backoff_delay(policy, attempt, rank));
    }
  }
  // De-phased: at least one attempt where two ranks sleep differently, so a
  // herd of reconnecting workers does not hammer the listener in lockstep.
  bool differs = false;
  for (int attempt = 1; attempt <= 8 && !differs; ++attempt) {
    differs = mp::backoff_delay(policy, attempt, 0) != mp::backoff_delay(policy, attempt, 1);
  }
  EXPECT_TRUE(differs);
}

// --- Sequence mode: resurrection ---------------------------------------------

TEST(Sequence, CleanFramesAreByteIdenticalToInProcess) {
  const pvr::ExperimentConfig base = small_config(4);
  const vol::Dataset dataset = vol::make_dataset(base.dataset, base.volume_scale);
  const slspvr::core::BsbrcCompositor bsbrc;
  const pvr::SequenceProcOptions opts = seq_opts(3);

  const pvr::SequenceRunResult run = pvr::run_compositing_sequence(bsbrc, dataset, base, opts);
  EXPECT_FALSE(run.report.faulted) << run.report.summary();
  EXPECT_EQ(run.report.respawns, 0);
  EXPECT_EQ(run.report.stale_rejects, 0u);
  ASSERT_EQ(run.report.generations.size(), 4u);
  for (const std::uint32_t g : run.report.generations) EXPECT_EQ(g, 0u);
  ASSERT_EQ(run.frames.size(), 3u);
  for (int f = 0; f < 3; ++f) {
    SCOPED_TRACE("frame " + std::to_string(f));
    EXPECT_FALSE(run.frames[static_cast<std::size_t>(f)].report.faulted);
    const pvr::Experiment ex(dataset, stepped(base, opts, f));
    expect_images_identical(run.frames[static_cast<std::size_t>(f)].result.final_image,
                            ex.run(bsbrc).final_image);
  }
}

// P=3: the sequence workers composite with the fold extension and the
// parent recovers a mid-frame death with it. Clean frames match the
// in-process render of each view; the killed frame matches the thread
// backend's recovery from the same death.
TEST(Sequence, NonPowerOfTwoRanksFoldAndRecoverAcrossFrames) {
  const pvr::ExperimentConfig base = small_config(3);
  const vol::Dataset dataset = vol::make_dataset(base.dataset, base.volume_scale);
  const slspvr::core::BsbrcCompositor bsbrc;
  pvr::SequenceProcOptions opts = seq_opts(3);
  opts.proc.crashes = {
      pvr::ProcCrash{/*rank=*/1, /*stage=*/1, pvr::ProcCrash::Kind::kSigkill, /*frame=*/1}};

  const pvr::SequenceRunResult run = pvr::run_compositing_sequence(bsbrc, dataset, base, opts);
  EXPECT_EQ(run.report.respawns, 1) << run.report.summary();
  ASSERT_EQ(run.frames.size(), 3u);
  for (const int f : {0, 2}) {
    SCOPED_TRACE("frame " + std::to_string(f));
    const pvr::FtMethodResult& ft = run.frames[static_cast<std::size_t>(f)];
    EXPECT_FALSE(ft.report.faulted) << ft.report.summary();
    const pvr::MethodResult want = pvr::Experiment(dataset, stepped(base, opts, f)).run(bsbrc);
    EXPECT_EQ(ft.result.method, want.method);
    expect_images_identical(ft.result.final_image, want.final_image);
  }

  const pvr::FtMethodResult& killed = run.frames[1];
  EXPECT_TRUE(killed.report.faulted);
  EXPECT_TRUE(any_event_contains(killed.report, "SIGKILL")) << killed.report.summary();
  ASSERT_EQ(killed.report.failed_ranks, std::vector<int>{1});
  mp::FaultPlan kill;
  kill.kills.push_back({/*rank=*/1, /*stage=*/1});
  const pvr::FtMethodResult want =
      pvr::Experiment(dataset, stepped(base, opts, 1)).run_ft(bsbrc, kill);
  EXPECT_EQ(killed.report.degraded, want.report.degraded);
  EXPECT_EQ(killed.report.resumed, want.report.resumed);
  EXPECT_EQ(killed.result.method, want.result.method);
  expect_images_identical(killed.result.final_image, want.result.final_image);
}

namespace {

/// The acceptance sweep: 10 frames, 4 ranks, every rank killed exactly once
/// (a different exit flavour each time). Every fault-free frame — in
/// particular every post-resurrection frame — must be byte-identical to the
/// in-process render of that view at full strength.
void run_kill_each_rank_once(const std::string& transport) {
  const pvr::ExperimentConfig base = small_config(4);
  const vol::Dataset dataset = vol::make_dataset(base.dataset, base.volume_scale);
  const slspvr::core::BsbrcCompositor bsbrc;
  pvr::SequenceProcOptions opts = seq_opts(10, transport);
  opts.proc.crashes = {
      pvr::ProcCrash{/*rank=*/0, /*stage=*/1, pvr::ProcCrash::Kind::kSigkill, /*frame=*/2},
      pvr::ProcCrash{/*rank=*/1, /*stage=*/1, pvr::ProcCrash::Kind::kSigsegv, /*frame=*/4},
      pvr::ProcCrash{/*rank=*/2, /*stage=*/1, pvr::ProcCrash::Kind::kExit, /*frame=*/6,
                     /*exit_code=*/7},
      pvr::ProcCrash{/*rank=*/3, /*stage=*/1, pvr::ProcCrash::Kind::kSigkill, /*frame=*/8},
  };

  const pvr::SequenceRunResult run = pvr::run_compositing_sequence(bsbrc, dataset, base, opts);
  EXPECT_EQ(run.report.respawns, 4) << run.report.summary();
  EXPECT_FALSE(run.report.degraded) << run.report.summary();
  ASSERT_EQ(run.report.generations.size(), 4u);
  for (const std::uint32_t g : run.report.generations) EXPECT_EQ(g, 1u);
  // Human-readable cause for every exit flavour (signal, segfault, exit()).
  EXPECT_TRUE(any_event_contains(run.report, "SIGKILL")) << run.report.summary();
  EXPECT_TRUE(any_event_contains(run.report, "killed by signal 11 (SIGSEGV)"))
      << run.report.summary();
  EXPECT_TRUE(any_event_contains(run.report, "exited with code 7")) << run.report.summary();

  const std::set<int> crash_frames{2, 4, 6, 8};
  ASSERT_EQ(run.frames.size(), 10u);
  for (int f = 0; f < 10; ++f) {
    SCOPED_TRACE("frame " + std::to_string(f));
    const pvr::FtMethodResult& ft = run.frames[static_cast<std::size_t>(f)];
    if (crash_frames.count(f) != 0) {
      EXPECT_TRUE(ft.report.faulted);
      continue;
    }
    EXPECT_FALSE(ft.report.faulted) << ft.report.summary();
    const pvr::Experiment ex(dataset, stepped(base, opts, f));
    expect_images_identical(ft.result.final_image, ex.run(bsbrc).final_image);
  }
}

}  // namespace

TEST(SequenceChaos, KillEachRankOnceUnix) { run_kill_each_rank_once("unix"); }

TEST(SequenceChaos, KillEachRankOnceTcp) { run_kill_each_rank_once("tcp"); }

TEST(SequenceChaos, SameRankDiesTwiceAndComesBackTwice) {
  const pvr::ExperimentConfig base = small_config(4);
  const vol::Dataset dataset = vol::make_dataset(base.dataset, base.volume_scale);
  const slspvr::core::BsbrcCompositor bsbrc;
  pvr::SequenceProcOptions opts = seq_opts(5);
  opts.proc.crashes = {
      pvr::ProcCrash{/*rank=*/1, /*stage=*/1, pvr::ProcCrash::Kind::kSigkill, /*frame=*/1},
      pvr::ProcCrash{/*rank=*/1, /*stage=*/1, pvr::ProcCrash::Kind::kSigkill, /*frame=*/3},
  };

  const pvr::SequenceRunResult run = pvr::run_compositing_sequence(bsbrc, dataset, base, opts);
  EXPECT_EQ(run.report.respawns, 2) << run.report.summary();
  EXPECT_FALSE(run.report.degraded);
  ASSERT_EQ(run.report.generations.size(), 4u);
  EXPECT_EQ(run.report.generations[1], 2u);  // two resurrections: incarnation 2
  ASSERT_EQ(run.frames.size(), 5u);
  for (const int f : {0, 2, 4}) {
    SCOPED_TRACE("frame " + std::to_string(f));
    const pvr::FtMethodResult& ft = run.frames[static_cast<std::size_t>(f)];
    EXPECT_FALSE(ft.report.faulted) << ft.report.summary();
    const pvr::Experiment ex(dataset, stepped(base, opts, f));
    expect_images_identical(ft.result.final_image, ex.run(bsbrc).final_image);
  }
  EXPECT_TRUE(run.frames[1].report.faulted);
  EXPECT_TRUE(run.frames[3].report.faulted);
}

TEST(SequenceChaos, RespawnBudgetExhaustionDemotesForGood) {
  const pvr::ExperimentConfig base = small_config(4);
  const vol::Dataset dataset = vol::make_dataset(base.dataset, base.volume_scale);
  const slspvr::core::BsbrcCompositor bsbrc;
  pvr::SequenceProcOptions opts = seq_opts(4);
  opts.respawn.max_respawns_per_rank = 0;  // circuit breaker opens immediately
  opts.proc.crashes = {
      pvr::ProcCrash{/*rank=*/1, /*stage=*/1, pvr::ProcCrash::Kind::kSigkill, /*frame=*/1}};

  const pvr::SequenceRunResult run = pvr::run_compositing_sequence(bsbrc, dataset, base, opts);
  EXPECT_EQ(run.report.respawns, 0);
  EXPECT_TRUE(run.report.degraded) << run.report.summary();
  ASSERT_EQ(run.report.failed_ranks.size(), 1u);
  EXPECT_EQ(run.report.failed_ranks[0], 1);
  ASSERT_EQ(run.frames.size(), 4u);
  EXPECT_FALSE(run.frames[0].report.faulted);
  EXPECT_TRUE(run.frames[1].report.faulted);
  for (int f = 2; f < 4; ++f) {
    SCOPED_TRACE("frame " + std::to_string(f));
    const pvr::FtMethodResult& ft = run.frames[static_cast<std::size_t>(f)];
    EXPECT_TRUE(ft.report.degraded) << ft.report.summary();
    // The degraded fold-out equals the reference composite over the
    // survivors, with the demoted rank's slot blank.
    const pvr::Experiment ex(dataset, stepped(base, opts, f));
    std::vector<img::Image> subs = ex.subimages();
    subs[1] = img::Image(base.image_size, base.image_size);
    const img::Image want =
        slspvr::core::composite_reference(subs, ex.order().front_to_back);
    expect_images_identical(ft.result.final_image, want);
  }
}
