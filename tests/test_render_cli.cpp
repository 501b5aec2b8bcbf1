// Strict-parse tests for slspvr-render's multi-process flag family: the
// grammar helpers and the contradiction rules are pure functions (they throw
// ParseError, never exit), so the whole surface is testable without spawning
// the tool.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "tools/render_cli.hpp"

namespace tools = slspvr::tools;
namespace pvr = slspvr::pvr;

namespace {

/// Parse a whole flag vector the way the tool's argv loop does.
tools::ProcCli parse_flags(const std::vector<std::string>& argv) {
  tools::ProcCli cli;
  std::deque<std::string> rest(argv.begin(), argv.end());
  while (!rest.empty()) {
    const std::string arg = rest.front();
    rest.pop_front();
    const auto next = [&]() -> std::string {
      if (rest.empty()) throw tools::ParseError(arg + ": missing value");
      std::string v = rest.front();
      rest.pop_front();
      return v;
    };
    if (!tools::try_parse_proc_flag(cli, arg, next)) {
      throw tools::ParseError("unknown flag: " + arg);
    }
  }
  return cli;
}

}  // namespace

TEST(RenderCli, ParsePositiveIntIsStrict) {
  EXPECT_EQ(tools::parse_positive_int("4", "--procs"), 4);
  EXPECT_EQ(tools::parse_positive_int("128", "--procs"), 128);
  EXPECT_THROW((void)tools::parse_positive_int("", "--procs"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_positive_int("0", "--procs"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_positive_int("-3", "--procs"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_positive_int("4x", "--procs"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_positive_int(" 4", "--procs"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_positive_int("+4", "--procs"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_positive_int("99999999999", "--procs"), tools::ParseError);
}

TEST(RenderCli, ParseRankStageIsStrict) {
  const tools::RankStage rs = tools::parse_rank_stage("2,1", "--proc-kill");
  EXPECT_EQ(rs.rank, 2);
  EXPECT_EQ(rs.stage, 1);
  EXPECT_EQ(tools::parse_rank_stage("0,0", "--proc-kill").rank, 0);
  EXPECT_THROW((void)tools::parse_rank_stage("2", "--proc-kill"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_rank_stage("2,1,0", "--proc-kill"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_rank_stage("2,", "--proc-kill"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_rank_stage(",1", "--proc-kill"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_rank_stage("-1,1", "--proc-kill"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_rank_stage("a,b", "--proc-kill"), tools::ParseError);
}

TEST(RenderCli, ProcFamilyFlagsParse) {
  const tools::ProcCli cli = parse_flags({"--procs", "4", "--transport", "tcp",
                                          "--heartbeat-ms", "10",
                                          "--heartbeat-timeout-ms", "500",
                                          "--proc-kill", "2,1"});
  EXPECT_TRUE(cli.active());
  EXPECT_EQ(cli.procs, 4);
  EXPECT_EQ(cli.transport, "tcp");
  EXPECT_EQ(cli.heartbeat_ms, 10);
  EXPECT_EQ(cli.heartbeat_timeout_ms, 500);
  ASSERT_EQ(cli.crashes.size(), 1u);
  EXPECT_EQ(cli.crashes.front().rank, 2);
  EXPECT_EQ(cli.crashes.front().stage, 1);
  EXPECT_EQ(cli.crashes.front().kind, pvr::ProcCrash::Kind::kSigkill);
  EXPECT_EQ(cli.crashes.front().frame, -1);  // no @frame qualifier
  EXPECT_NO_THROW(tools::validate_proc_cli(cli, /*fault_flags_present=*/false));
}

TEST(RenderCli, UnknownTransportRejected) {
  EXPECT_THROW((void)parse_flags({"--procs", "4", "--transport", "smoke-signal"}),
               tools::ParseError);
}

TEST(RenderCli, OnlyOnePlantedCrashPerSingleFrameRun) {
  // The one-crash rule is a validation rule, not a parse rule: --frames may
  // come later in argv, and sequence runs legitimately plant several.
  for (const auto& argv : std::vector<std::vector<std::string>>{
           {"--procs", "4", "--proc-kill", "1,1", "--proc-stall", "2,1"},
           {"--procs", "4", "--proc-kill", "1,1", "--proc-kill", "2,1"}}) {
    const tools::ProcCli cli = parse_flags(argv);
    EXPECT_THROW(tools::validate_proc_cli(cli, false), tools::ParseError);
  }
  const tools::ProcCli seq = parse_flags({"--procs", "4", "--frames", "5",
                                          "--proc-kill", "1,1@1",
                                          "--proc-kill", "2,1@3"});
  EXPECT_NO_THROW(tools::validate_proc_cli(seq, false));
  EXPECT_EQ(seq.crashes.size(), 2u);
}

TEST(RenderCli, ProcStallParsesAsSigstop) {
  const tools::ProcCli cli = parse_flags({"--procs", "4", "--proc-stall", "3,2"});
  ASSERT_EQ(cli.crashes.size(), 1u);
  EXPECT_EQ(cli.crashes.front().kind, pvr::ProcCrash::Kind::kSigstop);
}

TEST(RenderCli, ProcSegvAndExitParseAsTheirKinds) {
  const tools::ProcCli cli = parse_flags(
      {"--procs", "4", "--frames", "3", "--proc-segv", "0,1@0", "--proc-exit", "2,0@2"});
  ASSERT_EQ(cli.crashes.size(), 2u);
  EXPECT_EQ(cli.crashes[0].kind, pvr::ProcCrash::Kind::kSigsegv);
  EXPECT_EQ(cli.crashes[0].frame, 0);
  EXPECT_EQ(cli.crashes[1].kind, pvr::ProcCrash::Kind::kExit);
  EXPECT_EQ(cli.crashes[1].rank, 2);
  EXPECT_EQ(cli.crashes[1].frame, 2);
  EXPECT_NO_THROW(tools::validate_proc_cli(cli, false));
}

TEST(RenderCli, CrashSpecGrammarIsStrict) {
  using K = pvr::ProcCrash::Kind;
  const pvr::ProcCrash plain = tools::parse_crash_spec("2,1", "--proc-kill", K::kSigkill);
  EXPECT_EQ(plain.rank, 2);
  EXPECT_EQ(plain.stage, 1);
  EXPECT_EQ(plain.frame, -1);
  const pvr::ProcCrash framed = tools::parse_crash_spec("0,3@7", "--proc-kill", K::kSigkill);
  EXPECT_EQ(framed.frame, 7);
  for (const char* bad : {"2,1@", "2,1@x", "2,1@-1", "2,1@2@3", "2@1", "@2", "2,1,3@1"}) {
    SCOPED_TRACE(bad);
    try {
      (void)tools::parse_crash_spec(bad, "--proc-kill", K::kSigkill);
      FAIL() << "must reject";
    } catch (const tools::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("rank,stage[@frame]"), std::string::npos);
    }
  }
}

TEST(RenderCli, NonFamilyFlagsAreLeftAlone) {
  tools::ProcCli cli;
  const auto next = []() -> std::string { return ""; };
  EXPECT_FALSE(tools::try_parse_proc_flag(cli, "--ranks", next));
  EXPECT_FALSE(tools::try_parse_proc_flag(cli, "--fault-kill", next));
  EXPECT_FALSE(cli.active());
}

// --- Contradiction rules -----------------------------------------------------

TEST(RenderCli, ProcsExcludesInProcessFaultInjection) {
  const tools::ProcCli cli = parse_flags({"--procs", "4"});
  try {
    tools::validate_proc_cli(cli, /*fault_flags_present=*/true);
    FAIL() << "--procs with --fault-* must be rejected";
  } catch (const tools::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--procs cannot be combined"), std::string::npos);
    EXPECT_NE(what.find("--proc-kill"), std::string::npos)
        << "the message must point at the real-crash alternative";
  }
}

TEST(RenderCli, FamilyFlagsWithoutProcsAreRejected) {
  for (const auto& argv : std::vector<std::vector<std::string>>{
           {"--transport", "tcp"},
           {"--heartbeat-ms", "10"},
           {"--heartbeat-timeout-ms", "500"},
           {"--proc-kill", "1,1"},
           {"--proc-stall", "1,1"},
           {"--frames", "4"},
           {"--respawn-max", "1"}}) {
    SCOPED_TRACE(argv.front());
    const tools::ProcCli cli = parse_flags(argv);
    EXPECT_THROW(tools::validate_proc_cli(cli, false), tools::ParseError);
  }
}

TEST(RenderCli, HeartbeatTimeoutMustExceedInterval) {
  const tools::ProcCli cli = parse_flags(
      {"--procs", "4", "--heartbeat-ms", "100", "--heartbeat-timeout-ms", "100"});
  EXPECT_THROW(tools::validate_proc_cli(cli, false), tools::ParseError);
}

TEST(RenderCli, PlantedCrashRankMustBeInRange) {
  const tools::ProcCli cli = parse_flags({"--procs", "4", "--proc-kill", "4,0"});
  EXPECT_THROW(tools::validate_proc_cli(cli, false), tools::ParseError);
}

TEST(RenderCli, SequenceOnlyFlagsRequireFrames) {
  // --respawn-max and @frame qualifiers are meaningless in a single-frame run.
  const tools::ProcCli respawn = parse_flags({"--procs", "4", "--respawn-max", "1"});
  EXPECT_THROW(tools::validate_proc_cli(respawn, false), tools::ParseError);
  const tools::ProcCli framed = parse_flags({"--procs", "4", "--proc-kill", "1,1@0"});
  EXPECT_THROW(tools::validate_proc_cli(framed, false), tools::ParseError);
}

TEST(RenderCli, CrashFrameMustBeWithinSequence) {
  const tools::ProcCli cli =
      parse_flags({"--procs", "4", "--frames", "3", "--proc-kill", "1,1@3"});
  EXPECT_THROW(tools::validate_proc_cli(cli, false), tools::ParseError);
}

TEST(RenderCli, SequenceFlagsLowerOntoSequenceOptions) {
  const tools::ProcCli cli = parse_flags({"--procs", "4", "--transport", "tcp",
                                          "--frames", "10", "--respawn-max", "0",
                                          "--proc-segv", "1,1@2"});
  tools::validate_proc_cli(cli, false);
  EXPECT_TRUE(cli.sequence());
  const pvr::SequenceProcOptions seq = tools::to_sequence_options(cli);
  EXPECT_EQ(seq.frames, 10);
  EXPECT_EQ(seq.proc.transport, "tcp");
  EXPECT_EQ(seq.respawn.max_respawns_per_rank, 0);
  ASSERT_EQ(seq.proc.crashes.size(), 1u);
  EXPECT_EQ(seq.proc.crashes.front().kind, pvr::ProcCrash::Kind::kSigsegv);
  EXPECT_EQ(seq.proc.crashes.front().frame, 2);
}

TEST(RenderCli, ValidatedFlagsLowerOntoProcOptions) {
  const tools::ProcCli cli = parse_flags({"--procs", "2", "--transport", "tcp",
                                          "--heartbeat-ms", "15",
                                          "--heartbeat-timeout-ms", "450",
                                          "--proc-stall", "1,2"});
  tools::validate_proc_cli(cli, false);
  const pvr::ProcOptions opts = tools::to_proc_options(cli);
  EXPECT_EQ(opts.transport, "tcp");
  EXPECT_EQ(opts.heartbeat_interval.count(), 15);
  EXPECT_EQ(opts.heartbeat_timeout.count(), 450);
  ASSERT_EQ(opts.crashes.size(), 1u);
  EXPECT_EQ(opts.crashes.front().rank, 1);
  EXPECT_EQ(opts.crashes.front().stage, 2);
  EXPECT_EQ(opts.crashes.front().kind, pvr::ProcCrash::Kind::kSigstop);
}
