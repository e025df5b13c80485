// pcs_cli exit-code and usage conventions, exercised against the real
// binary (CMake injects its path as PCS_CLI_PATH): unknown flags and
// commands print usage and exit 2, spec errors exit 1, success exits 0 —
// uniformly across subcommands, including the experiment runner.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#ifndef PCS_SOURCE_DIR
#define PCS_SOURCE_DIR "."
#endif
#ifndef PCS_CLI_PATH
#define PCS_CLI_PATH "./pcs_cli"
#endif

namespace {

int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(PCS_CLI_PATH) + " " + args + " > /dev/null 2> /dev/null";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Like run_cli, but the caller controls the redirections.
int run_cli_raw(const std::string& args) {
  const int status = std::system((std::string(PCS_CLI_PATH) + " " + args).c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string experiments_dir() { return std::string(PCS_SOURCE_DIR) + "/experiments"; }

TEST(Cli, UnknownCommandAndFlagsExitTwo) {
  EXPECT_EQ(run_cli(""), 2);  // a command is required
  EXPECT_EQ(run_cli("frobnicate"), 2);
  EXPECT_EQ(run_cli("--bogus-flag"), 2);
  EXPECT_EQ(run_cli("--help"), 0);
  EXPECT_EQ(run_cli("run --bogus scenario.json"), 2);
  EXPECT_EQ(run_cli("sweep --bogus sweep.json"), 2);
}

TEST(Cli, ExperimentFollowsTheUsageConvention) {
  // Unknown flags, missing arguments, contradictory flags: usage + exit 2.
  EXPECT_EQ(run_cli("experiment --bogus"), 2);
  EXPECT_EQ(run_cli("experiment"), 2);
  EXPECT_EQ(run_cli("experiment spec.json --jobs"), 2);
  EXPECT_EQ(run_cli("experiment spec.json --jobs nope"), 2);
  EXPECT_EQ(run_cli("experiment spec.json --json --csv"), 2);
  EXPECT_EQ(run_cli("experiment spec.json --check --update"), 2);
  EXPECT_EQ(run_cli("experiment a.json b.json"), 2);
}

TEST(Cli, ExperimentFilterFollowsTheUsageConvention) {
  // --filter needs an argument and is incompatible with the byte-exact
  // report modes (a slice can never match the full committed report).
  EXPECT_EQ(run_cli("experiment spec.json --filter"), 2);
  EXPECT_EQ(run_cli("experiment spec.json --filter wrench --check"), 2);
  EXPECT_EQ(run_cli("experiment spec.json --filter wrench --update"), 2);
}

TEST(Cli, ExperimentFilterRunsASlice) {
  // A matching substring runs just those cases (exit 0, checks naming
  // filtered-out cases are skipped); a non-matching one is a run error.
  EXPECT_EQ(run_cli("experiment " + experiments_dir() + "/table3.json --list --filter real"), 0);
  EXPECT_EQ(run_cli("experiment " + experiments_dir() + "/table3.json --filter real"), 0);
  EXPECT_EQ(run_cli("experiment " + experiments_dir() + "/table3.json --filter no_such"), 1);
}

TEST(Cli, ExperimentRunsCommittedSpecs) {
  // --list expands without running; a real (tiny) spec runs to exit 0 and
  // --check agrees with the committed expected report.
  EXPECT_EQ(run_cli("experiment " + experiments_dir() + "/table1.json --list"), 0);
  EXPECT_EQ(run_cli("experiment " + experiments_dir() + "/table3.json"), 0);
  EXPECT_EQ(run_cli("experiment " + experiments_dir() + "/table3.json --check --jobs 2"), 0);
}

TEST(Cli, ExperimentSpecErrorsExitOne) {
  EXPECT_EQ(run_cli("experiment /nonexistent/spec.json"), 1);
}

TEST(Cli, JobsZeroMeansAutoAndKeepsReportsByteIdentical) {
  // --jobs 0 = auto (hardware_concurrency) is the documented default; it
  // must be accepted everywhere a --jobs is, while negative values stay
  // usage errors.  --check on a committed experiment proves the report
  // bytes match the jobs-independent expected file.
  EXPECT_EQ(run_cli("experiment " + experiments_dir() + "/table3.json --check --jobs 0"), 0);
  EXPECT_EQ(run_cli("experiment spec.json --jobs -1"), 2);
  EXPECT_EQ(run_cli("sweep sweep.json --jobs -1"), 2);

  // The same sweep at --jobs 0, 1 and 4: stdout must be byte-identical.
  const std::string sweep =
      std::string(PCS_SOURCE_DIR) + "/scenarios/sweeps/fig8_scaling.json";
  const std::string out = ::testing::TempDir();
  EXPECT_EQ(
      run_cli_raw("sweep " + sweep + " --json --jobs 0 > " + out + "jobs0.json 2>/dev/null"), 0);
  EXPECT_EQ(
      run_cli_raw("sweep " + sweep + " --json --jobs 1 > " + out + "jobs1.json 2>/dev/null"), 0);
  EXPECT_EQ(
      run_cli_raw("sweep " + sweep + " --json --jobs 4 > " + out + "jobs4.json 2>/dev/null"), 0);
  EXPECT_EQ(std::system(("cmp -s " + out + "jobs0.json " + out + "jobs1.json").c_str()), 0);
  EXPECT_EQ(std::system(("cmp -s " + out + "jobs0.json " + out + "jobs4.json").c_str()), 0);
}

TEST(Cli, RecordRejectsUnknownFlags) {
  EXPECT_EQ(run_cli("record --bogus"), 2);
  EXPECT_EQ(run_cli("record"), 2);  // missing scenario + --out
}

TEST(Cli, SeedOverrideFollowsTheUsageConvention) {
  // --seed takes a non-negative integer < 2^53; anything else is a usage
  // error (exit 2), uniformly on run and record.  replay has no --seed —
  // the recorded schedule in the log header wins there.
  EXPECT_EQ(run_cli("run scenario.json --seed"), 2);
  EXPECT_EQ(run_cli("run scenario.json --seed nope"), 2);
  EXPECT_EQ(run_cli("run scenario.json --seed -1"), 2);
  EXPECT_EQ(run_cli("run scenario.json --seed 1.5"), 2);
  EXPECT_EQ(run_cli("run scenario.json --seed 9007199254740992"), 2);
  EXPECT_EQ(run_cli("record scenario.json --out t.jsonl --seed 12x"), 2);
  EXPECT_EQ(run_cli("replay t.jsonl --seed 12"), 2);
  // A well-formed seed on a missing scenario is past argument parsing:
  // the file error exits 1, not 2.
  EXPECT_EQ(run_cli("run /nonexistent/scenario.json --seed 12"), 1);
}

TEST(Cli, ObservabilityFlagsFollowTheUsageConvention) {
  // The run observability flags validate their arguments like every other
  // flag: missing or malformed values are usage errors (exit 2).
  EXPECT_EQ(run_cli("run scenario.json --timeline"), 2);
  EXPECT_EQ(run_cli("run scenario.json --trace-viz"), 2);
  EXPECT_EQ(run_cli("run scenario.json --metrics-interval"), 2);
  EXPECT_EQ(run_cli("run scenario.json --metrics-interval nope"), 2);
  EXPECT_EQ(run_cli("run scenario.json --metrics-interval -2"), 2);
  // --timeline without any sampling interval is contradictory: the file
  // would always be empty, so it is refused up front.
  EXPECT_EQ(run_cli("run " + std::string(PCS_SOURCE_DIR) +
                    "/scenarios/quickstart.json --timeline t.json"),
            2);
}

TEST(Cli, NonFiniteNumbersAreUsageErrors) {
  // std::stod accepts "nan" and "inf"; every numeric flag refuses them (exit
  // 2) instead of running with them.  A nan tolerance would turn the smoke
  // drift gate off, a nan/inf interval would write a null timeline, and a
  // nan/inf time scale would deadlock the replay.  Real inputs make the
  // refusal the only way to exit 2.
  const std::string src = PCS_SOURCE_DIR;
  const std::string smoke = "smoke " + src + "/scenarios " + src + "/BENCH_scenarios.json";
  EXPECT_EQ(run_cli(smoke + " --tolerance nan"), 2);
  EXPECT_EQ(run_cli(smoke + " --tolerance inf"), 2);
  EXPECT_EQ(run_cli(smoke + " --tolerance -1"), 2);
  const std::string run = "run " + src + "/scenarios/quickstart.json --metrics-interval ";
  const std::string timeline = " --timeline " + ::testing::TempDir() + "nonfinite.json";
  EXPECT_EQ(run_cli(run + "nan" + timeline), 2);
  EXPECT_EQ(run_cli(run + "inf" + timeline), 2);
  const std::string replay = "replay " + src + "/scenarios/traces/nighres_run.jsonl --scale ";
  EXPECT_EQ(run_cli(replay + "nan"), 2);
  EXPECT_EQ(run_cli(replay + "inf"), 2);
}

TEST(Cli, ReplayCheckHoldsThroughAnyWindow) {
  // The committed log replays bit-identically through the reader's window,
  // even thrashed down to one workflow; --window takes a positive integer.
  const std::string replay =
      "replay " + std::string(PCS_SOURCE_DIR) + "/scenarios/traces/nighres_run.jsonl";
  EXPECT_EQ(run_cli(replay + " --check"), 0);
  EXPECT_EQ(run_cli(replay + " --window 1 --check"), 0);
  EXPECT_EQ(run_cli(replay + " --window 0"), 2);
}

TEST(Cli, LogLevelIsAGlobalFlag) {
  // --log-level is accepted in any position, validates its level name, and
  // never changes what a command computes.
  EXPECT_EQ(run_cli("--log-level"), 2);
  EXPECT_EQ(run_cli("--log-level loud run scenario.json"), 2);
  EXPECT_EQ(run_cli("--log-level debug frobnicate"), 2);  // command still validated
  const std::string quickstart =
      std::string(PCS_SOURCE_DIR) + "/scenarios/quickstart.json";
  EXPECT_EQ(run_cli("--log-level error run " + quickstart), 0);
  EXPECT_EQ(run_cli("run " + quickstart + " --log-level trace"), 0);
}

TEST(Cli, SweepProgressTickerKeepsReportBytesUnchanged) {
  // --progress is pure observation: the ticker goes to stderr only, so the
  // stdout report bytes are identical with and without it.
  const std::string sweep =
      std::string(PCS_SOURCE_DIR) + "/scenarios/sweeps/fig8_scaling.json";
  const std::string out = ::testing::TempDir();
  EXPECT_EQ(run_cli_raw("sweep " + sweep + " --json > " + out +
                        "plain.json 2>/dev/null"),
            0);
  EXPECT_EQ(run_cli_raw("sweep " + sweep + " --json --progress > " + out +
                        "ticker.json 2> " + out + "ticker.err"),
            0);
  EXPECT_EQ(std::system(("cmp -s " + out + "plain.json " + out + "ticker.json").c_str()), 0);
  // And the ticker actually ticked: one stderr line per finished case.
  EXPECT_EQ(std::system(("grep -q '\\[sweep\\]' " + out + "ticker.err").c_str()), 0);
}

TEST(Cli, RunWritesTimelineAndChromeTrace) {
  const std::string quickstart =
      std::string(PCS_SOURCE_DIR) + "/scenarios/quickstart.json";
  const std::string out = ::testing::TempDir();
  EXPECT_EQ(run_cli("run " + quickstart + " --metrics-interval 2 --timeline " + out +
                    "tl.json --trace-viz " + out + "viz.json"),
            0);
  // Both artifacts parse as JSON and the timeline matches the committed
  // golden bytes (the same invariant obs_test proves in-process).
  EXPECT_EQ(std::system(("cmp -s " + out + "tl.json " + std::string(PCS_SOURCE_DIR) +
                         "/scenarios/timelines/quickstart.timeline.json")
                            .c_str()),
            0);
  EXPECT_EQ(std::system(("grep -q traceEvents " + out + "viz.json").c_str()), 0);
}

}  // namespace
