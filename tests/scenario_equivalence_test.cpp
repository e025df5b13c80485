// The scenario runner's contract with the paper: the nine paper-cluster
// runs of tests/golden/scenario_equivalence.sweep.json — the four
// simulators, local and NFS storage, both workloads, the bandwidth ablation
// — must reproduce the committed golden record BIT-IDENTICALLY: same
// makespan, same per-task timings, same memory profile, same final cache
// state.  Anything weaker would silently change every figure of the paper.
//
// The oracle is tests/golden/scenario_equivalence.json, generated from
// `run_experiment_legacy` — the pre-scenario construction path —
// immediately before that code was deleted (it had soaked a release with
// the live-path comparison green).  Matching the record bit-for-bit
// therefore still pins today's scenario path to the original
// construction.  Each sweep case is labelled with its record's key.  After
// an intentional model change, regenerate with:
//   PCS_UPDATE_GOLDEN=1 ./build/scenario_equivalence_test
// and commit the diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "golden_format.hpp"
#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"

#ifndef PCS_SOURCE_DIR
#define PCS_SOURCE_DIR "."
#endif

namespace pcs::scenario {
namespace {

constexpr const char* kGoldenPath =
    PCS_SOURCE_DIR "/tests/golden/scenario_equivalence.json";
constexpr const char* kSweepPath =
    PCS_SOURCE_DIR "/tests/golden/scenario_equivalence.sweep.json";

const SweepSpec& equivalence_sweep() {
  static const SweepSpec spec = SweepSpec::from_file(kSweepPath);
  return spec;
}

/// Every case of the sweep, run once and keyed by label.  Every label must
/// be a key of the golden file and vice versa (CoversEveryRecord).
const std::map<std::string, SweepCaseResult>& fresh_runs() {
  static const std::map<std::string, SweepCaseResult> runs = [] {
    std::map<std::string, SweepCaseResult> by_label;
    for (SweepCaseResult& run : run_sweep(equivalence_sweep())) {
      by_label.emplace(run.label, std::move(run));
    }
    return by_label;
  }();
  return runs;
}

const util::Json& golden_doc() {
  static const util::Json doc = util::Json::parse_file(kGoldenPath);
  return doc;
}

/// Field-by-field bitwise comparison with task-level attribution (a plain
/// document EXPECT_EQ would drown the interesting divergence).
void expect_matches_golden(const util::Json& golden, const util::Json& fresh) {
  EXPECT_EQ(golden.at("makespan").as_number(), fresh.at("makespan").as_number());

  const util::JsonArray& gt = golden.at("tasks").as_array();
  const util::JsonArray& ft = fresh.at("tasks").as_array();
  ASSERT_EQ(gt.size(), ft.size());
  for (std::size_t i = 0; i < gt.size(); ++i) {
    const std::string& name = gt[i].at("name").as_string();
    EXPECT_EQ(name, ft[i].at("name").as_string());
    for (const char* field :
         {"start", "read_start", "read_end", "compute_end", "write_end", "end"}) {
      EXPECT_EQ(gt[i].at(field).as_number(), ft[i].at(field).as_number())
          << name << "." << field;
    }
  }

  const util::JsonArray& gp = golden.at("profile").as_array();
  const util::JsonArray& fp = fresh.at("profile").as_array();
  ASSERT_EQ(gp.size(), fp.size());
  for (std::size_t i = 0; i < gp.size(); ++i) {
    for (const char* field : {"time", "cached", "dirty", "anonymous", "free"}) {
      EXPECT_EQ(gp[i].at(field).as_number(), fp[i].at(field).as_number())
          << "profile[" << i << "]." << field;
    }
    // Full per-file map: cached bytes moving between files is drift even
    // when every snapshot total stays the same.
    EXPECT_EQ(gp[i].at("per_file"), fp[i].at("per_file")) << "profile[" << i << "].per_file";
  }

  EXPECT_EQ(golden.at("final_state"), fresh.at("final_state"));
}

void expect_case_matches(const std::string& key) {
  ASSERT_TRUE(golden_doc().at("runs").contains(key)) << key;
  const auto run = fresh_runs().find(key);
  ASSERT_NE(run, fresh_runs().end()) << "no sweep case labelled " << key;
  ASSERT_EQ(run->second.error, "") << key;
  expect_matches_golden(golden_doc().at("runs").at(key), test::golden_of(run->second.result));
}

TEST(ScenarioEquivalence, WrenchCacheLocal) { expect_case_matches("wrench_cache_local"); }
TEST(ScenarioEquivalence, WrenchLocal) { expect_case_matches("wrench_local"); }
TEST(ScenarioEquivalence, Reference) { expect_case_matches("reference"); }
TEST(ScenarioEquivalence, Prototype) { expect_case_matches("prototype"); }
TEST(ScenarioEquivalence, WrenchCacheNfs) { expect_case_matches("wrench_cache_nfs"); }
TEST(ScenarioEquivalence, WrenchNfs) { expect_case_matches("wrench_nfs"); }
TEST(ScenarioEquivalence, NighresWorkload) { expect_case_matches("nighres"); }
TEST(ScenarioEquivalence, AblationBandwidthOverride) {
  expect_case_matches("ablation_bandwidth");
}
TEST(ScenarioEquivalence, ColdNfsInputs) { expect_case_matches("cold_nfs_inputs"); }

// Every recorded run has a sweep case and every case a record (stale
// records are drift too).
TEST(ScenarioEquivalence, CoversEveryRecord) {
  for (const auto& [key, value] : golden_doc().at("runs").as_object()) {
    EXPECT_EQ(fresh_runs().count(key), 1u) << "recorded but unknown: " << key;
  }
  EXPECT_EQ(golden_doc().at("runs").size(), fresh_runs().size());
}

// A case's document must survive serialization: dump the effective JSON,
// re-parse it, and still match the golden record.  This is what guarantees
// `pcs_cli run` over a `--dump-effective` spec equals the committed record.
TEST(ScenarioEquivalence, SurvivesJsonRoundTrip) {
  const std::vector<SweepCase> cases = equivalence_sweep().expand();
  const auto local = std::find_if(cases.begin(), cases.end(), [](const SweepCase& c) {
    return c.label == "wrench_cache_local";
  });
  ASSERT_NE(local, cases.end());
  const ScenarioSpec spec = ScenarioSpec::parse(local->doc, equivalence_sweep().base_dir);
  const util::Json dumped = util::Json::parse(spec.to_json().dump(2));
  const RunResult reparsed = run_scenario(ScenarioSpec::parse(dumped));
  expect_matches_golden(golden_doc().at("runs").at("wrench_cache_local"),
                        test::golden_of(reparsed));
}

// PCS_UPDATE_GOLDEN=1 rewrites the record from the current scenario path
// (the only path left); use after intentional model changes and commit the
// diff — CI always runs without the variable.
TEST(ScenarioEquivalence, UpdateGoldenWhenRequested) {
  const char* update = std::getenv("PCS_UPDATE_GOLDEN");
  if (update == nullptr || *update == '\0' || std::string(update) == "0") GTEST_SKIP();
  util::Json runs{util::JsonObject{}};
  for (const auto& [key, run] : fresh_runs()) {
    ASSERT_EQ(run.error, "") << key;
    runs.set(key, test::golden_of(run.result));
  }
  util::Json doc{util::JsonObject{}};
  // Regenerated records pin the scenario path to itself-as-of-now, unlike
  // the original record (generated from the deleted legacy harness) — say
  // so, or the file would claim a provenance it no longer has.
  doc.set("comment",
          "Golden outputs of the scenario path (scenario_equivalence.sweep.json), "
          "regenerated with PCS_UPDATE_GOLDEN=1 after an intentional model change; the "
          "original record was generated from the legacy hand-built harness at its deletion.");
  doc.set("runs", std::move(runs));
  std::ofstream out(kGoldenPath);
  ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
  out << doc.dump(2) << "\n";
}

}  // namespace
}  // namespace pcs::scenario
