// The sweep subsystem: expansion semantics (grid odometer order, labels,
// override paths), the thread-pool runner's determinism — results must be
// BYTE-identical for any --jobs value, each worker owning its private
// Engine — and per-case error capture.  Also the scenario-level batching
// A/B: "solve_batching" is an ordinary sweepable key, and flipping it must
// not change simulated results, only the solve count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"
#include "util/json.hpp"

#ifndef PCS_SOURCE_DIR
#define PCS_SOURCE_DIR "."
#endif

namespace pcs::scenario {
namespace {

constexpr const char* kSmallBase = R"json({
  "simulator": "wrench_cache",
  "platform": {
    "hosts": [
      {"name": "node0", "speed_gflops": 1, "cores": 4, "ram": "2 GB",
       "memory": {"read_bw_MBps": 6860, "write_bw_MBps": 2764},
       "disks": [{"name": "ssd0", "read_bw_MBps": 510, "write_bw_MBps": 420,
                  "capacity": "100 GiB"}]}
    ]
  },
  "services": [{"name": "store", "type": "local", "cache": "writeback"}],
  "workload": {"type": "synthetic", "input_size": "200 MB", "instances": 1},
  "chunk_size": "50 MB"
})json";

util::Json small_base() { return util::Json::parse(kSmallBase); }

SweepSpec small_sweep() {
  util::Json doc{util::JsonObject{}};
  doc.set("name", "small");
  doc.set("base", small_base());
  util::Json axis1{util::JsonObject{}};
  axis1.set("path", "workload.instances");
  axis1.set("values", util::Json{util::JsonArray{}}.push_back(1).push_back(2));
  util::Json axis2{util::JsonObject{}};
  axis2.set("path", "solve_batching");
  axis2.set("values", util::Json{util::JsonArray{}}.push_back(true).push_back(false));
  doc.set("grid", util::Json{util::JsonArray{}}.push_back(std::move(axis1))
                      .push_back(std::move(axis2)));
  return SweepSpec::parse(doc);
}

TEST(SweepExpansion, GridIsRowMajorWithLastAxisFastest) {
  const std::vector<SweepCase> cases = small_sweep().expand();
  ASSERT_EQ(cases.size(), 4u);
  EXPECT_EQ(cases[0].label, "instances=1,solve_batching=true");
  EXPECT_EQ(cases[1].label, "instances=1,solve_batching=false");
  EXPECT_EQ(cases[2].label, "instances=2,solve_batching=true");
  EXPECT_EQ(cases[3].label, "instances=2,solve_batching=false");
  EXPECT_EQ(cases[2].doc.at("workload").at("instances").as_number(), 2.0);
  EXPECT_EQ(cases[3].doc.at("solve_batching").as_bool(), false);
  // The case identity lands in the scenario name.
  EXPECT_EQ(cases[0].doc.at("name").as_string(), "small:instances=1,solve_batching=true");
}

TEST(SweepExpansion, MultiKeyAxesAndExplicitCases) {
  util::Json doc{util::JsonObject{}};
  doc.set("base", small_base());
  util::Json axis{util::JsonObject{}};
  util::Json v0{util::JsonObject{}};
  v0.set("simulator", "wrench").set("services.0.cache", "none");
  util::Json v1{util::JsonObject{}};
  v1.set("simulator", "wrench_cache").set("services.0.cache", "writeback");
  axis.set("values", util::Json{util::JsonArray{}}.push_back(v0).push_back(v1));
  axis.set("labels", util::Json{util::JsonArray{}}.push_back("wrench").push_back("cache"));
  doc.set("grid", util::Json{util::JsonArray{}}.push_back(std::move(axis)));
  util::Json extra{util::JsonObject{}};
  extra.set("label", "tiny_chunk");
  extra.set("overrides", util::Json{util::JsonObject{}}.set("chunk_size", 1e6));
  doc.set("cases", util::Json{util::JsonArray{}}.push_back(std::move(extra)));

  const std::vector<SweepCase> cases = SweepSpec::parse(doc).expand();
  ASSERT_EQ(cases.size(), 3u);
  EXPECT_EQ(cases[0].label, "wrench");
  EXPECT_EQ(cases[0].doc.at("simulator").as_string(), "wrench");
  EXPECT_EQ(cases[0].doc.at("services").at(0).at("cache").as_string(), "none");
  EXPECT_EQ(cases[1].label, "cache");
  EXPECT_EQ(cases[2].label, "tiny_chunk");
  EXPECT_EQ(cases[2].doc.at("chunk_size").as_number(), 1e6);
}

TEST(SweepExpansion, OverridePathSemantics) {
  util::Json doc = small_base();
  // Deep set into an existing object.
  apply_override(doc, "workload.instances", util::Json(7));
  EXPECT_EQ(doc.at("workload").at("instances").as_number(), 7.0);
  // Array index.
  apply_override(doc, "services.0.cache", util::Json("none"));
  EXPECT_EQ(doc.at("services").at(0).at("cache").as_string(), "none");
  // Missing intermediate objects are created.
  apply_override(doc, "cache_params.dirty_ratio", util::Json(0.5));
  EXPECT_EQ(doc.at("cache_params").at("dirty_ratio").as_number(), 0.5);
  // Errors: bad array index, out-of-range index, descent into a scalar.
  EXPECT_THROW(apply_override(doc, "services.x.cache", util::Json(1)), ScenarioError);
  EXPECT_THROW(apply_override(doc, "services.5.cache", util::Json(1)), ScenarioError);
  EXPECT_THROW(apply_override(doc, "chunk_size.nested", util::Json(1)), ScenarioError);
  EXPECT_THROW(apply_override(doc, "", util::Json(1)), ScenarioError);
}

TEST(SweepExpansion, OverrideFailuresNameCaseAndAxis) {
  // A bad dotted path inside a grid must say which expanded case failed
  // (index + label), which axis supplied the path, and the path itself.
  util::Json doc{util::JsonObject{}};
  doc.set("name", "ladder");
  doc.set("base", small_base());
  util::Json good_axis{util::JsonObject{}};
  good_axis.set("path", "workload.instances");
  good_axis.set("values", util::Json{util::JsonArray{}}.push_back(1).push_back(2));
  util::Json bad_axis{util::JsonObject{}};
  bad_axis.set("path", "services.9.cache");  // out-of-range array index
  bad_axis.set("values", util::Json{util::JsonArray{}}.push_back("none"));
  doc.set("grid",
          util::Json{util::JsonArray{}}.push_back(good_axis).push_back(bad_axis));
  try {
    (void)SweepSpec::parse(doc).expand();
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sweep 'ladder'"), std::string::npos) << what;
    EXPECT_NE(what.find("case 0"), std::string::npos) << what;
    EXPECT_NE(what.find("instances=1"), std::string::npos) << what;       // case label
    EXPECT_NE(what.find("axis 1 ('services.9.cache')"), std::string::npos) << what;
    EXPECT_NE(what.find("services.9.cache"), std::string::npos) << what;  // full path
  }

  // Same for an explicit case: index and label, no axis.
  util::Json case_doc{util::JsonObject{}};
  doc.set("grid", util::Json{util::JsonArray{}});
  case_doc.set("label", "broken");
  case_doc.set("overrides",
               util::Json{util::JsonObject{}}.set("chunk_size.nested", 1));
  doc.set("cases", util::Json{util::JsonArray{}}.push_back(case_doc));
  try {
    (void)SweepSpec::parse(doc).expand();
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("case 0 'broken'"), std::string::npos) << what;
    EXPECT_NE(what.find("case override"), std::string::npos) << what;
    EXPECT_NE(what.find("chunk_size.nested"), std::string::npos) << what;
  }
}

TEST(SweepExpansion, DuplicateLabelsAreRejected) {
  util::Json doc{util::JsonObject{}};
  doc.set("base", small_base());
  util::Json case0{util::JsonObject{}};
  case0.set("label", "same");
  case0.set("overrides", util::Json{util::JsonObject{}}.set("chunk_size", 1e6));
  util::Json case1{util::JsonObject{}};
  case1.set("label", "same");
  case1.set("overrides", util::Json{util::JsonObject{}}.set("chunk_size", 2e6));
  doc.set("cases",
          util::Json{util::JsonArray{}}.push_back(std::move(case0)).push_back(std::move(case1)));
  EXPECT_THROW(SweepSpec::parse(doc).expand(), ScenarioError);
}

// The acceptance property: the serialized report is byte-identical for
// --jobs 1, 4 and 8.  Every simulated quantity (makespans, task counts,
// engine counters) must be independent of worker scheduling; wall-clock is
// deliberately excluded from reports.
TEST(SweepRunner, ReportsAreByteIdenticalAcrossJobCounts) {
  const SweepSpec spec = small_sweep();
  const std::string reference =
      sweep_report_json(spec, run_sweep(spec, {.jobs = 1})).dump(2);
  for (int jobs : {4, 8}) {
    const std::string report =
        sweep_report_json(spec, run_sweep(spec, {.jobs = jobs})).dump(2);
    EXPECT_EQ(reference, report) << "jobs=" << jobs;
  }
  const std::string csv_reference = sweep_report_csv(run_sweep(spec, {.jobs = 1}));
  EXPECT_EQ(csv_reference, sweep_report_csv(run_sweep(spec, {.jobs = 8})));
}

// Scenario-level batching A/B, via the sweep itself: flipping
// solve_batching changes the solve count and nothing else.
TEST(SweepRunner, SolveBatchingAblationIsBitIdentical) {
  const std::vector<SweepCaseResult> results = run_sweep(small_sweep(), {.jobs = 2});
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < results.size(); i += 2) {
    const SweepCaseResult& batched = results[i];
    const SweepCaseResult& per_event = results[i + 1];
    ASSERT_TRUE(batched.error.empty()) << batched.error;
    ASSERT_TRUE(per_event.error.empty()) << per_event.error;
    EXPECT_EQ(batched.result.makespan, per_event.result.makespan);  // bitwise
    EXPECT_EQ(batched.result.scheduling_points, per_event.result.scheduling_points);
    ASSERT_EQ(batched.result.tasks.size(), per_event.result.tasks.size());
    for (std::size_t t = 0; t < batched.result.tasks.size(); ++t) {
      EXPECT_EQ(batched.result.tasks[t].end, per_event.result.tasks[t].end);
    }
    EXPECT_LT(batched.result.fair_share_solves, per_event.result.fair_share_solves);
  }
}

TEST(SweepRunner, CaseErrorsAreCapturedNotFatal) {
  util::Json doc{util::JsonObject{}};
  doc.set("base", small_base());
  util::Json good{util::JsonObject{}};
  good.set("label", "good");
  good.set("overrides", util::Json{util::JsonObject{}}.set("workload.instances", 1));
  util::Json bad{util::JsonObject{}};
  bad.set("label", "bad");
  bad.set("overrides", util::Json{util::JsonObject{}}.set("simulator", "no_such_simulator"));
  doc.set("cases",
          util::Json{util::JsonArray{}}.push_back(std::move(good)).push_back(std::move(bad)));

  const std::vector<SweepCaseResult> results = run_sweep(SweepSpec::parse(doc), {.jobs = 4});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].error.empty());
  EXPECT_GT(results[0].result.makespan, 0.0);
  EXPECT_FALSE(results[1].error.empty());
  EXPECT_NE(results[1].error.find("no_such_simulator"), std::string::npos);
}

// The committed Fig 8 ladder parses, expands to the full grid, and keeps
// its platform reference resolvable from the sweep file's directory.
TEST(SweepFiles, Fig8ScalingExpands) {
  const SweepSpec spec =
      SweepSpec::from_file(PCS_SOURCE_DIR "/scenarios/sweeps/fig8_scaling.json");
  EXPECT_EQ(spec.name, "fig8_scaling");
  const std::vector<SweepCase> cases = spec.expand();
  ASSERT_EQ(cases.size(), 18u);
  EXPECT_EQ(cases.front().label, "wrench,instances=1");
  EXPECT_EQ(cases.back().label, "wrench_cache,instances=32");
  // Every case must at least parse into a ScenarioSpec.
  for (const SweepCase& c : cases) {
    EXPECT_NO_THROW(ScenarioSpec::parse(c.doc, spec.base_dir)) << c.label;
  }
}

// The cgroup study as a committed sweep: the makespan rises strictly as the
// memory limit falls, and the 45 GB point is scenarios/cgroup_memory.json
// itself, bit for bit.
TEST(SweepFiles, CgroupMemoryStarvesTheCacheAsTheLimitFalls) {
  const std::vector<SweepCaseResult> results =
      run_sweep(SweepSpec::from_file(PCS_SOURCE_DIR "/scenarios/sweeps/cgroup_memory.json"));
  ASSERT_EQ(results.size(), 7u);
  for (const SweepCaseResult& r : results) ASSERT_EQ(r.error, "") << r.label;
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GT(results[i].result.makespan, results[i - 1].result.makespan) << results[i].label;
  }
  EXPECT_EQ(results[4].label, "45GB");
  EXPECT_EQ(results[4].result.makespan,
            run_scenario_file(PCS_SOURCE_DIR "/scenarios/cgroup_memory.json").makespan);
}

}  // namespace
}  // namespace pcs::scenario
