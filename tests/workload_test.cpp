// The workload generator layer: spec-driven expansion into workflow
// instances with prefixes, arrivals and service bindings.
#include <gtest/gtest.h>

#include <string>

#include "util/units.hpp"
#include "workflow/simulation.hpp"
#include "workload/apps.hpp"
#include "workload/workload.hpp"

namespace pcs::workload {
namespace {

using util::GB;

util::Json obj() { return util::Json{util::JsonObject{}}; }

TEST(Workload, SyntheticExpandsInstancesWithPrefixes) {
  wf::Simulation sim;
  util::Json spec = obj()
                        .set("type", "synthetic")
                        .set("input_size", "3 GB")
                        .set("instances", 3)
                        .set("stagger", 10.0)
                        .set("service", "fast");
  auto instances = build_workload(sim, spec);
  ASSERT_EQ(instances.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(instances[i].arrival, 10.0 * i);
    EXPECT_EQ(instances[i].service, "fast");
    EXPECT_EQ(instances[i].workflow->task_count(), 3u);
    EXPECT_NO_THROW((void)instances[i].workflow->task(instance_prefix(i) + "task1"));
  }
  // Default CPU time comes from the Table I interpolation.
  EXPECT_DOUBLE_EQ(instances[0].workflow->task("a0:task1").flops,
                   synthetic_cpu_seconds(3.0 * GB) * 1e9);
}

TEST(Workload, NighresAndDefaults) {
  wf::Simulation sim;
  auto instances = build_workload(sim, obj().set("type", "nighres"));
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].workflow->task_count(), 4u);
  EXPECT_EQ(instances[0].arrival, 0.0);
  EXPECT_NO_THROW((void)instances[0].workflow->task("a0:skull_stripping"));
}

TEST(Workload, DagPrefixingKeepsSingleInstanceNamesBare) {
  util::Json wf_doc = util::Json::parse(R"json({
    "tasks": [
      {"name": "t1", "cpu_seconds": 1,
       "inputs": [{"name": "in", "size": 1000}],
       "outputs": [{"name": "mid", "size": 1000}]},
      {"name": "t2", "cpu_seconds": 1,
       "inputs": [{"name": "mid", "size": 1000}]}
    ],
    "dependencies": [{"parent": "t1", "child": "t2"}]
  })json");

  wf::Simulation sim;
  auto solo = build_workload(sim, obj().set("type", "dag").set("workflow", wf_doc));
  ASSERT_EQ(solo.size(), 1u);
  EXPECT_NO_THROW((void)solo[0].workflow->task("t1"));

  auto pair = build_workload(sim, obj().set("type", "dag").set("workflow", wf_doc)
                                      .set("instances", 2));
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_NO_THROW((void)pair[1].workflow->task("a1:t2"));
  EXPECT_TRUE(pair[1].workflow->parents_of("a1:t2").count("a1:t1"));
  EXPECT_THROW((void)pair[0].workflow->task("t1"), wf::WorkflowError);
}

TEST(Workload, MultiTenantComposesAndNamespaces) {
  wf::Simulation sim;
  util::Json tenants{util::JsonArray{}};
  tenants.push_back(obj().set("type", "synthetic").set("input_size", "2 GB").set("instances", 2));
  tenants.push_back(obj().set("name", "img").set("type", "nighres").set("arrival", 50.0)
                        .set("service", "slow"));
  auto instances =
      build_workload(sim, obj().set("type", "multi_tenant").set("tenants", tenants));
  ASSERT_EQ(instances.size(), 3u);
  EXPECT_NO_THROW((void)instances[0].workflow->task("t0:a0:task1"));
  EXPECT_NO_THROW((void)instances[2].workflow->task("img:a0:skull_stripping"));
  EXPECT_EQ(instances[2].arrival, 50.0);
  EXPECT_EQ(instances[2].service, "slow");
  EXPECT_EQ(instances[0].service, "");
}

TEST(Workload, RejectsMalformedSpecs) {
  wf::Simulation sim;
  EXPECT_THROW(build_workload(sim, util::Json("x")), WorkloadError);
  EXPECT_THROW(build_workload(sim, obj().set("type", "quantum")), WorkloadError);
  EXPECT_THROW(build_workload(sim, obj().set("instances", 0)), WorkloadError);
  EXPECT_THROW(build_workload(sim, obj().set("arrival", -1.0)), WorkloadError);
  EXPECT_THROW(build_workload(sim, obj().set("type", "synthetic").set("input_size", -1.0)),
               WorkloadError);
  EXPECT_THROW(build_workload(sim, obj().set("type", "dag")), WorkloadError);
  EXPECT_THROW(build_workload(sim, obj().set("type", "multi_tenant")), WorkloadError);
  // trace: needs a file, rejects instances (use load_factor), checks knobs.
  EXPECT_THROW(build_workload(sim, obj().set("type", "trace")), WorkloadError);
  EXPECT_THROW(build_workload(sim, obj().set("type", "trace").set("file", "/nonexistent.jsonl")),
               WorkloadError);
  util::Json trace = obj().set("type", "trace").set("file", "x.jsonl");
  EXPECT_THROW(build_workload(sim, trace.set("instances", 2)), WorkloadError);
  trace = obj().set("type", "trace").set("file", "x.jsonl");
  EXPECT_THROW(build_workload(sim, trace.set("time_scale", 0.0)), WorkloadError);
  trace = obj().set("type", "trace").set("file", "x.jsonl");
  EXPECT_THROW(build_workload(sim, trace.set("load_factor", 0)), WorkloadError);
  trace = obj().set("type", "trace").set("file", "x.jsonl");
  EXPECT_THROW(build_workload(sim, trace.set("start", 10.0).set("end", 5.0)), WorkloadError);
}

TEST(Workload, CountKeysMustBeIntegersThatFit) {
  // A cast would truncate a fraction, and is undefined for a double outside
  // the target type's range, so each bad count is rejected by name.  The
  // trace cases read a real log: only the count key can be at fault.
  wf::Simulation sim;
  const util::Json trace = obj().set("type", "trace").set(
      "file", PCS_SOURCE_DIR "/scenarios/traces/nighres_run.jsonl");
  const util::Json synthetic = obj().set("type", "synthetic").set("input_size", "2 GB");
  struct Case {
    const util::Json* base;
    const char* key;
    double value;
  };
  for (const Case& c : {Case{&trace, "window", -1.0}, Case{&trace, "window", 2.5},
                        Case{&trace, "window", 1e30}, Case{&trace, "load_factor", 1.5},
                        Case{&trace, "load_factor", 0.0}, Case{&trace, "load_factor", 3e9},
                        Case{&synthetic, "instances", 2.5}, Case{&synthetic, "instances", 3e9},
                        Case{&synthetic, "instances", -1.0}}) {
    util::Json spec = *c.base;
    spec.set(c.key, c.value);
    try {
      (void)build_workload(sim, spec);
      ADD_FAILURE() << c.key << " = " << c.value << " was accepted";
    } catch (const WorkloadError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("\"") + c.key + "\""), std::string::npos)
          << e.what();
    }
  }
  // Any integer >= 1 that fits is a valid count.
  util::Json wide = trace;
  wide.set("window", 1e18).set("load_factor", 2);
  EXPECT_EQ(build_workload(sim, wide).size(), 2u);
}

TEST(Workload, BytesFieldAcceptsNumbersAndUnitStrings) {
  util::Json spec = obj().set("a", 1234.0).set("b", "2 GiB");
  EXPECT_DOUBLE_EQ(util::bytes_field_or(spec, "a", 0.0), 1234.0);
  EXPECT_DOUBLE_EQ(util::bytes_field_or(spec, "b", 0.0), 2.0 * util::GiB);
  EXPECT_DOUBLE_EQ(util::bytes_field_or(spec, "missing", 7.0), 7.0);
}

TEST(Workload, MultiTenantHonorsOuterArrivalAndService) {
  wf::Simulation sim;
  util::Json tenants{util::JsonArray{}};
  tenants.push_back(obj().set("type", "synthetic").set("input_size", "2 GB")
                        .set("arrival", 5.0));
  tenants.push_back(obj().set("type", "nighres").set("service", "own"));
  util::Json spec = obj().set("type", "multi_tenant").set("tenants", tenants)
                        .set("arrival", 100.0).set("service", "shared");
  auto instances = build_workload(sim, spec);
  ASSERT_EQ(instances.size(), 2u);
  EXPECT_EQ(instances[0].arrival, 105.0);  // composition offset + tenant arrival
  EXPECT_EQ(instances[0].service, "shared");
  EXPECT_EQ(instances[1].arrival, 100.0);
  EXPECT_EQ(instances[1].service, "own");  // tenant binding wins

  // instances/stagger on the composition are rejected, not ignored.
  EXPECT_THROW(build_workload(sim, obj().set("type", "multi_tenant").set("tenants", tenants)
                                       .set("instances", 2)),
               WorkloadError);
  EXPECT_THROW(build_workload(sim, obj().set("type", "multi_tenant").set("tenants", tenants)
                                       .set("stagger", 1.0)),
               WorkloadError);
}

}  // namespace
}  // namespace pcs::workload
