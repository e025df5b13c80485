// The declarative scenario subsystem: spec parsing/validation/defaults,
// the storage backend registry, the scenario runner on hand-written specs
// (including the promoted burst-buffer and cgroup backends and the
// multi-tenant workload), and the effective-spec dump.
#include <gtest/gtest.h>

#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "storage/service_registry.hpp"
#include "util/units.hpp"

namespace pcs::scenario {
namespace {

using util::GB;
using util::MB;

// A small single-node platform document shared by the local tests.
util::Json node_platform() {
  return util::Json::parse(R"json({
    "hosts": [
      {"name": "node0", "speed_gflops": 1, "cores": 8, "ram": "32 GB",
       "memory": {"read_bw_MBps": 6860, "write_bw_MBps": 2764},
       "disks": [{"name": "ssd0", "read_bw_MBps": 510, "write_bw_MBps": 420}]}
    ]
  })json");
}

// The paper's compute + storage pair with one link, for NFS-shaped tests.
util::Json cluster_platform() {
  return util::Json::parse(R"json({
    "hosts": [
      {"name": "compute0", "speed_gflops": 1, "cores": 32, "ram": "250 GB",
       "memory": {"read_bw_MBps": 4812, "write_bw_MBps": 4812},
       "disks": [{"name": "ssd0", "read_bw_MBps": 465, "write_bw_MBps": 465}]},
      {"name": "storage0", "speed_gflops": 1, "cores": 32, "ram": "250 GB",
       "memory": {"read_bw_MBps": 4812, "write_bw_MBps": 4812},
       "disks": [{"name": "nfs-ssd", "read_bw_MBps": 445, "write_bw_MBps": 445}]}
    ],
    "links": [{"name": "lan", "bw_MBps": 3000}],
    "routes": [{"src": "compute0", "dst": "storage0", "links": ["lan"]}]
  })json");
}

util::Json scenario_doc(util::Json platform) {
  util::Json doc{util::JsonObject{}};
  doc.set("platform", std::move(platform));
  return doc;
}

TEST(ScenarioSpec, DefaultsDeriveFromSimulatorKind) {
  util::Json doc = scenario_doc(node_platform());
  ScenarioSpec spec = ScenarioSpec::parse(doc);
  EXPECT_EQ(spec.simulator, "wrench_cache");
  EXPECT_EQ(spec.compute_host, "node0");
  ASSERT_EQ(spec.services.size(), 1u);
  EXPECT_EQ(spec.services[0].type, "local");
  EXPECT_EQ(spec.services[0].spec.at("cache").as_string(), "writeback");
  EXPECT_EQ(spec.default_service, "store");
  EXPECT_EQ(spec.probe_service, "store");
  EXPECT_FALSE(spec.warm_inputs);

  doc.set("simulator", "wrench");
  EXPECT_EQ(ScenarioSpec::parse(doc).services[0].spec.at("cache").as_string(), "none");
  doc.set("simulator", "reference");
  EXPECT_EQ(ScenarioSpec::parse(doc).services[0].type, "reference");
  doc.set("simulator", "prototype");
  EXPECT_TRUE(ScenarioSpec::parse(doc).services.empty());
}

TEST(ScenarioSpec, RejectsMalformedDocuments) {
  EXPECT_THROW(ScenarioSpec::parse(util::Json{util::JsonObject{}}), ScenarioError);
  EXPECT_THROW(ScenarioSpec::parse(util::Json("nope")), ScenarioError);

  util::Json doc = scenario_doc(node_platform());
  doc.set("simulator", "magic");
  EXPECT_THROW(ScenarioSpec::parse(doc), ScenarioError);

  doc = scenario_doc(node_platform());
  doc.set("chunk_size", -5.0);
  EXPECT_THROW(ScenarioSpec::parse(doc), ScenarioError);

  doc = scenario_doc(node_platform());
  doc.set("default_service", "missing");
  EXPECT_THROW(ScenarioSpec::parse(doc), ScenarioError);

  doc = scenario_doc(node_platform());
  util::Json services{util::JsonArray{}};
  services.push_back(util::Json{util::JsonObject{}}.set("name", "dup").set("type", "local"));
  services.push_back(util::Json{util::JsonObject{}}.set("name", "dup").set("type", "local"));
  doc.set("services", std::move(services));
  EXPECT_THROW(ScenarioSpec::parse(doc), ScenarioError);
}

TEST(ScenarioSpec, EffectiveDumpParsesBack) {
  util::Json doc = scenario_doc(cluster_platform());
  doc.set("name", "roundtrip");
  doc.set("chunk_size", "50 MB");
  doc.set("probe_period", 5.0);
  ScenarioSpec spec = ScenarioSpec::parse(doc);
  ScenarioSpec again = ScenarioSpec::parse(util::Json::parse(spec.to_json().dump(2)));
  EXPECT_EQ(again.name, "roundtrip");
  EXPECT_EQ(again.chunk_size, 50.0 * MB);
  EXPECT_EQ(again.probe_period, 5.0);
  EXPECT_EQ(again.services.size(), spec.services.size());
  EXPECT_EQ(again.default_service, spec.default_service);
}

TEST(ServiceRegistry, KnowsBuiltInBackends) {
  auto& registry = storage::ServiceRegistry::instance();
  for (const char* type : {"local", "nfs", "reference", "burst_buffer", "cgroup_local"}) {
    EXPECT_TRUE(registry.has(type)) << type;
  }
  EXPECT_FALSE(registry.has("tape_robot"));
  EXPECT_GE(registry.types().size(), 5u);
}

TEST(ScenarioRunner, RunsMinimalLocalScenario) {
  util::Json doc = scenario_doc(node_platform());
  doc.set("workload", util::Json{util::JsonObject{}}
                          .set("type", "synthetic")
                          .set("input_size", "2 GB"));
  RunResult result = run_scenario(ScenarioSpec::parse(doc));
  EXPECT_EQ(result.tasks.size(), 3u);
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_GT(result.final_state.cached, 0.0);
}

TEST(ScenarioRunner, UnknownBackendAndServiceFail) {
  util::Json doc = scenario_doc(node_platform());
  util::Json services{util::JsonArray{}};
  services.push_back(util::Json{util::JsonObject{}}.set("name", "s").set("type", "tape_robot"));
  doc.set("services", std::move(services));
  EXPECT_THROW(run_scenario(ScenarioSpec::parse(doc)), storage::StorageError);

  doc = scenario_doc(node_platform());
  doc.set("workload", util::Json{util::JsonObject{}}
                          .set("type", "synthetic")
                          .set("input_size", "1 GB")
                          .set("service", "missing"));
  EXPECT_THROW(run_scenario(ScenarioSpec::parse(doc)), ScenarioError);
}

TEST(ScenarioRunner, CgroupBackendRequiresAndHonorsMemoryLimit) {
  util::Json doc = scenario_doc(node_platform());
  util::Json services{util::JsonArray{}};
  services.push_back(
      util::Json{util::JsonObject{}}.set("name", "store").set("type", "cgroup_local"));
  doc.set("services", services);
  EXPECT_THROW(run_scenario(ScenarioSpec::parse(doc)), storage::StorageError);

  auto makespan_with_limit = [&](const std::string& limit) {
    util::Json limited = scenario_doc(node_platform());
    util::Json svcs{util::JsonArray{}};
    svcs.push_back(util::Json{util::JsonObject{}}
                       .set("name", "store")
                       .set("type", "cgroup_local")
                       .set("memory_limit", limit));
    limited.set("services", std::move(svcs));
    limited.set("workload", util::Json{util::JsonObject{}}
                                .set("type", "synthetic")
                                .set("input_size", "4 GB"));
    return run_scenario(ScenarioSpec::parse(limited)).makespan;
  };
  // Page-cache starvation: a tight cgroup limit costs I/O time.
  EXPECT_GT(makespan_with_limit("6 GB"), makespan_with_limit("30 GB"));
}

TEST(ScenarioRunner, BurstBufferDrainsResultsToTheServer) {
  util::Json doc = scenario_doc(cluster_platform());
  doc.set("name", "bb");
  util::Json target = util::Json{util::JsonObject{}}
                          .set("server_host", "storage0")
                          .set("server_disk", "nfs-ssd");
  util::Json svcs{util::JsonArray{}};
  svcs.push_back(util::Json{util::JsonObject{}}
                     .set("name", "bb")
                     .set("type", "burst_buffer")
                     .set("host", "compute0")
                     .set("disk", "ssd0")
                     .set("target", std::move(target))
                     .set("drain_files", util::Json{util::JsonArray{}}
                                             .push_back("a0:file4")
                                             .push_back("a1:file4")));
  doc.set("services", std::move(svcs));
  doc.set("workload", util::Json{util::JsonObject{}}
                          .set("type", "synthetic")
                          .set("input_size", "2 GB")
                          .set("instances", 2));
  RunResult result = run_scenario(ScenarioSpec::parse(doc));
  EXPECT_EQ(result.tasks.size(), 6u);
  // The drainer held the simulation open until both final outputs were
  // durable, so the makespan covers the staging writes.
  EXPECT_GT(result.makespan, result.tasks.back().end);
}

TEST(ScenarioRunner, BurstBufferToleratesDuplicateDrainEntries) {
  // Regression: a duplicated drain_files entry used to make the drainer's
  // termination count unreachable, hanging the simulation.
  util::Json doc = scenario_doc(cluster_platform());
  util::Json target = util::Json{util::JsonObject{}}
                          .set("server_host", "storage0")
                          .set("server_disk", "nfs-ssd");
  util::Json svcs{util::JsonArray{}};
  svcs.push_back(util::Json{util::JsonObject{}}
                     .set("name", "bb")
                     .set("type", "burst_buffer")
                     .set("host", "compute0")
                     .set("target", std::move(target))
                     .set("drain_files", util::Json{util::JsonArray{}}
                                             .push_back("a0:file4")
                                             .push_back("a0:file4")));
  doc.set("services", std::move(svcs));
  doc.set("workload", util::Json{util::JsonObject{}}
                          .set("type", "synthetic")
                          .set("input_size", "1 GB"));
  RunResult result = run_scenario(ScenarioSpec::parse(doc));
  EXPECT_GT(result.makespan, 0.0);
}

TEST(ScenarioRunner, MultiTenantStaggersArrivals) {
  auto build = [&](double stagger) {
    util::Json doc = scenario_doc(node_platform());
    util::Json tenant_a = util::Json{util::JsonObject{}}
                              .set("name", "alpha")
                              .set("type", "synthetic")
                              .set("input_size", "2 GB")
                              .set("instances", 2)
                              .set("stagger", stagger);
    util::Json tenant_b = util::Json{util::JsonObject{}}
                              .set("name", "beta")
                              .set("type", "nighres")
                              .set("arrival", stagger / 2.0);
    doc.set("workload",
            util::Json{util::JsonObject{}}
                .set("type", "multi_tenant")
                .set("tenants",
                     util::Json{util::JsonArray{}}.push_back(tenant_a).push_back(tenant_b)));
    return run_scenario(ScenarioSpec::parse(doc));
  };
  RunResult together = build(0.0);
  EXPECT_EQ(together.tasks.size(), 2u * 3u + 4u);
  EXPECT_TRUE(together.task("alpha:a1:task1").name == "alpha:a1:task1");
  EXPECT_NO_THROW((void)together.task("beta:a0:skull_stripping"));

  RunResult staggered = build(500.0);
  EXPECT_EQ(staggered.tasks.size(), together.tasks.size());
  // alpha's second instance could not start before its arrival.
  EXPECT_GE(staggered.task("alpha:a1:task1").start, 500.0);
  EXPECT_GE(staggered.task("beta:a0:skull_stripping").start, 250.0);
  EXPECT_GT(staggered.makespan, together.makespan);
}

TEST(ScenarioRunner, PerTenantServicesGetTheirOwnCacheParams) {
  util::Json doc = scenario_doc(node_platform());
  util::Json svcs{util::JsonArray{}};
  svcs.push_back(util::Json{util::JsonObject{}}.set("name", "cached").set("type", "local"));
  svcs.push_back(util::Json{util::JsonObject{}}
                     .set("name", "throttled")
                     .set("type", "local")
                     .set("params", util::Json{util::JsonObject{}}.set("dirty_ratio", 0.01)));
  doc.set("services", std::move(svcs));
  util::Json tenant_fast = util::Json{util::JsonObject{}}
                               .set("name", "fast")
                               .set("type", "synthetic")
                               .set("input_size", "2 GB")
                               .set("service", "cached");
  util::Json tenant_slow = util::Json{util::JsonObject{}}
                               .set("name", "slow")
                               .set("type", "synthetic")
                               .set("input_size", "2 GB")
                               .set("service", "throttled");
  doc.set("workload",
          util::Json{util::JsonObject{}}
              .set("type", "multi_tenant")
              .set("tenants",
                   util::Json{util::JsonArray{}}.push_back(tenant_fast).push_back(tenant_slow)));
  RunResult result = run_scenario(ScenarioSpec::parse(doc));
  // Same pipeline, but the 1% dirty budget forces synchronous flushing on
  // the throttled tenant's writes.
  EXPECT_GT(result.task("slow:a0:task1").write_time(),
            result.task("fast:a0:task1").write_time());
}

TEST(ScenarioRunner, DagWorkloadRunsFromInlineDocument) {
  util::Json doc = scenario_doc(node_platform());
  util::Json wf_doc = util::Json::parse(R"json({
    "tasks": [
      {"name": "ingest", "cpu_seconds": 2,
       "inputs":  [{"name": "raw", "size": "1 GB"}],
       "outputs": [{"name": "clean", "size": "500 MB"}]},
      {"name": "report", "cpu_seconds": 1,
       "inputs":  [{"name": "clean", "size": "500 MB"}],
       "outputs": [{"name": "summary", "size": "10 MB"}]}
    ]
  })json");
  doc.set("workload", util::Json{util::JsonObject{}}
                          .set("type", "dag")
                          .set("workflow", wf_doc)
                          .set("instances", 2));
  RunResult result = run_scenario(ScenarioSpec::parse(doc));
  EXPECT_EQ(result.tasks.size(), 4u);
  EXPECT_NO_THROW((void)result.task("a0:ingest"));
  EXPECT_NO_THROW((void)result.task("a1:report"));
}

// --- Fault injection: events, retry, failure policy -----------------------

/// A one-node scenario with a single long task, for crash tests.
util::Json crash_doc(double cpu_seconds) {
  util::Json doc = scenario_doc(node_platform());
  util::Json wf_doc{util::JsonObject{}};
  util::Json tasks{util::JsonArray{}};
  util::Json t{util::JsonObject{}};
  t.set("name", "slow");
  t.set("cpu_seconds", cpu_seconds);
  tasks.push_back(std::move(t));
  wf_doc.set("tasks", std::move(tasks));
  doc.set("workload", util::Json{util::JsonObject{}}
                          .set("type", "dag")
                          .set("workflow", std::move(wf_doc))
                          .set("instances", 1));
  return doc;
}

TEST(ScenarioSpec, ParsesAndRoundTripsFaultKeys) {
  util::Json doc = scenario_doc(cluster_platform());
  doc.set("services", util::Json::parse(R"json([
    {"type": "local", "name": "store"},
    {"type": "nfs", "name": "share", "host": "compute0", "server_host": "storage0",
     "server_disk": "nfs-ssd"}
  ])json"));
  doc.set("retry", util::Json::parse(R"json({"max_attempts": 3, "backoff": 5})json"));
  doc.set("on_task_failure", "continue");
  doc.set("events", util::Json::parse(R"json([
    {"type": "service_degrade", "time": 10, "service": "share", "factor": 0.5},
    {"type": "host_crash", "time": 20, "host": "compute0", "restart_at": 30},
    {"type": "service_restore", "time": 40, "service": "share"},
    {"type": "service_add", "time": 50, "service": {"name": "extra", "type": "local"}},
    {"type": "tenant_arrival", "time": 60, "prefix": "late:",
     "workload": {"type": "synthetic", "instances": 1}},
    {"type": "service_remove", "time": 70, "service": "extra"}
  ])json"));
  const ScenarioSpec spec = ScenarioSpec::parse(doc);
  EXPECT_TRUE(spec.has_retry);
  EXPECT_EQ(spec.retry.max_attempts, 3);
  EXPECT_DOUBLE_EQ(spec.retry.backoff, 5.0);
  EXPECT_EQ(spec.on_task_failure, "continue");
  ASSERT_EQ(spec.events.size(), 6u);
  EXPECT_EQ(spec.events[1].type, "host_crash");
  EXPECT_DOUBLE_EQ(spec.events[1].restart_at, 30.0);
  EXPECT_EQ(spec.events[3].service, "extra");
  EXPECT_EQ(spec.events[4].prefix, "late:");
  // The effective dump parses back to the same effective dump (the
  // stability that keeps recorded logs replayable from their header).
  const util::Json dump = spec.to_json();
  EXPECT_EQ(ScenarioSpec::parse(dump).to_json().dump(), dump.dump());
}

TEST(ScenarioSpec, OmitsFaultKeysWhenUnused) {
  // v1 recorded logs embed the effective spec; a fault-free scenario must
  // not grow new keys.
  const util::Json dump = ScenarioSpec::parse(scenario_doc(node_platform())).to_json();
  EXPECT_FALSE(dump.contains("retry"));
  EXPECT_FALSE(dump.contains("on_task_failure"));
  EXPECT_FALSE(dump.contains("events"));
}

TEST(ScenarioSpec, RejectsMalformedFaultKeys) {
  auto with = [](const char* key, const std::string& json) {
    util::Json doc{util::JsonObject{}};
    doc.set("platform", util::Json::parse(R"json({"hosts": [
      {"name": "node0", "speed_gflops": 1, "cores": 8, "ram": "32 GB",
       "memory": {"read_bw_MBps": 100, "write_bw_MBps": 100},
       "disks": [{"name": "d", "read_bw_MBps": 10, "write_bw_MBps": 10}]}
    ]})json"));
    doc.set(key, util::Json::parse(json));
    return doc;
  };
  EXPECT_THROW(ScenarioSpec::parse(with("retry", R"({"max_attempts": 0})")), ScenarioError);
  EXPECT_THROW(ScenarioSpec::parse(with("retry", R"({"backoff": -1})")), ScenarioError);
  EXPECT_THROW(ScenarioSpec::parse(with("on_task_failure", R"("retry")")), ScenarioError);
  EXPECT_THROW(ScenarioSpec::parse(with("events", R"([{"type": "meteor", "time": 1}])")),
               ScenarioError);
  EXPECT_THROW(ScenarioSpec::parse(
                   with("events", R"([{"type": "host_crash", "time": 1, "host": "nope"}])")),
               ScenarioError);
  EXPECT_THROW(
      ScenarioSpec::parse(with("events", R"([{"type": "host_crash", "time": 5,
                                              "host": "node0", "restart_at": 5}])")),
      ScenarioError);
  EXPECT_THROW(ScenarioSpec::parse(with("events", R"([{"type": "service_degrade", "time": 1,
                                                       "service": "store", "factor": 1.5}])")),
               ScenarioError);
  EXPECT_THROW(ScenarioSpec::parse(with("events", R"([{"type": "service_degrade", "time": 1,
                                                       "service": "ghost", "factor": 0.5}])")),
               ScenarioError);
  // The default service cannot be removed; unknown prefix-less tenants fail.
  EXPECT_THROW(ScenarioSpec::parse(with("events", R"([{"type": "service_remove", "time": 1,
                                                       "service": "store"}])")),
               ScenarioError);
  EXPECT_THROW(ScenarioSpec::parse(
                   with("events", R"([{"type": "tenant_arrival", "time": 1,
                                       "workload": {"type": "synthetic"}}])")),
               ScenarioError);
}

TEST(ScenarioRunner, HostCrashWithRetryRecovers) {
  util::Json doc = crash_doc(100.0);
  doc.set("retry", util::Json::parse(R"json({"max_attempts": 2, "backoff": 0})json"));
  doc.set("events", util::Json::parse(R"json([
    {"type": "host_crash", "time": 50, "host": "node0", "restart_at": 60}
  ])json"));
  const ScenarioSpec spec = ScenarioSpec::parse(doc);
  const RunResult result = run_scenario(spec);
  // Attempt 1 dies at 50; attempt 2 restarts from scratch at 60.
  ASSERT_EQ(result.tasks.size(), 1u);
  EXPECT_EQ(result.tasks[0].attempts, 2);
  ASSERT_EQ(result.tasks[0].retries.size(), 1u);
  EXPECT_DOUBLE_EQ(result.tasks[0].retries[0].end, 50.0);
  EXPECT_EQ(result.retried_tasks, 1u);
  EXPECT_EQ(result.disruptions_fired, 2u);  // crash + restart
  EXPECT_TRUE(result.failed.empty());
  EXPECT_GT(result.makespan, 155.0);  // > restart + full rerun
  // Determinism under failure: a second run is bit-identical.
  EXPECT_EQ(run_scenario(spec).makespan, result.makespan);
}

TEST(ScenarioRunner, OnTaskFailureFailRaisesWithRootCause) {
  util::Json doc = crash_doc(100.0);  // default retry: one attempt
  doc.set("events", util::Json::parse(R"json([
    {"type": "host_crash", "time": 50, "host": "node0", "restart_at": 60}
  ])json"));
  try {
    run_scenario(ScenarioSpec::parse(doc));
    FAIL() << "expected a permanent-failure error";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("'slow'"), std::string::npos) << e.what();
  }
}

TEST(ScenarioRunner, OnTaskFailureContinueYieldsPartialResult) {
  util::Json doc = scenario_doc(node_platform());
  doc.set("workload", util::Json::parse(R"json({
    "type": "dag", "instances": 1,
    "workflow": {"tasks": [
      {"name": "quick", "cpu_seconds": 5},
      {"name": "slow", "cpu_seconds": 100}
    ]}
  })json"));
  doc.set("on_task_failure", "continue");
  doc.set("events", util::Json::parse(R"json([
    {"type": "host_crash", "time": 50, "host": "node0"}
  ])json"));
  const RunResult result = run_scenario(ScenarioSpec::parse(doc));
  // "quick" finished before the crash; "slow" died with no attempts left
  // and no restart ever came.
  ASSERT_EQ(result.tasks.size(), 1u);
  EXPECT_EQ(result.tasks[0].name, "quick");
  ASSERT_EQ(result.failed.size(), 1u);
  EXPECT_EQ(result.failed[0].name, "slow");
  EXPECT_EQ(result.failed[0].attempts, 1);
  EXPECT_EQ(result.disruptions_fired, 1u);
}

TEST(ScenarioRunner, FailedRunLeavesTheProcessReusable) {
  // Error-path hygiene: a run that throws (fail-fast crash with no retry)
  // must not wedge the process — the next scenario runs normally.
  util::Json bad = crash_doc(100.0);
  bad.set("events", util::Json::parse(R"json([
    {"type": "host_crash", "time": 50, "host": "node0", "restart_at": 60}
  ])json"));
  EXPECT_THROW(run_scenario(ScenarioSpec::parse(bad)), std::exception);
  // A spec that fails during *setup* (unknown backend) as well.
  util::Json worse = scenario_doc(node_platform());
  worse.set("services",
            util::Json::parse(R"json([{"type": "antigravity", "name": "s"}])json"));
  EXPECT_THROW(run_scenario(ScenarioSpec::parse(worse)), std::exception);
  const RunResult ok = run_scenario(ScenarioSpec::parse(crash_doc(10.0)));
  EXPECT_EQ(ok.tasks.size(), 1u);
  EXPECT_TRUE(ok.failed.empty());
}

}  // namespace
}  // namespace pcs::scenario
