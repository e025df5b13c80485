// The record→replay closed loop (tracelog/ + the "trace" workload
// generator): recording a run is pure observation, replaying its task log
// on the same platform reproduces the makespan and every per-task phase
// boundary bit-for-bit, and the trace knobs (load_factor, time_scale,
// start/end windowing, remap) open scenario families from one log —
// including through the sweep subsystem.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "tracelog/anonymize.hpp"
#include "tracelog/recorder.hpp"
#include "tracelog/task_log.hpp"
#include "tracelog/task_log_reader.hpp"
#include "workload/workload.hpp"

#ifndef PCS_SOURCE_DIR
#define PCS_SOURCE_DIR "."
#endif

namespace pcs::scenario {
namespace {

util::Json obj() { return util::Json{util::JsonObject{}}; }

util::Json node_platform() {
  return util::Json::parse(R"json({
    "hosts": [
      {"name": "node0", "speed_gflops": 1, "cores": 8, "ram": "32 GB",
       "memory": {"read_bw_MBps": 6860, "write_bw_MBps": 2764},
       "disks": [{"name": "ssd0", "read_bw_MBps": 510, "write_bw_MBps": 420}]}
    ]
  })json");
}

/// A multi-tenant scenario with everything replay has to get right:
/// staggered delayed arrivals, two storage services with different cache
/// params, and heterogeneous workflows.
util::Json multi_tenant_doc() {
  util::Json doc = obj();
  doc.set("name", "mt");
  doc.set("platform", node_platform());
  util::Json svcs{util::JsonArray{}};
  svcs.push_back(obj().set("name", "batch_store").set("type", "local"));
  svcs.push_back(obj()
                     .set("name", "qos_store")
                     .set("type", "local")
                     .set("params", obj().set("dirty_ratio", 0.02)));
  doc.set("services", std::move(svcs));
  doc.set("default_service", "batch_store");
  util::Json tenants{util::JsonArray{}};
  tenants.push_back(obj()
                        .set("name", "batch")
                        .set("type", "synthetic")
                        .set("input_size", "2 GB")
                        .set("instances", 2)
                        .set("stagger", 40.0)
                        .set("service", "batch_store"));
  tenants.push_back(obj()
                        .set("name", "interactive")
                        .set("type", "nighres")
                        .set("arrival", 15.0)
                        .set("service", "qos_store"));
  doc.set("workload", obj().set("type", "multi_tenant").set("tenants", std::move(tenants)));
  return doc;
}

util::Json nighres_doc() {
  util::Json doc = obj();
  doc.set("name", "nighres");
  doc.set("platform", node_platform());
  doc.set("workload", obj().set("type", "nighres").set("instances", 2).set("stagger", 30.0));
  doc.set("chunk_size", "50 MB");
  return doc;
}

/// Unique-ish temp path under the system temp dir (tests may run
/// concurrently from several suites, but not within one binary).
std::string temp_log_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() / ("pcs_trace_" + tag + ".jsonl")).string();
}

void expect_bit_identical(const RunResult& replayed, const RunResult& original) {
  EXPECT_EQ(replayed.makespan, original.makespan);
  ASSERT_EQ(replayed.tasks.size(), original.tasks.size());
  for (const wf::TaskResult& want : original.tasks) {
    const wf::TaskResult& got = replayed.task(want.name);
    EXPECT_EQ(got.start, want.start) << want.name;
    EXPECT_EQ(got.read_start, want.read_start) << want.name;
    EXPECT_EQ(got.read_end, want.read_end) << want.name;
    EXPECT_EQ(got.compute_end, want.compute_end) << want.name;
    EXPECT_EQ(got.write_end, want.write_end) << want.name;
    EXPECT_EQ(got.end, want.end) << want.name;
  }
}

/// Record `doc`, round-trip the log through JSONL on disk, and return the
/// replay scenario (same platform/services, workload swapped for the
/// trace) plus the original's result.
struct ClosedLoop {
  RunResult original;
  tracelog::TaskLog log;
  util::Json replay_doc;
  std::string log_path;
};

ClosedLoop record_to_file(const util::Json& doc, const std::string& tag) {
  ClosedLoop loop;
  ScenarioSpec spec = ScenarioSpec::parse(doc);
  loop.log_path = temp_log_path(tag);
  std::ofstream out(loop.log_path);
  tracelog::TaskLogRecorder recorder(&out, /*keep_in_memory=*/true);
  RunOptions options;
  options.recorder = &recorder;
  loop.original = run_scenario(spec, options);
  out.close();
  loop.log = tracelog::TaskLog::from_file(loop.log_path);
  // The header embeds the effective spec; swapping its workload for the
  // trace is exactly what `pcs_cli replay` does.
  loop.replay_doc = loop.log.source_scenario;
  loop.replay_doc.set("workload", obj().set("type", "trace").set("file", loop.log_path));
  return loop;
}

TEST(TraceReplay, NighresClosedLoopIsBitIdentical) {
  ClosedLoop loop = record_to_file(nighres_doc(), "nighres");
  EXPECT_EQ(loop.log.task_count(), 8u);
  EXPECT_EQ(loop.log.workflows.size(), 2u);
  RunResult replayed = run_scenario(ScenarioSpec::parse(loop.replay_doc));
  expect_bit_identical(replayed, loop.original);
  EXPECT_EQ(loop.log.recorded_makespan, loop.original.makespan);
  std::remove(loop.log_path.c_str());
}

TEST(TraceReplay, MultiTenantClosedLoopIsBitIdentical) {
  ClosedLoop loop = record_to_file(multi_tenant_doc(), "mt");
  EXPECT_EQ(loop.log.workflows.size(), 3u);
  // Delayed arrivals recorded at their actual submission instants.
  bool saw_delayed = false;
  for (const tracelog::TraceWorkflow& wf : loop.log.workflows) {
    if (wf.label == "batch:a1") {
      EXPECT_EQ(wf.submit, 40.0);
      EXPECT_EQ(wf.service, "batch_store");
      saw_delayed = true;
    }
  }
  EXPECT_TRUE(saw_delayed);
  RunResult replayed = run_scenario(ScenarioSpec::parse(loop.replay_doc));
  expect_bit_identical(replayed, loop.original);
  std::remove(loop.log_path.c_str());
}

TEST(TraceReplay, RecordingIsPureObservation) {
  ScenarioSpec spec = ScenarioSpec::parse(multi_tenant_doc());
  RunResult plain = run_scenario(spec);
  tracelog::TaskLogRecorder recorder(nullptr, true);
  RunOptions options;
  options.recorder = &recorder;
  RunResult recorded = run_scenario(spec, options);
  expect_bit_identical(recorded, plain);
  EXPECT_EQ(recorded.fair_share_solves, plain.fair_share_solves);
  EXPECT_EQ(recorded.scheduling_points, plain.scheduling_points);
}

TEST(TraceReplay, LoadFactorClonesTheWholeLog) {
  ClosedLoop loop = record_to_file(nighres_doc(), "load");
  loop.replay_doc.set("workload", obj()
                                      .set("type", "trace")
                                      .set("file", loop.log_path)
                                      .set("load_factor", 2)
                                      .set("stagger", 10.0));
  RunResult doubled = run_scenario(ScenarioSpec::parse(loop.replay_doc));
  EXPECT_EQ(doubled.tasks.size(), 2 * loop.original.tasks.size());
  // Clones are namespaced and staggered, never colliding with each other.
  EXPECT_NO_THROW((void)doubled.task("c0:a0:skull_stripping"));
  EXPECT_NO_THROW((void)doubled.task("c1:a1:skull_stripping"));
  EXPECT_GE(doubled.task("c1:a0:skull_stripping").start, 10.0);
  EXPECT_GE(doubled.makespan, loop.original.makespan);
  std::remove(loop.log_path.c_str());
}

TEST(TraceReplay, TimeScaleStretchesArrivals) {
  ClosedLoop loop = record_to_file(nighres_doc(), "scale");
  loop.replay_doc.set("workload", obj()
                                      .set("type", "trace")
                                      .set("file", loop.log_path)
                                      .set("time_scale", 3.0));
  RunResult stretched = run_scenario(ScenarioSpec::parse(loop.replay_doc));
  // The second instance arrived at 30 s in the recording; ×3 pushes its
  // submission (and hence first task start) to at least 90 s.
  EXPECT_GE(stretched.task("a1:skull_stripping").start, 90.0);
  std::remove(loop.log_path.c_str());
}

TEST(TraceReplay, WindowSelectsSubmitTimeRange) {
  ClosedLoop loop = record_to_file(nighres_doc(), "window");
  // Only the delayed instance (submit 30 s) is inside [10, 100); its
  // arrival is rebased to 20 s.
  loop.replay_doc.set("workload", obj()
                                      .set("type", "trace")
                                      .set("file", loop.log_path)
                                      .set("start", 10.0)
                                      .set("end", 100.0));
  RunResult windowed = run_scenario(ScenarioSpec::parse(loop.replay_doc));
  EXPECT_EQ(windowed.tasks.size(), 4u);
  EXPECT_GE(windowed.task("a1:skull_stripping").start, 20.0);
  EXPECT_THROW((void)windowed.task("a0:skull_stripping"), std::runtime_error);

  // An empty window is a spec error, not a silent no-op run.
  loop.replay_doc.set("workload", obj()
                                      .set("type", "trace")
                                      .set("file", loop.log_path)
                                      .set("start", 500.0)
                                      .set("end", 600.0));
  EXPECT_THROW(run_scenario(ScenarioSpec::parse(loop.replay_doc)),
               workload::WorkloadError);
  std::remove(loop.log_path.c_str());
}

TEST(TraceReplay, RemapRebindsRecordedServices) {
  ClosedLoop loop = record_to_file(multi_tenant_doc(), "remap");
  // Collapse the qos tenant onto the batch store; batch stays put.
  loop.replay_doc.set("workload",
                      obj()
                          .set("type", "trace")
                          .set("file", loop.log_path)
                          .set("remap", obj().set("qos_store", "batch_store")));
  RunResult remapped = run_scenario(ScenarioSpec::parse(loop.replay_doc));
  EXPECT_EQ(remapped.tasks.size(), loop.original.tasks.size());
  // Without the qos store's aggressive flushing, the interactive tenant's
  // writes are absorbed by the default cache parameters.
  EXPECT_LE(remapped.task("interactive:a0:tissue_classification").write_time(),
            loop.original.task("interactive:a0:tissue_classification").write_time());
  std::remove(loop.log_path.c_str());
}

TEST(TraceReplay, SweepDrivesTraceKnobsAsAxes) {
  ClosedLoop loop = record_to_file(nighres_doc(), "sweep");
  SweepSpec sweep;
  sweep.name = "trace_knobs";
  sweep.base = loop.replay_doc;
  SweepSpec::Axis load_axis;
  load_axis.path = "workload.load_factor";
  load_axis.values = {util::Json(1), util::Json(2)};
  SweepSpec::Axis scale_axis;
  scale_axis.path = "workload.time_scale";
  scale_axis.values = {util::Json(1.0), util::Json(0.5)};
  sweep.grid = {load_axis, scale_axis};

  std::vector<SweepCaseResult> results = run_sweep(sweep, {});
  ASSERT_EQ(results.size(), 4u);
  for (const SweepCaseResult& r : results) {
    EXPECT_TRUE(r.error.empty()) << r.label << ": " << r.error;
    EXPECT_GT(r.result.makespan, 0.0) << r.label;
  }
  // The identity case of the sweep is still the bit-exact replay.
  EXPECT_EQ(results[0].result.makespan, loop.original.makespan);
  EXPECT_EQ(results[2].result.tasks.size(), 2 * loop.original.tasks.size());
  std::remove(loop.log_path.c_str());
}

TEST(TraceReplay, CommittedTraceScenarioMatchesItsSource) {
  // The committed example log must stay in sync with the nighres scenario
  // it was recorded from: replaying it reproduces the same makespan.
  RunResult source =
      run_scenario_file(PCS_SOURCE_DIR "/scenarios/nighres.json");
  RunResult replayed =
      run_scenario_file(PCS_SOURCE_DIR "/scenarios/trace_replay.json");
  expect_bit_identical(replayed, source);
}

TEST(TraceReplay, JsonlRoundTripPreservesTheLog) {
  ClosedLoop loop = record_to_file(multi_tenant_doc(), "roundtrip");
  std::ostringstream rewritten;
  loop.log.save(rewritten);
  tracelog::TaskLog again = tracelog::TaskLog::parse_text(rewritten.str());
  EXPECT_TRUE(again.to_json() == loop.log.to_json());
  std::remove(loop.log_path.c_str());
}

// --- Schema v2: disruptions and task attempts ------------------------------

/// A crash-and-retry scenario: one long task killed mid-flight at t = 50,
/// host restarts at 60, second attempt succeeds.
util::Json crash_doc() {
  util::Json doc = obj();
  doc.set("name", "crashy");
  doc.set("platform", node_platform());
  doc.set("workload", util::Json::parse(R"json({
    "type": "dag", "instances": 1,
    "workflow": {"tasks": [{"name": "slow", "cpu_seconds": 100}]}
  })json"));
  doc.set("retry", util::Json::parse(R"json({"max_attempts": 2, "backoff": 0})json"));
  doc.set("events", util::Json::parse(R"json([
    {"type": "host_crash", "time": 50, "host": "node0", "restart_at": 60}
  ])json"));
  return doc;
}

TEST(TraceReplay, FaultyRunRecordsV2AndReplaysBitIdentical) {
  ClosedLoop loop = record_to_file(crash_doc(), "crashy");
  // The log is schema v2: the crash and restart are disruption records, the
  // killed first attempt a task_attempt record, and the completed task
  // carries its attempt count.
  EXPECT_EQ(loop.log.version, 2);
  ASSERT_EQ(loop.log.disruptions.size(), 2u);
  EXPECT_EQ(loop.log.disruptions[0].type, "host_crash");
  EXPECT_DOUBLE_EQ(loop.log.disruptions[0].time, 50.0);
  EXPECT_EQ(loop.log.disruptions[1].type, "host_restart");
  ASSERT_EQ(loop.log.task_attempts.size(), 1u);
  EXPECT_EQ(loop.log.task_attempts[0].name, "slow");
  EXPECT_EQ(loop.log.task_attempts[0].attempt, 1);
  EXPECT_EQ(loop.log.task_attempts[0].outcome, "crashed");
  ASSERT_EQ(loop.log.task_events.size(), 1u);
  EXPECT_EQ(loop.log.task_events[0].attempts, 2);
  // The closed loop holds under failure: the header's scenario re-fires the
  // same events on replay, so the replayed timeline is bit-identical.
  const RunResult replayed = run_scenario(ScenarioSpec::parse(loop.replay_doc));
  expect_bit_identical(replayed, loop.original);
  std::remove(loop.log_path.c_str());
}

TEST(TraceReplay, VersionOneLogsStillParseAndResaveAsVersionOne) {
  // Logs recorded before the fault-injection schema keep parsing, validate
  // clean, and re-save with their original version header — so committed
  // v1 artifacts stay byte-stable.
  tracelog::TaskLog v1 = tracelog::TaskLog::parse_text(
      "{\"rec\":\"header\",\"version\":1}\n"
      "{\"rec\":\"workflow\",\"id\":0,\"label\":\"a\",\"service\":\"\",\"submit\":0}\n"
      "{\"rec\":\"task\",\"wf\":0,\"name\":\"t\",\"flops\":1}\n");
  EXPECT_EQ(v1.version, 1);
  std::ostringstream resaved;
  v1.save(resaved);
  EXPECT_NE(resaved.str().find("\"version\":1"), std::string::npos);
  EXPECT_EQ(resaved.str().find("\"version\":2"), std::string::npos);

  const std::string committed =
      std::string(PCS_SOURCE_DIR) + "/scenarios/traces/nighres_run.jsonl";
  tracelog::TaskLog log = tracelog::TaskLog::from_file(committed);
  EXPECT_EQ(log.version, 1);
  EXPECT_TRUE(log.disruptions.empty());
  EXPECT_TRUE(log.task_attempts.empty());
  // Resaving a v1 log must not promote it: parse(save(log)) is the same
  // log, still version 1, with no v2 sections materializing.
  std::ostringstream bytes;
  log.save(bytes);
  tracelog::TaskLog again = tracelog::TaskLog::parse_text(bytes.str());
  EXPECT_EQ(again.version, 1);
  EXPECT_TRUE(again.to_json() == log.to_json());
}

/// The line number a TraceError names ("task log line N"), 0 for none.
std::size_t error_line(const std::string& what) {
  const std::string tag = "task log line ";
  const std::size_t at = what.find(tag);
  return at == std::string::npos ? 0 : std::stoul(what.substr(at + tag.size()));
}

TEST(TraceReplay, BothReadersRejectMalformedLogsAtTheSameLine) {
  // Each log breaks one rule of the format.  TaskLog::parse_text and
  // TaskLogReader both read through scan_task_log, so both must throw a
  // TraceError that names the offending line (0: no line is at fault) and
  // the rule.
  auto ln = [](const char* record) { return std::string(record) + "\n"; };
  const std::string v1 = ln(R"({"rec":"header","version":1})");
  const std::string v2 = ln(R"({"rec":"header","version":2})");
  const std::string wf0 = ln(R"({"rec":"workflow","id":0,"label":"a","service":"","submit":0})");
  const std::string wf1 = ln(R"({"rec":"workflow","id":1,"label":"b","service":"","submit":0})");
  const std::string task_t = ln(R"({"rec":"task","wf":0,"name":"t","flops":1})");
  const std::string prologue = v2 + wf0 + task_t;
  // A task_done and a task_attempt record for `task`, from `start` to 3.
  auto done = [](const std::string& task, const std::string& start) {
    return R"({"rec":"task_done","name":")" + task + R"(","host":"h","start":)" + start +
           R"(,"read_start":0,"read_end":1,"compute_end":2,"write_end":3,"end":3})" "\n";
  };
  auto attempt = [](const std::string& task, const std::string& number,
                    const std::string& start) {
    return R"({"rec":"task_attempt","name":")" + task + R"(","host":"h","attempt":)" + number +
           R"(,"start":)" + start + R"(,"end":3,"outcome":"crashed"})" "\n";
  };
  struct Case {
    std::string log;
    std::size_t line;
    const char* rule;
  };
  const Case cases[] = {
      {ln(R"({"rec":"summary","makespan":1,"tasks":0})"), 0, "no header record"},
      {v1 + v1, 2, "duplicate header"},
      {ln(R"({"rec":"header","version":99})"), 1, "unsupported task log version 99"},
      {v1 + ln(R"({"rec":"blob"})"), 2, "unknown record type 'blob'"},
      {v1 + ln(R"({"rec":"task",)"), 2, "json parse error"},
      {v1 + ln(R"({"rec":"task","wf":7,"name":"t","flops":1})"), 2, "unknown workflow id 7"},
      {v1 + wf0 + ln(R"({"rec":"task","wf":0,"name":"t"})"), 3, "(task): json: missing key"},
      {v1 + wf0 + wf0, 3, "duplicate workflow id 0"},
      {v1 + ln(R"({"rec":"workflow","id":0,"label":"a","service":"","submit":-1})"), 2,
       "negative submit time"},
      {v1 + wf0 + task_t + task_t, 4, "duplicate task name 't'"},
      {v1 + wf0 + ln(R"({"rec":"task","wf":0,"name":"t","flops":-1})"), 3, "negative flops"},
      {v1 + wf0 +
           ln(R"({"rec":"task","wf":0,"name":"t","flops":1,)"
              R"("outputs":[{"name":"f","size":-1}]})"),
       3, "negative output size"},
      // A dependency outside the workflow is found when its block closes,
      // and reported at the line that declared it.
      {v1 + wf0 + ln(R"({"rec":"task","wf":0,"name":"t","flops":1,"deps":["ghost"]})") +
           ln(R"({"rec":"task","wf":0,"name":"u","flops":1})"),
       3, "dependency 'ghost' is not a task of workflow 'a'"},
      // Task records interleaved with another workflow's.
      {v1 + wf0 + task_t + wf1 + ln(R"({"rec":"task","wf":1,"name":"u","flops":1})") +
           ln(R"({"rec":"task","wf":0,"name":"t2","flops":1})"),
       6, "not contiguous"},
      // A workflow record between another workflow's record and its tasks.
      {v1 + wf0 + wf1 + task_t, 4, "not contiguous"},
      // A task_done before its task's declaration.
      {prologue + done("u", "0") + wf1 + ln(R"({"rec":"task","wf":1,"name":"u","flops":1})"), 4,
       "task_done event for undeclared task 'u'"},
      {prologue + done("t", "5"), 4, "end precedes start"},
      {prologue + ln(R"({"rec":"io","op":"read","file":"f","bytes":-1,"start":0,"end":1})"), 4,
       "negative byte count"},
      {prologue +
           ln(R"({"rec":"io","op":"read","file":"f","bytes":1,"start":0,"end":1,)"
              R"("task":"ghost"})"),
       4, "names undeclared task 'ghost'"},
      {prologue + attempt("ghost", "1", "0"), 4, "task_attempt for undeclared task 'ghost'"},
      // Attempt numbers are 1-based; attempt windows cannot run backwards.
      {prologue + attempt("t", "0", "0"), 4, "attempt must be >= 1"},
      {prologue + attempt("t", "1", "5"), 4, "end precedes start"},
      // Integer fields must be whole, non-negative and fit their type: a
      // cast would truncate 0.2 and 0.7 into duplicate ids, read version
      // 1.9 as 1, and is undefined for -5 or 1e30.
      {v1 + ln(R"({"rec":"workflow","id":0.2,"label":"a","service":"","submit":0})") +
           ln(R"({"rec":"workflow","id":0.7,"label":"b","service":"","submit":0})"),
       2, R"("id" must be an integer)"},
      {v1 + ln(R"({"rec":"workflow","id":-5,"label":"a","service":"","submit":0})"), 2,
       R"("id" must be an integer)"},
      {v1 + ln(R"({"rec":"workflow","id":1e30,"label":"a","service":"","submit":0})"), 2,
       R"("id" must be an integer)"},
      {ln(R"({"rec":"header","version":1.9})"), 1, R"("version" must be an integer)"},
      {v1 + wf0 + ln(R"({"rec":"task","wf":1e30,"name":"t","flops":1})"), 3,
       R"("wf" must be an integer)"},
      {prologue + attempt("t", "1.5", "0"), 4, R"("attempt" must be an integer)"},
      {prologue + attempt("t", "1e30", "0"), 4, R"("attempt" must be an integer)"},
      {prologue +
           ln(R"({"rec":"task_done","name":"t","host":"h","start":0,"read_start":0,)"
              R"("read_end":1,"compute_end":2,"write_end":3,"end":3,"attempts":-1})"),
       4, R"("attempts" must be an integer)"},
      // Disruptions need a type and a non-negative time.
      {prologue + ln(R"({"rec":"disruption","type":"","time":1})"), 4, "empty type"},
      {prologue + ln(R"({"rec":"disruption","type":"host_crash","time":-1})"), 4,
       "negative time"},
  };
  const std::string path = temp_log_path("malformed");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.log);
    {
      std::ofstream out(path);
      out << c.log;
    }
    std::string parsed;
    std::string streamed;
    try {
      (void)tracelog::TaskLog::parse_text(c.log);
    } catch (const tracelog::TraceError& e) {
      parsed = e.what();
    }
    try {
      tracelog::TaskLogReader reader(path);
    } catch (const tracelog::TraceError& e) {
      streamed = e.what();
    }
    ASSERT_FALSE(parsed.empty()) << "TaskLog::parse_text accepted the log";
    ASSERT_FALSE(streamed.empty()) << "TaskLogReader accepted the log";
    EXPECT_EQ(error_line(parsed), c.line) << parsed;
    EXPECT_EQ(error_line(streamed), c.line) << streamed;
    EXPECT_NE(parsed.find(c.rule), std::string::npos) << parsed;
    EXPECT_NE(streamed.find(c.rule), std::string::npos) << streamed;
  }

  // And the well-formed variants pass both readers.
  const std::string good = prologue +
                           ln(R"({"rec":"disruption","type":"host_crash","time":1,"target":"h"})") +
                           attempt("t", "1", "0") + done("t", "0");
  EXPECT_NO_THROW((void)tracelog::TaskLog::parse_text(good));
  {
    std::ofstream out(path);
    out << good;
  }
  EXPECT_NO_THROW(tracelog::TaskLogReader reader(path));
  std::remove(path.c_str());
}

TEST(TraceReplay, BackgroundFlushTrafficIsRecordedAsServiceIo) {
  // A write-heavy cached pipeline: the page-cache flusher must appear in
  // the log as service-attributed "flush" io records with no issuing task —
  // and observing it must not change the simulation (the closed loop stays
  // bit-identical).
  util::Json doc = obj();
  doc.set("name", "flushy");
  doc.set("platform", node_platform());
  doc.set("workload",
          obj().set("type", "synthetic").set("input_size", "8 GB").set("instances", 1));
  ClosedLoop loop = record_to_file(doc, "flush");

  std::size_t flush_records = 0;
  for (const tracelog::TraceIoEvent& event : loop.log.io_events) {
    if (event.op != "flush") continue;
    ++flush_records;
    EXPECT_EQ(event.service, "store");
    EXPECT_TRUE(event.task.empty()) << "flush traffic is service-attributed, not task-issued";
    EXPECT_GT(event.bytes, 0.0);
    EXPECT_GE(event.end, event.start);
  }
  // 8 GB of dirty data against a 32 GB node (dirty_ratio 20% = 6.4 GB)
  // forces demand flushing during the writes.
  EXPECT_GT(flush_records, 0u);

  RunResult replayed = run_scenario(ScenarioSpec::parse(loop.replay_doc));
  expect_bit_identical(replayed, loop.original);
  std::remove(loop.log_path.c_str());
}

TEST(TraceReplay, BurstBufferDrainTrafficIsRecordedAsServiceIo) {
  ScenarioSpec spec = ScenarioSpec::from_file(std::string(PCS_SOURCE_DIR) +
                                              "/scenarios/burst_buffer.json");
  tracelog::TaskLogRecorder recorder(nullptr, /*keep_in_memory=*/true);
  RunOptions options;
  options.recorder = &recorder;
  RunResult recorded = run_scenario(spec, options);
  RunResult unrecorded = run_scenario(spec);
  expect_bit_identical(recorded, unrecorded);

  std::size_t drains = 0;
  for (const tracelog::TraceIoEvent& event : recorder.log().io_events) {
    if (event.op != "drain") continue;
    ++drains;
    EXPECT_EQ(event.service, "bb");
    EXPECT_TRUE(event.task.empty());
    EXPECT_GT(event.bytes, 0.0);
  }
  // One drain record per configured drain file.
  EXPECT_EQ(drains, 8u);
}

TEST(TraceReplay, PerTaskChunkSizeSurvivesTheClosedLoop) {
  // A DAG mixing I/O granularities (the block-merge ablation's pattern):
  // the per-task chunk_size must be recorded and replayed bit-identically.
  util::Json doc = obj();
  doc.set("name", "chunky");
  doc.set("platform", node_platform());
  doc.set("workload", obj().set("type", "dag").set("workflow", util::Json::parse(R"json({
    "tasks": [
      {"name": "cold", "cpu_seconds": 1, "chunk_size": "16 MB",
       "inputs": [{"name": "data", "size": "2 GB"}]},
      {"name": "warm", "cpu_seconds": 1, "chunk_size": "160 MB",
       "inputs": [{"name": "data", "size": "2 GB"}]}
    ],
    "dependencies": [{"parent": "cold", "child": "warm"}]
  })json")));
  ClosedLoop loop = record_to_file(doc, "chunk");
  ASSERT_EQ(loop.log.workflows.size(), 1u);
  EXPECT_EQ(loop.log.workflows[0].tasks[0].chunk_size, 16.0e6);
  EXPECT_EQ(loop.log.workflows[0].tasks[1].chunk_size, 160.0e6);
  RunResult replayed = run_scenario(ScenarioSpec::parse(loop.replay_doc));
  expect_bit_identical(replayed, loop.original);
  std::remove(loop.log_path.c_str());
}

/// The save -> parse round trip: parsing checks every rule of the format.
void expect_parses_after_save(const tracelog::TaskLog& log) {
  std::ostringstream text;
  log.save(text);
  EXPECT_NO_THROW((void)tracelog::TaskLog::parse_text(text.str()));
}

TEST(TraceReplay, AnonymizeStripsNamesAndQuantizesSizes) {
  ClosedLoop loop = record_to_file(nighres_doc(), "anon");
  tracelog::TaskLog anon = loop.log;
  tracelog::anonymize(anon);
  expect_parses_after_save(anon);
  EXPECT_TRUE(anon.anonymized);
  EXPECT_EQ(anon.scenario, "anonymized");

  // Same shape, no original names, quantized sizes.
  ASSERT_EQ(anon.workflows.size(), loop.log.workflows.size());
  EXPECT_EQ(anon.task_count(), loop.log.task_count());
  auto is_power_of_two = [](double v) {
    return v > 0.0 && std::exp2(std::round(std::log2(v))) == v;
  };
  for (const tracelog::TraceWorkflow& wf : anon.workflows) {
    EXPECT_EQ(wf.label, "w" + std::to_string(wf.id));
    for (const tracelog::TraceTaskDecl& task : wf.tasks) {
      EXPECT_EQ(task.name.find("skull"), std::string::npos);
      EXPECT_EQ(task.name.rfind(wf.label + ":t", 0), 0u) << task.name;
      for (const wf::FileSpec& f : task.inputs) {
        EXPECT_EQ(f.name[0], 'f') << f.name;
        EXPECT_TRUE(is_power_of_two(f.size)) << f.size;
      }
    }
  }
  // Timings and structure are untouched: the DAG still replays, and the
  // replay is run-to-run deterministic (bit-identical twice).
  EXPECT_EQ(anon.recorded_makespan, loop.log.recorded_makespan);
  const std::string anon_path = temp_log_path("anon_out");
  anon.save_file(anon_path);
  util::Json replay_doc = anon.source_scenario;
  EXPECT_FALSE(replay_doc.contains("workload"));  // original names scrubbed
  replay_doc.set("workload", obj().set("type", "trace").set("file", anon_path));
  RunResult first = run_scenario(ScenarioSpec::parse(replay_doc));
  RunResult second = run_scenario(ScenarioSpec::parse(replay_doc));
  expect_bit_identical(second, first);
  EXPECT_GT(first.makespan, 0.0);
  // File-derived dependencies survive renaming: the chained pipeline still
  // executes sequentially per instance, so task count matches.
  EXPECT_EQ(first.tasks.size(), loop.original.tasks.size());
  std::remove(loop.log_path.c_str());
  std::remove(anon_path.c_str());
}

TEST(TraceReplay, AnonymizeScrubsFileNamesInsideServiceSpecs) {
  // A burst buffer's drain set names workload files inside the *service*
  // spec; anonymization must route those through the same rename table —
  // otherwise the embedded scenario leaks the names it just stripped, and
  // replay dies in validate_workload_files (no drain target would match
  // the renamed workload).
  ScenarioSpec spec = ScenarioSpec::from_file(std::string(PCS_SOURCE_DIR) +
                                              "/scenarios/burst_buffer.json");
  tracelog::TaskLogRecorder recorder(nullptr, /*keep_in_memory=*/true);
  RunOptions options;
  options.recorder = &recorder;
  run_scenario(spec, options);
  tracelog::TaskLog anon = recorder.log();
  tracelog::anonymize(anon);
  expect_parses_after_save(anon);

  const util::Json& drain_files =
      anon.source_scenario.at("services").at(0).at("drain_files");
  ASSERT_EQ(drain_files.size(), 8u);
  for (const util::Json& name : drain_files.as_array()) {
    EXPECT_EQ(name.as_string().find("file4"), std::string::npos) << name.as_string();
    EXPECT_EQ(name.as_string()[0], 'f');
  }
  // The anonymized log replays: drain targets resolve against the renamed
  // workload files and the burst-buffer run completes.
  const std::string anon_path = temp_log_path("anon_bb");
  anon.save_file(anon_path);
  util::Json replay_doc = anon.source_scenario;
  replay_doc.set("workload", obj().set("type", "trace").set("file", anon_path));
  RunResult replayed = run_scenario(ScenarioSpec::parse(replay_doc));
  EXPECT_GT(replayed.makespan, 0.0);
  EXPECT_EQ(replayed.tasks.size(), 24u);  // 8 instances x 3 tasks
  std::remove(anon_path.c_str());
}

TEST(TraceReplay, QuantizeSizeRoundsUpToPowersOfTwo) {
  EXPECT_EQ(tracelog::quantize_size(0.0), 0.0);
  EXPECT_EQ(tracelog::quantize_size(-5.0), 0.0);
  EXPECT_EQ(tracelog::quantize_size(1.0), 1.0);
  EXPECT_EQ(tracelog::quantize_size(3.0), 4.0);
  EXPECT_EQ(tracelog::quantize_size(1024.0), 1024.0);
  EXPECT_EQ(tracelog::quantize_size(1025.0), 2048.0);
  EXPECT_EQ(tracelog::quantize_size(2.0e9), std::exp2(31.0));
}

TEST(TraceReplay, RecorderGuardsItsLifecycle) {
  tracelog::TaskLogRecorder recorder(nullptr, false);
  EXPECT_THROW(recorder.finish(1.0), tracelog::TraceError);
  recorder.begin("s", "wrench_cache", util::Json{});
  EXPECT_THROW(recorder.begin("s", "wrench_cache", util::Json{}), tracelog::TraceError);
  EXPECT_THROW((void)recorder.log(), tracelog::TraceError);  // stream-only
  recorder.finish(1.0);
  EXPECT_THROW(recorder.finish(1.0), tracelog::TraceError);
}

// --- The reader's bounded window (tracelog::TaskLogReader) -----------------

TEST(TraceStreaming, MultiTenantClosedLoopIsBitIdenticalEvenWithWindowOne) {
  // window 1 is the thrash mode: every workflow() call may evict the only
  // cached declaration, so deferred materialization runs against constant
  // re-parsing — the timings must not notice.
  ClosedLoop loop = record_to_file(multi_tenant_doc(), "stream_mt");
  loop.replay_doc.set("workload", obj()
                                      .set("type", "trace")
                                      .set("file", loop.log_path)
                                      .set("window", 1));
  RunResult streamed = run_scenario(ScenarioSpec::parse(loop.replay_doc));
  expect_bit_identical(streamed, loop.original);
  std::remove(loop.log_path.c_str());
}

TEST(TraceStreaming, LoadFactorClonesMatchTheMultiTenantScenario) {
  // Clones pull the same recorded workflows at staggered virtual times —
  // out-of-order access through a window of one.  The oracle is the
  // scenario that generates the same clones directly: tenant c0 is the
  // recorded nighres pair, tenant c1 the same pair arriving 10 s later.
  ClosedLoop loop = record_to_file(nighres_doc(), "stream_load");
  util::Json generated = loop.replay_doc;
  util::Json tenants{util::JsonArray{}};
  for (const auto& [name, arrival] : {std::pair{"c0", 0.0}, std::pair{"c1", 10.0}}) {
    tenants.push_back(obj()
                          .set("name", name)
                          .set("type", "nighres")
                          .set("instances", 2)
                          .set("stagger", 30.0)
                          .set("arrival", arrival));
  }
  generated.set("workload", obj().set("type", "multi_tenant").set("tenants", std::move(tenants)));
  loop.replay_doc.set("workload", obj()
                                      .set("type", "trace")
                                      .set("file", loop.log_path)
                                      .set("load_factor", 2)
                                      .set("stagger", 10.0)
                                      .set("window", 1));
  RunResult streamed = run_scenario(ScenarioSpec::parse(loop.replay_doc));
  expect_bit_identical(streamed, run_scenario(ScenarioSpec::parse(generated)));
  std::remove(loop.log_path.c_str());
}

TEST(TraceStreaming, CommittedTraceMatchesItsTaskDoneRecords) {
  // What `pcs_cli replay --check` asserts: the replay reproduces the
  // recorded makespan, and every task its task_done record.
  const std::string committed =
      std::string(PCS_SOURCE_DIR) + "/scenarios/traces/nighres_run.jsonl";
  tracelog::TaskLog log = tracelog::TaskLog::from_file(committed);
  util::Json replay_doc = log.source_scenario;
  replay_doc.set("workload", obj().set("type", "trace").set("file", committed));
  RunResult replayed = run_scenario(ScenarioSpec::parse(replay_doc));
  EXPECT_EQ(replayed.makespan, log.recorded_makespan);
  ASSERT_EQ(replayed.tasks.size(), log.task_events.size());
  for (const tracelog::TraceTaskEvent& want : log.task_events) {
    const wf::TaskResult& got = replayed.task(want.name);
    EXPECT_EQ(got.start, want.start) << want.name;
    EXPECT_EQ(got.read_start, want.read_start) << want.name;
    EXPECT_EQ(got.read_end, want.read_end) << want.name;
    EXPECT_EQ(got.compute_end, want.compute_end) << want.name;
    EXPECT_EQ(got.write_end, want.write_end) << want.name;
    EXPECT_EQ(got.end, want.end) << want.name;
  }
}

void expect_same_decl(const tracelog::TraceTaskDecl& got, const tracelog::TraceTaskDecl& want) {
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.flops, want.flops);
  EXPECT_EQ(got.chunk_size, want.chunk_size);
  EXPECT_EQ(got.deps, want.deps);
  ASSERT_EQ(got.inputs.size(), want.inputs.size());
  ASSERT_EQ(got.outputs.size(), want.outputs.size());
  for (std::size_t f = 0; f < want.inputs.size(); ++f) {
    EXPECT_EQ(got.inputs[f].name, want.inputs[f].name);
    EXPECT_EQ(got.inputs[f].size, want.inputs[f].size);
  }
  for (std::size_t f = 0; f < want.outputs.size(); ++f) {
    EXPECT_EQ(got.outputs[f].name, want.outputs[f].name);
    EXPECT_EQ(got.outputs[f].size, want.outputs[f].size);
  }
}

void expect_same_workflow(const tracelog::TraceWorkflow& got,
                          const tracelog::TraceWorkflow& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.label, want.label);
  EXPECT_EQ(got.service, want.service);
  EXPECT_EQ(got.submit, want.submit);
  ASSERT_EQ(got.tasks.size(), want.tasks.size());
  for (std::size_t t = 0; t < want.tasks.size(); ++t) {
    expect_same_decl(got.tasks[t], want.tasks[t]);
  }
}

TEST(TraceStreaming, ReaderPrescanMatchesTheMaterializedSummary) {
  ClosedLoop loop = record_to_file(multi_tenant_doc(), "stream_summary");
  tracelog::TaskLogReader reader(loop.log_path);
  EXPECT_EQ(reader.version(), loop.log.version);
  EXPECT_EQ(reader.scenario(), loop.log.scenario);
  EXPECT_EQ(reader.workflows().size(), loop.log.workflows.size());
  EXPECT_EQ(reader.task_count(), loop.log.task_count());
  EXPECT_EQ(reader.task_event_count(), loop.log.task_events.size());
  EXPECT_EQ(reader.io_event_count(), loop.log.io_events.size());
  EXPECT_EQ(reader.total_read_bytes(), loop.log.total_read_bytes());
  EXPECT_EQ(reader.total_written_bytes(), loop.log.total_written_bytes());
  EXPECT_EQ(reader.first_submit(), loop.log.first_submit());
  EXPECT_EQ(reader.last_task_end(), loop.log.last_task_end());
  EXPECT_EQ(reader.recorded_makespan(), loop.log.recorded_makespan);
  // On-demand loads reproduce the materialized declarations exactly.
  for (std::size_t i = 0; i < loop.log.workflows.size(); ++i) {
    expect_same_workflow(reader.workflow(i), loop.log.workflows[i]);
  }
  std::remove(loop.log_path.c_str());
}

TEST(TraceStreaming, HundredThousandTaskLogStreamsThroughABoundedWindow) {
  // A generated log far bigger than anything this suite records: 25k
  // workflows x 4 chained tasks = 100k declarations plus an event stream.
  // The reader must hold at most `window` parsed workflows at any moment
  // while an exhaustive scan touches all of them.
  constexpr int kWorkflows = 25000;
  const std::string path = temp_log_path("stream_big");
  {
    std::ofstream out(path);
    out << "{\"rec\":\"header\",\"version\":1,\"scenario\":\"big\"}\n";
    for (int k = 0; k < kWorkflows; ++k) {
      const std::string w = "w" + std::to_string(k);
      out << "{\"rec\":\"workflow\",\"id\":" << k << ",\"label\":\"" << w
          << "\",\"service\":\"\",\"submit\":" << k << "}\n";
      for (int t = 0; t < 4; ++t) {
        out << "{\"rec\":\"task\",\"wf\":" << k << ",\"name\":\"" << w << ":t" << t
            << "\",\"flops\":1";
        if (t > 0) out << ",\"deps\":[\"" << w << ":t" << (t - 1) << "\"]";
        out << ",\"inputs\":[{\"name\":\"" << w << ":f" << t << "\",\"size\":1000}]}\n";
      }
      // Interleave an event record per workflow: events must be counted and
      // dropped by the pre-scan, never buffered.
      out << "{\"rec\":\"task_done\",\"name\":\"" << w << ":t0\",\"host\":\"h\","
          << "\"start\":0,\"read_start\":0,\"read_end\":1,\"compute_end\":2,"
          << "\"write_end\":3,\"end\":3}\n";
    }
  }

  constexpr std::size_t kWindow = 32;
  tracelog::TaskLogReader reader(path, kWindow);
  ASSERT_EQ(reader.workflows().size(), static_cast<std::size_t>(kWorkflows));
  EXPECT_EQ(reader.task_count(), 4u * kWorkflows);
  EXPECT_EQ(reader.task_event_count(), static_cast<std::size_t>(kWorkflows));

  // Sequential sweep, then a wrap-around revisit to force evictions.
  for (int k = 0; k < kWorkflows; ++k) {
    const tracelog::TraceWorkflow& wf = reader.workflow(static_cast<std::size_t>(k));
    ASSERT_EQ(wf.tasks.size(), 4u);
    EXPECT_EQ(wf.label, "w" + std::to_string(k));
  }
  EXPECT_EQ(reader.workflow(0).label, "w0");  // evicted long ago: re-parse

  EXPECT_LE(reader.window_peak(), kWindow);
  EXPECT_LE(reader.window_blocks(), kWindow);
  EXPECT_GE(reader.parse_count(), static_cast<std::size_t>(kWorkflows) + 1);
  // The buffered bytes track the window, not the log: far below 1% of the
  // ~12 MB file even with per-entry overhead.
  EXPECT_GT(reader.bytes_buffered(), 0u);
  EXPECT_LT(reader.bytes_buffered(), 100u * 1024u);

  // Spot-check the parsed content against the materialized parse.
  tracelog::TaskLog log = tracelog::TaskLog::from_file(path);
  ASSERT_EQ(log.workflows.size(), static_cast<std::size_t>(kWorkflows));
  for (std::size_t i : {std::size_t{0}, std::size_t{12345}, std::size_t{24999}}) {
    expect_same_workflow(reader.workflow(i), log.workflows[i]);
  }
  std::remove(path.c_str());
}

TEST(TraceStreaming, RunnerExportsWindowGauges) {
  // A replay with metric sampling registers the reader's window gauges;
  // the sampled timeline proves the window stayed bounded while the replay
  // was live.
  ClosedLoop loop = record_to_file(nighres_doc(), "stream_gauges");
  loop.replay_doc.set("workload", obj()
                                      .set("type", "trace")
                                      .set("file", loop.log_path)
                                      .set("window", 1));
  loop.replay_doc.set("metrics", obj().set("interval", 5.0));
  RunResult streamed = run_scenario(ScenarioSpec::parse(loop.replay_doc));
  expect_bit_identical(streamed, loop.original);
  const util::Json& metrics = streamed.timeline.at("metrics");
  ASSERT_TRUE(metrics.contains("alloc/trace_window_workflows"));
  ASSERT_TRUE(metrics.contains("alloc/trace_window_bytes"));
  ASSERT_TRUE(metrics.contains("alloc/arena_bytes"));
  double max_cached = 0.0;
  for (const util::Json& v : metrics.at("alloc/trace_window_workflows").as_array()) {
    max_cached = std::max(max_cached, v.as_number());
  }
  EXPECT_LE(max_cached, 1.0);
  std::remove(loop.log_path.c_str());
}

TEST(TraceReplay, PrototypeSimulatorCannotRecord) {
  util::Json doc = obj();
  doc.set("name", "proto");
  doc.set("simulator", "prototype");
  doc.set("platform", node_platform());
  tracelog::TaskLogRecorder recorder(nullptr, true);
  RunOptions options;
  options.recorder = &recorder;
  EXPECT_THROW(run_scenario(ScenarioSpec::parse(doc), options), ScenarioError);
}

}  // namespace
}  // namespace pcs::scenario
