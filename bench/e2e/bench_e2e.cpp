// bench_e2e: the repository's end-to-end benchmark.
//
// Runs the workloads users run — the committed paper suite, and seeded
// page-cache, cacheless, NFS and record/replay workloads — each in a fresh
// child process (fork + wait4, so peak RSS is the workload's own), checks
// every case against an oracle, and prints every end-to-end metric by name
// with its unit.  A traced run adds the per-layer split.  The harness only
// calls the library's public functions and reads public result fields; it
// adds no instrumentation to the simulator.  bench/e2e/README.md defines
// every metric and workload.
//
// Usage, from the repository root:
//   bench_e2e [--workload W]... [--seed S] [--repeats N] [--seconds T]
//             [--out results.json] [--traced trace.json | --trace 0|1]
//   bench_e2e --compare BASE.json NEW.json
//   bench_e2e --self-test
//   bench_e2e --update-fingerprints
#include <malloc.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "metrics/experiment.hpp"
#include "obs/profiler.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "tracelog/recorder.hpp"
#include "tracelog/task_log_reader.hpp"
#include "workloads.hpp"

#ifndef PCS_E2E_BUILD_TYPE
#define PCS_E2E_BUILD_TYPE "unknown"
#endif
#ifndef PCS_E2E_COMPILER
#define PCS_E2E_COMPILER "unknown"
#endif

namespace e2e {
namespace {

namespace fs = std::filesystem;
using pcs::scenario::RunOptions;
using pcs::scenario::RunResult;
using pcs::scenario::ScenarioSpec;

constexpr const char* kFingerprintsPath = "bench/e2e/fingerprints.json";
constexpr const char* kTempDir = ".bench_tmp";
/// The child writes its records to this descriptor, a pipe to the parent.
constexpr int kReportFd = 3;
/// Set-up is repeated this many times per run and reported as the median.
constexpr int kSetupRepeats = 11;
/// Virtual-time gauge period injected into traced runs.
constexpr double kTracedMetricsInterval = 10.0;

// --- metric table --------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;
};

/// The end-to-end metrics BENCHMARK.json bounds (printed for --trace 0).
const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"tasks_per_s", "tasks/s", "higher"}, {"case_ms.p50", "ms", "lower"},
      {"case_ms.p90", "ms", "lower"},       {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return defs;
}

/// Reported beside the end-to-end metrics but not bounded: failed_frac is 0
/// on every correct run (the contract line's failed/attempted carry it);
/// cases and passes are the sample counts behind the percentiles and the
/// throughput median.
const std::vector<MetricDef>& companion_metrics() {
  static const std::vector<MetricDef> defs = {
      {"failed_frac", "ratio", "lower"}, {"cases", "count", "higher"},
      {"passes", "count", "higher"},     {"sim_error_pct", "%", "lower"},
  };
  return defs;
}

/// Per-layer metrics of a traced run, per traced pass.
const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"scenario.parse_s", "s", "lower"},
      {"scenario.expand_s", "s", "lower"},
      {"scenario.run_s", "s", "lower"},
      {"scenario.cases", "count", "higher"},
      {"harness.generate_s", "s", "lower"},
      {"simcore.scheduling_points", "count", "lower"},
      {"simcore.fair_share_solves", "count", "lower"},
      {"simcore.components_solved", "count", "lower"},
      {"simcore.us_per_point", "us", "lower"},
      {"simcore.recompute_s", "s", "lower"},
      {"simcore.bfs_s", "s", "lower"},
      {"simcore.solve_s", "s", "lower"},
      {"simcore.merge_s", "s", "lower"},
      {"simcore.dispatch_s", "s", "lower"},
      {"simcore.other_s", "s", "lower"},
      {"pagecache.final_blocks", "count", "lower"},
      {"pagecache.hit_bytes", "bytes", "higher"},
      {"pagecache.miss_bytes", "bytes", "lower"},
      {"pagecache.evicted_bytes", "bytes", "lower"},
      {"pagecache.flushed_bytes", "bytes", "lower"},
      {"pagecache.hit_ratio", "ratio", "higher"},
      {"pagecache.overhead_x", "ratio", "lower"},
      {"storage.read_bytes", "bytes", "lower"},
      {"storage.write_bytes", "bytes", "lower"},
      {"tracelog.record_s", "s", "lower"},
      {"tracelog.parse_s", "s", "lower"},
      {"tracelog.log_bytes", "bytes", "lower"},
      {"tracelog.records", "count", "lower"},
      {"tracelog.window_peak", "count", "lower"},
      {"metrics.eval_s", "s", "lower"},
      {"metrics.emit_s", "s", "lower"},
      {"sim_error_pct", "%", "lower"},
      {"obs.sampler_diverged", "count", "lower"},
      {"unattributed_s", "s", "lower"},
      {"trace.overhead_s", "s", "lower"},
  };
  return defs;
}

const MetricDef* find_metric(const std::string& name) {
  for (const auto* table : {&end_to_end_metrics(), &companion_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *table) {
      if (d.name == name) return &d;
    }
  }
  return nullptr;
}

// --- inputs ----------------------------------------------------------------------

/// One run, as the parent passes it to the child's command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool traced = false;
  bool small = false;  ///< self-test size
  /// Oracle file of committed fingerprints and task counts; "" = none.
  std::string fingerprints = kFingerprintsPath;
  // Loaded from `fingerprints` by the child:
  /// Committed fingerprint per case index ("" = none committed).
  std::vector<std::string> expected_fps;
  /// paper_suite: committed task counts by experiment path.
  Json paper_tasks{JsonObject{}};
};

/// One case, parsed and ready to run.
struct Prepared {
  enum class Kind { Experiment, Scenario, RecordReplay };
  Kind kind = Kind::Scenario;
  std::string id;                            ///< committed file path or sweep label
  pcs::metrics::ExperimentSpec experiment;   ///< Experiment
  ScenarioSpec spec;                         ///< Scenario, RecordReplay
  Json doc;                                  ///< generated document (twins derive from it)
  std::string expected_report;               ///< Experiment: committed report bytes
  double expected_makespan = -1.0;           ///< committed scenario makespan; < 0 = none
  std::uint64_t tasks = 0;                   ///< tasks one run of the case completes
  std::string expected_fp;                   ///< committed fingerprint; "" = none
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The committed experiment or scenario files of paper_suite, sorted.
std::vector<std::string> committed_specs(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && entry.path().extension() == ".json" &&
        name.find(".expected.") == std::string::npos) {
      out.push_back(dir + "/" + name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The self-test's shrunken paper_suite: the cheapest experiment and two
/// small scenarios, still checked byte for byte.
bool in_small_suite(const std::string& path) {
  return path == "experiments/table1.json" || path == "scenarios/quickstart.json" ||
         path == "scenarios/demo.json";
}

std::vector<Prepared> setup_paper(const RunConfig& cfg, Tracer* tracer) {
  std::vector<Prepared> cases;
  Json recorded;
  {
    Scope s(tracer, "harness.generate");
    for (const std::string& path : committed_specs("experiments")) {
      if (cfg.small && !in_small_suite(path)) continue;
      Prepared c;
      c.kind = Prepared::Kind::Experiment;
      c.id = path;
      c.expected_report =
          read_file(pcs::metrics::ExperimentSpec::expected_path_for(path));
      if (cfg.paper_tasks.contains(path)) {
        c.tasks = static_cast<std::uint64_t>(cfg.paper_tasks.at(path).as_number());
      }
      cases.push_back(std::move(c));
    }
    recorded = Json::parse_file("BENCH_scenarios.json").at("scenarios");
    for (const std::string& path : committed_specs("scenarios")) {
      if (cfg.small && !in_small_suite(path)) continue;
      Prepared c;
      c.kind = Prepared::Kind::Scenario;
      c.id = path;
      const std::string stem = fs::path(path).stem().string();
      if (recorded.contains(stem)) c.expected_makespan = recorded.at(stem).as_number();
      cases.push_back(std::move(c));
    }
  }
  for (Prepared& c : cases) {
    if (c.kind == Prepared::Kind::Experiment) {
      {
        Scope s(tracer, "scenario.parse");
        c.experiment = pcs::metrics::ExperimentSpec::from_file(c.id);
      }
      Scope s(tracer, "scenario.expand");
      (void)c.experiment.sweep.expand();
    } else {
      Scope s(tracer, "scenario.parse");
      c.spec = ScenarioSpec::from_file(c.id);
    }
  }
  return cases;
}

std::vector<Prepared> setup_generated(const RunConfig& cfg, Tracer* tracer) {
  Json sweep_doc;
  {
    Scope s(tracer, "harness.generate");
    sweep_doc = generate_sweep(cfg.workload, cfg.seed, cfg.small);
  }
  pcs::scenario::SweepSpec sweep;
  {
    Scope s(tracer, "scenario.parse");
    sweep = pcs::scenario::SweepSpec::parse(sweep_doc);
  }
  std::vector<pcs::scenario::SweepCase> expanded;
  {
    Scope s(tracer, "scenario.expand");
    expanded = sweep.expand();
  }
  std::vector<Prepared> cases(expanded.size());
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    Prepared& c = cases[i];
    c.kind = cfg.workload == "trace_replay" ? Prepared::Kind::RecordReplay
                                            : Prepared::Kind::Scenario;
    c.id = expanded[i].label;
    c.doc = std::move(expanded[i].doc);
    c.tasks = expected_tasks(c.doc.at("workload"));
    if (i < cfg.expected_fps.size()) c.expected_fp = cfg.expected_fps[i];
    Scope s(tracer, "scenario.parse");
    c.spec = ScenarioSpec::parse(c.doc);
  }
  return cases;
}

/// Input generation, parse and sweep expansion: what setup_s measures.
std::vector<Prepared> setup(const RunConfig& cfg, Tracer* tracer) {
  Scope s(tracer, "setup");
  return cfg.workload == "paper_suite" ? setup_paper(cfg, tracer)
                                       : setup_generated(cfg, tracer);
}

// --- running one case ----------------------------------------------------------

struct CaseResult {
  bool ok = true;
  std::string error;
  double ms = 0.0;  ///< host latency of the case
  std::uint64_t tasks = 0;
  std::string fp;
  /// Simulated engine counters and final cache size, summed over the
  /// case's scenario runs (zero for experiments, whose runs are internal).
  std::uint64_t scenario_runs = 0;
  std::uint64_t points = 0;
  std::uint64_t solves = 0;
  std::uint64_t components = 0;
  std::uint64_t final_blocks = 0;
  double run_wall = 0.0;   ///< summed RunResult::wall_seconds
  double record_s = 0.0;   ///< record/replay: wall of the recording run
  double sim_error = -1.0; ///< fig4a/fig6: wrench_cache mean_err_pct

  void fail(const std::string& why) {
    if (ok) error = why;
    ok = false;
  }
  void absorb_counts(const RunResult& r) {
    ++scenario_runs;
    points += r.scheduling_points;
    solves += r.fair_share_solves;
    components += r.components_solved;
    final_blocks += r.final_inactive_blocks + r.final_active_blocks;
    run_wall += r.wall_seconds;
  }
};

/// Accumulators of one traced pass.
struct TracedPass {
  Tracer* tracer = nullptr;
  pcs::obs::EngineProfile profile;
  /// The untraced pass's results, index-aligned with the cases.
  const std::vector<CaseResult>* untraced = nullptr;
  std::map<std::string, double> gauges;  ///< summed final gauge values by suffix
  double window_peak = 0.0;
  double record_s = 0.0;
  double eval_s = 0.0;
  double log_bytes = 0.0;
  double records = 0.0;
  std::vector<double> overhead_ratios;
  double sampler_diverged = 0.0;  ///< gauge twins whose fingerprint moved
  /// Counters of the experiments' profile-only twins (the untraced pass
  /// cannot see inside run_experiment).
  CaseResult twin_counts;
};

bool engine_backed(const ScenarioSpec& spec) { return spec.simulator != "prototype"; }

/// Run a scenario; traced runs attach the engine profile (pure observation)
/// under a scenario.run span.
RunResult run_spec(const ScenarioSpec& spec, TracedPass* tp,
                   pcs::tracelog::TaskLogRecorder* recorder = nullptr) {
  RunOptions options;
  options.recorder = recorder;
  if (tp == nullptr) return pcs::scenario::run_scenario(spec, options);
  if (engine_backed(spec)) options.profile = &tp->profile;
  Scope s(tp->tracer, "scenario.run");
  return pcs::scenario::run_scenario(spec, options);
}

/// Twin of a run with the gauge sampler on, for the final page-cache,
/// storage and trace-window gauges.  The sampler's timer events can move
/// simulated times, so the twin is compared with the unsampled run
/// (`unsampled_fp`) and counted when it diverges instead of failing the case.
void run_gauge_twin(const ScenarioSpec& spec, const std::string& unsampled_fp, TracedPass* tp) {
  if (!engine_backed(spec)) return;
  ScenarioSpec sampled = spec;
  if (sampled.metrics_interval <= 0.0) sampled.metrics_interval = kTracedMetricsInterval;
  RunResult r;
  {
    Scope s(tp->tracer, "twin.gauges");
    r = pcs::scenario::run_scenario(sampled);
  }
  if (fingerprint(r) != unsampled_fp) ++tp->sampler_diverged;
  for (const auto& [name, series] : r.timeline.at("metrics").as_object()) {
    if (series.size() == 0) continue;
    if (name == "alloc/trace_window_workflows") {
      for (const Json& v : series.as_array()) {
        tp->window_peak = std::max(tp->window_peak, v.as_number());
      }
    } else if (name.rfind("alloc/", 0) != 0 && name.rfind("engine/", 0) != 0 &&
               name.rfind("tasks/", 0) != 0) {
      tp->gauges[name.substr(name.find('/') + 1)] += series.at(series.size() - 1).as_number();
    }
  }
}

/// Invariants every generated run must satisfy, whatever the seed.
void check_run(const RunResult& r, std::size_t want_tasks, CaseResult& out,
               const std::string& what) {
  if (!r.failed.empty()) out.fail(what + ": " + std::to_string(r.failed.size()) + " tasks failed");
  if (r.tasks.size() != want_tasks) {
    out.fail(what + ": " + std::to_string(r.tasks.size()) + " tasks completed, want " +
             std::to_string(want_tasks));
  }
  if (!(r.makespan > 0.0) || !std::isfinite(r.makespan)) out.fail(what + ": bad makespan");
  for (const pcs::wf::TaskResult& t : r.tasks) {
    if (!(t.start <= t.read_start && t.read_start <= t.read_end && t.read_end <= t.compute_end &&
          t.compute_end <= t.write_end && t.write_end <= t.end && t.end <= r.makespan)) {
      out.fail(what + ": task '" + t.name + "' has out-of-order phase boundaries");
      return;
    }
  }
}

std::string temp_log_path() {
  return std::string(kTempDir) + "/trace-" + std::to_string(::getpid()) + ".jsonl";
}

/// Runs the case's document without its page cache; returns the run's wall
/// seconds, the denominator of pagecache.overhead_x.
double run_cacheless_twin(const Prepared& c, Tracer* tracer) {
  ScenarioSpec spec;
  {
    Scope s(tracer, "scenario.parse");
    spec = ScenarioSpec::parse(cacheless_twin(c.doc));
  }
  Scope s(tracer, "twin.cacheless");
  (void)pcs::scenario::run_scenario(spec);
  return s.close();
}

void run_experiment_case(Prepared& c, CaseResult& out, TracedPass* tp) {
  Tracer* tracer = tp != nullptr ? tp->tracer : nullptr;
  const auto t0 = Clock::now();
  pcs::metrics::ExperimentReport report;
  double experiment_s = 0.0;
  {
    Scope s(tracer, "metrics.run_experiment");
    report = pcs::metrics::run_experiment(c.experiment);
    experiment_s = s.close();
  }
  std::string text;
  {
    Scope s(tracer, "metrics.emit");
    text = report.json.dump(2) + "\n";
  }
  out.ms = 1e3 * seconds_between(t0, Clock::now());
  out.tasks = c.tasks;
  out.fp = fingerprint_text(text);
  if (!report.cases_ok) out.fail("a sweep case failed");
  if (!report.checks_ok) out.fail("an embedded expectation failed");
  if (text != c.expected_report) out.fail("report differs from the committed expected report");
  const std::string stem = fs::path(c.id).stem().string();
  if ((stem == "fig4a" || stem == "fig6") && report.json.contains("aggregates")) {
    out.sim_error =
        report.json.at("aggregates").at("mean_err_pct").at("wrench_cache").as_number();
  }
  if (tp == nullptr) return;
  // An unattached twin of the sweep (expand, parse, run each case) is the
  // base for eval_s; a profiled one gives the engine sections and counters
  // of the runs run_experiment keeps to itself.
  {
    Scope s(tracer, "twin.plain");
    for (const pcs::scenario::SweepCase& sc : c.experiment.sweep.expand()) {
      (void)pcs::scenario::run_scenario(ScenarioSpec::parse(sc.doc, c.experiment.sweep.base_dir));
    }
    tp->eval_s += experiment_s - s.close();
  }
  std::vector<pcs::scenario::SweepCase> expanded;
  {
    Scope s(tracer, "scenario.expand");
    expanded = c.experiment.sweep.expand();
  }
  for (const pcs::scenario::SweepCase& sc : expanded) {
    ScenarioSpec spec;
    {
      Scope s(tracer, "scenario.parse");
      spec = ScenarioSpec::parse(sc.doc, c.experiment.sweep.base_dir);
    }
    tp->twin_counts.absorb_counts(run_spec(spec, tp));
  }
}

void run_scenario_case(Prepared& c, int index, CaseResult& out, TracedPass* tp) {
  const auto t0 = Clock::now();
  RunResult r = run_spec(c.spec, tp);
  out.ms = 1e3 * seconds_between(t0, Clock::now());
  out.tasks = r.tasks.size();
  out.fp = fingerprint(r);
  if (tp == nullptr) out.absorb_counts(r);
  if (tp != nullptr) run_gauge_twin(c.spec, out.fp, tp);
  if (c.doc.is_null()) {
    // Committed scenario: the `pcs_cli smoke` oracle (relative drift <= 1e-9).
    if (c.expected_makespan < 0.0) {
      out.fail("no recorded makespan in BENCH_scenarios.json");
      return;
    }
    const double drift = std::abs(r.makespan - c.expected_makespan) /
                         std::max(1.0, std::max(std::abs(r.makespan), c.expected_makespan));
    if (drift > 1e-9) out.fail("makespan drifted from BENCH_scenarios.json");
    return;
  }
  check_run(r, c.tasks, out, "run");
  if (tp == nullptr) return;
  // Cacheless and recorder-on twins, unattached like the untraced run.
  const double untraced_s = (*tp->untraced)[static_cast<std::size_t>(index)].ms / 1e3;
  tp->overhead_ratios.push_back(untraced_s / run_cacheless_twin(c, tp->tracer));
  std::ostringstream log;
  pcs::tracelog::TaskLogRecorder recorder(&log, /*keep_in_memory=*/false);
  RunOptions options;
  options.recorder = &recorder;
  {
    Scope s(tp->tracer, "twin.recorder");
    (void)pcs::scenario::run_scenario(c.spec, options);
    tp->record_s += s.close() - untraced_s;
  }
  const std::string text = log.str();
  tp->log_bytes += static_cast<double>(text.size());
  tp->records += static_cast<double>(std::count(text.begin(), text.end(), '\n'));
}

/// Record the run to a JSONL log, then replay it through the streaming
/// reader at load 1 (which must reproduce the recording bit for bit) and at
/// load 4.
void run_record_replay_case(Prepared& c, int index, CaseResult& out, TracedPass* tp) {
  Tracer* tracer = tp != nullptr ? tp->tracer : nullptr;
  const std::string path = temp_log_path();
  const auto t0 = Clock::now();
  RunResult recorded;
  {
    std::ofstream log(path);
    pcs::tracelog::TaskLogRecorder recorder(&log, /*keep_in_memory=*/false);
    const auto w0 = Clock::now();
    recorded = run_spec(c.spec, tp, &recorder);
    out.record_s = seconds_between(w0, Clock::now());
    log.flush();
    if (!log) throw std::runtime_error("writing the task log '" + path + "' failed");
  }
  Json replay_doc;
  double recorded_makespan = 0.0;
  {
    Scope s(tracer, "tracelog.parse");
    pcs::tracelog::TaskLogReader reader(path);
    replay_doc = reader.source_scenario();
    recorded_makespan = reader.recorded_makespan();
  }
  Json workload{JsonObject{}};
  workload.set("type", "trace");
  workload.set("file", path);
  workload.set("streaming", true);
  replay_doc.set("name", c.spec.name + ":replay");
  replay_doc.set("workload", workload);
  ScenarioSpec replay_spec;
  {
    Scope s(tracer, "scenario.parse");
    replay_spec = ScenarioSpec::parse(replay_doc);
  }
  const RunResult replayed = run_spec(replay_spec, tp);
  workload.set("load_factor", 4);
  replay_doc.set("workload", workload);
  {
    Scope s(tracer, "scenario.parse");
    replay_spec = ScenarioSpec::parse(replay_doc);
  }
  const RunResult loaded = run_spec(replay_spec, tp);
  out.ms = 1e3 * seconds_between(t0, Clock::now());
  out.tasks = recorded.tasks.size() + replayed.tasks.size() + loaded.tasks.size();
  if (tp == nullptr) {
    out.absorb_counts(recorded);
    out.absorb_counts(replayed);
    out.absorb_counts(loaded);
  }
  check_run(recorded, c.tasks, out, "record");
  check_run(loaded, 4 * c.tasks, out, "load-4 replay");
  const std::string record_fp = fingerprint(recorded);
  if (fingerprint(replayed) != record_fp || replayed.makespan != recorded_makespan) {
    out.fail("load-1 replay is not bit-identical to the recording");
  }
  Fnv combined;
  combined.add(record_fp);
  combined.add(fingerprint(loaded));
  out.fp = combined.hex();
  if (tp == nullptr) return;
  run_gauge_twin(replay_spec, fingerprint(loaded), tp);
  const std::string log_text = read_file(path);
  tp->log_bytes += static_cast<double>(log_text.size());
  tp->records += static_cast<double>(std::count(log_text.begin(), log_text.end(), '\n'));
  // Recorder-off and cacheless twins of the recorded run, both unattached
  // like the untraced pass's record step.
  double plain_s = 0.0;
  {
    Scope s(tracer, "twin.plain");
    (void)pcs::scenario::run_scenario(c.spec);
    plain_s = s.close();
  }
  tp->record_s += (*tp->untraced)[static_cast<std::size_t>(index)].record_s - plain_s;
  tp->overhead_ratios.push_back(plain_s / run_cacheless_twin(c, tracer));
}

CaseResult run_case(Prepared& c, int index, TracedPass* tp) {
  CaseResult out;
  try {
    switch (c.kind) {
      case Prepared::Kind::Experiment: run_experiment_case(c, out, tp); break;
      case Prepared::Kind::Scenario: run_scenario_case(c, index, out, tp); break;
      case Prepared::Kind::RecordReplay: run_record_replay_case(c, index, out, tp); break;
    }
  } catch (const std::exception& e) {
    out.fail(std::string("threw: ") + e.what());
  }
  if (out.ok && !c.expected_fp.empty() && out.fp != c.expected_fp) {
    out.fail("fingerprint " + out.fp + " differs from the committed " + c.expected_fp);
  }
  return out;
}

// --- the child process -----------------------------------------------------------

/// Newline-delimited JSON records from the child to the parent.
class LineWriter {
 public:
  explicit LineWriter(int fd) : fd_(fd) {}
  void emit(const Json& record) {
    const std::string line = record.dump() + "\n";
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;  // parent gone: nothing left to report to
      off += static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_;
};

Json record(const char* type) {
  Json r{JsonObject{}};
  r.set("t", type);
  return r;
}

Json case_record(const CaseResult& r, int pass, int index, bool traced) {
  Json rec = record("case");
  rec.set("pass", pass);
  rec.set("i", index);
  rec.set("traced", traced);
  rec.set("ok", r.ok);
  rec.set("ms", r.ms);
  rec.set("tasks", static_cast<double>(r.tasks));
  rec.set("fp", r.fp);
  if (!r.ok) rec.set("error", r.error);
  if (r.sim_error >= 0.0) rec.set("sim_error", r.sim_error);
  return rec;
}

/// paper_suite: task counts of experiments with no committed count, from
/// an untimed run of each sweep before the timed phase.
void count_missing_tasks(std::vector<Prepared>& cases) {
  for (Prepared& c : cases) {
    if (c.kind != Prepared::Kind::Experiment || c.tasks != 0) continue;
    for (const auto& r : pcs::scenario::run_sweep(c.experiment.sweep)) {
      c.tasks += r.result.tasks.size();
    }
  }
}

Json layer_metrics(const TracedPass& tp, const std::vector<CaseResult>& untraced,
                   std::size_t first_span, double wall, double untraced_wall) {
  const std::map<std::string, double> self = tp.tracer->self_times(first_span);
  auto span = [&self](const std::string& name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double attributed = 0.0;
  for (const auto& [name, s] : self) {
    if (!is_container_span(name)) attributed += s;
  }
  CaseResult counts = tp.twin_counts;
  double sim_error_sum = 0.0;
  int sim_error_n = 0;
  for (const CaseResult& r : untraced) {
    counts.scenario_runs += r.scenario_runs;
    counts.points += r.points;
    counts.solves += r.solves;
    counts.components += r.components;
    counts.final_blocks += r.final_blocks;
    counts.run_wall += r.run_wall;
    if (r.sim_error >= 0.0) {
      sim_error_sum += r.sim_error;
      ++sim_error_n;
    }
  }
  auto gauge = [&tp](const std::string& suffix) {
    auto it = tp.gauges.find(suffix);
    return it == tp.gauges.end() ? 0.0 : it->second;
  };
  const pcs::obs::EngineProfile& p = tp.profile;
  const double run_s = span("scenario.run");
  const double hit = gauge("hit_bytes");
  const double miss = gauge("miss_bytes");
  Json m{JsonObject{}};
  m.set("scenario.parse_s", span("scenario.parse"));
  m.set("scenario.expand_s", span("scenario.expand"));
  m.set("scenario.run_s", run_s);
  m.set("scenario.cases", static_cast<double>(counts.scenario_runs));
  m.set("harness.generate_s", span("harness.generate"));
  m.set("simcore.scheduling_points", static_cast<double>(counts.points));
  m.set("simcore.fair_share_solves", static_cast<double>(counts.solves));
  m.set("simcore.components_solved", static_cast<double>(counts.components));
  m.set("simcore.us_per_point",
        counts.points > 0 ? 1e6 * counts.run_wall / static_cast<double>(counts.points) : 0.0);
  m.set("simcore.recompute_s", p.recompute_rates.seconds);
  m.set("simcore.bfs_s", p.bfs.seconds);
  m.set("simcore.solve_s", p.solve.seconds);
  m.set("simcore.merge_s", p.merge.seconds);
  m.set("simcore.dispatch_s", p.dispatch.seconds);
  m.set("simcore.other_s", run_s - p.recompute_rates.seconds - p.dispatch.seconds);
  m.set("pagecache.final_blocks", static_cast<double>(counts.final_blocks));
  m.set("pagecache.hit_bytes", hit);
  m.set("pagecache.miss_bytes", miss);
  m.set("pagecache.evicted_bytes", gauge("evicted_bytes"));
  m.set("pagecache.flushed_bytes", gauge("flushed_bytes"));
  m.set("pagecache.hit_ratio", hit + miss > 0.0 ? hit / (hit + miss) : 0.0);
  m.set("pagecache.overhead_x", median(tp.overhead_ratios));
  m.set("storage.read_bytes", gauge("read_bytes"));
  m.set("storage.write_bytes", gauge("write_bytes"));
  m.set("tracelog.record_s", tp.record_s);
  m.set("tracelog.parse_s", span("tracelog.parse"));
  m.set("tracelog.log_bytes", tp.log_bytes);
  m.set("tracelog.records", tp.records);
  m.set("tracelog.window_peak", tp.window_peak);
  m.set("metrics.eval_s", tp.eval_s);
  m.set("metrics.emit_s", span("metrics.emit"));
  m.set("sim_error_pct", sim_error_n == 2 ? sim_error_sum / 2.0 : 0.0);
  m.set("obs.sampler_diverged", tp.sampler_diverged);
  m.set("unattributed_s", wall - attributed);
  m.set("trace.overhead_s", wall - untraced_wall);
  return m;
}

Json spans_json(const Tracer& tracer, std::size_t first) {
  Json out{JsonArray{}};
  const auto& spans = tracer.spans();
  for (std::size_t i = first; i < spans.size(); ++i) {
    const Span& s = spans[i];
    Json j{JsonArray{}};
    j.push_back(s.name);
    j.push_back(s.start);
    j.push_back(s.end);
    j.push_back(s.parent >= 0 ? s.parent - static_cast<int>(first) : -1);
    j.push_back(s.case_index);
    out.push_back(std::move(j));
  }
  return out;
}

/// One traced pass: set-up and every case again under spans, with the
/// engine profile on every main run and the gauge, cacheless and recorder
/// twins beside them.
void traced_pass(const RunConfig& cfg, Tracer& tracer, const std::vector<Prepared>& untraced_cases,
                 const std::vector<CaseResult>& untraced, double untraced_wall, int pass,
                 LineWriter& out) {
  TracedPass tp;
  tp.tracer = &tracer;
  tp.untraced = &untraced;
  const std::size_t first = tracer.spans().size();
  const double t0 = tracer.now();
  {
    Scope pass_span(&tracer, "pass");
    std::vector<Prepared> cases = setup(cfg, &tracer);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      cases[i].tasks = untraced_cases[i].tasks;
      Scope case_span(&tracer, "case", static_cast<int>(i));
      CaseResult r = run_case(cases[i], static_cast<int>(i), &tp);
      if (r.ok && r.fp != untraced[i].fp) {
        r.fail("traced fingerprint " + r.fp + " differs from the untraced " + untraced[i].fp);
      }
      out.emit(case_record(r, pass, static_cast<int>(i), true));
    }
  }
  const double wall = tracer.now() - t0;
  // Layer spans plus unattributed_s equal `wall` by construction; the
  // container spans' total shows how much of `wall` the span tree covers.
  double layer_s = 0.0;
  double covered_s = 0.0;
  for (const auto& [name, s] : tracer.self_times(first)) {
    covered_s += s;
    if (!is_container_span(name)) layer_s += s;
  }
  Json rec = record("layers");
  rec.set("pass", pass);
  rec.set("wall", wall);
  rec.set("layer_s", layer_s);
  rec.set("covered_s", covered_s);
  rec.set("metrics", layer_metrics(tp, untraced, first, wall, untraced_wall));
  rec.set("spans", spans_json(tracer, first));
  out.emit(rec);
}

/// Fill the run's oracle from its fingerprints file.  Self-test runs are
/// keyed "small-<seed>", so they never meet the full-size fingerprints.
void load_oracle(RunConfig& cfg) {
  if (cfg.fingerprints.empty() || !fs::exists(cfg.fingerprints)) return;
  const Json file = Json::parse_file(cfg.fingerprints);
  const std::string key = (cfg.small ? "small-" : "") + std::to_string(cfg.seed);
  if (file.contains(cfg.workload) && file.at(cfg.workload).contains(key)) {
    for (const Json& fp : file.at(cfg.workload).at(key).as_array()) {
      cfg.expected_fps.push_back(fp.as_string());
    }
  }
  if (file.contains("paper_suite_tasks")) cfg.paper_tasks = file.at("paper_suite_tasks");
}

int child_main(RunConfig cfg, int fd) {
  LineWriter out(fd);
  Tracer tracer(Clock::now());
  std::vector<Prepared> cases;
  std::vector<double> setup_samples;
  try {
    load_oracle(cfg);
    for (int k = 0; k < kSetupRepeats; ++k) {
      const auto t0 = Clock::now();
      cases = setup(cfg, nullptr);
      setup_samples.push_back(seconds_between(t0, Clock::now()));
    }
    count_missing_tasks(cases);
  } catch (const std::exception& e) {
    Json rec = record("fatal");
    rec.set("error", std::string("set-up failed: ") + e.what());
    out.emit(rec);
    return 3;
  }
  Json rec = record("setup");
  Json samples{JsonArray{}};
  for (double s : setup_samples) samples.push_back(s);
  rec.set("samples", std::move(samples));
  rec.set("cases", static_cast<double>(cases.size()));
  out.emit(rec);
  fs::create_directories(kTempDir);

  const double setup_median = median(setup_samples);
  std::vector<std::string> first_fps(cases.size());
  const Clock::time_point deadline = after(cfg.seconds);
  for (int pass = 0;; ++pass) {
    std::vector<CaseResult> results;
    const auto p0 = Clock::now();
    double tasks = 0.0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      CaseResult r = run_case(cases[i], static_cast<int>(i), nullptr);
      // Every pass must reproduce the first, bit for bit.
      if (pass == 0) {
        first_fps[i] = r.fp;
      } else if (r.ok && r.fp != first_fps[i]) {
        r.fail("fingerprint changed between passes");
      }
      tasks += static_cast<double>(r.tasks);
      out.emit(case_record(r, pass, static_cast<int>(i), false));
      results.push_back(std::move(r));
    }
    const double wall = seconds_between(p0, Clock::now());
    Json p = record("pass");
    p.set("pass", pass);
    p.set("wall", wall);
    p.set("tasks", tasks);
    out.emit(p);
    if (cfg.traced) {
      traced_pass(cfg, tracer, cases, results, setup_median + wall, pass, out);
    }
    if (Clock::now() >= deadline) break;
  }
  std::error_code ignored;
  fs::remove(temp_log_path(), ignored);
  out.emit(record("done"));
  return 0;
}

// --- the parent: one run in a child process ----------------------------------------

struct RunRecord {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;
  std::vector<std::string> fps;  ///< first-pass fingerprints, by case index
  Json spans{JsonArray{}};       ///< traced: spans of the first traced pass
  /// traced: worst relative gap, over passes, between the pass's wall time
  /// and its span totals (layer spans + unattributed_s, and the span tree)
  double wall_check = 0.0;

  [[nodiscard]] Json to_json() const {
    Json j{JsonObject{}};
    j.set("workload", workload);
    j.set("seed", static_cast<double>(seed));
    j.set("traced", traced);
    j.set("correct", correct);
    j.set("attempted", static_cast<double>(attempted));
    j.set("failed", static_cast<double>(failed));
    Json m{JsonObject{}};
    for (const auto& [name, value] : metrics) {
      Json v{JsonObject{}};
      v.set("value", value);
      const MetricDef* def = find_metric(name);
      v.set("unit", def != nullptr ? def->unit : "");
      m.set(name, std::move(v));
    }
    j.set("metrics", std::move(m));
    if (!errors.empty()) {
      Json e{JsonArray{}};
      for (const std::string& s : errors) e.push_back(s);
      j.set("errors", std::move(e));
    }
    return j;
  }
};

double budget_seconds(double seconds) { return 60.0 + 4.0 * seconds; }

/// A double that survives the trip through a command line.
std::string number_arg(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

RunRecord run_child(const RunConfig& cfg) {
  RunRecord rec;
  rec.workload = cfg.workload;
  rec.seed = cfg.seed;
  rec.traced = cfg.traced;
  std::cout.flush();
  std::fflush(nullptr);
  // A forked child starts with the parent's resident pages, which its
  // ru_maxrss keeps even across exec: hand back the heap freed by earlier
  // runs first.
  ::malloc_trim(0);
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  // The child re-executes this binary, so it starts from a fresh heap
  // whatever earlier runs left in the parent's allocator.
  std::vector<std::string> args = {
      "bench_e2e", "--child", "--workload", cfg.workload, "--seed", std::to_string(cfg.seed),
      "--seconds", number_arg(cfg.seconds), "--trace", cfg.traced ? "1" : "0",
      "--fingerprints", cfg.fingerprints};
  if (cfg.small) args.emplace_back("--small");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    if (fds[1] != kReportFd) {
      ::dup2(fds[1], kReportFd);
      ::close(fds[1]);
    }
    ::execv("/proc/self/exe", argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);

  // Read the child's records until it exits or overruns its wall budget.
  std::string buffer;
  std::vector<Json> records;
  bool killed = false;
  const Clock::time_point deadline = after(budget_seconds(cfg.seconds));
  for (;;) {
    const double left = seconds_between(Clock::now(), deadline);
    if (left <= 0.0) {
      ::kill(pid, SIGKILL);
      killed = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(std::min(left, 1.0) * 1000.0) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char chunk[65536];
    const ssize_t n = ::read(fds[0], chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      records.push_back(Json::parse(buffer.substr(0, nl)));
      buffer.erase(0, nl + 1);
    }
  }
  ::close(fds[0]);
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  std::error_code ignored;
  fs::remove(std::string(kTempDir) + "/trace-" + std::to_string(pid) + ".jsonl", ignored);
  fs::remove(kTempDir, ignored);  // only once empty

  // Reduce the records to the run's metrics.
  std::size_t n_cases = 0;
  std::vector<double> setup_samples;
  std::vector<std::vector<double>> case_ms;  ///< untraced latencies by case index
  std::vector<double> pass_rates;
  std::vector<double> sim_errors;
  std::map<std::string, std::vector<double>> layers;
  std::size_t cases_this_pass = 0;
  bool done = false;
  for (const Json& r : records) {
    const std::string& t = r.at("t").as_string();
    if (t == "fatal") {
      rec.errors.push_back(r.at("error").as_string());
    } else if (t == "setup") {
      n_cases = static_cast<std::size_t>(r.at("cases").as_number());
      for (const Json& s : r.at("samples").as_array()) setup_samples.push_back(s.as_number());
      rec.fps.assign(n_cases, "");
      case_ms.resize(n_cases);
    } else if (t == "case") {
      ++rec.attempted;
      ++cases_this_pass;
      const bool traced = r.at("traced").as_bool();
      const auto index = static_cast<std::size_t>(r.at("i").as_number());
      if (!r.at("ok").as_bool()) {
        ++rec.failed;
        rec.errors.push_back(cfg.workload + " case " + std::to_string(index) + ": " +
                             r.at("error").as_string());
      }
      if (!traced && index < case_ms.size()) {
        case_ms[index].push_back(r.at("ms").as_number());
        if (r.at("pass").as_number() == 0 && index < rec.fps.size()) {
          rec.fps[index] = r.at("fp").as_string();
        }
        if (r.contains("sim_error") && r.at("pass").as_number() == 0) {
          sim_errors.push_back(r.at("sim_error").as_number());
        }
      }
    } else if (t == "pass") {
      cases_this_pass = 0;
      pass_rates.push_back(r.at("tasks").as_number() / r.at("wall").as_number());
    } else if (t == "layers") {
      cases_this_pass = 0;
      for (const auto& [name, v] : r.at("metrics").as_object()) {
        layers[name].push_back(v.as_number());
      }
      const double wall = r.at("wall").as_number();
      const double sum =
          r.at("layer_s").as_number() + r.at("metrics").at("unattributed_s").as_number();
      rec.wall_check = std::max({rec.wall_check, std::abs(sum - wall) / wall,
                                 std::abs(r.at("covered_s").as_number() - wall) / wall});
      if (rec.spans.size() == 0) rec.spans = r.at("spans");
    } else if (t == "done") {
      done = true;
    }
  }
  if (killed || !done) {
    // A stalled or crashed child: the rest of its pass never finished.
    const std::size_t unfinished =
        std::max<std::size_t>(1, n_cases > cases_this_pass ? n_cases - cases_this_pass : 0);
    rec.attempted += unfinished;
    rec.failed += unfinished;
    rec.errors.push_back(cfg.workload + (killed ? ": killed after the " +
                                                      std::to_string(static_cast<int>(
                                                          budget_seconds(cfg.seconds))) +
                                                      " s wall budget"
                                                : ": child exited with status " +
                                                      std::to_string(status)));
  }
  rec.correct = rec.failed == 0 && rec.errors.empty() && done && WIFEXITED(status) &&
                WEXITSTATUS(status) == 0;

  rec.metrics["failed_frac"] = rec.attempted > 0 ? static_cast<double>(rec.failed) /
                                                       static_cast<double>(rec.attempted)
                                                 : 1.0;
  if (cfg.traced) {
    for (const auto& [name, values] : layers) {
      double sum = 0.0;
      for (double v : values) sum += v;
      rec.metrics[name] = sum / static_cast<double>(values.size());
    }
  } else {
    // A case's latency is its median over the run's passes, so a burst of
    // host noise in one pass cannot move the percentiles across cases.
    std::vector<double> latency;
    for (const std::vector<double>& samples : case_ms) {
      if (!samples.empty()) latency.push_back(median(samples));
    }
    rec.metrics["tasks_per_s"] = median(pass_rates);
    rec.metrics["case_ms.p50"] = median(latency);
    rec.metrics["case_ms.p90"] = latency.empty() ? 0.0 : pcs::util::percentile(latency, 90.0);
    rec.metrics["setup_s"] = median(setup_samples);
    rec.metrics["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
    rec.metrics["cases"] = static_cast<double>(latency.size());
    rec.metrics["passes"] = static_cast<double>(pass_rates.size());
    if (sim_errors.size() == 2) {
      rec.metrics["sim_error_pct"] = (sim_errors[0] + sim_errors[1]) / 2.0;
    }
  }
  return rec;
}

// --- configuration and environment ----------------------------------------------

RunConfig make_config(const std::string& workload, std::uint64_t seed, double seconds,
                      bool traced, bool small) {
  RunConfig cfg;
  cfg.workload = workload;
  cfg.seed = seed;
  cfg.seconds = seconds;
  cfg.traced = traced;
  cfg.small = small;
  return cfg;
}

/// HEAD's commit id read straight from .git (no child process); "unknown"
/// outside a git checkout.
std::string git_sha() {
  try {
    std::string head = read_file(".git/HEAD");
    while (!head.empty() && std::isspace(static_cast<unsigned char>(head.back()))) head.pop_back();
    if (head.rfind("ref: ", 0) != 0) return head;
    const std::string ref = head.substr(5);
    if (fs::exists(".git/" + ref)) {
      std::string sha = read_file(".git/" + ref);
      return sha.substr(0, sha.find_first_of(" \r\n"));
    }
    std::istringstream packed(read_file(".git/packed-refs"));
    std::string line;
    while (std::getline(packed, line)) {
      const std::size_t space = line.find(' ');
      if (space != std::string::npos && line.substr(space + 1) == ref) return line.substr(0, space);
    }
  } catch (const std::exception&) {
  }
  return "unknown";
}

bool release_build() { return std::string(PCS_E2E_BUILD_TYPE) == "Release"; }

Json environment(std::uint64_t seed, int repeats, double seconds) {
  Json env{JsonObject{}};
  env.set("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  env.set("hardware_concurrency", static_cast<double>(std::thread::hardware_concurrency()));
  env.set("compiler", PCS_E2E_COMPILER);
  env.set("build_type", PCS_E2E_BUILD_TYPE);
  env.set("git_sha", git_sha());
  env.set("seed", static_cast<double>(seed));
  env.set("repeats", repeats);
  env.set("seconds", seconds);
  env.set("jobs", 1);
  env.set("solver_threads", 1);
  return env;
}

// --- reporting ----------------------------------------------------------------------

/// The metrics object of the last stdout line: every end-to-end metric of an
/// untraced run, or every per-layer metric of a traced one.
/// The values `name` took over `runs`, skipping runs that lack it.
std::vector<double> metric_values(const std::vector<RunRecord>& runs, const std::string& name) {
  std::vector<double> values;
  for (const RunRecord& r : runs) {
    auto it = r.metrics.find(name);
    if (it != r.metrics.end()) values.push_back(it->second);
  }
  return values;
}

Json contract_metrics(const std::vector<RunRecord>& runs, bool traced) {
  Json m{JsonObject{}};
  for (const MetricDef& def : traced ? per_layer_metrics() : end_to_end_metrics()) {
    const std::vector<double> values = metric_values(runs, def.name);
    if (values.empty()) continue;
    Json v{JsonObject{}};
    v.set("value", median(values));
    v.set("unit", def.unit);
    m.set(def.name, std::move(v));
  }
  return m;
}

Json contract_line(const std::vector<RunRecord>& runs, bool traced) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = !runs.empty();
  for (const RunRecord& r : runs) {
    attempted += r.attempted;
    failed += r.failed;
    correct = correct && r.correct;
  }
  Json line{JsonObject{}};
  line.set("correct", correct);
  line.set("attempted", static_cast<double>(std::max<std::uint64_t>(attempted, 1)));
  line.set("failed", static_cast<double>(failed));
  line.set("metrics", contract_metrics(runs, traced));
  return line;
}

/// One line per metric x workload: the median over the runs, with the
/// quartile spread when there are several.
void print_metric_lines(const std::string& workload, const std::vector<RunRecord>& runs,
                        const std::vector<MetricDef>& defs) {
  for (const MetricDef& def : defs) {
    const std::vector<double> values = metric_values(runs, def.name);
    if (values.empty()) continue;
    const double med = median(values);
    std::printf("%-18s %-26s %16.6g %-8s", workload.c_str(), def.name.c_str(), med,
                def.unit.c_str());
    if (values.size() > 1) {
      const auto [q1, q3] = quartiles(values);
      std::printf("  n=%zu IQR %.2f%%", values.size(),
                  med != 0.0 ? 100.0 * (q3 - q1) / std::abs(med) : 0.0);
    }
    std::printf("\n");
  }
}

void write_chrome_trace(const std::string& path, const std::vector<RunRecord>& traced) {
  Json events{JsonArray{}};
  Json layers{JsonObject{}};
  int pid = 0;
  for (const RunRecord& r : traced) {
    ++pid;
    Json meta{JsonObject{}};
    meta.set("name", "process_name");
    meta.set("ph", "M");
    meta.set("pid", pid);
    meta.set("args", Json{JsonObject{}}.set("name", r.workload));
    events.push_back(std::move(meta));
    for (const Json& s : r.spans.as_array()) {
      Json e{JsonObject{}};
      e.set("name", s.at(0));
      e.set("ph", "X");
      e.set("pid", pid);
      e.set("tid", 1);
      e.set("ts", s.at(1).as_number() * 1e6);
      e.set("dur", (s.at(2).as_number() - s.at(1).as_number()) * 1e6);
      Json args{JsonObject{}};
      args.set("parent", s.at(3));
      args.set("case", s.at(4));
      e.set("args", std::move(args));
      events.push_back(std::move(e));
    }
    Json table{JsonObject{}};
    for (const MetricDef& def : per_layer_metrics()) {
      auto it = r.metrics.find(def.name);
      if (it != r.metrics.end()) table.set(def.name, it->second);
    }
    layers.set(r.workload, std::move(table));
  }
  Json doc{JsonObject{}};
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  doc.set("layers", std::move(layers));
  std::ofstream out(path);
  out << doc.dump(1) << "\n";
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
}

bool report_errors(const std::vector<RunRecord>& runs) {
  bool all_correct = true;
  for (const RunRecord& r : runs) {
    if (r.correct) continue;
    all_correct = false;
    std::fprintf(stderr, "bench_e2e: %s (seed %llu%s) INCORRECT: %llu of %llu cases failed\n",
                 r.workload.c_str(), static_cast<unsigned long long>(r.seed),
                 r.traced ? ", traced" : "", static_cast<unsigned long long>(r.failed),
                 static_cast<unsigned long long>(r.attempted));
    for (std::size_t i = 0; i < r.errors.size() && i < 5; ++i) {
      std::fprintf(stderr, "  %s\n", r.errors[i].c_str());
    }
  }
  return all_correct;
}

// --- modes ----------------------------------------------------------------------------

struct Options {
  std::vector<std::string> workloads;
  std::uint64_t seed = 1;
  int repeats = 1;
  double seconds = 15.0;
  std::string out_path;
  std::string trace_path;  ///< --traced FILE: untraced runs, then one traced run each
  bool trace_only = false; ///< --trace 1: traced runs only
  // Set by run_child on the command line of the child it starts:
  bool child = false;
  bool small = false;
  std::string fingerprints = kFingerprintsPath;
};

int measure(const Options& opt) {
  if (!release_build()) {
    std::fprintf(stderr,
                 "bench_e2e: refusing to measure a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PCS_E2E_BUILD_TYPE);
    return 2;
  }
  std::vector<RunRecord> runs;
  std::vector<RunRecord> traced;
  for (int r = 0; r < opt.repeats; ++r) {
    for (const std::string& w : opt.workloads) {
      RunRecord rec = run_child(make_config(w, opt.seed, opt.seconds, opt.trace_only, false));
      std::fprintf(stderr, "[bench_e2e] %s%s repeat %d/%d: %s, %llu cases\n", w.c_str(),
                   opt.trace_only ? " (traced)" : "", r + 1, opt.repeats,
                   rec.correct ? "correct" : "INCORRECT",
                   static_cast<unsigned long long>(rec.attempted));
      (opt.trace_only ? traced : runs).push_back(std::move(rec));
    }
  }
  if (!opt.trace_path.empty()) {
    for (const std::string& w : opt.workloads) {
      traced.push_back(run_child(make_config(w, opt.seed, opt.seconds, true, false)));
    }
  }

  for (const std::string& w : opt.workloads) {
    std::vector<RunRecord> mine;
    for (const RunRecord& r : runs) {
      if (r.workload == w) mine.push_back(r);
    }
    print_metric_lines(w, mine, end_to_end_metrics());
    print_metric_lines(w, mine, companion_metrics());
    mine.clear();
    for (const RunRecord& r : traced) {
      if (r.workload == w) mine.push_back(r);
    }
    print_metric_lines(w, mine, per_layer_metrics());
  }
  if (!opt.out_path.empty()) {
    Json doc{JsonObject{}};
    doc.set("meta", environment(opt.seed, opt.repeats, opt.seconds));
    Json list{JsonArray{}};
    for (const auto* set : {&runs, &traced}) {
      for (const RunRecord& r : *set) list.push_back(r.to_json());
    }
    doc.set("runs", std::move(list));
    std::ofstream out(opt.out_path);
    out << doc.dump(2) << "\n";
    if (!out) throw std::runtime_error("cannot write '" + opt.out_path + "'");
  }
  if (!opt.trace_path.empty()) write_chrome_trace(opt.trace_path, traced);
  const bool untraced_ok = report_errors(runs);
  const bool correct = report_errors(traced) && untraced_ok;
  if (opt.workloads.size() == 1) {
    std::cout << contract_line(opt.trace_only ? traced : runs, opt.trace_only).dump() << "\n";
  }
  return correct ? 0 : 1;
}

/// The choosing-metrics §8 protocol over two results files of >= 10 runs.
int compare(const std::string& base_path, const std::string& new_path) {
  const Json bench = Json::parse_file("BENCHMARK.json");
  const Json base = Json::parse_file(base_path);
  const Json fresh = Json::parse_file(new_path);
  auto collect = [](const Json& doc) {
    std::map<std::string, std::map<std::string, std::vector<double>>> out;
    for (const Json& run : doc.at("runs").as_array()) {
      if (run.at("traced").as_bool()) continue;
      for (const auto& [name, v] : run.at("metrics").as_object()) {
        out[run.at("workload").as_string()][name].push_back(v.at("value").as_number());
      }
    }
    return out;
  };
  auto b = collect(base);
  auto n = collect(fresh);
  std::printf("%-18s %-14s %12s %12s %9s %9s %6s  %s\n", "workload", "metric", "base_med",
              "new_med", "base_IQR%", "new_IQR%", "wins", "verdict");
  bool regressed = false;
  bool short_input = false;
  for (const std::string& w : workload_names()) {
    if (b.count(w) == 0 || n.count(w) == 0) continue;
    for (const Json& m : bench.at("end_to_end").as_array()) {
      const std::string name = m.at("name").as_string();
      const bool higher = m.at("better").as_string() == "higher";
      const double bound = m.at("bound").as_number();
      const std::vector<double>& bv = b[w][name];
      const std::vector<double>& nv = n[w][name];
      if (bv.size() < 10 || nv.size() < 10) {
        std::printf("%-18s %-14s needs >= 10 runs on each side (have %zu and %zu)\n", w.c_str(),
                    name.c_str(), bv.size(), nv.size());
        short_input = true;
        continue;
      }
      const double bm = median(bv);
      const double nm = median(nv);
      const auto [bq1, bq3] = quartiles(bv);
      const auto [nq1, nq3] = quartiles(nv);
      const std::size_t pairs = std::min(bv.size(), nv.size());
      std::size_t wins = 0;
      for (std::size_t i = 0; i < pairs; ++i) {
        if (higher ? nv[i] > bv[i] : nv[i] < bv[i]) ++wins;
      }
      const double worse_by = (higher ? bm - nm : nm - bm) / std::abs(bm);
      const bool all_better = higher ? *std::min_element(nv.begin(), nv.end()) >
                                           *std::max_element(bv.begin(), bv.end())
                                     : *std::max_element(nv.begin(), nv.end()) <
                                           *std::min_element(bv.begin(), bv.end());
      const char* verdict = "unchanged";
      if (worse_by < 0.0 && 10 * wins >= 9 * pairs && std::abs(nm - bm) > bq3 - bq1) {
        verdict = "improved";
      } else if (worse_by > bound) {
        verdict = "regressed";
        regressed = true;
      } else if ((bq3 - bq1) / std::abs(bm) > bound && !all_better) {
        verdict = "unresolved";
      }
      std::printf("%-18s %-14s %12.6g %12.6g %9.2f %9.2f %3zu/%-2zu  %s\n", w.c_str(),
                  name.c_str(), bm, nm, 100.0 * (bq3 - bq1) / std::abs(bm),
                  100.0 * (nq3 - nq1) / std::abs(nm), wins, pairs, verdict);
    }
  }
  if (short_input) return 2;
  return regressed ? 1 : 0;
}

int update_fingerprints() {
  Json out{JsonObject{}};
  out.set("comment",
          "Committed result fingerprints of the generated workloads (seeds 1 and 2) and "
          "the paper_suite experiments' task counts; regenerate with "
          "`bench_e2e --update-fingerprints` after an intentional model change.");
  for (const std::string& w : workload_names()) {
    if (w == "paper_suite") continue;
    Json by_seed{JsonObject{}};
    for (std::uint64_t seed : {1ULL, 2ULL}) {
      RunConfig cfg = make_config(w, seed, 0.0, false, false);
      cfg.fingerprints.clear();
      const RunRecord rec = run_child(cfg);
      if (!rec.correct) {
        report_errors({rec});
        std::fprintf(stderr, "bench_e2e: fingerprints not updated\n");
        return 1;
      }
      Json fps{JsonArray{}};
      for (const std::string& fp : rec.fps) fps.push_back(fp);
      by_seed.set(std::to_string(seed), std::move(fps));
    }
    out.set(w, std::move(by_seed));
  }
  // Counted last: run_sweep is the only call here that may start threads,
  // and no fork follows it.
  Json tasks{JsonObject{}};
  for (const std::string& path : committed_specs("experiments")) {
    const auto spec = pcs::metrics::ExperimentSpec::from_file(path);
    double count = 0.0;
    for (const auto& r : pcs::scenario::run_sweep(spec.sweep)) {
      count += static_cast<double>(r.result.tasks.size());
    }
    tasks.set(path, count);
  }
  out.set("paper_suite_tasks", std::move(tasks));
  std::ofstream file(kFingerprintsPath);
  file << out.dump(2) << "\n";
  if (!file) throw std::runtime_error(std::string("cannot write '") + kFingerprintsPath + "'");
  std::fprintf(stderr, "wrote %s\n", kFingerprintsPath);
  return 0;
}

int self_test() {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("  %s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  std::printf("generated inputs:\n");
  for (const std::string& w : workload_names()) {
    if (w == "paper_suite") continue;
    const std::string a = generate_sweep(w, 1, false).dump();
    expect(a == generate_sweep(w, 1, false).dump(), w + ": seed 1 gives byte-identical documents");
    expect(a != generate_sweep(w, 2, false).dump(), w + ": seed 2 gives different documents");
  }

  std::printf("oracle:\n");
  // The committed-fingerprint check, fed a fingerprints file of our own.
  RunConfig cfg = make_config("cache_churn", 1, 0.0, false, true);
  const RunRecord plain = run_child(cfg);
  expect(plain.correct && !plain.fps.empty(), "small cache_churn runs clean");
  fs::create_directories(kTempDir);
  cfg.fingerprints = std::string(kTempDir) + "/self-test-fingerprints.json";
  auto write_fingerprints = [&cfg](const std::vector<std::string>& fps) {
    Json list{JsonArray{}};
    for (const std::string& fp : fps) list.push_back(fp);
    Json file{JsonObject{}};
    file.set(cfg.workload, Json{JsonObject{}}.set("small-1", std::move(list)));
    std::ofstream(cfg.fingerprints) << file.dump() << "\n";
  };
  write_fingerprints(plain.fps);
  expect(run_child(cfg).correct, "committed fingerprints are accepted");
  if (!plain.fps.empty()) {
    std::vector<std::string> perturbed = plain.fps;
    perturbed.front().back() = perturbed.front().back() == '0' ? '1' : '0';
    write_fingerprints(perturbed);
    const RunRecord rec = run_child(cfg);
    expect(!rec.correct && rec.failed == 1, "a perturbed fingerprint is caught");
  }
  std::error_code ignored;
  fs::remove(cfg.fingerprints, ignored);
  fs::remove(kTempDir, ignored);  // only once empty

  std::printf("metrics:\n");
  const Json bench = Json::parse_file("BENCHMARK.json");
  for (const auto& [key, defs] : {std::pair{"end_to_end", &end_to_end_metrics()},
                                  std::pair{"per_layer", &per_layer_metrics()}}) {
    const JsonArray& listed = bench.at(key).as_array();
    bool same = listed.size() == defs->size();
    for (std::size_t i = 0; same && i < listed.size(); ++i) {
      const MetricDef& d = (*defs)[i];
      same = listed[i].at("name").as_string() == d.name &&
             listed[i].at("unit").as_string() == d.unit &&
             listed[i].at("better").as_string() == d.better;
    }
    expect(same, std::string("BENCHMARK.json ") + key + " matches the harness's metric table");
  }
  for (const std::string& w : workload_names()) {
    for (bool traced : {false, true}) {
      const RunRecord rec = run_child(make_config(w, 1, 0.0, traced, true));
      const std::string tag = w + (traced ? " traced" : "");
      if (!rec.correct) report_errors({rec});
      expect(rec.correct, tag + ": every case passes its oracle");
      const Json metrics = contract_line({rec}, traced).at("metrics");
      bool named = true;
      for (const Json& m : bench.at(traced ? "per_layer" : "end_to_end").as_array()) {
        const std::string& name = m.at("name").as_string();
        if (!metrics.contains(name) ||
            metrics.at(name).at("unit").as_string() != m.at("unit").as_string()) {
          std::printf("        missing or mis-united: %s\n", name.c_str());
          named = false;
        }
      }
      expect(named, tag + ": every BENCHMARK.json metric is emitted with its unit");
      if (traced) {
        expect(rec.wall_check <= 0.01, tag + ": spans plus unattributed_s cover the wall time");
      }
    }
  }
  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: bench_e2e [--workload W]... [--seed S] [--repeats N] [--seconds T]\n"
               "                 [--out results.json] [--traced trace.json | --trace 0|1]\n"
               "       bench_e2e --compare BASE.json NEW.json\n"
               "       bench_e2e --self-test\n"
               "       bench_e2e --update-fingerprints\n"
               "Run from the repository root.  Workloads:");
  for (const std::string& w : workload_names()) std::fprintf(to, " %s", w.c_str());
  std::fprintf(to, "\n");
}

bool parse_count(const std::string& text, double max, double* out) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size() || !(v >= 0.0) || v > max) return false;
    *out = v;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

int run_main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> args(argv + 1, argv + argc);
  auto need = [&](std::size_t& i) -> const std::string& {
    if (i + 1 >= args.size()) throw std::invalid_argument(args[i] + " needs an argument");
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    double v = 0.0;
    if (a == "--help" || a == "-h") {
      usage(stdout);
      return 0;
    } else if (a == "--self-test") {
      return self_test();
    } else if (a == "--update-fingerprints") {
      return update_fingerprints();
    } else if (a == "--compare") {
      const std::string base = need(i);
      return compare(base, need(i));
    } else if (a == "--workload") {
      const std::string& w = need(i);
      if (!is_known_workload(w)) throw std::invalid_argument("unknown workload '" + w + "'");
      opt.workloads.push_back(w);
    } else if (a == "--seed") {
      if (!parse_count(need(i), 9007199254740991.0, &v) || v != std::floor(v)) {
        throw std::invalid_argument("--seed needs a non-negative integer");
      }
      opt.seed = static_cast<std::uint64_t>(v);
    } else if (a == "--repeats") {
      if (!parse_count(need(i), 1000.0, &v) || v < 1.0 || v != std::floor(v)) {
        throw std::invalid_argument("--repeats needs an integer in [1, 1000]");
      }
      opt.repeats = static_cast<int>(v);
    } else if (a == "--seconds") {
      if (!parse_count(need(i), 3600.0, &v)) {
        throw std::invalid_argument("--seconds needs a number in [0, 3600]");
      }
      opt.seconds = v;
    } else if (a == "--out") {
      opt.out_path = need(i);
    } else if (a == "--traced") {
      opt.trace_path = need(i);
    } else if (a == "--trace") {
      const std::string& t = need(i);
      if (t != "0" && t != "1") throw std::invalid_argument("--trace needs 0 or 1");
      opt.trace_only = t == "1";
    } else if (a == "--child") {
      opt.child = true;
    } else if (a == "--small") {
      opt.small = true;
    } else if (a == "--fingerprints") {
      opt.fingerprints = need(i);
    } else {
      throw std::invalid_argument("unknown argument '" + a + "'");
    }
  }
  if (opt.child) {
    if (opt.workloads.size() != 1) throw std::invalid_argument("--child needs one --workload");
    RunConfig cfg =
        make_config(opt.workloads.front(), opt.seed, opt.seconds, opt.trace_only, opt.small);
    cfg.fingerprints = opt.fingerprints;
    return child_main(std::move(cfg), kReportFd);
  }
  if (opt.trace_only && !opt.trace_path.empty()) {
    throw std::invalid_argument("pick one of --trace 1 and --traced FILE");
  }
  if (opt.workloads.empty()) opt.workloads = workload_names();
  return measure(opt);
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run_main(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    e2e::usage(stderr);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
