// The generic scenario runner: every run is a committed scenario, sweep or
// experiment document that this binary can execute, inspect and
// regression-check.
//
// Usage:
//   pcs_cli run <scenario.json> [--trace FILE] [--json] [--dump-effective]
//       [--metrics-interval S] [--timeline FILE] [--trace-viz FILE] [--profile]
//       Run one declarative scenario and print per-task timings (--json for
//       machine-readable output; --dump-effective prints the fully-
//       defaulted spec instead of running).  Observability flags:
//       --metrics-interval/--timeline sample the gauge registry every S
//       simulated seconds and write the byte-stable timeline JSON;
//       --trace-viz exports task/I/O/disruption spans as Chrome trace-event
//       JSON (Perfetto); --profile prints the engine's wall-clock
//       self-profile to stderr (never into simulated reports).
//   pcs_cli sweep <sweep.json> [--jobs N] [--json|--csv] [--list]
//       Expand a sweep file (base scenario × parameter grid/cases) and run
//       every case on a thread pool.  --jobs 0 (the default) means auto =
//       hardware_concurrency.  Reports are in case order and contain
//       only simulated quantities, so stdout is byte-identical for any
//       --jobs value; wall-clock goes to stderr.  --list prints the
//       expanded case labels without running.
//   pcs_cli smoke <scenarios-dir> <record.json> [--update] [--tolerance R]
//       Run every *.json scenario in the directory and compare makespans
//       against the recorded baseline (BENCH_scenarios.json in CI); exits
//       nonzero on any failure or drift.  --update rewrites the record.
//   pcs_cli record <scenario.json> --out run.jsonl [--json] [--anonymize]
//       Run a scenario with the task-log recorder attached, streaming the
//       versioned JSONL log (workflow submissions, task executions, storage
//       I/O ops — including service-attributed background flush/drain
//       traffic) to --out.  Recording never changes simulated times.
//       --anonymize strips workflow/file names and quantizes sizes so the
//       log can be shared (see tracelog/anonymize.hpp).
//   pcs_cli experiment <spec.json> [--jobs N] [--filter LABEL]
//       [--json|--csv|--gnuplot] [--list] [--check] [--update]
//       Run a declarative experiment (experiments/*.json: a sweep plus
//       series/aggregation/expectation definitions — the layer that
//       replaced the per-figure bench binaries).  --jobs 0 (the default)
//       means auto = hardware_concurrency.  Reports contain only
//       simulated quantities, so they are byte-identical for any --jobs;
//       --check diffs against the committed <spec>.expected.json and
//       --update regenerates it.  Exits 1 on failed embedded expectations.
//       --filter LABEL runs only the cases whose label contains LABEL
//       (checks naming filtered-out cases are skipped; incompatible with
//       --check/--update, which need the full report).
//   pcs_cli replay <log.jsonl> [--platform P] [--scale S] [--load N]
//       [--json] [--check] [--window N]
//       Replay a recorded log as a "trace" workload, by default on the
//       scenario embedded in the log's header (so no flags are needed for
//       the closed loop).  --scale multiplies arrival times, --load clones
//       the log N times, --platform substitutes another platform file.
//       --check asserts the replayed makespan and per-task timings are
//       bit-identical to the recorded events (exit 1 on any drift).  The
//       log streams through a tracelog::TaskLogReader cursor in O(live
//       tasks) memory; --window caps its parsed-workflow cache (default 64).
//   pcs_cli trace-info <log.jsonl> [--json]
//       Validate a log and print its summary (workflows, tasks, I/O bytes,
//       makespan) from one streaming pre-scan — event records are counted,
//       never held.  --json prints only simulated quantities, so the output
//       is byte-stable across hosts (CI diffs it).
//   pcs_cli list-backends
//       List the registered storage backend types.
//
// A global --log-level <error|warn|info|debug|trace> flag (accepted in any
// position) maps onto util::Logger, overriding the PCS_LOG environment
// variable.
//
// A missing command, unknown flags and unknown commands print usage and
// exit 2; --help prints it and exits 0.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "metrics/experiment.hpp"
#include "metrics/table.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/profiler.hpp"
#include "storage/service_registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"
#include "simcore/trace.hpp"
#include "tracelog/anonymize.hpp"
#include "tracelog/recorder.hpp"
#include "tracelog/task_log_reader.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/units.hpp"

namespace {

using namespace pcs;

void usage(std::ostream& out) {
  out << "usage: pcs_cli [--log-level error|warn|info|debug|trace] <command> [options]\n"
         "  run <scenario.json> [--seed N] [--trace FILE] [--json] [--dump-effective]\n"
         "      [--metrics-interval S] [--timeline FILE] [--trace-viz FILE] [--profile]\n"
         "  record <scenario.json> --out run.jsonl [--seed N] [--json] [--anonymize]\n"
         "         [--trace-viz FILE]\n"
         "  replay <log.jsonl> [--platform FILE] [--scale S] [--load N] [--json] [--check]\n"
         "         [--trace-viz FILE] [--profile] [--window N]\n"
         "         (no --seed: a recorded stochastic fault schedule replays from the\n"
         "          log's header, so the recorded seed always wins)\n"
         "  trace-info <log.jsonl> [--json]\n"
         "  sweep <sweep.json> [--jobs N] [--json|--csv] [--list] [--progress]  (N=0: auto)\n"
         "  experiment <spec.json> [--jobs N] [--filter LABEL] [--json|--csv|--gnuplot]\n"
         "             (N=0: auto = hardware_concurrency, the default)\n"
         "             [--list] [--check] [--update] [--progress]\n"
         "  smoke <scenarios-dir> <record.json> [--update] [--tolerance REL]\n"
         "  list-backends\n";
}

int usage_error(const std::string& message) {
  std::cerr << message << "\n";
  usage(std::cerr);
  return 2;
}

/// Strict numeric flag parsing: the whole token must convert to a finite
/// number (std::stod also accepts "nan" and "inf"), and failures route
/// through usage_error rather than escaping as std::stod exceptions.
bool parse_number(const std::string& text, double* out) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(text, &pos);
    if (pos != text.size() || !std::isfinite(value)) return false;
    *out = value;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_int(const std::string& text, int* out) {
  double value = 0.0;
  if (!parse_number(text, &value)) return false;
  // Range-check before the cast: float→int conversion of an
  // unrepresentable value is UB.
  if (value < static_cast<double>(std::numeric_limits<int>::min()) ||
      value > static_cast<double>(std::numeric_limits<int>::max())) {
    return false;
  }
  if (value != static_cast<double>(static_cast<int>(value))) return false;
  *out = static_cast<int>(value);
  return true;
}

/// `--seed N`: strict non-negative integer that survives the JSON double
/// (the scenario schema's own constraint).
bool parse_seed(const std::string& text, double* out) {
  double value = 0.0;
  if (!parse_number(text, &value)) return false;
  if (value < 0.0 || value != std::floor(value) || value >= 9007199254740992.0) return false;
  *out = value;
  return true;
}

/// Load a scenario, optionally overriding its "seed" before parsing — the
/// override must land pre-parse so the stochastic fault schedule is
/// materialized from it.
scenario::ScenarioSpec load_scenario(const std::string& path, bool have_seed, double seed) {
  if (!have_seed) return scenario::ScenarioSpec::from_file(path);
  util::Json doc = util::Json::parse_file(path);
  doc.set("seed", seed);
  const std::string dir = std::filesystem::path(path).parent_path().string();
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(doc, dir);
  if (spec.name == "scenario") spec.name = std::filesystem::path(path).stem().string();
  return spec;
}

void print_result_table(const scenario::ScenarioSpec& spec, const scenario::RunResult& result) {
  std::cout << "scenario '" << spec.name << "' (" << spec.simulator << ", chunk "
            << util::format_bytes(spec.chunk_size) << ")\n\n";
  std::cout << "task                          read(s)  compute(s)  write(s)  makespan(s)\n";
  for (const wf::TaskResult& r : result.tasks) {
    std::printf("%-28s %8.2f %11.2f %9.2f %12.2f\n", r.name.c_str(), r.read_time(),
                r.compute_time(), r.write_time(), r.makespan());
  }
  std::cout << "\nscenario makespan: " << util::format_seconds(result.makespan)
            << "  (simulated in " << util::format_seconds(result.wall_seconds)
            << " of wall clock)\n";
}

util::Json result_to_json(const scenario::ScenarioSpec& spec,
                          const scenario::RunResult& result) {
  util::Json doc{util::JsonObject{}};
  doc.set("name", spec.name);
  doc.set("simulator", spec.simulator);
  doc.set("makespan", result.makespan);
  doc.set("wall_seconds", result.wall_seconds);
  util::Json tasks{util::JsonArray{}};
  for (const wf::TaskResult& r : result.tasks) {
    util::Json t{util::JsonObject{}};
    t.set("name", r.name);
    t.set("start", r.start);
    t.set("read_s", r.read_time());
    t.set("compute_s", r.compute_time());
    t.set("write_s", r.write_time());
    t.set("end", r.end);
    tasks.push_back(std::move(t));
  }
  doc.set("tasks", std::move(tasks));
  return doc;
}

int cmd_run(const std::vector<std::string>& args) {
  std::string scenario_path;
  std::string trace_path;
  std::string timeline_path;
  std::string viz_path;
  bool as_json = false;
  bool dump_effective = false;
  bool profile = false;
  bool have_seed = false;
  double seed = 0.0;
  bool have_interval = false;
  double metrics_interval = 0.0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--trace") {
      if (++i >= args.size()) return usage_error("--trace needs an argument");
      trace_path = args[i];
    } else if (arg == "--timeline") {
      if (++i >= args.size()) return usage_error("--timeline needs an argument");
      timeline_path = args[i];
    } else if (arg == "--trace-viz") {
      if (++i >= args.size()) return usage_error("--trace-viz needs an argument");
      viz_path = args[i];
    } else if (arg == "--metrics-interval") {
      if (++i >= args.size()) return usage_error("--metrics-interval needs an argument");
      if (!parse_number(args[i], &metrics_interval) || metrics_interval < 0.0) {
        return usage_error("--metrics-interval: '" + args[i] +
                           "' is not a non-negative number of simulated seconds");
      }
      have_interval = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--seed") {
      if (++i >= args.size()) return usage_error("--seed needs an argument");
      if (!parse_seed(args[i], &seed)) {
        return usage_error("--seed: '" + args[i] + "' is not a non-negative integer < 2^53");
      }
      have_seed = true;
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "--dump-effective") {
      dump_effective = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage_error("unknown flag '" + arg + "'");
    } else if (scenario_path.empty()) {
      scenario_path = arg;
    } else {
      return usage_error("unexpected argument '" + arg + "'");
    }
  }
  if (scenario_path.empty()) return usage_error("run: missing scenario file");

  scenario::ScenarioSpec spec = load_scenario(scenario_path, have_seed, seed);
  // The CLI override leaves the scenario file untouched, so committed
  // scenarios (and their effective docs / recorded logs) keep their bytes
  // while any run can still be sampled ad hoc.
  if (have_interval) spec.metrics_interval = metrics_interval;
  if (!timeline_path.empty() && spec.metrics_interval <= 0.0) {
    return usage_error(
        "--timeline needs metric sampling: pass --metrics-interval S or give the scenario "
        "a \"metrics\": {\"interval\": S} key");
  }
  if (dump_effective) {
    std::cout << spec.to_json().dump(2) << "\n";
    return 0;
  }
  sim::Tracer tracer;
  // In-memory recorder feeding the Chrome-trace exporter; recording is pure
  // observation (trace_replay_test), so attaching it never changes timings.
  tracelog::TaskLogRecorder recorder(nullptr, /*keep_in_memory=*/true);
  obs::EngineProfile engine_profile;
  scenario::RunOptions options;
  if (!trace_path.empty()) options.tracer = &tracer;
  if (!viz_path.empty()) options.recorder = &recorder;
  if (profile) options.profile = &engine_profile;
  scenario::RunResult result = scenario::run_scenario(spec, options);

  if (as_json) {
    std::cout << result_to_json(spec, result).dump(2) << "\n";
  } else {
    print_result_table(spec, result);
  }
  if (!trace_path.empty()) {
    tracer.write(trace_path);
    // Keep stdout machine-readable under --json.
    (as_json ? std::cerr : std::cout)
        << "wrote " << tracer.span_count() << " trace spans to " << trace_path
        << " (open in chrome://tracing)\n";
  }
  if (!timeline_path.empty()) {
    std::ofstream out(timeline_path);
    if (out) out << result.timeline.dump(2) << "\n";
    if (!out) {
      std::cerr << "run: cannot write '" << timeline_path << "'\n";
      return 1;
    }
    (as_json ? std::cerr : std::cout)
        << "wrote metric timeline (" << result.timeline.at("time").size() << " samples, "
        << result.timeline.at("metrics").size() << " metrics) to " << timeline_path << "\n";
  }
  if (!viz_path.empty()) {
    std::ofstream out(viz_path);
    const util::Json doc = obs::chrome_trace(recorder.log());
    if (out) out << doc.dump(2) << "\n";
    if (!out) {
      std::cerr << "run: cannot write '" << viz_path << "'\n";
      return 1;
    }
    (as_json ? std::cerr : std::cout)
        << "wrote " << doc.at("traceEvents").size() << " trace events to " << viz_path
        << " (open in Perfetto / chrome://tracing)\n";
  }
  // Wall-clock self-profile: stderr only, never in simulated reports.
  if (profile) std::cerr << engine_profile.report();
  return 0;
}

int cmd_record(const std::vector<std::string>& args) {
  std::string scenario_path;
  std::string out_path;
  std::string viz_path;
  bool as_json = false;
  bool anonymize = false;
  bool have_seed = false;
  double seed = 0.0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--out") {
      if (++i >= args.size()) return usage_error("--out needs an argument");
      out_path = args[i];
    } else if (arg == "--trace-viz") {
      if (++i >= args.size()) return usage_error("--trace-viz needs an argument");
      viz_path = args[i];
    } else if (arg == "--seed") {
      if (++i >= args.size()) return usage_error("--seed needs an argument");
      if (!parse_seed(args[i], &seed)) {
        return usage_error("--seed: '" + args[i] + "' is not a non-negative integer < 2^53");
      }
      have_seed = true;
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "--anonymize") {
      anonymize = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage_error("unknown flag '" + arg + "'");
    } else if (scenario_path.empty()) {
      scenario_path = arg;
    } else {
      return usage_error("unexpected argument '" + arg + "'");
    }
  }
  if (scenario_path.empty()) return usage_error("record: missing scenario file");
  if (out_path.empty()) return usage_error("record: missing --out log file");

  scenario::ScenarioSpec spec = load_scenario(scenario_path, have_seed, seed);
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "record: cannot write '" << out_path << "'\n";
    return 1;
  }
  // Stream-only: a million-task run never holds its log in memory.
  // Anonymization needs the whole log (consistent renaming), so it records
  // in memory instead and saves the scrubbed log afterwards; --trace-viz
  // also needs the in-memory copy to feed the Chrome-trace exporter.
  tracelog::TaskLogRecorder recorder(anonymize ? nullptr : &out,
                                     /*keep_in_memory=*/anonymize || !viz_path.empty());
  scenario::RunOptions options;
  options.recorder = &recorder;
  scenario::RunResult result = scenario::run_scenario(spec, options);
  if (anonymize) {
    tracelog::TaskLog log = recorder.log();
    tracelog::anonymize(log);
    log.save(out);
    // The exported spans come from the same scrubbed log that is shared.
    if (!viz_path.empty()) {
      std::ofstream viz(viz_path);
      if (viz) viz << obs::chrome_trace(log).dump(2) << "\n";
      if (!viz) {
        std::cerr << "record: cannot write '" << viz_path << "'\n";
        return 1;
      }
    }
  } else if (!viz_path.empty()) {
    std::ofstream viz(viz_path);
    if (viz) viz << obs::chrome_trace(recorder.log()).dump(2) << "\n";
    if (!viz) {
      std::cerr << "record: cannot write '" << viz_path << "'\n";
      return 1;
    }
  }
  out.flush();
  if (!out) {
    // A truncated log (ENOSPC, quota) must fail here, not at replay time.
    std::cerr << "record: writing '" << out_path << "' failed; log is incomplete\n";
    return 1;
  }

  if (as_json) {
    std::cout << result_to_json(spec, result).dump(2) << "\n";
  } else {
    print_result_table(spec, result);
  }
  (as_json ? std::cerr : std::cout)
      << "recorded " << recorder.workflow_count() << " workflows / " << recorder.task_count()
      << " tasks to " << out_path << " (replay with `pcs_cli replay " << out_path << "`)\n";
  if (!viz_path.empty()) {
    (as_json ? std::cerr : std::cout)
        << "wrote Chrome trace to " << viz_path << " (open in Perfetto / chrome://tracing)\n";
  }
  return 0;
}

int cmd_replay(const std::vector<std::string>& args) {
  std::string log_path;
  std::string platform_path;
  std::string viz_path;
  double scale = 1.0;
  int load = 1;
  int window = static_cast<int>(tracelog::TaskLogReader::kDefaultWindow);
  bool as_json = false;
  bool check = false;
  bool profile = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--platform") {
      if (++i >= args.size()) return usage_error("--platform needs an argument");
      platform_path = args[i];
    } else if (arg == "--trace-viz") {
      if (++i >= args.size()) return usage_error("--trace-viz needs an argument");
      viz_path = args[i];
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--window") {
      if (++i >= args.size()) return usage_error("--window needs an argument");
      if (!parse_int(args[i], &window) || window < 1) {
        return usage_error("--window: '" + args[i] + "' is not a positive integer");
      }
    } else if (arg == "--scale") {
      if (++i >= args.size()) return usage_error("--scale needs an argument");
      if (!parse_number(args[i], &scale) || scale <= 0.0) {
        return usage_error("--scale: '" + args[i] + "' is not a positive number");
      }
    } else if (arg == "--load") {
      if (++i >= args.size()) return usage_error("--load needs an argument");
      if (!parse_int(args[i], &load) || load < 1) {
        return usage_error("--load: '" + args[i] + "' is not a positive integer");
      }
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "--check") {
      check = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage_error("unknown flag '" + arg + "'");
    } else if (log_path.empty()) {
      log_path = arg;
    } else {
      return usage_error("unexpected argument '" + arg + "'");
    }
  }
  if (log_path.empty()) return usage_error("replay: missing task log");
  if (check && (scale != 1.0 || load != 1 || !platform_path.empty())) {
    return usage_error(
        "--check needs a default replay (no --scale/--load/--platform): the oracle "
        "compares against the log's own recorded run");
  }
  // Header fields the scenario build needs, from a pre-scan that validates
  // the whole log.  The reader goes out of scope before the run, which
  // streams through the workload's own reader.
  std::string log_scenario;
  std::string log_simulator;
  util::Json source_scenario;
  util::Json fault_schedule;
  double recorded_makespan = 0.0;
  std::size_t recorded_task_events = 0;
  {
    const tracelog::TaskLogReader reader(log_path);
    log_scenario = reader.scenario();
    log_simulator = reader.simulator();
    source_scenario = reader.source_scenario();
    fault_schedule = reader.fault_schedule();
    recorded_makespan = reader.recorded_makespan();
    recorded_task_events = reader.task_event_count();
  }

  // Post-hoc span export: the *recorded* log lowers to Chrome trace events
  // without re-running anything, so committed logs are visualizable as-is.
  if (!viz_path.empty()) {
    std::ofstream viz(viz_path);
    const util::Json doc = obs::chrome_trace(tracelog::TaskLog::from_file(log_path));
    if (viz) viz << doc.dump(2) << "\n";
    if (!viz) {
      std::cerr << "replay: cannot write '" << viz_path << "'\n";
      return 1;
    }
    std::cerr << "wrote " << doc.at("traceEvents").size() << " trace events from the "
              << "recorded log to " << viz_path << " (open in Perfetto / chrome://tracing)\n";
  }

  util::Json workload{util::JsonObject{}};
  workload.set("type", "trace");
  workload.set("file",
               std::filesystem::absolute(log_path).lexically_normal().string());
  if (scale != 1.0) workload.set("time_scale", scale);
  if (load != 1) workload.set("load_factor", load);
  if (window != static_cast<int>(tracelog::TaskLogReader::kDefaultWindow)) {
    workload.set("window", window);
  }

  util::Json doc;
  if (!platform_path.empty()) {
    // A substituted platform invalidates the recorded host bindings
    // (compute_host, per-service "host"/"server_host"), so build a fresh
    // scenario: the new platform, the simulator-derived default service,
    // and every recorded workflow rebound onto it.  Timing-relevant scalars
    // (chunk size, cache params) carry over from the embedded spec.
    doc = util::Json{util::JsonObject{}};
    if (!log_simulator.empty()) doc.set("simulator", log_simulator);
    doc.set("platform", util::Json::parse_file(platform_path));
    if (!source_scenario.is_null()) {
      for (const char* key : {"chunk_size", "cache_params", "solve_batching", "warm_inputs"}) {
        if (source_scenario.contains(key)) {
          doc.set(key, source_scenario.at(key));
        }
      }
    }
    workload.set("service", "store");  // blanket rebind onto the derived default
  } else if (!source_scenario.is_null()) {
    doc = source_scenario;  // the recorded run's effective spec, verbatim
  } else {
    std::cerr << "replay: '" << log_path
              << "' embeds no scenario (header lacks \"source_scenario\"); pass --platform\n";
    return 1;
  }
  doc.set("name", (log_scenario.empty() ? std::string("trace") : log_scenario) + ":replay");
  doc.set("workload", std::move(workload));

  scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(doc);
  if (!fault_schedule.is_null() && platform_path.empty()) {
    // The header's recorded schedule wins over re-materializing from the
    // embedded seed: replay must re-fire exactly what the recorded run saw,
    // even across fault-model generator changes.  (A substituted platform
    // invalidates the recorded host targets, so the schedule is dropped
    // with the rest of the recorded fault keys.)
    spec.materialized_events = scenario::events_from_json(fault_schedule);
  }
  obs::EngineProfile engine_profile;
  scenario::RunOptions options;
  if (profile) options.profile = &engine_profile;
  scenario::RunResult result = scenario::run_scenario(spec, options);
  if (profile) std::cerr << engine_profile.report();

  if (as_json) {
    std::cout << result_to_json(spec, result).dump(2) << "\n";
  } else {
    print_result_table(spec, result);
  }
  if (!check) return 0;

  // The determinism oracle: the replayed run must reproduce the recorded
  // one bit-for-bit — same makespan, same per-task phase boundaries.
  bool failed = false;
  auto mismatch = [&failed](const std::string& what, double got, double want) {
    std::cout << "  DRIFT " << what << ": replayed " << got << ", recorded " << want << "\n";
    failed = true;
  };
  if (result.makespan != recorded_makespan) {
    mismatch("makespan", result.makespan, recorded_makespan);
  }
  if (result.tasks.size() != recorded_task_events) {
    std::cout << "  DRIFT task count: replayed " << result.tasks.size() << ", recorded "
              << recorded_task_events << "\n";
    failed = true;
  }
  // Index once: the oracle must stay linear for million-task logs.
  std::unordered_map<std::string, const wf::TaskResult*> by_name;
  by_name.reserve(result.tasks.size());
  for (const wf::TaskResult& r : result.tasks) by_name[r.name] = &r;
  auto check_event = [&](const tracelog::TraceTaskEvent& event) {
    auto it = by_name.find(event.name);
    const wf::TaskResult* replayed = it == by_name.end() ? nullptr : it->second;
    if (replayed == nullptr) {
      std::cout << "  DRIFT task '" << event.name << "': not replayed\n";
      failed = true;
      return;
    }
    if (replayed->start != event.start) mismatch(event.name + ".start", replayed->start, event.start);
    if (replayed->read_start != event.read_start) {
      mismatch(event.name + ".read_start", replayed->read_start, event.read_start);
    }
    if (replayed->read_end != event.read_end) {
      mismatch(event.name + ".read_end", replayed->read_end, event.read_end);
    }
    if (replayed->compute_end != event.compute_end) {
      mismatch(event.name + ".compute_end", replayed->compute_end, event.compute_end);
    }
    if (replayed->write_end != event.write_end) {
      mismatch(event.name + ".write_end", replayed->write_end, event.write_end);
    }
    if (replayed->end != event.end) mismatch(event.name + ".end", replayed->end, event.end);
  };
  // The recorded task_done events are compared one at a time and dropped,
  // never accumulated, so the check keeps the O(live) memory the replay
  // just ran with.
  std::ifstream in(log_path);
  tracelog::scan_task_log(in, [&](tracelog::TaskLogRecord&& record, std::uint64_t /*offset*/) {
    if (const auto* event = std::get_if<tracelog::TraceTaskEvent>(&record)) check_event(*event);
  });
  if (failed) {
    std::cerr << "replay check FAILED: replayed run diverges from the recorded log\n";
    return 1;
  }
  std::cout << "replay check ok: " << recorded_task_events
            << " task timings and the makespan are bit-identical to the recording\n";
  return 0;
}

int cmd_trace_info(const std::vector<std::string>& args) {
  std::string log_path;
  bool as_json = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--json") {
      as_json = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage_error("unknown flag '" + arg + "'");
    } else if (log_path.empty()) {
      log_path = arg;
    } else {
      return usage_error("unexpected argument '" + arg + "'");
    }
  }
  if (log_path.empty()) return usage_error("trace-info: missing task log");

  // One streaming pre-scan: every printed quantity is a pre-scan accumulator,
  // so inspecting a million-task log never materializes its event records.
  // The output is byte-identical to what the materialized TaskLog produced.
  tracelog::TaskLogReader log(log_path);

  if (as_json) {
    // Only simulated quantities: byte-stable across hosts, so CI can diff it.
    util::Json doc{util::JsonObject{}};
    doc.set("scenario", log.scenario());
    doc.set("simulator", log.simulator());
    doc.set("version", log.version());
    doc.set("anonymized", log.anonymized());
    doc.set("workflows", static_cast<unsigned long>(log.workflows().size()));
    doc.set("tasks", static_cast<unsigned long>(log.task_count()));
    doc.set("task_events", static_cast<unsigned long>(log.task_event_count()));
    doc.set("io_events", static_cast<unsigned long>(log.io_event_count()));
    doc.set("read_bytes", log.total_read_bytes());
    doc.set("written_bytes", log.total_written_bytes());
    doc.set("first_submit", log.first_submit());
    doc.set("last_task_end", log.last_task_end());
    doc.set("makespan", log.recorded_makespan());
    std::cout << doc.dump(2) << "\n";
    return 0;
  }
  std::cout << "task log '" << log_path << "' (schema v" << log.version()
            << (log.anonymized() ? ", anonymized" : "") << ")\n"
            << "  scenario:  " << log.scenario() << " (" << log.simulator() << ")\n"
            << "  workflows: " << log.workflows().size() << " (" << log.task_count()
            << " tasks, " << log.task_event_count() << " executions recorded)\n"
            << "  io ops:    " << log.io_event_count() << " ("
            << util::format_bytes(log.total_read_bytes()) << " read, "
            << util::format_bytes(log.total_written_bytes()) << " written)\n"
            << "  window:    submits from " << util::format_seconds(log.first_submit())
            << ", last task end " << util::format_seconds(log.last_task_end()) << "\n"
            << "  makespan:  " << util::format_seconds(log.recorded_makespan()) << "\n";
  return 0;
}

/// --jobs 0 means auto: one worker per hardware thread (min 1).
int resolved_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int cmd_sweep(const std::vector<std::string>& args) {
  std::string sweep_path;
  int jobs = 0;  // 0 = auto (hardware_concurrency); report bytes are jobs-invariant
  bool as_json = false;
  bool as_csv = false;
  bool list_only = false;
  bool progress = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--jobs") {
      if (++i >= args.size()) return usage_error("--jobs needs an argument");
      if (!parse_int(args[i], &jobs) || jobs < 0) {
        return usage_error("--jobs: '" + args[i] + "' is not a non-negative integer");
      }
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "--csv") {
      as_csv = true;
    } else if (arg == "--list") {
      list_only = true;
    } else if (arg == "--progress") {
      progress = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage_error("unknown flag '" + arg + "'");
    } else if (sweep_path.empty()) {
      sweep_path = arg;
    } else {
      return usage_error("unexpected argument '" + arg + "'");
    }
  }
  if (sweep_path.empty()) return usage_error("sweep: missing sweep file");
  if (as_json && as_csv) return usage_error("sweep: pick one of --json / --csv");

  scenario::SweepSpec spec = scenario::SweepSpec::from_file(sweep_path);
  if (list_only) {
    for (const scenario::SweepCase& c : spec.expand()) std::cout << c.label << "\n";
    return 0;
  }

  scenario::SweepOptions options;
  options.jobs = jobs;
  if (progress) {
    // stderr only: the report on stdout must stay byte-identical with or
    // without the ticker (cli_test asserts this).
    options.progress = [](std::size_t done, std::size_t total, const std::string& label) {
      std::cerr << "[sweep] " << done << "/" << total << " done: " << label << "\n";
    };
  }
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<scenario::SweepCaseResult> results = scenario::run_sweep(spec, options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  bool failed = false;
  for (const scenario::SweepCaseResult& r : results) {
    if (!r.error.empty()) failed = true;
  }

  if (as_json) {
    std::cout << scenario::sweep_report_json(spec, results).dump(2) << "\n";
  } else if (as_csv) {
    std::cout << scenario::sweep_report_csv(results);
  } else {
    std::cout << "sweep '" << spec.name << "': " << results.size() << " cases\n\n";
    std::printf("%-40s %12s %8s %10s\n", "case", "makespan(s)", "tasks", "solves");
    for (const scenario::SweepCaseResult& r : results) {
      if (!r.error.empty()) {
        std::printf("%-40s FAIL %s\n", r.label.c_str(), r.error.c_str());
      } else {
        std::printf("%-40s %12.4f %8zu %10llu\n", r.label.c_str(), r.result.makespan,
                    r.result.tasks.size(),
                    static_cast<unsigned long long>(r.result.fair_share_solves));
      }
    }
  }
  // Wall-clock to stderr: stdout must stay byte-identical across --jobs.
  std::cerr << "[sweep] " << results.size() << " cases in " << wall << " s (jobs="
            << resolved_jobs(jobs) << ")\n";
  return failed ? 1 : 0;
}

int cmd_experiment(const std::vector<std::string>& args) {
  std::string spec_path;
  int jobs = 0;  // 0 = auto (hardware_concurrency); report bytes are jobs-invariant
  bool as_json = false;
  bool as_csv = false;
  bool as_gnuplot = false;
  bool list_only = false;
  bool check = false;
  bool update = false;
  bool progress = false;
  std::string filter;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--jobs") {
      if (++i >= args.size()) return usage_error("--jobs needs an argument");
      if (!parse_int(args[i], &jobs) || jobs < 0) {
        return usage_error("--jobs: '" + args[i] + "' is not a non-negative integer");
      }
    } else if (arg == "--filter") {
      if (++i >= args.size()) return usage_error("--filter needs an argument");
      filter = args[i];
      if (filter.empty()) return usage_error("--filter needs a non-empty label substring");
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "--csv") {
      as_csv = true;
    } else if (arg == "--gnuplot") {
      as_gnuplot = true;
    } else if (arg == "--list") {
      list_only = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--update") {
      update = true;
    } else if (arg == "--progress") {
      progress = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage_error("unknown flag '" + arg + "'");
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      return usage_error("unexpected argument '" + arg + "'");
    }
  }
  if (spec_path.empty()) return usage_error("experiment: missing spec file");
  if (static_cast<int>(as_json) + static_cast<int>(as_csv) + static_cast<int>(as_gnuplot) > 1) {
    return usage_error("experiment: pick one of --json / --csv / --gnuplot");
  }
  if (check && update) return usage_error("experiment: pick one of --check / --update");
  if (!filter.empty() && (check || update)) {
    // A filtered report covers a slice of the cases; it can never match the
    // full committed report and must never overwrite it.
    return usage_error("experiment: --filter cannot be combined with --check / --update");
  }

  metrics::ExperimentSpec spec = metrics::ExperimentSpec::from_file(spec_path);
  if (list_only) {
    for (const scenario::SweepCase& c : spec.sweep.expand()) {
      if (filter.empty() || c.label.find(filter) != std::string::npos) {
        std::cout << c.label << "\n";
      }
    }
    return 0;
  }

  metrics::ExperimentOptions run_options;
  run_options.jobs = jobs;
  run_options.filter = filter;
  if (progress) {
    // stderr only: report bytes stay identical with or without the ticker.
    run_options.progress = [](std::size_t done, std::size_t total, const std::string& label) {
      std::cerr << "[experiment] " << done << "/" << total << " done: " << label << "\n";
    };
  }
  const auto wall_start = std::chrono::steady_clock::now();
  metrics::ExperimentReport report = metrics::run_experiment(spec, run_options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  const std::string report_text = report.json.dump(2) + "\n";
  const std::string expected_path = metrics::ExperimentSpec::expected_path_for(spec_path);

  if (as_json) {
    std::cout << report_text;
  } else if (as_csv) {
    std::cout << metrics::experiment_report_csv(report.json);
  } else if (as_gnuplot) {
    std::cout << metrics::experiment_report_gnuplot(report.json);
    // Figure emission next to the spec: a renderable <spec>.gp script, and
    // the <spec>.svg it draws when a gnuplot binary is on PATH.  File
    // names go to stderr — whether the SVG renders depends on the host,
    // and stdout must stay byte-identical across machines.
    std::filesystem::path gp_path(spec_path);
    gp_path.replace_extension(".gp");
    const std::string svg_name = gp_path.stem().string() + ".svg";
    {
      std::ofstream gp(gp_path);
      if (gp) gp << metrics::experiment_report_gnuplot_script(report.json, svg_name);
      if (!gp) {
        std::cerr << "experiment: cannot write '" << gp_path.string() << "'\n";
        return 1;
      }
    }
    const std::filesystem::path svg_path = gp_path.parent_path() / svg_name;
    const std::string dir =
        gp_path.parent_path().empty() ? std::string(".") : gp_path.parent_path().string();
    // The script writes a relative SVG, so run gnuplot from the spec's
    // directory; errors are the host's business (missing binary, old
    // version), never the report's.
    const std::string command = "cd '" + dir + "' && gnuplot '" +
                                gp_path.filename().string() + "' 2>/dev/null";
    const bool rendered = std::system(nullptr) != 0 &&
                          std::system(command.c_str()) == 0 &&
                          std::filesystem::exists(svg_path);
    if (rendered) {
      std::cerr << "wrote " << gp_path.string() << " and " << svg_path.string() << "\n";
    } else {
      std::cerr << "wrote " << gp_path.string() << " (gnuplot unavailable or no arrays: "
                << svg_path.string() << " not rendered)\n";
    }
  } else {
    std::cout << "experiment '" << spec.name << "'";
    if (!spec.title.empty()) std::cout << ": " << spec.title;
    std::cout << "\n";
    if (!spec.paper_ref.empty()) std::cout << "reproduces: " << spec.paper_ref << "\n";
    std::cout << "\n";
    // Cases x scalar columns; array-valued series stay in the machine
    // formats (--json / --gnuplot).
    std::vector<std::string> headers{"case"};
    std::vector<std::string> scalar_columns;
    const util::Json& cases = report.json.at("cases");
    for (const util::Json& column : report.json.at("columns").as_array()) {
      bool scalar = false;
      for (const util::Json& row : cases.as_array()) {
        if (row.contains("values") && row.at("values").at(column.as_string()).is_number()) {
          scalar = true;
        }
      }
      if (scalar) {
        scalar_columns.push_back(column.as_string());
        headers.push_back(column.as_string());
      }
    }
    metrics::TablePrinter table(headers);
    for (const util::Json& row : cases.as_array()) {
      std::vector<std::string> cells{row.at("label").as_string()};
      if (!row.contains("values")) {
        cells[0] += "  FAIL " + row.at("error").as_string();
        cells.resize(headers.size());
        table.add_row(std::move(cells));
        continue;
      }
      for (const std::string& column : scalar_columns) {
        const util::Json& v = row.at("values").at(column);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v.is_number() ? v.as_number() : 0.0);
        cells.push_back(v.is_number() ? buf : "-");
      }
      table.add_row(std::move(cells));
    }
    table.print(std::cout);
    if (report.json.contains("aggregates")) {
      metrics::print_banner(std::cout, "aggregates");
      std::cout << report.json.at("aggregates").dump(2) << "\n";
    }
    if (report.json.contains("checks")) {
      metrics::print_banner(std::cout, "checks");
      for (const util::Json& c : report.json.at("checks").as_array()) {
        std::cout << "  " << c.at("status").as_string() << "  " << c.at("check").as_string();
        if (c.contains("why")) std::cout << " (" << c.at("why").as_string() << ")";
        std::cout << "\n";
      }
    }
    if (!spec.notes.empty()) metrics::print_note(std::cout, spec.notes);
  }
  // Wall-clock to stderr: stdout stays byte-identical across --jobs.
  std::cerr << "[experiment] " << report.json.at("cases").size() << " cases in " << wall
            << " s (jobs=" << resolved_jobs(jobs) << ")\n";

  if (update) {
    if (!report.cases_ok || !report.checks_ok) {
      std::cerr << "experiment FAILED; expected report not updated\n";
      return 1;
    }
    std::ofstream out(expected_path);
    out << report_text;
    if (!out) {
      std::cerr << "experiment: cannot write '" << expected_path << "'\n";
      return 1;
    }
    std::cerr << "wrote " << expected_path << "\n";
  } else if (check) {
    std::ifstream in(expected_path);
    if (!in) {
      std::cerr << "experiment: no committed report '" << expected_path
                << "' (generate with --update)\n";
      return 1;
    }
    std::string expected((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (expected != report_text) {
      std::cerr << "experiment CHECK FAILED: report drifted from " << expected_path
                << " (regenerate with --update after intentional model changes)\n";
      return 1;
    }
    std::cerr << "experiment check ok: report is byte-identical to " << expected_path << "\n";
  }
  return report.cases_ok && report.checks_ok ? 0 : 1;
}

int cmd_smoke(const std::vector<std::string>& args) {
  std::string dir;
  std::string record_path;
  bool update = false;
  double tolerance = 1e-9;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--update") {
      update = true;
    } else if (arg == "--tolerance") {
      if (++i >= args.size()) return usage_error("--tolerance needs an argument");
      if (!parse_number(args[i], &tolerance) || tolerance < 0.0) {
        return usage_error("--tolerance: '" + args[i] + "' is not a non-negative number");
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage_error("unknown flag '" + arg + "'");
    } else if (dir.empty()) {
      dir = arg;
    } else if (record_path.empty()) {
      record_path = arg;
    } else {
      return usage_error("unexpected argument '" + arg + "'");
    }
  }
  if (dir.empty() || record_path.empty()) {
    return usage_error("smoke: need a scenarios directory and a record file");
  }

  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::cerr << "smoke: no *.json scenarios in '" << dir << "'\n";
    return 1;
  }

  util::Json recorded{util::JsonObject{}};
  if (!update) {
    util::Json doc = util::Json::parse_file(record_path);
    recorded = doc.at("scenarios");
  }

  util::Json fresh{util::JsonObject{}};
  bool failed = false;
  for (const std::filesystem::path& file : files) {
    const std::string name = file.stem().string();
    double makespan = 0.0;
    try {
      makespan = scenario::run_scenario_file(file.string()).makespan;
    } catch (const std::exception& e) {
      std::cout << "  FAIL " << name << ": " << e.what() << "\n";
      failed = true;
      continue;
    }
    fresh.set(name, makespan);
    if (update) {
      std::cout << "  record " << name << ": makespan " << makespan << " s\n";
      continue;
    }
    if (!recorded.contains(name)) {
      std::cout << "  FAIL " << name << ": no recorded makespan (run with --update?)\n";
      failed = true;
      continue;
    }
    const double expected = recorded.at(name).as_number();
    const double drift = std::abs(makespan - expected) /
                         std::max(1.0, std::max(std::abs(makespan), std::abs(expected)));
    if (drift > tolerance) {
      std::cout << "  FAIL " << name << ": makespan " << makespan << " s, recorded "
                << expected << " s (relative drift " << drift << ")\n";
      failed = true;
    } else {
      std::cout << "  ok   " << name << ": makespan " << makespan << " s\n";
    }
  }

  if (update) {
    if (failed) {
      // Never write a partial baseline over the committed record.
      std::cerr << "scenario smoke FAILED; record not updated\n";
      return 1;
    }
    util::Json doc{util::JsonObject{}};
    doc.set("comment",
            "Recorded scenario makespans; regenerate with `pcs_cli smoke <dir> <file> "
            "--update` after intentional model changes.");
    doc.set("scenarios", std::move(fresh));
    std::ofstream out(record_path);
    if (!out) {
      std::cerr << "smoke: cannot write '" << record_path << "'\n";
      return 1;
    }
    out << doc.dump(2) << "\n";
    std::cout << "wrote " << record_path << "\n";
    return 0;
  }
  // Recorded scenarios that vanished from the directory are drift too
  // (scenarios that are present but failed to run were reported above).
  for (const auto& [name, value] : recorded.as_object()) {
    const bool on_disk = std::any_of(files.begin(), files.end(), [&](const auto& file) {
      return file.stem().string() == name;
    });
    if (!on_disk) {
      std::cout << "  FAIL " << name << ": recorded but not present in '" << dir << "'\n";
      failed = true;
    }
  }
  if (failed) {
    std::cerr << "scenario smoke FAILED\n";
    return 1;
  }
  return 0;
}

int cmd_list_backends() {
  std::cout << "registered storage backends:\n";
  for (const std::string& type : storage::ServiceRegistry::instance().types()) {
    std::cout << "  " << type << "\n";
  }
  return 0;
}

}  // namespace

/// Global `--log-level <lvl>`: extracted (anywhere on the command line)
/// before command dispatch, so every subcommand honours it.  Same scale as
/// the PCS_LOG environment variable; the flag wins because it is set later.
/// Returns -1 to continue, or an exit code.
int extract_log_level(std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] != "--log-level") continue;
    if (i + 1 >= args.size()) return usage_error("--log-level needs an argument");
    const std::string& name = args[i + 1];
    util::LogLevel level;
    if (name == "error") {
      level = util::LogLevel::Error;
    } else if (name == "warn") {
      level = util::LogLevel::Warn;
    } else if (name == "info") {
      level = util::LogLevel::Info;
    } else if (name == "debug") {
      level = util::LogLevel::Debug;
    } else if (name == "trace") {
      level = util::LogLevel::Trace;
    } else {
      return usage_error("--log-level: unknown level '" + name +
                         "' (pick error|warn|info|debug|trace)");
    }
    util::Logger::instance().set_level(level);
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
               args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    --i;
  }
  return -1;
}

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (const int code = extract_log_level(args); code >= 0) return code;
  if (args.empty()) return usage_error("missing command");
  const std::string& command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (command == "run") return cmd_run(rest);
    if (command == "record") return cmd_record(rest);
    if (command == "replay") return cmd_replay(rest);
    if (command == "trace-info") return cmd_trace_info(rest);
    if (command == "sweep") return cmd_sweep(rest);
    if (command == "experiment") return cmd_experiment(rest);
    if (command == "smoke") return cmd_smoke(rest);
    if (command == "list-backends") return cmd_list_backends();
    if (command == "--help" || command == "-h") {
      usage(std::cout);
      return 0;
    }
    if (command[0] == '-') return usage_error("unknown flag '" + command + "'");
    return usage_error("unknown command '" + command + "'");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
