// Executes a ScenarioSpec: builds a wf::Simulation — platform from the
// spec's JSON, storage services through the backend registry, workflows
// through the workload generators — runs it and returns a RunResult.
// Construction order is fixed (services, probe, compute service,
// per-instance submission, server-side warm-up): it is the order of the
// original hand-built harness, and the golden equivalence record pins
// scenario-built runs bit-identical to it (see
// tests/scenario_equivalence_test.cpp).
#pragma once

#include "scenario/run_result.hpp"
#include "scenario/scenario.hpp"

namespace pcs::sim {
class Tracer;
}

namespace pcs::tracelog {
class TaskLogRecorder;
}

namespace pcs::obs {
struct EngineProfile;
}

namespace pcs::scenario {

struct RunOptions {
  /// Record every completed activity as a Chrome-trace span (engine-backed
  /// simulators only; the analytic prototype has no engine).
  sim::Tracer* tracer = nullptr;
  /// Record the run as a structured task log (workflow submissions, task
  /// executions, storage I/O ops) replayable as a "trace" workload.
  /// Engine-backed simulators only.  Recording is pure observation: a
  /// recorded run's RunResult is bit-identical to an unrecorded one.
  tracelog::TaskLogRecorder* recorder = nullptr;
  /// Accumulate wall-clock engine self-profiling (obs/profiler.hpp) into
  /// this profile.  Wall-clock only — never enters simulated results.
  obs::EngineProfile* profile = nullptr;
};

/// Run a scenario to completion.  Throws ScenarioError (bad specs),
/// plus whatever the platform/storage/workload layers throw.
RunResult run_scenario(const ScenarioSpec& spec, const RunOptions& options = {});

/// Parse `path` and run it (relative workload/platform refs resolve
/// against the file's directory).
RunResult run_scenario_file(const std::string& path, const RunOptions& options = {});

}  // namespace pcs::scenario
