// Declarative scenarios: one JSON document describing a complete simulated
// experiment — platform, storage services, simulator kind, cache
// parameters and workload — parsed into a ScenarioSpec and executed by the
// runner (runner.hpp).  Scenarios are data: every committed example is a
// scenarios/*.json file runnable as `pcs_cli run <file>`.
//
// Schema (see README "Scenario files" for the full reference):
//   {
//     "name": "nfs_cluster",
//     "simulator": "wrench_cache",        // wrench_cache|wrench|reference|prototype
//     "platform": {...},                  // platform doc, or "platform_file": "p.json"
//     "compute_host": "compute0",         // default: first host in the doc
//     "services": [{"name": "store", "type": "nfs", ...}],  // default: derived
//     "default_service": "store",         //   from the simulator kind
//     "workload": {"type": "synthetic", "instances": 8, ...},
//     "chunk_size": "100 MB",
//     "probe_period": 5,                  // seconds; 0 = no memory probe
//     "metrics": {"interval": 2},         // gauge sampler period; absent = off
//     "cache_params": {"dirty_ratio": 0.2, ...},
//     "warm_inputs": true,                // Exp 3 server-side warm staging
//     "retry": {"max_attempts": 2, "backoff": 5, ...},  // crash recovery policy
//     "on_task_failure": "fail",          // or "continue" (partial completion)
//     "events": [                         // virtual-time disruption timeline
//       {"type": "host_crash", "time": 40, "host": "node0", "restart_at": 60},
//       {"type": "service_degrade", "time": 10, "service": "store", "factor": 0.5},
//       {"type": "service_restore", "time": 30, "service": "store"},
//       {"type": "service_add", "time": 20, "service": {"name": "s2", ...}},
//       {"type": "service_remove", "time": 80, "service": "s2"},
//       {"type": "tenant_arrival", "time": 50, "prefix": "t1:", "workload": {...}}
//     ],
//     "seed": 42,                         // scenario PRNG seed (sweepable)
//     "fault_model": {...}                // stochastic fault generators; the
//   }                                     //   schedule they draw is merged with
//                                         //   "events" (see faults/fault_model.hpp)
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "pagecache/kernel_params.hpp"
#include "util/json.hpp"
#include "workflow/workflow.hpp"

namespace pcs::scenario {

class ScenarioError : public std::runtime_error {
 public:
  explicit ScenarioError(const std::string& what) : std::runtime_error(what) {}
};

/// One storage service declaration, normalized (name and host/disk defaults
/// resolved at parse time).
struct ServiceDecl {
  std::string name;
  std::string type;
  util::Json spec;  ///< the full backend spec handed to the registry builder
};

/// One entry of the scenario's "events" array: a disruption the driver
/// actor fires at an exact virtual time.  Which fields apply depends on
/// `type` (see the schema comment above); parse() validates per type.
struct DisruptionEvent {
  std::string type;  ///< host_crash | service_degrade | service_restore |
                     ///< service_add | service_remove | tenant_arrival
  double time = 0.0;
  std::string host;          ///< host_crash
  double restart_at = -1.0;  ///< host_crash: optional cold-cache restart (< 0 = none)
  std::string service;       ///< degrade/restore/remove target
  double factor = 1.0;       ///< service_degrade bandwidth factor, in (0, 1]
  util::Json service_spec;   ///< service_add: a full service declaration
  util::Json workload;       ///< tenant_arrival: a workload document
  std::string prefix;        ///< tenant_arrival: namespace for the new tenant
};

struct ScenarioSpec {
  std::string name = "scenario";
  std::string simulator = "wrench_cache";
  util::Json platform;  ///< inline platform document (files are resolved at parse)
  std::string compute_host;
  std::vector<ServiceDecl> services;  ///< built in declaration order
  std::string default_service;        ///< what compute tasks use
  std::string probe_service;          ///< what the memory probe watches
  util::Json workload;
  double chunk_size = 100.0e6;
  double probe_period = 0.0;
  bool warm_inputs = false;
  /// Engine knob (Engine::set_solve_batching): false selects the per-event
  /// reference solver mode, for batching ablations driven from JSON sweeps.
  bool solve_batching = true;
  /// Metrics sampler (obs/metrics.hpp): `"metrics": {"interval": N}` makes
  /// the runner sample every registered gauge each N virtual seconds into a
  /// byte-stable timeline on RunResult.  0 = no sampler.  to_json emits the
  /// key only when enabled so pre-observability documents round-trip
  /// byte-identically.
  double metrics_interval = 0.0;
  cache::CacheParams cache_params;
  std::string base_dir;  ///< resolves relative "file" refs in the workload
  /// Fault injection (all optional; to_json emits these keys only when
  /// used, so pre-fault scenario documents round-trip byte-identically).
  std::vector<DisruptionEvent> events;
  wf::RetryPolicy retry;     ///< scenario-wide crash recovery policy
  bool has_retry = false;    ///< "retry" was present in the document
  std::string on_task_failure = "fail";  ///< "fail" | "continue"
  /// Stochastic fault layer (faults/fault_model.hpp).  "seed" and the raw
  /// "fault_model" block round-trip through to_json; the materialized
  /// schedule deliberately does NOT — it is re-derived from them at parse
  /// time (pure in model + seed), or overridden verbatim from a recorded
  /// log's "fault_schedule" header on replay.
  std::uint64_t seed = 0;  ///< scenario PRNG seed ("seed", sweepable)
  bool has_seed = false;   ///< "seed" was present in the document
  util::Json fault_model;  ///< raw "fault_model" block (null when absent)
  /// Generated disruption timeline; the runner fires these after the
  /// literal `events` (stable-sorted together by time).
  std::vector<DisruptionEvent> materialized_events;
  /// From fault_model.checkpoint; interval 0 = PR 6 scratch-restart.
  wf::CheckpointPolicy checkpoint;

  /// Parse and normalize; throws ScenarioError on malformed documents.
  static ScenarioSpec parse(const util::Json& doc, const std::string& base_dir = "");
  static ScenarioSpec from_file(const std::string& path);

  /// The effective, fully-defaulted document (what `pcs_cli run
  /// --dump-effective` prints); parses back to an equivalent spec.
  [[nodiscard]] util::Json to_json() const;
};

/// Serialize disruption events in the scenario "events" schema.  Shared by
/// to_json and the tracelog "fault_schedule" header field.
[[nodiscard]] util::Json events_to_json(const std::vector<DisruptionEvent>& events);

/// Parse an events array back into DisruptionEvents without scenario-level
/// context validation (host/service existence) — the replay path, where the
/// array was recorded from an already-validated run.  Still rejects
/// structurally malformed entries, naming the offending index.
[[nodiscard]] std::vector<DisruptionEvent> events_from_json(const util::Json& array);

}  // namespace pcs::scenario
