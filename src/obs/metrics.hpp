// Observability: a registry of named gauges over *simulated* quantities.
//
// Components (page caches, storage services, the engine, compute services)
// register read-only gauge callbacks under '/'-separated names like
// "store/cached_bytes" or "engine/fair_share_solves"; a virtual-time
// sampler daemon (scenario/runner.cpp, `"metrics": {"interval": ...}` in
// ScenarioSpec) reads every gauge at each sampling point and the registry
// assembles a column-oriented timeline document:
//
//   {"interval": 2,
//    "time": [0, 2, 4, ...],
//    "metrics": {"engine/fair_share_solves": [...],
//                "store/cached_bytes": [...], ...}}
//
// Byte-stability contract: gauges read only simulated state, names are
// emitted in sorted order, and sampling happens at deterministic virtual
// times — so the timeline is byte-identical across `--jobs` and repeated
// runs, exactly like every other report in the repo.  Attaching a registry
// is a pure observation: it must never change simulated results
// (tests/obs_test.cpp proves this the same way trace_replay_test proved it
// for recording).
//
// Metric names use '/' (never '.') so experiment series can address
// timeline columns with dotted value paths: "metrics.store/cached_bytes".
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace pcs::obs {

class MetricsError : public std::runtime_error {
 public:
  explicit MetricsError(const std::string& what) : std::runtime_error(what) {}
};

class MetricsRegistry {
 public:
  using Gauge = std::function<double()>;

  /// Register `fn` under `name`.  Names must be unique and must not
  /// contain '.' (dots are path separators in experiment value paths).
  /// Must be called before the first sample().
  void register_gauge(std::string name, Gauge fn);

  [[nodiscard]] bool empty() const { return gauges_.empty(); }
  [[nodiscard]] std::size_t gauge_count() const { return gauges_.size(); }
  [[nodiscard]] std::size_t sample_count() const { return times_.size(); }

  /// Read every gauge at virtual time `now` and append one row.  The first
  /// call seals the registry (sorts gauges by name; later registrations
  /// throw).  Sampling twice at the same virtual time collapses to one row
  /// (the closing sample at the makespan may coincide with the last
  /// periodic tick).
  void sample(double now);

  /// The assembled timeline document (see header comment).  `interval` is
  /// echoed for self-description; pass 0 when sampling was manual.
  [[nodiscard]] util::Json timeline(double interval) const;

 private:
  struct Entry {
    std::string name;
    Gauge fn;
  };
  std::vector<Entry> gauges_;
  bool sealed_ = false;
  std::vector<double> times_;
  std::vector<std::vector<double>> rows_;  ///< one per sample, gauge-ordered
};

}  // namespace pcs::obs
