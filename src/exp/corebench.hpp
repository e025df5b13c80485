// The engine-core benchmark scenario shared by bench_micro_core and the
// determinism regression tests.
//
// A configurable fleet of actors performs rounds of simulated I/O on
// per-group disk and link resources.  Groups are independent fair-share
// components, so the scenario stresses exactly what the incremental solver
// optimizes: at every scheduling point only a handful of the thousands of
// running activities actually change rate.  The result carries both host
// wall-clock metrics (for BENCH_core.json) and simulated-time fingerprints
// (for determinism assertions across engine refactors).
#pragma once

#include <cstdint>

namespace pcs::obs {
struct EngineProfile;
}

namespace pcs::exp {

struct CoreScenarioConfig {
  int actors = 1000;     ///< concurrent root actors (per tenant)
  int groups = 100;      ///< independent resource groups (disk + link each)
  int rounds = 20;       ///< I/O rounds per actor
  double work_mean = 1e6;         ///< mean work units per operation
  double disk_bw = 2.0e8;         ///< per-group disk capacity (units/s)
  double link_bw = 1.0e9;         ///< per-group link capacity (units/s)
  std::uint64_t seed = 42;        ///< per-actor workload RNG seed base
  /// Re-run the full fair-share solve after every incremental solve and
  /// fail on any rate divergence (slow; used by the determinism tests).
  bool solver_cross_check = false;
  /// Timestamp-batched solving (Engine::set_solve_batching); false = the
  /// per-event reference mode for the batching A/B.
  bool solve_batching = true;
  /// Independent tenants: the whole actor/resource population is cloned
  /// this many times with identical per-actor seeds, so tenant event
  /// timestamps align and every batched scheduling point carries many
  /// dirty components.  1 keeps the classic single-tenant scenario
  /// byte-identical to before.
  int tenants = 1;
  /// When >= 0: a crash driver cancels every actor of `crash_tenant` at
  /// this virtual time (Engine::cancel_group), mimicking a host_crash
  /// disruption mid-run.  Requires tenants > 1.
  double crash_time = -1.0;
  int crash_tenant = 0;
  /// Optional wall-clock self-profile (obs/profiler.hpp), attached via
  /// Engine::set_profiler.  Pure host-side instrumentation — simulated
  /// fingerprints are unchanged whether it is set or not.
  obs::EngineProfile* profile = nullptr;
};

struct CoreScenarioResult {
  double wall_seconds = 0.0;       ///< host time spent inside Engine::run
  double final_vtime = 0.0;        ///< virtual time when the last actor ended
  std::uint64_t scheduling_points = 0;
  std::uint64_t fair_share_solves = 0;  ///< the batching A/B metric
  std::uint64_t same_time_points = 0;
  std::uint64_t activities = 0;    ///< total activities submitted
  /// Sum over actors of every post-await virtual timestamp, accumulated in
  /// actor-index order: any change in event ordering or simulated durations
  /// changes this fingerprint.
  double completion_checksum = 0.0;
  /// Integer fingerprint: sum of llround(now * 1e9) over the same events.
  /// Exact (no float rounding in the accumulation), so it detects any
  /// nanosecond-scale divergence while staying immune to sub-ns ulp noise.
  std::uint64_t checksum_ns = 0;
  std::uint64_t components_solved = 0;  ///< dirty components enumerated
  std::uint64_t cancelled_activities = 0;  ///< from the crash driver, if any
};

CoreScenarioResult run_core_scenario(const CoreScenarioConfig& config);

/// The ~100k-actor stress shape from ISSUE 7: the 1000-actor scenario
/// cloned across `tenants` independent tenants (identical seeds => aligned
/// timestamps => many dirty components per scheduling point), with rounds
/// cut to 3 to keep Release wall time in benchmark territory.
CoreScenarioConfig mega_tenant_config(int tenants);

}  // namespace pcs::exp
