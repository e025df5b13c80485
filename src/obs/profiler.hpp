// Observability: wall-clock self-profiling of the engine's hot paths.
//
// An EngineProfile accumulates real (steady_clock) time per engine section
// — recompute_rates as a whole, the dirty-set BFS, the component solves,
// the component merge, and timed-event dispatch.
// The engine only reads the clock when a profile is attached
// (Engine::set_profiler), so the unprofiled hot path stays untouched.
//
// Wall-clock numbers are *never* part of simulated reports: they go to
// stderr (`pcs_cli ... --profile`) and to the `self_profile` section of
// BENCH_core.json — the same quarantine every other wall-clock figure in
// the repo lives under.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "util/json.hpp"

namespace pcs::obs {

struct ProfileSection {
  double seconds = 0.0;
  std::uint64_t count = 0;

  void add(double s) {
    seconds += s;
    ++count;
  }
};

struct EngineProfile {
  ProfileSection recompute_rates;  ///< whole recompute (BFS + solve + merge)
  ProfileSection bfs;              ///< dirty-set connected-component enumeration
  ProfileSection solve;            ///< component solves
  ProfileSection merge;            ///< rate merge + completion rescheduling
  ProfileSection dispatch;         ///< coroutine dispatch (Engine::drain_ready)

  [[nodiscard]] util::Json to_json() const;

  /// Human-readable report (for `--profile` on stderr).
  [[nodiscard]] std::string report() const;
};

/// RAII timer charging a section on destruction; no-op when `section` is
/// null, so call sites stay branch-light:
///   obs::ScopedTimer t(profile_ ? &profile_->bfs : nullptr);
class ScopedTimer {
 public:
  explicit ScopedTimer(ProfileSection* section) : section_(section) {
    if (section_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (section_ != nullptr) {
      section_->add(std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
                        .count());
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  ProfileSection* section_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pcs::obs
