// Result of one scenario (or legacy RunConfig) run: per-task timings,
// sampled memory profile, final cache state — the raw material of every
// figure in the paper and of the scenario smoke records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pagecache/memory_manager.hpp"
#include "util/json.hpp"
#include "workflow/compute_service.hpp"

namespace pcs::scenario {

struct RunResult {
  std::vector<wf::TaskResult> tasks;  ///< completed tasks only
  std::vector<cache::CacheSnapshot> profile;
  /// Tasks that permanently failed (out of attempts, resubmission disabled,
  /// or unreachable behind a failed ancestor).  Non-empty only for
  /// on_task_failure: "continue" runs — "fail" turns these into an error.
  std::vector<wf::FailedTask> failed;
  std::size_t retried_tasks = 0;     ///< tasks that consumed > 1 attempt
  std::size_t disruptions_fired = 0; ///< timeline entries the driver fired
  double makespan = 0.0;
  double wall_seconds = 0.0;  ///< host wall-clock spent simulating (Fig 8)
  cache::CacheSnapshot final_state;  ///< cache state at the makespan (cached modes)
  std::size_t final_inactive_blocks = 0;  ///< block counts (A3 ablation)
  std::size_t final_active_blocks = 0;
  // Engine statistics (0 for the engine-less analytic prototype).
  std::uint64_t scheduling_points = 0;
  std::uint64_t fair_share_solves = 0;  ///< batching metric: solves <= points
  std::uint64_t same_time_points = 0;   ///< points sharing the previous timestamp
  /// Dirty components enumerated (not part of result_json: committed
  /// expected reports must stay byte-stable; read it from RunResult).
  std::uint64_t components_solved = 0;
  /// Sampled metric timeline (obs/metrics.hpp; null unless the scenario
  /// enabled `"metrics": {"interval": ...}`).  Purely simulated quantities,
  /// byte-identical across --jobs — but deliberately NOT
  /// part of result_json: committed expected reports must stay byte-stable.
  /// Experiments address it via `"source": "timeline"` series instead.
  util::Json timeline;

  [[nodiscard]] const wf::TaskResult& task(const std::string& name) const;
  // --- availability metrics (ext_availability) -----------------------------
  /// Core-seconds of successful attempts: sum of end - start over completed
  /// tasks (their crash-aborted prior attempts count as wasted).
  [[nodiscard]] double useful_task_seconds() const;
  /// Core-seconds thrown away on crash-killed attempts, of completed and
  /// permanently failed tasks alike.
  [[nodiscard]] double wasted_attempt_seconds() const;
  /// useful / (useful + wasted); 1 when no attempt-seconds were spent.
  [[nodiscard]] double availability() const;
  /// Completed tasks per simulated hour (0 for an empty run).
  [[nodiscard]] double goodput_tasks_per_hour() const;
  /// Phase time of instance `i` (prefix "a<i>:"), synthetic task index
  /// 1-based.
  [[nodiscard]] double read_time(int instance, int step) const;
  [[nodiscard]] double write_time(int instance, int step) const;
  /// Mean over instances of the per-instance summed read (write) phase
  /// durations — the y axes of Fig 5 / Fig 7.
  [[nodiscard]] double mean_instance_read_time() const;
  [[nodiscard]] double mean_instance_write_time() const;
  /// Cache snapshot closest to time `t` (requires probe_period > 0).
  [[nodiscard]] const cache::CacheSnapshot& snapshot_at(double t) const;
};

}  // namespace pcs::scenario
