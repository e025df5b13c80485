// The discrete-event simulation engine.
//
// Single-threaded, deterministic.  Simulated "processes" are C++20
// coroutines (sim::Task) spawned as root actors; they suspend on awaitables
// (sleep, activities, mutexes, mailboxes) and the engine resumes them as
// virtual time advances.  Between scheduling points the engine solves a
// max-min fair allocation of resource capacities to running activities,
// exactly the flow-level approach of SimGrid on which WRENCH (and therefore
// the paper's results) is built.
//
// The solver is *incremental* (SimGrid's lazy/partial-invalidation idea):
// events mark the resources they touch dirty, and the next scheduling point
// re-solves only the connected components of the activity/resource
// incumbency graph reachable from dirty resources.  Activities elsewhere
// keep their rates, their progress is tracked lazily through per-activity
// last-update timestamps, and their completion times sit unchanged in a
// min-heap — so an event's cost scales with the size of the component it
// touched, not with the number of running activities.  The heap is
// addressable: it holds each running activity with a finite completion time
// exactly once, the arena records every slot's index in it (`heap_pos`),
// and a re-solved activity's entry moves in place.  The allocation a
// component solve produces is bit-identical to a full progressive-filling
// solve (components do not interact, and iteration orders are preserved);
// `set_solver_cross_check(true)` — default in PCS_DEBUG_INVARIANTS builds —
// verifies exactly that after every solve.
//
// Scheduling points are *timestamp-batched*: all completions and timers
// that share the current virtual time (within the engine tolerance) are
// drained, their waiters resumed and their submissions collected, before a
// single dirty-set BFS + incremental re-solve runs.  The classic per-event
// model (one solve after every completion, submission and capacity change —
// how eager flow-level simulators behave) is kept behind
// `set_solve_batching(false)` as the A/B reference: both modes are
// bit-identical in results (a solve is a pure function of the incumbency
// graph, and no virtual time passes between the events of a batch), the
// batched mode just performs fewer solves — see `fair_share_solves()` and
// the `solve_batching` section of BENCH_core.json.
//
// Termination: the run loop ends when every non-daemon root actor has
// finished.  Daemon actors (the Memory Manager's periodic-flush thread,
// Algorithm 1 of the paper, is an infinite loop) are simply abandoned at
// that point, mirroring SimGrid's daemonized actors.
//
// Threading: one Engine per thread.  An Engine and everything built on it
// (resources, activities, actors) is driven from a single thread — the
// fair-share solve included — and globals it touches (util::Logger's clock)
// are thread-local, so fully independent simulations may run on concurrent
// threads (this is what scenario::run_sweep does), but a single Engine must
// never be shared.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/activity.hpp"
#include "simcore/resource.hpp"
#include "simcore/task.hpp"

namespace pcs::obs {
struct EngineProfile;
}

namespace pcs::sim {

class SimulationError : public std::runtime_error {
 public:
  explicit SimulationError(const std::string& what) : std::runtime_error(what) {}
};

/// Awaitable for Engine::sleep.
class SleepAwaiter {
 public:
  SleepAwaiter(Engine& engine, double wake_time) : engine_(engine), wake_time_(wake_time) {}
  [[nodiscard]] bool await_ready() const noexcept;
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}

 private:
  Engine& engine_;
  double wake_time_;
};

class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time in seconds.
  [[nodiscard]] double now() const { return now_; }

  // --- resources ---------------------------------------------------------

  /// Create a resource owned by the engine.  Capacity in work-units/second.
  Resource* new_resource(std::string name, double capacity);

  // --- activities --------------------------------------------------------

  /// Start `amount` units of work over the claimed resources; the returned
  /// awaitable suspends the calling actor until completion.  `bound` caps
  /// the activity's own rate (e.g. a single core's speed).  Zero or
  /// negative amounts complete immediately (the paper's flush/evict
  /// functions "simply return" on negative arguments).
  ActivityAwaiter submit(std::string label, std::vector<Claim> claims, double amount,
                         double bound = std::numeric_limits<double>::infinity());

  /// Fire-and-forget variant: the activity progresses without a waiter.
  ActivityPtr submit_detached(std::string label, std::vector<Claim> claims, double amount,
                              double bound = std::numeric_limits<double>::infinity());

  // --- actors ------------------------------------------------------------

  /// Register a root actor; it starts when run() reaches the current time.
  /// Daemon actors do not keep the simulation alive.  `group` tags the root
  /// for cancel_group (empty = not cancellable as a group).
  void spawn(std::string name, Task<> task, bool daemon = false, std::string group = {});

  /// Cancel every live root actor tagged with `group` (fault injection:
  /// a host crash kills all actors of that host).  Cancellation is
  /// *deferred*: the roots are marked here, and their coroutine frames are
  /// destroyed at the next point where no actor is mid-execution (the ready
  /// queue's drain loop), so an actor may safely cancel its own group.
  /// Destroying a suspended frame unwinds the whole coroutine chain via
  /// normal C++ destruction — child Task locals destroy their frames
  /// recursively, LockGuards release mutexes, root_guard retires the root —
  /// and activities whose waiter died are retired from their resources.
  /// Returns the number of roots marked.
  std::size_t cancel_group(const std::string& group);

  /// Activities retired because their awaiting actor was cancelled.
  [[nodiscard]] std::uint64_t cancelled_activities() const { return cancelled_activities_; }

  /// Resume `h` at the current time, after already-queued resumptions.
  /// Used by synchronization primitives; not part of the typical user API.
  /// The FrameRef overload preserves a generation captured at suspension
  /// time (wake paths must not re-capture: a recycled frame address would
  /// alias a different live coroutine).
  void schedule(std::coroutine_handle<> h) { schedule(FrameRef::capture(h)); }
  void schedule(FrameRef ref) { ready_.push_back(ref); }
  /// Resume `h` at absolute virtual time `t` (>= now).
  void schedule_at(double t, std::coroutine_handle<> h);

  /// Sleep for `dt` seconds of virtual time (dt <= 0 resumes immediately,
  /// still yielding to other ready actors).
  [[nodiscard]] SleepAwaiter sleep(double dt) { return {*this, now_ + (dt > 0 ? dt : 0)}; }
  [[nodiscard]] SleepAwaiter sleep_until(double t) { return {*this, t}; }

  // --- execution ---------------------------------------------------------

  /// Run until all non-daemon actors finish.  Throws SimulationError on
  /// deadlock (event sources exhausted with unfinished non-daemon actors)
  /// and rethrows the first uncaught actor exception.
  void run();

  /// Run at most until virtual time `t` (useful for incremental probing).
  void run_until(double t);

  /// True once every non-daemon root actor has completed.  O(1): spawn
  /// wraps each non-daemon root in a completion guard that maintains a
  /// live-root counter, so 10k-actor fleets don't rescan the root list at
  /// every scheduling point.
  [[nodiscard]] bool all_actors_done() const;

  /// Non-daemon root actors not yet finished.
  [[nodiscard]] std::size_t live_root_count() const { return live_roots_; }

  // --- introspection -----------------------------------------------------

  [[nodiscard]] std::size_t running_activity_count() const { return running_.size(); }
  [[nodiscard]] std::uint64_t scheduling_points() const { return scheduling_points_; }

  /// Incremental fair-share solves performed so far (recompute_rates calls
  /// with a non-empty dirty set).  The batching ablation metric: batched
  /// runs perform one solve per *timestamp*, per-event runs one per event.
  [[nodiscard]] std::uint64_t fair_share_solves() const { return solves_; }
  /// Scheduling points that shared their virtual time with the previous one
  /// (within the engine tolerance) — the batching opportunity.
  [[nodiscard]] std::uint64_t same_time_points() const { return same_time_points_; }

  /// Attach a Tracer; every completed activity is recorded as a span.
  /// Pass nullptr to detach.  The tracer must outlive the engine's use.
  void set_tracer(class Tracer* tracer) { tracer_ = tracer; }

  /// Attach a wall-clock self-profile (obs/profiler.hpp): the engine
  /// accumulates real time spent in recompute_rates, the dirty-set BFS,
  /// component solving, the merge and timed-event dispatch.  Pass nullptr
  /// to detach (default — the hot path then never reads the clock).
  /// Wall-clock only: attaching never perturbs simulated results.  The
  /// profile must outlive the engine's use.
  void set_profiler(obs::EngineProfile* profile) { profiler_ = profile; }

  /// Re-run the full progressive-filling solve after every incremental
  /// solve and throw SimulationError if any rate differs.  Defaults to on
  /// in PCS_DEBUG_INVARIANTS builds; tests enable it explicitly elsewhere.
  void set_solver_cross_check(bool enabled) { cross_check_ = enabled; }
  [[nodiscard]] bool solver_cross_check() const { return cross_check_; }

  /// Timestamp-batched solving (default on): all events sharing the current
  /// virtual time dirty resources first, then one fair-share solve covers
  /// them.  Off = the per-event reference mode: every submission,
  /// completion and capacity change re-solves its component immediately.
  /// Results are bit-identical either way (see engine_determinism_test);
  /// only fair_share_solves() differs.  Toggle between runs, not mid-run.
  void set_solve_batching(bool enabled) { solve_batching_ = enabled; }
  [[nodiscard]] bool solve_batching() const { return solve_batching_; }

  /// Total dirty connected components solved (across all scheduling
  /// points); >= fair_share_solves() since one solve covers every
  /// component dirtied at its timestamp.
  [[nodiscard]] std::uint64_t components_solved() const { return components_solved_; }

  /// Internal (called by Resource::set_capacity and activity lifecycle):
  /// mark a resource's fair-share component for re-solving.
  void mark_resource_dirty(Resource* resource);

  /// The arena backing all activity storage (SoA hot fields + cold slab).
  /// Shared with external ActivityRef handles, which may outlive the
  /// engine.  Exposed read-only for tests and the alloc/* memory gauges.
  [[nodiscard]] const ActivityArena& arena() const { return *arena_; }

  /// Check the completion heap against the arena: every entry's `heap_pos`
  /// is its index, no parent completes after its child, and a running
  /// activity is queued exactly when its completion time is finite.
  /// Throws SimulationError on a violation.  PCS_DEBUG_INVARIANTS builds run
  /// it after every fair-share solve.
  void check_completion_heap() const;

 private:
  friend class Resource;  // set_capacity triggers the per-event solve

  struct Timer {
    double time;
    std::uint64_t seq;
    FrameRef ref;  ///< generation captured at arming; dead frames don't fire
    bool operator>(const Timer& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  struct RootActor {
    std::string name;
    Task<> task;
    bool daemon;
    std::string group;           ///< cancel_group tag; empty = uncancellable
    bool cancel_pending = false; ///< marked by cancel_group, cleared at sweep
  };

  /// Wraps a non-daemon root so its completion — normal, by exception, or
  /// by frame teardown — decrements live_roots_ exactly once.
  [[nodiscard]] Task<> root_guard(Task<> inner);
  /// Per-event mode: solve immediately after an event dirtied resources.
  /// A no-op in batched mode or when nothing is dirty.
  void solve_if_per_event() {
    if (!solve_batching_ && !dirty_resources_.empty()) recompute_rates();
  }
  void recompute_rates();
  /// Sort + sync + solve one component.
  void solve_component(std::vector<ActivitySlot>& acts);
  /// Progressive filling restricted to `acts` (sorted by id) and the
  /// resources they claim; writes the arena's rate array.
  void solve_subset(const std::vector<ActivitySlot>& acts);
  /// Materialize remaining work at the current virtual time.
  void sync_remaining(ActivitySlot slot);
  /// Refresh the completion time, then queue the slot, move its heap entry
  /// in place, or dequeue it if the activity no longer progresses.
  void update_completion(ActivitySlot slot);
  /// Earliest queued completion time; kInf if none.
  [[nodiscard]] double heap_top_time() const;
  /// The completion-heap order: by completion time, then by id (submission
  /// order).  Ids are unique, so this is a strict total order.
  [[nodiscard]] bool completes_before(ActivitySlot x, ActivitySlot y) const;
  /// Store `slot` at heap index `pos` after moving it towards the root or
  /// the leaves until the heap order holds; every entry it passes gets its
  /// new `heap_pos`.
  void sift_up(std::size_t pos, ActivitySlot slot);
  void sift_down(std::size_t pos, ActivitySlot slot);
  /// Whichever of sift_up / sift_down restores the order at `pos`.
  void reposition(std::size_t pos, ActivitySlot slot);
  /// Take `slot` out of the completion heap; a no-op if it is not queued.
  void dequeue(ActivitySlot slot);
  void register_claims(ActivitySlot slot);
  void deregister_claims(ActivitySlot slot);
  /// Full-solve determinism cross-check; throws on divergence.
  void verify_full_solve();
  /// Runs every ready coroutine; returns number resumed.
  std::size_t drain_ready();
  /// Destroy the frames of roots marked by cancel_group, then retire
  /// activities orphaned by the teardown.  Only called from drain_ready,
  /// where no coroutine is mid-execution.
  void process_pending_cancellations();
  /// Retire a running activity whose waiter died: deregister claims, free
  /// its share of every resource, wake nobody.
  void cancel_activity(ActivitySlot slot);
  void complete_activity(ActivitySlot slot);
  void step(double time_limit);

  double now_ = 0.0;
  bool running_loop_ = false;
  bool solve_batching_ = true;
  bool cross_check_ =
#ifdef PCS_DEBUG_INVARIANTS
      true;
#else
      false;
#endif
  std::uint64_t next_id_ = 1;
  std::uint64_t scheduling_points_ = 0;
  std::uint64_t solves_ = 0;
  std::uint64_t components_solved_ = 0;
  std::uint64_t same_time_points_ = 0;
  double last_sp_time_ = -std::numeric_limits<double>::infinity();
  std::uint64_t visit_mark_ = 0;
  std::size_t live_roots_ = 0;
  bool cancellations_pending_ = false;
  std::uint64_t cancelled_activities_ = 0;

  Tracer* tracer_ = nullptr;
  obs::EngineProfile* profiler_ = nullptr;
  /// Activity storage: SoA hot arrays + cold slab, shared with external
  /// handles (which may outlive the engine — teardown clears the arena's
  /// engine back-pointer, exactly like the old shared_ptr detach).
  std::shared_ptr<ActivityArena> arena_;
  std::vector<std::unique_ptr<Resource>> resources_;
  /// Running activity slots, unordered (swap-remove via arena run_index).
  std::vector<ActivitySlot> running_;
  std::vector<Resource*> dirty_resources_;
  /// Binary min-heap of running slots in completes_before order; each slot
  /// finds its own entry through the arena's heap_pos.
  std::vector<ActivitySlot> completions_;
  std::deque<FrameRef> ready_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::vector<RootActor> roots_;

  // Reused solve scratch (avoids per-point allocation — the hot-path
  // memory groundwork of the million-task ROADMAP item).  components_
  // keeps the first component_count_ slots live and the inner vectors
  // retain their capacity across scheduling points.
  std::vector<std::vector<ActivitySlot>> components_;
  std::size_t component_count_ = 0;
  std::vector<Resource*> bfs_stack_;
  std::vector<Resource*> solve_scratch_;          ///< solve_subset's resource list
  std::vector<ActivitySlot> full_solve_scratch_;  ///< verify_full_solve
  std::vector<ActivitySlot> completed_scratch_;
  std::vector<ActivitySlot> orphan_scratch_;  ///< cancellation sweep
};

}  // namespace pcs::sim
