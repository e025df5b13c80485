// Arena storage for activities: stable uint32 slots, struct-of-arrays hot
// fields, generation counters.
//
// At million-task scale the former one-shared_ptr-per-activity layout made
// the solver chase a heap pointer per field touch and the allocator the
// hottest function in a solve.  The arena replaces it with parallel arrays
// indexed by a 32-bit slot: the fields a component solve streams over
// (remaining work, rate, bound, completion time, BFS visit mark, solver
// scratch) live in contiguous SoA vectors, while the cold per-activity
// record (label, claims, times, waiter) sits in one slab entry per slot.
// Slots are recycled through an intrusive freelist, so a steady-state run
// allocates nothing per activity after warm-up.
//
// Lifetime: a slot stays live while the activity is running or any external
// ActivityRef handle points at it (`ext_refs`).  Release bumps the slot's
// generation so recycled slots are distinguishable.  `heap_pos` is the
// slot's index in the engine's completion heap, which holds each running
// activity with a finite completion time exactly once; the engine takes a
// slot out of the heap when it finishes or is cancelled, so a recycled slot
// starts unqueued.  The arena is owned by a shared_ptr: handles that outlive
// the Engine keep the storage alive, which preserves the old "detached
// ActivityPtr survives engine teardown" semantics.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "simcore/resource.hpp"
#include "simcore/task.hpp"

namespace pcs::sim {

class Engine;

/// Index of an activity slot in the arena.
using ActivitySlot = std::uint32_t;
inline constexpr ActivitySlot kNoActivity = std::numeric_limits<ActivitySlot>::max();
/// `heap_pos` of a slot that is not in the engine's completion heap.
inline constexpr std::size_t kNotQueued = std::numeric_limits<std::size_t>::max();

class ActivityArena {
 public:
  // --- hot SoA arrays (indexed by slot; the solver streams these) --------
  std::vector<double> remaining;        ///< remaining work, exact as of last_update
  std::vector<double> rate;             ///< current fair-share rate
  std::vector<double> bound;            ///< per-activity rate cap
  std::vector<double> last_update;      ///< virtual time `remaining` refers to
  std::vector<double> completion_time;  ///< projected completion (kInf if none)
  std::vector<std::uint64_t> id;        ///< submission id: deterministic tie-break
  std::vector<std::uint64_t> visit_mark;  ///< component-BFS visit stamp
  std::vector<std::size_t> heap_pos;    ///< index in the completion heap, or kNotQueued
  std::vector<std::uint32_t> run_index;  ///< position in Engine::running_
  std::vector<std::uint8_t> done;
  std::vector<std::uint8_t> scratch_assigned;  ///< progressive-filling scratch
  std::vector<double> scratch_check_rate;      ///< full-solve cross-check scratch

  // --- cold per-slot record ---------------------------------------------
  struct Cold {
    std::string label;
    std::vector<Claim> claims;
    double total = 0.0;
    double start_time = 0.0;
    double end_time = -1.0;
    std::uint32_t generation = 0;  ///< bumped at release; stale-handle detector
    std::uint32_t ext_refs = 0;    ///< live external ActivityRef handles
    ActivitySlot next_free = kNoActivity;
    /// The awaiting actor, with the generation of its frame at suspension.
    FrameRef waiter{};
  };
  std::vector<Cold> cold;

  /// The owning engine; cleared at engine teardown so handles that outlive
  /// it stop projecting remaining work through a dead clock.
  Engine* engine = nullptr;

  /// Claim a slot (recycling the freelist head if any) and initialize it
  /// for a fresh, not yet queued submission.
  ActivitySlot alloc(std::uint64_t act_id, std::string label, std::vector<Claim> claims,
                     double amount, double rate_bound, double start_time) {
    ActivitySlot s;
    if (free_head_ != kNoActivity) {
      s = free_head_;
      free_head_ = cold[s].next_free;
      cold[s].next_free = kNoActivity;
    } else {
      s = static_cast<ActivitySlot>(cold.size());
      remaining.push_back(0.0);
      rate.push_back(0.0);
      bound.push_back(0.0);
      last_update.push_back(0.0);
      completion_time.push_back(0.0);
      id.push_back(0);
      visit_mark.push_back(0);
      heap_pos.push_back(kNotQueued);
      run_index.push_back(0);
      done.push_back(0);
      scratch_assigned.push_back(0);
      scratch_check_rate.push_back(0.0);
      cold.emplace_back();
    }
    remaining[s] = amount;
    rate[s] = 0.0;
    bound[s] = rate_bound;
    last_update[s] = start_time;
    completion_time[s] = std::numeric_limits<double>::infinity();
    id[s] = act_id;
    visit_mark[s] = 0;
    heap_pos[s] = kNotQueued;
    run_index[s] = 0;
    done[s] = 0;
    scratch_assigned[s] = 0;
    scratch_check_rate[s] = 0.0;
    Cold& c = cold[s];
    c.label = std::move(label);
    c.claims = std::move(claims);
    c.total = amount;
    c.start_time = start_time;
    c.end_time = -1.0;
    c.waiter = FrameRef{};
    ++live_;
    return s;
  }

  /// Return a slot to the freelist.  Only legal once the activity is done
  /// and no external handle references it.
  void release(ActivitySlot s) {
    assert(done[s] && cold[s].ext_refs == 0 && "releasing a live activity slot");
    Cold& c = cold[s];
    ++c.generation;
    c.label.clear();
    c.claims.clear();  // keeps capacity for the next incumbent of this slot
    c.waiter = FrameRef{};
    c.next_free = free_head_;
    free_head_ = s;
    --live_;
  }

  /// Recycle a finished slot the moment its last reference disappears.
  void retire_if_unreferenced(ActivitySlot s) {
    if (done[s] && cold[s].ext_refs == 0) release(s);
  }

  // External-handle refcounting (single-threaded, like the engine).
  void add_ref(ActivitySlot s) { ++cold[s].ext_refs; }
  void drop_ref(ActivitySlot s) {
    assert(cold[s].ext_refs > 0);
    if (--cold[s].ext_refs == 0 && done[s]) release(s);
  }

  /// Remaining work projected to the engine's current virtual time (the
  /// public Activity::remaining() contract).  Defined in activity_arena.cpp
  /// to avoid an engine.hpp include cycle.
  [[nodiscard]] double projected_remaining(ActivitySlot s) const;

  /// Live (allocated, not yet released) slots.
  [[nodiscard]] std::size_t live() const { return live_; }
  /// High-water slot count: the slab never shrinks.
  [[nodiscard]] std::size_t slots() const { return cold.size(); }
  /// Bytes reserved by the SoA arrays and the cold slab (capacity, not
  /// size — this is what the alloc/* gauges report as resident arena
  /// memory).  Claim vectors inside cold records are counted too.
  [[nodiscard]] std::size_t bytes_reserved() const {
    std::size_t bytes = remaining.capacity() * sizeof(double) * 6  // 6 double arrays
                        + id.capacity() * sizeof(std::uint64_t) * 2
                        + heap_pos.capacity() * sizeof(std::size_t)
                        + run_index.capacity() * sizeof(std::uint32_t)
                        + done.capacity() * 2 + cold.capacity() * sizeof(Cold);
    for (const Cold& c : cold) bytes += c.claims.capacity() * sizeof(Claim);
    return bytes;
  }

 private:
  ActivitySlot free_head_ = kNoActivity;
  std::size_t live_ = 0;
};

}  // namespace pcs::sim
