// The activity arena (simcore/activity_arena.hpp): slot recycling through
// the freelist, generation counters distinguishing reincarnations, fresh
// slots starting outside the completion heap, external-handle refcounting,
// and the SoA bookkeeping — exercised in randomized lockstep against a
// naive reference model, the same pattern lru_property_test uses for the
// page-cache slab.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "simcore/activity_arena.hpp"

namespace pcs::sim {
namespace {

TEST(ActivityArena, AllocInitializesEverySoaField) {
  ActivityArena arena;
  std::vector<Claim> claims;
  const ActivitySlot s = arena.alloc(7, "act", std::move(claims), 42.0, 5.0, 3.0);
  EXPECT_EQ(arena.remaining[s], 42.0);
  EXPECT_EQ(arena.rate[s], 0.0);
  EXPECT_EQ(arena.bound[s], 5.0);
  EXPECT_EQ(arena.last_update[s], 3.0);
  EXPECT_EQ(arena.id[s], 7u);
  EXPECT_EQ(arena.heap_pos[s], kNotQueued);
  EXPECT_EQ(arena.done[s], 0);
  EXPECT_EQ(arena.cold[s].label, "act");
  EXPECT_EQ(arena.cold[s].total, 42.0);
  EXPECT_EQ(arena.cold[s].end_time, -1.0);
  EXPECT_EQ(arena.live(), 1u);
  EXPECT_EQ(arena.slots(), 1u);
  EXPECT_GT(arena.bytes_reserved(), 0u);
}

TEST(ActivityArena, ReleaseRecyclesLifoAndBumpsGeneration) {
  ActivityArena arena;
  const ActivitySlot a = arena.alloc(0, "a", {}, 1.0, 0.0, 0.0);
  const ActivitySlot b = arena.alloc(1, "b", {}, 1.0, 0.0, 0.0);
  EXPECT_EQ(arena.slots(), 2u);
  const std::uint32_t gen_a = arena.cold[a].generation;
  arena.done[a] = 1;
  arena.release(a);
  EXPECT_EQ(arena.live(), 1u);
  EXPECT_EQ(arena.cold[a].generation, gen_a + 1);
  EXPECT_TRUE(arena.cold[a].label.empty());
  // The freed slot comes back first (LIFO), and the slab does not grow.
  const ActivitySlot c = arena.alloc(2, "c", {}, 1.0, 0.0, 0.0);
  EXPECT_EQ(c, a);
  EXPECT_EQ(arena.slots(), 2u);
  // A handle that captured (slot, generation) before the release can tell
  // it now points at a different incarnation.
  EXPECT_NE(arena.cold[c].generation, gen_a);
  arena.done[b] = 1;
  arena.done[c] = 1;
  arena.release(b);
  arena.release(c);
  EXPECT_EQ(arena.live(), 0u);
}

TEST(ActivityArena, ExternalRefsDeferRecyclingUntilTheLastDrop) {
  ActivityArena arena;
  const ActivitySlot s = arena.alloc(0, "held", {}, 1.0, 0.0, 0.0);
  arena.add_ref(s);
  arena.add_ref(s);
  arena.done[s] = 1;
  // Done but referenced: retire must not free it.
  arena.retire_if_unreferenced(s);
  EXPECT_EQ(arena.live(), 1u);
  arena.drop_ref(s);
  EXPECT_EQ(arena.live(), 1u);
  const std::uint32_t gen = arena.cold[s].generation;
  arena.drop_ref(s);  // last handle gone -> released
  EXPECT_EQ(arena.live(), 0u);
  EXPECT_EQ(arena.cold[s].generation, gen + 1);
}

TEST(ActivityArena, ProjectedRemainingWithoutAnEngineIsTheRawRemaining) {
  ActivityArena arena;
  const ActivitySlot s = arena.alloc(0, "x", {}, 10.0, 0.0, 0.0);
  arena.rate[s] = 2.0;
  EXPECT_EQ(arena.projected_remaining(s), 10.0);  // engine == nullptr
  arena.done[s] = 1;
  EXPECT_EQ(arena.projected_remaining(s), 0.0);
  arena.release(s);
}

TEST(ActivityArena, RandomizedLockstepAgainstAReferenceModel) {
  // Reference model: every live activity is a map entry keyed by its
  // submission id, remembering what the arena must report for it.  The
  // arena's slot/generation mechanics are implementation detail the model
  // never sees — only the invariants are compared.
  struct RefActivity {
    ActivitySlot slot = kNoActivity;
    std::string label;
    double amount = 0.0;
    std::uint32_t generation = 0;  ///< at alloc: stale once it diverges
    std::uint32_t refs = 0;
    bool done = false;
  };
  std::mt19937 rng(20260808);
  ActivityArena arena;
  std::unordered_map<std::uint64_t, RefActivity> model;
  std::vector<std::uint64_t> live_ids;
  std::uint64_t next_id = 0;
  std::size_t released = 0;
  std::size_t reused = 0;

  auto pick_live = [&]() -> std::uint64_t {
    std::uniform_int_distribution<std::size_t> d(0, live_ids.size() - 1);
    return live_ids[d(rng)];
  };
  auto forget = [&](std::uint64_t act) {
    model.erase(act);
    for (std::size_t i = 0; i < live_ids.size(); ++i) {
      if (live_ids[i] == act) {
        live_ids[i] = live_ids.back();
        live_ids.pop_back();
        break;
      }
    }
    ++released;
  };

  for (int step = 0; step < 20000; ++step) {
    std::uniform_int_distribution<int> d(0, 99);
    const int op = d(rng);
    if (op < 40 || live_ids.empty()) {  // alloc
      const std::uint64_t act = next_id++;
      std::uniform_real_distribution<double> amount(1.0, 1e9);
      RefActivity ref;
      ref.label = "act" + std::to_string(act);
      ref.amount = amount(rng);
      const std::size_t before = arena.slots();
      const bool expect_reuse = arena.slots() > arena.live();
      ref.slot = arena.alloc(act, ref.label, {}, ref.amount, 0.0, 0.0);
      ref.generation = arena.cold[ref.slot].generation;
      // Freelist first: the slab only grows when every slot is live.
      EXPECT_EQ(arena.slots(), expect_reuse ? before : before + 1);
      if (expect_reuse) ++reused;
      // A fresh or recycled slot starts outside the completion heap, even
      // when its previous incarnation left a heap position behind (written
      // just below, standing in for the engine queueing it).
      EXPECT_EQ(arena.heap_pos[ref.slot], kNotQueued);
      arena.heap_pos[ref.slot] = static_cast<std::size_t>(act);
      model.emplace(act, ref);
      live_ids.push_back(act);
    } else if (op < 55) {  // take an external handle
      auto& ref = model.at(pick_live());
      arena.add_ref(ref.slot);
      ++ref.refs;
    } else if (op < 75) {  // finish (and recycle if unreferenced)
      const std::uint64_t act = pick_live();
      auto& ref = model.at(act);
      if (!ref.done) {
        arena.done[ref.slot] = 1;
        ref.done = true;
      }
      arena.retire_if_unreferenced(ref.slot);
      if (ref.refs == 0) forget(act);
    } else if (op < 90) {  // drop one handle
      const std::uint64_t act = pick_live();
      auto& ref = model.at(act);
      if (ref.refs == 0) continue;
      arena.drop_ref(ref.slot);
      --ref.refs;
      if (ref.done && ref.refs == 0) forget(act);
    } else {  // audit a random live activity against the model
      const auto& ref = model.at(pick_live());
      EXPECT_EQ(arena.cold[ref.slot].label, ref.label);
      EXPECT_EQ(arena.cold[ref.slot].total, ref.amount);
      EXPECT_EQ(arena.cold[ref.slot].generation, ref.generation)
          << "live slot was recycled under a handle";
      EXPECT_EQ(arena.cold[ref.slot].ext_refs, ref.refs);
      EXPECT_EQ(arena.done[ref.slot] != 0, ref.done);
    }
    ASSERT_EQ(arena.live(), model.size());
    ASSERT_GE(arena.slots(), arena.live());
  }
  // The churn actually exercised recycling: thousands of releases, and the
  // majority of later allocations landed on recycled slots instead of
  // growing the slab.
  EXPECT_GT(released, 1000u);
  EXPECT_GT(reused, 1000u);
  EXPECT_EQ(arena.slots(), static_cast<std::size_t>(next_id) - reused);

  // Drain: release everything still live and confirm full recycling.  A
  // done slot is freed by its *last* drop_ref; an unreferenced one needs
  // the explicit retire after it finishes (never both — release is
  // single-shot).
  while (!live_ids.empty()) {
    auto& ref = model.at(live_ids.back());
    while (ref.refs > 0) {
      arena.drop_ref(ref.slot);
      --ref.refs;
    }
    if (!ref.done) {
      arena.done[ref.slot] = 1;
      ref.done = true;
      arena.retire_if_unreferenced(ref.slot);
    }
    forget(live_ids.back());
  }
  EXPECT_EQ(arena.live(), 0u);
  const std::size_t settled = arena.slots();
  // Steady state: a fresh burst reuses the drained slab without growth.
  for (int i = 0; i < 100; ++i) {
    const ActivitySlot s = arena.alloc(next_id++, "burst", {}, 1.0, 0.0, 0.0);
    arena.done[s] = 1;
    arena.release(s);
  }
  EXPECT_EQ(arena.slots(), settled);
}

}  // namespace
}  // namespace pcs::sim
