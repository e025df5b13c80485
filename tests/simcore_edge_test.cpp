// Engine edge cases: degenerate activities, timer ordering, re-running,
// lock guards, tracer interplay, completion-heap membership, and error
// paths.
#include <gtest/gtest.h>

#include <limits>

#include "simcore/engine.hpp"
#include "simcore/sync.hpp"
#include "simcore/trace.hpp"
#include "test_helpers.hpp"

namespace pcs::sim {
namespace {

TEST(EngineEdge, SpawnEmptyTaskThrows) {
  Engine engine;
  EXPECT_THROW(engine.spawn("empty", Task<>{}), SimulationError);
}

TEST(EngineEdge, UnconstrainedActivityCompletesInstantly) {
  Engine engine;
  auto body = [](Engine& e) -> Task<> {
    co_await e.submit("free", {}, 1e12);  // no claims, no bound
  };
  test::run_actor(engine, body(engine));
  EXPECT_LT(engine.now(), 1e-6);
}

TEST(EngineEdge, BoundOnlyActivityRunsAtBound) {
  Engine engine;
  auto body = [](Engine& e) -> Task<> {
    co_await e.submit("bounded", {}, 100.0, /*bound=*/10.0);
  };
  test::run_actor(engine, body(engine));
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(EngineEdge, SimultaneousCompletionsStaySimultaneous) {
  Engine engine;
  Resource* r = engine.new_resource("r", 10.0);
  std::vector<double> ends;
  auto worker = [&](Engine& e) -> Task<> {
    co_await e.submit("w", sim::one(r), 50.0);
    ends.push_back(e.now());
  };
  for (int i = 0; i < 5; ++i) engine.spawn("w" + std::to_string(i), worker(engine));
  engine.run();
  ASSERT_EQ(ends.size(), 5u);
  for (double t : ends) EXPECT_DOUBLE_EQ(t, 25.0);  // 5x50 over 10/s
}

TEST(EngineEdge, TimersAtSameInstantFireInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  auto sleeper = [&order](Engine& e, int id) -> Task<> {
    co_await e.sleep_until(5.0);
    order.push_back(id);
  };
  for (int i = 0; i < 4; ++i) engine.spawn("s" + std::to_string(i), sleeper(engine, i));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EngineEdge, SleepUntilPastResumesNow) {
  Engine engine;
  auto body = [](Engine& e) -> Task<> {
    co_await e.sleep(10.0);
    co_await e.sleep_until(3.0);  // already past: no travel back in time
    EXPECT_DOUBLE_EQ(e.now(), 10.0);
  };
  test::run_actor(engine, body(engine));
}

TEST(EngineEdge, RunCanBeCalledAgainAfterNewSpawns) {
  Engine engine;
  auto phase = [](Engine& e, double dt) -> Task<> { co_await e.sleep(dt); };
  engine.spawn("p1", phase(engine, 5.0));
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
  engine.spawn("p2", phase(engine, 2.0));
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 7.0);
}

TEST(EngineEdge, RunUntilZeroThenFullRun) {
  Engine engine;
  auto body = [](Engine& e) -> Task<> { co_await e.sleep(4.0); };
  engine.spawn("b", body(engine));
  engine.run_until(0.0);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 4.0);
}

TEST(EngineEdge, DaemonExceptionSurfaces) {
  Engine engine;
  auto daemon = [](Engine& e) -> Task<> {
    co_await e.sleep(1.0);
    throw std::runtime_error("daemon died");
  };
  auto main_actor = [](Engine& e) -> Task<> { co_await e.sleep(5.0); };
  engine.spawn("daemon", daemon(engine), /*daemon=*/true);
  engine.spawn("main", main_actor(engine));
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(EngineEdge, LockGuardReleasesOnScopeExit) {
  Engine engine;
  Mutex mutex(engine);
  double acquired_at = -1.0;
  auto holder = [&](Engine& e) -> Task<> {
    {
      co_await mutex.lock();
      LockGuard guard(mutex, LockGuard::adopt);
      co_await e.sleep(3.0);
    }  // guard releases here
    co_await e.sleep(10.0);
  };
  auto waiter = [&](Engine& e) -> Task<> {
    co_await e.sleep(0.5);
    co_await mutex.lock();
    acquired_at = e.now();
    mutex.unlock();
  };
  engine.spawn("h", holder(engine));
  engine.spawn("w", waiter(engine));
  engine.run();
  EXPECT_DOUBLE_EQ(acquired_at, 3.0);
}

TEST(EngineEdge, TracerSeesConcurrentSpans) {
  Engine engine;
  Tracer tracer;
  engine.set_tracer(&tracer);
  Resource* r = engine.new_resource("r", 10.0);
  auto worker = [r](Engine& e, std::string label) -> Task<> {
    co_await e.submit(label, sim::one(r), 50.0);
  };
  engine.spawn("a", worker(engine, "io:a"));
  engine.spawn("b", worker(engine, "io:b"));
  engine.run();
  ASSERT_EQ(tracer.span_count(), 2u);
  // Fair sharing: both spans cover the whole [0, 10] interval.
  EXPECT_DOUBLE_EQ(tracer.total_time("io:"), 20.0);
}

TEST(EngineEdge, SchedulingPointsAdvanceMonotonically) {
  Engine engine;
  Resource* r = engine.new_resource("r", 5.0);
  auto body = [r](Engine& e) -> Task<> {
    double last = e.now();
    for (int i = 0; i < 20; ++i) {
      co_await e.submit("step", sim::one(r), 1.0 + i);
      EXPECT_GE(e.now(), last);
      last = e.now();
    }
  };
  test::run_actor(engine, body(engine));
  EXPECT_GE(engine.scheduling_points(), 20u);
}

TEST(EngineEdge, ZeroCapacityResourceDeadlocks) {
  Engine engine;
  Resource* r = engine.new_resource("r", 0.0);
  auto body = [r](Engine& e) -> Task<> {
    co_await e.submit("stuck", sim::one(r), 10.0);
  };
  engine.spawn("b", body(engine));
  EXPECT_THROW(engine.run(), SimulationError);
}

TEST(EngineEdge, RunIsNotReentrant) {
  Engine engine;
  bool threw = false;
  auto body = [&](Engine& e) -> Task<> {
    try {
      e.run();
    } catch (const SimulationError&) {
      threw = true;
    }
    co_return;
  };
  test::run_actor(engine, body(engine));
  EXPECT_TRUE(threw);
}

TEST(EngineEdge, ManySmallActivitiesPerformAndComplete) {
  Engine engine;
  Resource* r = engine.new_resource("r", 1000.0);
  int done = 0;
  auto worker = [&](Engine& e) -> Task<> {
    for (int i = 0; i < 200; ++i) co_await e.submit("op", sim::one(r), 1.0);
    ++done;
  };
  for (int i = 0; i < 10; ++i) engine.spawn("w" + std::to_string(i), worker(engine));
  engine.run();
  EXPECT_EQ(done, 10);
  // 10 workers x 200 sequential 1-unit ops on 1000/s: each op runs at
  // 100/s (10-way sharing) -> 0.01 s per op -> 2 s total.
  EXPECT_NEAR(engine.now(), 2.0, 1e-9);
}

// --- Completion-heap membership ---------------------------------------------
//
// The engine's completion heap holds each running activity with a finite
// completion time exactly once, at the index its arena heap_pos records.
// These cases move an activity out of the heap and back, cancel a queued
// one, and recycle a slot within one timestamp; every expected time is
// exact.

TEST(EngineEdge, ZeroCapacityDequeuesUntilTheCapacityReturns) {
  Engine engine;
  Resource* r = engine.new_resource("r", 5.0);
  ActivitySlot slot = kNoActivity;
  double end = -1.0;
  auto worker = [&](Engine& e) -> Task<> {
    ActivityAwaiter io = e.submit("io", sim::one(r), 10.0);
    slot = io.activity().slot();
    co_await io;
    end = e.now();
  };
  auto controller = [&](Engine& e) -> Task<> {
    co_await e.sleep(1.0);
    EXPECT_NE(e.arena().heap_pos[slot], kNotQueued);  // due at 2
    r->set_capacity(0.0);
    co_await e.sleep(1.0);  // the solve at t = 1 stopped it
    EXPECT_EQ(e.arena().heap_pos[slot], kNotQueued);
    EXPECT_EQ(e.arena().completion_time[slot], std::numeric_limits<double>::infinity());
    e.check_completion_heap();
    co_await e.sleep(1.0);
    r->set_capacity(5.0);
  };
  engine.spawn("worker", worker(engine));
  engine.spawn("controller", controller(engine));
  engine.run();
  // 5 units done over [0, 1], none over [1, 3], the other 5 over [3, 4].
  EXPECT_EQ(end, 4.0);
  EXPECT_EQ(engine.now(), 4.0);
}

TEST(EngineEdge, CancellingAQueuedActivityFreesItsShareAtOnce) {
  Engine engine;
  Tracer tracer;
  engine.set_tracer(&tracer);
  Resource* r = engine.new_resource("r", 10.0);
  ActivitySlot victim_slot = kNoActivity;
  bool victim_resumed = false;
  double survivor_end = -1.0;
  auto victim = [&](Engine& e) -> Task<> {
    ActivityAwaiter io = e.submit("victim", sim::one(r), 100.0);
    victim_slot = io.activity().slot();
    co_await io;
    victim_resumed = true;
  };
  auto survivor = [&](Engine& e) -> Task<> {
    co_await e.submit("survivor", sim::one(r), 100.0);
    survivor_end = e.now();
  };
  auto driver = [&](Engine& e) -> Task<> {
    co_await e.sleep(4.0);
    EXPECT_NE(e.arena().heap_pos[victim_slot], kNotQueued);  // due at 20
    EXPECT_EQ(e.cancel_group("g"), 1u);
    co_await e.sleep(1.0);  // the cancellation sweep ran at t = 4
    e.check_completion_heap();  // throws if the victim is still queued
  };
  engine.spawn("victim", victim(engine), /*daemon=*/false, "g");
  engine.spawn("survivor", survivor(engine));
  engine.spawn("driver", driver(engine));
  engine.run();
  // Both ran at 5/s until t = 4, leaving 80 each; alone, the survivor's 80
  // take 8 s at 10/s.
  EXPECT_EQ(survivor_end, 12.0);
  EXPECT_EQ(engine.now(), 12.0);
  EXPECT_FALSE(victim_resumed);
  EXPECT_EQ(engine.cancelled_activities(), 1u);
  EXPECT_EQ(tracer.span_count(), 1u);  // the victim never completed
  EXPECT_EQ(tracer.total_time("victim"), 0.0);
}

TEST(EngineEdge, SlotRecycledWithinATimestampIsQueuedOnce) {
  Engine engine;
  Resource* r = engine.new_resource("r", 10.0);
  ActivitySlot first_slot = kNoActivity;
  ActivitySlot second_slot = kNoActivity;
  double second_end = -1.0;
  auto worker = [&](Engine& e) -> Task<> {
    {
      ActivityAwaiter first = e.submit("first", sim::one(r), 10.0);
      first_slot = first.activity().slot();
      co_await first;  // t = 1
    }  // the last handle drops: the slot returns to the freelist
    ActivityAwaiter second = e.submit("second", sim::one(r), 30.0);
    second_slot = second.activity().slot();
    EXPECT_EQ(e.arena().heap_pos[second_slot], kNotQueued);  // not solved yet
    co_await second;
    second_end = e.now();
  };
  auto inspector = [&](Engine& e) -> Task<> {
    co_await e.sleep(2.0);
    EXPECT_EQ(second_slot, first_slot);  // recycled at t = 1
    EXPECT_NE(e.arena().heap_pos[second_slot], kNotQueued);
    EXPECT_EQ(e.arena().completion_time[second_slot], 4.0);
    // Every entry sits where its heap_pos says, so no slot is queued twice.
    e.check_completion_heap();
  };
  engine.spawn("worker", worker(engine));
  engine.spawn("inspector", inspector(engine));
  engine.run();
  EXPECT_EQ(second_end, 4.0);
  EXPECT_EQ(engine.scheduling_points(), 3u);  // t = 1, 2 and 4
}

}  // namespace
}  // namespace pcs::sim
