// Determinism regression for the incremental fair-share solver.
//
// The same scenario run twice must be bit-identical: same scheduling-point
// count, same final virtual time, same per-event timestamp fingerprints.
// A third run enables the full-solve cross-check, which re-solves the whole
// platform after every incremental solve and throws if any activity rate
// diverges — proving the incremental solver's component restriction exact,
// not merely approximately right.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "exp/corebench.hpp"
#include "simcore/engine.hpp"
#include "simcore/mailbox.hpp"
#include "simcore/task.hpp"

namespace pcs::exp {
namespace {

CoreScenarioConfig small_config() {
  CoreScenarioConfig config;
  config.actors = 200;
  config.groups = 20;
  config.rounds = 10;
  return config;
}

TEST(EngineDeterminism, RepeatedRunsAreBitIdentical) {
  const CoreScenarioConfig config = small_config();
  const CoreScenarioResult a = run_core_scenario(config);
  const CoreScenarioResult b = run_core_scenario(config);
  EXPECT_EQ(a.scheduling_points, b.scheduling_points);
  EXPECT_EQ(a.final_vtime, b.final_vtime);  // bitwise, not NEAR
  EXPECT_EQ(a.completion_checksum, b.completion_checksum);
  EXPECT_EQ(a.checksum_ns, b.checksum_ns);
  EXPECT_GT(a.scheduling_points, 0u);
}

// The engine timeline pinned to recorded constants: the default 1000-actor
// scenario must reproduce BENCH_core.json's micro_core.concurrent_1000
// fingerprints bit for bit.  Run-twice comparisons cannot see a change that
// moves both runs alike; this can.
TEST(EngineDeterminism, DefaultScenarioReproducesTheRecordedTimeline) {
  const CoreScenarioResult r = run_core_scenario(CoreScenarioConfig{});
  EXPECT_EQ(r.checksum_ns, 13022787386022u);
  EXPECT_EQ(r.scheduling_points, 20000u);
  EXPECT_EQ(r.final_vtime, 1.313057076795633);  // bitwise
}

TEST(EngineDeterminism, IncrementalSolverMatchesFullSolve) {
  CoreScenarioConfig config = small_config();
  const CoreScenarioResult plain = run_core_scenario(config);
  config.solver_cross_check = true;
  // Throws SimulationError on any rate divergence between the incremental
  // component solve and a full progressive-filling solve.
  const CoreScenarioResult checked = run_core_scenario(config);
  EXPECT_EQ(plain.scheduling_points, checked.scheduling_points);
  EXPECT_EQ(plain.final_vtime, checked.final_vtime);
  EXPECT_EQ(plain.completion_checksum, checked.completion_checksum);
  EXPECT_EQ(plain.checksum_ns, checked.checksum_ns);
}

// The batching A/B: the timestamp-batched solver (default) and the
// per-event reference mode (one solve after every submission, completion
// and capacity change) must produce bit-identical simulations — a solve is
// a pure function of the incumbency graph, and no virtual time passes
// between the events of a batch — while the batched run performs
// measurably fewer solves.  Scheduling-point counts are recorded and
// compared too.
TEST(EngineDeterminism, BatchedAndPerEventSolvesAreBitIdentical) {
  CoreScenarioConfig config = small_config();
  const CoreScenarioResult batched = run_core_scenario(config);
  config.solve_batching = false;
  const CoreScenarioResult per_event = run_core_scenario(config);

  EXPECT_EQ(batched.scheduling_points, per_event.scheduling_points);
  EXPECT_EQ(batched.final_vtime, per_event.final_vtime);  // bitwise, not NEAR
  EXPECT_EQ(batched.completion_checksum, per_event.completion_checksum);
  EXPECT_EQ(batched.checksum_ns, per_event.checksum_ns);
  EXPECT_EQ(batched.same_time_points, per_event.same_time_points);

  // The point of batching: strictly fewer solves for the same simulation.
  // Per-event solves at least twice per completed activity (the completion
  // and the follow-up submission each trigger one).
  EXPECT_LT(batched.fair_share_solves, per_event.fair_share_solves);
  EXPECT_GE(per_event.fair_share_solves, 2 * batched.activities);
  EXPECT_LE(batched.fair_share_solves, batched.scheduling_points);
}

TEST(EngineDeterminism, BatchedVsPerEventUnderCrossCheck) {
  // Same A/B with the full-solve cross-check armed: every solve of either
  // mode must match a from-scratch progressive filling, so a batched solve
  // that merged its dirty set wrongly throws instead of passing.
  CoreScenarioConfig config = small_config();
  config.actors = 60;
  config.rounds = 4;
  config.solver_cross_check = true;
  const CoreScenarioResult batched = run_core_scenario(config);
  config.solve_batching = false;
  const CoreScenarioResult per_event = run_core_scenario(config);
  EXPECT_EQ(batched.checksum_ns, per_event.checksum_ns);
  EXPECT_EQ(batched.final_vtime, per_event.final_vtime);
  EXPECT_LT(batched.fair_share_solves, per_event.fair_share_solves);
}

TEST(EngineDeterminism, SingleComponentTopologyCrossChecks) {
  // groups=1 couples every actor into one fair-share component, so the
  // incremental solve degenerates to the full solve; the cross-check must
  // still agree and the run stay deterministic.
  CoreScenarioConfig config;
  config.actors = 64;
  config.groups = 1;
  config.rounds = 6;
  config.solver_cross_check = true;
  const CoreScenarioResult a = run_core_scenario(config);
  const CoreScenarioResult b = run_core_scenario(config);
  EXPECT_EQ(a.checksum_ns, b.checksum_ns);
  EXPECT_EQ(a.final_vtime, b.final_vtime);
}

// The O(1) live-root counter that replaced the per-event root scan: it
// must agree with the roots' actual completion state through dynamic
// spawns, daemons, exceptions and teardown (the Debug build asserts the
// counter against the scan inside all_actors_done()).
TEST(EngineDeterminism, LiveRootCounterTracksDynamicSpawns) {
  sim::Engine engine;
  int finished = 0;
  auto leaf = [](sim::Engine& e, int* count) -> sim::Task<> {
    co_await e.sleep(1.0);
    ++*count;
  };
  auto spawner = [&leaf](sim::Engine& e, int* count) -> sim::Task<> {
    // Roots spawned mid-run must keep the simulation alive.
    for (int i = 0; i < 5; ++i) {
      e.spawn("leaf" + std::to_string(i), leaf(e, count));
      co_await e.sleep(2.0);
    }
  };
  engine.spawn("spawner", spawner(engine, &finished));
  EXPECT_EQ(engine.live_root_count(), 1u);
  EXPECT_FALSE(engine.all_actors_done());
  engine.run();
  EXPECT_EQ(finished, 5);
  EXPECT_TRUE(engine.all_actors_done());
  EXPECT_EQ(engine.live_root_count(), 0u);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(EngineDeterminism, DaemonsDoNotCountAsLiveRoots) {
  sim::Engine engine;
  auto daemon = [](sim::Engine& e) -> sim::Task<> {
    while (true) co_await e.sleep(1.0);
  };
  auto worker = [](sim::Engine& e) -> sim::Task<> { co_await e.sleep(3.0); };
  engine.spawn("flusher", daemon(engine), /*daemon=*/true);
  engine.spawn("worker", worker(engine));
  EXPECT_EQ(engine.live_root_count(), 1u);
  engine.run();
  EXPECT_TRUE(engine.all_actors_done());
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(EngineDeterminism, ThrowingRootCompletesAndRethrows) {
  sim::Engine engine;
  auto boomer = [](sim::Engine& e) -> sim::Task<> {
    co_await e.sleep(1.0);
    throw std::runtime_error("boom");
  };
  engine.spawn("boomer", boomer(engine));
  EXPECT_THROW(engine.run(), std::runtime_error);
  // The guard fired despite the exception: the root is accounted done.
  EXPECT_TRUE(engine.all_actors_done());
  EXPECT_EQ(engine.live_root_count(), 0u);
}

TEST(EngineDeterminism, ManyActorFleetStaysDeterministicWithCounter) {
  // A larger fleet than the default configs, exercising exactly the path
  // the counter optimizes (one termination check per scheduling point).
  CoreScenarioConfig config;
  config.actors = 1000;
  config.groups = 100;
  config.rounds = 3;
  const CoreScenarioResult a = run_core_scenario(config);
  const CoreScenarioResult b = run_core_scenario(config);
  EXPECT_EQ(a.scheduling_points, b.scheduling_points);
  EXPECT_EQ(a.final_vtime, b.final_vtime);
  EXPECT_EQ(a.checksum_ns, b.checksum_ns);
}

TEST(EngineDeterminism, CrossCheckCatchesCapacityEdits) {
  // Capacity edits mid-run dirty the resource; the next scheduling point
  // re-solves its component.  With the cross-check on, a missed
  // invalidation would throw here.
  sim::Engine engine;
  engine.set_solver_cross_check(true);
  sim::Resource* disk = engine.new_resource("disk", 100.0);
  auto worker = [](sim::Engine& e, sim::Resource* r) -> sim::Task<> {
    co_await e.submit("w", sim::one(r), 1000.0);
  };
  auto controller = [](sim::Engine& e, sim::Resource* r) -> sim::Task<> {
    co_await e.sleep(2.0);
    r->set_capacity(50.0);
    co_await e.submit("poke", sim::one(r), 1e-9);
  };
  engine.spawn("w", worker(engine, disk));
  engine.spawn("ctrl", controller(engine, disk));
  engine.run();
  // 0-2 s at 100/s = 200 done; remaining 800 at ~50/s = 16 s -> ~18 s.
  EXPECT_NEAR(engine.now(), 18.0, 0.05);
}

// --- Many components per scheduling point ---------------------------------
//
// Tenant clones align timestamps, so batched scheduling points carry many
// dirty components, each solved and rescheduled in turn.  Such runs must be
// bit-identical run to run, and the per-component solves must agree with a
// full solve over the whole platform.

/// Runs `config` twice, asserts the results are bitwise equal and returns
/// the first.
CoreScenarioResult expect_run_twice_bit_identical(const CoreScenarioConfig& config) {
  const CoreScenarioResult a = run_core_scenario(config);
  const CoreScenarioResult b = run_core_scenario(config);
  EXPECT_EQ(a.scheduling_points, b.scheduling_points);
  EXPECT_EQ(a.fair_share_solves, b.fair_share_solves);
  EXPECT_EQ(a.components_solved, b.components_solved);
  EXPECT_EQ(a.final_vtime, b.final_vtime);  // bitwise
  EXPECT_EQ(a.completion_checksum, b.completion_checksum);
  EXPECT_EQ(a.checksum_ns, b.checksum_ns);
  EXPECT_EQ(a.cancelled_activities, b.cancelled_activities);
  return a;
}

TEST(EngineDeterminism, MultiTenantRunTwiceIsBitIdentical) {
  // 10 tenants x 1000 actors.
  const CoreScenarioResult r = expect_run_twice_bit_identical(mega_tenant_config(10));
  EXPECT_GT(r.components_solved, r.fair_share_solves);  // several components per solve
}

TEST(EngineDeterminism, HostCrashRunTwiceIsBitIdentical) {
  // A tenant crash mid-run (cancel_group from a driver actor) retires whole
  // components while the other tenants' components keep being solved.
  CoreScenarioConfig config = mega_tenant_config(4);
  const CoreScenarioResult dry = run_core_scenario(config);
  config.crash_time = dry.final_vtime / 2.0;
  config.crash_tenant = 2;
  const CoreScenarioResult crashed = expect_run_twice_bit_identical(config);
  EXPECT_GT(crashed.cancelled_activities, 0u);
  EXPECT_LT(crashed.cancelled_activities, crashed.activities);
}

TEST(EngineDeterminism, CrossCheckPassesOnMultiComponentSolves) {
  // The cross-check re-solves the whole platform after every scheduling
  // point and throws on any rate divergence; turning it on must not
  // perturb the run either.
  CoreScenarioConfig config = mega_tenant_config(4);
  config.rounds = 2;
  config.solver_cross_check = true;
  const CoreScenarioResult checked = run_core_scenario(config);
  config.solver_cross_check = false;
  const CoreScenarioResult plain = run_core_scenario(config);
  EXPECT_GT(checked.components_solved, 0u);
  EXPECT_EQ(checked.checksum_ns, plain.checksum_ns);
  EXPECT_EQ(checked.final_vtime, plain.final_vtime);
}
//
// Fault injection (scenario "events") is built on Engine::cancel_group;
// these tests pin its edge semantics directly: cancelling an actor blocked
// in a mailbox receive, cancelling in the middle of a same-timestamp batch,
// double-cancellation, and — the determinism contract — bit-identical logs
// when the same faulty run is repeated.

/// Formats times with full precision so string equality is bit equality.
std::string stamp(const std::string& what, double t) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s@%.17g", what.c_str(), t);
  return buf;
}

/// An actor parked in Mailbox::get() is cancelled; a later put() must skip
/// the dead receiver and the run must still terminate.
std::string mailbox_cancel_log() {
  sim::Engine engine;
  sim::Mailbox<int> box(engine);
  std::string log;
  auto event = [&](const std::string& what, double t) { log += stamp(what, t) + "\n"; };
  auto service = [&](sim::Engine& e) -> sim::Task<> {
    for (;;) {
      const int msg = co_await box.get();
      event("got" + std::to_string(msg), e.now());
    }
  };
  auto driver = [&](sim::Engine& e) -> sim::Task<> {
    box.put(1);
    co_await e.sleep(5.0);
    event("cancelled=" + std::to_string(e.cancel_group("svc")), e.now());
    co_await e.sleep(5.0);
    box.put(2);  // receiver is dead: the message must park, not deadlock
    event("put2", e.now());
  };
  engine.spawn("service", service(engine), /*daemon=*/false, "svc");
  engine.spawn("driver", driver(engine));
  engine.run();
  event("end live=" + std::to_string(engine.live_root_count()) +
            " parked=" + std::to_string(box.size()),
        engine.now());
  return log;
}

TEST(EngineDeterminism, CancelWhileBlockedInMailboxReceive) {
  const std::string log = mailbox_cancel_log();
  EXPECT_NE(log.find("got1@0\n"), std::string::npos);
  EXPECT_NE(log.find("cancelled=1@5\n"), std::string::npos);
  EXPECT_EQ(log.find("got2"), std::string::npos);  // receiver died before put2
  EXPECT_NE(log.find("end live=0 parked=1@10\n"), std::string::npos);
  EXPECT_EQ(log, mailbox_cancel_log());  // bit-identical on a second run
}

/// Four group workers and one bystander all complete activities at t = 10,
/// the same timestamp at which the driver's cancel timer fires — the
/// cancellation lands inside a same-timestamp batch.  The outcome must be
/// deterministic and identical in batched and per-event solve modes.
std::string batch_cancel_log(bool solve_batching) {
  sim::Engine engine;
  engine.set_solve_batching(solve_batching);
  sim::Resource* cpu = engine.new_resource("cpu", 8.0);
  std::string log;
  auto event = [&](const std::string& what, double t) { log += stamp(what, t) + "\n"; };
  auto worker = [&](sim::Engine& e, int id) -> sim::Task<> {
    co_await e.submit("w" + std::to_string(id), sim::one(cpu), 10.0, 1.0);
    event("done" + std::to_string(id), e.now());
    co_await e.sleep(1.0);
    event("after" + std::to_string(id), e.now());
  };
  auto driver = [&](sim::Engine& e) -> sim::Task<> {
    co_await e.sleep(10.0);
    event("cancelled=" + std::to_string(e.cancel_group("g")), e.now());
  };
  for (int i = 0; i < 4; ++i) {
    engine.spawn("w" + std::to_string(i), worker(engine, i), /*daemon=*/false, "g");
  }
  engine.spawn("bystander", worker(engine, 9));  // no group: must survive
  engine.spawn("driver", driver(engine));
  engine.run();
  event("end live=" + std::to_string(engine.live_root_count()) +
            " cancelled_acts=" + std::to_string(engine.cancelled_activities()),
        engine.now());
  return log;
}

TEST(EngineDeterminism, CancelDuringSameTimestampBatch) {
  const std::string batched = batch_cancel_log(true);
  // The bystander always survives to t = 11; no group worker does.
  EXPECT_NE(batched.find("after9@11\n"), std::string::npos);
  EXPECT_EQ(batched.find("after0"), std::string::npos);
  EXPECT_EQ(batched.find("after1"), std::string::npos);
  EXPECT_NE(batched.find("cancelled=4@10\n"), std::string::npos);
  // Determinism: repeat runs and the per-event reference mode agree bitwise.
  EXPECT_EQ(batched, batch_cancel_log(true));
  EXPECT_EQ(batched, batch_cancel_log(false));
}

/// Double cancellation: re-marking in the same turn is harmless, cancelling
/// an already-swept group (or an unknown one) marks nothing, and the group
/// tag is reusable — a post-cancel respawn (the crash-restart pattern) runs
/// to completion.
std::string double_cancel_log() {
  sim::Engine engine;
  std::string log;
  auto event = [&](const std::string& what, double t) { log += stamp(what, t) + "\n"; };
  auto worker = [&](sim::Engine& e, int id) -> sim::Task<> {
    co_await e.sleep(100.0);
    event("done" + std::to_string(id), e.now());
  };
  auto driver = [&](sim::Engine& e) -> sim::Task<> {
    co_await e.sleep(1.0);
    const std::size_t first = e.cancel_group("g");
    const std::size_t again = e.cancel_group("g");  // same turn: still pending
    event("first=" + std::to_string(first) + " again=" + std::to_string(again), e.now());
    co_await e.sleep(1.0);  // sweep ran: the frames are gone
    event("swept=" + std::to_string(e.cancel_group("g")) +
              " unknown=" + std::to_string(e.cancel_group("nope")),
          e.now());
    // The tag is reusable after the sweep: restart into the same group.
    e.spawn("w2", worker(e, 2), /*daemon=*/false, "g");
  };
  engine.spawn("w1", worker(engine, 1), /*daemon=*/false, "g");
  engine.spawn("driver", driver(engine));
  engine.run();
  event("end live=" + std::to_string(engine.live_root_count()), engine.now());
  return log;
}

TEST(EngineDeterminism, DoubleCancelIsIdempotent) {
  const std::string log = double_cancel_log();
  EXPECT_NE(log.find("first=1 again=1@1\n"), std::string::npos);
  EXPECT_NE(log.find("swept=0 unknown=0@2\n"), std::string::npos);
  EXPECT_EQ(log.find("done1"), std::string::npos);   // w1 never completes
  EXPECT_NE(log.find("done2@102\n"), std::string::npos);  // respawn does
  EXPECT_NE(log.find("end live=0@102\n"), std::string::npos);
  EXPECT_EQ(log, double_cancel_log());
  // An empty group name is a caller bug, not a no-op.
  sim::Engine engine;
  EXPECT_THROW(engine.cancel_group(""), sim::SimulationError);
}

}  // namespace
}  // namespace pcs::exp
