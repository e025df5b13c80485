// Microbenchmarks (google-benchmark) of the library's hot paths: LRU list
// operations, the max-min fair-share solver under varying contention, the
// engine's event loop, and JSON parsing.  These back the Fig 8 scalability
// discussion: the page-cache model's extra cost per application is LRU and
// solver work.
//
// Besides the google-benchmark timings (human-readable), the binary runs a
// fixed 1000-actor concurrent scenario and a mixed LRU workload, and records
// them in BENCH_core.json (see bench_json.hpp) so the perf trajectory is
// machine-readable across PRs.  `--scenario-only` skips google-benchmark and
// runs just the recorded workloads (what CI uses).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "metrics/bench_record.hpp"
#include "exp/corebench.hpp"
#include "obs/profiler.hpp"
#include "pagecache/lru_list.hpp"
#include "simcore/engine.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/rss.hpp"

namespace {

using namespace pcs;

void BM_LruInsert(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    cache::LruList list;
    for (std::uint64_t i = 0; i < n; ++i) {
      cache::DataBlock b;
      b.id = i;
      b.file = "f";
      b.size = 100.0;
      b.last_access = static_cast<double>(i);
      list.insert(std::move(b));
    }
    benchmark::DoNotOptimize(list.total());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LruInsert)->Arg(64)->Arg(512);

void BM_LruTouchLru(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  cache::LruList list;
  for (std::uint64_t i = 0; i < n; ++i) {
    cache::DataBlock b;
    b.id = i;
    b.file = "f" + std::to_string(i % 7);
    b.size = 100.0;
    b.last_access = static_cast<double>(i);
    list.insert(std::move(b));
  }
  double now = static_cast<double>(n);
  for (auto _ : state) {
    list.touch(list.begin(), now);
    now += 1.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LruTouchLru)->Arg(64)->Arg(512);

void BM_LruSplitMerge(benchmark::State& state) {
  for (auto _ : state) {
    cache::LruList list;
    cache::DataBlock b;
    b.id = 1;
    b.file = "f";
    b.size = 1 << 20;
    list.insert(std::move(b));
    std::uint64_t next = 2;
    // Split repeatedly, then erase halves.
    for (int i = 0; i < 16; ++i) {
      auto it = list.begin();
      auto [head, tail] = list.split(it, it->size / 2, next++);
      (void)head;
      (void)tail;
    }
    benchmark::DoNotOptimize(list.block_count());
  }
}
BENCHMARK(BM_LruSplitMerge);

void BM_FairShareSolver(benchmark::State& state) {
  const auto n_activities = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine;
    sim::Resource* disk = engine.new_resource("disk", 1e9);
    sim::Resource* mem = engine.new_resource("mem", 1e10);
    util::Rng rng(7);
    for (std::size_t i = 0; i < n_activities; ++i) {
      std::vector<sim::Claim> claims = rng.bernoulli(0.5)
                                           ? std::vector<sim::Claim>{{disk, 1.0}}
                                           : std::vector<sim::Claim>{{disk, 1.0}, {mem, 1.0}};
      engine.submit_detached("a", claims, 1e6 * rng.uniform(0.5, 2.0));
    }
    state.ResumeTiming();
    engine.run_until(100.0);  // drives completions: one solve per event
    benchmark::DoNotOptimize(engine.scheduling_points());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n_activities));
}
BENCHMARK(BM_FairShareSolver)->Arg(8)->Arg(64)->Arg(256);

void BM_EngineSleepLoop(benchmark::State& state) {
  const int n_actors = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    auto actor = [](sim::Engine& e, int beats) -> sim::Task<> {
      for (int i = 0; i < beats; ++i) co_await e.sleep(1.0);
    };
    for (int i = 0; i < n_actors; ++i) {
      engine.spawn("a" + std::to_string(i), actor(engine, 100));
    }
    engine.run();
    benchmark::DoNotOptimize(engine.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n_actors * 100);
}
BENCHMARK(BM_EngineSleepLoop)->Arg(4)->Arg(32);

void BM_JsonParsePlatform(benchmark::State& state) {
  const std::string doc = R"({
    "hosts": [
      {"name": "compute0", "speed_gflops": 1, "cores": 32, "ram": "250 GB",
       "memory": {"read_bw_MBps": 6860, "write_bw_MBps": 2764},
       "disks": [{"name": "ssd0", "read_bw_MBps": 510, "write_bw_MBps": 420,
                  "capacity": "450 GiB"}]}
    ],
    "links": [{"name": "lan", "bw_MBps": 3000}],
    "routes": [{"src": "compute0", "dst": "compute0", "links": ["lan"]}]
  })";
  for (auto _ : state) {
    util::Json parsed = util::Json::parse(doc);
    benchmark::DoNotOptimize(parsed.at("hosts").size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(doc.size()));
}
BENCHMARK(BM_JsonParsePlatform);

// --- recorded workloads (BENCH_core.json) ----------------------------------

/// The acceptance scenario: 1000 concurrent actors in 100 independent
/// resource groups.  Records wall-clock, scheduling points, activities/sec
/// and the simulated-time fingerprints that must stay bit-identical across
/// engine refactors.
util::Json run_recorded_scenario() {
  exp::CoreScenarioConfig config;  // defaults: 1000 actors, 100 groups, 20 rounds
  exp::CoreScenarioResult r = exp::run_core_scenario(config);
  std::cout << "[scenario] 1000-actor concurrent core scenario\n"
            << "  wall_seconds       = " << r.wall_seconds << "\n"
            << "  scheduling_points  = " << r.scheduling_points << "\n"
            << "  fair_share_solves  = " << r.fair_share_solves << "\n"
            << "  activities         = " << r.activities << "\n"
            << "  activities_per_sec = " << static_cast<double>(r.activities) / r.wall_seconds
            << "\n"
            << "  final_vtime        = " << r.final_vtime << "\n"
            << "  checksum           = " << r.completion_checksum << "\n"
            << "  checksum_ns        = " << r.checksum_ns << "\n";
  util::Json j(util::JsonObject{});
  j.set("actors", config.actors);
  j.set("groups", config.groups);
  j.set("rounds", config.rounds);
  j.set("wall_seconds", r.wall_seconds);
  j.set("scheduling_points", static_cast<unsigned long>(r.scheduling_points));
  j.set("fair_share_solves", static_cast<unsigned long>(r.fair_share_solves));
  j.set("activities", static_cast<unsigned long>(r.activities));
  j.set("activities_per_sec", static_cast<double>(r.activities) / r.wall_seconds);
  j.set("final_vtime", r.final_vtime);
  j.set("completion_checksum", r.completion_checksum);
  j.set("checksum_ns", static_cast<unsigned long>(r.checksum_ns));
  return j;
}

/// The batching A/B on the same 1000-actor scenario: timestamp-batched
/// solving (the default) against the per-event reference mode.  Checksums
/// must match bit-for-bit; the recorded win is the solve reduction and the
/// wall-clock ratio ("solves_per_event" = fair-share solves / scheduling
/// points).
util::Json run_recorded_batching_ab() {
  exp::CoreScenarioConfig config;
  exp::CoreScenarioResult batched = exp::run_core_scenario(config);
  config.solve_batching = false;
  exp::CoreScenarioResult per_event = exp::run_core_scenario(config);

  const bool identical = batched.checksum_ns == per_event.checksum_ns &&
                         batched.final_vtime == per_event.final_vtime &&
                         batched.completion_checksum == per_event.completion_checksum;
  auto per_point = [](const exp::CoreScenarioResult& r) {
    return r.scheduling_points == 0
               ? 0.0
               : static_cast<double>(r.fair_share_solves) /
                     static_cast<double>(r.scheduling_points);
  };
  std::cout << "[batching] batched:   " << batched.fair_share_solves << " solves ("
            << per_point(batched) << "/event), " << batched.wall_seconds << " s\n"
            << "[batching] per-event: " << per_event.fair_share_solves << " solves ("
            << per_point(per_event) << "/event), " << per_event.wall_seconds << " s\n"
            << "[batching] bit-identical results: " << (identical ? "yes" : "NO — BUG")
            << "\n";
  auto record = [&per_point](const exp::CoreScenarioResult& r) {
    util::Json j(util::JsonObject{});
    j.set("wall_seconds", r.wall_seconds);
    j.set("fair_share_solves", static_cast<unsigned long>(r.fair_share_solves));
    j.set("solves_per_event", per_point(r));
    j.set("checksum_ns", static_cast<unsigned long>(r.checksum_ns));
    return j;
  };
  util::Json j(util::JsonObject{});
  j.set("batched", record(batched));
  j.set("per_event", record(per_event));
  j.set("solve_reduction",
        static_cast<double>(per_event.fair_share_solves) /
            static_cast<double>(batched.fair_share_solves == 0 ? 1 : batched.fair_share_solves));
  j.set("wall_speedup", per_event.wall_seconds / batched.wall_seconds);
  j.set("bit_identical", identical);
  return j;
}

/// Mixed LRU workload: a populated list under random touch / dirty-flip /
/// LRU-query / find pressure — the pagecache layer's hot operations.
util::Json run_recorded_lru_workload() {
  constexpr std::uint64_t kBlocks = 4096;
  constexpr std::uint64_t kOps = 200000;
  cache::LruList list;
  util::Rng rng(1234);
  for (std::uint64_t i = 0; i < kBlocks; ++i) {
    cache::DataBlock b;
    b.id = i;
    b.file = "f" + std::to_string(i % 64);
    b.size = 4096.0;
    b.entry_time = static_cast<double>(i);
    b.last_access = static_cast<double>(i);
    b.dirty = rng.bernoulli(0.3);
    list.insert(std::move(b));
  }
  double now = static_cast<double>(kBlocks);
  double sink = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t op = 0; op < kOps; ++op) {
    switch (rng.uniform_int(0, 4)) {
      case 0: {
        auto it = list.find(rng.uniform_int(0, kBlocks - 1));
        if (it != list.end()) list.touch(it, now);
        now += 1.0;
        break;
      }
      case 1: {
        auto it = list.lru_dirty("f" + std::to_string(rng.uniform_int(0, 63)));
        if (it != list.end()) sink += it->size;
        break;
      }
      case 2: {
        auto it = list.lru_clean("f" + std::to_string(rng.uniform_int(0, 63)));
        if (it != list.end()) sink += it->size;
        break;
      }
      case 3: {
        auto it = list.lru_dirty_of("f" + std::to_string(rng.uniform_int(0, 63)));
        if (it != list.end()) sink += it->size;
        break;
      }
      default: {
        auto it = list.find(rng.uniform_int(0, kBlocks - 1));
        if (it != list.end()) list.set_dirty(it, !it->dirty);
        sink += list.clean_excluding("f" + std::to_string(rng.uniform_int(0, 63)));
        break;
      }
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  std::cout << "[lru] mixed workload: " << kOps << " ops over " << kBlocks << " blocks in "
            << wall << " s (" << static_cast<double>(kOps) / wall << " ops/s, sink=" << sink
            << ")\n";
  util::Json j(util::JsonObject{});
  j.set("blocks", static_cast<unsigned long>(kBlocks));
  j.set("ops", static_cast<unsigned long>(kOps));
  j.set("wall_seconds", wall);
  j.set("ops_per_sec", static_cast<double>(kOps) / wall);
  return j;
}

/// The arena/SoA memory-architecture record (ISSUE 10): wall time and peak
/// RSS of one ~100k-actor mega_tenant run on the arena engine, against the
/// figures measured on the pre-arena shared_ptr-per-activity layout (same
/// container, same config, immediately before the refactor).  The checksum
/// is the acceptance fingerprint: the arena engine must reproduce the
/// recorded pre-arena simulated timeline bit-for-bit.
util::Json run_recorded_arena_soa() {
  // Measured at the commit preceding the arena refactor (median of 5; the
  // peak-RSS probe is util::peak_rss_kb on the same run).
  constexpr double kBeforeWallSeconds = 1.91;
  constexpr unsigned long kBeforePeakRssKb = 155784;
  constexpr unsigned long long kExpectedChecksumNs = 35390754760100ull;

  exp::CoreScenarioConfig config = exp::mega_tenant_config(100);  // 100k actors
  exp::CoreScenarioResult r = exp::run_core_scenario(config);
  const unsigned long rss_kb = static_cast<unsigned long>(util::peak_rss_kb());
  const bool identical = r.checksum_ns == kExpectedChecksumNs;
  std::cout << "[arena_soa] mega_tenant on the arena engine: " << r.wall_seconds
            << " s wall, " << rss_kb << " kB peak RSS (pre-arena: " << kBeforeWallSeconds
            << " s, " << kBeforePeakRssKb << " kB)\n"
            << "[arena_soa] pre-arena checksum reproduced: " << (identical ? "yes" : "NO — BUG")
            << "\n";
  util::Json j(util::JsonObject{});
  j.set("actors", config.actors * config.tenants);
  j.set("activities", static_cast<unsigned long>(r.activities));
  j.set("wall_seconds", r.wall_seconds);
  j.set("peak_rss_kb", rss_kb);
  j.set("before_wall_seconds", kBeforeWallSeconds);
  j.set("before_peak_rss_kb", kBeforePeakRssKb);
  j.set("rss_ratio", rss_kb != 0 ? static_cast<double>(rss_kb) / kBeforePeakRssKb : 0.0);
  j.set("checksum_ns", static_cast<unsigned long>(r.checksum_ns));
  j.set("bit_identical", identical);
  return j;
}

/// Engine self-profile of the 1000-actor scenario: where the engine's own
/// wall-clock goes (recompute as a whole, BFS, serial solve, merge,
/// coroutine dispatch).  Wall-clock only — it lives here in BENCH_core.json,
/// quarantined from every simulated report, like all other timing figures.
util::Json run_recorded_self_profile() {
  exp::CoreScenarioConfig config;
  obs::EngineProfile profile;
  config.profile = &profile;
  exp::CoreScenarioResult r = exp::run_core_scenario(config);
  std::cout << "[self_profile] 1000-actor scenario with the profiler attached ("
            << r.wall_seconds << " s wall)\n"
            << profile.report();
  util::Json j = profile.to_json();
  j.set("wall_seconds", r.wall_seconds);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bool scenario_only = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenario-only") == 0) {
      scenario_only = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  if (!scenario_only) {
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
  }

  // arena_soa runs first so its peak-RSS sample reflects one mega_tenant
  // run, not the later recorded workloads (VmHWM is a process high-water).
  util::Json arena_soa = run_recorded_arena_soa();
  const bool arena_identical = arena_soa.at("bit_identical").as_bool();
  pcs::metrics::write_bench_section("arena_soa", std::move(arena_soa));

  util::Json section(util::JsonObject{});
  section.set("concurrent_1000", run_recorded_scenario());
  section.set("solve_batching", run_recorded_batching_ab());
  const bool batching_identical = section.at("solve_batching").at("bit_identical").as_bool();
  section.set("lru_mixed", run_recorded_lru_workload());
  pcs::metrics::write_bench_section("micro_core", std::move(section));
  // Clear the high-water mark the runs above left behind, so the profile's
  // peak_rss_kb measures the profiled run alone.
  util::reset_peak_rss();
  pcs::metrics::write_bench_section("self_profile", run_recorded_self_profile());
  // A batched-vs-per-event or arena-vs-recorded divergence is an engine
  // bug, not a perf datum: fail the run so CI goes red instead of burying
  // it in the artifact.
  return batching_identical && arena_identical ? 0 : 1;
}
