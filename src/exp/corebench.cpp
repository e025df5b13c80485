#include "exp/corebench.hpp"

#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "simcore/engine.hpp"
#include "simcore/task.hpp"
#include "util/rng.hpp"

namespace pcs::exp {

namespace {

sim::Task<> core_actor(sim::Engine& engine, const CoreScenarioConfig& config,
                       sim::Resource* disk, sim::Resource* link, std::uint64_t actor_seed,
                       double& checksum, std::uint64_t& checksum_ns) {
  util::Rng rng(actor_seed);
  for (int round = 0; round < config.rounds; ++round) {
    const double amount = config.work_mean * rng.uniform(0.5, 2.0);
    if (rng.bernoulli(0.5)) {
      // Plain disk I/O.
      co_await engine.submit("io", sim::one(disk), amount);
    } else {
      // Network-attached I/O: disk and link claimed together (bottleneck
      // model), still within the actor's own group.  The claims vector is
      // built before the co_await: GCC 12's coroutine lowering rejects
      // initializer_list temporaries there (see sim::one).
      std::vector<sim::Claim> claims{{disk, 1.0}, {link, 1.0}};
      co_await engine.submit("net-io", std::move(claims), amount);
    }
    checksum += engine.now();
    checksum_ns += static_cast<std::uint64_t>(std::llround(engine.now() * 1e9));
  }
}

sim::Task<> crash_driver(sim::Engine& engine, double crash_time, std::string group) {
  co_await engine.sleep_until(crash_time);
  engine.cancel_group(group);
}

}  // namespace

CoreScenarioResult run_core_scenario(const CoreScenarioConfig& config) {
  sim::Engine engine;
  engine.set_solver_cross_check(config.solver_cross_check);
  engine.set_solve_batching(config.solve_batching);
  if (config.profile != nullptr) engine.set_profiler(config.profile);
  const int tenants = config.tenants > 0 ? config.tenants : 1;

  // Resources tenant-major; tenant 0 keeps the historical bare names so the
  // single-tenant scenario stays byte-identical to every committed
  // fingerprint.  Tenants never share a resource, so each tenant's groups
  // are connected components of their own.
  std::vector<sim::Resource*> disks;
  std::vector<sim::Resource*> links;
  disks.reserve(static_cast<std::size_t>(config.groups) * static_cast<std::size_t>(tenants));
  links.reserve(static_cast<std::size_t>(config.groups) * static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    const std::string prefix = t == 0 ? std::string{} : "t" + std::to_string(t) + ":";
    for (int g = 0; g < config.groups; ++g) {
      disks.push_back(engine.new_resource(prefix + "disk" + std::to_string(g), config.disk_bw));
      links.push_back(engine.new_resource(prefix + "link" + std::to_string(g), config.link_bw));
    }
  }

  const std::size_t total_actors =
      static_cast<std::size_t>(config.actors) * static_cast<std::size_t>(tenants);
  std::vector<double> checksums(total_actors, 0.0);
  std::vector<std::uint64_t> ns_checksums(total_actors, 0);
  for (int t = 0; t < tenants; ++t) {
    const std::string prefix = t == 0 ? std::string{} : "t" + std::to_string(t) + ":";
    const std::string group = tenants > 1 ? "tenant" + std::to_string(t) : std::string{};
    const std::size_t base =
        static_cast<std::size_t>(t) * static_cast<std::size_t>(config.actors);
    for (int a = 0; a < config.actors; ++a) {
      const std::size_t g = static_cast<std::size_t>(config.groups) *
                                static_cast<std::size_t>(t) +
                            static_cast<std::size_t>(a % config.groups);
      const std::size_t idx = base + static_cast<std::size_t>(a);
      // Identical per-actor seeds across tenants: tenant workloads are
      // clones, so their event timestamps align and batched scheduling
      // points dirty many components at once.
      engine.spawn(prefix + "actor" + std::to_string(a),
                   core_actor(engine, config, disks[g], links[g],
                              config.seed + static_cast<std::uint64_t>(a), checksums[idx],
                              ns_checksums[idx]),
                   /*daemon=*/false, group);
    }
  }
  if (config.crash_time >= 0.0 && tenants > 1) {
    engine.spawn("crash-driver",
                 crash_driver(engine, config.crash_time,
                              "tenant" + std::to_string(config.crash_tenant)),
                 /*daemon=*/true);
  }

  const auto t0 = std::chrono::steady_clock::now();
  engine.run();
  const auto t1 = std::chrono::steady_clock::now();

  CoreScenarioResult result;
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.final_vtime = engine.now();
  result.scheduling_points = engine.scheduling_points();
  result.fair_share_solves = engine.fair_share_solves();
  result.same_time_points = engine.same_time_points();
  result.activities = static_cast<std::uint64_t>(total_actors) *
                      static_cast<std::uint64_t>(config.rounds);
  result.components_solved = engine.components_solved();
  result.cancelled_activities = engine.cancelled_activities();
  for (double c : checksums) result.completion_checksum += c;
  for (std::uint64_t c : ns_checksums) result.checksum_ns += c;
  return result;
}

CoreScenarioConfig mega_tenant_config(int tenants) {
  CoreScenarioConfig config;
  config.actors = 1000;
  config.groups = 100;
  config.rounds = 3;
  config.tenants = tenants;
  return config;
}

}  // namespace pcs::exp
