// Scenario documents for the paper's two-node cluster, shared by the tests
// that compare the four simulators on scaled-down Exp 1-3 runs.  The base
// is the synthetic pipeline (Table I, 20 GB files, the default 100 MB
// chunks) with the storage service derived from "simulator"; every variant
// is a set of dotted-path overrides applied with scenario::apply_override,
// exactly as a sweep case applies its own.
#pragma once

#include <string>
#include <utility>

#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"
#include "util/json.hpp"

#ifndef PCS_SOURCE_DIR
#define PCS_SOURCE_DIR "."
#endif

namespace pcs::test {

/// Table III's measured asymmetric bandwidths (relative to scenarios/):
/// what the reference model runs on, and what the A1 ablation feeds to
/// WRENCH-cache.  The simulators default to the symmetric means.
inline constexpr const char* kRealPlatform = "platforms/paper_cluster_real.json";

/// Run `simulator` on the paper's cluster with `overrides` (dotted path ->
/// value) applied in key order.  The reference model gets the measured
/// bandwidths, the simulators the symmetric means, as in the paper.
inline scenario::RunResult run_paper_scenario(const std::string& simulator,
                                              const util::JsonObject& overrides = {}) {
  util::Json doc{util::JsonObject{}};
  doc.set("simulator", simulator);
  doc.set("platform_file",
          simulator == "reference" ? kRealPlatform : "platforms/paper_cluster.json");
  doc.set("workload",
          util::Json{util::JsonObject{}}.set("type", "synthetic").set("input_size", "20 GB"));
  for (const auto& [path, value] : overrides) scenario::apply_override(doc, path, value);
  return scenario::run_scenario(
      scenario::ScenarioSpec::parse(doc, PCS_SOURCE_DIR "/scenarios"));
}

/// Exp 3's storage as the scenario's "services": the storage node exports
/// its SSD over NFS.  `cached` selects WRENCH-cache's writethrough server
/// cache and client read cache; otherwise both are off (cacheless WRENCH).
inline util::Json nfs_services(bool cached) {
  util::Json nfs{util::JsonObject{}};
  nfs.set("name", "store")
      .set("type", "nfs")
      .set("server_host", "storage0")
      .set("server_disk", "nfs-ssd")
      .set("server_cache", cached ? "writethrough" : "none")
      .set("cache", cached ? "read" : "none");
  util::Json services{util::JsonArray{}};
  services.push_back(std::move(nfs));
  return services;
}

}  // namespace pcs::test
