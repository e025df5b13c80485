// Input generators for bench_e2e.  Every generated workload is one sweep
// document (a base scenario plus one explicit case per simulated run), built
// here from the seed alone; the simulator library only ever receives these
// documents, or — for paper_suite — the committed experiments/ and
// scenarios/ files.
//
// Case shapes are stratified by case slot: the slot fixes everything that
// sets a case's cost (tenant and instance counts, data volume, chunk size,
// cache modes), and the seed jitters sizes and arrival times by a few
// percent.  Two seeds therefore give different
// documents of nearly the same total cost, which keeps the run-to-run
// spread across seeds small enough to compare commits.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace e2e {

using pcs::util::Json;
using pcs::util::JsonArray;
using pcs::util::JsonObject;

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_suite", "cache_churn",
                                                 "cacheless_control", "nfs_shared",
                                                 "trace_replay"};
  return names;
}

inline bool is_known_workload(const std::string& name) {
  const auto& names = workload_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// Cases per pass of a generated workload; `small` is the self-test size.
/// A hundred cases leave ten beyond the 90th percentile.
inline int case_count(bool small) { return small ? 3 : 100; }

/// The paper's two-node cluster (scenarios/platforms/paper_cluster.json),
/// with the compute node's RAM as a parameter so working sets can exceed it
/// at moderate data volumes.
inline Json platform_doc(double compute_ram_gb) {
  Json doc = Json::parse(R"({
    "hosts": [
      {"name": "compute0", "speed_gflops": 1, "cores": 32,
       "memory": {"read_bw_MBps": 4812, "write_bw_MBps": 4812},
       "disks": [{"name": "ssd0", "read_bw_MBps": 465, "write_bw_MBps": 465,
                  "capacity": "450 GiB"}]},
      {"name": "storage0", "speed_gflops": 1, "cores": 32, "ram": "250 GB",
       "memory": {"read_bw_MBps": 4812, "write_bw_MBps": 4812},
       "disks": [{"name": "nfs-ssd", "read_bw_MBps": 445, "write_bw_MBps": 445,
                  "capacity": "450 GiB"}]}
    ],
    "links": [{"name": "lan", "bw_MBps": 3000}],
    "routes": [{"src": "compute0", "dst": "storage0", "links": ["lan"]}]
  })");
  doc.as_object()["hosts"].as_array()[0].set("ram", std::to_string(
      static_cast<long>(compute_ram_gb)) + " GB");
  return doc;
}

namespace detail {

/// Independent stream per workload, so adding a draw to one generator never
/// shifts another's documents.
inline pcs::util::Rng stream(std::uint64_t seed, const std::string& salt) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : salt) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return pcs::util::Rng(seed * 0x9e3779b97f4a7c15ULL ^ h);
}

inline std::string label(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "c%03d", i);
  return buf;
}

inline Json mb(double megabytes) { return std::to_string(std::lround(megabytes)) + " MB"; }

inline Json sweep_doc(const std::string& name, Json base, Json cases) {
  Json doc{JsonObject{}};
  doc.set("name", name);
  doc.set("base", std::move(base));
  doc.set("cases", std::move(cases));
  return doc;
}

inline Json case_entry(int i, Json overrides) {
  Json c{JsonObject{}};
  c.set("label", label(i));
  c.set("overrides", std::move(overrides));
  return c;
}

/// A draw within +-`frac` of 1: the seed's only influence on a case's size.
inline double jitter(pcs::util::Rng& rng, double frac) {
  return rng.uniform(1.0 - frac, 1.0 + frac);
}

/// Seconds rounded to 0.1 s, so generated documents stay readable.
inline double tenths(double seconds) { return std::round(seconds * 10.0) / 10.0; }

/// cache_churn's case at `slot`: 1-4 synthetic tenants of 2-12 instances
/// whose summed input volume follows a fixed ladder, on a 128 GB node, so
/// the files written (four times the input volume) overflow the cache and
/// eviction, flushing and LRU migration run throughout.  The summed input
/// volume — the concurrent anonymous working set if every instance
/// overlapped — stays at or below 80 GB, well under host memory.
inline Json churn_case(int slot, int n, double scale, pcs::util::Rng& rng) {
  static const double kChunkMb[] = {10.0, 20.0, 50.0};
  static const double kTenantWeight[] = {1.0, 1.5, 0.75, 1.25};
  const int tenants = 1 + slot % 4;
  const double chunk_mb = kChunkMb[(slot / 4) % 3];
  // Volume ladder over the slots: 5 to 30 GB of input, scaled by chunk size
  // so every chunk size sees a comparable number of block operations.
  const double ladder = n > 1 ? static_cast<double>(slot) / (n - 1) : 0.5;
  const double volume_gb =
      std::min(32.0, scale * (5.0 + 25.0 * ladder) * std::sqrt(chunk_mb / 20.0));
  double total_weight = 0.0;
  for (int t = 0; t < tenants; ++t) total_weight += kTenantWeight[t];

  Json list{JsonArray{}};
  for (int t = 0; t < tenants; ++t) {
    const double tenant_gb = volume_gb * kTenantWeight[t] / total_weight;
    int instances = 2 + (7 * slot + 5 * t) % 11;
    if (tenant_gb / instances > 4.0) {
      instances = std::min(12, static_cast<int>(std::ceil(tenant_gb / 4.0)));
    }
    const double input_gb = std::clamp(tenant_gb / instances * jitter(rng, 0.05), 0.5, 4.0);
    Json tenant{JsonObject{}};
    tenant.set("name", std::string("t").append(std::to_string(t)));
    tenant.set("type", "synthetic");
    tenant.set("instances", instances);
    tenant.set("input_size", mb(input_gb * 1000.0));
    tenant.set("arrival", tenths(30.0 * t * jitter(rng, 0.1)));
    tenant.set("stagger", tenths((2.0 + (slot + t) % 8) * jitter(rng, 0.1)));
    list.push_back(std::move(tenant));
  }
  Json workload{JsonObject{}};
  workload.set("type", "multi_tenant");
  workload.set("tenants", std::move(list));
  Json overrides{JsonObject{}};
  overrides.set("workload", std::move(workload));
  overrides.set("chunk_size", mb(chunk_mb));
  return overrides;
}

inline Json churn_base(const std::string& name, bool cacheless) {
  Json base{JsonObject{}};
  base.set("name", name);
  base.set("simulator", cacheless ? "wrench" : "wrench_cache");
  base.set("platform", platform_doc(64.0));
  Json store{JsonObject{}};
  store.set("name", "store");
  store.set("type", "local");
  store.set("cache", cacheless ? "none" : "writeback");
  base.set("services", Json{JsonArray{store}});
  return base;
}

/// cache_churn and cacheless_control share one generator and stream, so the
/// control sees exactly the churn documents with the cache removed; its
/// instance counts are doubled to bring the run length level.
inline Json churn_sweep(std::uint64_t seed, bool small, bool cacheless) {
  const std::string name = cacheless ? "cacheless_control" : "cache_churn";
  pcs::util::Rng rng = stream(seed, "cache_churn");
  const int n = case_count(small);
  Json cases{JsonArray{}};
  for (int i = 0; i < n; ++i) {
    Json overrides = churn_case(i, n, small ? 0.2 : 1.0, rng);
    if (cacheless) {
      for (Json& tenant :
           overrides.as_object()["workload"].as_object()["tenants"].as_array()) {
        tenant.set("instances", tenant.at("instances").as_number() * 2);
      }
    }
    cases.push_back(case_entry(i, std::move(overrides)));
  }
  return sweep_doc(name, churn_base(name, cacheless), std::move(cases));
}

/// nfs_shared: 4-32 synthetic instances over one NFS server.  The slot fixes
/// the instance ladder, input size, chunk size, warm staging and the
/// client/server cache modes (sync "read" vs async "writeback" clients,
/// "writethrough" vs uncached server).
inline Json nfs_sweep(std::uint64_t seed, bool small) {
  static const double kChunkMb[] = {20.0, 50.0, 100.0};
  pcs::util::Rng rng = stream(seed, "nfs_shared");
  const int n = case_count(small);
  Json cases{JsonArray{}};
  for (int slot = 0; slot < n; ++slot) {
    const int instances = small ? 2 : 4 + 4 * (slot % 8);
    const double input_mb = small ? 200.0 : 1000.0 + 500.0 * ((3 * slot) % 5);
    Json store{JsonObject{}};
    store.set("name", "store");
    store.set("type", "nfs");
    store.set("host", "compute0");
    store.set("server_host", "storage0");
    store.set("server_disk", "nfs-ssd");
    store.set("cache", (slot / 8) % 2 == 1 ? "writeback" : "read");
    store.set("server_cache", (slot / 16) % 2 == 0 ? "writethrough" : "none");
    Json workload{JsonObject{}};
    workload.set("type", "synthetic");
    workload.set("instances", instances);
    workload.set("input_size", mb(input_mb * jitter(rng, 0.05)));
    Json overrides{JsonObject{}};
    overrides.set("services", Json{JsonArray{store}});
    overrides.set("workload", std::move(workload));
    overrides.set("chunk_size", mb(kChunkMb[slot % 3]));
    overrides.set("warm_inputs", (slot / 2) % 2 == 0);
    cases.push_back(case_entry(slot, std::move(overrides)));
  }
  Json base{JsonObject{}};
  base.set("name", "nfs_shared");
  base.set("simulator", "wrench_cache");
  base.set("platform", platform_doc(250.0));
  return sweep_doc("nfs_shared", std::move(base), std::move(cases));
}

/// trace_replay: the multi-tenant runs that are recorded and replayed.  A
/// synthetic batch tenant and a Nighres tenant share the node through two
/// services with different dirty budgets.
inline Json trace_sweep(std::uint64_t seed, bool small) {
  static const double kDirtyRatio[] = {0.02, 0.05, 0.1};
  pcs::util::Rng rng = stream(seed, "trace_replay");
  const int n = case_count(small);
  Json cases{JsonArray{}};
  for (int slot = 0; slot < n; ++slot) {
    Json batch{JsonObject{}};
    batch.set("name", "batch");
    batch.set("type", "synthetic");
    batch.set("instances", small ? 1 : 2 + slot % 4);
    batch.set("input_size",
              mb((small ? 200.0 : 500.0 + 250.0 * ((slot / 2) % 3)) * jitter(rng, 0.05)));
    batch.set("stagger", tenths((5.0 + 3.0 * (slot % 5)) * jitter(rng, 0.1)));
    batch.set("service", "batch_store");
    Json nighres{JsonObject{}};
    nighres.set("name", "nighres");
    nighres.set("type", "nighres");
    nighres.set("instances", 1 + slot % 2);
    nighres.set("arrival", tenths(30.0 * (slot % 4) * jitter(rng, 0.1)));
    nighres.set("stagger", tenths((10.0 + 10.0 * (slot % 5)) * jitter(rng, 0.1)));
    nighres.set("service", "qos_store");
    Json workload{JsonObject{}};
    workload.set("type", "multi_tenant");
    workload.set("tenants", Json{JsonArray{batch, nighres}});
    Json params{JsonObject{}};
    params.set("dirty_ratio", kDirtyRatio[slot % 3]);
    params.set("flush_period", 1);
    Json overrides{JsonObject{}};
    overrides.set("workload", std::move(workload));
    overrides.set("services.1.params", std::move(params));
    overrides.set("chunk_size", mb(slot % 2 == 0 ? 20.0 : 50.0));
    cases.push_back(case_entry(slot, std::move(overrides)));
  }
  Json batch_store = Json::parse(R"({"name": "batch_store", "type": "local",
                                     "cache": "writeback"})");
  Json qos_store = Json::parse(R"({"name": "qos_store", "type": "local",
                                   "cache": "writeback", "params": {}})");
  Json base{JsonObject{}};
  base.set("name", "trace_replay");
  base.set("simulator", "wrench_cache");
  base.set("platform", platform_doc(250.0));
  base.set("services", Json{JsonArray{batch_store, qos_store}});
  base.set("default_service", "batch_store");
  return sweep_doc("trace_replay", std::move(base), std::move(cases));
}

}  // namespace detail

/// The sweep document of a generated workload (not paper_suite).
inline Json generate_sweep(const std::string& workload, std::uint64_t seed, bool small) {
  if (workload == "cache_churn") return detail::churn_sweep(seed, small, false);
  if (workload == "cacheless_control") return detail::churn_sweep(seed, small, true);
  if (workload == "nfs_shared") return detail::nfs_sweep(seed, small);
  if (workload == "trace_replay") return detail::trace_sweep(seed, small);
  throw std::runtime_error("no generator for workload '" + workload + "'");
}

/// Tasks a generated scenario document must complete: the synthetic
/// pipeline has three tasks per instance, Nighres four.
inline std::size_t expected_tasks(const Json& workload) {
  const std::string type = workload.string_or("type", "synthetic");
  if (type == "multi_tenant") {
    std::size_t total = 0;
    for (const Json& tenant : workload.at("tenants").as_array()) total += expected_tasks(tenant);
    return total;
  }
  const auto instances = static_cast<std::size_t>(workload.number_or("instances", 1.0));
  return instances * (type == "nighres" ? 4 : 3);
}

/// The cacheless twin of a generated scenario document: the same workload
/// on uncached services (Fig 8's comparison).
inline Json cacheless_twin(Json doc) {
  doc.set("simulator", "wrench");
  for (Json& svc : doc.as_object()["services"].as_array()) {
    svc.set("cache", "none");
    if (svc.string_or("type", "local") == "nfs") svc.set("server_cache", "none");
  }
  return doc;
}

}  // namespace e2e
