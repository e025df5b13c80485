#include "storage/service_registry.hpp"

#include <memory>
#include <mutex>

#include "refmodel/page_model.hpp"
#include "storage/burst_buffer.hpp"
#include "storage/local_storage.hpp"
#include "storage/nfs.hpp"
#include "storage/tiered.hpp"
#include "util/units.hpp"
#include "workflow/simulation.hpp"
#include "util/json.hpp"

namespace pcs::storage {

cache::CacheMode cache_mode_from_string(const std::string& name) {
  if (name == "none") return cache::CacheMode::None;
  if (name == "writeback") return cache::CacheMode::Writeback;
  if (name == "writethrough") return cache::CacheMode::Writethrough;
  if (name == "read" || name == "readcache") return cache::CacheMode::ReadCache;
  throw StorageError("unknown cache mode '" + name +
                     "' (expected none|writeback|writethrough|read)");
}

std::string to_string(cache::CacheMode mode) {
  switch (mode) {
    case cache::CacheMode::None: return "none";
    case cache::CacheMode::Writeback: return "writeback";
    case cache::CacheMode::Writethrough: return "writethrough";
    case cache::CacheMode::ReadCache: return "read";
  }
  return "?";
}

cache::CacheParams cache_params_from_json(const util::Json& params, cache::CacheParams base) {
  base.dirty_ratio = params.number_or("dirty_ratio", base.dirty_ratio);
  base.dirty_expire = params.number_or("dirty_expire", base.dirty_expire);
  base.dirty_background_ratio =
      params.number_or("dirty_background_ratio", base.dirty_background_ratio);
  base.flush_period = params.number_or("flush_period", base.flush_period);
  base.max_active_ratio = params.number_or("max_active_ratio", base.max_active_ratio);
  if (params.contains("lru_policy")) {
    const std::string& policy = params.at("lru_policy").as_string();
    if (policy == "two_list") {
      base.lru_policy = cache::LruPolicy::TwoList;
    } else if (policy == "single_list") {
      base.lru_policy = cache::LruPolicy::SingleList;
    } else {
      throw StorageError("unknown lru_policy '" + policy + "'");
    }
  }
  base.merge_on_access = params.bool_or("merge_on_access", base.merge_on_access);
  return base;
}

util::Json cache_params_to_json(const cache::CacheParams& params) {
  util::Json doc{util::JsonObject{}};
  doc.set("dirty_ratio", params.dirty_ratio);
  doc.set("dirty_expire", params.dirty_expire);
  doc.set("dirty_background_ratio", params.dirty_background_ratio);
  doc.set("flush_period", params.flush_period);
  doc.set("max_active_ratio", params.max_active_ratio);
  doc.set("lru_policy",
          params.lru_policy == cache::LruPolicy::TwoList ? "two_list" : "single_list");
  doc.set("merge_on_access", params.merge_on_access);
  return doc;
}

namespace {

cache::CacheParams effective_params(const ServiceContext& ctx, const util::Json& spec) {
  if (!spec.contains("params")) return ctx.default_params;
  return cache_params_from_json(spec.at("params"), ctx.default_params);
}

plat::Host& host_field(ServiceContext& ctx, const util::Json& spec, const std::string& key) {
  if (!spec.contains(key)) {
    throw StorageError("storage spec needs a \"" + key + "\" host name");
  }
  return *ctx.sim.platform().host(spec.at(key).as_string());
}

plat::Disk& disk_field(plat::Host& host, const util::Json& spec, const std::string& key) {
  if (spec.contains(key)) return *host.disk(spec.at(key).as_string());
  if (host.disks().empty()) {
    throw StorageError("host '" + host.name() + "' has no disk");
  }
  return *host.disks().front();
}

LocalStorage* build_local(ServiceContext& ctx, const util::Json& spec, double memory_limit) {
  plat::Host& host = host_field(ctx, spec, "host");
  plat::Disk& disk = disk_field(host, spec, "disk");
  const cache::CacheMode mode =
      cache_mode_from_string(spec.string_or("cache", "writeback"));
  return ctx.sim.create_local_storage(host, disk, mode, effective_params(ctx, spec),
                                      memory_limit);
}

StorageService* build_local_backend(ServiceContext& ctx, const util::Json& spec) {
  return build_local(ctx, spec, util::bytes_field_or(spec, "memory_limit", -1.0));
}

/// cgroup-limited local storage (scenarios/sweeps/cgroup_memory.json):
/// same as "local" but the memory limit — the cgroup's cap on page cache +
/// application memory together — is mandatory.
StorageService* build_cgroup_local_backend(ServiceContext& ctx, const util::Json& spec) {
  if (!spec.contains("memory_limit")) {
    throw StorageError("cgroup_local storage needs a \"memory_limit\"");
  }
  const double limit = util::bytes_field_or(spec, "memory_limit", -1.0);
  if (limit <= 0.0) throw StorageError("cgroup_local: memory_limit must be positive");
  return build_local(ctx, spec, limit);
}

NfsMount* build_nfs_mount(ServiceContext& ctx, const util::Json& spec) {
  plat::Host& client = host_field(ctx, spec, "host");
  plat::Host& server_host = host_field(ctx, spec, "server_host");
  plat::Disk& server_disk = disk_field(server_host, spec, "server_disk");
  const cache::CacheMode server_mode =
      cache_mode_from_string(spec.string_or("server_cache", "writethrough"));
  const cache::CacheMode client_mode = cache_mode_from_string(spec.string_or("cache", "read"));
  const cache::CacheParams params = effective_params(ctx, spec);
  NfsServer* server = ctx.sim.create_nfs_server(
      server_host, server_disk, server_mode, params,
      util::bytes_field_or(spec, "server_memory_limit", -1.0));
  return ctx.sim.create_nfs_mount(client, *server, client_mode, params,
                                  util::bytes_field_or(spec, "memory_limit", -1.0));
}

StorageService* build_nfs_backend(ServiceContext& ctx, const util::Json& spec) {
  return build_nfs_mount(ctx, spec);
}

StorageService* build_reference_backend(ServiceContext& ctx, const util::Json& spec) {
  plat::Host& host = host_field(ctx, spec, "host");
  plat::Disk& disk = disk_field(host, spec, "disk");
  ref::RefParams params;  // kernel defaults — the paper's reference config
  if (spec.contains("params")) {
    const util::Json& p = spec.at("params");
    params.page_size = p.number_or("page_size", params.page_size);
    params.dirty_ratio = p.number_or("dirty_ratio", params.dirty_ratio);
    params.dirty_background_ratio =
        p.number_or("dirty_background_ratio", params.dirty_background_ratio);
    params.dirty_expire = p.number_or("dirty_expire", params.dirty_expire);
    params.writeback_period = p.number_or("writeback_period", params.writeback_period);
    params.max_active_ratio = p.number_or("max_active_ratio", params.max_active_ratio);
    params.protect_open_writes = p.bool_or("protect_open_writes", params.protect_open_writes);
  }
  auto store = std::make_unique<ref::RefStorage>(
      ctx.sim.engine(), host, disk, params,
      util::bytes_field_or(spec, "memory_limit", -1.0));
  auto* raw = static_cast<ref::RefStorage*>(ctx.sim.adopt_storage(std::move(store)));
  raw->start_flusher();
  return raw;
}

/// Burst buffer: a "local" buffer plus an "nfs" target, drained in the
/// background.  Spec: buffer fields as for "local", target fields under
/// "target" (an "nfs" spec), plus drain_period / drain_chunk /
/// drain_files / drain_suffix.
StorageService* build_burst_buffer_backend(ServiceContext& ctx, const util::Json& spec) {
  LocalStorage* buffer = build_local(ctx, spec,
                                     util::bytes_field_or(spec, "memory_limit", -1.0));
  if (!spec.contains("target")) {
    throw StorageError("burst_buffer storage needs a \"target\" (an nfs service spec)");
  }
  util::Json target_spec = spec.at("target");
  if (!target_spec.contains("host")) target_spec.set("host", spec.at("host"));
  NfsMount* target = build_nfs_mount(ctx, target_spec);

  BurstBufferOptions options;
  options.drain_period = spec.number_or("drain_period", 1.0);
  options.drain_chunk = util::bytes_field_or(spec, "drain_chunk", 100.0 * util::MB);
  options.drain_suffix = spec.string_or("drain_suffix", "");
  if (spec.contains("drain_files")) {
    for (const util::Json& f : spec.at("drain_files").as_array()) {
      options.drain_files.push_back(f.as_string());
    }
  }
  auto bb = std::make_unique<BurstBuffer>(ctx.sim.engine(), *buffer, *target,
                                          std::move(options));
  auto* raw = static_cast<BurstBuffer*>(ctx.sim.adopt_storage(std::move(bb)));
  raw->start_drainer();
  return raw;
}

/// Tiered SSD+HDD storage (the ROADMAP follow-up): one cached namespace
/// over a fast and a slow device with creation-time watermark spill.
/// Spec: {"fast_disk": "...", "slow_disk": "...", "watermark": 0.9,
/// "cache"/"params"/"memory_limit" as for "local"}.  Defaults: the host's
/// first two disks, watermark 0.9.
StorageService* build_tiered_backend(ServiceContext& ctx, const util::Json& spec) {
  plat::Host& host = host_field(ctx, spec, "host");
  if (host.disks().size() < 2) {
    throw StorageError("tiered storage: host '" + host.name() + "' needs two disks");
  }
  plat::Disk& fast = spec.contains("fast_disk") ? *host.disk(spec.at("fast_disk").as_string())
                                                : *host.disks()[0];
  plat::Disk& slow = spec.contains("slow_disk") ? *host.disk(spec.at("slow_disk").as_string())
                                                : *host.disks()[1];
  const cache::CacheMode mode =
      cache_mode_from_string(spec.string_or("cache", "writeback"));
  auto tiered = std::make_unique<TieredStorage>(
      ctx.sim.engine(), host, fast, slow, mode, spec.number_or("watermark", 0.9),
      effective_params(ctx, spec), util::bytes_field_or(spec, "memory_limit", -1.0));
  auto* raw = static_cast<TieredStorage*>(ctx.sim.adopt_storage(std::move(tiered)));
  if (mode == cache::CacheMode::Writeback) raw->start_periodic_flush();
  return raw;
}

}  // namespace

ServiceRegistry::ServiceRegistry() {
  register_backend("local", build_local_backend);
  register_backend("cgroup_local", build_cgroup_local_backend);
  register_backend("nfs", build_nfs_backend);
  register_backend("reference", build_reference_backend);
  register_backend("burst_buffer", build_burst_buffer_backend);
  register_backend("tiered", build_tiered_backend);
}

ServiceRegistry& ServiceRegistry::instance() {
  // Built exactly once, even under concurrent first use from sweep worker
  // threads; the built-in backends are registered inside the constructor,
  // so no caller can observe a partially-populated registry.  The instance
  // is deliberately never destroyed: storage objects (and the sweep
  // workers driving them) may outlive any particular static-destruction
  // order, so the registry must stay valid until process exit.
  static ServiceRegistry* registry = nullptr;
  static std::once_flag once;
  std::call_once(once, [] { registry = new ServiceRegistry(); });
  return *registry;
}

void ServiceRegistry::register_backend(const std::string& type, Builder builder) {
  std::unique_lock lock(mutex_);
  if (builders_.count(type) != 0) {
    throw StorageError("storage backend '" + type + "' already registered");
  }
  builders_[type] = std::move(builder);
}

bool ServiceRegistry::has(const std::string& type) const {
  std::shared_lock lock(mutex_);
  return builders_.count(type) != 0;
}

std::vector<std::string> ServiceRegistry::types() const {
  std::shared_lock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(builders_.size());
  for (const auto& [type, builder] : builders_) names.push_back(type);
  return names;
}

StorageService* ServiceRegistry::build(const std::string& type, ServiceContext& ctx,
                                       const util::Json& spec) const {
  Builder builder;
  {
    std::shared_lock lock(mutex_);
    auto it = builders_.find(type);
    if (it == builders_.end()) {
      std::string known;
      for (const auto& [name, b] : builders_) {
        if (!known.empty()) known += ", ";
        known += name;
      }
      throw StorageError("unknown storage backend '" + type + "' (registered: " + known + ")");
    }
    // Copy so a concurrent register_backend can't invalidate the functor
    // mid-build; builders are cheap to copy and run outside the lock.
    builder = it->second;
  }
  return builder(ctx, spec);
}

}  // namespace pcs::storage
