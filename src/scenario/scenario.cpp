#include "scenario/scenario.hpp"

#include <cmath>
#include <filesystem>
#include <set>

#include "faults/fault_model.hpp"
#include "storage/service_registry.hpp"
#include "util/paths.hpp"
#include "util/units.hpp"

namespace pcs::scenario {

namespace {

const std::set<std::string>& known_simulators() {
  static const std::set<std::string> kinds = {"wrench_cache", "wrench", "reference",
                                              "prototype"};
  return kinds;
}

/// Rewrite relative "file" references (dag workloads, nested tenants) to
/// absolute paths, so the effective spec (to_json) stays runnable from any
/// working directory.
void absolutize_file_refs(util::Json& workload, const std::string& base_dir) {
  if (!workload.is_object()) return;
  if (workload.contains("file")) {
    const std::string resolved =
        util::resolve_relative(base_dir, workload.at("file").as_string());
    workload.set("file", std::filesystem::absolute(resolved).lexically_normal().string());
  }
  if (workload.contains("tenants") && workload.at("tenants").is_array()) {
    for (util::Json& tenant : workload.as_object()["tenants"].as_array()) {
      absolutize_file_refs(tenant, base_dir);
    }
  }
}

}  // namespace

ScenarioSpec ScenarioSpec::parse(const util::Json& doc, const std::string& base_dir) {
  if (!doc.is_object()) throw ScenarioError("scenario must be a JSON object");
  ScenarioSpec spec;
  spec.base_dir = base_dir;
  spec.name = doc.string_or("name", "scenario");
  spec.simulator = doc.string_or("simulator", "wrench_cache");
  if (known_simulators().count(spec.simulator) == 0) {
    throw ScenarioError("unknown simulator '" + spec.simulator +
                        "' (expected wrench_cache|wrench|reference|prototype)");
  }

  if (doc.contains("platform")) {
    spec.platform = doc.at("platform");
  } else if (doc.contains("platform_file")) {
    spec.platform = util::Json::parse_file(
        util::resolve_relative(base_dir, doc.at("platform_file").as_string()));
  } else {
    throw ScenarioError("scenario needs \"platform\" (inline) or \"platform_file\"");
  }
  if (!spec.platform.contains("hosts") || spec.platform.at("hosts").size() == 0) {
    throw ScenarioError("scenario platform needs a non-empty \"hosts\" array");
  }
  spec.compute_host = doc.string_or(
      "compute_host", spec.platform.at("hosts").at(0).at("name").as_string());

  spec.chunk_size = util::bytes_field_or(doc, "chunk_size", 100.0 * util::MB);
  if (spec.chunk_size <= 0.0) throw ScenarioError("chunk_size must be positive");
  spec.probe_period = doc.number_or("probe_period", 0.0);
  if (spec.probe_period < 0.0) throw ScenarioError("probe_period must be non-negative");
  if (doc.contains("cache_params")) {
    spec.cache_params =
        storage::cache_params_from_json(doc.at("cache_params"), cache::CacheParams{});
  }
  if (doc.contains("workload")) {
    spec.workload = doc.at("workload");
    absolutize_file_refs(spec.workload, base_dir);
  } else {
    spec.workload = util::Json{util::JsonObject{}}.set("type", "synthetic");
  }

  if (doc.contains("services")) {
    int index = 0;
    for (const util::Json& svc : doc.at("services").as_array()) {
      ServiceDecl decl;
      decl.spec = svc;
      decl.type = svc.string_or("type", "local");
      decl.name = svc.string_or("name", "svc" + std::to_string(index));
      decl.spec.set("type", decl.type);
      decl.spec.set("name", decl.name);
      if (!decl.spec.contains("host")) decl.spec.set("host", spec.compute_host);
      spec.services.push_back(std::move(decl));
      ++index;
    }
  } else if (spec.simulator != "prototype") {
    // Derive the single paper-style service from the simulator kind.
    ServiceDecl decl;
    decl.name = "store";
    decl.type = spec.simulator == "reference" ? "reference" : "local";
    decl.spec = util::Json{util::JsonObject{}};
    decl.spec.set("type", decl.type);
    decl.spec.set("name", decl.name);
    decl.spec.set("host", spec.compute_host);
    if (decl.type == "local") {
      decl.spec.set("cache", spec.simulator == "wrench" ? "none" : "writeback");
    }
    spec.services.push_back(std::move(decl));
  }
  if (spec.simulator != "prototype" && spec.services.empty()) {
    throw ScenarioError("scenario needs at least one storage service");
  }
  std::set<std::string> names;
  for (const ServiceDecl& decl : spec.services) {
    if (!names.insert(decl.name).second) {
      throw ScenarioError("duplicate service name '" + decl.name + "'");
    }
  }
  auto check_service = [&](const std::string& name, const char* what) {
    if (!spec.services.empty() && names.count(name) == 0) {
      throw ScenarioError(std::string(what) + " '" + name + "' is not a declared service");
    }
  };
  spec.default_service =
      doc.string_or("default_service", spec.services.empty() ? "" : spec.services.front().name);
  check_service(spec.default_service, "default_service");
  spec.probe_service = doc.string_or("probe_service", spec.default_service);
  check_service(spec.probe_service, "probe_service");

  bool default_is_nfs = false;
  for (const ServiceDecl& decl : spec.services) {
    if (decl.name == spec.default_service) default_is_nfs = decl.type == "nfs";
  }
  spec.warm_inputs = doc.bool_or("warm_inputs", default_is_nfs);
  spec.solve_batching = doc.bool_or("solve_batching", true);
  if (doc.contains("metrics")) {
    const util::Json& m = doc.at("metrics");
    if (!m.is_object()) throw ScenarioError("\"metrics\" must be an object");
    spec.metrics_interval = m.number_or("interval", 0.0);
    if (spec.metrics_interval < 0.0) {
      throw ScenarioError("metrics.interval must be non-negative (0 = off)");
    }
  }

  if (doc.contains("retry")) {
    const util::Json& r = doc.at("retry");
    spec.has_retry = true;
    spec.retry.max_attempts = static_cast<int>(r.number_or("max_attempts", 1.0));
    spec.retry.backoff = r.number_or("backoff", 0.0);
    spec.retry.backoff_factor = r.number_or("backoff_factor", 2.0);
    spec.retry.resubmit_on_crash = r.bool_or("resubmit_on_crash", true);
    if (spec.retry.max_attempts < 1) throw ScenarioError("retry.max_attempts must be >= 1");
    if (spec.retry.backoff < 0.0 || spec.retry.backoff_factor <= 0.0) {
      throw ScenarioError("retry backoff values must be non-negative");
    }
  }
  spec.on_task_failure = doc.string_or("on_task_failure", "fail");
  if (spec.on_task_failure != "fail" && spec.on_task_failure != "continue") {
    throw ScenarioError("on_task_failure must be \"fail\" or \"continue\"");
  }

  if (doc.contains("events")) {
    std::set<std::string> hosts;
    for (const util::Json& h : spec.platform.at("hosts").as_array()) {
      hosts.insert(h.at("name").as_string());
    }
    // Service names the timeline knows at each point: declared ones plus
    // earlier service_add events, minus earlier removals.  Events are
    // validated in declaration order; the runner fires them sorted by time
    // (declaration order breaking ties), so declaring them time-sorted is
    // the readable convention.
    std::set<std::string> live_services = names;
    std::size_t index = 0;
    // Every validation error names the offending array index, so a bad
    // entry in a long hand-written timeline is findable.
    auto bad = [&index](const std::string& what) -> ScenarioError {
      return ScenarioError("events[" + std::to_string(index) + "]: " + what);
    };
    for (const util::Json& e : doc.at("events").as_array()) {
      if (!e.is_object()) throw bad("must be an object");
      if (!e.contains("type")) throw bad("missing required key \"type\"");
      DisruptionEvent event;
      event.type = e.at("type").as_string();
      event.time = e.number_or("time", 0.0);
      if (event.time < 0.0) {
        throw bad(event.type + ": time must be non-negative");
      }
      if (event.type == "host_crash") {
        event.host = e.at("host").as_string();
        if (hosts.count(event.host) == 0) {
          throw bad("host_crash: host '" + event.host + "' is not in the platform");
        }
        event.restart_at = e.number_or("restart_at", -1.0);
        if (event.restart_at >= 0.0 && event.restart_at <= event.time) {
          throw bad("host_crash: restart_at must be after the crash time");
        }
      } else if (event.type == "service_degrade" || event.type == "service_restore" ||
                 event.type == "service_remove") {
        event.service = e.at("service").as_string();
        if (live_services.count(event.service) == 0) {
          throw bad(event.type + ": '" + event.service +
                    "' is not a service live at that point of the timeline");
        }
        if (event.type == "service_degrade") {
          event.factor = e.at("factor").as_number();
          if (event.factor <= 0.0 || event.factor > 1.0) {
            throw bad("service_degrade: factor must be in (0, 1]");
          }
        }
        if (event.type == "service_remove") {
          if (event.service == spec.default_service) {
            throw bad("service_remove: cannot remove the default service");
          }
          live_services.erase(event.service);
        }
      } else if (event.type == "service_add") {
        const util::Json& svc = e.at("service");
        if (!svc.is_object() || !svc.contains("name")) {
          throw bad("service_add: \"service\" must be a declaration with a name");
        }
        event.service_spec = svc;
        event.service = svc.at("name").as_string();
        event.service_spec.set("type", svc.string_or("type", "local"));
        if (!event.service_spec.contains("host")) {
          event.service_spec.set("host", spec.compute_host);
        }
        if (!live_services.insert(event.service).second) {
          throw bad("service_add: duplicate service name '" + event.service + "'");
        }
      } else if (event.type == "tenant_arrival") {
        event.workload = e.at("workload");
        absolutize_file_refs(event.workload, base_dir);
        event.prefix = e.string_or("prefix", "");
        if (event.prefix.empty()) {
          throw bad("tenant_arrival: needs a \"prefix\" namespacing the tenant's files/tasks");
        }
      } else {
        throw bad("unknown event type '" + event.type + "'");
      }
      spec.events.push_back(std::move(event));
      ++index;
    }
  }

  if (doc.contains("seed")) {
    if (!doc.at("seed").is_number()) throw ScenarioError("seed must be a number");
    const double s = doc.at("seed").as_number();
    // 2^53: the largest range where every integer survives the JSON double.
    if (s < 0.0 || s != std::floor(s) || s >= 9007199254740992.0) {
      throw ScenarioError("seed must be a non-negative integer < 2^53");
    }
    spec.has_seed = true;
    spec.seed = static_cast<std::uint64_t>(s);
  }

  if (doc.contains("fault_model")) {
    spec.fault_model = doc.at("fault_model");
    const faults::FaultModel model = faults::FaultModel::parse(spec.fault_model);
    spec.checkpoint.interval = model.checkpoint.interval;
    spec.checkpoint.cost = model.checkpoint.cost;
    spec.checkpoint.restart_penalty = model.checkpoint.restart_penalty;
    faults::MaterializeContext context;
    for (const util::Json& h : spec.platform.at("hosts").as_array()) {
      context.hosts.push_back(h.at("name").as_string());
    }
    for (const ServiceDecl& decl : spec.services) {
      // Straggler slowdowns lower to service_degrade, so only backends that
      // implement degrade_bandwidth qualify as lowering targets.
      static const std::set<std::string> degradable = {"local", "cgroup_local", "nfs",
                                                       "burst_buffer", "tiered"};
      if (degradable.count(decl.type) != 0) {
        context.services_by_host[decl.spec.at("host").as_string()].push_back(decl.name);
      }
    }
    spec.materialized_events = faults::materialize(model, spec.seed, context);
  }
  return spec;
}

ScenarioSpec ScenarioSpec::from_file(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  ScenarioSpec spec = parse(util::Json::parse_file(path), dir);
  if (spec.name == "scenario") {
    spec.name = std::filesystem::path(path).stem().string();
  }
  return spec;
}

util::Json ScenarioSpec::to_json() const {
  util::Json doc{util::JsonObject{}};
  doc.set("name", name);
  doc.set("simulator", simulator);
  doc.set("platform", platform);
  doc.set("compute_host", compute_host);
  if (!services.empty()) {
    util::Json svcs{util::JsonArray{}};
    for (const ServiceDecl& decl : services) svcs.push_back(decl.spec);
    doc.set("services", std::move(svcs));
    doc.set("default_service", default_service);
    doc.set("probe_service", probe_service);
  }
  doc.set("workload", workload);
  doc.set("chunk_size", chunk_size);
  doc.set("probe_period", probe_period);
  doc.set("warm_inputs", warm_inputs);
  doc.set("solve_batching", solve_batching);
  if (metrics_interval > 0.0) {
    util::Json m{util::JsonObject{}};
    m.set("interval", metrics_interval);
    doc.set("metrics", std::move(m));
  }
  doc.set("cache_params", storage::cache_params_to_json(cache_params));
  // Fault-injection keys are emitted only when used: committed v1 recorded
  // logs embed this document (source_scenario) and must stay byte-stable.
  if (has_retry) {
    util::Json r{util::JsonObject{}};
    r.set("max_attempts", retry.max_attempts);
    r.set("backoff", retry.backoff);
    r.set("backoff_factor", retry.backoff_factor);
    r.set("resubmit_on_crash", retry.resubmit_on_crash);
    doc.set("retry", std::move(r));
  }
  if (on_task_failure != "fail") doc.set("on_task_failure", on_task_failure);
  if (!events.empty()) doc.set("events", events_to_json(events));
  // The stochastic layer round-trips as (seed, fault_model) — never as the
  // materialized schedule, which re-parsing would re-derive (and merging it
  // into "events" would double-fire it).
  if (has_seed) doc.set("seed", static_cast<double>(seed));
  if (!fault_model.is_null()) doc.set("fault_model", fault_model);
  return doc;
}

util::Json events_to_json(const std::vector<DisruptionEvent>& events) {
  util::Json out{util::JsonArray{}};
  for (const DisruptionEvent& event : events) {
    util::Json e{util::JsonObject{}};
    e.set("type", event.type);
    e.set("time", event.time);
    if (event.type == "host_crash") {
      e.set("host", event.host);
      if (event.restart_at >= 0.0) e.set("restart_at", event.restart_at);
    } else if (event.type == "service_add") {
      e.set("service", event.service_spec);
    } else if (event.type == "tenant_arrival") {
      e.set("prefix", event.prefix);
      e.set("workload", event.workload);
    } else {
      e.set("service", event.service);
      if (event.type == "service_degrade") e.set("factor", event.factor);
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<DisruptionEvent> events_from_json(const util::Json& array) {
  std::vector<DisruptionEvent> events;
  std::size_t index = 0;
  auto bad = [&index](const std::string& what) -> ScenarioError {
    return ScenarioError("events[" + std::to_string(index) + "]: " + what);
  };
  for (const util::Json& e : array.as_array()) {
    if (!e.is_object() || !e.contains("type")) throw bad("must be an object with a \"type\"");
    DisruptionEvent event;
    event.type = e.at("type").as_string();
    event.time = e.number_or("time", 0.0);
    if (event.time < 0.0) throw bad(event.type + ": time must be non-negative");
    if (event.type == "host_crash") {
      event.host = e.at("host").as_string();
      event.restart_at = e.number_or("restart_at", -1.0);
    } else if (event.type == "service_degrade") {
      event.service = e.at("service").as_string();
      event.factor = e.at("factor").as_number();
    } else if (event.type == "service_restore" || event.type == "service_remove") {
      event.service = e.at("service").as_string();
    } else if (event.type == "service_add") {
      event.service_spec = e.at("service");
      event.service = event.service_spec.at("name").as_string();
    } else if (event.type == "tenant_arrival") {
      event.workload = e.at("workload");
      event.prefix = e.string_or("prefix", "");
    } else {
      throw bad("unknown event type '" + event.type + "'");
    }
    events.push_back(std::move(event));
    ++index;
  }
  return events;
}

}  // namespace pcs::scenario
