#include "scenario/runner.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "proto/analytic.hpp"
#include "simcore/trace.hpp"
#include "storage/service_registry.hpp"
#include "tracelog/recorder.hpp"
#include "tracelog/task_log_reader.hpp"
#include "util/units.hpp"
#include "workflow/simulation.hpp"
#include "workload/apps.hpp"
#include "workload/workload.hpp"

namespace pcs::scenario {

namespace {

using WallClock = std::chrono::steady_clock;

double wall_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

/// The analytic pysim port: no discrete-event engine, one synthetic
/// pipeline on a local disk (the paper's only prototype configuration).
RunResult run_prototype(const ScenarioSpec& spec) {
  if (!spec.services.empty()) {
    throw ScenarioError("the analytic prototype models the compute host's local disk itself "
                        "and runs no storage services (remove \"services\"; it declares '" +
                        spec.services.front().name + "')");
  }
  const util::Json& w = spec.workload;
  if (w.string_or("type", "synthetic") != "synthetic" ||
      static_cast<int>(w.number_or("instances", 1)) != 1) {
    throw ScenarioError(
        "the analytic prototype only supports the single-instance synthetic workload on a "
        "local disk (as in the paper)");
  }
  const auto wall_start = WallClock::now();

  const util::Json* host_doc = nullptr;
  for (const util::Json& h : spec.platform.at("hosts").as_array()) {
    if (h.at("name").as_string() == spec.compute_host) host_doc = &h;
  }
  if (host_doc == nullptr) {
    throw ScenarioError("prototype scenario: compute_host '" + spec.compute_host +
                        "' is not in the platform");
  }
  const util::Json& host = *host_doc;
  if (!host.contains("disks") || host.at("disks").size() == 0) {
    throw ScenarioError("prototype scenario: host '" + spec.compute_host + "' needs a disk");
  }
  const util::Json& disk = host.at("disks").at(0);
  proto::ProtoConfig config;
  config.total_mem = util::bytes_field_or(host, "ram", 0.0);
  if (host.contains("memory")) {
    config.mem_read_bw = host.at("memory").number_or("read_bw_MBps", 0.0) * util::MB;
    config.mem_write_bw = host.at("memory").number_or("write_bw_MBps", 0.0) * util::MB;
  }
  config.disk_read_bw = disk.at("read_bw_MBps").as_number() * util::MB;
  config.disk_write_bw = disk.at("write_bw_MBps").as_number() * util::MB;
  config.cache = spec.cache_params;

  const double input_size = util::bytes_field_or(w, "input_size", 20.0 * util::GB);
  const double cpu_seconds = w.contains("cpu_seconds")
                                 ? w.at("cpu_seconds").as_number()
                                 : workload::synthetic_cpu_seconds(input_size);

  proto::AnalyticSim psim(config);
  const std::string prefix = workload::instance_prefix(0);
  psim.stage_file(prefix + "file1", input_size);

  RunResult result;
  for (int i = 1; i <= workload::kSyntheticTasks; ++i) {
    wf::TaskResult r;
    r.name = prefix + "task" + std::to_string(i);
    r.start = psim.now();
    r.read_start = psim.now();
    psim.read_file(prefix + "file" + std::to_string(i), spec.chunk_size);
    r.read_end = psim.now();
    psim.compute(cpu_seconds);
    r.compute_end = psim.now();
    psim.write_file(prefix + "file" + std::to_string(i + 1), input_size, spec.chunk_size);
    r.write_end = psim.now();
    r.end = psim.now();
    psim.release_anonymous(input_size);
    result.tasks.push_back(r);
  }
  result.profile = psim.profile();
  result.final_state = psim.snapshot();
  result.makespan = psim.now();
  result.wall_seconds = wall_since(wall_start);
  return result;
}

/// One entry of the expanded disruption timeline: "events" in firing order,
/// with host_crash restart_at unfolded into its own host_restart entry.
struct TimelineEntry {
  double time = 0.0;
  std::string action;  ///< event type, or "host_restart"
  const DisruptionEvent* event = nullptr;
};

/// Everything the disruption driver needs, borrowed from run_scenario's
/// frame (which outlives the simulation it runs).
struct DriverContext {
  const ScenarioSpec* spec = nullptr;
  wf::Simulation* sim = nullptr;
  storage::ServiceContext* service_ctx = nullptr;
  std::map<std::string, storage::StorageService*>* services = nullptr;
  std::vector<wf::ComputeService*>* compute_order = nullptr;
  const std::function<wf::ComputeService*(const std::string&)>* compute_for = nullptr;
  tracelog::TaskLogRecorder* recorder = nullptr;
  std::vector<TimelineEntry> timeline;  ///< sorted by (time, declaration order)
  std::size_t fired = 0;
  /// Stochastic-schedule mode: the timeline carries no host_restart entries;
  /// each fired host_crash spawns a non-daemon repair actor for its restart
  /// instead, so the outage window — and only the outage window — holds the
  /// simulation open (see disruption_driver).
  bool hold_open_repairs = false;
};

/// The instance is taken by value: a trace instance carries its
/// materialize closure (and keeps the shared reader alive) into the actor
/// frame, so the workflow's declaration records are parsed only now — at
/// the submission instant — through the reader's bounded window.
sim::Task<> delayed_submit(sim::Engine& engine, wf::ComputeService* cs,
                           workload::WorkloadInstance instance, double arrival,
                           storage::StorageService* warm_service,
                           tracelog::TaskLogRecorder* recorder, std::string label,
                           std::string service_name) {
  co_await engine.sleep_until(arrival);
  wf::Workflow* workflow =
      instance.workflow != nullptr ? instance.workflow : instance.materialize();
  if (recorder != nullptr) {
    recorder->record_workflow(*workflow, label, service_name, engine.now());
  }
  cs->submit(*workflow);
  // Late arrivals stage their inputs at submit time, so warm staging (when
  // configured) happens here rather than at t=0.
  if (warm_service != nullptr) {
    for (const wf::FileSpec& input : workflow->external_inputs()) {
      warm_service->warm_file(input.name);
      if (recorder != nullptr) {
        recorder->record_io({"warm", input.name, warm_service->file_size(input.name),
                             engine.now(), engine.now(), service_name, ""});
      }
    }
  }
}

sim::Task<> repair_actor(DriverContext* d, const DisruptionEvent* ev);

/// Execute one timeline entry.  Synchronous: every action completes before
/// the driver suspends again, and cancelled actors are destroyed by the
/// engine right after the driver yields (deferred group cancellation), so
/// crash bookkeeping always sees the pre-destruction state.
void fire_event(DriverContext& d, const TimelineEntry& entry) {
  sim::Engine& engine = d.sim->engine();
  const DisruptionEvent& ev = *entry.event;
  ++d.fired;
  if (d.recorder != nullptr) {
    tracelog::TraceDisruption rec;
    rec.type = entry.action;
    rec.time = engine.now();
    if (entry.action == "host_crash" || entry.action == "host_restart") {
      rec.target = ev.host;
    } else if (entry.action == "tenant_arrival") {
      rec.target = ev.prefix;
    } else {
      rec.target = ev.service;
    }
    if (entry.action == "service_degrade") rec.factor = ev.factor;
    d.recorder->record_disruption(rec);
  }

  if (entry.action == "host_crash") {
    // Mark every actor of the host for destruction (effective once we
    // suspend), then let the services account for the damage: compute
    // services turn in-flight work into aborted attempts, storage services
    // on the host lose their page cache.
    engine.cancel_group("host:" + ev.host);
    for (wf::ComputeService* cs : *d.compute_order) {
      if (cs->host().name() == ev.host) cs->crash();
    }
    for (auto& [name, service] : *d.services) service->on_host_crash(ev.host);
    if (d.hold_open_repairs && ev.restart_at >= 0.0) {
      // Not in the "host:<name>" group: the repair crew survives the crash.
      engine.spawn("repair:" + ev.host, repair_actor(&d, &ev));
    }
  } else if (entry.action == "host_restart") {
    for (wf::ComputeService* cs : *d.compute_order) {
      if (cs->host().name() == ev.host) cs->restart();
    }
  } else if (entry.action == "service_degrade" || entry.action == "service_restore") {
    const double factor = entry.action == "service_degrade" ? ev.factor : 1.0;
    auto it = d.services->find(ev.service);
    if (it == d.services->end()) {
      throw ScenarioError(entry.action + ": service '" + ev.service + "' was removed");
    }
    if (!it->second->degrade_bandwidth(factor)) {
      throw ScenarioError(entry.action + ": service '" + ev.service +
                          "' does not support bandwidth degradation");
    }
  } else if (entry.action == "service_add") {
    storage::StorageService* service = storage::ServiceRegistry::instance().build(
        ev.service_spec.at("type").as_string(), *d.service_ctx, ev.service_spec);
    (*d.services)[ev.service] = service;
    if (d.recorder != nullptr) {
      tracelog::TaskLogRecorder* recorder = d.recorder;
      const std::string service_name = ev.service;
      service->set_background_io_observer(
          [recorder, service_name](const std::string& op, const std::string& file,
                                   double bytes, double start, double end) {
            recorder->record_io({op, file, bytes, start, end, service_name, ""});
          });
    }
  } else if (entry.action == "service_remove") {
    auto it = d.services->find(ev.service);
    if (it == d.services->end()) {
      throw ScenarioError("service_remove: service '" + ev.service + "' was already removed");
    }
    // Drain, don't destroy: the object stays owned by the Simulation (live
    // probes or in-flight transfers stay valid), but its background daemons
    // stop and the name disappears from the service map.
    it->second->quiesce();
    d.services->erase(it);
  } else if (entry.action == "tenant_arrival") {
    std::vector<workload::WorkloadInstance> instances =
        workload::build_workload(*d.sim, ev.workload, ev.prefix, d.spec->base_dir);
    for (workload::WorkloadInstance& instance : instances) {
      const std::string service_name =
          instance.service.empty() ? d.spec->default_service : instance.service;
      wf::ComputeService* cs = (*d.compute_for)(service_name);
      storage::StorageService* warm =
          d.spec->warm_inputs ? d.services->at(service_name) : nullptr;
      if (instance.arrival <= 0.0) {
        wf::Workflow* workflow =
            instance.workflow != nullptr ? instance.workflow : instance.materialize();
        if (d.recorder != nullptr) {
          d.recorder->record_workflow(*workflow, instance.label, service_name,
                                      engine.now());
        }
        cs->submit(*workflow);
        if (warm != nullptr) {
          for (const wf::FileSpec& input : workflow->external_inputs()) {
            warm->warm_file(input.name);
            if (d.recorder != nullptr) {
              d.recorder->record_io({"warm", input.name, warm->file_size(input.name),
                                     engine.now(), engine.now(), service_name, ""});
            }
          }
        }
      } else {
        // The instance's arrival is relative to the tenant's arrival event.
        const double when = engine.now() + instance.arrival;
        const std::string label = instance.label;
        engine.spawn("submit:" + label,
                     delayed_submit(engine, cs, std::move(instance), when, warm,
                                    d.recorder, label, service_name));
      }
    }
  }
}

/// The driver actor: sleeps to each timeline entry's virtual time and fires
/// it.  Literal "events" run it as a non-daemon root — a hand-written
/// timeline is part of the workload, so the simulation stays open until the
/// last event (e.g. a restart that revives stranded work).
///
/// The stochastic fault-model schedule runs it as a daemon instead:
/// generated faults are environment, not workload, so draws past the
/// workload's completion never fire and cannot stretch the makespan out to
/// the model horizon.  The revive guarantee still holds, because a fired
/// crash hands its restart to a dedicated non-daemon repair actor: the
/// outage window keeps the simulation open exactly long enough for the
/// restart to resubmit stranded work, then expires with it.
sim::Task<> disruption_driver(DriverContext* d) {
  for (const TimelineEntry& entry : d->timeline) {
    co_await d->sim->engine().sleep_until(entry.time);
    fire_event(*d, entry);
  }
}

sim::Task<> repair_actor(DriverContext* d, const DisruptionEvent* ev) {
  co_await d->sim->engine().sleep_until(ev->restart_at);
  fire_event(*d, TimelineEntry{ev->restart_at, "host_restart", ev});
}

/// The metrics sampler daemon: wakes every `interval` of virtual time and
/// snapshots all registered gauges.  Pure observation — it never submits
/// activities or touches service state, so attaching it cannot perturb the
/// simulated schedule (obs_test proves bit-identity of results with the
/// sampler on and off).  sleep_until(k * interval) rather than repeated
/// sleep(interval) keeps sample times free of accumulated rounding.
sim::Task<> metrics_sampler(sim::Engine& engine, obs::MetricsRegistry* registry,
                            double interval) {
  for (std::uint64_t k = 0;; ++k) {
    co_await engine.sleep_until(static_cast<double>(k) * interval);
    registry->sample(engine.now());
  }
}

}  // namespace

RunResult run_scenario(const ScenarioSpec& spec, const RunOptions& options) {
  if (spec.simulator == "prototype") {
    if (options.recorder != nullptr) {
      throw ScenarioError(
          "task-log recording needs an engine-backed simulator (the analytic prototype has "
          "no workflows to record)");
    }
    if (spec.metrics_interval > 0.0) {
      throw ScenarioError(
          "metric sampling needs an engine-backed simulator (the analytic prototype has no "
          "virtual-time daemons)");
    }
    if (options.profile != nullptr) {
      throw ScenarioError(
          "self-profiling needs an engine-backed simulator (the analytic prototype has no "
          "engine to profile)");
    }
    return run_prototype(spec);
  }
  tracelog::TaskLogRecorder* recorder = options.recorder;
  // begin() is deferred until setup (service builders, workload generators)
  // has succeeded: a spec that throws mid-setup must not leave the recorder
  // half-begun or its stream with a stray header (the sweep runner reuses
  // the process for the next case).

  const auto wall_start = WallClock::now();
  wf::Simulation sim;
  sim.engine().set_solve_batching(spec.solve_batching);
  if (options.tracer != nullptr) sim.engine().set_tracer(options.tracer);
  if (options.profile != nullptr) sim.engine().set_profiler(options.profile);
  sim.platform().load_json(spec.platform);

  // Metric gauges are registered only for the services and engine counters
  // that exist at setup time — the registry seals at the first sample, so
  // mid-run arrivals (tenant_arrival, service_add) register nothing; their
  // tasks still show up through the aggregate `tasks/*` gauges below, which
  // walk compute_order by reference.
  const bool sampling = spec.metrics_interval > 0.0;
  obs::MetricsRegistry metrics;

  // Storage services, in declaration order (daemon spawn order is part of
  // the simulated result; the golden equivalence record pins it).
  storage::ServiceContext ctx{sim, spec.cache_params};
  std::map<std::string, storage::StorageService*> services;
  for (const ServiceDecl& decl : spec.services) {
    services[decl.name] =
        storage::ServiceRegistry::instance().build(decl.type, ctx, decl.spec);
    if (sampling) services[decl.name]->register_metrics(metrics, decl.name);
    if (recorder != nullptr) {
      // Background traffic (flusher writebacks, burst-buffer drains) lands
      // in the log as service-attributed io records with no issuing task.
      const std::string service_name = decl.name;
      services[decl.name]->set_background_io_observer(
          [recorder, service_name](const std::string& op, const std::string& file,
                                   double bytes, double start, double end) {
            recorder->record_io({op, file, bytes, start, end, service_name, ""});
          });
    }
  }
  storage::StorageService* default_service = services.at(spec.default_service);

  // Memory probe, attached before the compute service (the order the
  // golden equivalence record pins): block-model backends expose a
  // MemoryManager, the reference model its own snapshots, cacheless
  // backends nothing (no probe).
  wf::MemoryProbe* probe = nullptr;
  if (spec.probe_period > 0.0) {
    storage::StorageService* watched = services.at(spec.probe_service);
    if (cache::MemoryManager* mm = watched->memory_manager(); mm != nullptr) {
      probe = sim.create_memory_probe(*mm, spec.probe_period);
    } else if (watched->state_snapshot().has_value()) {
      probe = sim.create_memory_probe([watched] { return *watched->state_snapshot(); },
                                      spec.probe_period);
    }
  }

  plat::Host* compute_host = sim.platform().host(spec.compute_host);
  std::map<std::string, wf::ComputeService*> compute_by_service;
  std::vector<wf::ComputeService*> compute_order;
  const std::function<wf::ComputeService*(const std::string&)> compute_for =
      [&](const std::string& name) -> wf::ComputeService* {
    auto it = compute_by_service.find(name);
    if (it != compute_by_service.end()) return it->second;
    auto svc = services.find(name);
    if (svc == services.end()) {
      throw ScenarioError("workload references unknown service '" + name + "'");
    }
    wf::ComputeService* cs =
        sim.create_compute_service(*compute_host, *svc->second, spec.chunk_size);
    if (recorder != nullptr) cs->set_recorder(recorder, name);
    cs->set_retry_policy(spec.retry);
    cs->set_checkpoint_policy(spec.checkpoint);
    cs->set_fail_fast(spec.on_task_failure == "fail");
    compute_by_service[name] = cs;
    compute_order.push_back(cs);
    return cs;
  };
  compute_for(spec.default_service);

  if (sampling) {
    sim::Engine& engine = sim.engine();
    metrics.register_gauge("engine/running_activities", [&engine] {
      return static_cast<double>(engine.running_activity_count());
    });
    metrics.register_gauge("engine/scheduling_points", [&engine] {
      return static_cast<double>(engine.scheduling_points());
    });
    metrics.register_gauge("engine/fair_share_solves", [&engine] {
      return static_cast<double>(engine.fair_share_solves());
    });
    metrics.register_gauge("engine/components_solved", [&engine] {
      return static_cast<double>(engine.components_solved());
    });
    // Allocation gauges (alloc/*): bytes *reserved* by the arena slabs —
    // capacity, not live count, since slabs recycle slots and never shrink.
    metrics.register_gauge("alloc/arena_bytes", [&engine] {
      return static_cast<double>(engine.arena().bytes_reserved());
    });
    // Aggregates over every compute service alive at sample time (including
    // ones created mid-run by tenant_arrival — the vector is walked fresh
    // on each sample).
    metrics.register_gauge("tasks/live", [&compute_order] {
      std::size_t n = 0;
      for (const wf::ComputeService* cs : compute_order) n += cs->live_tasks();
      return static_cast<double>(n);
    });
    metrics.register_gauge("tasks/completed", [&compute_order] {
      std::size_t n = 0;
      for (const wf::ComputeService* cs : compute_order) n += cs->completed_task_count();
      return static_cast<double>(n);
    });
    metrics.register_gauge("tasks/failed", [&compute_order] {
      std::size_t n = 0;
      for (const wf::ComputeService* cs : compute_order) n += cs->failed_task_count();
      return static_cast<double>(n);
    });
  }

  std::vector<workload::WorkloadInstance> instances =
      workload::build_workload(sim, spec.workload, "", spec.base_dir);

  if (sampling) {
    // Trace-window gauges, registered only for a trace workload (its
    // instances share one reader).
    for (const workload::WorkloadInstance& instance : instances) {
      if (instance.reader == nullptr) continue;
      std::shared_ptr<tracelog::TaskLogReader> reader = instance.reader;
      metrics.register_gauge("alloc/trace_window_bytes",
                             [reader] { return static_cast<double>(reader->bytes_buffered()); });
      metrics.register_gauge("alloc/trace_window_workflows",
                             [reader] { return static_cast<double>(reader->window_blocks()); });
      break;
    }
  }

  // Everything the workload will stage or produce, for backends that wait
  // on specific files (a burst buffer's drain set) to sanity-check their
  // spec before the simulation starts.
  std::set<std::string> workload_files;
  for (const workload::WorkloadInstance& instance : instances) {
    if (instance.workflow == nullptr) {
      // Deferred (trace) instance: the reader's pre-scan already
      // knows every file name without materializing the DAG.
      workload_files.insert(instance.files.begin(), instance.files.end());
      continue;
    }
    for (const wf::FileSpec& input : instance.workflow->external_inputs()) {
      workload_files.insert(input.name);
    }
    for (const std::string& task_name : instance.workflow->task_order()) {
      for (const wf::FileSpec& output : instance.workflow->task(task_name).outputs) {
        workload_files.insert(output.name);
      }
    }
  }
  for (const auto& [name, service] : services) service->validate_workload_files(workload_files);

  // Setup succeeded — only now does the recorder learn about the run
  // (error-path hygiene: a throw above leaves it pristine for the next
  // case).  Nothing records before the submissions below.
  if (recorder != nullptr) {
    // The materialized stochastic schedule goes into the log header, so a
    // replay re-fires the recorded draws instead of re-drawing them.
    recorder->begin(spec.name, spec.simulator, spec.to_json(),
                    spec.materialized_events.empty() ? util::Json{}
                                                     : events_to_json(spec.materialized_events));
  }

  // (service, service name, file) entries to warm after every immediate
  // submission.
  std::vector<std::tuple<storage::StorageService*, std::string, std::string>> warm_list;
  for (workload::WorkloadInstance& instance : instances) {
    const std::string service_name =
        instance.service.empty() ? spec.default_service : instance.service;
    wf::ComputeService* cs = compute_for(service_name);
    if (instance.arrival <= 0.0) {
      wf::Workflow* workflow =
          instance.workflow != nullptr ? instance.workflow : instance.materialize();
      if (spec.warm_inputs) {
        storage::StorageService* svc = services.at(service_name);
        for (const wf::FileSpec& input : workflow->external_inputs()) {
          warm_list.emplace_back(svc, service_name, input.name);
        }
      }
      if (recorder != nullptr) {
        recorder->record_workflow(*workflow, instance.label, service_name, 0.0);
      }
      cs->submit(*workflow);
    } else {
      const double when = instance.arrival;
      const std::string label = instance.label;
      storage::StorageService* warm =
          spec.warm_inputs ? services.at(service_name) : nullptr;
      sim.engine().spawn("submit:" + label,
                         delayed_submit(sim.engine(), cs, std::move(instance), when, warm,
                                        recorder, label, service_name));
    }
  }
  // The staged inputs passed through the (server) cache on their way in —
  // the paper's Exp 3 warm staging.
  for (const auto& [svc, service_name, name] : warm_list) {
    svc->warm_file(name);
    if (recorder != nullptr) {
      recorder->record_io({"warm", name, svc->file_size(name), 0.0, 0.0, service_name, ""});
    }
  }

  // Disruption timelines: expand host_crash restart_at into host_restart
  // entries, order by (time, declaration order), and spawn the drivers as
  // the last root actors (fixed spawn order keeps runs bit-identical).
  // Literal "events" and the materialized fault-model schedule get separate
  // drivers because their lifetimes differ: the literal timeline holds the
  // simulation open (non-daemon), the stochastic schedule dies with the
  // workload (daemon) — see disruption_driver.
  auto make_driver = [&](const std::vector<DisruptionEvent>& events, bool stochastic) {
    DriverContext driver;
    driver.spec = &spec;
    driver.sim = &sim;
    driver.service_ctx = &ctx;
    driver.services = &services;
    driver.compute_order = &compute_order;
    driver.compute_for = &compute_for;
    driver.recorder = recorder;
    driver.hold_open_repairs = stochastic;
    for (const DisruptionEvent& event : events) {
      driver.timeline.push_back({event.time, event.type, &event});
      // Stochastic restarts are fired by per-crash repair actors instead —
      // see hold_open_repairs.
      if (!stochastic && event.type == "host_crash" && event.restart_at >= 0.0) {
        driver.timeline.push_back({event.restart_at, "host_restart", &event});
      }
    }
    std::stable_sort(
        driver.timeline.begin(), driver.timeline.end(),
        [](const TimelineEntry& a, const TimelineEntry& b) { return a.time < b.time; });
    return driver;
  };
  DriverContext literal_driver = make_driver(spec.events, false);
  DriverContext schedule_driver = make_driver(spec.materialized_events, true);
  if (!literal_driver.timeline.empty()) {
    sim.engine().spawn("disruption-driver", disruption_driver(&literal_driver));
  }
  if (!schedule_driver.timeline.empty()) {
    sim.engine().spawn("fault-schedule-driver", disruption_driver(&schedule_driver),
                       /*daemon=*/true);
  }
  if (sampling) {
    // Spawned last, as a daemon: the sampler must never hold the simulation
    // open, and a fixed spawn position keeps the actor schedule — and with
    // it bit-identical results — independent of whether sampling is on.
    sim.engine().spawn("metrics-sampler",
                       metrics_sampler(sim.engine(), &metrics, spec.metrics_interval),
                       /*daemon=*/true);
  }

  sim.run();

  RunResult result;
  for (wf::ComputeService* cs : compute_order) {
    for (const wf::TaskResult& r : cs->results()) result.tasks.push_back(r);
    for (wf::FailedTask& f : cs->failed_tasks()) result.failed.push_back(std::move(f));
    result.retried_tasks += cs->retried_task_count();
  }
  result.disruptions_fired = literal_driver.fired + schedule_driver.fired;
  if (spec.on_task_failure == "fail" && !result.failed.empty()) {
    // Normally the executor already threw; this covers tasks that failed
    // while their host was down with no restart to detect it.  Prefer a
    // root cause (a task that actually ran) over cascaded descendants.
    const wf::FailedTask* culprit = &result.failed.front();
    for (const wf::FailedTask& f : result.failed) {
      if (f.attempts > 0) {
        culprit = &f;
        break;
      }
    }
    throw ScenarioError("task '" + culprit->name + "' failed permanently after " +
                        std::to_string(culprit->attempts) +
                        " attempt(s) (on_task_failure: fail)");
  }
  if (probe != nullptr) {
    probe->sample_now();  // closing sample at the makespan
    result.profile = probe->samples();
  }
  if (sampling) {
    metrics.sample(sim.now());  // closing sample at the makespan (dedup-safe)
    result.timeline = metrics.timeline(spec.metrics_interval);
  }
  if (cache::MemoryManager* mm = default_service->memory_manager(); mm != nullptr) {
    result.final_state = mm->snapshot();
    std::tie(result.final_inactive_blocks, result.final_active_blocks) =
        default_service->lru_block_counts();
  } else if (auto snap = default_service->state_snapshot(); snap.has_value()) {
    result.final_state = *snap;
  }
  result.makespan = sim.now();
  if (recorder != nullptr) recorder->finish(result.makespan);
  result.wall_seconds = wall_since(wall_start);
  result.scheduling_points = sim.engine().scheduling_points();
  result.fair_share_solves = sim.engine().fair_share_solves();
  result.same_time_points = sim.engine().same_time_points();
  result.components_solved = sim.engine().components_solved();
  return result;
}

RunResult run_scenario_file(const std::string& path, const RunOptions& options) {
  return run_scenario(ScenarioSpec::from_file(path), options);
}

}  // namespace pcs::scenario
