#include "workload/workload.hpp"

#include <limits>
#include <utility>

#include "tracelog/task_log.hpp"
#include "tracelog/task_log_reader.hpp"
#include "util/paths.hpp"
#include "util/units.hpp"
#include "workflow/simulation.hpp"
#include "workflow/workflow_json.hpp"
#include "workload/apps.hpp"

namespace pcs::workload {

namespace {

/// Rebuild one recorded workflow under `prefix` (task, file and dependency
/// names all namespaced — the same composition rule multi_tenant uses, so
/// clones never collide).
void build_from_trace(wf::Workflow& workflow, const tracelog::TraceWorkflow& recorded,
                      const std::string& prefix) {
  for (const tracelog::TraceTaskDecl& decl : recorded.tasks) {
    wf::WorkflowTask& task = workflow.add_task(prefix + decl.name, decl.flops);
    task.chunk_size = decl.chunk_size;
    for (const wf::FileSpec& f : decl.inputs) {
      workflow.add_input(prefix + decl.name, prefix + f.name, f.size);
    }
    for (const wf::FileSpec& f : decl.outputs) {
      workflow.add_output(prefix + decl.name, prefix + f.name, f.size);
    }
  }
  for (const tracelog::TraceTaskDecl& decl : recorded.tasks) {
    for (const std::string& dep : decl.deps) {
      workflow.add_dependency(prefix + dep, prefix + decl.name);
    }
  }
}

}  // namespace

util::Json prefixed_workflow_doc(const util::Json& doc, const std::string& prefix) {
  util::Json out = doc;
  auto prefix_files = [&](util::Json& task, const char* key) {
    if (!task.contains(key)) return;
    for (util::Json& f : task.as_object()[key].as_array()) {
      f.set("name", prefix + f.at("name").as_string());
    }
  };
  for (util::Json& task : out.as_object()["tasks"].as_array()) {
    task.set("name", prefix + task.at("name").as_string());
    prefix_files(task, "inputs");
    prefix_files(task, "outputs");
  }
  if (out.contains("dependencies")) {
    for (util::Json& dep : out.as_object()["dependencies"].as_array()) {
      dep.set("parent", prefix + dep.at("parent").as_string());
      dep.set("child", prefix + dep.at("child").as_string());
    }
  }
  return out;
}

std::vector<WorkloadInstance> build_workload(wf::Simulation& sim, const util::Json& spec,
                                             const std::string& prefix,
                                             const std::string& base_dir) {
  if (!spec.is_object()) throw WorkloadError("workload spec must be a JSON object");
  const std::string type = spec.string_or("type", "synthetic");
  const int instances = static_cast<int>(spec.number_or("instances", 1));
  if (instances < 1) throw WorkloadError("workload: instances must be >= 1");
  const double arrival = spec.number_or("arrival", 0.0);
  const double stagger = spec.number_or("stagger", 0.0);
  if (arrival < 0.0 || stagger < 0.0) {
    throw WorkloadError("workload: arrival/stagger must be non-negative");
  }
  const std::string service = spec.string_or("service", "");

  std::vector<WorkloadInstance> out;
  auto add = [&](wf::Workflow& workflow, int i) {
    out.push_back(WorkloadInstance{&workflow, service, arrival + stagger * i,
                                   prefix + "a" + std::to_string(i)});
  };

  if (type == "synthetic") {
    const double input = util::bytes_field_or(spec, "input_size", 20.0 * util::GB);
    if (input <= 0.0) throw WorkloadError("synthetic workload: input_size must be positive");
    const double cpu = spec.contains("cpu_seconds") ? spec.at("cpu_seconds").as_number()
                                                    : synthetic_cpu_seconds(input);
    for (int i = 0; i < instances; ++i) {
      wf::Workflow& workflow = sim.create_workflow();
      build_synthetic(workflow, prefix + instance_prefix(i), input, cpu);
      add(workflow, i);
    }
  } else if (type == "nighres") {
    for (int i = 0; i < instances; ++i) {
      wf::Workflow& workflow = sim.create_workflow();
      build_nighres(workflow, prefix + instance_prefix(i));
      add(workflow, i);
    }
  } else if (type == "dag") {
    util::Json doc;
    if (spec.contains("workflow")) {
      doc = spec.at("workflow");
    } else if (spec.contains("file")) {
      doc = util::Json::parse_file(util::resolve_relative(base_dir, spec.at("file").as_string()));
    } else {
      throw WorkloadError("dag workload needs \"workflow\" (inline) or \"file\"");
    }
    for (int i = 0; i < instances; ++i) {
      // A lone unprefixed DAG keeps its own task names; concurrent
      // instances get the "a<i>:" namespace.
      const std::string p =
          prefix + (instances > 1 ? instance_prefix(i) : std::string());
      wf::Workflow& workflow = sim.create_workflow();
      workflow = wf::workflow_from_json(p.empty() ? doc : prefixed_workflow_doc(doc, p));
      add(workflow, i);
    }
  } else if (type == "trace") {
    if (!spec.contains("file")) {
      throw WorkloadError("trace workload needs a \"file\" (a recorded .jsonl task log)");
    }
    // Replication is expressed as load_factor clones, not instances: a clone
    // replays the *whole* log under a namespace, which is the meaningful
    // unit ("what if twice this traffic hit the cluster").
    if (instances != 1) {
      throw WorkloadError("trace workload: use \"load_factor\", not \"instances\"");
    }
    const double time_scale = spec.number_or("time_scale", 1.0);
    if (time_scale <= 0.0) throw WorkloadError("trace workload: time_scale must be positive");
    const int load_factor = static_cast<int>(spec.number_or("load_factor", 1));
    if (load_factor < 1) throw WorkloadError("trace workload: load_factor must be >= 1");
    const double window_start = spec.number_or("start", 0.0);
    const double window_end =
        spec.number_or("end", std::numeric_limits<double>::infinity());
    if (window_start < 0.0 || window_end <= window_start) {
      throw WorkloadError("trace workload: need 0 <= start < end");
    }

    if (spec.bool_or("streaming", false)) {
      // Streaming replay: a shared TaskLogReader cursor instead of a
      // materialized TaskLog.  The pre-scan supplies everything scheduling
      // needs (labels, services, submit times, file names); task bodies
      // parse at submission time through the reader's bounded window.
      const auto window = static_cast<std::size_t>(
          spec.number_or("window", static_cast<double>(tracelog::TaskLogReader::kDefaultWindow)));
      if (window < 1) throw WorkloadError("trace workload: window must be >= 1");
      std::shared_ptr<tracelog::TaskLogReader> reader;
      try {
        reader = std::make_shared<tracelog::TaskLogReader>(
            util::resolve_relative(base_dir, spec.at("file").as_string()), window);
      } catch (const tracelog::TraceError& e) {
        throw WorkloadError(std::string("trace workload: ") + e.what());
      }
      if (reader->workflows().empty()) {
        throw WorkloadError("trace workload: log contains no workflow records");
      }
      wf::Simulation* simp = &sim;
      for (int k = 0; k < load_factor; ++k) {
        const std::string clone =
            load_factor > 1 ? "c" + std::to_string(k) + ":" : std::string();
        const std::string full_prefix = prefix + clone;
        for (std::size_t i = 0; i < reader->workflows().size(); ++i) {
          const tracelog::TraceWorkflowMeta& meta = reader->workflows()[i];
          if (meta.submit < window_start || meta.submit >= window_end) continue;
          std::string bound = meta.service;
          if (spec.contains("remap") && spec.at("remap").contains(bound)) {
            bound = spec.at("remap").at(bound).as_string();
          } else if (!service.empty()) {
            bound = service;
          }
          WorkloadInstance instance;
          instance.service = bound;
          instance.arrival =
              arrival + stagger * k + (meta.submit - window_start) * time_scale;
          instance.label = full_prefix + meta.label;
          instance.reader = reader;
          instance.files.reserve(meta.files.size());
          for (const std::string& f : meta.files) instance.files.push_back(full_prefix + f);
          // Memoized so a second call (defensive) never double-builds.
          auto built = std::make_shared<wf::Workflow*>(nullptr);
          instance.materialize = [simp, reader, i, full_prefix, built]() -> wf::Workflow* {
            if (*built == nullptr) {
              wf::Workflow& workflow = simp->create_workflow();
              build_from_trace(workflow, reader->workflow(i), full_prefix);
              *built = &workflow;
            }
            return *built;
          };
          out.push_back(std::move(instance));
        }
      }
      if (out.empty()) {
        throw WorkloadError("trace workload: the [start, end) window selects no workflows");
      }
      return out;
    }

    tracelog::TaskLog log;
    try {
      log = tracelog::TaskLog::from_file(
          util::resolve_relative(base_dir, spec.at("file").as_string()));
      log.validate();
    } catch (const tracelog::TraceError& e) {
      throw WorkloadError(std::string("trace workload: ") + e.what());
    }
    if (log.workflows.empty()) {
      throw WorkloadError("trace workload: log contains no workflow records");
    }

    for (int k = 0; k < load_factor; ++k) {
      // Clone namespaces follow the multi-tenant composition rule; a single
      // clone keeps the recorded names so a default replay is bit-exact.
      const std::string clone =
          load_factor > 1 ? "c" + std::to_string(k) + ":" : std::string();
      for (const tracelog::TraceWorkflow& recorded : log.workflows) {
        if (recorded.submit < window_start || recorded.submit >= window_end) continue;
        wf::Workflow& workflow = sim.create_workflow();
        build_from_trace(workflow, recorded, prefix + clone);
        std::string bound = recorded.service;
        if (spec.contains("remap") && spec.at("remap").contains(bound)) {
          bound = spec.at("remap").at(bound).as_string();
        } else if (!service.empty()) {
          bound = service;  // blanket rebinding for replays on other platforms
        }
        // The window is rebased to t=0 and stretched by time_scale; with
        // the defaults (start 0, scale 1) this reproduces the recorded
        // submission instants exactly.
        out.push_back(WorkloadInstance{
            &workflow, bound,
            arrival + stagger * k + (recorded.submit - window_start) * time_scale,
            prefix + clone + recorded.label});
      }
    }
    if (out.empty()) {
      throw WorkloadError("trace workload: the [start, end) window selects no workflows");
    }
  } else if (type == "multi_tenant") {
    if (!spec.contains("tenants") || spec.at("tenants").as_array().empty()) {
      throw WorkloadError("multi_tenant workload needs a non-empty \"tenants\" array");
    }
    // Per-instance replication is a tenant-level concern; rejecting the
    // outer fields loudly beats silently ignoring them.
    if (instances != 1 || stagger != 0.0) {
      throw WorkloadError(
          "multi_tenant workload: set instances/stagger on the tenants, not the composition");
    }
    int k = 0;
    for (const util::Json& tenant : spec.at("tenants").as_array()) {
      const std::string tenant_name = tenant.string_or("name", "t" + std::to_string(k));
      std::vector<WorkloadInstance> sub =
          build_workload(sim, tenant, prefix + tenant_name + ":", base_dir);
      for (WorkloadInstance& instance : sub) {
        // The composition's own arrival/service apply as an offset and a
        // fallback on top of what each tenant declared.
        instance.arrival += arrival;
        if (instance.service.empty()) instance.service = service;
        out.push_back(std::move(instance));
      }
      ++k;
    }
  } else {
    throw WorkloadError("unknown workload type '" + type + "'");
  }
  return out;
}

}  // namespace pcs::workload
