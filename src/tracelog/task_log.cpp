#include "tracelog/task_log.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_set>
#include <utility>

namespace pcs::tracelog {

namespace {

util::Json files_to_json(const std::vector<wf::FileSpec>& files) {
  util::Json out{util::JsonArray{}};
  for (const wf::FileSpec& f : files) {
    out.push_back(util::Json{util::JsonObject{}}.set("name", f.name).set("size", f.size));
  }
  return out;
}

std::vector<wf::FileSpec> files_from_json(const util::Json& doc) {
  std::vector<wf::FileSpec> out;
  for (const util::Json& f : doc.as_array()) {
    out.push_back({f.at("name").as_string(), f.at("size").as_number()});
  }
  return out;
}

/// An integer field: the number must be whole, non-negative and fit T.
/// Checked before the cast, which would truncate a fraction and is
/// undefined for a double outside T's range.
template <typename T>
T integer_field(const util::Json& rec, const std::string& key) {
  const double value = rec.at(key).as_number();
  // 2^digits is the first integer past T's range, and exact as a double.
  if (!(value >= 0.0 && value < std::ldexp(1.0, std::numeric_limits<T>::digits) &&
        value == std::floor(value))) {
    throw TraceError("\"" + key + "\" must be an integer in [0, " +
                     std::to_string(std::numeric_limits<T>::max()) + "], got " +
                     util::Json(value).dump());
  }
  return static_cast<T>(value);
}

TraceTaskEvent parse_task_event_record(const util::Json& rec) {
  TraceTaskEvent event;
  event.name = rec.at("name").as_string();
  event.host = rec.string_or("host", "");
  event.start = rec.at("start").as_number();
  event.read_start = rec.at("read_start").as_number();
  event.read_end = rec.at("read_end").as_number();
  event.compute_end = rec.at("compute_end").as_number();
  event.write_end = rec.at("write_end").as_number();
  event.end = rec.at("end").as_number();
  event.attempts = rec.contains("attempts") ? integer_field<int>(rec, "attempts") : 1;
  return event;
}

TraceIoEvent parse_io_event_record(const util::Json& rec) {
  TraceIoEvent event;
  event.op = rec.at("op").as_string();
  event.file = rec.at("file").as_string();
  event.bytes = rec.at("bytes").as_number();
  event.start = rec.at("start").as_number();
  event.end = rec.at("end").as_number();
  event.service = rec.string_or("service", "");
  event.task = rec.string_or("task", "");
  return event;
}

TraceTaskAttempt parse_task_attempt_record(const util::Json& rec) {
  TraceTaskAttempt attempt;
  attempt.name = rec.at("name").as_string();
  attempt.host = rec.string_or("host", "");
  attempt.attempt = integer_field<int>(rec, "attempt");
  attempt.start = rec.at("start").as_number();
  attempt.end = rec.at("end").as_number();
  attempt.outcome = rec.string_or("outcome", "crashed");
  return attempt;
}

TraceDisruption parse_disruption_record(const util::Json& rec) {
  TraceDisruption disruption;
  disruption.type = rec.at("type").as_string();
  disruption.time = rec.at("time").as_number();
  disruption.target = rec.string_or("target", "");
  disruption.factor = rec.number_or("factor", 0.0);
  return disruption;
}

[[noreturn]] void fail_at(std::size_t line_no, const std::string& what) {
  throw TraceError("task log line " + std::to_string(line_no) + ": " + what);
}

}  // namespace

TraceWorkflow parse_workflow_record(const util::Json& rec) {
  TraceWorkflow workflow;
  workflow.id = integer_field<std::uint64_t>(rec, "id");
  workflow.label = rec.string_or("label", "");
  workflow.service = rec.string_or("service", "");
  workflow.submit = rec.at("submit").as_number();
  return workflow;
}

TraceTaskDecl parse_task_record(const util::Json& rec, std::uint64_t* wf_id) {
  *wf_id = integer_field<std::uint64_t>(rec, "wf");
  TraceTaskDecl task;
  task.name = rec.at("name").as_string();
  task.flops = rec.at("flops").as_number();
  task.chunk_size = rec.number_or("chunk_size", 0.0);
  if (rec.contains("inputs")) task.inputs = files_from_json(rec.at("inputs"));
  if (rec.contains("outputs")) task.outputs = files_from_json(rec.at("outputs"));
  if (rec.contains("deps")) {
    for (const util::Json& d : rec.at("deps").as_array()) {
      task.deps.push_back(d.as_string());
    }
  }
  return task;
}

util::Json header_record(const TaskLogHeader& header) {
  util::Json doc{util::JsonObject{}};
  doc.set("rec", "header");
  doc.set("version", header.version);
  doc.set("scenario", header.scenario);
  doc.set("simulator", header.simulator);
  if (header.anonymized) doc.set("anonymized", true);
  if (!header.source_scenario.is_null()) doc.set("source_scenario", header.source_scenario);
  // Emitted only for stochastic-fault runs: v1/v2 logs without a schedule
  // re-save byte-identically.
  if (!header.fault_schedule.is_null()) doc.set("fault_schedule", header.fault_schedule);
  return doc;
}

util::Json workflow_record(const TraceWorkflow& workflow) {
  util::Json doc{util::JsonObject{}};
  doc.set("rec", "workflow");
  doc.set("id", static_cast<unsigned long>(workflow.id));
  doc.set("label", workflow.label);
  doc.set("service", workflow.service);
  doc.set("submit", workflow.submit);
  return doc;
}

util::Json task_record(std::uint64_t workflow_id, const TraceTaskDecl& task) {
  util::Json doc{util::JsonObject{}};
  doc.set("rec", "task");
  doc.set("wf", static_cast<unsigned long>(workflow_id));
  doc.set("name", task.name);
  doc.set("flops", task.flops);
  if (task.chunk_size > 0.0) doc.set("chunk_size", task.chunk_size);
  doc.set("inputs", files_to_json(task.inputs));
  doc.set("outputs", files_to_json(task.outputs));
  util::Json deps{util::JsonArray{}};
  for (const std::string& d : task.deps) deps.push_back(d);
  doc.set("deps", std::move(deps));
  return doc;
}

util::Json task_event_record(const TraceTaskEvent& event) {
  util::Json doc{util::JsonObject{}};
  doc.set("rec", "task_done");
  doc.set("name", event.name);
  doc.set("host", event.host);
  doc.set("start", event.start);
  doc.set("read_start", event.read_start);
  doc.set("read_end", event.read_end);
  doc.set("compute_end", event.compute_end);
  doc.set("write_end", event.write_end);
  doc.set("end", event.end);
  // Emitted only for retried tasks: v1 logs (no retries) re-save
  // byte-identically.
  if (event.attempts > 1) doc.set("attempts", event.attempts);
  return doc;
}

util::Json task_attempt_record(const TraceTaskAttempt& attempt) {
  util::Json doc{util::JsonObject{}};
  doc.set("rec", "task_attempt");
  doc.set("name", attempt.name);
  doc.set("host", attempt.host);
  doc.set("attempt", attempt.attempt);
  doc.set("start", attempt.start);
  doc.set("end", attempt.end);
  doc.set("outcome", attempt.outcome);
  return doc;
}

util::Json disruption_record(const TraceDisruption& disruption) {
  util::Json doc{util::JsonObject{}};
  doc.set("rec", "disruption");
  doc.set("type", disruption.type);
  doc.set("time", disruption.time);
  doc.set("target", disruption.target);
  if (disruption.factor != 0.0) doc.set("factor", disruption.factor);
  return doc;
}

util::Json io_event_record(const TraceIoEvent& event) {
  util::Json doc{util::JsonObject{}};
  doc.set("rec", "io");
  doc.set("op", event.op);
  doc.set("file", event.file);
  doc.set("bytes", event.bytes);
  doc.set("start", event.start);
  doc.set("end", event.end);
  doc.set("service", event.service);
  if (!event.task.empty()) doc.set("task", event.task);
  return doc;
}

util::Json summary_record(double makespan, std::size_t tasks) {
  util::Json doc{util::JsonObject{}};
  doc.set("rec", "summary");
  doc.set("makespan", makespan);
  doc.set("tasks", static_cast<unsigned long>(tasks));
  return doc;
}

void scan_task_log(std::istream& in, const TaskLogSink& sink) {
  bool saw_header = false;
  std::unordered_set<std::uint64_t> workflow_ids;
  // Every task declared so far: names are unique, and an event may only
  // name a task declared above it.
  std::unordered_set<std::string> task_names;
  // The workflow whose task block is open.  A dependency may name a later
  // task of the same workflow, so its edges are checked when the block
  // closes, each against the line that declared it.
  bool block_open = false;
  std::uint64_t block_id = 0;
  std::string block_label;
  std::unordered_set<std::string> block_names;
  struct Edge {
    std::string task;
    std::string dep;
    std::size_t line_no;
  };
  std::vector<Edge> block_edges;
  auto close_block = [&] {
    for (const Edge& edge : block_edges) {
      if (block_names.count(edge.dep) == 0) {
        fail_at(edge.line_no, "task '" + edge.task + "': dependency '" + edge.dep +
                                  "' is not a task of workflow '" + block_label + "'");
      }
    }
    block_open = false;
    block_names.clear();
    block_edges.clear();
  };

  std::string line;
  std::size_t line_no = 0;
  std::uint64_t next_offset = 0;
  while (std::getline(in, line)) {
    const std::uint64_t offset = next_offset;
    next_offset += line.size() + 1;
    ++line_no;
    // Skip blank lines (a trailing newline is normal).
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    util::Json rec;
    std::string kind;
    try {
      rec = util::Json::parse(line);
      kind = rec.string_or("rec", "");
    } catch (const util::JsonError& e) {
      fail_at(line_no, e.what());
    }
    if (block_open && kind != "task") close_block();
    TaskLogRecord record;
    try {
      if (kind == "header") {
        if (saw_header) throw TraceError("duplicate header record");
        saw_header = true;
        TaskLogHeader header;
        header.version = integer_field<int>(rec, "version");
        if (header.version < kMinTaskLogVersion || header.version > kTaskLogVersion) {
          throw TraceError("unsupported task log version " + std::to_string(header.version) +
                           " (this build reads versions " + std::to_string(kMinTaskLogVersion) +
                           ".." + std::to_string(kTaskLogVersion) + ")");
        }
        header.scenario = rec.string_or("scenario", "");
        header.simulator = rec.string_or("simulator", "");
        header.anonymized = rec.bool_or("anonymized", false);
        if (rec.contains("source_scenario")) header.source_scenario = rec.at("source_scenario");
        if (rec.contains("fault_schedule")) header.fault_schedule = rec.at("fault_schedule");
        record = std::move(header);
      } else if (kind == "workflow") {
        TraceWorkflow workflow = parse_workflow_record(rec);
        if (!workflow_ids.insert(workflow.id).second) {
          throw TraceError("duplicate workflow id " + std::to_string(workflow.id));
        }
        if (workflow.submit < 0.0) {
          throw TraceError("workflow '" + workflow.label + "': negative submit time");
        }
        block_open = true;
        block_id = workflow.id;
        block_label = workflow.label;
        record = std::move(workflow);
      } else if (kind == "task") {
        std::uint64_t wf_id = 0;
        TraceTaskDecl task = parse_task_record(rec, &wf_id);
        if (!block_open || block_id != wf_id) {
          if (workflow_ids.count(wf_id) == 0) {
            throw TraceError("task references unknown workflow id " + std::to_string(wf_id));
          }
          throw TraceError("task record for workflow " + std::to_string(wf_id) +
                           " is not contiguous with its workflow record: a workflow's task "
                           "records must directly follow it");
        }
        if (!task_names.insert(task.name).second) {
          throw TraceError("duplicate task name '" + task.name + "'");
        }
        if (task.flops < 0.0) throw TraceError("task '" + task.name + "': negative flops");
        for (const wf::FileSpec& f : task.inputs) {
          if (f.size < 0.0) throw TraceError("task '" + task.name + "': negative input size");
        }
        for (const wf::FileSpec& f : task.outputs) {
          if (f.size < 0.0) throw TraceError("task '" + task.name + "': negative output size");
        }
        block_names.insert(task.name);
        for (const std::string& dep : task.deps) block_edges.push_back({task.name, dep, line_no});
        record = std::move(task);
      } else if (kind == "task_done") {
        TraceTaskEvent event = parse_task_event_record(rec);
        if (task_names.count(event.name) == 0) {
          throw TraceError("task_done event for undeclared task '" + event.name + "'");
        }
        if (event.end < event.start) {
          throw TraceError("task_done '" + event.name + "': end precedes start");
        }
        record = std::move(event);
      } else if (kind == "io") {
        TraceIoEvent event = parse_io_event_record(rec);
        if (event.bytes < 0.0) {
          throw TraceError("io event on '" + event.file + "': negative byte count");
        }
        if (event.end < event.start) {
          throw TraceError("io event on '" + event.file + "': end precedes start");
        }
        if (!event.task.empty() && task_names.count(event.task) == 0) {
          throw TraceError("io event on '" + event.file + "' names undeclared task '" +
                           event.task + "'");
        }
        record = std::move(event);
      } else if (kind == "task_attempt") {
        TraceTaskAttempt attempt = parse_task_attempt_record(rec);
        if (task_names.count(attempt.name) == 0) {
          throw TraceError("task_attempt for undeclared task '" + attempt.name + "'");
        }
        if (attempt.attempt < 1) {
          throw TraceError("task_attempt '" + attempt.name + "': attempt must be >= 1");
        }
        if (attempt.end < attempt.start) {
          throw TraceError("task_attempt '" + attempt.name + "': end precedes start");
        }
        record = std::move(attempt);
      } else if (kind == "disruption") {
        TraceDisruption disruption = parse_disruption_record(rec);
        if (disruption.type.empty()) throw TraceError("disruption record with empty type");
        if (disruption.time < 0.0) {
          throw TraceError("disruption '" + disruption.type + "': negative time");
        }
        record = std::move(disruption);
      } else if (kind == "summary") {
        record = TraceSummary{rec.at("makespan").as_number()};
      } else {
        throw TraceError("unknown record type '" + kind + "'");
      }
    } catch (const util::JsonError& e) {
      throw TraceError("task log line " + std::to_string(line_no) + " (" +
                       (kind.empty() ? "no \"rec\" field" : kind) + "): " + e.what());
    } catch (const TraceError& e) {
      fail_at(line_no, e.what());
    }
    sink(std::move(record), offset);
  }
  if (block_open) close_block();
  if (!saw_header) throw TraceError("task log has no header record");
}

TaskLog TaskLog::parse(std::istream& in) {
  TaskLog log;
  scan_task_log(in, [&log](TaskLogRecord&& record, std::uint64_t /*offset*/) {
    if (auto* header = std::get_if<TaskLogHeader>(&record)) {
      static_cast<TaskLogHeader&>(log) = std::move(*header);
    } else if (auto* workflow = std::get_if<TraceWorkflow>(&record)) {
      log.workflows.push_back(std::move(*workflow));
    } else if (auto* task = std::get_if<TraceTaskDecl>(&record)) {
      log.workflows.back().tasks.push_back(std::move(*task));  // its block's workflow
    } else if (auto* event = std::get_if<TraceTaskEvent>(&record)) {
      log.task_events.push_back(std::move(*event));
    } else if (auto* io = std::get_if<TraceIoEvent>(&record)) {
      log.io_events.push_back(std::move(*io));
    } else if (auto* attempt = std::get_if<TraceTaskAttempt>(&record)) {
      log.task_attempts.push_back(std::move(*attempt));
    } else if (auto* disruption = std::get_if<TraceDisruption>(&record)) {
      log.disruptions.push_back(std::move(*disruption));
    } else {
      log.recorded_makespan = std::get<TraceSummary>(record).makespan;
    }
  });
  return log;
}

TaskLog TaskLog::parse_text(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

TaskLog TaskLog::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw TraceError("cannot open task log '" + path + "'");
  try {
    return parse(in);
  } catch (const TraceError& e) {
    throw TraceError(path + ": " + e.what());
  }
}

void TaskLog::save(std::ostream& out) const {
  out << header_record(*this).dump() << '\n';
  for (const TraceWorkflow& workflow : workflows) {
    out << workflow_record(workflow).dump() << '\n';
    for (const TraceTaskDecl& task : workflow.tasks) {
      out << task_record(workflow.id, task).dump() << '\n';
    }
  }
  for (const TraceIoEvent& event : io_events) out << io_event_record(event).dump() << '\n';
  // v2 records; a v1 log has none and re-saves byte-identically.
  for (const TraceDisruption& disruption : disruptions) {
    out << disruption_record(disruption).dump() << '\n';
  }
  for (const TraceTaskAttempt& attempt : task_attempts) {
    out << task_attempt_record(attempt).dump() << '\n';
  }
  for (const TraceTaskEvent& event : task_events) {
    out << task_event_record(event).dump() << '\n';
  }
  out << summary_record(recorded_makespan, task_count()).dump() << '\n';
}

void TaskLog::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw TraceError("cannot write task log '" + path + "'");
  save(out);
}

util::Json TaskLog::to_json() const {
  util::Json doc{util::JsonObject{}};
  doc.set("header", header_record(*this));
  util::Json wfs{util::JsonArray{}};
  for (const TraceWorkflow& workflow : workflows) {
    util::Json w = workflow_record(workflow);
    util::Json tasks{util::JsonArray{}};
    for (const TraceTaskDecl& task : workflow.tasks) {
      tasks.push_back(task_record(workflow.id, task));
    }
    w.set("tasks", std::move(tasks));
    wfs.push_back(std::move(w));
  }
  doc.set("workflows", std::move(wfs));
  util::Json ios{util::JsonArray{}};
  for (const TraceIoEvent& event : io_events) ios.push_back(io_event_record(event));
  doc.set("io_events", std::move(ios));
  // v2 arrays emitted only when present, keeping v1 trace-info output
  // byte-stable.
  if (!disruptions.empty()) {
    util::Json out{util::JsonArray{}};
    for (const TraceDisruption& disruption : disruptions) {
      out.push_back(disruption_record(disruption));
    }
    doc.set("disruptions", std::move(out));
  }
  if (!task_attempts.empty()) {
    util::Json out{util::JsonArray{}};
    for (const TraceTaskAttempt& attempt : task_attempts) {
      out.push_back(task_attempt_record(attempt));
    }
    doc.set("task_attempts", std::move(out));
  }
  util::Json events{util::JsonArray{}};
  for (const TraceTaskEvent& event : task_events) {
    events.push_back(task_event_record(event));
  }
  doc.set("task_events", std::move(events));
  doc.set("summary", summary_record(recorded_makespan, task_count()));
  return doc;
}

std::size_t TaskLog::task_count() const {
  std::size_t count = 0;
  for (const TraceWorkflow& workflow : workflows) count += workflow.tasks.size();
  return count;
}

double TaskLog::total_read_bytes() const {
  double total = 0.0;
  for (const TraceIoEvent& event : io_events) {
    if (event.op == "read") total += event.bytes;
  }
  return total;
}

double TaskLog::total_written_bytes() const {
  double total = 0.0;
  for (const TraceIoEvent& event : io_events) {
    if (event.op == "write") total += event.bytes;
  }
  return total;
}

double TaskLog::last_task_end() const {
  double last = 0.0;
  for (const TraceTaskEvent& event : task_events) {
    if (event.end > last) last = event.end;
  }
  return last;
}

double TaskLog::first_submit() const {
  if (workflows.empty()) return 0.0;
  double first = workflows.front().submit;
  for (const TraceWorkflow& workflow : workflows) {
    if (workflow.submit < first) first = workflow.submit;
  }
  return first;
}

}  // namespace pcs::tracelog
