// Structured task-log model: the record→replay contract.
//
// A TaskLog is what a recorded run leaves behind — every workflow that was
// submitted (with its full DAG structure), every task execution with its
// phase timestamps, and every storage-service I/O operation tasks issued.
// It is distinct from the span-visualization sim::Tracer: spans describe
// engine activities for a human in chrome://tracing, a TaskLog describes
// the *workload* precisely enough to re-run it (workload type "trace") and
// to check the re-run bit-for-bit against the original.
//
// On disk a log is versioned JSONL: one JSON object per line, dispatched on
// its "rec" field, so million-task logs stream through O(1) memory on the
// write side and line-by-line on the read side:
//
//   {"rec":"header","version":1,"scenario":"nighres","simulator":"wrench_cache",
//    "source_scenario":{...}}                    // effective ScenarioSpec dump
//   {"rec":"workflow","id":0,"label":"a0","service":"store","submit":0}
//   {"rec":"task","wf":0,"name":"a0:task1","flops":2.8e10,
//    "inputs":[{"name":"a0:file1","size":2e9}],"outputs":[...],"deps":[...]}
//   {"rec":"io","op":"stage|read|write|warm","file":"a0:file1","bytes":2e9,
//    "start":0,"end":12.5,"service":"store","task":"a0:task1"}
//   {"rec":"task_done","name":"a0:task1","host":"node0","start":0,
//    "read_start":0,"read_end":12.5,"compute_end":40.5,"write_end":55,"end":55}
//   {"rec":"summary","makespan":172.4,"tasks":3}
//
// Schema v2 (this build) adds the fault-injection records — v1 logs parse
// unchanged and re-save byte-identically (a parsed log keeps its own
// version):
//
//   {"rec":"disruption","type":"host_crash","time":40,"target":"node0"}
//   {"rec":"task_attempt","name":"a0:task1","host":"node0","attempt":1,
//    "start":0,"end":40,"outcome":"crashed"}      // a crash-killed attempt
//   task_done records gain an optional "attempts" field (emitted when > 1)
//   headers gain an optional "fault_schedule" array (the materialized
//   stochastic fault-model timeline in the scenario "events" schema);
//   replay re-fires it verbatim instead of re-drawing from the seed
//
// Numbers are serialized with %.17g, so every virtual time, size and flops
// value round-trips bit-exactly — the property the replay determinism
// oracle (tests/trace_replay_test.cpp, `pcs_cli replay --check`) rests on.
//
// Ordering contract — what TaskLogRecorder and TaskLog::save write, and
// what scan_task_log, the one reader of these records, enforces:
//   * exactly one header record;
//   * a workflow's task records directly follow its workflow record (blank
//     lines aside), so each workflow's declarations are one contiguous
//     block that a streaming reader can re-read from one offset;
//   * task_done, task_attempt and task-attributed io records name a task
//     declared on an earlier line.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "util/json.hpp"
#include "workflow/workflow.hpp"

namespace pcs::tracelog {

class TraceError : public std::runtime_error {
 public:
  explicit TraceError(const std::string& what) : std::runtime_error(what) {}
};

/// The schema version this build writes.  Readers accept every version in
/// [kMinTaskLogVersion, kTaskLogVersion]; v1 is v2 minus the
/// disruption/task_attempt records.
inline constexpr int kTaskLogVersion = 2;
inline constexpr int kMinTaskLogVersion = 1;

/// One task of a recorded workflow: enough DAG structure to rebuild it.
/// `deps` holds the *explicit* ordering constraints only; file-derived
/// dependencies (task reads a file another task wrote) are reconstructed by
/// wf::Workflow on replay, exactly as the original generator relied on.
struct TraceTaskDecl {
  std::string name;
  double flops = 0.0;
  double chunk_size = 0.0;  ///< per-task I/O granularity override (0 = scenario default)
  std::vector<wf::FileSpec> inputs;
  std::vector<wf::FileSpec> outputs;
  std::vector<std::string> deps;
};

/// One workflow submission: tasks in original insertion order (the order
/// drives executor scheduling, so replay must preserve it), the storage
/// service it was bound to, and the virtual time it entered the system.
struct TraceWorkflow {
  std::uint64_t id = 0;
  std::string label;    ///< instance tag, e.g. "a0" or "batch:a1"
  std::string service;  ///< storage service name ("" = scenario default)
  double submit = 0.0;  ///< virtual submission time (seconds)
  std::vector<TraceTaskDecl> tasks;
};

/// One completed task execution with its phase boundaries.
struct TraceTaskEvent {
  std::string name;
  std::string host;
  double start = 0.0;
  double read_start = 0.0;
  double read_end = 0.0;
  double compute_end = 0.0;
  double write_end = 0.0;
  double end = 0.0;
  /// Attempts the task consumed incl. the successful one (v2; serialized
  /// only when > 1, so v1 logs re-save byte-identically).
  int attempts = 1;
};

/// A crash-killed task attempt (v2): the execution that did NOT complete.
/// The matching successful run, if any, appears as its own task_done.
struct TraceTaskAttempt {
  std::string name;
  std::string host;
  int attempt = 1;      ///< 1-based attempt number
  double start = 0.0;   ///< when the attempt began running
  double end = 0.0;     ///< when it was killed
  std::string outcome;  ///< "crashed"
};

/// A disruption the scenario driver fired (v2).  Replay does not inject
/// from these records — it re-runs the embedded source_scenario, whose
/// "events" array re-fires the same disruptions — they make the injected
/// timeline auditable in the log itself.
struct TraceDisruption {
  std::string type;     ///< "host_crash" | "host_restart" | "service_degrade" | ...
  double time = 0.0;    ///< virtual time the driver fired it
  std::string target;   ///< host or service name
  double factor = 0.0;  ///< bandwidth factor (service_degrade; 0 when n/a)
};

/// One storage-service operation: a chunked file read/write by a task, an
/// instantaneous input staging, a server-side cache warm, or — with no
/// issuing task — background traffic the service generated itself (the
/// page-cache flusher's writebacks, a burst buffer's drain transfers).
struct TraceIoEvent {
  std::string op;    ///< "stage" | "read" | "write" | "warm" | "flush" | "drain"
  std::string file;
  double bytes = 0.0;
  double start = 0.0;
  double end = 0.0;
  std::string service;
  std::string task;  ///< issuing task name ("" for stage/warm/flush/drain)
};

/// The header record: what the log is a recording of.
struct TaskLogHeader {
  int version = kTaskLogVersion;
  std::string scenario;
  std::string simulator;
  /// Set by tracelog::anonymize: names stripped, sizes quantized.  Purely
  /// informational (replay works either way); trace-info surfaces it.
  bool anonymized = false;
  /// Effective spec of the recorded scenario (ScenarioSpec::to_json), when
  /// the recorder knew it; lets `pcs_cli replay` rebuild platform/services
  /// without any extra flags.  Null when absent.
  util::Json source_scenario;
  /// The concrete disruption timeline the run's "fault_model" block drew
  /// (scenario "events" schema; null when the run had no stochastic
  /// models).  Replay fires this recorded schedule — the header wins over
  /// re-materializing from the embedded seed, keeping `replay --check`
  /// exact even if the generator evolves.
  util::Json fault_schedule;
};

/// The summary record.
struct TraceSummary {
  double makespan = 0.0;
};

/// A complete parsed task log.
struct TaskLog : TaskLogHeader {
  std::vector<TraceWorkflow> workflows;  ///< in submission order
  std::vector<TraceTaskEvent> task_events;
  std::vector<TraceIoEvent> io_events;
  std::vector<TraceTaskAttempt> task_attempts;  ///< v2: crash-killed attempts
  std::vector<TraceDisruption> disruptions;     ///< v2: injected disruptions
  double recorded_makespan = 0.0;  ///< from the summary record (0 if none)

  /// Parse a JSONL document (text or file) through scan_task_log, so every
  /// rule of the format is checked; throws TraceError naming the line.
  static TaskLog parse(std::istream& in);
  static TaskLog parse_text(const std::string& text);
  static TaskLog from_file(const std::string& path);

  /// Serialize as JSONL, streamed line-by-line (never materializes the
  /// whole document).
  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;

  /// The whole log as one JSON document — trace-info's machine output and
  /// the round-trip test oracle.
  [[nodiscard]] util::Json to_json() const;

  // --- summaries (trace-info) --------------------------------------------
  [[nodiscard]] std::size_t task_count() const;
  [[nodiscard]] double total_read_bytes() const;   ///< "read" io ops
  [[nodiscard]] double total_written_bytes() const;  ///< "write" io ops
  /// Latest task end time (the replayable makespan; recorded_makespan may
  /// exceed it when background drains held the simulation open).
  [[nodiscard]] double last_task_end() const;
  [[nodiscard]] double first_submit() const;
};

// --- reading ---------------------------------------------------------------

/// One record of a task log, decoded.  A TraceWorkflow arrives without its
/// tasks: the TraceTaskDecl records that follow it are its declarations.
using TaskLogRecord = std::variant<TaskLogHeader, TraceWorkflow, TraceTaskDecl, TraceTaskEvent,
                                   TraceIoEvent, TraceTaskAttempt, TraceDisruption, TraceSummary>;

/// Receives each record with the byte offset of its line.
using TaskLogSink = std::function<void(TaskLogRecord&& record, std::uint64_t offset)>;

/// The one reader of task-log records.  Reads `in` line by line, checks
/// each record against every rule of the format — the ordering contract
/// above, supported version, unique workflow ids and task names,
/// dependencies within the declaring workflow, non-negative sizes, flops,
/// byte counts and times, end >= start, attempt >= 1 — and passes it to
/// `sink` in stream order.  Throws TraceError naming the offending line.
void scan_task_log(std::istream& in, const TaskLogSink& sink);

/// Decoders for the two declaration records, for a reader that re-reads a
/// block scan_task_log already checked (TaskLogReader's on-demand loads).
[[nodiscard]] TraceWorkflow parse_workflow_record(const util::Json& rec);
/// Returns the declaring workflow id through `wf_id`.
[[nodiscard]] TraceTaskDecl parse_task_record(const util::Json& rec, std::uint64_t* wf_id);

// --- single-record (de)serialization, shared with TaskLogRecorder ---------

[[nodiscard]] util::Json header_record(const TaskLogHeader& header);
[[nodiscard]] util::Json workflow_record(const TraceWorkflow& workflow);
[[nodiscard]] util::Json task_record(std::uint64_t workflow_id, const TraceTaskDecl& task);
[[nodiscard]] util::Json task_event_record(const TraceTaskEvent& event);
[[nodiscard]] util::Json io_event_record(const TraceIoEvent& event);
[[nodiscard]] util::Json task_attempt_record(const TraceTaskAttempt& attempt);
[[nodiscard]] util::Json disruption_record(const TraceDisruption& disruption);
[[nodiscard]] util::Json summary_record(double makespan, std::size_t tasks);

}  // namespace pcs::tracelog
