// Streaming task-log access: every trace replay reads its log through a
// bounded window instead of materializing the whole TaskLog.
//
// TaskLog::from_file holds every record — including the task_done and io
// event streams, which dominate a long recording — in memory.  The reader
// splits that into two passes:
//
//   1. A pre-scan (constructor): one scan_task_log pass, which checks the
//      log against every rule of the format and keeps only per-workflow
//      metadata — label, service binding, submit time, task count,
//      referenced file names, and the byte offset of the workflow record —
//      plus O(1) summary accumulators (task/io event counts, read/written
//      bytes, last task end) and the header.  Event records are dropped,
//      never stored.
//   2. On-demand workflow loads (workflow(i)): seek to the recorded offset
//      and parse just that workflow's declaration block, holding at most
//      `window` parsed workflows in an LRU cache.  Out-of-order access
//      (load_factor clones pulling the same recorded workflow at staggered
//      virtual times) re-parses after eviction instead of growing the
//      window.
//
// Memory is O(#workflows) metadata + O(window) parsed declarations,
// independent of the event-record volume — the property the
// `alloc/trace_window_bytes` gauge reports and trace_replay_test asserts.
// The load relies on the format's ordering contract (task_log.hpp): a
// workflow's task records directly follow its workflow record.
#pragma once

#include <cstdint>
#include <fstream>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "tracelog/task_log.hpp"
#include "util/json.hpp"

namespace pcs::tracelog {

/// Everything the workload layer needs to schedule a recorded workflow
/// without its task bodies.
struct TraceWorkflowMeta {
  std::uint64_t id = 0;
  std::string label;
  std::string service;
  double submit = 0.0;
  std::uint64_t offset = 0;      ///< byte offset of the workflow record line
  std::uint32_t task_count = 0;  ///< declaration records to collect on load
  /// Input/output file names (unique, declaration order): the runner's
  /// workload_files set is built from these, not from materialized DAGs.
  std::vector<std::string> files;
};

class TaskLogReader {
 public:
  static constexpr std::size_t kDefaultWindow = 64;

  /// Pre-scans `path` (throws TraceError on a malformed log, prefixed with
  /// the path like TaskLog::from_file).  `window` is the maximum number of
  /// parsed workflows cached at once (>= 1).
  explicit TaskLogReader(std::string path, std::size_t window = kDefaultWindow);

  // --- header ---------------------------------------------------------------
  [[nodiscard]] int version() const { return header_.version; }
  [[nodiscard]] const std::string& scenario() const { return header_.scenario; }
  [[nodiscard]] const std::string& simulator() const { return header_.simulator; }
  [[nodiscard]] bool anonymized() const { return header_.anonymized; }
  [[nodiscard]] const util::Json& source_scenario() const { return header_.source_scenario; }
  [[nodiscard]] const util::Json& fault_schedule() const { return header_.fault_schedule; }

  // --- pre-scan results -----------------------------------------------------
  [[nodiscard]] const std::vector<TraceWorkflowMeta>& workflows() const { return metas_; }
  [[nodiscard]] std::size_t task_count() const { return task_count_; }
  [[nodiscard]] std::size_t task_event_count() const { return task_event_count_; }
  [[nodiscard]] std::size_t io_event_count() const { return io_event_count_; }
  [[nodiscard]] double total_read_bytes() const { return read_bytes_; }
  [[nodiscard]] double total_written_bytes() const { return written_bytes_; }
  [[nodiscard]] double first_submit() const { return first_submit_; }
  [[nodiscard]] double last_task_end() const { return last_task_end_; }
  [[nodiscard]] double recorded_makespan() const { return recorded_makespan_; }

  /// The workflow at metadata index `index`, parsed on demand through the
  /// bounded cache.  The reference stays valid until `window` further
  /// workflow() calls at the earliest.
  [[nodiscard]] const TraceWorkflow& workflow(std::size_t index);

  // --- window gauges --------------------------------------------------------
  [[nodiscard]] std::size_t window() const { return window_; }
  /// Parsed workflows currently cached.
  [[nodiscard]] std::size_t window_blocks() const { return cache_.size(); }
  /// High-water mark of window_blocks() (never exceeds window()).
  [[nodiscard]] std::size_t window_peak() const { return window_peak_; }
  /// Total on-demand parses; > workflows().size() means eviction re-parses.
  [[nodiscard]] std::size_t parse_count() const { return parse_count_; }
  /// Approximate bytes held by the cached parsed workflows.
  [[nodiscard]] std::size_t bytes_buffered() const { return bytes_buffered_; }

 private:
  void prescan();
  [[nodiscard]] TraceWorkflow load_workflow(const TraceWorkflowMeta& meta);

  std::string path_;
  std::size_t window_;
  std::ifstream in_;  ///< kept open across workflow() seeks

  TaskLogHeader header_;

  std::vector<TraceWorkflowMeta> metas_;
  std::size_t task_count_ = 0;
  std::size_t task_event_count_ = 0;
  std::size_t io_event_count_ = 0;
  double read_bytes_ = 0.0;
  double written_bytes_ = 0.0;
  double first_submit_ = 0.0;
  double last_task_end_ = 0.0;
  double recorded_makespan_ = 0.0;

  struct CacheEntry {
    TraceWorkflow workflow;
    std::size_t bytes = 0;
    std::list<std::size_t>::iterator lru_pos;  ///< position in lru_ (front = hottest)
  };
  std::unordered_map<std::size_t, CacheEntry> cache_;  ///< metadata index -> parsed
  std::list<std::size_t> lru_;
  std::size_t window_peak_ = 0;
  std::size_t parse_count_ = 0;
  std::size_t bytes_buffered_ = 0;
};

}  // namespace pcs::tracelog
