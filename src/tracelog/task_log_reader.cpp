#include "tracelog/task_log_reader.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <variant>

namespace pcs::tracelog {

namespace {

std::size_t estimate_bytes(const TraceWorkflow& wf) {
  std::size_t bytes = sizeof(TraceWorkflow) + wf.label.capacity() + wf.service.capacity();
  for (const TraceTaskDecl& task : wf.tasks) {
    bytes += sizeof(TraceTaskDecl) + task.name.capacity();
    for (const wf::FileSpec& f : task.inputs) bytes += sizeof(wf::FileSpec) + f.name.capacity();
    for (const wf::FileSpec& f : task.outputs) {
      bytes += sizeof(wf::FileSpec) + f.name.capacity();
    }
    for (const std::string& d : task.deps) bytes += sizeof(std::string) + d.capacity();
  }
  return bytes;
}

}  // namespace

TaskLogReader::TaskLogReader(std::string path, std::size_t window)
    : path_(std::move(path)), window_(std::max<std::size_t>(window, 1)) {
  in_.open(path_);
  if (!in_) throw TraceError("cannot open task log '" + path_ + "'");
  try {
    prescan();
  } catch (const TraceError& e) {
    throw TraceError(path_ + ": " + e.what());
  }
  in_.clear();  // past-EOF state would poison the first workflow() seek
}

void TaskLogReader::prescan() {
  std::unordered_set<std::string> block_files;  // file names of the open workflow
  scan_task_log(in_, [&](TaskLogRecord&& record, std::uint64_t offset) {
    if (auto* header = std::get_if<TaskLogHeader>(&record)) {
      header_ = std::move(*header);
    } else if (auto* workflow = std::get_if<TraceWorkflow>(&record)) {
      if (metas_.empty() || workflow->submit < first_submit_) first_submit_ = workflow->submit;
      TraceWorkflowMeta meta;
      meta.id = workflow->id;
      meta.label = std::move(workflow->label);
      meta.service = std::move(workflow->service);
      meta.submit = workflow->submit;
      meta.offset = offset;
      metas_.push_back(std::move(meta));
      block_files.clear();
    } else if (const auto* task = std::get_if<TraceTaskDecl>(&record)) {
      TraceWorkflowMeta& meta = metas_.back();  // its block's workflow
      for (const std::vector<wf::FileSpec>* files : {&task->inputs, &task->outputs}) {
        for (const wf::FileSpec& f : *files) {
          if (block_files.insert(f.name).second) meta.files.push_back(f.name);
        }
      }
      ++meta.task_count;
      ++task_count_;
    } else if (const auto* event = std::get_if<TraceTaskEvent>(&record)) {
      ++task_event_count_;
      last_task_end_ = std::max(last_task_end_, event->end);
    } else if (const auto* io = std::get_if<TraceIoEvent>(&record)) {
      ++io_event_count_;
      if (io->op == "read") read_bytes_ += io->bytes;
      if (io->op == "write") written_bytes_ += io->bytes;
    } else if (const auto* summary = std::get_if<TraceSummary>(&record)) {
      recorded_makespan_ = summary->makespan;
    }
  });
}

TraceWorkflow TaskLogReader::load_workflow(const TraceWorkflowMeta& meta) {
  // The pre-scan checked this block: the workflow record at `offset`, then
  // exactly task_count task records of the same workflow.  Anything else
  // means the file changed under the reader.
  auto changed = [&] {
    return TraceError(path_ + ": the declarations of workflow " + std::to_string(meta.id) +
                      " changed since the pre-scan (log modified during replay?)");
  };
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(meta.offset));
  std::string line;
  auto next_record = [&](const char* kind) {
    while (std::getline(in_, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      util::Json rec = util::Json::parse(line);
      if (rec.string_or("rec", "") != kind) break;
      return rec;
    }
    throw changed();
  };
  try {
    TraceWorkflow workflow = parse_workflow_record(next_record("workflow"));
    if (workflow.id != meta.id) throw changed();
    workflow.tasks.reserve(meta.task_count);
    while (workflow.tasks.size() < meta.task_count) {
      std::uint64_t wf_id = 0;
      workflow.tasks.push_back(parse_task_record(next_record("task"), &wf_id));
      if (wf_id != meta.id) throw changed();
    }
    return workflow;
  } catch (const util::JsonError&) {
    throw changed();
  }
}

const TraceWorkflow& TaskLogReader::workflow(std::size_t index) {
  if (index >= metas_.size()) {
    throw TraceError(path_ + ": workflow index " + std::to_string(index) + " out of range");
  }
  auto hit = cache_.find(index);
  if (hit != cache_.end()) {
    lru_.erase(hit->second.lru_pos);
    lru_.push_front(index);
    hit->second.lru_pos = lru_.begin();
    return hit->second.workflow;
  }
  while (cache_.size() >= window_) {
    const std::size_t victim = lru_.back();
    lru_.pop_back();
    auto v = cache_.find(victim);
    bytes_buffered_ -= v->second.bytes;
    cache_.erase(v);
  }
  CacheEntry entry;
  entry.workflow = load_workflow(metas_[index]);
  entry.bytes = estimate_bytes(entry.workflow);
  ++parse_count_;
  lru_.push_front(index);
  entry.lru_pos = lru_.begin();
  auto [pos, inserted] = cache_.emplace(index, std::move(entry));
  bytes_buffered_ += pos->second.bytes;
  window_peak_ = std::max(window_peak_, cache_.size());
  return pos->second.workflow;
}

}  // namespace pcs::tracelog
