// Burst-buffer storage service (the paper conclusion's proposed study, as a
// registered backend; scenarios/burst_buffer.json runs it).
//
// Tasks read and write against a node-local page-cached buffer (so writes
// land at local/cached speed), while a background drainer actor stages
// selected files to a slower target service (typically an NFS mount) as
// they appear — overlapping staging with the remaining computation.  When
// the drain set is known up front the drainer is a regular actor, so the
// simulation's makespan is "time until all results are on the server".
#pragma once

#include <set>
#include <string>
#include <vector>

#include "storage/local_storage.hpp"
#include "storage/storage_service.hpp"

namespace pcs::storage {

struct BurstBufferOptions {
  double drain_period = 1.0;        ///< polling period of the drainer (s)
  double drain_chunk = 100.0e6;     ///< chunk size for staging transfers
  std::vector<std::string> drain_files;  ///< exact files to stage (deduplicated);
                                         ///< drainer exits once all are staged
  std::string drain_suffix;         ///< or: stage any file ending in this
};

class BurstBuffer : public StorageService {
 public:
  /// `buffer` is the node-local staging store, `target` the durable backend
  /// the drainer pushes to.  Both are owned elsewhere (the Simulation).
  BurstBuffer(sim::Engine& engine, LocalStorage& buffer, StorageService& target,
              BurstBufferOptions options);

  // --- FileService: applications talk to the buffer ----------------------
  [[nodiscard]] sim::Task<> read_file(const std::string& name, double chunk_size) override;
  [[nodiscard]] sim::Task<> write_file(const std::string& name, double size,
                                       double chunk_size) override;
  [[nodiscard]] double file_size(const std::string& name) const override;
  void stage_file(const std::string& name, double size) override {
    buffer_.stage_file(name, size);
  }
  void release_anonymous(double bytes) override { buffer_.release_anonymous(bytes); }

  // --- StorageService ----------------------------------------------------
  [[nodiscard]] cache::MemoryManager* memory_manager() override {
    return buffer_.memory_manager();
  }
  [[nodiscard]] std::optional<cache::CacheSnapshot> state_snapshot() const override {
    return buffer_.state_snapshot();
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> lru_block_counts() const override {
    return buffer_.lru_block_counts();
  }

  /// Spawn the drainer actor; call once after construction.  A daemon when
  /// no explicit drain set is configured (it stages whatever appears but
  /// does not hold the simulation open).
  void start_drainer();

  /// A drain target no workflow will ever produce would keep the (non-
  /// daemon) drainer polling forever; reject it up front.
  void validate_workload_files(const std::set<std::string>& files) const override;

  /// Background traffic of a burst buffer: the drainer's staging transfers
  /// ("drain", one event per file, spanning buffer read + target write)
  /// plus the buffer's and the target's own flusher writebacks ("flush").
  void set_background_io_observer(cache::IoObserver observer) override;

  [[nodiscard]] LocalStorage& buffer() { return buffer_; }
  [[nodiscard]] StorageService& target() { return target_; }
  [[nodiscard]] std::size_t drained_count() const { return drained_.size(); }

  // --- disruption-event hooks: forward to both halves ---------------------
  void on_host_crash(const std::string& host) override {
    buffer_.on_host_crash(host);
    target_.on_host_crash(host);
  }
  /// Degrades the buffer device (the node-local burst media); the target's
  /// own service entry takes degrade events for the backing store.
  bool degrade_bandwidth(double factor) override {
    return buffer_.degrade_bandwidth(factor);
  }
  void quiesce() override {
    buffer_.quiesce();
    target_.quiesce();
  }

 private:
  [[nodiscard]] bool wants(const std::string& name) const;
  [[nodiscard]] sim::Task<> drainer_loop();

  sim::Engine& engine_;
  LocalStorage& buffer_;
  StorageService& target_;
  BurstBufferOptions options_;
  std::set<std::string> drain_targets_;  ///< deduplicated drain_files
  std::set<std::string> drained_;
  cache::IoObserver io_observer_;
};

}  // namespace pcs::storage
