// The Memory Manager (paper Section III.A).
//
// Owns the two page-cache LRU lists and the memory accounting of one host:
//   total = free + cached (page cache) + anonymous (application memory).
// Implements flushing (dirty blocks written back through the BackingStore),
// eviction (clean inactive blocks dropped; zero simulated cost, as in the
// paper), cached reads/writes (timed on the host memory channels), list
// balancing (active <= 2x inactive) and the background periodical-flush
// actor (Algorithm 1).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "pagecache/backing_store.hpp"
#include "pagecache/kernel_params.hpp"
#include "pagecache/lru_list.hpp"
#include "simcore/engine.hpp"
#include "simcore/task.hpp"

namespace pcs::cache {

class CacheError : public std::runtime_error {
 public:
  explicit CacheError(const std::string& what) : std::runtime_error(what) {}
};

/// Point-in-time view of the cache, used by the Fig 4b / 4c probes.
struct CacheSnapshot {
  double time = 0.0;
  double total = 0.0;
  double free = 0.0;
  double cached = 0.0;
  double dirty = 0.0;
  double anonymous = 0.0;
  double inactive = 0.0;
  double active = 0.0;
  std::map<std::string, double> per_file;  ///< cached bytes per file

  [[nodiscard]] double used() const { return total - free; }
};

/// Observer for service-generated background I/O (writebacks the flusher or
/// a drain daemon issues, as opposed to task-issued reads/writes).  Called
/// with the op kind ("flush", "drain"), the file, the bytes moved and the
/// simulated [start, end] interval.  Pure observation: observers must not
/// touch the engine, so an observed run stays bit-identical (the task-log
/// recorder attaches here to emit service-attributed "io" records).
using IoObserver = std::function<void(const std::string& op, const std::string& file,
                                      double bytes, double start, double end)>;

class MemoryManager {
 public:
  /// `total_mem` is the memory available to page cache + applications.
  /// `mem_read`/`mem_write` are the host memory channels used to time cache
  /// hits and cache writes; `store` is the flush/read target.
  MemoryManager(sim::Engine& engine, const CacheParams& params, double total_mem,
                sim::Resource* mem_read, sim::Resource* mem_write, BackingStore& store);

  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  // --- accounting queries -------------------------------------------------
  [[nodiscard]] double total_mem() const { return total_mem_; }
  [[nodiscard]] double free_mem() const { return total_mem_ - cached() - anonymous_; }
  [[nodiscard]] double cached() const { return inactive_.total() + active_.total(); }
  [[nodiscard]] double cached(const std::string& file) const {
    return inactive_.file_bytes(file) + active_.file_bytes(file);
  }
  [[nodiscard]] double dirty() const { return inactive_.dirty_total() + active_.dirty_total(); }
  [[nodiscard]] double anonymous() const { return anonymous_; }
  /// Bytes evictable right now: clean data in the inactive list (eviction
  /// never touches the active list; balancing refills the inactive list).
  [[nodiscard]] double evictable(const std::string& exclude_file = "") const;
  /// The synchronous-write threshold: dirty_ratio x total memory.
  [[nodiscard]] double dirty_limit() const { return params_.dirty_ratio * total_mem_; }

  [[nodiscard]] const CacheParams& params() const { return params_; }
  [[nodiscard]] const LruList& inactive_list() const { return inactive_; }
  [[nodiscard]] const LruList& active_list() const { return active_; }
  /// Host bytes reserved by the two LRU node slabs (capacity, never
  /// shrinking) — the `<service>/alloc_lru_bytes` gauge.
  [[nodiscard]] std::size_t lru_bytes_reserved() const {
    return inactive_.bytes_reserved() + active_.bytes_reserved();
  }

  // --- cumulative traffic counters (observability gauges) -----------------
  // Simulated byte totals since construction; always on (a few adds on
  // paths that already walk LRU lists).  obs::MetricsRegistry gauges read
  // these — purely simulated quantities, so sampled timelines stay
  // byte-identical across --jobs.
  [[nodiscard]] double hit_bytes() const { return hit_bytes_; }       ///< served from cache
  [[nodiscard]] double miss_bytes() const { return miss_bytes_; }     ///< clean fills from disk
  [[nodiscard]] double evicted_bytes() const { return evicted_bytes_; }
  [[nodiscard]] double flushed_bytes() const { return flushed_bytes_; }  ///< writebacks

  // --- the paper's Memory Manager operations ------------------------------

  /// Write least-recently-used dirty blocks back until `amount` bytes are
  /// flushed or no dirty block remains (inactive list first, then active;
  /// partial blocks are split).  Non-positive amounts return immediately.
  /// `exclude_file` blocks of that file are skipped (Algorithm 2 passes the
  /// file currently being read).
  [[nodiscard]] sim::Task<> flush(double amount, std::string exclude_file = "");

  /// Flush every expired dirty block (used by the periodic flusher);
  /// returns the simulated time spent writing.
  [[nodiscard]] sim::Task<double> flush_expired_blocks();

  /// fsync(2): write back every dirty block of `file`; returns once the
  /// file has no dirty data left (including data dirtied concurrently
  /// while this fsync was writing, as the kernel's fsync does).
  [[nodiscard]] sim::Task<> fsync(std::string file);

  /// Drop least-recently-used *clean* blocks from the inactive list until
  /// `amount` bytes are evicted or no clean block remains; the last block is
  /// split if it does not have to be entirely evicted.  Zero simulated cost
  /// (paper: eviction overhead is negligible in real systems).
  void evict(double amount, const std::string& exclude_file = "");

  /// Simulate reading `amount` cached bytes of `file`: data moves at memory
  /// read bandwidth and the touched blocks migrate to the active list
  /// (clean blocks merged, dirty blocks moved individually, partially read
  /// blocks split) — Section III.A.2.  Returns the bytes actually served:
  /// under concurrency another application may have evicted part of the
  /// file between planning and reading, in which case the caller re-reads
  /// the shortfall from the backing store (a page fault on a reclaimed
  /// page).
  [[nodiscard]] sim::Task<double> read_from_cache(std::string file, double amount);

  /// The LRU bookkeeping of read_from_cache without the timed memory
  /// transfer: migrates up to `amount` cached bytes of `file` to the active
  /// list and returns the bytes found.  Used by remote-storage paths that
  /// time the transfer as their own composite network+device flow.
  double touch_cached(const std::string& file, double amount);

  /// Account `amount` freshly read bytes of `file` as a clean block in the
  /// inactive list (the disk read itself is the caller's activity).
  /// Best-effort: evicts clean data if free memory is short and caches only
  /// what fits (the kernel never fails a read because the cache is full).
  /// Returns the bytes actually cached.
  double add_to_cache(const std::string& file, double amount, bool dirty = false);

  /// Simulate writing `amount` new bytes of `file` into the cache: a dirty
  /// block appended to the inactive list, timed on the memory write channel.
  [[nodiscard]] sim::Task<> write_to_cache(std::string file, double amount);

  // --- anonymous memory ----------------------------------------------------

  /// Claim application memory.  Throws CacheError if the host memory would
  /// be overcommitted (the paper assumes working sets fit in memory).
  void allocate_anonymous(double amount);
  void release_anonymous(double amount);

  // --- background flushing (Algorithm 1) -----------------------------------

  /// Spawn the periodical-flush daemon actor on the engine.
  void start_periodic_flush(const std::string& actor_name = "periodic-flush");

  /// Ask the periodic flusher to exit at its next wakeup (service_remove
  /// drains the service: the in-flight writeback finishes, then the daemon
  /// stops).  Irreversible for this manager.
  void stop_periodic_flush() { stop_flush_ = true; }

  /// Observe every writeback this manager issues (demand flushing, the
  /// periodic flusher, fsync) as an "flush" background-I/O event.
  void set_io_observer(IoObserver observer) { io_observer_ = std::move(observer); }

  // --- maintenance ----------------------------------------------------------

  /// Invalidate every cached block of `file` (file deletion/truncation).
  /// Dirty bytes are discarded without writeback, like a removed file.
  void drop_file(const std::string& file);

  /// Model a host crash: both LRU lists are emptied (dirty blocks discarded
  /// without writeback — the data that was only in memory is lost) and all
  /// anonymous memory is released (the applications holding it died with
  /// the host; cancelled tasks never reach release_anonymous).  A restarted
  /// host starts with a stone-cold cache.
  void drop_cache();

  [[nodiscard]] CacheSnapshot snapshot() const;

  /// Consistency check used by tests: accounting matches the lists, free
  /// memory is non-negative, balance invariant holds.
  void check_invariants() const;

 private:
  [[nodiscard]] sim::Task<> periodic_flush_loop();
  /// Move LRU blocks from active to inactive until active <= ratio x
  /// inactive (no-op for SingleList policy).
  void balance_lists();
  [[nodiscard]] std::uint64_t next_block_id() { return block_seq_++; }

  /// store_.write wrapped with the observer notification.
  [[nodiscard]] sim::Task<> write_back(std::string file, double bytes);

  sim::Engine& engine_;
  CacheParams params_;
  IoObserver io_observer_;
  double total_mem_;
  sim::Resource* mem_read_;
  sim::Resource* mem_write_;
  BackingStore& store_;

  double anonymous_ = 0.0;
  // With LruPolicy::SingleList every block lives in inactive_ and the
  // balance step is disabled; eviction and flushing then scan one list.
  LruList inactive_;
  LruList active_;
  std::uint64_t block_seq_ = 1;
  bool stop_flush_ = false;
  double hit_bytes_ = 0.0;
  double miss_bytes_ = 0.0;
  double evicted_bytes_ = 0.0;
  double flushed_bytes_ = 0.0;
};

}  // namespace pcs::cache
