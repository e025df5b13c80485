#include "pagecache/memory_manager.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/debug.hpp"
#include "util/log.hpp"

namespace pcs::cache {

namespace {
// Byte-accounting tolerance shared with LruList.
constexpr double kEps = 1e-3;
}  // namespace

MemoryManager::MemoryManager(sim::Engine& engine, const CacheParams& params, double total_mem,
                             sim::Resource* mem_read, sim::Resource* mem_write,
                             BackingStore& store)
    : engine_(engine),
      params_(params),
      total_mem_(total_mem),
      mem_read_(mem_read),
      mem_write_(mem_write),
      store_(store) {
  if (total_mem <= 0.0) throw CacheError("MemoryManager: total memory must be positive");
  if (params.dirty_ratio < 0.0 || params.dirty_ratio > 1.0) {
    throw CacheError("MemoryManager: dirty_ratio must be in [0, 1]");
  }
}

double MemoryManager::evictable(const std::string& exclude_file) const {
  return inactive_.clean_excluding(exclude_file);
}

sim::Task<> MemoryManager::write_back(std::string file, double bytes) {
  const double start = engine_.now();
  flushed_bytes_ += bytes;
  co_await store_.write(file, bytes);
  if (io_observer_) io_observer_("flush", file, bytes, start, engine_.now());
}

sim::Task<> MemoryManager::flush(double amount, std::string exclude_file) {
  // "When called with negative arguments, [flush and evict] simply return."
  if (amount <= kEps) co_return;
  double flushed = 0.0;
  while (flushed < amount - kEps) {
    // Least recently used dirty block: sorted inactive list first, then the
    // sorted active list (Section III.A.3).
    LruList* list = &inactive_;
    auto it = inactive_.lru_dirty(exclude_file);
    if (it == inactive_.end()) {
      list = &active_;
      it = active_.lru_dirty(exclude_file);
      if (it == active_.end()) break;  // no dirty block left
    }
    double need = amount - flushed;
    if (it->size > need + kEps) {
      // Partial flush: split in two, one flushed, one remains dirty.
      auto [first, second] = list->split(it, need, next_block_id());
      (void)second;
      it = first;
    }
    // As in Algorithm 1, the dirty flag drops before the simulated write;
    // the write time is charged to this actor via the backing store.
    list->set_dirty(it, false);
    const std::string file = it->file;
    const double bytes = it->size;
    flushed += bytes;
    co_await write_back(file, bytes);
  }
}

sim::Task<double> MemoryManager::flush_expired_blocks() {
  const double start = engine_.now();
  // Collect candidates by id, then revalidate before each write: the write
  // awaits simulated time during which other actors may evict, split or
  // flush the same blocks.
  std::vector<std::uint64_t> candidates;
  for (LruList* list : {&inactive_, &active_}) {
    for (auto it = list->lru_dirty(); it != list->end(); it = list->next_dirty(it)) {
      if (it->expired(start, params_.dirty_expire)) candidates.push_back(it->id);
    }
  }
  for (std::uint64_t id : candidates) {
    LruList* list = &inactive_;
    auto it = inactive_.find(id);
    if (it == inactive_.end()) {
      list = &active_;
      it = active_.find(id);
      if (it == active_.end()) continue;  // evicted or merged meanwhile
    }
    if (!it->dirty) continue;  // flushed by someone else meanwhile
    list->set_dirty(it, false);
    const std::string file = it->file;
    const double bytes = it->size;
    co_await write_back(file, bytes);
  }
  co_return engine_.now() - start;
}

sim::Task<> MemoryManager::fsync(std::string file) {
  while (true) {
    LruList* list = &inactive_;
    auto it = inactive_.lru_dirty_of(file);
    if (it == inactive_.end()) {
      list = &active_;
      it = active_.lru_dirty_of(file);
      if (it == active_.end()) co_return;  // nothing dirty remains
    }
    list->set_dirty(it, false);
    const double bytes = it->size;
    co_await write_back(file, bytes);
  }
}

void MemoryManager::evict(double amount, const std::string& exclude_file) {
  if (amount <= kEps) return;
  double evicted = 0.0;
  while (evicted < amount - kEps) {
    auto it = inactive_.lru_clean(exclude_file);
    if (it == inactive_.end()) {
      // The inactive list ran out of clean blocks; the kernel's reclaim
      // deactivates pages from the active list under pressure — even when
      // the list-balance ratio is satisfied (the inactive list may be full
      // of unevictable dirty or excluded data).
      balance_lists();
      it = inactive_.lru_clean(exclude_file);
      if (it == inactive_.end()) {
        auto active_it = active_.lru_clean(exclude_file);
        if (active_it == active_.end()) break;  // nothing reclaimable anywhere
        DataBlock demoted = active_.extract(active_it);
        it = inactive_.insert(std::move(demoted));
      }
    }
    double need = amount - evicted;
    if (it->size > need + kEps) {
      // "If the last evicted block does not have to be entirely evicted,
      // the block is split in two blocks, and only one of them is evicted."
      auto [victim, keep] = inactive_.split(it, need, next_block_id());
      (void)keep;
      evicted += victim->size;
      inactive_.erase(victim);
    } else {
      evicted += it->size;
      inactive_.erase(it);
    }
  }
  evicted_bytes_ += evicted;
  balance_lists();
  PCS_CHECK_INVARIANTS(check_invariants());
}

double MemoryManager::touch_cached(const std::string& file, double amount) {
  if (amount <= kEps) return 0.0;
  const double now = engine_.now();

  // Pass 1: select the blocks this read touches — inactive list before
  // active list (Figure 3), splitting the final block when the read does
  // not cover it entirely.
  struct Touched {
    LruList* list;
    LruList::iterator it;
  };
  std::vector<Touched> touched;
  double remaining = amount;
  for (LruList* list : {&inactive_, &active_}) {
    for (auto it = list->first_of(file); it != list->end() && remaining > kEps;
         it = list->next_of(it)) {
      if (it->size > remaining + kEps) {
        auto [head, tail] = list->split(it, remaining, next_block_id());
        (void)tail;
        it = head;
      }
      remaining -= it->size;
      touched.push_back({list, it});
    }
    if (remaining <= kEps) break;
  }

  // Pass 2: migrate to the active list.  Clean blocks are merged into one
  // block stamped with the access time; dirty blocks move individually so
  // their entry time (expiration clock) is preserved.
  double merged_clean = 0.0;
  for (Touched& t : touched) {
    if (t.it->dirty || !params_.merge_on_access) {
      // Dirty blocks always move individually; with the A3 ablation clean
      // blocks do too.
      DataBlock b = t.list->extract(t.it);
      b.last_access = now;
      active_.insert(std::move(b));
    } else {
      merged_clean += t.it->size;
      t.list->erase(t.it);
    }
  }
  if (merged_clean > kEps) {
    DataBlock merged;
    merged.id = next_block_id();
    merged.file = file;
    merged.size = merged_clean;
    merged.entry_time = now;
    merged.last_access = now;
    merged.dirty = false;
    active_.insert(std::move(merged));
  }
  balance_lists();
  PCS_CHECK_INVARIANTS(check_invariants());
  const double served = amount - std::max(0.0, remaining);
  hit_bytes_ += served;
  return served;
}

sim::Task<double> MemoryManager::read_from_cache(std::string file, double amount) {
  const double served = touch_cached(file, amount);
  if (served > kEps) {
    co_await engine_.submit("cache-read:" + file, sim::one(mem_read_), served);
  }
  co_return served;
}

double MemoryManager::add_to_cache(const std::string& file, double amount, bool dirty) {
  if (amount <= kEps) return 0.0;
  if (free_mem() < amount - kEps) {
    // Direct reclaim: another actor consumed the headroom the caller made
    // between its evict() and this insertion.
    evict(amount - free_mem());
  }
  amount = std::min(amount, std::max(0.0, free_mem()));
  if (amount <= kEps) return 0.0;
  DataBlock block;
  block.id = next_block_id();
  block.file = file;
  block.size = amount;
  block.entry_time = engine_.now();
  block.last_access = engine_.now();
  block.dirty = dirty;
  inactive_.insert(std::move(block));
  if (!dirty) miss_bytes_ += amount;  // clean fill: bytes that came off the device
  PCS_CHECK_INVARIANTS(check_invariants());
  return amount;
}

sim::Task<> MemoryManager::write_to_cache(std::string file, double amount) {
  if (amount <= kEps) co_return;
  if (free_mem() < amount - kEps) {
    throw CacheError("write_to_cache: caller must ensure free memory first (asked " +
                     std::to_string(amount) + ", free " + std::to_string(free_mem()) + ")");
  }
  // Account first (atomic in virtual time), then charge the memory-write
  // transfer so concurrent writers cannot claim the same free bytes.
  DataBlock block;
  block.id = next_block_id();
  block.file = file;
  block.size = amount;
  block.entry_time = engine_.now();
  block.last_access = engine_.now();
  block.dirty = true;
  inactive_.insert(std::move(block));
  co_await engine_.submit("cache-write:" + file, sim::one(mem_write_), amount);
}

void MemoryManager::allocate_anonymous(double amount) {
  if (amount <= 0.0) return;
  if (free_mem() < amount - kEps) {
    evict(amount - free_mem());  // direct reclaim
  }
  if (free_mem() < amount - kEps) {
    throw CacheError("allocate_anonymous: out of memory (asked " + std::to_string(amount) +
                     ", free " + std::to_string(free_mem()) +
                     "); the model assumes working sets fit in memory");
  }
  anonymous_ += amount;
}

void MemoryManager::release_anonymous(double amount) {
  if (amount <= 0.0) return;
  anonymous_ = std::max(0.0, anonymous_ - amount);
}

void MemoryManager::start_periodic_flush(const std::string& actor_name) {
  engine_.spawn(actor_name, periodic_flush_loop(), /*daemon=*/true);
}

sim::Task<> MemoryManager::periodic_flush_loop() {
  // Algorithm 1: an infinite loop that flushes expired dirty blocks, then
  // sleeps whatever remains of the flush period.  With the
  // dirty_background_ratio extension enabled, the loop additionally writes
  // back down to the background threshold (kernel behaviour the paper's
  // model omits).
  while (!stop_flush_) {
    const double start = engine_.now();
    co_await flush_expired_blocks();
    if (params_.dirty_background_ratio > 0.0) {
      const double bg_limit = params_.dirty_background_ratio * total_mem_;
      if (dirty() > bg_limit) co_await flush(dirty() - bg_limit);
    }
    const double flushing_time = engine_.now() - start;
    if (flushing_time < params_.flush_period) {
      co_await engine_.sleep(params_.flush_period - flushing_time);
    }
  }
}

void MemoryManager::drop_file(const std::string& file) {
  for (LruList* list : {&inactive_, &active_}) {
    for (auto it = list->first_of(file); it != list->end();) {
      auto victim = it;
      it = list->next_of(it);
      list->erase(victim);
    }
  }
  PCS_CHECK_INVARIANTS(check_invariants());
}

void MemoryManager::drop_cache() {
  for (LruList* list : {&inactive_, &active_}) {
    while (!list->empty()) list->erase(list->begin());
  }
  anonymous_ = 0.0;
  PCS_CHECK_INVARIANTS(check_invariants());
}

void MemoryManager::balance_lists() {
  if (params_.lru_policy == LruPolicy::SingleList) return;
  const double ratio = params_.max_active_ratio;
  const double cached_total = inactive_.total() + active_.total();
  // Target: active <= ratio * inactive  =>  active target is at most
  // ratio/(1+ratio) of the cached total; move the excess, splitting the
  // last block to move exactly that much.
  double excess = active_.total() - cached_total * ratio / (1.0 + ratio);
  while (excess > kEps && !active_.empty()) {
    auto it = active_.begin();  // least recently used block of the active list
    if (it->size > excess + kEps) {
      auto [head, tail] = active_.split(it, excess, next_block_id());
      (void)tail;
      it = head;
    }
    DataBlock b = active_.extract(it);
    excess -= b.size;
    inactive_.insert(std::move(b));  // keeps last-access ordering
  }
}

CacheSnapshot MemoryManager::snapshot() const {
  CacheSnapshot s;
  s.time = engine_.now();
  s.total = total_mem_;
  s.cached = cached();
  s.dirty = dirty();
  s.anonymous = anonymous_;
  s.free = free_mem();
  s.inactive = inactive_.total();
  s.active = active_.total();
  for (const auto& [file, bytes] : inactive_.per_file()) s.per_file[file] += bytes;
  for (const auto& [file, bytes] : active_.per_file()) s.per_file[file] += bytes;
  return s;
}

void MemoryManager::check_invariants() const {
  inactive_.check_invariants();
  active_.check_invariants();
  if (free_mem() < -kEps) throw CacheError("MemoryManager: negative free memory");
  if (anonymous_ < -kEps) throw CacheError("MemoryManager: negative anonymous memory");
  if (params_.lru_policy == LruPolicy::TwoList) {
    const double slack = 1.0;  // one byte of numeric slack
    if (active_.total() > params_.max_active_ratio * inactive_.total() + slack &&
        active_.total() > slack) {
      throw CacheError("MemoryManager: active/inactive balance violated");
    }
  }
}

}  // namespace pcs::cache
