#include "proto/analytic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pcs::proto {

namespace {
constexpr double kEps = 1e-3;
}

AnalyticSim::AnalyticSim(const ProtoConfig& config) : config_(config) {
  if (config.total_mem <= 0.0 || config.mem_read_bw <= 0.0 || config.mem_write_bw <= 0.0 ||
      config.disk_read_bw <= 0.0 || config.disk_write_bw <= 0.0) {
    throw std::invalid_argument("AnalyticSim: all sizes/bandwidths must be positive");
  }
}

void AnalyticSim::stage_file(const std::string& name, double size) {
  if (files_.count(name) != 0) throw std::invalid_argument("stage_file: '" + name + "' exists");
  files_[name] = size;
}

double AnalyticSim::file_size(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) throw std::invalid_argument("no such file '" + name + "'");
  return it->second;
}

void AnalyticSim::advance(double dt) {
  if (dt < 0.0) throw std::invalid_argument("AnalyticSim: negative time step");
  clock_ += dt;
  background_flush();
}

void AnalyticSim::background_flush() {
  // Budget of background writeback since the last catch-up, at disk write
  // bandwidth (the flusher works concurrently with the app; the prototype
  // has no bandwidth sharing so the overlap is free).
  double budget = (clock_ - bg_budget_time_) * config_.disk_write_bw;
  bg_budget_time_ = clock_;
  if (budget <= kEps) return;
  for (cache::LruList* list : {&inactive_, &active_}) {
    auto it = list->lru_dirty();
    while (it != list->end() && budget > kEps) {
      if (clock_ - it->entry_time <= config_.cache.dirty_expire) {
        it = list->next_dirty(it);
        continue;
      }
      if (it->size > budget + kEps) {
        auto [head, tail] = list->split(it, budget, next_id());
        (void)tail;
        it = head;
      }
      budget -= it->size;
      // Read the link before cleaning moves the block to the clean chain;
      // after a split it is the still-dirty remainder.
      const auto next = list->next_dirty(it);
      list->set_dirty(it, false);
      it = next;
    }
  }
}

void AnalyticSim::flush_sync(double amount, const std::string& exclude) {
  if (amount <= kEps) return;
  double flushed = 0.0;
  while (flushed < amount - kEps) {
    cache::LruList* list = &inactive_;
    auto it = inactive_.lru_dirty(exclude);
    if (it == inactive_.end()) {
      list = &active_;
      it = active_.lru_dirty(exclude);
      if (it == active_.end()) break;
    }
    double need = amount - flushed;
    if (it->size > need + kEps) {
      auto [head, tail] = list->split(it, need, next_id());
      (void)tail;
      it = head;
    }
    list->set_dirty(it, false);
    flushed += it->size;
  }
  advance(flushed / config_.disk_write_bw);
}

void AnalyticSim::evict(double amount, const std::string& exclude) {
  if (amount <= kEps) return;
  double evicted = 0.0;
  while (evicted < amount - kEps) {
    auto it = inactive_.lru_clean(exclude);
    if (it == inactive_.end()) {
      // Reclaim-pressure deactivation, mirroring MemoryManager::evict: when
      // the inactive list holds nothing evictable, pull the LRU clean block
      // out of the active list.
      balance_lists();
      it = inactive_.lru_clean(exclude);
      if (it == inactive_.end()) {
        auto active_it = active_.lru_clean(exclude);
        if (active_it == active_.end()) break;
        cache::DataBlock demoted = active_.extract(active_it);
        it = inactive_.insert(std::move(demoted));
      }
    }
    double need = amount - evicted;
    if (it->size > need + kEps) {
      auto [victim, keep] = inactive_.split(it, need, next_id());
      (void)keep;
      evicted += victim->size;
      inactive_.erase(victim);
    } else {
      evicted += it->size;
      inactive_.erase(it);
    }
  }
  balance_lists();
}

void AnalyticSim::balance_lists() {
  if (config_.cache.lru_policy == cache::LruPolicy::SingleList) return;
  const double ratio = config_.cache.max_active_ratio;
  const double cached_total = inactive_.total() + active_.total();
  double excess = active_.total() - cached_total * ratio / (1.0 + ratio);
  while (excess > kEps && !active_.empty()) {
    auto it = active_.begin();
    if (it->size > excess + kEps) {
      auto [head, tail] = active_.split(it, excess, next_id());
      (void)tail;
      it = head;
    }
    cache::DataBlock b = active_.extract(it);
    excess -= b.size;
    inactive_.insert(std::move(b));
  }
}

double AnalyticSim::touch_cached(const std::string& file, double amount) {
  if (amount <= kEps) return 0.0;
  struct Touched {
    cache::LruList* list;
    cache::LruList::iterator it;
  };
  std::vector<Touched> touched;
  double remaining = amount;
  for (cache::LruList* list : {&inactive_, &active_}) {
    for (auto it = list->first_of(file); it != list->end() && remaining > kEps;
         it = list->next_of(it)) {
      if (it->size > remaining + kEps) {
        auto [head, tail] = list->split(it, remaining, next_id());
        (void)tail;
        it = head;
      }
      remaining -= it->size;
      touched.push_back({list, it});
    }
    if (remaining <= kEps) break;
  }
  double merged_clean = 0.0;
  for (Touched& t : touched) {
    if (t.it->dirty || !config_.cache.merge_on_access) {
      cache::DataBlock b = t.list->extract(t.it);
      b.last_access = clock_;
      active_.insert(std::move(b));
    } else {
      merged_clean += t.it->size;
      t.list->erase(t.it);
    }
  }
  if (merged_clean > kEps) {
    cache::DataBlock merged;
    merged.id = next_id();
    merged.file = file;
    merged.size = merged_clean;
    merged.entry_time = clock_;
    merged.last_access = clock_;
    merged.dirty = false;
    active_.insert(std::move(merged));
  }
  balance_lists();
  return amount - std::max(0.0, remaining);
}

void AnalyticSim::add_to_cache(const std::string& file, double amount) {
  // Best-effort insert, mirroring MemoryManager::add_to_cache: reclaim what
  // is needed, cache only what fits.
  if (amount <= kEps) return;
  if (free_mem() < amount - kEps) evict(amount - free_mem());
  amount = std::min(amount, std::max(0.0, free_mem()));
  if (amount <= kEps) return;
  cache::DataBlock block;
  block.id = next_id();
  block.file = file;
  block.size = amount;
  block.entry_time = clock_;
  block.last_access = clock_;
  block.dirty = false;
  inactive_.insert(std::move(block));
}

void AnalyticSim::read_chunk(const std::string& file, double fs, double cs) {
  // Algorithm 2 with the basic storage model.
  double disk_read = std::min(cs, std::max(0.0, fs - cached(file)));
  double cache_read = cs - disk_read;
  double required = cs + disk_read;
  flush_sync(required - free_mem() - evictable(file), file);
  evict(required - free_mem(), file);
  if (disk_read > kEps) {
    advance(disk_read / config_.disk_read_bw);
    add_to_cache(file, disk_read);
  }
  if (cache_read > kEps) {
    double served = touch_cached(file, cache_read);
    advance(served / config_.mem_read_bw);
    double shortfall = cache_read - served;
    if (shortfall > kEps) {
      advance(shortfall / config_.disk_read_bw);
      add_to_cache(file, shortfall);
    }
  }
  // Direct reclaim for the application's copy, then account it.  Excluding
  // the file being read keeps the round-robin bookkeeping intact (evicting
  // it here would force later chunks back to disk).
  if (free_mem() < cs - kEps) {
    flush_sync(cs - free_mem() - evictable(file), file);
    evict(cs - free_mem(), file);
  }
  if (free_mem() < cs - kEps) {
    throw std::runtime_error("AnalyticSim: anonymous memory overcommit reading '" + file + "'");
  }
  anon_ += cs;
}

void AnalyticSim::read_file(const std::string& name, double chunk_size) {
  const double size = file_size(name);
  if (chunk_size <= 0.0) chunk_size = size;
  double remaining = size;
  while (remaining > kEps) {
    double cs = std::min(chunk_size, remaining);
    read_chunk(name, size, cs);
    remaining -= cs;
    record();
  }
}

void AnalyticSim::write_chunk(const std::string& file, double cs) {
  // Algorithm 3 with the basic storage model.
  double mem_amt = 0.0;
  double remain_dirty = dirty_limit() - dirty();
  if (remain_dirty > 0.0) {
    evict(std::min(cs, remain_dirty) - free_mem());
    mem_amt = std::min(cs, free_mem());
    if (mem_amt > kEps) {
      cache::DataBlock block;
      block.id = next_id();
      block.file = file;
      block.size = mem_amt;
      block.entry_time = clock_;
      block.last_access = clock_;
      block.dirty = true;
      inactive_.insert(std::move(block));
      advance(mem_amt / config_.mem_write_bw);
    } else {
      mem_amt = 0.0;
    }
  }
  double remaining = cs - mem_amt;
  while (remaining > kEps) {
    flush_sync(cs - mem_amt);
    evict(cs - mem_amt - free_mem());
    double to_cache = std::min(remaining, free_mem());
    if (to_cache <= kEps) {
      throw std::runtime_error("AnalyticSim: writer stalled, memory exhausted");
    }
    cache::DataBlock block;
    block.id = next_id();
    block.file = file;
    block.size = to_cache;
    block.entry_time = clock_;
    block.last_access = clock_;
    block.dirty = true;
    inactive_.insert(std::move(block));
    advance(to_cache / config_.mem_write_bw);
    remaining -= to_cache;
  }
}

void AnalyticSim::write_file(const std::string& name, double size, double chunk_size) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    files_[name] = size;
  } else {
    it->second = std::max(it->second, size);
  }
  if (chunk_size <= 0.0) chunk_size = size;
  double remaining = size;
  while (remaining > kEps) {
    double cs = std::min(chunk_size, remaining);
    write_chunk(name, cs);
    remaining -= cs;
    record();
  }
}

void AnalyticSim::compute(double seconds) {
  if (seconds < 0.0) throw std::invalid_argument("compute: negative duration");
  // Sample a few points across long computations so profiles show the
  // background flusher draining dirty data during compute phases.
  constexpr int kSamples = 8;
  for (int i = 0; i < kSamples; ++i) {
    advance(seconds / kSamples);
    record();
  }
}

void AnalyticSim::release_anonymous(double bytes) {
  anon_ = std::max(0.0, anon_ - bytes);
  record();
}

cache::CacheSnapshot AnalyticSim::snapshot() const {
  cache::CacheSnapshot s;
  s.time = clock_;
  s.total = config_.total_mem;
  s.cached = cached();
  s.dirty = dirty();
  s.anonymous = anon_;
  s.free = free_mem();
  s.inactive = inactive_.total();
  s.active = active_.total();
  for (const auto& [file, bytes] : inactive_.per_file()) s.per_file[file] += bytes;
  for (const auto& [file, bytes] : active_.per_file()) s.per_file[file] += bytes;
  return s;
}

}  // namespace pcs::proto
