#include "pagecache/lru_list.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace pcs::cache {

namespace {
// Byte accounting tolerance: amounts are doubles and accumulate rounding
// noise over many split/merge cycles; anything under a milli-byte is zero.
constexpr double kEps = 1e-3;
// Spacing between order keys after a renumber/append, leaving room for ~50
// fractional insertions between any adjacent pair before renumbering.
constexpr double kKeyGap = 1.0;
}  // namespace

std::uint32_t LruList::alloc_node(DataBlock block) {
  std::uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = slab_[idx].next;
    // Reuse keeps the slot's string capacity: steady-state churn allocates
    // nothing per block.
    static_cast<DataBlock&>(slab_[idx]) = std::move(block);
  } else {
    idx = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back(Node(std::move(block)));
  }
  Node& n = slab_[idx];
  n.order_key = 0.0;
  n.prev = n.next = kNil;
  n.cat_prev = n.cat_next = kNil;
  n.file_prev = n.file_next = kNil;
  return idx;
}

void LruList::release_node(std::uint32_t idx) {
  slab_[idx].next = free_head_;
  free_head_ = idx;
}

void LruList::main_link_before(std::uint32_t idx, std::uint32_t pos) {
  Node& n = slab_[idx];
  const std::uint32_t before = pos == kNil ? tail_ : slab_[pos].prev;
  n.prev = before;
  n.next = pos;
  if (before == kNil) {
    head_ = idx;
  } else {
    slab_[before].next = idx;
  }
  if (pos == kNil) {
    tail_ = idx;
  } else {
    slab_[pos].prev = idx;
  }
  ++count_;
}

void LruList::main_unlink(std::uint32_t idx) {
  Node& n = slab_[idx];
  if (n.prev == kNil) {
    head_ = n.next;
  } else {
    slab_[n.prev].next = n.next;
  }
  if (n.next == kNil) {
    tail_ = n.prev;
  } else {
    slab_[n.next].prev = n.prev;
  }
  n.prev = n.next = kNil;
  --count_;
}

std::uint32_t LruList::find_insert_pos(double access) const {
  // First node strictly newer than `access` (FIFO among equal times).
  // Last-access times are non-decreasing along the chain, so walking
  // backward from the tail and forward from the head in lockstep finds the
  // position in O(min(distance from either end)) — O(1) for the dominant
  // append-at-tail case and for head-side demotions alike.
  std::uint32_t b = tail_;
  std::uint32_t f = head_;
  while (true) {
    if (b == kNil || slab_[b].last_access <= access) {
      return b == kNil ? head_ : slab_[b].next;
    }
    if (f == kNil || slab_[f].last_access > access) return f;
    b = slab_[b].prev;
    f = slab_[f].next;
  }
}

template <std::uint32_t LruList::Node::*Prev, std::uint32_t LruList::Node::*Next,
          typename Member>
void LruList::chain_link(std::uint32_t& chain_head, std::uint32_t& chain_tail,
                         std::uint32_t idx, Member member) {
  // The chain is in list order, so the node goes right after the nearest
  // earlier chain member.  Four walks in lockstep, and the first to hit
  // fixes the position: the main list backward and forward from the node
  // (membership), and the chain from its tail and head (order keys).
  const double key = slab_[idx].order_key;
  std::uint32_t back = slab_[idx].prev;
  std::uint32_t fwd = slab_[idx].next;
  std::uint32_t b = chain_tail;
  std::uint32_t f = chain_head;
  std::uint32_t before;  // chain member to link after (kNil = new head)
  while (true) {
    if (back == kNil || member(back)) {
      before = back;
      break;
    }
    if (fwd == kNil || member(fwd)) {
      before = fwd == kNil ? chain_tail : slab_[fwd].*Prev;
      break;
    }
    if (b == kNil || slab_[b].order_key < key) {
      before = b;
      break;
    }
    if (f == kNil || slab_[f].order_key > key) {
      before = f == kNil ? chain_tail : slab_[f].*Prev;
      break;
    }
    back = slab_[back].prev;
    fwd = slab_[fwd].next;
    b = slab_[b].*Prev;
    f = slab_[f].*Next;
  }
  Node& n = slab_[idx];
  const std::uint32_t after = before == kNil ? chain_head : slab_[before].*Next;
  n.*Prev = before;
  n.*Next = after;
  if (before == kNil) {
    chain_head = idx;
  } else {
    slab_[before].*Next = idx;
  }
  if (after == kNil) {
    chain_tail = idx;
  } else {
    slab_[after].*Prev = idx;
  }
}

template <std::uint32_t LruList::Node::*Prev, std::uint32_t LruList::Node::*Next>
void LruList::chain_remove(std::uint32_t& chain_head, std::uint32_t& chain_tail,
                           std::uint32_t idx) {
  Node& n = slab_[idx];
  if (n.*Prev == kNil) {
    chain_head = n.*Next;
  } else {
    slab_[n.*Prev].*Next = n.*Next;
  }
  if (n.*Next == kNil) {
    chain_tail = n.*Prev;
  } else {
    slab_[n.*Next].*Prev = n.*Prev;
  }
  n.*Prev = n.*Next = kNil;
}

void LruList::category_link(std::uint32_t idx) {
  const bool dirty = slab_[idx].dirty;
  chain_link<&Node::cat_prev, &Node::cat_next>(
      dirty ? dirty_head_ : clean_head_, dirty ? dirty_tail_ : clean_tail_, idx,
      [this, dirty](std::uint32_t j) { return slab_[j].dirty == dirty; });
}

void LruList::index_add(std::uint32_t idx) {
  const Node& n = slab_[idx];
  total_ += n.size;
  FileAccount& acct = files_[n.file];
  acct.bytes += n.size;
  if (n.dirty) {
    dirty_ += n.size;
    acct.dirty_bytes += n.size;
  }
  by_id_[n.id] = idx;
  category_link(idx);
  chain_link<&Node::file_prev, &Node::file_next>(
      acct.head, acct.tail, idx, [this, &n](std::uint32_t j) { return slab_[j].file == n.file; });
  ++acct.count;
}

void LruList::index_remove(std::uint32_t idx) {
  const Node& n = slab_[idx];
  total_ -= n.size;
  if (n.dirty) dirty_ -= n.size;
  if (total_ < kEps) total_ = 0.0;
  if (dirty_ < kEps) dirty_ = 0.0;
  auto id_it = by_id_.find(n.id);
  if (id_it != by_id_.end() && id_it->second == idx) by_id_.erase(id_it);
  if (n.dirty) {
    chain_remove<&Node::cat_prev, &Node::cat_next>(dirty_head_, dirty_tail_, idx);
  } else {
    chain_remove<&Node::cat_prev, &Node::cat_next>(clean_head_, clean_tail_, idx);
  }
  auto file_it = files_.find(n.file);  // every listed block has an account
  FileAccount& acct = file_it->second;
  acct.bytes -= n.size;
  if (n.dirty) acct.dirty_bytes -= n.size;
  if (acct.dirty_bytes < kEps) acct.dirty_bytes = 0.0;
  chain_remove<&Node::file_prev, &Node::file_next>(acct.head, acct.tail, idx);
  --acct.count;
  if (acct.count == 0 && acct.bytes <= kEps) files_.erase(file_it);
}

void LruList::assign_order_key(std::uint32_t idx) {
  Node& n = slab_[idx];
  const bool has_prev = n.prev != kNil;
  const bool has_next = n.next != kNil;
  const double prev_key = has_prev ? slab_[n.prev].order_key : 0.0;
  const double next_key = has_next ? slab_[n.next].order_key : 0.0;
  if (!has_prev && !has_next) {
    n.order_key = 0.0;
    return;
  }
  if (!has_next) {
    n.order_key = prev_key + kKeyGap;
    return;
  }
  if (!has_prev) {
    n.order_key = next_key - kKeyGap;
    return;
  }
  const double mid = prev_key + (next_key - prev_key) / 2.0;
  if (mid > prev_key && mid < next_key) {
    n.order_key = mid;
    return;
  }
  // Fractional precision exhausted between these neighbours: renumber the
  // whole list (relative order of every node is unchanged, so the chains
  // remain valid) and land exactly between the fresh keys.
  renumber_keys();
  n.order_key = slab_[n.prev].order_key + kKeyGap / 2.0;
}

void LruList::renumber_keys() {
  double key = 0.0;
  for (std::uint32_t i = head_; i != kNil; i = slab_[i].next) {
    slab_[i].order_key = key;
    key += kKeyGap;
  }
}

std::uint32_t LruList::emplace_node(std::uint32_t pos, DataBlock block) {
  const std::uint32_t idx = alloc_node(std::move(block));
  main_link_before(idx, pos);
  assign_order_key(idx);
  index_add(idx);
  return idx;
}

LruList::iterator LruList::insert(DataBlock block) {
  const std::uint32_t pos = find_insert_pos(block.last_access);
  return {this, emplace_node(pos, std::move(block))};
}

DataBlock LruList::extract(iterator it) {
  const std::uint32_t idx = it.idx_;
  index_remove(idx);
  main_unlink(idx);
  DataBlock block = std::move(static_cast<DataBlock&>(slab_[idx]));
  release_node(idx);
  return block;
}

void LruList::erase(iterator it) {
  const std::uint32_t idx = it.idx_;
  index_remove(idx);
  main_unlink(idx);
  release_node(idx);
}

void LruList::touch(iterator it, double now) {
  Node& n = *it;
  if (now == n.last_access) return;  // stable-position fast path: no-op
  const bool prev_ok = n.prev == kNil || slab_[n.prev].last_access <= now;
  const bool next_ok = n.next == kNil || slab_[n.next].last_access > now;
  if (prev_ok && next_ok) {
    // Position stays valid: update in place.  The chains order by
    // order_key, which is untouched, and access-time probes stay monotone.
    n.last_access = now;
    return;
  }
  DataBlock block = extract(it);
  block.last_access = now;
  insert(std::move(block));
}

std::pair<LruList::iterator, LruList::iterator> LruList::split(iterator it, double first_size,
                                                               std::uint64_t second_id) {
  const std::uint32_t idx = it.idx_;
  if (!(first_size > 0.0) || !(first_size < slab_[idx].size)) {
    throw std::invalid_argument("LruList::split: first_size out of (0, size)");
  }
  DataBlock second = slab_[idx];
  second.id = second_id;
  second.size = slab_[idx].size - first_size;
  // In-place shrink of the first part keeps accounting exact.
  resize(it, first_size);
  const std::uint32_t second_idx = emplace_node(slab_[idx].next, std::move(second));
  return {iterator{this, idx}, iterator{this, second_idx}};
}

void LruList::set_dirty(iterator it, bool dirty) {
  if (it->dirty == dirty) return;
  const std::uint32_t idx = it.idx_;
  Node& n = slab_[idx];
  FileAccount& acct = files_[n.file];
  if (n.dirty) {
    dirty_ -= n.size;
    acct.dirty_bytes -= n.size;
    if (dirty_ < kEps) dirty_ = 0.0;
    if (acct.dirty_bytes < kEps) acct.dirty_bytes = 0.0;
    chain_remove<&Node::cat_prev, &Node::cat_next>(dirty_head_, dirty_tail_, idx);
  } else {
    dirty_ += n.size;
    acct.dirty_bytes += n.size;
    chain_remove<&Node::cat_prev, &Node::cat_next>(clean_head_, clean_tail_, idx);
  }
  n.dirty = dirty;
  category_link(idx);
}

void LruList::resize(iterator it, double new_size) {
  Node& n = *it;
  double delta = new_size - n.size;
  total_ += delta;
  FileAccount& acct = files_[n.file];
  acct.bytes += delta;
  if (n.dirty) {
    dirty_ += delta;
    acct.dirty_bytes += delta;
    if (acct.dirty_bytes < kEps) acct.dirty_bytes = 0.0;
  }
  n.size = new_size;
  if (total_ < kEps) total_ = 0.0;
  if (dirty_ < kEps) dirty_ = 0.0;
}

double LruList::file_bytes(const std::string& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? 0.0 : it->second.bytes;
}

std::map<std::string, double> LruList::per_file() const {
  std::map<std::string, double> out;
  for (const auto& [file, acct] : files_) {
    if (acct.bytes > 0.0) out[file] = acct.bytes;
  }
  return out;
}

double LruList::clean_excluding(const std::string& exclude_file) const {
  double clean = clean_total();
  if (exclude_file.empty()) return clean;
  auto it = files_.find(exclude_file);
  if (it == files_.end()) return clean;
  return clean - (it->second.bytes - it->second.dirty_bytes);
}

LruList::iterator LruList::lru_dirty(const std::string& exclude_file) {
  for (std::uint32_t i = dirty_head_; i != kNil; i = slab_[i].cat_next) {
    if (exclude_file.empty() || slab_[i].file != exclude_file) return {this, i};
  }
  return end();
}

LruList::iterator LruList::lru_clean(const std::string& exclude_file) {
  for (std::uint32_t i = clean_head_; i != kNil; i = slab_[i].cat_next) {
    if (exclude_file.empty() || slab_[i].file != exclude_file) return {this, i};
  }
  return end();
}

LruList::iterator LruList::lru_dirty_of(const std::string& file) {
  auto it = first_of(file);
  while (it != end() && !it->dirty) it = next_of(it);
  return it;
}

LruList::iterator LruList::find(std::uint64_t id) {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? end() : iterator{this, it->second};
}

void LruList::check_invariants() const {
  double total = 0.0;
  double dirty = 0.0;
  std::map<std::string, double> per_file_bytes;
  std::map<std::string, double> per_file_dirty;
  std::map<std::string, std::size_t> per_file_count;
  std::size_t dirty_count = 0;
  std::size_t walked = 0;
  std::unordered_set<std::uint32_t> live;
  double prev_access = -std::numeric_limits<double>::infinity();
  double prev_key = -std::numeric_limits<double>::infinity();
  std::uint32_t expect_prev = kNil;
  for (std::uint32_t i = head_; i != kNil; i = slab_[i].next) {
    const Node& b = slab_[i];
    if (b.prev != expect_prev) throw std::logic_error("LruList: main-chain prev link drift");
    expect_prev = i;
    if (!live.insert(i).second) throw std::logic_error("LruList: main-chain cycle");
    if (++walked > count_) throw std::logic_error("LruList: main chain longer than count");
    if (b.size <= 0.0) throw std::logic_error("LruList: non-positive block size");
    if (b.last_access < prev_access - 1e-12) {
      throw std::logic_error("LruList: blocks not ordered by last access");
    }
    if (b.order_key <= prev_key) {
      throw std::logic_error("LruList: order keys not strictly increasing");
    }
    prev_access = b.last_access;
    prev_key = b.order_key;
    total += b.size;
    if (b.dirty) {
      dirty += b.size;
      per_file_dirty[b.file] += b.size;
      ++dirty_count;
    }
    per_file_bytes[b.file] += b.size;
    per_file_count[b.file] += 1;

    auto id_it = by_id_.find(b.id);
    if (id_it == by_id_.end() || id_it->second != i) {
      throw std::logic_error("LruList: id index drift");
    }
  }
  if (walked != count_ || tail_ != expect_prev) {
    throw std::logic_error("LruList: main-chain length/tail drift");
  }
  if (by_id_.size() != count_) throw std::logic_error("LruList: id index cardinality drift");

  // Dirty, clean and per-file chains: every member live and on the right
  // chain, ascending keys, consistent back links and tail, and cardinality
  // matching the main-chain census (=> exact membership).
  auto walk_chain = [&](std::uint32_t chain_head, std::uint32_t chain_tail,
                        std::uint32_t Node::*prev_link, std::uint32_t Node::*next_link,
                        auto belongs) {
    std::size_t n = 0;
    double key = -std::numeric_limits<double>::infinity();
    std::uint32_t last = kNil;
    std::unordered_set<std::uint32_t> seen;
    for (std::uint32_t i = chain_head; i != kNil; i = slab_[i].*next_link) {
      if (!live.count(i)) throw std::logic_error("LruList: chain references dead slot");
      if (!seen.insert(i).second) throw std::logic_error("LruList: chain cycle");
      const Node& b = slab_[i];
      if (b.*prev_link != last) throw std::logic_error("LruList: chain prev link drift");
      if (!belongs(b)) throw std::logic_error("LruList: chain membership drift");
      if (b.order_key <= key) throw std::logic_error("LruList: chain not in list order");
      key = b.order_key;
      last = i;
      ++n;
    }
    if (last != chain_tail) throw std::logic_error("LruList: chain tail drift");
    return n;
  };
  auto is_dirty = [](const Node& b) { return b.dirty; };
  auto is_clean = [](const Node& b) { return !b.dirty; };
  if (walk_chain(dirty_head_, dirty_tail_, &Node::cat_prev, &Node::cat_next, is_dirty) !=
      dirty_count) {
    throw std::logic_error("LruList: dirty chain cardinality drift");
  }
  if (walk_chain(clean_head_, clean_tail_, &Node::cat_prev, &Node::cat_next, is_clean) !=
      count_ - dirty_count) {
    throw std::logic_error("LruList: clean chain cardinality drift");
  }
  for (const auto& [file, acct] : files_) {
    std::size_t expect = 0;
    auto cnt_it = per_file_count.find(file);
    if (cnt_it != per_file_count.end()) expect = cnt_it->second;
    auto of_file = [&file](const Node& b) { return b.file == file; };
    if (acct.count != expect ||
        walk_chain(acct.head, acct.tail, &Node::file_prev, &Node::file_next, of_file) !=
            expect) {
      throw std::logic_error("LruList: per-file chain drift for " + file);
    }
  }
  for (const auto& [file, n] : per_file_count) {
    if (!files_.count(file)) throw std::logic_error("LruList: no account for listed file " + file);
  }

  // Freelist: disjoint from the live set, and together they cover the slab.
  std::size_t free_count = 0;
  for (std::uint32_t i = free_head_; i != kNil; i = slab_[i].next) {
    if (live.count(i)) throw std::logic_error("LruList: freelist references live slot");
    if (++free_count > slab_.size()) throw std::logic_error("LruList: freelist cycle");
  }
  if (free_count + count_ != slab_.size()) {
    throw std::logic_error("LruList: slab slot census drift");
  }

  auto close = [](double a, double b) { return std::fabs(a - b) <= 1e-3 + 1e-9 * std::fabs(a); };
  if (!close(total, total_)) {
    std::ostringstream oss;
    oss << "LruList: total account drift (" << total_ << " vs " << total << ")";
    throw std::logic_error(oss.str());
  }
  if (!close(dirty, dirty_)) throw std::logic_error("LruList: dirty account drift");
  for (const auto& [file, bytes] : per_file_bytes) {
    if (!close(bytes, file_bytes(file))) {
      throw std::logic_error("LruList: per-file account drift for " + file);
    }
  }
  for (const auto& [file, acct] : files_) {
    double expect_dirty = 0.0;
    auto dirty_it = per_file_dirty.find(file);
    if (dirty_it != per_file_dirty.end()) expect_dirty = dirty_it->second;
    if (!close(expect_dirty, acct.dirty_bytes)) {
      throw std::logic_error("LruList: per-file dirty account drift for " + file);
    }
  }
}

}  // namespace pcs::cache
