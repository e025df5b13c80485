// A page-cache LRU list of data blocks, ordered by last access time
// (earliest — least recently used — first), with O(1) byte accounting and
// indexed lookups.
//
// Two instances (inactive + active) form the kernel's two-list strategy in
// the MemoryManager.  Beyond the ordered block list itself, the list
// maintains:
//   * an id -> node hash index, making find() O(1) (the periodic flusher
//     revalidates candidates by id across simulated awaits);
//   * dirty and clean chains in list order, so lru_dirty() and lru_clean()
//     are O(1) head reads (with an exclude_file they skip only that file's
//     blocks), and next_dirty() steps through the dirty blocks alone;
//   * per file, a byte account with a dirty/clean split and a chain over
//     all of the file's blocks in list order — the kernel's per-file page
//     index (address_space).  file_bytes() and clean_excluding() read the
//     account; first_of()/next_of() visit one file's blocks without
//     touching any other, and lru_dirty_of() walks that chain to the
//     file's first dirty block.
//
// Storage is a freelist-backed slab (the atomkv cacher page_pool_ idiom):
// every node lives at a stable uint32 index in one contiguous vector, and
// the main list plus every index "set" is an intrusive doubly-linked chain
// of indices — no per-block heap node, no red-black tree, and erased slots
// recycle without touching the allocator.  Iterators wrap the slot index,
// so they survive slab growth and keep the std::list-era API (bidirectional,
// dereference to a DataBlock-compatible node, end() sentinel).
//
// Every chain lists its members in main-list order, so a node already in
// the main list belongs right after the nearest earlier chain member.
// Chain insertion walks the main list outward from the node and the chain
// inward from both ends (comparing a per-node `order_key`, a double that
// strictly increases along the main list) in lockstep; the first hit fixes
// the position.  The second half of a split, a block the flusher cleans
// (every block before the LRU dirty block is clean) and appends all link in
// O(1).  Keys are assigned fractionally on insertion (midpoint of the
// neighbours); when the midpoint degenerates the whole list is renumbered,
// which preserves the relative order of every node and therefore every
// chain.
#pragma once

#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "pagecache/block.hpp"

namespace pcs::cache {

class LruList {
 public:
  /// Sentinel index: no node (the end() position and null chain links).
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// A stored block: the DataBlock payload plus the intrusive chain links.
  /// Public inheritance keeps the historical element API — iterators
  /// dereference to something usable as a DataBlock.
  struct Node : DataBlock {
    explicit Node(DataBlock b) : DataBlock(std::move(b)) {}
    double order_key = 0.0;  ///< strictly increasing along the list
    std::uint32_t prev = kNil;       ///< main chain (also the freelist link)
    std::uint32_t next = kNil;
    std::uint32_t cat_prev = kNil;   ///< dirty- or clean-chain links
    std::uint32_t cat_next = kNil;
    std::uint32_t file_prev = kNil;  ///< per-file chain links (all blocks)
    std::uint32_t file_next = kNil;
  };

  class const_iterator;

  /// Bidirectional iterator over the main chain, wrapping a slot index.
  /// Stable across slab growth and unrelated insert/erase; invalidated only
  /// by erasing the referenced block (same contract as the std::list era).
  class iterator {
   public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = Node;
    using difference_type = std::ptrdiff_t;
    using pointer = Node*;
    using reference = Node&;

    iterator() = default;
    reference operator*() const { return list_->slab_[idx_]; }
    pointer operator->() const { return &list_->slab_[idx_]; }
    iterator& operator++() {
      idx_ = list_->slab_[idx_].next;
      return *this;
    }
    iterator operator++(int) {
      iterator tmp = *this;
      ++*this;
      return tmp;
    }
    iterator& operator--() {
      idx_ = idx_ == kNil ? list_->tail_ : list_->slab_[idx_].prev;
      return *this;
    }
    iterator operator--(int) {
      iterator tmp = *this;
      --*this;
      return tmp;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.idx_ == b.idx_ && a.list_ == b.list_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) { return !(a == b); }

   private:
    friend class LruList;
    friend class const_iterator;
    iterator(LruList* list, std::uint32_t idx) : list_(list), idx_(idx) {}
    LruList* list_ = nullptr;
    std::uint32_t idx_ = kNil;
  };

  class const_iterator {
   public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = Node;
    using difference_type = std::ptrdiff_t;
    using pointer = const Node*;
    using reference = const Node&;

    const_iterator() = default;
    const_iterator(iterator it) : list_(it.list_), idx_(it.idx_) {}  // NOLINT
    reference operator*() const { return list_->slab_[idx_]; }
    pointer operator->() const { return &list_->slab_[idx_]; }
    const_iterator& operator++() {
      idx_ = list_->slab_[idx_].next;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++*this;
      return tmp;
    }
    const_iterator& operator--() {
      idx_ = idx_ == kNil ? list_->tail_ : list_->slab_[idx_].prev;
      return *this;
    }
    const_iterator operator--(int) {
      const_iterator tmp = *this;
      --*this;
      return tmp;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.idx_ == b.idx_ && a.list_ == b.list_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return !(a == b);
    }

   private:
    friend class LruList;
    const_iterator(const LruList* list, std::uint32_t idx) : list_(list), idx_(idx) {}
    const LruList* list_ = nullptr;
    std::uint32_t idx_ = kNil;
  };

  LruList() = default;
  LruList(const LruList&) = delete;
  LruList& operator=(const LruList&) = delete;

  /// Insert keeping last-access order; among equal access times the new
  /// block goes last (FIFO), so same-instant insertions stay stable.
  iterator insert(DataBlock block);

  /// Remove and return a block.
  DataBlock extract(iterator it);

  /// Remove a block, dropping its bytes from the accounting.
  void erase(iterator it);

  /// Update a block's last access time and restore ordering.  A touch that
  /// does not change the access time, or that leaves the block's position
  /// valid (no follower is older than the new time), updates in place;
  /// otherwise the block is re-inserted and `it` is invalidated.
  void touch(iterator it, double now);

  /// Split the block at `it` into a leading part of `first_size` bytes and
  /// the remainder; both inherit all other attributes and keep the original
  /// position (adjacent).  Returns {first, second}.  first_size must be in
  /// (0, size).  The first part keeps the original id; the second gets
  /// `second_id`.
  std::pair<iterator, iterator> split(iterator it, double first_size, std::uint64_t second_id);

  /// Flip the dirty flag, maintaining the dirty-byte account and chains.
  void set_dirty(iterator it, bool dirty);

  /// Grow/shrink a block in place (used when merging reads).
  void resize(iterator it, double new_size);

  [[nodiscard]] iterator begin() { return {this, head_}; }
  [[nodiscard]] iterator end() { return {this, kNil}; }
  [[nodiscard]] const_iterator begin() const { return {this, head_}; }
  [[nodiscard]] const_iterator end() const { return {this, kNil}; }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t block_count() const { return count_; }
  [[nodiscard]] double total() const { return total_; }
  [[nodiscard]] double dirty_total() const { return dirty_; }
  [[nodiscard]] double clean_total() const { return total_ - dirty_; }
  [[nodiscard]] double file_bytes(const std::string& file) const;
  /// Per-file byte totals (for cache-content probes, Fig 4c), ordered by
  /// file name so serialized output stays deterministic.
  [[nodiscard]] std::map<std::string, double> per_file() const;
  /// Clean bytes excluding one file (eviction candidates wrt. an
  /// exclusion).  O(1): per-file accounting keeps the dirty/clean split.
  [[nodiscard]] double clean_excluding(const std::string& exclude_file) const;

  /// Least recently used dirty block, or end().
  [[nodiscard]] iterator lru_dirty(const std::string& exclude_file = "");
  /// Least recently used clean block, or end().
  [[nodiscard]] iterator lru_clean(const std::string& exclude_file = "");
  /// Least recently used dirty block belonging to `file`, or end() (fsync).
  /// Walks the file's chain past its clean blocks.
  [[nodiscard]] iterator lru_dirty_of(const std::string& file);

  /// Least recently used block of `file`, or end(); next_of() steps through
  /// the rest of the file's blocks in list order.
  [[nodiscard]] iterator first_of(const std::string& file) {
    auto it = files_.find(file);
    return {this, it == files_.end() ? kNil : it->second.head};
  }
  /// The block of the same file after `it` in list order, or end().
  [[nodiscard]] iterator next_of(iterator it) { return {this, slab_[it.idx_].file_next}; }
  /// The dirty block after the dirty block `it` in list order, or end();
  /// starting from lru_dirty(), steps through every dirty block.
  [[nodiscard]] iterator next_dirty(iterator it) { return {this, slab_[it.idx_].cat_next}; }

  /// Find by block id (used by the periodic flusher to revalidate
  /// candidates across simulated awaits); end() if gone.  O(1).
  [[nodiscard]] iterator find(std::uint64_t id);

  /// Bytes reserved by the node slab (capacity, not live size — the slab
  /// never shrinks).  Reported by the alloc/* memory gauges.
  [[nodiscard]] std::size_t bytes_reserved() const {
    return slab_.capacity() * sizeof(Node);
  }
  /// Slots currently on the freelist (recycled, awaiting reuse).
  [[nodiscard]] std::size_t free_slots() const { return slab_.size() - count_; }

  /// Verify ordering, accounting, chain and freelist consistency; throws
  /// std::logic_error on violation.  Called explicitly by tests; internal
  /// hot-path self-checks compile in only with PCS_DEBUG_INVARIANTS.
  void check_invariants() const;

 private:
  /// Erased only once its chain is empty and its bytes are within the
  /// accounting tolerance of zero, so every block in the list has one.
  struct FileAccount {
    double bytes = 0.0;
    double dirty_bytes = 0.0;
    std::uint32_t head = kNil;  ///< every block of the file, list order
    std::uint32_t tail = kNil;
    std::uint32_t count = 0;
  };

  std::vector<Node> slab_;
  std::uint32_t free_head_ = kNil;  ///< freelist through Node::next
  std::uint32_t head_ = kNil;       ///< main chain, LRU first
  std::uint32_t tail_ = kNil;
  std::uint32_t count_ = 0;
  std::uint32_t dirty_head_ = kNil;  ///< all dirty blocks, list order
  std::uint32_t dirty_tail_ = kNil;
  std::uint32_t clean_head_ = kNil;  ///< all clean blocks, list order
  std::uint32_t clean_tail_ = kNil;
  double total_ = 0.0;
  double dirty_ = 0.0;
  std::unordered_map<std::uint64_t, std::uint32_t> by_id_;
  std::unordered_map<std::string, FileAccount> files_;

  /// Claim a slot (freelist first) and move `block` into it.
  std::uint32_t alloc_node(DataBlock block);
  /// Return a fully unlinked slot to the freelist.
  void release_node(std::uint32_t idx);
  /// Link `idx` into the main chain immediately before `pos` (kNil = tail).
  void main_link_before(std::uint32_t idx, std::uint32_t pos);
  void main_unlink(std::uint32_t idx);
  /// First main-chain node strictly newer than `access` (kNil = append);
  /// walks from both ends at once so either-end insertions are O(1).
  [[nodiscard]] std::uint32_t find_insert_pos(double access) const;
  /// Link `idx`, already in the main chain, into a chain kept in list
  /// order (dirty/clean/per-file) using the Prev/Next link members.
  /// `member(j)` tells whether main-chain node j is on that chain.
  template <std::uint32_t Node::*Prev, std::uint32_t Node::*Next, typename Member>
  void chain_link(std::uint32_t& chain_head, std::uint32_t& chain_tail, std::uint32_t idx,
                  Member member);
  template <std::uint32_t Node::*Prev, std::uint32_t Node::*Next>
  void chain_remove(std::uint32_t& chain_head, std::uint32_t& chain_tail, std::uint32_t idx);

  /// Account a main-linked node's bytes and link it into the id index, its
  /// dirty or clean chain and its file's chain (creating the account).
  void index_add(std::uint32_t idx);
  /// The reverse, before main_unlink; erases the file's account once its
  /// chain is empty (see FileAccount).
  void index_remove(std::uint32_t idx);
  /// Link `idx` into the dirty or the clean chain, as its flag says.
  void category_link(std::uint32_t idx);
  /// Place a new node before `pos`, wiring links, order key, chains and
  /// accounting (shared by insert and split).
  std::uint32_t emplace_node(std::uint32_t pos, DataBlock block);
  /// Assign the (already main-linked) node an order key between its
  /// neighbours; renumbers all keys when midpoints degenerate.
  void assign_order_key(std::uint32_t idx);
  void renumber_keys();
};

}  // namespace pcs::cache
