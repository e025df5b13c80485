// Property test: the indexed LruList against a naive reference model.
//
// The reference stores blocks in a plain vector ordered exactly by the
// documented semantics (last-access order, FIFO among equal access times,
// in-place touch when the position stays valid) and recomputes every query
// by brute force.  Randomized operation sequences must keep the real list
// and the reference in lockstep: identical block order (= eviction order),
// identical totals, identical per-file accounting, identical answers from
// every indexed query, and identical blocks in identical order along one
// file's chain (first_of/next_of) and along the dirty chain
// (lru_dirty/next_dirty) — this guards the id index, the dirty/clean
// chains, the per-file block chains, the neighbour-linked chain insertion
// and the order-key machinery.
#include "pagecache/lru_list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace pcs::cache {
namespace {

struct RefBlock {
  std::uint64_t id;
  std::string file;
  double size;
  double last_access;
  bool dirty;
};

/// Brute-force reference implementation of the LruList semantics.
class NaiveLru {
 public:
  void insert(RefBlock b) {
    // Before the first strictly newer block: FIFO among equals.
    auto pos = std::find_if(blocks_.begin(), blocks_.end(),
                            [&](const RefBlock& x) { return x.last_access > b.last_access; });
    blocks_.insert(pos, std::move(b));
  }

  void erase(std::uint64_t id) {
    blocks_.erase(std::find_if(blocks_.begin(), blocks_.end(),
                               [&](const RefBlock& x) { return x.id == id; }));
  }

  RefBlock* find(std::uint64_t id) {
    auto it = std::find_if(blocks_.begin(), blocks_.end(),
                           [&](const RefBlock& x) { return x.id == id; });
    return it == blocks_.end() ? nullptr : &*it;
  }

  void touch(std::uint64_t id, double now) {
    RefBlock* b = find(id);
    if (b->last_access == now) return;  // documented no-op fast path
    RefBlock copy = *b;
    copy.last_access = now;
    erase(id);
    insert(std::move(copy));
  }

  void split(std::uint64_t id, double first_size, std::uint64_t second_id) {
    auto it = std::find_if(blocks_.begin(), blocks_.end(),
                           [&](const RefBlock& x) { return x.id == id; });
    RefBlock second = *it;
    second.id = second_id;
    second.size = it->size - first_size;
    it->size = first_size;
    blocks_.insert(std::next(it), std::move(second));
  }

  void set_dirty(std::uint64_t id, bool dirty) { find(id)->dirty = dirty; }
  void resize(std::uint64_t id, double new_size) { find(id)->size = new_size; }

  [[nodiscard]] double total() const {
    double t = 0.0;
    for (const RefBlock& b : blocks_) t += b.size;
    return t;
  }
  [[nodiscard]] double dirty_total() const {
    double t = 0.0;
    for (const RefBlock& b : blocks_) {
      if (b.dirty) t += b.size;
    }
    return t;
  }
  [[nodiscard]] double file_bytes(const std::string& file) const {
    double t = 0.0;
    for (const RefBlock& b : blocks_) {
      if (b.file == file) t += b.size;
    }
    return t;
  }
  [[nodiscard]] double clean_excluding(const std::string& exclude) const {
    double t = 0.0;
    for (const RefBlock& b : blocks_) {
      if (!b.dirty && b.file != exclude) t += b.size;
    }
    return t;
  }
  [[nodiscard]] const RefBlock* lru_dirty(const std::string& exclude) const {
    for (const RefBlock& b : blocks_) {
      if (b.dirty && (exclude.empty() || b.file != exclude)) return &b;
    }
    return nullptr;
  }
  [[nodiscard]] const RefBlock* lru_clean(const std::string& exclude) const {
    for (const RefBlock& b : blocks_) {
      if (!b.dirty && (exclude.empty() || b.file != exclude)) return &b;
    }
    return nullptr;
  }
  [[nodiscard]] const RefBlock* lru_dirty_of(const std::string& file) const {
    for (const RefBlock& b : blocks_) {
      if (b.dirty && b.file == file) return &b;
    }
    return nullptr;
  }

  [[nodiscard]] const std::vector<RefBlock>& blocks() const { return blocks_; }

 private:
  std::vector<RefBlock> blocks_;
};

class LruProperty : public ::testing::TestWithParam<int> {};

TEST_P(LruProperty, MatchesNaiveReference) {
  util::Rng rng(0xabcdef00u + static_cast<std::uint64_t>(GetParam()));
  LruList list;
  NaiveLru ref;
  const std::vector<std::string> files = {"a", "b", "c", "d", "e", "f"};
  std::uint64_t next_id = 1;
  double now = 0.0;
  const double tol = 1e-6;

  auto random_live_id = [&]() -> std::uint64_t {
    const auto& blocks = ref.blocks();
    return blocks[rng.uniform_int(0, blocks.size() - 1)].id;
  };

  for (int op = 0; op < 2500; ++op) {
    now += rng.uniform(0.0, 2.0);
    const std::uint64_t kind = rng.uniform_int(0, 9);
    if (kind <= 2 || ref.blocks().empty()) {
      // Insert: mostly at the current time, sometimes backdated mid-list,
      // sometimes exactly duplicating an existing access time (FIFO ties).
      RefBlock b;
      b.id = next_id++;
      b.file = files[rng.uniform_int(0, files.size() - 1)];
      b.size = rng.uniform(1.0, 1000.0);
      b.last_access = now;
      if (!ref.blocks().empty() && rng.bernoulli(0.3)) {
        const auto& blocks = ref.blocks();
        b.last_access = rng.bernoulli(0.5)
                            ? blocks[rng.uniform_int(0, blocks.size() - 1)].last_access
                            : rng.uniform(0.0, now);
      }
      b.dirty = rng.bernoulli(0.4);
      DataBlock real;
      real.id = b.id;
      real.file = b.file;
      real.size = b.size;
      real.entry_time = b.last_access;
      real.last_access = b.last_access;
      real.dirty = b.dirty;
      list.insert(std::move(real));
      ref.insert(std::move(b));
    } else if (kind == 3) {
      // Touch to the current time — or re-touch at the unchanged time to
      // exercise the no-op fast path.
      const std::uint64_t id = random_live_id();
      const double t = rng.bernoulli(0.2) ? ref.find(id)->last_access : now;
      list.touch(list.find(id), t);
      ref.touch(id, t);
    } else if (kind == 4) {
      const std::uint64_t id = random_live_id();
      auto it = list.find(id);
      if (it->size > 2.0) {
        const double first = it->size * rng.uniform(0.1, 0.9);
        const std::uint64_t second_id = next_id++;
        list.split(it, first, second_id);
        ref.split(id, first, second_id);
      }
    } else if (kind == 5) {
      const std::uint64_t id = random_live_id();
      const bool dirty = rng.bernoulli(0.5);
      list.set_dirty(list.find(id), dirty);
      ref.set_dirty(id, dirty);
    } else if (kind == 6) {
      const std::uint64_t id = random_live_id();
      const double new_size = rng.uniform(1.0, 1500.0);
      list.resize(list.find(id), new_size);
      ref.resize(id, new_size);
    } else if (kind == 7) {
      // Evict like the MemoryManager does: take the LRU clean block.
      auto it = list.lru_clean("");
      const RefBlock* rb = ref.lru_clean("");
      ASSERT_EQ(it == list.end(), rb == nullptr);
      if (it != list.end()) {
        ASSERT_EQ(it->id, rb->id);
        list.erase(it);
        ref.erase(rb->id);
      }
    } else {
      const std::uint64_t id = random_live_id();
      if (rng.bernoulli(0.5)) {
        list.erase(list.find(id));
      } else {
        DataBlock b = list.extract(list.find(id));
        EXPECT_EQ(b.id, id);
      }
      ref.erase(id);
    }

    // Full lockstep comparison.
    ASSERT_NO_THROW(list.check_invariants());
    ASSERT_EQ(list.block_count(), ref.blocks().size());
    ASSERT_NEAR(list.total(), ref.total(), tol);
    ASSERT_NEAR(list.dirty_total(), ref.dirty_total(), tol);
    std::size_t i = 0;
    for (const DataBlock& b : list) {
      ASSERT_EQ(b.id, ref.blocks()[i].id) << "order diverged at position " << i;
      ++i;
    }
    for (const std::string& f : files) {
      ASSERT_NEAR(list.file_bytes(f), ref.file_bytes(f), tol) << f;
    }
    const std::string exclude =
        rng.bernoulli(0.3) ? "" : files[rng.uniform_int(0, files.size() - 1)];
    ASSERT_NEAR(list.clean_excluding(exclude), ref.clean_excluding(exclude), tol);
    auto d = list.lru_dirty(exclude);
    const RefBlock* rd = ref.lru_dirty(exclude);
    ASSERT_EQ(d == list.end(), rd == nullptr);
    if (rd != nullptr) ASSERT_EQ(d->id, rd->id);
    auto c = list.lru_clean(exclude);
    const RefBlock* rc = ref.lru_clean(exclude);
    ASSERT_EQ(c == list.end(), rc == nullptr);
    if (rc != nullptr) ASSERT_EQ(c->id, rc->id);
    const std::string file = files[rng.uniform_int(0, files.size() - 1)];
    auto df = list.lru_dirty_of(file);
    const RefBlock* rdf = ref.lru_dirty_of(file);
    ASSERT_EQ(df == list.end(), rdf == nullptr);
    if (rdf != nullptr) ASSERT_EQ(df->id, rdf->id);
    // One file's chain and the dirty chain visit exactly the reference's
    // blocks of that file / dirty blocks, in list order.
    std::vector<std::uint64_t> chain_ids;
    std::vector<std::uint64_t> ref_ids;
    for (auto it = list.first_of(file); it != list.end(); it = list.next_of(it)) {
      chain_ids.push_back(it->id);
    }
    for (const RefBlock& b : ref.blocks()) {
      if (b.file == file) ref_ids.push_back(b.id);
    }
    ASSERT_EQ(chain_ids, ref_ids) << "file chain of " << file;
    chain_ids.clear();
    ref_ids.clear();
    for (auto it = list.lru_dirty(); it != list.end(); it = list.next_dirty(it)) {
      chain_ids.push_back(it->id);
    }
    for (const RefBlock& b : ref.blocks()) {
      if (b.dirty) ref_ids.push_back(b.id);
    }
    ASSERT_EQ(chain_ids, ref_ids) << "dirty chain";
    // find(): a live id resolves, a never-issued id does not.
    if (!ref.blocks().empty()) {
      const std::uint64_t id = random_live_id();
      auto it = list.find(id);
      ASSERT_NE(it, list.end());
      ASSERT_EQ(it->id, id);
    }
    ASSERT_EQ(list.find(next_id + 1000), list.end());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSequences, LruProperty, ::testing::Range(0, 8));

// Repeatedly splitting the head block subdivides the same order-key gap
// until fractional precision runs out, forcing a full renumber; order and
// accounting must survive.
TEST(LruList, OrderKeyRenumberUnderDeepSplits) {
  LruList list;
  // The anchor keeps the subdivided key gap away from zero: midpoints
  // between 1.0-magnitude keys exhaust double precision after ~52 splits
  // (near 0.0 they would descend through subnormals instead), so this test
  // genuinely reaches the renumber path.
  DataBlock anchor;
  anchor.id = 100000;
  anchor.file = "h";
  anchor.size = 5.0;
  anchor.last_access = 0.5;
  list.insert(std::move(anchor));
  DataBlock b;
  b.id = 1;
  b.file = "f";
  b.size = std::ldexp(1.0, 120);  // allows ~119 halvings before the size floor
  b.last_access = 1.0;
  b.dirty = true;
  list.insert(std::move(b));
  DataBlock tail;
  tail.id = 2;
  tail.file = "g";
  tail.size = 10.0;
  tail.last_access = 1.0;
  list.insert(std::move(tail));

  std::uint64_t next = 3;
  auto it = list.find(1);
  for (int i = 0; i < 200; ++i) {
    if (it->size < 2.0) break;
    auto [head, second] = list.split(it, it->size / 2.0, next++);
    (void)second;
    it = head;
    list.check_invariants();
  }
  EXPECT_GT(list.block_count(), 100u);  // deep enough to have forced a renumber
  // The anchor stayed first, the split block kept its identity right after
  // it, and the tail block is still last.
  EXPECT_EQ(list.begin()->id, 100000u);
  EXPECT_EQ(std::next(list.begin())->id, 1u);
  std::uint64_t last_id = 0;
  for (const DataBlock& blk : list) last_id = blk.id;
  EXPECT_EQ(last_id, 2u);
}

}  // namespace
}  // namespace pcs::cache
