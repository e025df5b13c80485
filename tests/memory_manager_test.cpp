#include "pagecache/memory_manager.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace pcs::cache {
namespace {

// Memory channels at 100 B/s, fake disk at 10 B/s read and write, 1000 B of
// memory: timings divide evenly.
class MemoryManagerTest : public ::testing::Test {
 protected:
  MemoryManagerTest()
      : store_(engine_, 10.0, 10.0),
        mem_read_(engine_.new_resource("mem:rd", 100.0)),
        mem_write_(engine_.new_resource("mem:wr", 100.0)) {}

  MemoryManager make_mm(const CacheParams& params = {}, double total = 1000.0) {
    return MemoryManager(engine_, params, total, mem_read_, mem_write_, store_);
  }

  sim::Engine engine_;
  test::FakeStore store_;
  sim::Resource* mem_read_;
  sim::Resource* mem_write_;
};

TEST_F(MemoryManagerTest, InitialState) {
  MemoryManager mm = make_mm();
  EXPECT_DOUBLE_EQ(mm.total_mem(), 1000.0);
  EXPECT_DOUBLE_EQ(mm.free_mem(), 1000.0);
  EXPECT_DOUBLE_EQ(mm.cached(), 0.0);
  EXPECT_DOUBLE_EQ(mm.dirty(), 0.0);
  EXPECT_DOUBLE_EQ(mm.anonymous(), 0.0);
  EXPECT_DOUBLE_EQ(mm.dirty_limit(), 200.0);
  mm.check_invariants();
}

TEST_F(MemoryManagerTest, RejectsBadConfig) {
  EXPECT_THROW(make_mm({}, -1.0), CacheError);
  CacheParams bad;
  bad.dirty_ratio = 1.5;
  EXPECT_THROW(make_mm(bad), CacheError);
}

TEST_F(MemoryManagerTest, WriteToCacheCreatesDirtyBlock) {
  MemoryManager mm = make_mm();
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await mm.write_to_cache("f1", 300.0);
    (void)e;
  };
  test::run_actor(engine_, body(engine_));
  EXPECT_DOUBLE_EQ(mm.cached(), 300.0);
  EXPECT_DOUBLE_EQ(mm.dirty(), 300.0);
  EXPECT_DOUBLE_EQ(mm.free_mem(), 700.0);
  // 300 B at 100 B/s memory write bandwidth.
  EXPECT_DOUBLE_EQ(engine_.now(), 3.0);
  EXPECT_TRUE(store_.writes.empty());
  mm.check_invariants();
}

TEST_F(MemoryManagerTest, WriteToCacheRequiresFreeMemory) {
  MemoryManager mm = make_mm();
  mm.allocate_anonymous(900.0);
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await mm.write_to_cache("f1", 300.0);
    (void)e;
  };
  engine_.spawn("w", body(engine_));
  EXPECT_THROW(engine_.run(), CacheError);
}

TEST_F(MemoryManagerTest, FlushWritesLruFirstAndMarksClean) {
  MemoryManager mm = make_mm();
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await mm.write_to_cache("f1", 100.0);
    co_await e.sleep(1.0);
    co_await mm.write_to_cache("f2", 100.0);
    co_await mm.flush(100.0);
  };
  test::run_actor(engine_, body(engine_));
  EXPECT_DOUBLE_EQ(mm.dirty(), 100.0);  // f2 still dirty
  EXPECT_DOUBLE_EQ(mm.cached(), 200.0);
  ASSERT_EQ(store_.writes.size(), 1u);
  EXPECT_EQ(store_.writes[0].first, "f1");  // least recently used first
  EXPECT_DOUBLE_EQ(store_.writes[0].second, 100.0);
  mm.check_invariants();
}

TEST_F(MemoryManagerTest, FlushSplitsPartialBlock) {
  MemoryManager mm = make_mm();
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await mm.write_to_cache("f1", 100.0);
    co_await mm.flush(30.0);
    (void)e;
  };
  test::run_actor(engine_, body(engine_));
  EXPECT_DOUBLE_EQ(mm.dirty(), 70.0);
  EXPECT_DOUBLE_EQ(mm.cached(), 100.0);
  EXPECT_DOUBLE_EQ(store_.total_written(), 30.0);
  mm.check_invariants();
}

TEST_F(MemoryManagerTest, FlushNegativeAmountIsNoop) {
  MemoryManager mm = make_mm();
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await mm.write_to_cache("f1", 100.0);
    co_await mm.flush(-50.0);
    co_await mm.flush(0.0);
    (void)e;
  };
  test::run_actor(engine_, body(engine_));
  EXPECT_DOUBLE_EQ(mm.dirty(), 100.0);
  EXPECT_TRUE(store_.writes.empty());
}

TEST_F(MemoryManagerTest, FlushExcludesFile) {
  MemoryManager mm = make_mm();
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await mm.write_to_cache("keep", 100.0);
    co_await e.sleep(1.0);
    co_await mm.write_to_cache("other", 100.0);
    co_await mm.flush(100.0, "keep");
  };
  test::run_actor(engine_, body(engine_));
  ASSERT_EQ(store_.writes.size(), 1u);
  EXPECT_EQ(store_.writes[0].first, "other");
}

TEST_F(MemoryManagerTest, FlushStopsWhenNoDirtyLeft) {
  MemoryManager mm = make_mm();
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await mm.write_to_cache("f1", 50.0);
    co_await mm.flush(500.0);  // asks for more than exists
    (void)e;
  };
  test::run_actor(engine_, body(engine_));
  EXPECT_DOUBLE_EQ(mm.dirty(), 0.0);
  EXPECT_DOUBLE_EQ(store_.total_written(), 50.0);
}

TEST_F(MemoryManagerTest, EvictRemovesCleanInactiveOnly) {
  MemoryManager mm = make_mm();
  mm.add_to_cache("clean", 200.0);
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await mm.write_to_cache("dirty", 100.0);
    (void)e;
  };
  test::run_actor(engine_, body(engine_));
  mm.evict(300.0);
  EXPECT_DOUBLE_EQ(mm.cached("clean"), 0.0);
  EXPECT_DOUBLE_EQ(mm.cached("dirty"), 100.0);  // dirty data is not evictable
  mm.check_invariants();
}

TEST_F(MemoryManagerTest, EvictSplitsLastBlock) {
  MemoryManager mm = make_mm();
  mm.add_to_cache("f", 200.0);
  mm.evict(50.0);
  EXPECT_DOUBLE_EQ(mm.cached("f"), 150.0);
  mm.check_invariants();
}

TEST_F(MemoryManagerTest, EvictExcludesFile) {
  MemoryManager mm = make_mm();
  mm.add_to_cache("a", 100.0);
  mm.add_to_cache("b", 100.0);
  mm.evict(200.0, "a");
  EXPECT_DOUBLE_EQ(mm.cached("a"), 100.0);
  EXPECT_DOUBLE_EQ(mm.cached("b"), 0.0);
}

TEST_F(MemoryManagerTest, EvictDemotesFromActiveUnderPressure) {
  MemoryManager mm = make_mm();
  mm.add_to_cache("f", 300.0);
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    // Read it so it becomes active.
    double served = co_await mm.read_from_cache("f", 300.0);
    EXPECT_DOUBLE_EQ(served, 300.0);
    (void)e;
  };
  test::run_actor(engine_, body(engine_));
  EXPECT_GT(mm.active_list().total(), 0.0);
  // Evicting more than the inactive list holds forces demotion.
  mm.evict(250.0);
  EXPECT_NEAR(mm.cached("f"), 50.0, 1.0);
  mm.check_invariants();
}

TEST_F(MemoryManagerTest, ReadFromCachePromotesAndMerges) {
  CacheParams params;
  MemoryManager mm = make_mm(params);
  mm.add_to_cache("f", 100.0);
  mm.add_to_cache("f", 100.0);
  EXPECT_EQ(mm.inactive_list().block_count(), 2u);
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    double served = co_await mm.read_from_cache("f", 200.0);
    EXPECT_DOUBLE_EQ(served, 200.0);
    (void)e;
  };
  test::run_actor(engine_, body(engine_));
  // Both clean blocks merged into one active block; balancing then demotes
  // part of it to keep active <= 2x inactive.
  EXPECT_DOUBLE_EQ(mm.cached("f"), 200.0);
  EXPECT_NEAR(mm.active_list().total(), 200.0 * 2.0 / 3.0, 1.0);
  EXPECT_NEAR(mm.inactive_list().total(), 200.0 / 3.0, 1.0);
  // 200 B at 100 B/s memory read.
  EXPECT_DOUBLE_EQ(engine_.now(), 2.0);
  mm.check_invariants();
}

TEST_F(MemoryManagerTest, ReadFromCacheDirtyBlocksKeepEntryTime) {
  MemoryManager mm = make_mm();
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await mm.write_to_cache("f", 100.0);
    co_await e.sleep(10.0);
    double served = co_await mm.read_from_cache("f", 100.0);
    EXPECT_DOUBLE_EQ(served, 100.0);
  };
  test::run_actor(engine_, body(engine_));
  // The dirty block moved to the active list individually with its entry
  // time preserved (entry at ~0, access at ~11).
  bool found = false;
  for (const DataBlock& b : mm.active_list()) {
    if (b.file == "f" && b.dirty) {
      found = true;
      EXPECT_LT(b.entry_time, 1.0);
      EXPECT_GT(b.last_access, 10.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MemoryManagerTest, ReadFromCacheReportsShortfall) {
  MemoryManager mm = make_mm();
  mm.add_to_cache("f", 50.0);
  double served = -1.0;
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    served = co_await mm.read_from_cache("f", 200.0);
    (void)e;
  };
  test::run_actor(engine_, body(engine_));
  EXPECT_DOUBLE_EQ(served, 50.0);
}

TEST_F(MemoryManagerTest, BalanceKeepsActiveAtMostTwiceInactive) {
  MemoryManager mm = make_mm();
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    for (int i = 0; i < 6; ++i) {
      std::string file = "f" + std::to_string(i);
      mm.add_to_cache(file, 100.0);
      double served = co_await mm.read_from_cache(file, 100.0);  // promote
      EXPECT_DOUBLE_EQ(served, 100.0);
      mm.check_invariants();
    }
    (void)e;
  };
  test::run_actor(engine_, body(engine_));
  EXPECT_LE(mm.active_list().total(), 2.0 * mm.inactive_list().total() + 1.0);
}

TEST_F(MemoryManagerTest, SingleListPolicySkipsBalancing) {
  CacheParams params;
  params.lru_policy = LruPolicy::SingleList;
  MemoryManager mm = make_mm(params);
  mm.add_to_cache("f", 300.0);
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    double served = co_await mm.read_from_cache("f", 300.0);
    EXPECT_DOUBLE_EQ(served, 300.0);
    (void)e;
  };
  test::run_actor(engine_, body(engine_));
  // Everything lands in the active list and stays there.
  EXPECT_DOUBLE_EQ(mm.active_list().total(), 300.0);
  EXPECT_DOUBLE_EQ(mm.inactive_list().total(), 0.0);
}

TEST_F(MemoryManagerTest, AnonymousMemoryAccounting) {
  MemoryManager mm = make_mm();
  mm.allocate_anonymous(400.0);
  EXPECT_DOUBLE_EQ(mm.anonymous(), 400.0);
  EXPECT_DOUBLE_EQ(mm.free_mem(), 600.0);
  mm.release_anonymous(150.0);
  EXPECT_DOUBLE_EQ(mm.anonymous(), 250.0);
  mm.release_anonymous(1e9);  // over-release clamps at zero
  EXPECT_DOUBLE_EQ(mm.anonymous(), 0.0);
}

TEST_F(MemoryManagerTest, AnonymousAllocationEvictsCleanCache) {
  MemoryManager mm = make_mm();
  mm.add_to_cache("f", 800.0);
  mm.allocate_anonymous(900.0);  // forces reclaim of cached data
  EXPECT_DOUBLE_EQ(mm.anonymous(), 900.0);
  EXPECT_LE(mm.cached(), 100.0 + 1.0);
  mm.check_invariants();
}

TEST_F(MemoryManagerTest, AnonymousOvercommitThrows) {
  MemoryManager mm = make_mm();
  EXPECT_THROW(mm.allocate_anonymous(1500.0), CacheError);
}

TEST_F(MemoryManagerTest, AddToCacheBestEffortUnderPressure) {
  MemoryManager mm = make_mm();
  mm.allocate_anonymous(900.0);
  double cached = mm.add_to_cache("f", 200.0);
  EXPECT_NEAR(cached, 100.0, 1.0);  // only what fits
  mm.check_invariants();
}

TEST_F(MemoryManagerTest, PeriodicFlushWritesExpiredBlocks) {
  CacheParams params;
  params.dirty_expire = 30.0;
  params.flush_period = 5.0;
  MemoryManager mm = make_mm(params);
  mm.start_periodic_flush();
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await mm.write_to_cache("f", 100.0);
    co_await e.sleep(20.0);
    EXPECT_DOUBLE_EQ(mm.dirty(), 100.0);  // not yet expired
    co_await e.sleep(20.0);               // now past 30 s + one flush period
    EXPECT_DOUBLE_EQ(mm.dirty(), 0.0);
  };
  test::run_actor(engine_, body(engine_));
  EXPECT_DOUBLE_EQ(store_.total_written(), 100.0);
}

TEST_F(MemoryManagerTest, DropFileRemovesAllBlocks) {
  MemoryManager mm = make_mm();
  mm.add_to_cache("f", 100.0);
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await mm.write_to_cache("f", 50.0);
    co_await mm.write_to_cache("g", 50.0);
    (void)e;
  };
  test::run_actor(engine_, body(engine_));
  mm.drop_file("f");
  EXPECT_DOUBLE_EQ(mm.cached("f"), 0.0);
  EXPECT_DOUBLE_EQ(mm.cached("g"), 50.0);
  EXPECT_DOUBLE_EQ(mm.dirty(), 50.0);
  mm.check_invariants();
}

// Two files whose blocks interleave in both lists: a read of one file takes
// only that file's blocks (inactive list first), splits the last one it
// needs, and leaves the other file's blocks where they were; dropping the
// file then removes its blocks from both lists and nothing else.
TEST_F(MemoryManagerTest, TouchAndDropInterleavedFiles) {
  CacheParams params;
  params.max_active_ratio = 10.0;  // keep balancing out of the picture
  MemoryManager mm = make_mm(params);
  // The file of every block, in list order.
  auto files_of = [](const LruList& list) {
    std::string files;
    for (const DataBlock& b : list) files += b.file;
    return files;
  };
  auto ids_of = [](const LruList& list, const std::string& file) {
    std::vector<std::uint64_t> ids;
    for (const DataBlock& b : list) {
      if (b.file == file) ids.push_back(b.id);
    }
    return ids;
  };
  std::vector<std::uint64_t> b_inactive;
  std::vector<std::uint64_t> b_active;
  double served = 0.0;
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    mm.add_to_cache("a", 100.0);
    mm.add_to_cache("b", 100.0);
    co_await mm.write_to_cache("a", 100.0);
    co_await mm.write_to_cache("b", 100.0);
    mm.add_to_cache("a", 100.0);
    mm.add_to_cache("b", 100.0);
    co_await e.sleep(1.0);
    // Promote one clean block (merged) and one dirty block of each file.
    for (const char* file : {"a", "b", "a", "b"}) {
      EXPECT_DOUBLE_EQ(mm.touch_cached(file, 100.0), 100.0);
    }
    EXPECT_EQ(files_of(mm.inactive_list()), "ab");
    EXPECT_EQ(files_of(mm.active_list()), "abab");
    b_inactive = ids_of(mm.inactive_list(), "b");
    b_active = ids_of(mm.active_list(), "b");
    co_await e.sleep(1.0);
    // The inactive a block, the clean active a block and half of the dirty
    // active a block.
    served = mm.touch_cached("a", 250.0);
  };
  test::run_actor(engine_, body(engine_));
  EXPECT_DOUBLE_EQ(served, 250.0);
  EXPECT_DOUBLE_EQ(mm.cached("a"), 300.0);
  EXPECT_DOUBLE_EQ(mm.cached("b"), 300.0);
  // Active: b, the untouched dirty remainder of the split a block, b, the
  // touched dirty half, and the two clean a blocks merged into one.
  EXPECT_EQ(files_of(mm.inactive_list()), "b");
  EXPECT_EQ(files_of(mm.active_list()), "babaa");
  auto remainder = std::next(mm.active_list().begin());
  EXPECT_DOUBLE_EQ(remainder->size, 50.0);
  EXPECT_TRUE(remainder->dirty);
  EXPECT_LT(remainder->last_access, engine_.now());
  EXPECT_EQ(ids_of(mm.inactive_list(), "b"), b_inactive);
  EXPECT_EQ(ids_of(mm.active_list(), "b"), b_active);
  mm.check_invariants();

  mm.drop_file("a");
  EXPECT_DOUBLE_EQ(mm.cached("a"), 0.0);
  EXPECT_EQ(files_of(mm.inactive_list()), "b");
  EXPECT_EQ(files_of(mm.active_list()), "bb");
  EXPECT_EQ(ids_of(mm.inactive_list(), "b"), b_inactive);
  EXPECT_EQ(ids_of(mm.active_list(), "b"), b_active);
  EXPECT_DOUBLE_EQ(mm.inactive_list().file_bytes("b"), 100.0);
  EXPECT_DOUBLE_EQ(mm.active_list().file_bytes("b"), 200.0);
  EXPECT_DOUBLE_EQ(mm.dirty(), 100.0);
  mm.check_invariants();
}

TEST_F(MemoryManagerTest, SnapshotReflectsState) {
  MemoryManager mm = make_mm();
  mm.add_to_cache("f", 100.0);
  mm.allocate_anonymous(50.0);
  CacheSnapshot s = mm.snapshot();
  EXPECT_DOUBLE_EQ(s.total, 1000.0);
  EXPECT_DOUBLE_EQ(s.cached, 100.0);
  EXPECT_DOUBLE_EQ(s.anonymous, 50.0);
  EXPECT_DOUBLE_EQ(s.free, 850.0);
  EXPECT_DOUBLE_EQ(s.used(), 150.0);
  EXPECT_DOUBLE_EQ(s.per_file.at("f"), 100.0);
}

TEST_F(MemoryManagerTest, ConcurrentFlushersDoNotDoubleFlush) {
  MemoryManager mm = make_mm();
  auto writer = [&](sim::Engine& e) -> sim::Task<> {
    co_await mm.write_to_cache("f", 200.0);
    (void)e;
  };
  test::run_actor(engine_, writer(engine_));
  auto flusher = [&](sim::Engine& e) -> sim::Task<> {
    co_await mm.flush(200.0);
    (void)e;
  };
  engine_.spawn("f1", flusher(engine_));
  engine_.spawn("f2", flusher(engine_));
  engine_.run();
  // Both flushers saw the same dirty pool; total written must equal the
  // dirty amount, not twice it.
  EXPECT_DOUBLE_EQ(store_.total_written(), 200.0);
  EXPECT_DOUBLE_EQ(mm.dirty(), 0.0);
}

}  // namespace
}  // namespace pcs::cache
