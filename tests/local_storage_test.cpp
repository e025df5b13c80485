#include "storage/local_storage.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace pcs::storage {
namespace {

// Host: 1000 B RAM, memory 100 B/s; disk 10 B/s both ways.
class LocalStorageTest : public ::testing::Test {
 protected:
  LocalStorageTest() {
    host_ = std::make_unique<plat::Host>(engine_, test::small_host("h", 1000.0, 100.0));
    plat::DiskSpec spec;
    spec.name = "d0";
    spec.read_bw = 10.0;
    spec.write_bw = 10.0;
    disk_ = host_->add_disk(engine_, spec);
  }

  sim::Engine engine_;
  std::unique_ptr<plat::Host> host_;
  plat::Disk* disk_ = nullptr;
};

TEST_F(LocalStorageTest, ReadMissingFileThrows) {
  LocalStorage st(engine_, *host_, *disk_, cache::CacheMode::Writeback);
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await st.read_file("ghost", 10.0);
    (void)e;
  };
  engine_.spawn("r", body(engine_));
  EXPECT_THROW(engine_.run(), StorageError);
}

TEST_F(LocalStorageTest, StagedFileColdReadTiming) {
  LocalStorage st(engine_, *host_, *disk_, cache::CacheMode::Writeback);
  st.stage_file("f", 100.0);
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await st.read_file("f", 50.0);
    (void)e;
  };
  test::run_actor(engine_, body(engine_));
  EXPECT_DOUBLE_EQ(engine_.now(), 10.0);  // 100 B at 10 B/s
  EXPECT_DOUBLE_EQ(st.memory_manager()->cached("f"), 100.0);
}

TEST_F(LocalStorageTest, WriteRegistersFileAndCaches) {
  LocalStorage st(engine_, *host_, *disk_, cache::CacheMode::Writeback);
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await st.write_file("out", 150.0, 50.0);
    (void)e;
  };
  test::run_actor(engine_, body(engine_));
  EXPECT_DOUBLE_EQ(st.fs().size_of("out"), 150.0);
  EXPECT_DOUBLE_EQ(st.memory_manager()->dirty(), 150.0);
  EXPECT_DOUBLE_EQ(engine_.now(), 1.5);  // pure memory write
}

TEST_F(LocalStorageTest, CachelessModeHasNoMemoryManager) {
  LocalStorage st(engine_, *host_, *disk_, cache::CacheMode::None);
  EXPECT_EQ(st.memory_manager(), nullptr);
  EXPECT_THROW((void)st.snapshot(), StorageError);
  st.stage_file("f", 100.0);
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await st.read_file("f", 50.0);
    co_await st.read_file("f", 50.0);
    (void)e;
  };
  test::run_actor(engine_, body(engine_));
  EXPECT_DOUBLE_EQ(engine_.now(), 20.0);  // both reads from disk
}

TEST_F(LocalStorageTest, DiskLatencyChargedPerAccess) {
  plat::DiskSpec slow;
  slow.name = "slow";
  slow.read_bw = 10.0;
  slow.write_bw = 10.0;
  slow.latency = 0.5;
  plat::Disk* sdisk = host_->add_disk(engine_, slow);
  LocalStorage st(engine_, *host_, *sdisk, cache::CacheMode::None);
  st.stage_file("f", 100.0);
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await st.read_file("f", 50.0);
    (void)e;
  };
  test::run_actor(engine_, body(engine_));
  // Two 50 B chunks: each 0.5 s latency + 5 s transfer.
  EXPECT_DOUBLE_EQ(engine_.now(), 11.0);
}

TEST_F(LocalStorageTest, PeriodicFlushDrainsDirtyData) {
  cache::CacheParams params;
  params.dirty_expire = 10.0;
  params.flush_period = 2.0;
  LocalStorage st(engine_, *host_, *disk_, cache::CacheMode::Writeback, params);
  st.start_periodic_flush();
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await st.write_file("out", 100.0, 50.0);
    co_await e.sleep(30.0);
    EXPECT_DOUBLE_EQ(st.memory_manager()->dirty(), 0.0);
  };
  test::run_actor(engine_, body(engine_));
}

TEST_F(LocalStorageTest, ReleaseAnonymousFlowsThrough) {
  LocalStorage st(engine_, *host_, *disk_, cache::CacheMode::Writeback);
  st.stage_file("f", 100.0);
  auto body = [&](sim::Engine& e) -> sim::Task<> {
    co_await st.read_file("f", 50.0);
    (void)e;
  };
  test::run_actor(engine_, body(engine_));
  EXPECT_DOUBLE_EQ(st.memory_manager()->anonymous(), 100.0);
  st.release_anonymous(100.0);
  EXPECT_DOUBLE_EQ(st.memory_manager()->anonymous(), 0.0);
}

TEST_F(LocalStorageTest, FileServiceInterface) {
  LocalStorage st(engine_, *host_, *disk_, cache::CacheMode::Writeback);
  FileService* svc = &st;
  svc->stage_file("f", 42.0);
  EXPECT_DOUBLE_EQ(svc->file_size("f"), 42.0);
}

TEST_F(LocalStorageTest, ConcurrentReadersShareDisk) {
  LocalStorage st(engine_, *host_, *disk_, cache::CacheMode::None);
  st.stage_file("a", 100.0);
  st.stage_file("b", 100.0);
  auto reader = [&](sim::Engine& e, std::string name) -> sim::Task<> {
    co_await st.read_file(name, 100.0);
    (void)e;
  };
  engine_.spawn("r1", reader(engine_, "a"));
  engine_.spawn("r2", reader(engine_, "b"));
  engine_.run();
  // Two 100 B reads sharing a 10 B/s disk: 20 s.
  EXPECT_DOUBLE_EQ(engine_.now(), 20.0);
}

}  // namespace
}  // namespace pcs::storage
