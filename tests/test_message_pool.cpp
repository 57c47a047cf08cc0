// Unit tests for the per-scenario slab/freelist allocator: block reuse and
// recycling, pass-through mode, oversize fall-through, and the lifetime
// guarantee that pooled objects may outlive the MessagePool handle.
#include "epicast/common/message_pool.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "epicast/common/env.hpp"

namespace epicast {
namespace {

TEST(MessagePool, FreedBlockIsReused) {
  MessagePool pool(MessagePool::Mode::Pooling);
  void* a = pool.allocate(48);
  pool.deallocate(a, 48);
  void* b = pool.allocate(40);  // same 64-byte class as 48
  EXPECT_EQ(a, b);
  pool.deallocate(b, 40);

  const MessagePool::Stats& s = pool.stats();
  EXPECT_EQ(s.allocations, 2u);
  EXPECT_EQ(s.deallocations, 2u);
  EXPECT_EQ(s.reuses, 1u);
  EXPECT_EQ(s.oversize, 0u);
  EXPECT_EQ(s.live(), 0u);
  EXPECT_EQ(s.slab_bytes, MessagePool::kSlabBytes);
}

TEST(MessagePool, DistinctClassesDoNotShareFreelists) {
  MessagePool pool(MessagePool::Mode::Pooling);
  void* small = pool.allocate(32);
  pool.deallocate(small, 32);
  void* large = pool.allocate(200);  // different class — must not reuse
  EXPECT_NE(small, large);
  EXPECT_EQ(pool.stats().reuses, 0u);
  pool.deallocate(large, 200);
}

TEST(MessagePool, FreelistIsLifo) {
  MessagePool pool(MessagePool::Mode::Pooling);
  void* a = pool.allocate(64);
  void* b = pool.allocate(64);
  pool.deallocate(a, 64);
  pool.deallocate(b, 64);
  EXPECT_EQ(pool.allocate(64), b);  // last freed, first reused
  EXPECT_EQ(pool.allocate(64), a);
}

TEST(MessagePool, OversizeFallsThroughToNew) {
  MessagePool pool(MessagePool::Mode::Pooling);
  const std::size_t big =
      MessagePool::kGranularity * MessagePool::kClasses + 1;
  void* p = pool.allocate(big);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, big);  // must be writable storage
  pool.deallocate(p, big);
  EXPECT_EQ(pool.stats().oversize, 1u);
  EXPECT_EQ(pool.stats().reuses, 0u);
  EXPECT_EQ(pool.stats().slab_bytes, 0u);  // no slab for oversize traffic
}

TEST(MessagePool, PassThroughNeverRecycles) {
  MessagePool pool(MessagePool::Mode::PassThrough);
  void* a = pool.allocate(48);
  pool.deallocate(a, 48);
  void* b = pool.allocate(48);
  pool.deallocate(b, 48);
  EXPECT_EQ(pool.stats().allocations, 2u);
  EXPECT_EQ(pool.stats().reuses, 0u);
  EXPECT_EQ(pool.stats().slab_bytes, 0u);
}

TEST(MessagePool, SlabGrowsOnDemand) {
  MessagePool pool(MessagePool::Mode::Pooling);
  // Exhaust the first slab with 1024-byte blocks (largest class).
  const std::size_t block = MessagePool::kGranularity * MessagePool::kClasses;
  const std::size_t per_slab = MessagePool::kSlabBytes / block;
  std::vector<void*> blocks;
  for (std::size_t i = 0; i < per_slab + 1; ++i)
    blocks.push_back(pool.allocate(block));
  EXPECT_EQ(pool.stats().slab_bytes, 2 * MessagePool::kSlabBytes);
  for (void* p : blocks) pool.deallocate(p, block);
  // Everything now recycles out of the freelist: no further slab growth.
  for (std::size_t i = 0; i < per_slab + 1; ++i)
    blocks[i] = pool.allocate(block);
  EXPECT_EQ(pool.stats().slab_bytes, 2 * MessagePool::kSlabBytes);
  EXPECT_EQ(pool.stats().reuses, per_slab + 1);
  for (void* p : blocks) pool.deallocate(p, block);
}

TEST(MessagePool, MakePooledConstructsAndDestroys) {
  struct Probe {
    explicit Probe(int* flag) : flag_(flag) { *flag_ = 1; }
    ~Probe() { *flag_ = 2; }
    int* flag_;
    char pad[40] = {};
  };
  int flag = 0;
  MessagePool pool(MessagePool::Mode::Pooling);
  {
    std::shared_ptr<Probe> p = make_pooled<Probe>(pool, &flag);
    EXPECT_EQ(flag, 1);
    EXPECT_EQ(pool.stats().live(), 1u);
  }
  EXPECT_EQ(flag, 2);
  EXPECT_EQ(pool.stats().live(), 0u);
  EXPECT_EQ(pool.stats().allocations, 1u);  // object + control block fused
}

TEST(MessagePool, PooledObjectOutlivesPoolHandle) {
  // The allocator keeps the pool state alive via shared_ptr, so destroying
  // the MessagePool handle while objects are outstanding is safe.
  std::shared_ptr<std::vector<int>> survivor;
  {
    MessagePool pool(MessagePool::Mode::Pooling);
    survivor = make_pooled<std::vector<int>>(pool, 100, 7);
  }
  ASSERT_EQ(survivor->size(), 100u);
  EXPECT_EQ((*survivor)[99], 7);
  survivor.reset();  // releases into the (still-alive) pool state
}

TEST(MessagePool, ManyLiveObjectsStayIntact) {
  MessagePool pool(MessagePool::Mode::Pooling);
  std::vector<std::shared_ptr<int>> ints;
  for (int i = 0; i < 10000; ++i) ints.push_back(make_pooled<int>(pool, i));
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(*ints[i], i);
  ints.clear();
  EXPECT_EQ(pool.stats().live(), 0u);
}

TEST(MessagePool, DefaultModeFollowsTheEnvironmentReader) {
  // env::settings().pool is PassThrough under ASan unless EPICAST_POOL
  // overrides it (tests/test_env.cpp checks the spellings).
  EXPECT_EQ(MessagePool().mode(), env::settings().pool);
}

}  // namespace
}  // namespace epicast
