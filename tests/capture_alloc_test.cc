// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Allocation accounting for the lock-table substrate: a binary-local
// counting operator new asserts the contracts the flat-hash layout was
// built for —
//
//   * ResourceState copy-assignment reuses destination holder/queue
//     capacity (the PR-6 snapshot-staging contract),
//   * a steady-state ShardSnapshot Capture+Fold round allocates nothing,
//   * steady-state create/erase churn on a LockTable recycles pooled
//     states instead of allocating,
//   * the fast-path Acquire of an uncontended lock allocates nothing
//     once the transaction and resource footprints exist,
//   * a steady-state Begin / AcquireAsync / Commit transaction on the
//     sharded service allocates nothing, however many shards it spans.
//
// The counter hooks this test binary's global operator new, so every
// EXPECT below measures the whole process — run serially (gtest default)
// these windows are deterministic.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "lock/lock_manager.h"
#include "lock/lock_table.h"
#include "lock/resource_state.h"
#include "txn/concurrent_service.h"
#include "txn/epoch_snapshot.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace twbg {
namespace {

using lock::LockManager;
using lock::LockMode;

uint64_t AllocCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Fills `state` with holders and a queue long enough to spill the inline
// capacity of both small vectors.
void FillBeyondInline(lock::ResourceState& state) {
  for (lock::TransactionId tid = 1; tid <= 6; ++tid) {
    ASSERT_TRUE(state.Request(tid, LockMode::kIS).ok());
  }
  for (lock::TransactionId tid = 7; tid <= 13; ++tid) {
    ASSERT_TRUE(state.Request(tid, LockMode::kX).ok());  // queues up
  }
  ASSERT_GT(state.holders().size(), 4u);
  ASSERT_GT(state.queue().size(), 4u);
}

TEST(CaptureAllocTest, ResourceStateCopyAssignReusesCapacity) {
  lock::ResourceState source(1);
  FillBeyondInline(source);
  lock::ResourceState dest(1);
  dest = source;  // first assignment may grow the destination
  const uint64_t before = AllocCount();
  for (int i = 0; i < 100; ++i) dest = source;
  EXPECT_EQ(AllocCount(), before)
      << "copy-assign into a warmed destination must reuse capacity";
}

TEST(CaptureAllocTest, SteadyStateCaptureAndFoldAreAllocFree) {
  LockManager lm;
  txn::ShardSnapshot snapshot;
  // A fixed footprint: T1/T2 hold shared locks, T3 waits, plus one
  // resource that churns through create/erase each round.
  ASSERT_TRUE(lm.Acquire(1, 10, LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(2, 10, LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(3, 10, LockMode::kX).ok());  // blocks
  auto one_round = [&](lock::TransactionId churn_tid) {
    ASSERT_TRUE(lm.Acquire(churn_tid, 20, LockMode::kX).ok());
    lm.ReleaseAll(churn_tid);  // R20 goes free and is reclaimed
    (void)snapshot.Capture(lm);
    snapshot.Fold();
  };
  // Warm every buffer: snapshot staging, mirror table, journals, pools.
  for (int i = 0; i < 200; ++i) one_round(4);
  const uint64_t before = AllocCount();
  for (int i = 0; i < 50; ++i) one_round(4);
  EXPECT_EQ(AllocCount(), before)
      << "steady-state capture+fold rounds must not allocate";
}

TEST(CaptureAllocTest, LockTableChurnRecyclesPooledStates) {
  lock::LockTable table;
  // Warm the pool and the hash table across the rid range.  The round
  // count is what it takes the mutation journal to fill its retention
  // ring and enter its compaction steady state — only then do appends
  // stop growing the backing vector.
  for (int round = 0; round < 2200; ++round) {
    for (lock::ResourceId rid = 1; rid <= 32; ++rid) {
      lock::ResourceState& state = table.GetOrCreate(rid);
      ASSERT_TRUE(state.TryFastGrant(1, LockMode::kX));
    }
    for (lock::ResourceId rid = 1; rid <= 32; ++rid) {
      table.FindMutable(rid)->Remove(1);
      table.EraseIfFree(rid);
    }
  }
  const uint64_t before = AllocCount();
  for (int round = 0; round < 20; ++round) {
    for (lock::ResourceId rid = 1; rid <= 32; ++rid) {
      lock::ResourceState& state = table.GetOrCreate(rid);
      ASSERT_TRUE(state.TryFastGrant(1, LockMode::kX));
    }
    for (lock::ResourceId rid = 1; rid <= 32; ++rid) {
      table.FindMutable(rid)->Remove(1);
      table.EraseIfFree(rid);
    }
  }
  EXPECT_EQ(AllocCount(), before)
      << "steady-state create/erase churn must recycle pooled states";
}

TEST(CaptureAllocTest, UncontendedAcquireReleaseIsAllocFree) {
  LockManager lm;
  // Warm: the txn bookkeeping entry, its touched set, the resource pool.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(lm.Acquire(1, 5, LockMode::kX).ok());
    lm.ReleaseAll(1);
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(lm.Acquire(1, 5, LockMode::kX).ok());
    lm.ReleaseAll(1);
  }
  EXPECT_EQ(AllocCount(), before)
      << "uncontended acquire/release must ride the fast path alloc-free";
}

TEST(CaptureAllocTest, SteadyStateMultiShardCommitIsAllocFree) {
  txn::ConcurrentServiceOptions options;
  options.num_shards = 4;
  auto created = txn::ConcurrentLockService::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  txn::ConcurrentLockService& service = **created;

  // One resource per shard, found by watching which shard's op counter a
  // lone acquire moves.
  std::vector<lock::ResourceId> rids(options.num_shards, 0);
  size_t found = 0;
  for (lock::ResourceId rid = 1; found < rids.size(); ++rid) {
    ASSERT_LT(rid, 1000u);
    std::vector<uint64_t> before;
    for (size_t s = 0; s < service.num_shards(); ++s) {
      before.push_back(service.shard_stats(s).ops);
    }
    const lock::TransactionId t = *service.Begin();
    ASSERT_TRUE(service.AcquireAsync(t, rid, LockMode::kX).ok());
    for (size_t s = 0; s < service.num_shards(); ++s) {
      if (service.shard_stats(s).ops != before[s] && rids[s] == 0) {
        rids[s] = rid;
        ++found;
      }
    }
    ASSERT_TRUE(service.Commit(t).ok());
  }

  auto one_txn = [&] {
    const lock::TransactionId t = *service.Begin();
    for (const lock::ResourceId rid : rids) {
      ASSERT_EQ(*service.AcquireAsync(t, rid, LockMode::kX),
                lock::RequestOutcome::kGranted);
    }
    ASSERT_TRUE(service.Commit(t).ok());
  };
  // Warm the transaction slab and index, each shard's bookkeeping and
  // resource pools, and the release scratch.
  for (int i = 0; i < 200; ++i) one_txn();
  const uint64_t before = AllocCount();
  for (int i = 0; i < 100; ++i) one_txn();
  EXPECT_EQ(AllocCount(), before)
      << "a steady-state 4-shard transaction must not allocate";
}

}  // namespace
}  // namespace twbg
