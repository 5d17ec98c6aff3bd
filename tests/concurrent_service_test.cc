// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Tests for the thread-safe lock service: real threads, real blocking
// waits, deadlocks resolved by the detector thread — no run may hang.

#include "txn/concurrent_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

namespace twbg::txn {
namespace {

using enum lock::LockMode;

// The threaded suites run against one and several shards, with a detector
// thread: nothing else resolves the deadlocks they provoke.  The cost
// policy is the default kLocksHeld, under which crossing transfers tie;
// CrossingTransfersResolveWithoutHanging checks that the tie-break lets
// retried victims through instead of re-forming the cycle every period.
class ConcurrentServiceTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    ConcurrentServiceOptions options;
    options.num_shards = GetParam();
    options.detection_period = std::chrono::microseconds(500);
    auto created = ConcurrentLockService::Create(options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    owned_ = std::move(*created);
  }

  ConcurrentLockService& service() { return *owned_; }

 private:
  std::unique_ptr<ConcurrentLockService> owned_;
};

INSTANTIATE_TEST_SUITE_P(Shards, ConcurrentServiceTest,
                         ::testing::Values(size_t{1}, size_t{4}));

TEST_P(ConcurrentServiceTest, SingleThreadedBasics) {
  ConcurrentLockService& service = this->service();
  lock::TransactionId t = *service.Begin();
  EXPECT_TRUE(service.AcquireBlocking(t, 1, kX).ok());
  EXPECT_TRUE(service.AcquireBlocking(t, 1, kX).ok());  // covered: no-op
  EXPECT_TRUE(service.Commit(t).ok());
  EXPECT_EQ(*service.State(t), TxnState::kCommitted);
  EXPECT_TRUE(service.Commit(t).IsFailedPrecondition());
}

TEST_P(ConcurrentServiceTest, WaiterIsWokenByCommit) {
  ConcurrentLockService& service = this->service();
  lock::TransactionId holder = *service.Begin();
  ASSERT_TRUE(service.AcquireBlocking(holder, 1, kX).ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    lock::TransactionId t = *service.Begin();
    Status status = service.AcquireBlocking(t, 1, kS);
    EXPECT_TRUE(status.ok()) << status.ToString();
    granted = true;
    EXPECT_TRUE(service.Commit(t).ok());
  });
  // Give the waiter time to park, then release.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(granted.load());
  ASSERT_TRUE(service.Commit(holder).ok());
  waiter.join();
  EXPECT_TRUE(granted.load());
}

TEST_P(ConcurrentServiceTest, DeterministicCrossDeadlockResolved) {
  // Both threads take their first lock, rendezvous, then cross: a certain
  // deadlock.  Exactly one becomes the victim; the other completes.
  ConcurrentLockService& service = this->service();
  std::barrier rendezvous(2);
  std::atomic<int> victims{0};
  std::atomic<int> commits{0};
  auto runner = [&](lock::ResourceId first, lock::ResourceId second) {
    lock::TransactionId t = *service.Begin();
    ASSERT_TRUE(service.AcquireBlocking(t, first, kX).ok());
    rendezvous.arrive_and_wait();
    Status status = service.AcquireBlocking(t, second, kX);
    if (status.IsAborted()) {
      ++victims;
      return;
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(service.Commit(t).ok());
    ++commits;
  };
  std::thread a(runner, 1, 2);
  std::thread b(runner, 2, 1);
  a.join();
  b.join();
  EXPECT_EQ(victims.load(), 1);
  EXPECT_EQ(commits.load(), 1);
  EXPECT_EQ(service.deadlock_victims(), 1u);
}

TEST_P(ConcurrentServiceTest, CrossingTransfersResolveWithoutHanging) {
  ConcurrentLockService& service = this->service();
  constexpr int kThreads = 4;
  constexpr int kTransfersPerThread = 50;
  constexpr int kMaxAttempts = 1000;
  std::atomic<int> committed{0};
  std::atomic<int> victim_retries{0};
  std::vector<std::thread> threads;
  for (int worker = 0; worker < kThreads; ++worker) {
    threads.emplace_back([&, worker] {
      // Each worker transfers between two hot accounts in its own order —
      // a deadlock factory (whether deadlocks actually occur depends on
      // scheduling; the invariant is that nothing hangs and every
      // transfer eventually commits).
      const lock::ResourceId a = (worker % 2 == 0) ? 1 : 2;
      const lock::ResourceId b = (worker % 2 == 0) ? 2 : 1;
      for (int i = 0; i < kTransfersPerThread; ++i) {
        for (int attempt = 1;; ++attempt) {
          // A starving transfer fails here instead of hanging the suite.
          ASSERT_LE(attempt, kMaxAttempts) << "transfer " << i << " starved";
          lock::TransactionId t = *service.Begin();
          Status first = service.AcquireBlocking(t, a, kX);
          if (first.IsAborted()) {
            ++victim_retries;
            // Brief backoff before retrying: immediate re-acquisition of
            // the same two hot locks convoys instrumented (TSan) builds.
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            continue;
          }
          ASSERT_TRUE(first.ok());
          std::this_thread::yield();  // widen the interleaving window
          Status second = service.AcquireBlocking(t, b, kX);
          if (second.IsAborted()) {
            ++victim_retries;
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            continue;
          }
          ASSERT_TRUE(second.ok());
          ASSERT_TRUE(service.Commit(t).ok());
          ++committed;
          break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(committed.load(), kThreads * kTransfersPerThread);
  EXPECT_EQ(static_cast<size_t>(victim_retries.load()),
            service.deadlock_victims());
}

TEST_P(ConcurrentServiceTest, ManyThreadsManyResources) {
  ConcurrentLockService& service = this->service();
  constexpr int kThreads = 8;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int worker = 0; worker < kThreads; ++worker) {
    threads.emplace_back([&, worker] {
      for (int i = 0; i < 30; ++i) {
        for (;;) {
          lock::TransactionId t = *service.Begin();
          bool dead = false;
          // Lock three resources in a worker-dependent rotation.
          for (int k = 0; k < 3; ++k) {
            lock::ResourceId rid =
                static_cast<lock::ResourceId>(1 + (worker + k * i) % 5);
            Status status = service.AcquireBlocking(
                t, rid, k == 2 ? kX : kS);
            if (status.IsAborted()) {
              dead = true;
              break;
            }
            ASSERT_TRUE(status.ok()) << status.ToString();
          }
          if (dead) continue;
          ASSERT_TRUE(service.Commit(t).ok());
          ++committed;
          break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(committed.load(), kThreads * 30);
}

TEST(ConcurrentServiceCreateTest, RejectsUnsupportedCombinations) {
  {
    ConcurrentServiceOptions options;
    options.num_shards = 0;
    EXPECT_TRUE(ConcurrentLockService::Create(options)
                    .status().IsInvalidArgument());
  }
  {
    ConcurrentServiceOptions options;
    options.num_shards = 65;
    EXPECT_TRUE(ConcurrentLockService::Create(options)
                    .status().IsInvalidArgument());
  }
  {
    // Deprecated field: the service has no continuous engine.
    ConcurrentServiceOptions options;
    options.detection_mode = DetectionMode::kContinuous;
    EXPECT_TRUE(ConcurrentLockService::Create(options)
                    .status().IsInvalidArgument());
  }
  {
    ConcurrentServiceOptions options;  // defaults: one shard, no thread
    auto service = ConcurrentLockService::Create(options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    EXPECT_EQ((*service)->num_shards(), 1u);
    EXPECT_EQ((*service)->current_detection_period_us(), 0u);
  }
}

TEST(ConcurrentServiceCreateTest, PeriodicShardedBasics) {
  ConcurrentServiceOptions options;
  options.num_shards = 4;
  auto service = ConcurrentLockService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ConcurrentLockService& s = **service;
  EXPECT_EQ(s.num_shards(), 4u);
  EXPECT_EQ(s.snapshot_epoch(), 0u);

  lock::TransactionId t1 = *s.Begin();
  lock::TransactionId t2 = *s.Begin();
  EXPECT_TRUE(s.AcquireBlocking(t1, 1, kX).ok());
  EXPECT_TRUE(s.AcquireBlocking(t1, 2, kS).ok());
  EXPECT_TRUE(s.AcquireBlocking(t2, 3, kX).ok());
  EXPECT_TRUE(s.AcquireBlocking(t2, 2, kS).ok());  // shared: both granted

  // Deadlock-free table: a manual pass resolves nothing but advances the
  // snapshot epoch and records its pause.
  core::ResolutionReport report = s.RunDetectionPass();
  EXPECT_TRUE(report.aborted.empty());
  EXPECT_EQ(s.snapshot_epoch(), 1u);
  EXPECT_EQ(s.pause_times_ns().size(), 1u);

  EXPECT_TRUE(s.Commit(t1).ok());
  EXPECT_TRUE(s.Abort(t2).ok());
  EXPECT_EQ(*s.State(t1), TxnState::kCommitted);
  EXPECT_EQ(*s.State(t2), TxnState::kAborted);
  EXPECT_TRUE(s.State(99).status().IsNotFound());
  EXPECT_TRUE(s.Commit(t1).IsFailedPrecondition());
  EXPECT_TRUE(s.AcquireBlocking(t2, 5, kX).IsFailedPrecondition());

  uint64_t total_ops = 0;
  for (size_t shard = 0; shard < s.num_shards(); ++shard) {
    total_ops += s.shard_stats(shard).ops;
  }
  EXPECT_GT(total_ops, 0u);
}

TEST(ConcurrentServiceCreateTest, PeriodicCrossDeadlockResolvedByThread) {
  // Same certain cross-deadlock as DeterministicCrossDeadlockResolved,
  // on eight shards with a parallel pass: nobody calls RunDetectionPass,
  // so the detector thread must find and resolve it, or both workers
  // hang forever.
  ConcurrentServiceOptions options;
  options.num_shards = 8;
  options.detection_period = std::chrono::microseconds(500);
  options.detection_threads = 2;
  auto service = ConcurrentLockService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ConcurrentLockService& s = **service;

  std::barrier rendezvous(2);
  std::atomic<int> victims{0};
  std::atomic<int> commits{0};
  auto runner = [&](lock::ResourceId first, lock::ResourceId second) {
    lock::TransactionId t = *s.Begin();
    ASSERT_TRUE(s.AcquireBlocking(t, first, kX).ok());
    rendezvous.arrive_and_wait();
    Status status = s.AcquireBlocking(t, second, kX);
    if (status.IsAborted()) {
      ++victims;
      return;
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(s.Commit(t).ok());
    ++commits;
  };
  std::thread a(runner, 1, 2);
  std::thread b(runner, 2, 1);
  a.join();
  b.join();
  EXPECT_EQ(victims.load(), 1);
  EXPECT_EQ(commits.load(), 1);
  EXPECT_EQ(s.deadlock_victims(), 1u);
  EXPECT_GE(s.snapshot_epoch(), 1u);
}

}  // namespace
}  // namespace twbg::txn
