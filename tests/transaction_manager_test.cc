// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "txn/transaction_manager.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/oracle.h"

namespace twbg::txn {
namespace {

using enum lock::LockMode;

Status MustAcquire(TransactionManager& tm, lock::TransactionId tid,
                   lock::ResourceId rid, lock::LockMode mode) {
  Status outcome = tm.Acquire(tid, rid, mode);
  EXPECT_TRUE(outcome.ok() || outcome.IsWouldBlock() ||
              outcome.IsDeadlockVictim())
      << outcome.ToString();
  return outcome;
}

TEST(TransactionManagerTest, BeginAssignsFreshIds) {
  TransactionManager tm;
  lock::TransactionId a = *tm.Begin();
  lock::TransactionId b = *tm.Begin();
  EXPECT_NE(a, b);
  EXPECT_EQ(*tm.State(a), TxnState::kActive);
  EXPECT_EQ(*tm.State(b), TxnState::kActive);
  EXPECT_EQ(tm.NumLive(), 2u);
}

TEST(TransactionManagerTest, CommitReleasesAndUnblocks) {
  TransactionManager tm;
  lock::TransactionId a = *tm.Begin();
  lock::TransactionId b = *tm.Begin();
  EXPECT_TRUE(MustAcquire(tm, a, 1, kX).ok());
  EXPECT_TRUE(MustAcquire(tm, b, 1, kS).IsWouldBlock());
  EXPECT_EQ(*tm.State(b), TxnState::kBlocked);
  ASSERT_TRUE(tm.Commit(a).ok());
  EXPECT_EQ(*tm.State(a), TxnState::kCommitted);
  EXPECT_EQ(*tm.State(b), TxnState::kActive);  // granted by the release
  EXPECT_TRUE(tm.CheckInvariants().ok());
}

TEST(TransactionManagerTest, BlockedTransactionCannotCommitOrRequest) {
  TransactionManager tm;
  lock::TransactionId a = *tm.Begin();
  lock::TransactionId b = *tm.Begin();
  MustAcquire(tm, a, 1, kX);
  MustAcquire(tm, b, 1, kX);
  EXPECT_TRUE(tm.Commit(b).IsFailedPrecondition());
  EXPECT_TRUE(tm.Acquire(b, 2, kS).IsFailedPrecondition());
}

TEST(TransactionManagerTest, AbortReleasesQueuePosition) {
  TransactionManager tm;
  lock::TransactionId a = *tm.Begin();
  lock::TransactionId b = *tm.Begin();
  lock::TransactionId c = *tm.Begin();
  MustAcquire(tm, a, 1, kX);
  MustAcquire(tm, b, 1, kX);
  MustAcquire(tm, c, 1, kS);
  ASSERT_TRUE(tm.Abort(b).ok());  // aborting the queue front
  EXPECT_EQ(*tm.State(b), TxnState::kAborted);
  EXPECT_FALSE(tm.Find(b)->deadlock_victim);  // voluntary abort
  ASSERT_TRUE(tm.Commit(a).ok());
  EXPECT_EQ(*tm.State(c), TxnState::kActive);
}

TEST(TransactionManagerTest, TerminatedTransactionsRejectOperations) {
  TransactionManager tm;
  lock::TransactionId a = *tm.Begin();
  ASSERT_TRUE(tm.Commit(a).ok());
  EXPECT_TRUE(tm.Commit(a).IsFailedPrecondition());
  EXPECT_TRUE(tm.Abort(a).IsFailedPrecondition());
  EXPECT_TRUE(tm.Acquire(a, 1, kS).IsFailedPrecondition());
  EXPECT_TRUE(tm.State(99).status().IsNotFound());
}

TEST(TransactionManagerTest, PeriodicDetectionResolvesDeadlock) {
  TransactionManager tm;
  lock::TransactionId a = *tm.Begin();
  lock::TransactionId b = *tm.Begin();
  MustAcquire(tm, a, 1, kX);
  MustAcquire(tm, b, 2, kX);
  MustAcquire(tm, a, 2, kX);
  MustAcquire(tm, b, 1, kX);  // deadlock
  core::ResolutionReport report = tm.RunDetection();
  ASSERT_EQ(report.aborted.size(), 1u);
  lock::TransactionId victim = report.aborted[0];
  lock::TransactionId survivor = victim == a ? b : a;
  EXPECT_EQ(*tm.State(victim), TxnState::kAborted);
  EXPECT_TRUE(tm.Find(victim)->deadlock_victim);
  EXPECT_EQ(*tm.State(survivor), TxnState::kActive);
  EXPECT_FALSE(core::AnalyzeByReduction(tm.lock_manager().table()).deadlocked);
  EXPECT_TRUE(tm.CheckInvariants().ok());
}

TEST(TransactionManagerTest, ContinuousModeAbortsVictimInline) {
  TransactionManagerOptions options;
  options.detection_mode = DetectionMode::kContinuous;
  options.cost_policy = CostPolicy::kUnit;
  TransactionManager tm(options);
  lock::TransactionId a = *tm.Begin();
  lock::TransactionId b = *tm.Begin();
  MustAcquire(tm, a, 1, kX);
  MustAcquire(tm, b, 2, kX);
  MustAcquire(tm, a, 2, kX);
  // b's request closes the cycle; with unit costs the junction tie-break
  // picks the younger id (b) as victim, so a keeps running.
  Status outcome = MustAcquire(tm, b, 1, kX);
  if (outcome.IsDeadlockVictim()) {
    EXPECT_EQ(*tm.State(b), TxnState::kAborted);
    EXPECT_EQ(*tm.State(a), TxnState::kActive);
  } else {
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(*tm.State(a), TxnState::kAborted);
    EXPECT_EQ(*tm.State(b), TxnState::kActive);
  }
  EXPECT_TRUE(tm.CheckInvariants().ok());
}

TEST(TransactionManagerTest, CostPolicies) {
  for (CostPolicy policy : {CostPolicy::kUnit, CostPolicy::kLocksHeld,
                            CostPolicy::kAge, CostPolicy::kOpsDone}) {
    TransactionManagerOptions options;
    options.cost_policy = policy;
    TransactionManager tm(options);
    lock::TransactionId a = *tm.Begin();
    lock::TransactionId b = *tm.Begin();
    MustAcquire(tm, a, 1, kS);
    MustAcquire(tm, a, 2, kS);
    MustAcquire(tm, a, 3, kS);
    MustAcquire(tm, b, 4, kS);
    switch (policy) {
      case CostPolicy::kUnit:
        EXPECT_DOUBLE_EQ(tm.costs().Get(a), tm.costs().Get(b));
        break;
      case CostPolicy::kLocksHeld:
      case CostPolicy::kOpsDone:
        EXPECT_GT(tm.costs().Get(a), tm.costs().Get(b));
        break;
      case CostPolicy::kAge:
        EXPECT_GT(tm.costs().Get(a), tm.costs().Get(b));  // a began earlier
        break;
    }
  }
}

TEST(TransactionManagerTest, LocksHeldPolicyDrivesVictimChoice) {
  TransactionManagerOptions options;
  options.cost_policy = CostPolicy::kLocksHeld;
  TransactionManager tm(options);
  lock::TransactionId rich = *tm.Begin();
  lock::TransactionId poor = *tm.Begin();
  // `rich` accumulates locks; `poor` holds one.
  for (lock::ResourceId rid = 10; rid < 20; ++rid) {
    MustAcquire(tm, rich, rid, kS);
  }
  MustAcquire(tm, rich, 1, kX);
  MustAcquire(tm, poor, 2, kX);
  MustAcquire(tm, rich, 2, kX);
  MustAcquire(tm, poor, 1, kX);  // deadlock
  core::ResolutionReport report = tm.RunDetection();
  ASSERT_EQ(report.aborted.size(), 1u);
  EXPECT_EQ(report.aborted[0], poor);
}

TEST(TransactionManagerTest, RandomizedLifecycleInvariants) {
  common::Rng rng(31337);
  for (int round = 0; round < 20; ++round) {
    TransactionManagerOptions options;
    options.detection_mode = rng.NextBernoulli(0.5)
                                 ? DetectionMode::kContinuous
                                 : DetectionMode::kPeriodic;
    TransactionManager tm(options);
    std::vector<lock::TransactionId> pool;
    for (int i = 0; i < 6; ++i) pool.push_back(*tm.Begin());
    for (int op = 0; op < 150; ++op) {
      lock::TransactionId tid = rng.Pick(pool);
      Result<TxnState> state = tm.State(tid);
      ASSERT_TRUE(state.ok());
      if (*state == TxnState::kActive && rng.NextBernoulli(0.1)) {
        ASSERT_TRUE(tm.Commit(tid).ok());
      } else if (*state == TxnState::kActive) {
        (void)tm.Acquire(tid,
                         static_cast<lock::ResourceId>(rng.NextInRange(1, 4)),
                         lock::kRealModes[rng.NextBelow(5)]);
      } else if (*state == TxnState::kBlocked && rng.NextBernoulli(0.2)) {
        ASSERT_TRUE(tm.Abort(tid).ok());
      }
      if (op % 10 == 0 &&
          options.detection_mode == DetectionMode::kPeriodic) {
        tm.RunDetection();
      }
      // Replace terminated transactions to keep the pool live.
      for (auto& t : pool) {
        if (tm.Find(t)->terminated()) t = *tm.Begin();
      }
      Status invariants = tm.CheckInvariants();
      ASSERT_TRUE(invariants.ok()) << invariants.ToString();
    }
  }
}

TEST(TransactionStateTest, ToString) {
  EXPECT_EQ(ToString(TxnState::kActive), "Active");
  EXPECT_EQ(ToString(TxnState::kBlocked), "Blocked");
  EXPECT_EQ(ToString(TxnState::kCommitted), "Committed");
  EXPECT_EQ(ToString(TxnState::kAborted), "Aborted");
}

}  // namespace
}  // namespace twbg::txn
