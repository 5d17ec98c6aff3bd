// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Lock-wait deadlines, bottom-up: LockManager::CancelWait queue-invariant
// maintenance, TransactionManager logical-tick deadlines (expiry,
// per-call overrides, abort-after-N escalation, transaction budgets), the
// concurrent service's wall-clock deadlines in both engines, and the
// same-tick deadline-expiry-vs-detection races — a wait must be resolved
// exactly once no matter which mechanism gets there first.

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "lock/lock_manager.h"
#include "txn/concurrent_service.h"
#include "txn/transaction_manager.h"

namespace twbg {
namespace {

using lock::LockMode;
using lock::RequestOutcome;
using lock::TransactionId;

// ---------------------------------------------------------------------
// Lock layer: CancelWait.
// ---------------------------------------------------------------------

TEST(CancelWaitTest, WithdrawnRequestUnblocksCompatibleWaiters) {
  lock::LockManager lm;
  // T1 holds S; T2 queues for X; T3's S is admission-blocked behind the
  // queued X (total-mode).  Withdrawing T2 must grant T3.
  EXPECT_EQ(*lm.Acquire(1, 10, LockMode::kS), RequestOutcome::kGranted);
  EXPECT_EQ(*lm.Acquire(2, 10, LockMode::kX), RequestOutcome::kBlocked);
  EXPECT_EQ(*lm.Acquire(3, 10, LockMode::kS), RequestOutcome::kBlocked);

  Result<std::vector<TransactionId>> granted = lm.CancelWait(2);
  ASSERT_TRUE(granted.ok());
  EXPECT_EQ(*granted, std::vector<TransactionId>{3});
  EXPECT_FALSE(lm.IsBlocked(2));
  EXPECT_FALSE(lm.IsBlocked(3));
  EXPECT_TRUE(lm.CheckInvariants(/*deep=*/true).ok());
}

TEST(CancelWaitTest, HoldingsSurviveTheCancellation) {
  lock::LockManager lm;
  EXPECT_EQ(*lm.Acquire(2, 20, LockMode::kS), RequestOutcome::kGranted);
  EXPECT_EQ(*lm.Acquire(1, 30, LockMode::kX), RequestOutcome::kGranted);
  EXPECT_EQ(*lm.Acquire(2, 30, LockMode::kX), RequestOutcome::kBlocked);
  const uint64_t span = lm.WaitSpan(2);

  ASSERT_TRUE(lm.CancelWait(2).ok());
  // The S lock on resource 20 is untouched...
  EXPECT_EQ(*lm.Acquire(2, 20, LockMode::kS), RequestOutcome::kAlreadyHeld);
  // ...and the wait span is retained (like after a wakeup) so the caller
  // can stamp its kDeadlineExpired event.
  EXPECT_EQ(lm.WaitSpan(2), span);
  EXPECT_NE(span, 0u);
  EXPECT_TRUE(lm.CheckInvariants(/*deep=*/true).ok());
}

TEST(CancelWaitTest, FailedPreconditionWhenNotBlocked) {
  lock::LockManager lm;
  EXPECT_EQ(*lm.Acquire(1, 10, LockMode::kS), RequestOutcome::kGranted);
  EXPECT_TRUE(lm.CancelWait(1).status().IsFailedPrecondition());
}

// ---------------------------------------------------------------------
// TransactionManager: logical-tick deadlines.
// ---------------------------------------------------------------------

txn::TransactionManagerOptions PeriodicOptions() {
  txn::TransactionManagerOptions options;
  options.detection_mode = txn::DetectionMode::kPeriodic;
  return options;
}

TEST(TmDeadlineTest, ExpiredWaitIsWithdrawnNotAborted) {
  txn::TransactionManagerOptions options = PeriodicOptions();
  options.robustness.deadline.lock_wait = 5;
  Result<std::unique_ptr<txn::TransactionManager>> created =
      txn::TransactionManager::Create(options);
  ASSERT_TRUE(created.ok());
  txn::TransactionManager& tm = **created;

  const TransactionId t1 = *tm.Begin();
  const TransactionId t2 = *tm.Begin();
  EXPECT_TRUE(tm.Acquire(t1, 1, LockMode::kX).ok());
  EXPECT_TRUE(tm.Acquire(t2, 1, LockMode::kX).IsWouldBlock());

  // Not due yet: registered at tick 0, lock_wait 5.
  tm.AdvanceTime(4);
  EXPECT_TRUE(tm.ExpireDeadlines().empty());
  EXPECT_EQ(*tm.State(t2), txn::TxnState::kBlocked);

  tm.AdvanceTime(5);
  txn::ExpiryReport report = tm.ExpireDeadlines();
  EXPECT_EQ(report.expired, std::vector<TransactionId>{t2});
  EXPECT_TRUE(report.aborted.empty());
  // The wait was withdrawn, not escalated: t2 is runnable again and may
  // re-issue the request.
  EXPECT_EQ(*tm.State(t2), txn::TxnState::kActive);
  EXPECT_TRUE(tm.CheckInvariants().ok());

  EXPECT_TRUE(tm.Commit(t1).ok());
  EXPECT_TRUE(tm.Acquire(t2, 1, LockMode::kX).ok());
  EXPECT_TRUE(tm.Commit(t2).ok());
}

TEST(TmDeadlineTest, ExpiryGrantsTheNextCompatibleWaiter) {
  txn::TransactionManagerOptions options = PeriodicOptions();
  options.robustness.deadline.lock_wait = 3;
  Result<std::unique_ptr<txn::TransactionManager>> created =
      txn::TransactionManager::Create(options);
  ASSERT_TRUE(created.ok());
  txn::TransactionManager& tm = **created;

  const TransactionId t1 = *tm.Begin();
  const TransactionId t2 = *tm.Begin();
  const TransactionId t3 = *tm.Begin();
  EXPECT_TRUE(tm.Acquire(t1, 1, LockMode::kS).ok());
  EXPECT_TRUE(tm.Acquire(t2, 1, LockMode::kX).IsWouldBlock());
  // t3's deadline is pushed past the sweep so only t2 expires.
  txn::AcquireOptions late;
  late.deadline_at = 100;
  EXPECT_TRUE(tm.Acquire(t3, 1, LockMode::kS, late).IsWouldBlock());

  tm.AdvanceTime(3);
  txn::ExpiryReport report = tm.ExpireDeadlines();
  EXPECT_EQ(report.expired, std::vector<TransactionId>{t2});
  // Withdrawing the X unblocks the admission-blocked S behind it.
  EXPECT_EQ(report.granted, std::vector<TransactionId>{t3});
  EXPECT_EQ(*tm.State(t3), txn::TxnState::kActive);
  EXPECT_TRUE(tm.CheckInvariants().ok());
}

TEST(TmDeadlineTest, PerCallOverridesBeatTheConfiguredDefault) {
  txn::TransactionManagerOptions options = PeriodicOptions();
  options.robustness.deadline.lock_wait = 2;
  Result<std::unique_ptr<txn::TransactionManager>> created =
      txn::TransactionManager::Create(options);
  ASSERT_TRUE(created.ok());
  txn::TransactionManager& tm = **created;

  const TransactionId t1 = *tm.Begin();
  const TransactionId t2 = *tm.Begin();
  EXPECT_TRUE(tm.Acquire(t1, 1, LockMode::kX).ok());

  // An explicit deadline_at of 0 disarms the configured default.
  txn::AcquireOptions no_deadline;
  no_deadline.deadline_at = 0;
  EXPECT_TRUE(tm.Acquire(t2, 1, LockMode::kX, no_deadline).IsWouldBlock());
  tm.AdvanceTime(50);
  EXPECT_TRUE(tm.ExpireDeadlines().empty());
  EXPECT_EQ(*tm.State(t2), txn::TxnState::kBlocked);

  // An explicit absolute deadline beats the default too.
  ASSERT_TRUE(tm.CancelWait(t2).ok());
  txn::AcquireOptions at55;
  at55.deadline_at = 55;
  EXPECT_TRUE(tm.Acquire(t2, 1, LockMode::kX, at55).IsWouldBlock());
  tm.AdvanceTime(54);
  EXPECT_TRUE(tm.ExpireDeadlines().empty());
  tm.AdvanceTime(55);
  EXPECT_EQ(tm.ExpireDeadlines().expired, std::vector<TransactionId>{t2});
}

TEST(TmDeadlineTest, AbortAfterNEscalates) {
  txn::TransactionManagerOptions options = PeriodicOptions();
  options.robustness.deadline.lock_wait = 2;
  options.robustness.deadline.abort_after = 2;
  Result<std::unique_ptr<txn::TransactionManager>> created =
      txn::TransactionManager::Create(options);
  ASSERT_TRUE(created.ok());
  txn::TransactionManager& tm = **created;

  const TransactionId t1 = *tm.Begin();
  const TransactionId t2 = *tm.Begin();
  EXPECT_TRUE(tm.Acquire(t1, 1, LockMode::kX).ok());

  EXPECT_TRUE(tm.Acquire(t2, 1, LockMode::kX).IsWouldBlock());
  tm.AdvanceTime(2);
  txn::ExpiryReport first = tm.ExpireDeadlines();
  EXPECT_EQ(first.expired, std::vector<TransactionId>{t2});
  EXPECT_TRUE(first.aborted.empty());

  EXPECT_TRUE(tm.Acquire(t2, 1, LockMode::kX).IsWouldBlock());
  tm.AdvanceTime(4);
  txn::ExpiryReport second = tm.ExpireDeadlines();
  EXPECT_EQ(second.expired, std::vector<TransactionId>{t2});
  EXPECT_EQ(second.aborted, std::vector<TransactionId>{t2});
  EXPECT_EQ(*tm.State(t2), txn::TxnState::kAborted);
  EXPECT_TRUE(tm.CheckInvariants().ok());
}

TEST(TmDeadlineTest, TransactionBudgetAbortsRunnableTransactions) {
  txn::TransactionManagerOptions options = PeriodicOptions();
  options.robustness.deadline.txn_budget = 10;
  Result<std::unique_ptr<txn::TransactionManager>> created =
      txn::TransactionManager::Create(options);
  ASSERT_TRUE(created.ok());
  txn::TransactionManager& tm = **created;

  const TransactionId t1 = *tm.Begin();
  EXPECT_TRUE(tm.Acquire(t1, 1, LockMode::kX).ok());
  tm.AdvanceTime(9);
  EXPECT_TRUE(tm.ExpireDeadlines().empty());
  tm.AdvanceTime(10);
  txn::ExpiryReport report = tm.ExpireDeadlines();
  EXPECT_EQ(report.aborted, std::vector<TransactionId>{t1});
  EXPECT_TRUE(report.expired.empty());  // it was never blocked
  EXPECT_EQ(*tm.State(t1), txn::TxnState::kAborted);
  EXPECT_TRUE(tm.CheckInvariants().ok());
}

// Same-tick race, sequential engine, expiry first: once both waits are
// withdrawn there is no cycle left, so the detection pass must resolve
// nothing — each wait is resolved exactly once.
TEST(TmDeadlineTest, SameTickExpiryThenDetectionResolvesOnce) {
  txn::TransactionManagerOptions options = PeriodicOptions();
  options.robustness.deadline.lock_wait = 2;
  Result<std::unique_ptr<txn::TransactionManager>> created =
      txn::TransactionManager::Create(options);
  ASSERT_TRUE(created.ok());
  txn::TransactionManager& tm = **created;

  const TransactionId t1 = *tm.Begin();
  const TransactionId t2 = *tm.Begin();
  EXPECT_TRUE(tm.Acquire(t1, 1, LockMode::kX).ok());
  EXPECT_TRUE(tm.Acquire(t2, 2, LockMode::kX).ok());
  EXPECT_TRUE(tm.Acquire(t1, 2, LockMode::kX).IsWouldBlock());
  EXPECT_TRUE(tm.Acquire(t2, 1, LockMode::kX).IsWouldBlock());

  tm.AdvanceTime(2);
  txn::ExpiryReport expiry = tm.ExpireDeadlines();
  EXPECT_EQ(expiry.expired.size(), 2u);
  EXPECT_TRUE(expiry.aborted.empty());

  core::ResolutionReport detection = tm.RunDetection();
  EXPECT_TRUE(detection.aborted.empty());  // the cycle is already gone
  EXPECT_EQ(*tm.State(t1), txn::TxnState::kActive);
  EXPECT_EQ(*tm.State(t2), txn::TxnState::kActive);
  EXPECT_TRUE(tm.CheckInvariants().ok());
}

// Same-tick race, detection first: the pass aborts a victim and grants
// the survivor, so the expiry sweep at the very same tick finds no
// blocked wait left to cancel.
TEST(TmDeadlineTest, SameTickDetectionThenExpiryResolvesOnce) {
  txn::TransactionManagerOptions options = PeriodicOptions();
  options.robustness.deadline.lock_wait = 2;
  Result<std::unique_ptr<txn::TransactionManager>> created =
      txn::TransactionManager::Create(options);
  ASSERT_TRUE(created.ok());
  txn::TransactionManager& tm = **created;

  const TransactionId t1 = *tm.Begin();
  const TransactionId t2 = *tm.Begin();
  EXPECT_TRUE(tm.Acquire(t1, 1, LockMode::kX).ok());
  EXPECT_TRUE(tm.Acquire(t2, 2, LockMode::kX).ok());
  EXPECT_TRUE(tm.Acquire(t1, 2, LockMode::kX).IsWouldBlock());
  EXPECT_TRUE(tm.Acquire(t2, 1, LockMode::kX).IsWouldBlock());

  tm.AdvanceTime(2);
  core::ResolutionReport detection = tm.RunDetection();
  ASSERT_EQ(detection.aborted.size(), 1u);
  const TransactionId victim = detection.aborted[0];
  const TransactionId survivor = victim == t1 ? t2 : t1;

  EXPECT_TRUE(tm.ExpireDeadlines().empty());
  EXPECT_EQ(*tm.State(victim), txn::TxnState::kAborted);
  EXPECT_EQ(*tm.State(survivor), txn::TxnState::kActive);
  EXPECT_TRUE(tm.CheckInvariants().ok());
}

// ---------------------------------------------------------------------
// Concurrent service: wall-clock deadlines (microseconds).
// ---------------------------------------------------------------------

TEST(ServiceDeadlineTest, ShardedEngineExpiresAndEscalates) {
  txn::ConcurrentServiceOptions options;
  options.num_shards = 2;
  options.robustness.deadline.lock_wait = 5'000;  // 5 ms
  options.robustness.deadline.abort_after = 1;    // first expiry escalates
  Result<std::unique_ptr<txn::ConcurrentLockService>> created =
      txn::ConcurrentLockService::Create(options);
  ASSERT_TRUE(created.ok());
  txn::ConcurrentLockService& service = **created;

  const TransactionId t1 = *service.Begin();
  const TransactionId t2 = *service.Begin();
  EXPECT_TRUE(service.AcquireBlocking(t1, 1, LockMode::kX).ok());

  Status blocked = service.AcquireBlocking(t2, 1, LockMode::kX);
  EXPECT_TRUE(blocked.IsDeadlineExceeded()) << blocked.ToString();
  EXPECT_EQ(service.deadline_expiries(), 1u);
  EXPECT_EQ(service.deadline_aborts(), 1u);
  EXPECT_EQ(*service.State(t2), txn::TxnState::kAborted);
  EXPECT_TRUE(service.CheckInvariants().ok());
  EXPECT_TRUE(service.Commit(t1).ok());
}

// Same-tick race, threaded sharded engine: two threads deadlock with
// short deadlines armed while a third hammers detection passes.  Whoever
// wins, every failed wait must come back with exactly one canonical
// resolution code and the service must stay invariant-clean.
TEST(ServiceDeadlineTest, ExpiryVersusDetectionRaceIsSingleResolve) {
  for (int round = 0; round < 20; ++round) {
    txn::ConcurrentServiceOptions options;
    options.num_shards = 2;
    options.robustness.deadline.lock_wait = 500;  // 0.5 ms
    options.robustness.deadline.abort_after = 1;
    Result<std::unique_ptr<txn::ConcurrentLockService>> created =
        txn::ConcurrentLockService::Create(options);
    ASSERT_TRUE(created.ok());
    txn::ConcurrentLockService& service = **created;

    std::atomic<bool> stop{false};
    std::atomic<int> resolutions{0};
    auto worker = [&](lock::ResourceId first, lock::ResourceId second) {
      const TransactionId tid = *service.Begin();
      Status a = service.AcquireBlocking(tid, first, LockMode::kX);
      ASSERT_TRUE(a.ok() || a.IsDeadlockVictim() || a.IsDeadlineExceeded())
          << a.ToString();
      if (!a.ok()) {
        resolutions.fetch_add(1);
        return;  // already resolved (and aborted: abort_after == 1)
      }
      Status b = service.AcquireBlocking(tid, second, LockMode::kX);
      ASSERT_TRUE(b.ok() || b.IsDeadlockVictim() || b.IsDeadlineExceeded())
          << b.ToString();
      if (!b.ok()) {
        // Exactly one mechanism resolved this wait; the transaction must
        // already be dead (victim, or deadline escalation).
        EXPECT_FALSE(b.IsDeadlockVictim() && b.IsDeadlineExceeded());
        EXPECT_EQ(*service.State(tid), txn::TxnState::kAborted);
        resolutions.fetch_add(1);
        return;
      }
      EXPECT_TRUE(service.Commit(tid).ok());
    };
    std::thread detector([&] {
      while (!stop.load()) service.RunDetectionPass();
    });
    std::thread w1(worker, 1, 2);
    std::thread w2(worker, 2, 1);
    w1.join();
    w2.join();
    stop.store(true);
    detector.join();

    // The deadlock (if it formed) was resolved at most once per waiter.
    EXPECT_LE(resolutions.load(), 2);
    EXPECT_EQ(service.deadline_aborts() + service.deadlock_victims(),
              static_cast<uint64_t>(resolutions.load()));
    EXPECT_TRUE(service.CheckInvariants(/*deep=*/true).ok());
  }
}

}  // namespace
}  // namespace twbg
