// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Unit tests for the robustness building blocks (retry backoff, admission
// watermarks, fault plans) and for the uniform Validate() contract on
// every options struct with a Create-style factory.

#include "txn/robustness/robustness.h"

#include <gtest/gtest.h>

#include <set>

#include "baselines/factory.h"
#include "sim/simulator.h"
#include "txn/concurrent_service.h"
#include "txn/transaction_manager.h"

namespace twbg::robustness {
namespace {

TEST(RetryBackoffTest, DeterministicUnderSeed) {
  RetryOptions options;
  options.backoff_base = 2;
  options.backoff_cap = 50;
  RetryBackoff a(options, 42);
  RetryBackoff b(options, 42);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.NextDelay(), b.NextDelay()) << "draw " << i;
  }
  RetryBackoff c(options, 43);
  bool diverged = false;
  RetryBackoff d(options, 42);
  for (int i = 0; i < 32; ++i) {
    if (c.NextDelay() != d.NextDelay()) diverged = true;
  }
  EXPECT_TRUE(diverged);  // different seeds give different sequences
}

TEST(RetryBackoffTest, StaysWithinBounds) {
  RetryOptions options;
  options.backoff_base = 3;
  options.backoff_cap = 20;
  RetryBackoff backoff(options, 7);
  for (int i = 0; i < 200; ++i) {
    const uint64_t delay = backoff.NextDelay();
    EXPECT_GE(delay, options.backoff_base);
    EXPECT_LE(delay, options.backoff_cap);
  }
}

TEST(RetryBackoffTest, ExhaustionAndReset) {
  RetryOptions options;
  options.max_attempts = 3;
  RetryBackoff backoff(options, 1);
  EXPECT_FALSE(backoff.Exhausted());
  (void)backoff.NextDelay();
  (void)backoff.NextDelay();
  EXPECT_FALSE(backoff.Exhausted());
  (void)backoff.NextDelay();
  EXPECT_TRUE(backoff.Exhausted());
  EXPECT_EQ(backoff.attempts(), 3u);
  backoff.Reset();
  EXPECT_FALSE(backoff.Exhausted());
  EXPECT_EQ(backoff.attempts(), 0u);

  RetryOptions unlimited;  // max_attempts = 0
  RetryBackoff forever(unlimited, 1);
  for (int i = 0; i < 100; ++i) (void)forever.NextDelay();
  EXPECT_FALSE(forever.Exhausted());
}

TEST(RetryOptionsTest, Validate) {
  RetryOptions ok;
  EXPECT_TRUE(ok.Validate().ok());
  RetryOptions zero_base;
  zero_base.backoff_base = 0;
  EXPECT_TRUE(zero_base.Validate().IsInvalidArgument());
  RetryOptions cap_below_base;
  cap_below_base.backoff_base = 10;
  cap_below_base.backoff_cap = 5;
  EXPECT_TRUE(cap_below_base.Validate().IsInvalidArgument());
}

TEST(WatermarkAdmissionTest, DefaultAdmitsEverything) {
  WatermarkAdmission policy{AdmissionOptions{}};
  AdmissionContext ctx;
  ctx.inflight_txns = 1'000'000;
  ctx.queue_depth = 1'000'000;
  EXPECT_TRUE(policy.AdmitBegin(ctx).ok());
  EXPECT_TRUE(policy.AdmitAcquire(ctx).ok());
}

TEST(WatermarkAdmissionTest, EnforcesWatermarks) {
  AdmissionOptions options;
  options.max_inflight_txns = 4;
  options.queue_depth_watermark = 3;
  WatermarkAdmission policy(options);
  AdmissionContext ctx;
  ctx.inflight_txns = 3;
  EXPECT_TRUE(policy.AdmitBegin(ctx).ok());
  ctx.inflight_txns = 4;
  EXPECT_TRUE(policy.AdmitBegin(ctx).IsResourceExhausted());
  ctx.queue_depth = 2;
  EXPECT_TRUE(policy.AdmitAcquire(ctx).ok());
  ctx.queue_depth = 3;
  EXPECT_TRUE(policy.AdmitAcquire(ctx).IsResourceExhausted());
}

TEST(AdmissionOptionsTest, ValidateRejectsWatermarkOfOne) {
  // A watermark of 1 would reject every request that finds any waiter —
  // including the retry that is supposed to drain the queue.
  AdmissionOptions options;
  options.queue_depth_watermark = 1;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.queue_depth_watermark = 2;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(FaultPlanTest, RandomIsDeterministic) {
  FaultPlanOptions options;
  options.num_faults = 8;
  Result<FaultPlan> a = FaultPlan::Random(123, options);
  Result<FaultPlan> b = FaultPlan::Random(123, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->faults.size(), 8u);
  EXPECT_EQ(a->ToString(), b->ToString());
  Result<FaultPlan> c = FaultPlan::Random(124, options);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->ToString(), c->ToString());
}

TEST(FaultPlanTest, RandomValidatesOptions) {
  FaultPlanOptions bad;
  bad.max_at = 0;
  EXPECT_TRUE(FaultPlan::Random(1, bad).status().IsInvalidArgument());
}

TEST(FaultInjectorTest, EachFaultFiresAtMostOnce) {
  FaultPlan plan;
  Fault crash;
  crash.kind = FaultKind::kCrashTxn;
  crash.txn = 3;
  crash.at = 5;
  plan.faults.push_back(crash);
  Fault drop;
  drop.kind = FaultKind::kDropWakeup;
  drop.txn = 3;
  plan.faults.push_back(drop);
  Fault stall;
  stall.kind = FaultKind::kStallShard;
  stall.shard = 1;
  stall.at = 9;
  plan.faults.push_back(stall);

  FaultInjector injector(plan);
  EXPECT_EQ(injector.remaining(), 3u);
  EXPECT_FALSE(injector.TakeAcquireFault(3, 4).has_value());
  ASSERT_TRUE(injector.TakeAcquireFault(3, 5).has_value());
  EXPECT_FALSE(injector.TakeAcquireFault(3, 5).has_value());  // once only
  EXPECT_TRUE(injector.TakeDropWakeup(3));
  EXPECT_FALSE(injector.TakeDropWakeup(3));
  EXPECT_FALSE(injector.TakeShardStall(0).has_value());
  EXPECT_TRUE(injector.TakeShardStall(1).has_value());
  EXPECT_EQ(injector.injected(), 3u);
  EXPECT_EQ(injector.remaining(), 0u);
}

TEST(FaultInjectorTest, TickFaultsDrainByTickButNotDropWakeups) {
  FaultPlan plan;
  Fault crash;
  crash.kind = FaultKind::kCrashTxn;
  crash.txn = 1;
  crash.at = 7;
  plan.faults.push_back(crash);
  Fault delay;
  delay.kind = FaultKind::kDelayGrant;
  delay.txn = 2;
  delay.at = 7;
  plan.faults.push_back(delay);
  Fault drop;
  drop.kind = FaultKind::kDropWakeup;
  drop.txn = 1;
  drop.at = 7;  // address ignored for drop-wakeup faults
  plan.faults.push_back(drop);

  FaultInjector injector(plan);
  EXPECT_TRUE(injector.TakeTickFaults(6).empty());
  std::vector<Fault> fired = injector.TakeTickFaults(7);
  ASSERT_EQ(fired.size(), 2u);
  std::set<FaultKind> kinds{fired[0].kind, fired[1].kind};
  EXPECT_TRUE(kinds.count(FaultKind::kCrashTxn));
  EXPECT_TRUE(kinds.count(FaultKind::kDelayGrant));
  EXPECT_TRUE(injector.TakeTickFaults(7).empty());  // drained
  EXPECT_TRUE(injector.TakeDropWakeup(1));          // still pending
}

TEST(RobustnessOptionsTest, ValidateAggregatesMemberGroups) {
  RobustnessOptions ok;
  EXPECT_TRUE(ok.Validate().ok());
  RobustnessOptions bad_retry;
  bad_retry.retry.backoff_base = 0;
  EXPECT_TRUE(bad_retry.Validate().IsInvalidArgument());
  RobustnessOptions bad_admission;
  bad_admission.admission.queue_depth_watermark = 1;
  EXPECT_TRUE(bad_admission.Validate().IsInvalidArgument());
  RobustnessOptions bad_degradation;
  bad_degradation.degradation.pause_budget_ns = 100;
  bad_degradation.degradation.sweep_patience = 0;
  EXPECT_TRUE(bad_degradation.Validate().IsInvalidArgument());
}

// Uniform Validate() contract: each Create-style factory rejects its bad
// options with kInvalidArgument instead of crashing.

TEST(ValidateContractTest, TransactionManagerCreate) {
  txn::TransactionManagerOptions options;
  options.robustness.retry.backoff_base = 0;
  EXPECT_TRUE(
      txn::TransactionManager::Create(options).status().IsInvalidArgument());
  EXPECT_TRUE(txn::TransactionManager::Create({}).ok());
}

TEST(ValidateContractTest, ConcurrentServiceCreate) {
  txn::ConcurrentServiceOptions options;
  options.robustness.admission.queue_depth_watermark = 1;
  EXPECT_TRUE(txn::ConcurrentLockService::Create(options)
                  .status()
                  .IsInvalidArgument());
}

TEST(ValidateContractTest, SimulatorCreate) {
  {
    sim::SimConfig config;
    config.workload.concurrency = 0;
    EXPECT_TRUE(
        sim::Simulator::Create(config, baselines::MakeStrategy("none"))
            .status()
            .IsInvalidArgument());
  }
  {
    sim::SimConfig config;
    config.record_trace = true;
    config.trace_capacity = 0;
    EXPECT_TRUE(
        sim::Simulator::Create(config, baselines::MakeStrategy("none"))
            .status()
            .IsInvalidArgument());
  }
  {
    sim::SimConfig config;
    config.robustness.deadline.lock_wait = 5;
    config.robustness.retry.backoff_cap = 0;
    EXPECT_TRUE(
        sim::Simulator::Create(config, baselines::MakeStrategy("none"))
            .status()
            .IsInvalidArgument());
  }
  EXPECT_TRUE(sim::Simulator::Create({}, nullptr).status().IsInvalidArgument());
  sim::SimConfig config;
  config.workload.num_transactions = 5;
  config.workload.concurrency = 2;
  Result<std::unique_ptr<sim::Simulator>> sim =
      sim::Simulator::Create(config, baselines::MakeStrategy("hwtwbg-periodic"));
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ((*sim)->Run().committed, 5u);
}

// Default options create a working one-shard periodic service with no
// detector thread: passes run when the caller asks for them.
TEST(ValidateContractTest, DefaultCreateIsOneShardPeriodicService) {
  Result<std::unique_ptr<txn::ConcurrentLockService>> service =
      txn::ConcurrentLockService::Create({});
  ASSERT_TRUE(service.ok());
  txn::ConcurrentLockService& s = **service;
  EXPECT_EQ(s.num_shards(), 1u);
  EXPECT_EQ(s.current_detection_period_us(), 0u);
  const lock::TransactionId t1 = *s.Begin();
  const lock::TransactionId t2 = *s.Begin();
  EXPECT_TRUE(s.AcquireBlocking(t1, 1, lock::LockMode::kX).ok());
  EXPECT_TRUE(s.AcquireBlocking(t2, 2, lock::LockMode::kX).ok());
  // A cross deadlock stays until a pass resolves it.
  EXPECT_EQ(*s.AcquireAsync(t1, 2, lock::LockMode::kX),
            lock::RequestOutcome::kBlocked);
  EXPECT_EQ(*s.AcquireAsync(t2, 1, lock::LockMode::kX),
            lock::RequestOutcome::kBlocked);
  EXPECT_EQ(s.snapshot_epoch(), 0u);
  EXPECT_TRUE(*s.HasDeadlock());
  const core::ResolutionReport report = s.RunDetectionPass();
  ASSERT_EQ(report.aborted.size(), 1u);
  EXPECT_EQ(s.snapshot_epoch(), 1u);
  EXPECT_EQ(s.deadlock_victims(), 1u);
  const lock::TransactionId survivor = report.aborted[0] == t1 ? t2 : t1;
  EXPECT_EQ(*s.State(survivor), txn::TxnState::kActive);
  EXPECT_TRUE(s.Commit(survivor).ok());
  EXPECT_EQ(s.live_transactions(), 0u);
  EXPECT_TRUE(s.CheckInvariants().ok());
}

}  // namespace
}  // namespace twbg::robustness
