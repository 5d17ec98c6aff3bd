// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Fault-injection differential suite.  The same seeded, schedule-
// addressable FaultPlans are injected into both hosts — the discrete-time
// simulator and the threaded sharded service — across hundreds of
// (schedule, fault plan, robustness config) combinations, and every run
// must converge to a quiescent, invariant-clean state with no leaked
// waiters.  Also covers the graceful-degradation ladder and the
// AcquireWithRetry client helper.

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "baselines/factory.h"
#include "obs/bus.h"
#include "obs/sinks.h"
#include "sim/simulator.h"
#include "txn/concurrent_service.h"
#include "txn/robustness/robustness.h"

namespace twbg {
namespace {

using lock::LockMode;
using lock::TransactionId;

// ---------------------------------------------------------------------
// Differential sweep, simulator host: 400 seeded combinations.
// ---------------------------------------------------------------------

TEST(FaultDifferentialTest, SimulatorConvergesUnderFaultPlans) {
  int runs = 0;
  for (uint64_t seed = 0; seed < 100; ++seed) {
    for (int variant = 0; variant < 4; ++variant) {
      SCOPED_TRACE(testing::Message()
                   << "seed=" << seed << " variant=" << variant);
      sim::SimConfig config;
      config.workload.seed = seed + 1;
      config.workload.num_transactions = 10;
      config.workload.concurrency = 4;
      config.workload.num_resources = 4;
      config.workload.zipf_theta = 0.9;
      config.workload.min_ops = 2;
      config.workload.max_ops = 5;
      config.detection_period = 5;
      config.max_ticks = 100'000;

      robustness::FaultPlanOptions fault_options;
      fault_options.num_faults = 4;
      fault_options.max_at = 120;
      fault_options.max_txn = 10;
      fault_options.max_shard = 1;  // the simulator is unsharded
      fault_options.max_duration = 3;
      Result<robustness::FaultPlan> plan =
          robustness::FaultPlan::Random(seed * 4 + variant, fault_options);
      ASSERT_TRUE(plan.ok());
      config.fault_plan = *plan;

      const char* strategy = "hwtwbg-periodic";
      switch (variant) {
        case 0:
          break;  // faults only; the detector is the sole resolver
        case 1:   // faults + lock-wait deadlines alongside the detector
          config.robustness.deadline.lock_wait = 6;
          config.robustness.deadline.abort_after = 3;
          break;
        case 2:  // + admission control and backpressure
          config.robustness.deadline.lock_wait = 6;
          config.robustness.deadline.abort_after = 3;
          config.robustness.admission.max_inflight_txns = 3;
          config.robustness.admission.queue_depth_watermark = 3;
          break;
        case 3:  // the deadline layer is the only resolver
          strategy = "none";
          config.detection_period = 0;
          config.robustness.deadline.lock_wait = 4;
          config.robustness.deadline.abort_after = 2;
          break;
      }

      Result<std::unique_ptr<sim::Simulator>> sim =
          sim::Simulator::Create(config, baselines::MakeStrategy(strategy));
      ASSERT_TRUE(sim.ok());
      sim::SimMetrics metrics = (*sim)->Run();

      // Quiescent convergence: every logical transaction committed.
      EXPECT_FALSE(metrics.timed_out);
      EXPECT_EQ(metrics.committed, config.workload.num_transactions);
      // Invariant-clean, no leaked waiters: all locks released, nothing
      // left blocked, nothing still registered.
      const lock::LockManager& lm = (*sim)->lock_manager();
      EXPECT_TRUE(lm.CheckInvariants(/*deep=*/true).ok());
      EXPECT_TRUE(lm.BlockedTransactions().empty());
      EXPECT_TRUE(lm.KnownTransactions().empty());
      // Resolution accounting stays disjoint.
      if (variant == 0) {
        EXPECT_EQ(metrics.deadline_expired_waits, 0u);
        EXPECT_EQ(metrics.deadline_aborts, 0u);
      }
      if (variant == 3) {
        EXPECT_EQ(metrics.deadlock_aborts, 0u);
      }
      ++runs;
    }
  }
  EXPECT_EQ(runs, 400);
}

// ---------------------------------------------------------------------
// Differential sweep, threaded service host: 100 seeded combinations.
// ---------------------------------------------------------------------

TEST(FaultDifferentialTest, ServiceConvergesUnderFaultPlans) {
  int runs = 0;
  for (uint64_t seed = 0; seed < 25; ++seed) {
    for (int variant = 0; variant < 4; ++variant) {
      SCOPED_TRACE(testing::Message()
                   << "seed=" << seed << " variant=" << variant);
      txn::ConcurrentServiceOptions options;
      options.num_shards = 1 + seed % 4;
      options.detection_period = std::chrono::microseconds(300);
      options.robustness.deadline.lock_wait = 1'000;  // 1 ms
      options.robustness.deadline.abort_after = 2;
      if (variant >= 2) {
        options.robustness.admission.max_inflight_txns = 3;
        options.robustness.admission.queue_depth_watermark = 3;
      }
      size_t planned_faults = 0;
      if (variant % 2 == 1) {
        robustness::FaultPlanOptions fault_options;
        fault_options.num_faults = 3;
        fault_options.max_at = 6;  // per-txn operation index
        fault_options.max_txn = 12;
        fault_options.max_shard = static_cast<uint32_t>(options.num_shards);
        fault_options.max_duration = 200;  // microseconds
        Result<robustness::FaultPlan> plan =
            robustness::FaultPlan::Random(seed * 4 + variant, fault_options);
        ASSERT_TRUE(plan.ok());
        planned_faults = plan->faults.size();
        options.fault_plan = *plan;
      }
      Result<std::unique_ptr<txn::ConcurrentLockService>> created =
          txn::ConcurrentLockService::Create(options);
      ASSERT_TRUE(created.ok());
      txn::ConcurrentLockService& service = **created;

      robustness::RetryOptions retry;
      retry.backoff_base = 100;  // microseconds
      retry.backoff_cap = 400;
      retry.max_attempts = 3;

      auto worker = [&](uint64_t worker_id) {
        for (int t = 0; t < 3; ++t) {
          // Begin under admission control: shed Begins retry after a nap.
          Result<TransactionId> began = service.Begin();
          while (!began.ok()) {
            ASSERT_TRUE(began.status().IsResourceExhausted())
                << began.status().ToString();
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            began = service.Begin();
          }
          const TransactionId tid = *began;
          bool alive = true;
          for (int op = 0; op < 2 && alive; ++op) {
            // Deterministic contended resource pick (4 resources).
            const lock::ResourceId rid = static_cast<lock::ResourceId>(
                1 + (seed + worker_id * 7 + static_cast<uint64_t>(t) * 3 +
                     static_cast<uint64_t>(op)) %
                        4);
            Status s = txn::AcquireWithRetry(service, tid, rid, LockMode::kX,
                                             retry, seed ^ (tid * 31));
            if (!s.ok()) {
              // Deadlock victim, injected crash, or retry exhaustion —
              // in every case the transaction is already aborted.
              ASSERT_TRUE(s.IsAborted() || s.IsDeadlineExceeded() ||
                          s.IsResourceExhausted())
                  << s.ToString();
              Result<txn::TxnState> state = service.State(tid);
              ASSERT_TRUE(state.ok());
              EXPECT_EQ(*state, txn::TxnState::kAborted);
              alive = false;
            }
          }
          if (alive) {
            EXPECT_TRUE(service.Commit(tid).ok());
          }
        }
      };
      std::thread w1(worker, 1);
      std::thread w2(worker, 2);
      std::thread w3(worker, 3);
      w1.join();
      w2.join();
      w3.join();

      // Quiescent: every transaction terminated by its worker; the table
      // must be invariant-clean with no leaked waiter in any shard.
      EXPECT_TRUE(service.CheckInvariants(/*deep=*/true).ok());
      if (planned_faults != 0) {
        ASSERT_NE(service.fault_injector(), nullptr);
        EXPECT_EQ(service.fault_injector()->injected() +
                      service.fault_injector()->remaining(),
                  planned_faults);
      }
      ++runs;
    }
  }
  EXPECT_EQ(runs, 100);
}

// ---------------------------------------------------------------------
// Graceful degradation: budget overrun -> K cheap sweeps -> recovery.
// ---------------------------------------------------------------------

TEST(DegradationTest, BudgetOverrunRunsSweepLadderThenRecovers) {
  obs::EventBus bus;
  obs::CollectorSink sink;
  bus.Subscribe(&sink);

  txn::ConcurrentServiceOptions options;
  options.num_shards = 2;
  options.event_bus = &bus;
  options.robustness.degradation.pause_budget_ns = 1;  // every pass overruns
  options.robustness.degradation.degraded_passes = 2;
  options.robustness.degradation.sweep_patience = 1;
  Result<std::unique_ptr<txn::ConcurrentLockService>> created =
      txn::ConcurrentLockService::Create(options);
  ASSERT_TRUE(created.ok());
  txn::ConcurrentLockService& service = **created;

  const TransactionId t1 = *service.Begin();
  EXPECT_TRUE(service.AcquireBlocking(t1, 1, LockMode::kX).ok());

  // Pass 1 is a full pass; its pause (> 1 ns) degrades the service.
  service.RunDetectionPass();
  EXPECT_EQ(service.degraded_passes_remaining(), 2u);
  EXPECT_EQ(sink.Count(obs::EventKind::kDegraded), 1u);

  // A waiter blocks on t1's lock; no deadline, no deadlock — only the
  // degraded timeout sweep can (wrongly but cheaply) resolve it.
  std::thread waiter([&] {
    const TransactionId t2 = *service.Begin();
    Status s = service.AcquireBlocking(t2, 1, LockMode::kX);
    EXPECT_TRUE(s.IsAborted()) << s.ToString();
  });
  // Wait until the service observes the waiter (T2) as blocked.
  while (true) {
    Result<txn::TxnState> state = service.State(2);
    if (state.ok() && *state == txn::TxnState::kBlocked) break;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  // Pass 2 is a sweep: patience 1 aborts the blocked waiter.
  service.RunDetectionPass();
  EXPECT_EQ(service.sweep_aborts(), 1u);
  EXPECT_EQ(service.degraded_passes_remaining(), 1u);
  waiter.join();

  // Pass 3 is the last sweep of the ladder; nothing left to abort.
  service.RunDetectionPass();
  EXPECT_EQ(service.degraded_passes_remaining(), 0u);
  EXPECT_EQ(service.sweep_aborts(), 1u);

  // Pass 4 runs full detection again — and re-degrades (the budget is
  // still 1 ns), proving the engine actually left the sweep mode.
  service.RunDetectionPass();
  EXPECT_EQ(sink.Count(obs::EventKind::kDegraded), 2u);
  EXPECT_EQ(service.degraded_passes_remaining(), 2u);

  EXPECT_TRUE(service.Commit(t1).ok());
  EXPECT_TRUE(service.CheckInvariants(/*deep=*/true).ok());
}

// ---------------------------------------------------------------------
// AcquireWithRetry: backoff-and-retry client helper.
// ---------------------------------------------------------------------

TEST(AcquireWithRetryTest, ExhaustedRetriesAbortTheTransaction) {
  txn::ConcurrentServiceOptions options;
  options.num_shards = 2;
  options.robustness.deadline.lock_wait = 2'000;  // 2 ms
  Result<std::unique_ptr<txn::ConcurrentLockService>> created =
      txn::ConcurrentLockService::Create(options);
  ASSERT_TRUE(created.ok());
  txn::ConcurrentLockService& service = **created;

  const TransactionId t1 = *service.Begin();
  const TransactionId t2 = *service.Begin();
  EXPECT_TRUE(service.AcquireBlocking(t1, 1, LockMode::kX).ok());

  robustness::RetryOptions retry;
  retry.backoff_base = 100;
  retry.backoff_cap = 300;
  retry.max_attempts = 2;
  uint32_t attempts = 0;
  Status s =
      txn::AcquireWithRetry(service, t2, 1, LockMode::kX, retry, 7, &attempts);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  // max_attempts bounds the *retries*: the initial call plus 2 backed-off
  // retries, each ending in a deadline expiry.
  EXPECT_EQ(attempts, 3u);
  EXPECT_EQ(service.deadline_expiries(), 3u);
  // The helper's client-side abort-after-N: the transaction is gone.
  EXPECT_EQ(*service.State(t2), txn::TxnState::kAborted);
  EXPECT_TRUE(service.Commit(t1).ok());
  EXPECT_TRUE(service.CheckInvariants(/*deep=*/true).ok());
}

TEST(AcquireWithRetryTest, SucceedsOnceContentionClears) {
  txn::ConcurrentServiceOptions options;
  options.num_shards = 2;
  options.robustness.deadline.lock_wait = 1'000;  // 1 ms
  Result<std::unique_ptr<txn::ConcurrentLockService>> created =
      txn::ConcurrentLockService::Create(options);
  ASSERT_TRUE(created.ok());
  txn::ConcurrentLockService& service = **created;

  const TransactionId t1 = *service.Begin();
  const TransactionId t2 = *service.Begin();
  EXPECT_TRUE(service.AcquireBlocking(t1, 1, LockMode::kX).ok());
  std::thread holder([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
    EXPECT_TRUE(service.Commit(t1).ok());
  });

  robustness::RetryOptions retry;
  retry.backoff_base = 100;
  retry.backoff_cap = 300;
  retry.max_attempts = 0;  // unlimited
  uint32_t attempts = 0;
  Status s =
      txn::AcquireWithRetry(service, t2, 1, LockMode::kX, retry, 9, &attempts);
  holder.join();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GE(attempts, 2u);  // the 1 ms deadline fired at least once
  EXPECT_TRUE(service.Commit(t2).ok());
  EXPECT_TRUE(service.CheckInvariants(/*deep=*/true).ok());
}

// ---------------------------------------------------------------------
// Admission control and backpressure on the service.
// ---------------------------------------------------------------------

TEST(AdmissionTest, BeginIsShedAtMaxInflight) {
  txn::ConcurrentServiceOptions options;
  options.num_shards = 2;
  options.robustness.admission.max_inflight_txns = 1;
  Result<std::unique_ptr<txn::ConcurrentLockService>> created =
      txn::ConcurrentLockService::Create(options);
  ASSERT_TRUE(created.ok());
  txn::ConcurrentLockService& service = **created;

  Result<TransactionId> t1 = service.Begin();
  ASSERT_TRUE(t1.ok());
  Result<TransactionId> shed = service.Begin();
  EXPECT_TRUE(shed.status().IsResourceExhausted()) << shed.status().ToString();
  EXPECT_EQ(service.admission_rejects(), 1u);

  EXPECT_TRUE(service.Commit(*t1).ok());
  EXPECT_TRUE(service.Begin().ok());  // slot freed
}

TEST(AdmissionTest, AcquireIsShedAtQueueDepthWatermark) {
  txn::ConcurrentServiceOptions options;
  options.num_shards = 1;
  options.robustness.admission.queue_depth_watermark = 2;
  options.robustness.deadline.lock_wait = 50'000;  // waiters self-release
  Result<std::unique_ptr<txn::ConcurrentLockService>> created =
      txn::ConcurrentLockService::Create(options);
  ASSERT_TRUE(created.ok());
  txn::ConcurrentLockService& service = **created;

  const TransactionId t1 = *service.Begin();
  EXPECT_TRUE(service.AcquireBlocking(t1, 1, LockMode::kX).ok());
  std::atomic<int> settled{0};
  auto block_on_r1 = [&] {
    const TransactionId tid = *service.Begin();
    Status s = service.AcquireBlocking(tid, 1, LockMode::kX);
    if (s.ok()) {
      EXPECT_TRUE(service.Commit(tid).ok());
    } else {
      EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
      EXPECT_TRUE(service.Abort(tid).ok());
    }
    settled.fetch_add(1);
  };
  std::thread w2(block_on_r1);
  std::thread w3(block_on_r1);
  // Wait for both waiters to be queued on resource 1's shard.
  while (true) {
    size_t blocked = 0;
    for (TransactionId tid = 2; tid <= 3; ++tid) {
      Result<txn::TxnState> state = service.State(tid);
      if (state.ok() && *state == txn::TxnState::kBlocked) ++blocked;
    }
    if (blocked == 2) break;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  const TransactionId t4 = *service.Begin();
  Status shed = service.AcquireBlocking(t4, 1, LockMode::kX);
  EXPECT_TRUE(shed.IsResourceExhausted()) << shed.ToString();
  EXPECT_GE(service.admission_rejects(), 1u);
  EXPECT_TRUE(service.Abort(t4).ok());

  EXPECT_TRUE(service.Commit(t1).ok());  // drain the queue
  w2.join();
  w3.join();
  EXPECT_EQ(settled.load(), 2);
  EXPECT_TRUE(service.CheckInvariants(/*deep=*/true).ok());
}

}  // namespace
}  // namespace twbg
