// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// The service's recycled transaction table: records are reused once their
// transaction terminates, finished tids are answered from a 1-bit outcome
// map, and an immediately granted acquire takes no txn_mu_.  These tests
// pin the reclamation hazards (a parked waiter on a victim, a stale tid
// meeting a reused slot), the structural txn_mu_ counts, and — through
// `twbg-trace check` — the safety and liveness of a recorded 4-shard
// churn history.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/sinks.h"
#include "tools/twbg_trace.h"
#include "txn/concurrent_service.h"

namespace twbg::txn {

// Reaches into the table to break it on purpose.
class ConcurrentLockServiceTestPeer {
 public:
  // Forgets which shards `tid` touched, so its termination releases
  // nothing and leaves its locks behind.
  static void DropShardRouting(ConcurrentLockService& service,
                               lock::TransactionId tid) {
    std::unique_lock<std::mutex> tl = service.LockTxnTable();
    service.Find(tid)->shard_mask.store(0);
  }
};

namespace {

using enum lock::LockMode;

std::unique_ptr<ConcurrentLockService> MakeService(
    ConcurrentServiceOptions options = {}) {
  auto created = ConcurrentLockService::Create(std::move(options));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::move(*created);
}

ConcurrentServiceOptions Shards(size_t n) {
  ConcurrentServiceOptions options;
  options.num_shards = n;
  return options;
}

void WaitUntilBlocked(ConcurrentLockService& service, lock::TransactionId tid) {
  while (*service.State(tid) != TxnState::kBlocked) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

// T1 holds X on R1 and waits (async) for R2; T2 holds X on R2 and parks on
// R1 — in AcquireBlocking, or in Await after an async request.  The pass
// aborts T2 (equal costs: the younger junction), and new transactions are
// begun at once, so a record recycled under the parked waiter would be
// reused (the free list is LIFO) and its waiter would read the newcomer's
// kActive.
void ParkedVictimReturnsDeadlockVictim(bool park_in_await) {
  auto service = MakeService();
  const lock::TransactionId t1 = *service->Begin();
  const lock::TransactionId t2 = *service->Begin();
  ASSERT_TRUE(service->AcquireBlocking(t1, 1, kX).ok());
  ASSERT_TRUE(service->AcquireBlocking(t2, 2, kX).ok());
  ASSERT_EQ(*service->AcquireAsync(t1, 2, kX), lock::RequestOutcome::kBlocked);
  Status parked_status;
  std::thread parked([&] {
    if (park_in_await) {
      ASSERT_EQ(*service->AcquireAsync(t2, 1, kX),
                lock::RequestOutcome::kBlocked);
      parked_status = service->Await(t2);
    } else {
      parked_status = service->AcquireBlocking(t2, 1, kX);
    }
  });
  WaitUntilBlocked(*service, t2);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // parked

  const core::ResolutionReport report = service->RunDetectionPass();
  ASSERT_EQ(report.aborted, std::vector<lock::TransactionId>{t2});
  std::vector<lock::TransactionId> newcomers;
  for (int i = 0; i < 4; ++i) newcomers.push_back(*service->Begin());
  parked.join();

  EXPECT_TRUE(parked_status.IsDeadlockVictim()) << parked_status.ToString();
  EXPECT_EQ(*service->State(t2), TxnState::kAborted);
  EXPECT_TRUE(service->Await(t1).ok());
  // The last waiter recycled the victim's record: T1 and the newcomers.
  EXPECT_EQ(service->txn_records(), 1 + newcomers.size());
  for (lock::TransactionId tid : newcomers) {
    EXPECT_EQ(*service->State(tid), TxnState::kActive);
    ASSERT_TRUE(service->Commit(tid).ok());
  }
  ASSERT_TRUE(service->Commit(t1).ok());
  EXPECT_EQ(service->txn_records(), 0u);
  EXPECT_TRUE(service->CheckInvariants().ok());
}

TEST(TxnTableTest, VictimParkedInAcquireBlockingReturnsDeadlockVictim) {
  for (int round = 0; round < 5; ++round) {
    ParkedVictimReturnsDeadlockVictim(/*park_in_await=*/false);
  }
}

TEST(TxnTableTest, VictimParkedInAwaitReturnsDeadlockVictim) {
  for (int round = 0; round < 5; ++round) {
    ParkedVictimReturnsDeadlockVictim(/*park_in_await=*/true);
  }
}

TEST(TxnTableTest, StaleTidKeepsItsOutcomeAfterSlotReuse) {
  auto service = MakeService();
  const lock::TransactionId t1 = *service->Begin();
  ASSERT_TRUE(service->AcquireBlocking(t1, 1, kX).ok());
  ASSERT_TRUE(service->Commit(t1).ok());
  const lock::TransactionId t2 = *service->Begin();  // T1's record
  EXPECT_EQ(service->txn_records(), 1u);
  ASSERT_TRUE(service->Abort(t2).ok());
  const lock::TransactionId t3 = *service->Begin();  // reused again

  EXPECT_EQ(*service->State(t1), TxnState::kCommitted);
  EXPECT_EQ(*service->State(t2), TxnState::kAborted);
  EXPECT_EQ(*service->State(t3), TxnState::kActive);
  // Operations on the stale tids see their own outcome, never T3's.
  EXPECT_TRUE(service->AcquireAsync(t1, 2, kS).status().IsFailedPrecondition());
  EXPECT_TRUE(service->Commit(t2).IsFailedPrecondition());
  EXPECT_TRUE(service->Abort(t1).IsFailedPrecondition());
  EXPECT_TRUE(service->Await(t1).IsFailedPrecondition());  // committed
  EXPECT_EQ(*service->State(t3), TxnState::kActive);
  ASSERT_TRUE(service->Commit(t3).ok());
}

TEST(TxnTableTest, AwaitOnRecycledVictimReturnsDeadlockVictim) {
  auto service = MakeService();
  const lock::TransactionId t1 = *service->Begin();
  const lock::TransactionId t2 = *service->Begin();
  ASSERT_TRUE(service->AcquireBlocking(t1, 1, kX).ok());
  ASSERT_TRUE(service->AcquireBlocking(t2, 2, kX).ok());
  ASSERT_EQ(*service->AcquireAsync(t1, 2, kX), lock::RequestOutcome::kBlocked);
  ASSERT_EQ(*service->AcquireAsync(t2, 1, kX), lock::RequestOutcome::kBlocked);
  const core::ResolutionReport report = service->RunDetectionPass();
  ASSERT_EQ(report.aborted, std::vector<lock::TransactionId>{t2});
  EXPECT_EQ(service->txn_records(), 1u);  // nobody parked: recycled at once
  const lock::TransactionId t3 = *service->Begin();

  EXPECT_TRUE(service->Await(t2).IsDeadlockVictim());
  EXPECT_TRUE(service->Await(t1).ok());
  EXPECT_TRUE(service->Await(t3).ok());
  ASSERT_TRUE(service->Commit(t1).ok());
  ASSERT_TRUE(service->Commit(t3).ok());
}

TEST(TxnTableTest, SetCostOnFinishedOrUnknownTids) {
  auto service = MakeService();
  const lock::TransactionId t1 = *service->Begin();
  ASSERT_TRUE(service->Commit(t1).ok());
  const lock::TransactionId t2 = *service->Begin();
  ASSERT_TRUE(service->Abort(t2).ok());
  EXPECT_TRUE(service->SetCost(t1, 2.0).IsFailedPrecondition());
  EXPECT_TRUE(service->SetCost(t2, 2.0).IsFailedPrecondition());
  EXPECT_TRUE(service->SetCost(t2 + 1, 2.0).IsNotFound());  // next tid
  EXPECT_TRUE(service->SetCost(t2 + 100, 2.0).IsNotFound());
  EXPECT_TRUE(service->SetCost(0, 2.0).IsNotFound());
  EXPECT_TRUE(service->State(t2 + 1).status().IsNotFound());
  EXPECT_TRUE(service->Await(t2 + 1).IsNotFound());
}

TEST(TxnTableTest, ImmediateAcquireTakesNoTxnMutex) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    auto service = MakeService(Shards(shards));
    const lock::TransactionId tid = *service->Begin();
    uint64_t before = ConcurrentLockService::txn_mu_acquisitions_this_thread();
    ASSERT_EQ(*service->AcquireAsync(tid, 1, kX),
              lock::RequestOutcome::kGranted);
    ASSERT_TRUE(service->AcquireBlocking(tid, 2, kS).ok());
    ASSERT_EQ(*service->AcquireAsync(tid, 2, kS),
              lock::RequestOutcome::kAlreadyHeld);
    EXPECT_EQ(ConcurrentLockService::txn_mu_acquisitions_this_thread(), before)
        << shards << " shard(s)";
    before = ConcurrentLockService::txn_mu_acquisitions_this_thread();
    ASSERT_TRUE(service->Commit(tid).ok());
    EXPECT_LE(ConcurrentLockService::txn_mu_acquisitions_this_thread() - before,
              1u);

    // A single-shard commit: one resource, so one shard.
    const lock::TransactionId one = *service->Begin();
    ASSERT_TRUE(service->AcquireBlocking(one, 7, kX).ok());
    before = ConcurrentLockService::txn_mu_acquisitions_this_thread();
    ASSERT_TRUE(service->Commit(one).ok());
    EXPECT_LE(ConcurrentLockService::txn_mu_acquisitions_this_thread() - before,
              1u);
  }
}

TEST(TxnTableTest, RecordsStayBoundedOver100kTransactions) {
  auto service = MakeService(Shards(4));
  size_t peak = 0;
  for (uint32_t i = 0; i < 100'000; ++i) {
    const lock::TransactionId tid = *service->Begin();
    ASSERT_TRUE(service->AcquireAsync(tid, i % 4096 + 1, kX).ok());
    if (i % 1024 == 0) peak = std::max(peak, service->txn_records());
    ASSERT_TRUE(service->Commit(tid).ok());
  }
  // Peak live transactions: 1; none pending reclamation.
  EXPECT_LE(peak, 1u);
  EXPECT_EQ(service->txn_records(), 0u);
  EXPECT_EQ(*service->State(1), TxnState::kCommitted);
  EXPECT_EQ(*service->State(100'000), TxnState::kCommitted);
}

TEST(TxnTableTest, CostsViewListsEachTransactionOnceAcrossShards) {
  auto service = MakeService(Shards(4));
  const lock::TransactionId t1 = *service->Begin();
  for (lock::ResourceId rid = 1; rid <= 8; ++rid) {
    ASSERT_TRUE(service->AcquireBlocking(t1, rid, kX).ok());
  }
  const lock::TransactionId t2 = *service->Begin();
  ASSERT_TRUE(service->AcquireBlocking(t2, 9, kS).ok());
  EXPECT_EQ(*service->RenderView(core::View::kCosts), "T1: 9.00\nT2: 2.00\n");
  ASSERT_TRUE(service->SetCost(t2, 0.5).ok());
  EXPECT_EQ(*service->RenderView(core::View::kCosts), "T1: 9.00\nT2: 0.50\n");
}

TEST(TxnTableTest, CheckInvariantsCatchesALeakedLock) {
  auto service = MakeService(Shards(4));
  const lock::TransactionId tid = *service->Begin();
  ASSERT_TRUE(service->AcquireBlocking(tid, 3, kX).ok());
  ASSERT_TRUE(service->CheckInvariants().ok());
  ConcurrentLockServiceTestPeer::DropShardRouting(*service, tid);
  ASSERT_TRUE(service->Commit(tid).ok());  // releases nothing
  const Status status = service->CheckInvariants();
  EXPECT_TRUE(status.IsInternal());
  EXPECT_NE(status.ToString().find("leaked locks"), std::string::npos)
      << status.ToString();
}

// 8 workers churn Begin / Acquire / Commit / Abort over a small hot set on
// 4 shards while the detector thread resolves their deadlocks and a reader
// polls State on tids that are mostly finished.  The bus-recorded history
// must pass `twbg-trace check`, and every tid must end with the outcome its
// worker saw.
TEST(TxnTableTest, ChurnHistoryPassesTheChecker) {
  constexpr int kWorkers = 8;
  constexpr int kTxnsPerWorker = 150;
  const std::string path = ::testing::TempDir() + "txn_table_churn.jsonl";
  auto sink = obs::JsonlSink::Open(path);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();
  obs::EventBus bus;
  bus.Subscribe(sink->get());
  ConcurrentServiceOptions options = Shards(4);
  options.detection_period = std::chrono::microseconds(500);
  options.event_bus = &bus;
  auto service = MakeService(options);

  std::atomic<lock::TransactionId> newest{0};
  std::vector<std::vector<std::pair<lock::TransactionId, TxnState>>> outcomes(
      kWorkers);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::mt19937 rng(7);
    while (!stop.load()) {
      const lock::TransactionId top = newest.load();
      if (top == 0) continue;
      const lock::TransactionId tid = rng() % top + 1;
      const Result<TxnState> state = service->State(tid);
      ASSERT_TRUE(state.ok()) << "T" << tid << ": "
                              << state.status().ToString();
    }
  });
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::mt19937 rng(100 + w);
      for (int i = 0; i < kTxnsPerWorker; ++i) {
        const lock::TransactionId tid = *service->Begin();
        lock::TransactionId seen = newest.load();
        while (seen < tid && !newest.compare_exchange_weak(seen, tid)) {
        }
        bool victim = false;
        const int locks = 1 + static_cast<int>(rng() % 3);
        for (int k = 0; k < locks && !victim; ++k) {
          const lock::ResourceId rid = rng() % 24 + 1;
          const lock::LockMode mode = rng() % 3 == 0 ? kX : kS;
          Status status;
          if (rng() % 2 == 0) {
            status = service->AcquireBlocking(tid, rid, mode);
          } else {
            Result<lock::RequestOutcome> outcome =
                service->AcquireAsync(tid, rid, mode);
            status = outcome.status();
            if (outcome.ok() && *outcome == lock::RequestOutcome::kBlocked) {
              status = service->Await(tid);
            }
          }
          victim = status.IsDeadlockVictim();
          ASSERT_TRUE(status.ok() || victim) << status.ToString();
        }
        TxnState end = TxnState::kAborted;
        if (!victim && rng() % 4 == 0) {
          ASSERT_TRUE(service->Abort(tid).ok());
        } else if (!victim) {
          ASSERT_TRUE(service->Commit(tid).ok());
          end = TxnState::kCommitted;
        }
        outcomes[w].emplace_back(tid, end);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(service->live_transactions(), 0u);
  EXPECT_EQ(service->txn_records(), 0u);
  EXPECT_TRUE(service->CheckInvariants().ok());
  for (const auto& per_worker : outcomes) {
    for (const auto& [tid, end] : per_worker) {
      EXPECT_EQ(*service->State(tid), end) << "T" << tid;
    }
  }
  service.reset();
  sink->reset();  // flush

  std::string out, err;
  EXPECT_EQ(tools::RunTraceTool({"check", path}, &out, &err), 0) << err;
  EXPECT_NE(out.find("check ok"), std::string::npos) << out;
}

TEST(TxnTableTest, CheckerRejectsCorruptedHistories) {
  const std::string dir = TWBG_FIXTURE_DIR;
  const std::pair<const char*, const char*> cases[] = {
      {"/check_incompatible_grant.jsonl", "R1: T2 holds S while T1 holds X"},
      {"/check_commit_without_release.jsonl", "T1 ended still holding R1"},
  };
  for (const auto& [file, message] : cases) {
    std::string out, err;
    EXPECT_EQ(tools::RunTraceTool({"check", dir + file}, &out, &err), 3)
        << file;
    EXPECT_NE(err.find(message), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace twbg::txn
