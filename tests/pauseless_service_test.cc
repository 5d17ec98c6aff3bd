// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Pauseless (kEpochDelta) periodic detection: report parity against the
// stop-the-world strategy and the sequential manager on a quiesced
// table, deterministic stale-command injection through the seal-to-apply
// window (post_seal_hook), and fault-injected chaos with a live detector
// thread.  The stale-command tests pin the paper's safety story: a
// rejected command is re-resolved within one extra pass, a command whose
// cycle dissolved in the window never produces a phantom victim, and no
// transaction is ever double-victimized.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/bus.h"
#include "obs/sinks.h"
#include "obs/span.h"
#include "obs/span_sinks.h"
#include "txn/concurrent_service.h"
#include "txn/epoch_snapshot.h"
#include "txn/robustness/robustness.h"
#include "txn/transaction_manager.h"

namespace twbg::txn {
namespace {

using enum lock::LockMode;

// Graph-cache hit counts depend on how a table was populated (live
// journals vs. folded mirrors), so cross-engine report comparisons strip
// the cache line; everything else must match byte-for-byte.
std::string StripCacheLines(const std::string& s) {
  std::istringstream in(s);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.find("graph-cache:") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

void WaitUntilBlocked(ConcurrentLockService& service,
                      lock::TransactionId tid) {
  while (*service.State(tid) != TxnState::kBlocked) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Builds two disjoint deadlocks with deterministic tids and block order —
// a 2-cycle (T1 <-> T2 over R1/R2) and a 3-cycle (T3 -> T4 -> T5 -> T3
// over R3/R4/R5) — runs one pass, lets every thread finish, and returns
// the report.  Exactly two victims (one per cycle); the survivors cascade
// to commit once their grants arrive.
void BuildCyclesAndRunPass(ConcurrentLockService& s,
                           core::ResolutionReport* report,
                           int* victims_out) {
  const lock::TransactionId t1 = *s.Begin();
  const lock::TransactionId t2 = *s.Begin();
  const lock::TransactionId t3 = *s.Begin();
  const lock::TransactionId t4 = *s.Begin();
  const lock::TransactionId t5 = *s.Begin();
  ASSERT_TRUE(s.AcquireBlocking(t1, 1, kX).ok());
  ASSERT_TRUE(s.AcquireBlocking(t2, 2, kX).ok());
  ASSERT_TRUE(s.AcquireBlocking(t3, 3, kX).ok());
  ASSERT_TRUE(s.AcquireBlocking(t4, 4, kX).ok());
  ASSERT_TRUE(s.AcquireBlocking(t5, 5, kX).ok());

  std::atomic<int> victims{0};
  auto block = [&s, &victims](lock::TransactionId t, lock::ResourceId rid) {
    Status status = s.AcquireBlocking(t, rid, kX);
    if (status.IsAborted()) {
      ++victims;
      return;
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(s.Commit(t).ok());
  };
  std::vector<std::thread> threads;
  auto spawn = [&](lock::TransactionId t, lock::ResourceId rid) {
    threads.emplace_back(block, t, rid);
    WaitUntilBlocked(s, t);
  };
  spawn(t1, 2);
  spawn(t2, 1);
  spawn(t3, 4);
  spawn(t4, 5);
  spawn(t5, 3);

  *report = s.RunDetectionPass();
  for (std::thread& thread : threads) thread.join();
  *victims_out = victims.load();
}

ConcurrentServiceOptions QuiescedOptions(SnapshotStrategy strategy) {
  ConcurrentServiceOptions options;
  options.num_shards = 4;
  options.snapshot_strategy = strategy;
  options.cost_policy = CostPolicy::kLocksHeld;
  return options;
}

// The acceptance bar for the pauseless rewrite: on a quiesced table the
// epoch-snapshot pass and the stop-the-world pass produce byte-identical
// resolution reports, and both match the sequential manager running the
// same schedule.
TEST(PauselessServiceTest, QuiescedReportParityAcrossEngines) {
  core::ResolutionReport pauseless_report;
  int pauseless_victims = 0;
  {
    auto service =
        ConcurrentLockService::Create(QuiescedOptions(SnapshotStrategy::kEpochDelta));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    BuildCyclesAndRunPass(**service, &pauseless_report, &pauseless_victims);
    EXPECT_EQ((*service)->publish_pause_times_ns().size(),
              (*service)->num_shards());
    EXPECT_EQ((*service)->detection_lag_ns().size(), 1u);
    EXPECT_TRUE((*service)->sweep_pause_times_ns().empty());
    EXPECT_EQ((*service)->pause_times_ns().size(), 1u);
    EXPECT_EQ((*service)->resolutions_rejected(), 0u);
  }

  core::ResolutionReport stw_report;
  int stw_victims = 0;
  {
    auto service = ConcurrentLockService::Create(
        QuiescedOptions(SnapshotStrategy::kStopTheWorld));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    BuildCyclesAndRunPass(**service, &stw_report, &stw_victims);
    EXPECT_TRUE((*service)->publish_pause_times_ns().empty());
    EXPECT_TRUE((*service)->detection_lag_ns().empty());
  }

  // The same schedule on the sequential manager (blocked acquires return
  // kWouldBlock instead of parking a thread).
  TransactionManagerOptions seq_options;
  seq_options.detection_mode = DetectionMode::kPeriodic;
  seq_options.cost_policy = CostPolicy::kLocksHeld;
  TransactionManager tm(seq_options);
  std::vector<lock::TransactionId> tids;
  for (int i = 0; i < 5; ++i) tids.push_back(*tm.Begin());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        tm.Acquire(tids[i], static_cast<lock::ResourceId>(i + 1), kX).ok());
  }
  ASSERT_TRUE(tm.Acquire(tids[0], 2, kX).IsWouldBlock());
  ASSERT_TRUE(tm.Acquire(tids[1], 1, kX).IsWouldBlock());
  ASSERT_TRUE(tm.Acquire(tids[2], 4, kX).IsWouldBlock());
  ASSERT_TRUE(tm.Acquire(tids[3], 5, kX).IsWouldBlock());
  ASSERT_TRUE(tm.Acquire(tids[4], 3, kX).IsWouldBlock());
  core::ResolutionReport seq_report = tm.RunDetection();

  EXPECT_EQ(pauseless_victims, 2);
  EXPECT_EQ(stw_victims, 2);
  EXPECT_EQ(pauseless_report.rejected, 0u);
  EXPECT_EQ(pauseless_report.ToString(), stw_report.ToString());
  EXPECT_EQ(StripCacheLines(pauseless_report.ToString()),
            StripCacheLines(seq_report.ToString()));
}

// A bystander queued on a cycle resource aborts inside the seal-to-apply
// window.  The cycle itself survives, but the evidence stamp on the
// shared resource moved, so the pass must drop its command (no victim,
// no partial apply) and the very next pass must resolve the same cycle —
// with exactly one victim in total across both passes.
// A walk-phase TDR-2 mutates the MIRROR before its validated apply runs;
// if the apply then rejects the decision, the live shard never changes,
// so the live journal will never re-dirty that resource.  Capture must
// re-stage everything the mirror's own journal recorded since the last
// fold, or the mirror diverges from a quiesced live shard forever and
// every later pass re-derives (and re-rejects) resolutions from corrupt
// state — the exact wedge bench_throughput's stall watchdog caught on
// the shards=8 high-contention cell.
TEST(ShardSnapshotTest, DetectPhaseMirrorMutationsAreRestagedFromLive) {
  lock::LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, 7, kX).ok());
  ASSERT_TRUE(lm.Acquire(2, 7, kX).ok());  // queues behind T1
  ShardSnapshot snapshot;
  (void)snapshot.Capture(lm);
  snapshot.Fold();
  const uint64_t live_version = lm.table().Find(7)->version();
  ASSERT_EQ(snapshot.table().Find(7)->version(), live_version);

  // Simulate the walk mutating the mirror (journaled, as NoteTdr2Applied
  // does) for a decision the validated apply will reject: the mirror
  // moves, the live table does not.
  snapshot.mutable_table().FindMutable(7)->Remove(2);
  ASSERT_NE(snapshot.table().Find(7)->version(), live_version);

  ShardCaptureStats stats = snapshot.Capture(lm);
  EXPECT_EQ(stats.dirty, 1u);
  EXPECT_FALSE(stats.full_sweep);
  snapshot.Fold();
  EXPECT_EQ(snapshot.table().Find(7)->version(), live_version);
  EXPECT_EQ(snapshot.table().Find(7)->ToString(),
            lm.table().Find(7)->ToString());
}

TEST(PauselessServiceTest, StaleCommandIsRetriedByTheNextPass) {
  ConcurrentServiceOptions options;
  options.num_shards = 2;
  ConcurrentLockService* raw = nullptr;
  lock::TransactionId bystander = 0;
  std::atomic<int> hook_fires{0};
  options.post_seal_hook = [&] {
    if (hook_fires.fetch_add(1) == 0) {
      EXPECT_TRUE(raw->Abort(bystander).ok());
    }
  };
  auto service = ConcurrentLockService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  raw = service->get();

  const lock::TransactionId t1 = *raw->Begin();
  const lock::TransactionId t2 = *raw->Begin();
  bystander = *raw->Begin();
  ASSERT_TRUE(raw->AcquireBlocking(t1, 1, kX).ok());
  ASSERT_TRUE(raw->AcquireBlocking(t2, 2, kX).ok());

  std::atomic<int> cycle_aborts{0};
  std::atomic<int> bystander_aborts{0};
  auto block = [&](lock::TransactionId t, lock::ResourceId rid,
                   std::atomic<int>* aborts) {
    Status status = raw->AcquireBlocking(t, rid, kX);
    if (status.IsAborted()) {
      ++*aborts;
      return;
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(raw->Commit(t).ok());
  };
  std::thread a(block, t1, 2, &cycle_aborts);
  WaitUntilBlocked(*raw, t1);
  std::thread b(block, t2, 1, &cycle_aborts);
  WaitUntilBlocked(*raw, t2);
  std::thread c(block, bystander, 1, &bystander_aborts);
  WaitUntilBlocked(*raw, bystander);

  core::ResolutionReport first = raw->RunDetectionPass();
  EXPECT_EQ(first.cycles_detected, 1u);
  EXPECT_EQ(first.rejected, 1u);
  EXPECT_TRUE(first.aborted.empty());
  EXPECT_TRUE(first.decisions.empty());
  EXPECT_NE(first.ToString().find("rejected: 1 stale"), std::string::npos);
  EXPECT_EQ(raw->deadlock_victims(), 0u);  // no phantom victim

  core::ResolutionReport second = raw->RunDetectionPass();
  EXPECT_EQ(second.rejected, 0u);
  EXPECT_EQ(second.aborted.size(), 1u);
  a.join();
  b.join();
  c.join();
  EXPECT_EQ(cycle_aborts.load(), 1);  // no double victim
  EXPECT_EQ(bystander_aborts.load(), 1);
  EXPECT_EQ(raw->deadlock_victims(), 1u);
  EXPECT_EQ(raw->resolutions_rejected(), 1u);
  EXPECT_EQ(raw->pause_times_ns().size(), 2u);
  EXPECT_EQ(raw->publish_pause_times_ns().size(), 2 * raw->num_shards());
  EXPECT_EQ(raw->detection_lag_ns().size(), 2u);
}

// A cycle *member* aborts inside the window: the deadlock dissolves
// before the command lands, so the stale command must be dropped and no
// later pass may ever produce a victim for it.
TEST(PauselessServiceTest, DissolvedCycleNeverYieldsAVictim) {
  ConcurrentServiceOptions options;
  options.num_shards = 2;
  ConcurrentLockService* raw = nullptr;
  lock::TransactionId member = 0;
  std::atomic<int> hook_fires{0};
  options.post_seal_hook = [&] {
    if (hook_fires.fetch_add(1) == 0) {
      EXPECT_TRUE(raw->Abort(member).ok());
    }
  };
  auto service = ConcurrentLockService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  raw = service->get();

  const lock::TransactionId t1 = *raw->Begin();
  member = *raw->Begin();
  ASSERT_TRUE(raw->AcquireBlocking(t1, 1, kX).ok());
  ASSERT_TRUE(raw->AcquireBlocking(member, 2, kX).ok());

  std::atomic<int> survivor_commits{0};
  std::thread a([&] {
    // T1's wait outlives the cycle: the member's abort grants R2.
    Status status = raw->AcquireBlocking(t1, 2, kX);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(raw->Commit(t1).ok());
    ++survivor_commits;
  });
  WaitUntilBlocked(*raw, t1);
  std::thread b([&] {
    Status status = raw->AcquireBlocking(member, 1, kX);
    EXPECT_TRUE(status.IsAborted()) << status.ToString();
  });
  WaitUntilBlocked(*raw, member);

  core::ResolutionReport first = raw->RunDetectionPass();
  EXPECT_EQ(first.cycles_detected, 1u);
  EXPECT_EQ(first.rejected, 1u);
  EXPECT_TRUE(first.aborted.empty());
  a.join();
  b.join();
  core::ResolutionReport second = raw->RunDetectionPass();
  EXPECT_EQ(second.cycles_detected, 0u);
  EXPECT_TRUE(second.aborted.empty());
  EXPECT_EQ(raw->deadlock_victims(), 0u);
  EXPECT_EQ(raw->resolutions_rejected(), 1u);
  EXPECT_EQ(survivor_commits.load(), 1);
}

// Builds the FIFO-stall deadlock that only TDR-2 resolves, on resource 0:
// T1 holds R0 (S) with T2 (X) then T3 (S) queued behind it; T3 holds R2
// (S) and T1 waits for R2 (X).  T3 is stalled purely by queue order, so
// the cheapest resolution repositions T3 ahead of T2 on R0.  Returns
// {T1, T2, T3}.
std::vector<lock::TransactionId> BuildFifoStallOnR0(ConcurrentLockService& s) {
  std::vector<lock::TransactionId> t;
  for (int i = 0; i < 3; ++i) t.push_back(*s.Begin());
  EXPECT_EQ(*s.AcquireAsync(t[0], 0, kS), lock::RequestOutcome::kGranted);
  EXPECT_EQ(*s.AcquireAsync(t[2], 2, kS), lock::RequestOutcome::kGranted);
  EXPECT_EQ(*s.AcquireAsync(t[1], 0, kX), lock::RequestOutcome::kBlocked);
  EXPECT_EQ(*s.AcquireAsync(t[2], 0, kS), lock::RequestOutcome::kBlocked);
  EXPECT_EQ(*s.AcquireAsync(t[0], 2, kX), lock::RequestOutcome::kBlocked);
  return t;
}

// Resource 0 is a real resource: a TDR-2 decision that repositions it
// must carry R0's stamp in its evidence.  Here the ST member T2 aborts in
// the seal-to-apply window, which grants T3 on R0 — the live queue no
// longer holds the junction, so the decision must be rejected rather than
// replayed onto a queue it was not derived from.
TEST(PauselessServiceTest, RepositionedResourceZeroIsValidated) {
  {
    // Without the window mutation the pass repositions R0, and the
    // forensic record snapshots both queues on the cycle, R0's included.
    ConcurrentServiceOptions plain;
    plain.detector.collect_post_mortems = true;
    auto service = ConcurrentLockService::Create(plain);
    ASSERT_TRUE(service.ok());
    BuildFifoStallOnR0(**service);
    core::ResolutionReport report = (*service)->RunDetectionPass();
    EXPECT_EQ(report.repositioned, std::vector<lock::ResourceId>{0});
    EXPECT_TRUE(report.aborted.empty());
    ASSERT_EQ(report.post_mortems.size(), 1u);
    EXPECT_EQ(report.post_mortems[0].queue_snapshots.size(), 2u);
  }
  ConcurrentServiceOptions options;
  ConcurrentLockService* raw = nullptr;
  lock::TransactionId st_member = 0;
  std::atomic<int> hook_fires{0};
  options.post_seal_hook = [&] {
    if (hook_fires.fetch_add(1) == 0) {
      EXPECT_TRUE(raw->Abort(st_member).ok());
    }
  };
  auto service = ConcurrentLockService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  raw = service->get();
  const std::vector<lock::TransactionId> t = BuildFifoStallOnR0(*raw);
  st_member = t[1];

  core::ResolutionReport first = raw->RunDetectionPass();
  EXPECT_EQ(first.cycles_detected, 1u);
  EXPECT_EQ(first.rejected, 1u);
  EXPECT_TRUE(first.repositioned.empty());
  EXPECT_TRUE(first.aborted.empty());
  // T2's abort granted T3 on R0; T1 still waits for T3's R2.
  EXPECT_EQ(*raw->State(t[2]), TxnState::kActive);
  EXPECT_EQ(*raw->State(t[0]), TxnState::kBlocked);
  EXPECT_TRUE(raw->CheckInvariants().ok());
  ASSERT_TRUE(raw->Commit(t[2]).ok());
  EXPECT_EQ(*raw->State(t[0]), TxnState::kActive);
  ASSERT_TRUE(raw->Commit(t[0]).ok());
  core::ResolutionReport second = raw->RunDetectionPass();
  EXPECT_EQ(second.cycles_detected, 0u);
  EXPECT_EQ(raw->deadlock_victims(), 0u);
  EXPECT_EQ(raw->live_transactions(), 0u);
}

// Chaos: a fault-injected workload (delayed grants, dropped wakeups,
// crashes, shard stalls) races a continuously re-running pauseless
// detector.  Liveness (every thread finishes, no lost wakeup), a clean
// invariant sweep, and exact per-pass accounting of the new series.
TEST(PauselessServiceTest, FaultInjectedChurnStaysInvariantClean) {
  ConcurrentServiceOptions options;
  options.num_shards = 8;
  options.cost_policy = CostPolicy::kLocksHeld;
  robustness::FaultPlanOptions fault_options;
  fault_options.num_faults = 12;
  fault_options.max_at = 60;
  fault_options.max_txn = 60;
  fault_options.max_shard = 8;
  fault_options.max_duration = 100;  // microseconds in the threaded host
  Result<robustness::FaultPlan> plan =
      robustness::FaultPlan::Random(20260807, fault_options);
  ASSERT_TRUE(plan.ok());
  options.fault_plan = *plan;
  auto service = ConcurrentLockService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ConcurrentLockService& s = **service;

  std::atomic<bool> stop{false};
  std::thread detector([&] {
    while (!stop.load()) {
      (void)s.RunDetectionPass();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  constexpr int kWorkers = 4;
  std::atomic<int> committed{0};
  {
    std::vector<std::thread> workers;
    for (int worker = 0; worker < kWorkers; ++worker) {
      workers.emplace_back([&, worker] {
        for (int i = 0; i < 20; ++i) {
          for (;;) {
            const lock::TransactionId t = *s.Begin();
            bool dead = false;
            for (int k = 0; k < 3 && !dead; ++k) {
              const lock::ResourceId rid =
                  static_cast<lock::ResourceId>(1 + (worker + k * i) % 7);
              Status status =
                  s.AcquireBlocking(t, rid, k == 2 ? kX : kS);
              if (status.IsAborted()) dead = true;
            }
            if (dead) continue;  // victim or crash fault: retry fresh
            ASSERT_TRUE(s.Commit(t).ok());
            ++committed;
            break;
          }
        }
      });
    }
    for (std::thread& thread : workers) thread.join();
  }
  stop.store(true);
  detector.join();

  EXPECT_EQ(committed.load(), kWorkers * 20);
  EXPECT_TRUE(s.CheckInvariants(/*deep=*/true).ok());
  const uint64_t epochs = s.snapshot_epoch();
  EXPECT_GE(epochs, 1u);
  // Every pass was pauseless: one client-visible pause and one lag per
  // pass, one publish pause per shard per pass, and no degraded sweeps.
  EXPECT_EQ(s.pause_times_ns().size(), epochs);
  EXPECT_EQ(s.publish_pause_times_ns().size(), epochs * s.num_shards());
  EXPECT_EQ(s.detection_lag_ns().size(), epochs);
  EXPECT_TRUE(s.sweep_pause_times_ns().empty());
}

// The causal span tree of one pauseless pass: the pass span parents one
// publish span per shard, the stamp-validated apply, and one resolution
// span per validated decision — and every replayed kCyclePostMortem
// event carries its resolution span's id (the forensic <-> timeline
// join).  Client-side, all five transactions get txn + wait spans with
// exactly the two victims marked aborted.
TEST(PauselessServiceTest, SpanTreeCoversTheWholePauselessPass) {
  obs::SpanTracer tracer;
  obs::SpanCollectorSink spans;
  tracer.Subscribe(&spans);
  obs::EventBus bus;
  obs::CollectorSink events;
  bus.Subscribe(&events);
  ConcurrentServiceOptions options =
      QuiescedOptions(SnapshotStrategy::kEpochDelta);
  options.event_bus = &bus;
  options.span_tracer = &tracer;
  core::ResolutionReport report;
  int victims = 0;
  {
    auto service = ConcurrentLockService::Create(options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    BuildCyclesAndRunPass(**service, &report, &victims);
  }
  EXPECT_EQ(victims, 2);

  const std::vector<obs::Span> passes = spans.Filter(obs::SpanKind::kPass);
  ASSERT_EQ(passes.size(), 1u);
  EXPECT_EQ(passes[0].a, 2u);  // cycles resolved (none rejected)
  EXPECT_GT(passes[0].b, 0u);  // pass cost in nanoseconds
  const uint64_t pass_id = passes[0].id;

  const std::vector<obs::Span> publishes =
      spans.Filter(obs::SpanKind::kPublish);
  ASSERT_EQ(publishes.size(), 4u);  // one per shard
  std::set<uint32_t> tracks;
  for (const obs::Span& publish : publishes) {
    EXPECT_EQ(publish.parent, pass_id);
    tracks.insert(publish.track);
  }
  EXPECT_EQ(tracks.size(), 4u);  // distinct shard lanes

  const std::vector<obs::Span> applies = spans.Filter(obs::SpanKind::kApply);
  ASSERT_EQ(applies.size(), 1u);
  EXPECT_EQ(applies[0].parent, pass_id);
  EXPECT_EQ(applies[0].a, 2u);  // decisions applied
  EXPECT_EQ(applies[0].b, 0u);  // none rejected as stale

  const std::vector<obs::Span> resolutions =
      spans.Filter(obs::SpanKind::kResolution);
  ASSERT_EQ(resolutions.size(), 2u);
  std::set<uint64_t> res_ids;
  for (const obs::Span& res : resolutions) {
    EXPECT_EQ(res.parent, pass_id);
    EXPECT_TRUE(res.label == "TDR-1" || res.label == "TDR-2") << res.label;
    EXPECT_GE(res.a, 2u);  // cycle length (the 2-cycle and the 3-cycle)
    EXPECT_NE(res.tid, 0u);
    res_ids.insert(res.id);
  }

  const std::vector<obs::Event> post_mortems =
      events.Filter(obs::EventKind::kCyclePostMortem);
  ASSERT_EQ(post_mortems.size(), 2u);
  for (const obs::Event& pm : post_mortems) {
    EXPECT_EQ(res_ids.count(pm.span), 1u) << pm.span;
  }

  const std::vector<obs::Span> txns = spans.Filter(obs::SpanKind::kTxn);
  ASSERT_EQ(txns.size(), 5u);
  size_t txn_aborts = 0;
  for (const obs::Span& txn : txns) {
    EXPECT_EQ(txn.label, "client");
    txn_aborts += txn.aborted ? 1 : 0;
  }
  EXPECT_EQ(txn_aborts, 2u);

  const std::vector<obs::Span> waits = spans.Filter(obs::SpanKind::kWait);
  ASSERT_EQ(waits.size(), 5u);  // every transaction blocked exactly once
  size_t wait_aborts = 0;
  for (const obs::Span& wait : waits) {
    EXPECT_GT(wait.corr, 0u);  // joins against the event stream
    wait_aborts += wait.aborted ? 1 : 0;
  }
  EXPECT_EQ(wait_aborts, 2u);  // the victims; survivors were granted
  EXPECT_EQ(tracer.open_count(), 0u);  // nothing leaked
}

// The stop-the-world engine emits the pass span itself (its pool workers
// run tracer-less), with the same client-side txn/wait coverage.
TEST(PauselessServiceTest, StopTheWorldPassEmitsPassSpan) {
  obs::SpanTracer tracer;
  obs::SpanCollectorSink spans;
  tracer.Subscribe(&spans);
  ConcurrentServiceOptions options =
      QuiescedOptions(SnapshotStrategy::kStopTheWorld);
  options.span_tracer = &tracer;
  core::ResolutionReport report;
  int victims = 0;
  {
    auto service = ConcurrentLockService::Create(options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    BuildCyclesAndRunPass(**service, &report, &victims);
  }
  EXPECT_EQ(victims, 2);
  const std::vector<obs::Span> passes = spans.Filter(obs::SpanKind::kPass);
  ASSERT_EQ(passes.size(), 1u);
  EXPECT_EQ(passes[0].a, 2u);
  EXPECT_GT(passes[0].b, 0u);  // the client-visible pause in nanoseconds
  EXPECT_TRUE(spans.Filter(obs::SpanKind::kPublish).empty());
  EXPECT_EQ(spans.Count(obs::SpanKind::kTxn), 5u);
  EXPECT_EQ(spans.Count(obs::SpanKind::kWait), 5u);
  EXPECT_EQ(tracer.open_count(), 0u);
}

}  // namespace
}  // namespace twbg::txn
