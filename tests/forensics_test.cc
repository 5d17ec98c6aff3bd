// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Forensics-layer tests: wait-span correlation through the lock manager,
// the flight-recorder ring, the starvation/convoy watchdog, cycle
// post-mortems, re-entrant bus emission, and JSONL write-error surfacing.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "core/cost_table.h"
#include "core/examples_catalog.h"
#include "core/periodic_detector.h"
#include "core/script.h"
#include "lock/lock_manager.h"
#include "obs/bus.h"
#include "obs/flight_recorder.h"
#include "obs/sinks.h"
#include "obs/watchdog.h"
#include "sim/simulator.h"

namespace twbg {
namespace {

using obs::Event;
using obs::EventKind;

// -- wait spans ------------------------------------------------------------

TEST(WaitSpanTest, BlockWakeupAndWaitEndShareOneSpanId) {
  obs::EventBus bus;
  obs::CollectorSink sink;
  bus.Subscribe(&sink);
  lock::LockManager manager;
  manager.set_event_bus(&bus);

  ASSERT_TRUE(manager.Acquire(1, 1, lock::LockMode::kX).ok());
  ASSERT_TRUE(manager.Acquire(2, 1, lock::LockMode::kX).ok());  // blocks
  ASSERT_EQ(sink.Count(EventKind::kLockBlock), 1u);
  const Event block = sink.Filter(EventKind::kLockBlock)[0];
  EXPECT_GT(block.span, 0u);
  EXPECT_EQ(manager.WaitSpan(2), block.span);

  manager.ReleaseAll(1);  // T2 wakes up
  ASSERT_EQ(sink.Count(EventKind::kLockWakeup), 1u);
  const Event wakeup = sink.Filter(EventKind::kLockWakeup)[0];
  EXPECT_EQ(wakeup.tid, 2u);
  EXPECT_EQ(wakeup.span, block.span);
  // The span survives the wakeup so the driver can stamp kWaitEnd.
  EXPECT_EQ(manager.WaitSpan(2), block.span);
}

TEST(WaitSpanTest, EveryBlockOpensAFreshMonotonicSpan) {
  lock::LockManager manager;
  ASSERT_TRUE(manager.Acquire(1, 1, lock::LockMode::kX).ok());
  ASSERT_TRUE(manager.Acquire(2, 1, lock::LockMode::kX).ok());
  ASSERT_TRUE(manager.Acquire(3, 1, lock::LockMode::kX).ok());
  const uint64_t span2 = manager.WaitSpan(2);
  const uint64_t span3 = manager.WaitSpan(3);
  EXPECT_GT(span2, 0u);
  EXPECT_GT(span3, span2);  // manager-wide monotonic
  EXPECT_EQ(manager.WaitSpan(1), 0u);  // never blocked
}

TEST(WaitSpanTest, BlockedConversionCarriesSpan) {
  obs::EventBus bus;
  obs::CollectorSink sink;
  bus.Subscribe(&sink);
  lock::LockManager manager;
  manager.set_event_bus(&bus);
  ASSERT_TRUE(manager.Acquire(1, 1, lock::LockMode::kIX).ok());
  ASSERT_TRUE(manager.Acquire(2, 1, lock::LockMode::kIX).ok());
  // T1's IX -> SIX conversion blocks on T2's IX.
  ASSERT_TRUE(manager.Acquire(1, 1, lock::LockMode::kSIX).ok());
  const std::vector<Event> conversions = sink.Filter(EventKind::kLockConvert);
  ASSERT_EQ(conversions.size(), 1u);
  EXPECT_EQ(conversions[0].a, 0u);  // blocked
  EXPECT_GT(conversions[0].span, 0u);
  EXPECT_EQ(conversions[0].span, manager.WaitSpan(1));
}

TEST(WaitSpanTest, SimulatorWaitEndCarriesTheBlockSpan) {
  sim::SimConfig config;
  config.workload.seed = 11;
  config.workload.num_transactions = 40;
  config.workload.concurrency = 5;
  config.workload.num_resources = 6;
  config.detection_period = 5;
  sim::Simulator sim(config, baselines::MakeStrategy("hwtwbg-periodic"));
  obs::CollectorSink sink;
  sim.event_bus().Subscribe(&sink);
  sim::SimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.committed, 40u);

  const std::vector<Event> ends = sink.Filter(EventKind::kWaitEnd);
  ASSERT_FALSE(ends.empty());
  // Every wait-end names a span that some earlier block opened for the
  // same transaction.
  std::set<uint64_t> blocked_spans;
  for (const Event& event : sink.events()) {
    if ((event.kind == EventKind::kLockBlock ||
         event.kind == EventKind::kLockConvert) &&
        event.span != 0) {
      blocked_spans.insert(event.span);
    }
  }
  for (const Event& end : ends) {
    EXPECT_NE(end.span, 0u);
    EXPECT_TRUE(blocked_spans.count(end.span)) << "span " << end.span;
  }
}

// -- flight recorder -------------------------------------------------------

Event MakeEvent(EventKind kind, uint32_t tid, uint32_t rid = 0) {
  Event event;
  event.kind = kind;
  event.tid = tid;
  event.rid = rid;
  return event;
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  obs::FlightRecorder recorder(100);
  EXPECT_EQ(recorder.capacity(), 128u);
  obs::FlightRecorder tiny(1);
  EXPECT_EQ(tiny.capacity(), 16u);  // floor
}

TEST(FlightRecorderTest, RingKeepsTheNewestEvents) {
  obs::EventBus bus;
  obs::FlightRecorder recorder(16);
  bus.Subscribe(&recorder);
  for (uint32_t i = 1; i <= 40; ++i) {
    bus.Emit(MakeEvent(EventKind::kLockGrant, i));
  }
  EXPECT_EQ(recorder.recorded(), 40u);
  const std::vector<Event> tail = recorder.Tail(100);
  ASSERT_EQ(tail.size(), 16u);  // capacity-bounded
  EXPECT_EQ(tail.front().tid, 25u);  // oldest retained
  EXPECT_EQ(tail.back().tid, 40u);   // newest
  const std::vector<Event> last3 = recorder.Tail(3);
  ASSERT_EQ(last3.size(), 3u);
  EXPECT_EQ(last3[0].tid, 38u);
  EXPECT_EQ(last3[2].tid, 40u);
}

TEST(FlightRecorderTest, PerTxnAndPerResourceTails) {
  obs::FlightRecorder recorder(64);
  recorder.OnEvent(MakeEvent(EventKind::kLockGrant, 1, 10));
  recorder.OnEvent(MakeEvent(EventKind::kLockBlock, 2, 10));
  recorder.OnEvent(MakeEvent(EventKind::kLockGrant, 1, 11));
  recorder.OnEvent(MakeEvent(EventKind::kLockWakeup, 2, 10));
  const std::vector<Event> t1 = recorder.TailForTxn(1, 10);
  ASSERT_EQ(t1.size(), 2u);
  EXPECT_EQ(t1[0].rid, 10u);
  EXPECT_EQ(t1[1].rid, 11u);
  const std::vector<Event> r10 = recorder.TailForResource(10, 10);
  ASSERT_EQ(r10.size(), 3u);
  EXPECT_EQ(r10.back().kind, EventKind::kLockWakeup);
  EXPECT_FALSE(recorder.Dump(10).empty());
  recorder.Clear();
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.Tail(10).empty());
}

TEST(FlightRecorderTest, PerResourceTailEvictsAtExactCapacityBoundary) {
  obs::FlightRecorder recorder(16);
  // Fill the ring to exactly capacity with one resource's events.
  for (uint32_t i = 1; i <= 16; ++i) {
    recorder.OnEvent(MakeEvent(EventKind::kLockGrant, i, 10));
  }
  ASSERT_EQ(recorder.recorded(), recorder.capacity());
  // At the boundary nothing has been evicted yet: the per-resource tail
  // still sees every event, oldest first.
  std::vector<Event> r10 = recorder.TailForResource(10, 100);
  ASSERT_EQ(r10.size(), 16u);
  EXPECT_EQ(r10.front().tid, 1u);
  EXPECT_EQ(r10.back().tid, 16u);
  // One more event (a different resource) overwrites the oldest slot —
  // the resource tail must lose exactly its oldest entry, nothing else.
  recorder.OnEvent(MakeEvent(EventKind::kLockGrant, 99, 20));
  r10 = recorder.TailForResource(10, 100);
  ASSERT_EQ(r10.size(), 15u);
  EXPECT_EQ(r10.front().tid, 2u);
  EXPECT_EQ(r10.back().tid, 16u);
  const std::vector<Event> r20 = recorder.TailForResource(20, 100);
  ASSERT_EQ(r20.size(), 1u);
  EXPECT_EQ(r20[0].tid, 99u);
}

TEST(FlightRecorderTest, InterleavedTxnAndResourceTailsShareSlots) {
  obs::FlightRecorder recorder(16);
  // One event is the subject of both views: T5 blocking on R10.
  recorder.OnEvent(MakeEvent(EventKind::kLockGrant, 1, 10));
  recorder.OnEvent(MakeEvent(EventKind::kLockBlock, 5, 10));  // shared slot
  recorder.OnEvent(MakeEvent(EventKind::kLockGrant, 5, 11));
  recorder.OnEvent(MakeEvent(EventKind::kLockGrant, 2, 10));
  const std::vector<Event> t5 = recorder.TailForTxn(5, 10);
  const std::vector<Event> r10 = recorder.TailForResource(10, 10);
  ASSERT_EQ(t5.size(), 2u);
  ASSERT_EQ(r10.size(), 3u);
  // Both tails surface the same underlying slot, field for field.
  EXPECT_EQ(t5[0].kind, EventKind::kLockBlock);
  EXPECT_EQ(r10[1].kind, EventKind::kLockBlock);
  EXPECT_EQ(t5[0].tid, r10[1].tid);
  EXPECT_EQ(t5[0].rid, r10[1].rid);
  // Overwrite the ring until that shared slot is recycled: both views
  // must drop it together (no stale copy lingers in either index).
  for (uint32_t i = 0; i < 16; ++i) {
    recorder.OnEvent(MakeEvent(EventKind::kLockGrant, 7, 30));
  }
  EXPECT_TRUE(recorder.TailForTxn(5, 10).empty());
  EXPECT_TRUE(recorder.TailForResource(10, 10).empty());
  EXPECT_EQ(recorder.TailForTxn(7, 100).size(), 16u);
}

TEST(FlightRecorderTest, HotPathDoesNotAllocateAfterWarmUp) {
  obs::FlightRecorder recorder(32);
  Event event = MakeEvent(EventKind::kLockGrant, 1, 2);
  // Warm up: fill every slot once (slots hold empty detail strings).
  for (int i = 0; i < 64; ++i) recorder.OnEvent(event);
  // Steady state: recording a detail-free event is a plain field copy
  // into a preallocated slot.  Assigning an empty std::string over an
  // empty std::string does not allocate, so this loop is allocation-free;
  // the ASan/UBSan CI job would flag any regression that turned slot
  // writes into churn.  Functionally: capacity and contents stay stable.
  const size_t cap = recorder.capacity();
  for (int i = 0; i < 10000; ++i) recorder.OnEvent(event);
  EXPECT_EQ(recorder.capacity(), cap);
  EXPECT_EQ(recorder.recorded(), 10064u);
}

// -- watchdog --------------------------------------------------------------

TEST(WatchdogTest, FlagsSpanAgeStarvationOnce) {
  obs::EventBus bus;
  obs::CollectorSink sink;
  obs::WatchdogOptions options;
  options.starvation_age = 10;
  options.check_interval = 1;
  options.convoy_depth = 99;  // keep convoys out of this test
  obs::Watchdog watchdog(&bus, options);
  bus.Subscribe(&watchdog);
  bus.Subscribe(&sink);

  Event block = MakeEvent(EventKind::kLockBlock, 7, 3);
  block.span = 42;
  bus.set_time(0);
  bus.Emit(block);
  EXPECT_EQ(watchdog.open_spans(), 1u);

  bus.set_time(5);
  bus.Emit(MakeEvent(EventKind::kTxnBegin, 1));  // age 5 < 10: quiet
  EXPECT_EQ(watchdog.starvation_alerts(), 0u);

  bus.set_time(12);
  bus.Emit(MakeEvent(EventKind::kTxnBegin, 2));  // age 12 >= 10: alert
  EXPECT_EQ(watchdog.starvation_alerts(), 1u);
  const std::vector<Event> alerts = sink.Filter(EventKind::kStarvation);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].tid, 7u);
  EXPECT_EQ(alerts[0].rid, 3u);
  EXPECT_EQ(alerts[0].span, 42u);
  EXPECT_EQ(alerts[0].b, 1u);  // span-age starvation
  EXPECT_GE(alerts[0].a, 12u);

  bus.set_time(50);
  bus.Emit(MakeEvent(EventKind::kTxnBegin, 3));  // same span: no re-alert
  EXPECT_EQ(watchdog.starvation_alerts(), 1u);

  // Wakeup closes the span; no further alerts ever.
  Event wake = MakeEvent(EventKind::kLockWakeup, 7, 3);
  wake.span = 42;
  bus.Emit(wake);
  EXPECT_EQ(watchdog.open_spans(), 0u);
}

TEST(WatchdogTest, FlagsRepeatedVictimizationOnRestart) {
  obs::EventBus bus;
  obs::CollectorSink sink;
  obs::WatchdogOptions options;
  options.starvation_restarts = 3;
  obs::Watchdog watchdog(&bus, options);
  bus.Subscribe(&watchdog);
  bus.Subscribe(&sink);

  Event restart = MakeEvent(EventKind::kTxnRestart, 5);
  restart.a = 2;  // below threshold
  bus.Emit(restart);
  EXPECT_EQ(watchdog.starvation_alerts(), 0u);
  restart.a = 3;  // at threshold
  bus.Emit(restart);
  EXPECT_EQ(watchdog.starvation_alerts(), 1u);
  const std::vector<Event> alerts = sink.Filter(EventKind::kStarvation);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].b, 2u);  // repeated victimization
  EXPECT_EQ(alerts[0].a, 3u);
}

TEST(WatchdogTest, FlagsConvoysTopKHottestFirst) {
  obs::EventBus bus;
  obs::CollectorSink sink;
  obs::WatchdogOptions options;
  options.convoy_depth = 2;
  options.convoy_top_k = 1;  // only the hottest resource
  options.check_interval = 1;
  options.starvation_age = 1'000'000;
  obs::Watchdog watchdog(&bus, options);
  bus.Subscribe(&watchdog);
  bus.Subscribe(&sink);

  uint64_t span = 1;
  auto block_on = [&](uint32_t tid, uint32_t rid) {
    Event event = MakeEvent(EventKind::kLockBlock, tid, rid);
    event.span = span++;
    bus.Emit(event);
  };
  bus.set_time(1);
  block_on(1, 100);
  block_on(2, 100);  // R100 depth 2
  block_on(3, 200);
  bus.set_time(2);
  block_on(4, 200);
  bus.set_time(3);
  block_on(5, 200);  // R200 depth 3: the hottest
  const std::vector<Event> alerts = sink.Filter(EventKind::kConvoy);
  ASSERT_FALSE(alerts.empty());
  // top_k=1: only the hottest resource of each check is flagged, and
  // re-alerts fire only when the convoy grows.
  const Event& last = alerts.back();
  EXPECT_EQ(last.rid, 200u);
  EXPECT_EQ(last.a, 3u);
  EXPECT_EQ(last.b, 1u);  // rank 1
  for (const Event& alert : alerts) {
    EXPECT_EQ(alert.b, 1u);
  }
  EXPECT_EQ(watchdog.convoy_alerts(), alerts.size());
}

TEST(WatchdogTest, ReentrantAlertsKeepOneOrderedStream) {
  // The watchdog emits alerts from inside OnEvent; the bus defers them so
  // every sink sees one strictly increasing sequence.
  obs::EventBus bus;
  obs::CollectorSink sink;
  obs::WatchdogOptions options;
  options.starvation_age = 1;
  options.check_interval = 1;
  obs::Watchdog watchdog(&bus, options);
  bus.Subscribe(&sink);
  bus.Subscribe(&watchdog);  // subscribed after: alerts still reach sink
  Event block = MakeEvent(EventKind::kLockBlock, 1, 1);
  block.span = 1;
  bus.set_time(0);
  bus.Emit(block);
  bus.set_time(10);
  bus.Emit(MakeEvent(EventKind::kTxnBegin, 2));  // triggers the alert
  ASSERT_EQ(sink.Count(EventKind::kStarvation), 1u);
  uint64_t prev = 0;
  for (const Event& event : sink.events()) {
    EXPECT_GT(event.seq, prev);
    prev = event.seq;
  }
}

// -- cycle post-mortems ----------------------------------------------------

TEST(PostMortemTest, Example41Tdr2PostMortemNamesChainAndRationale) {
  obs::EventBus bus;
  obs::CollectorSink sink;
  bus.Subscribe(&sink);
  lock::LockManager manager;
  manager.set_event_bus(&bus);
  core::BuildExample41(manager);
  core::CostTable costs;
  core::DetectorOptions options;
  options.event_bus = &bus;
  core::PeriodicDetector detector(options);
  core::ResolutionReport report = detector.RunPass(manager, costs);

  ASSERT_GT(report.cycles_detected, 0u);
  ASSERT_EQ(report.post_mortems.size(), report.cycles_detected);
  ASSERT_EQ(sink.Count(EventKind::kCyclePostMortem), report.cycles_detected);

  // Example 4.1 resolves everything by TDR-2 (repositioning on R2).
  bool saw_tdr2 = false;
  for (const core::CyclePostMortem& pm : report.post_mortems) {
    EXPECT_FALSE(pm.members.empty());
    EXPECT_FALSE(pm.rationale.empty());
    for (const core::PostMortemMember& member : pm.members) {
      if (member.blocked_on.has_value()) {
        EXPECT_GT(member.wait_span, 0u);
      }
    }
    if (pm.rule == core::VictimKind::kReposition) {
      saw_tdr2 = true;
      EXPECT_GT(pm.resource, 0u);
      EXPECT_NE(pm.rationale.find("reposition"), std::string::npos)
          << pm.rationale;
      EXPECT_FALSE(pm.queue_snapshots.empty());
      const std::string text = pm.ToString();
      EXPECT_NE(text.find("TDR-2"), std::string::npos) << text;
      EXPECT_NE(text.find("wait chain"), std::string::npos) << text;
    }
  }
  EXPECT_TRUE(saw_tdr2);

  // Each emitted event mirrors its post-mortem's summary line.
  for (const Event& event : sink.Filter(EventKind::kCyclePostMortem)) {
    EXPECT_FALSE(event.detail.empty());
    EXPECT_NE(event.detail.find("chain"), std::string::npos) << event.detail;
  }
  // The report's byte-for-byte rendering is unchanged by post-mortems
  // (differential tests depend on this).
  EXPECT_EQ(report.ToString().find("post-mortem"), std::string::npos);
}

TEST(PostMortemTest, CollectedWithoutABusWhenOptedIn) {
  lock::LockManager manager;
  core::BuildExample51(manager);
  core::CostTable costs;
  core::DetectorOptions options;
  options.collect_post_mortems = true;
  core::PeriodicDetector detector(options);
  core::ResolutionReport report = detector.RunPass(manager, costs);
  ASSERT_GT(report.cycles_detected, 0u);
  EXPECT_EQ(report.post_mortems.size(), report.cycles_detected);

  // Default options without a bus: no post-mortems assembled.
  lock::LockManager manager2;
  core::BuildExample51(manager2);
  core::CostTable costs2;
  core::PeriodicDetector plain{core::DetectorOptions{}};
  core::ResolutionReport report2 = plain.RunPass(manager2, costs2);
  EXPECT_GT(report2.cycles_detected, 0u);
  EXPECT_TRUE(report2.post_mortems.empty());
}

TEST(PostMortemTest, ReplPostmortemCommandPrintsForensics) {
  core::LockManagerBackend backend;
  core::ScriptRunner runner(&backend);
  std::string out;
  ASSERT_TRUE(runner
                  .ExecuteScript("acquire 1 1 X\n"
                                 "acquire 2 2 X\n"
                                 "acquire 1 2 X\n"
                                 "acquire 2 1 X\n"
                                 "detect\n"
                                 "postmortem\n",
                                 &out)
                  .ok())
      << out;
  EXPECT_NE(out.find("post-mortem"), std::string::npos) << out;
  EXPECT_NE(out.find("wait chain"), std::string::npos) << out;
  // Before any detect the command fails cleanly.
  core::LockManagerBackend fresh_backend;
  core::ScriptRunner fresh(&fresh_backend);
  std::string unused;
  EXPECT_FALSE(fresh.ExecuteLine("postmortem", &unused).ok());
}

// -- JSONL write-error surfacing -------------------------------------------

TEST(JsonlWriteErrorTest, DiskFullIsCountedNotFatal) {
  // /dev/full accepts the open but fails every flush with ENOSPC.
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full not available";
  std::fclose(probe);

  Result<std::unique_ptr<obs::JsonlSink>> sink =
      obs::JsonlSink::Open("/dev/full");
  ASSERT_TRUE(sink.ok());
  Event event;
  event.kind = EventKind::kTxnBegin;
  // Write more than one stdio buffer's worth so the failure surfaces
  // through fputs/fflush regardless of buffering.
  for (int i = 0; i < 10000; ++i) (*sink)->OnEvent(event);
  (*sink)->Flush();
  EXPECT_GT((*sink)->write_errors(), 0u);
  EXPECT_EQ((*sink)->lines_written(), 10000u);
}

TEST(JsonlWriteErrorTest, SimulatorMirrorsWriteErrorsIntoMetrics) {
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full not available";
  std::fclose(probe);

  sim::SimConfig config;
  config.workload.seed = 5;
  config.workload.num_transactions = 30;
  config.workload.concurrency = 4;
  config.workload.num_resources = 6;
  sim::Simulator sim(config, baselines::MakeStrategy("hwtwbg-periodic"));
  ASSERT_TRUE(sim.StreamEventsTo("/dev/full").ok());
  sim::SimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.committed, 30u);  // the run itself is unaffected
  EXPECT_GT(metrics.trace_write_errors, 0u);
  EXPECT_NE(metrics.ToString().find("trace_write_errors="),
            std::string::npos);
}

TEST(JsonlWriteErrorTest, OpenFailureIsAStatusNotACrash) {
  EXPECT_FALSE(obs::JsonlSink::Open("/nonexistent-dir/x.jsonl").ok());
  sim::SimConfig config;
  sim::Simulator sim(config, baselines::MakeStrategy("hwtwbg-periodic"));
  EXPECT_FALSE(sim.StreamEventsTo("/nonexistent-dir/x.jsonl").ok());
}

}  // namespace
}  // namespace twbg
