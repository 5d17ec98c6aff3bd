// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// The closed-loop detection scheduler: option validation, the fixed
// policy's zero-diff guarantee, the EWMA square-root rule's clamps /
// hysteresis / slew / burst snap-down, determinism of the retune
// sequence, and the controller threaded through the simulator and the
// concurrent service.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "baselines/factory.h"
#include "obs/sinks.h"
#include "obs/span.h"
#include "obs/span_sinks.h"
#include "sched/period_controller.h"
#include "sim/simulator.h"
#include "txn/concurrent_service.h"

namespace twbg {
namespace {

constexpr lock::LockMode kX = lock::LockMode::kX;

// SimMetrics::ToString with the one wall-clock field (det_ms) blanked
// out, so byte-for-byte comparisons only see deterministic state.
std::string DeterministicMetrics(const sim::SimMetrics& metrics) {
  std::string text = metrics.ToString();
  const size_t begin = text.find("det_ms=");
  if (begin == std::string::npos) return text;
  const size_t end = text.find(' ', begin);
  return text.replace(begin, end - begin, "det_ms=X");
}

sched::PassSample Sample(uint64_t elapsed, uint64_t cycles, double cost) {
  sched::PassSample sample;
  sample.elapsed = elapsed;
  sample.cycles_resolved = cycles;
  sample.detection_cost = cost;
  return sample;
}

TEST(SchedulerOptionsTest, ValidateAcceptsDefaultsAndRejectsBadKnobs) {
  sched::SchedulerOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.policy = sched::SchedulerPolicy::kEwmaRate;
  EXPECT_TRUE(options.Validate().ok());

  sched::SchedulerOptions bad = options;
  bad.min_period = 0;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());

  bad = options;
  bad.min_period = 10;
  bad.max_period = 5;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());

  bad = options;
  bad.ewma_alpha = 0.0;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
  bad.ewma_alpha = 1.5;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());

  bad = options;
  bad.detection_cost_weight = 0.0;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());

  bad = options;
  bad.persistence_weight = -1.0;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());

  bad = options;
  bad.hysteresis = -0.1;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());

  bad = options;
  bad.max_raise_factor = 0.5;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
}

TEST(PeriodControllerTest, FixedPolicyNeverMoves) {
  sched::SchedulerOptions options;  // kFixedPeriod
  auto controller = sched::MakePeriodController(options, 42);
  EXPECT_EQ(controller->period(), 42u);
  EXPECT_EQ(controller->name(), "fixed");
  for (int i = 0; i < 50; ++i) {
    // Wildly varying samples: a fixed controller must ignore them all.
    EXPECT_FALSE(
        controller->OnPassComplete(Sample(1 + i, i % 7, 1e6 * i)).has_value());
    EXPECT_EQ(controller->period(), 42u);
  }
}

TEST(PeriodControllerTest, BurstClampsAtMinPeriodImmediately) {
  sched::SchedulerOptions options;
  options.policy = sched::SchedulerPolicy::kEwmaRate;
  options.min_period = 5;
  options.max_period = 1000;
  auto controller = sched::MakePeriodController(options, 50);
  // 100 cycles in 10 time units at negligible cost: T* collapses below
  // min_period, and because the pass resolved cycles the downward move is
  // immediate (no deadband, no slew).
  auto retune = controller->OnPassComplete(Sample(10, 100, 0.001));
  ASSERT_TRUE(retune.has_value());
  EXPECT_EQ(retune->old_period, 50u);
  EXPECT_EQ(retune->new_period, 5u);
  EXPECT_GT(retune->deadlock_rate, 0.0);
  EXPECT_EQ(controller->period(), 5u);
}

TEST(PeriodControllerTest, QuietSystemClimbsGeometricallyToAutoMax) {
  sched::SchedulerOptions options;
  options.policy = sched::SchedulerPolicy::kEwmaRate;
  options.min_period = 1;  // max_period = 0 -> auto: 16 * initial = 160
  auto controller = sched::MakePeriodController(options, 10);
  std::vector<uint64_t> periods;
  for (int i = 0; i < 8; ++i) {
    auto retune = controller->OnPassComplete(Sample(10, 0, 100.0));
    if (retune.has_value()) periods.push_back(retune->new_period);
  }
  // Zero deadlocks: the target is the ceiling outright, but the slew cap
  // (max_raise_factor = 2) doubles at most per pass, then the controller
  // goes quiet at the ceiling.
  EXPECT_EQ(periods, (std::vector<uint64_t>{20, 40, 80, 160}));
  EXPECT_EQ(controller->period(), 160u);
  EXPECT_FALSE(controller->OnPassComplete(Sample(10, 0, 100.0)).has_value());
}

TEST(PeriodControllerTest, HysteresisHoldsPeriodUnderOscillatingLoad) {
  sched::SchedulerOptions options;
  options.policy = sched::SchedulerPolicy::kEwmaRate;
  options.min_period = 1;
  options.max_period = 1000;
  options.ewma_alpha = 1.0;  // pure instantaneous: targets are exact
  options.hysteresis = 0.25;
  auto controller = sched::MakePeriodController(options, 100);
  // With alpha=1, elapsed=1 and one cycle per pass: rate = 1, so
  // T* = sqrt(2 * cost).  cost 6050 -> 110, cost 7200 -> 120: both inside
  // the 25% deadband above 100, so an oscillating load never thrashes.
  for (int i = 0; i < 20; ++i) {
    const double cost = (i % 2 == 0) ? 6050.0 : 7200.0;
    EXPECT_FALSE(controller->OnPassComplete(Sample(1, 1, cost)).has_value());
    EXPECT_EQ(controller->period(), 100u);
  }
  // cost 8450 -> T* = 130: clears the deadband and moves (under the slew
  // cap of 200).
  auto retune = controller->OnPassComplete(Sample(1, 1, 8450.0));
  ASSERT_TRUE(retune.has_value());
  EXPECT_EQ(retune->new_period, 130u);
}

TEST(PeriodControllerTest, SnapsDownWithinTwoPassesOfABurst) {
  sched::SchedulerOptions options;
  options.policy = sched::SchedulerPolicy::kEwmaRate;
  options.min_period = 2;
  options.max_period = 320;
  auto controller = sched::MakePeriodController(options, 20);
  // A long quiet spell parks the period at the ceiling and pushes the
  // EWMA rate to ~0.
  for (int i = 0; i < 12; ++i) {
    (void)controller->OnPassComplete(Sample(20, 0, 50.0));
  }
  EXPECT_EQ(controller->period(), 320u);
  // First pass that sees the burst: the instantaneous-rate floor prices
  // this pass's own rate even though the EWMA barely moved, and the
  // cycle-bearing downward move is immediate — the period lands near the
  // floor on this very retune, well within the two-pass requirement.
  auto retune = controller->OnPassComplete(Sample(320, 64, 50.0));
  ASSERT_TRUE(retune.has_value());
  EXPECT_EQ(retune->old_period, 320u);
  EXPECT_LE(retune->new_period, 30u);
  EXPECT_LE(controller->period(), 30u);
}

TEST(PeriodControllerTest, RetuneSequenceIsDeterministic) {
  sched::SchedulerOptions options;
  options.policy = sched::SchedulerPolicy::kEwmaRate;
  options.min_period = 2;
  options.max_period = 500;
  auto a = sched::MakePeriodController(options, 25);
  auto b = sched::MakePeriodController(options, 25);
  std::vector<std::pair<uint64_t, uint64_t>> retunes_a;
  std::vector<std::pair<uint64_t, uint64_t>> retunes_b;
  for (int i = 0; i < 200; ++i) {
    // A synthetic but fully reproducible load: bursts every 17 passes,
    // cost wobbling with a period of 5.
    const uint64_t cycles = (i % 17 == 0) ? 8 : (i % 3 == 0 ? 1 : 0);
    const double cost = 200.0 + 40.0 * static_cast<double>(i % 5);
    const uint64_t elapsed = std::max<uint64_t>(a->period(), 1);
    if (auto r = a->OnPassComplete(Sample(elapsed, cycles, cost))) {
      retunes_a.emplace_back(r->old_period, r->new_period);
    }
    if (auto r = b->OnPassComplete(Sample(elapsed, cycles, cost))) {
      retunes_b.emplace_back(r->old_period, r->new_period);
    }
  }
  EXPECT_FALSE(retunes_a.empty());
  EXPECT_EQ(retunes_a, retunes_b);
  EXPECT_EQ(a->period(), b->period());
}

// -- simulator integration --

sim::SimConfig DeadlockProneConfig() {
  sim::SimConfig config;
  config.workload.seed = 21;
  config.workload.num_transactions = 80;
  config.workload.concurrency = 6;
  config.workload.num_resources = 5;
  config.workload.mode_weights = {0, 0, 0.2, 0, 0.8};
  config.detection_period = 5;
  config.record_trace = true;
  return config;
}

TEST(SchedSimulatorTest, ExternalFixedControllerIsByteIdenticalToNoController) {
  // The same workload, once on the historical modulo schedule and once
  // through an explicitly attached fixed controller: every metric and
  // every trace byte must match — opting into the scheduling layer with
  // the fixed policy is a zero-diff change.
  sim::SimConfig plain = DeadlockProneConfig();
  sim::Simulator sim_plain(plain, baselines::MakeStrategy("hwtwbg-periodic"));
  sim::SimMetrics m_plain = sim_plain.Run();

  sim::SimConfig fixed = DeadlockProneConfig();
  sched::SchedulerOptions options;  // kFixedPeriod
  auto controller =
      sched::MakePeriodController(options, fixed.detection_period);
  fixed.period_controller = controller.get();
  sim::Simulator sim_fixed(fixed, baselines::MakeStrategy("hwtwbg-periodic"));
  sim::SimMetrics m_fixed = sim_fixed.Run();

  EXPECT_EQ(m_fixed.period_retunes, 0u);
  EXPECT_EQ(DeterministicMetrics(m_plain), DeterministicMetrics(m_fixed));
  EXPECT_EQ(sim_plain.trace().ToString(), sim_fixed.trace().ToString());
}

TEST(SchedSimulatorTest, EwmaRunsAreDeterministicAndRetune) {
  auto run = [](sim::SimMetrics* metrics, std::string* trace) {
    sim::SimConfig config = DeadlockProneConfig();
    config.scheduler.policy = sched::SchedulerPolicy::kEwmaRate;
    config.scheduler.min_period = 2;
    config.scheduler.max_period = 64;
    sim::Simulator sim(config, baselines::MakeStrategy("hwtwbg-periodic"));
    *metrics = sim.Run();
    *trace = sim.trace().ToString();
  };
  sim::SimMetrics m1, m2;
  std::string t1, t2;
  run(&m1, &t1);
  run(&m2, &t2);
  EXPECT_GT(m1.period_retunes, 0u);
  EXPECT_GE(m1.min_detection_period, 2u);
  EXPECT_LE(m1.max_detection_period, 64u);
  EXPECT_EQ(DeterministicMetrics(m1), DeterministicMetrics(m2));
  EXPECT_EQ(m1.period_retunes, m2.period_retunes);
  EXPECT_EQ(m1.final_detection_period, m2.final_detection_period);
  EXPECT_EQ(t1, t2);
}

TEST(SchedSimulatorTest, AdaptivePolicyRequiresAPeriod) {
  sim::SimConfig config = DeadlockProneConfig();
  config.detection_period = 0;
  config.scheduler.policy = sched::SchedulerPolicy::kEwmaRate;
  auto sim = sim::Simulator::Create(config,
                                    baselines::MakeStrategy("hwtwbg-periodic"));
  EXPECT_TRUE(sim.status().IsInvalidArgument());
}

TEST(SchedSimulatorTest, SpanEstimatesRequireATracer) {
  sim::SimConfig config = DeadlockProneConfig();
  config.scheduler.policy = sched::SchedulerPolicy::kEwmaRate;
  config.scheduler.use_span_estimates = true;  // but no span_tracer
  auto sim = sim::Simulator::Create(config,
                                    baselines::MakeStrategy("hwtwbg-periodic"));
  EXPECT_TRUE(sim.status().IsInvalidArgument());
}

TEST(SchedSimulatorTest, TracerWithEstimatesOffIsByteIdentical) {
  // Differential parity: a span tracer recording the run, with
  // use_span_estimates left off, must not perturb the scheduler — the
  // flag, not the tracer, selects the measured input path.
  sim::SimConfig plain = DeadlockProneConfig();
  plain.scheduler.policy = sched::SchedulerPolicy::kEwmaRate;
  plain.scheduler.min_period = 2;
  plain.scheduler.max_period = 64;
  sim::Simulator sim_plain(plain, baselines::MakeStrategy("hwtwbg-periodic"));
  sim::SimMetrics m_plain = sim_plain.Run();

  obs::SpanTracer tracer;
  obs::SpanCollectorSink spans;
  tracer.Subscribe(&spans);
  sim::SimConfig traced = DeadlockProneConfig();
  traced.scheduler.policy = sched::SchedulerPolicy::kEwmaRate;
  traced.scheduler.min_period = 2;
  traced.scheduler.max_period = 64;
  traced.span_tracer = &tracer;
  sim::Simulator sim_traced(traced, baselines::MakeStrategy("hwtwbg-periodic"));
  sim::SimMetrics m_traced = sim_traced.Run();

  EXPECT_EQ(DeterministicMetrics(m_plain), DeterministicMetrics(m_traced));
  EXPECT_EQ(sim_plain.trace().ToString(), sim_traced.trace().ToString());
  // The tracer did record the run: pass spans for every strategy
  // invocation, wait spans under the tick clock.
  EXPECT_GT(spans.Count(obs::SpanKind::kPass), 0u);
  EXPECT_GT(spans.Count(obs::SpanKind::kTxn), 0u);
}

TEST(SchedSimulatorTest, SpanEstimatesFeedMeasuredSchedulerInputs) {
  // With use_span_estimates on, lambda comes from closed pass-span cycle
  // counters and B from the blocked-time integral.  The run must stay
  // deterministic (the tick clock drives the spans) and the controller
  // must still retune inside its clamps.
  auto run = [](sim::SimMetrics* metrics, std::string* trace,
                size_t* passes) {
    obs::SpanTracer tracer;
    obs::SpanCollectorSink spans;
    tracer.Subscribe(&spans);
    sim::SimConfig config = DeadlockProneConfig();
    config.scheduler.policy = sched::SchedulerPolicy::kEwmaRate;
    config.scheduler.min_period = 2;
    config.scheduler.max_period = 64;
    config.scheduler.use_span_estimates = true;
    config.span_tracer = &tracer;
    sim::Simulator sim(config, baselines::MakeStrategy("hwtwbg-periodic"));
    *metrics = sim.Run();
    *trace = sim.trace().ToString();
    *passes = spans.Count(obs::SpanKind::kPass);
    // Span timestamps are tick counts: every pass span is instantaneous
    // (the simulator charges pass cost in work units, not ticks).
    for (const obs::Span& span : spans.Filter(obs::SpanKind::kPass)) {
      EXPECT_EQ(span.duration(), 0u);
    }
  };
  sim::SimMetrics m1, m2;
  std::string t1, t2;
  size_t p1 = 0, p2 = 0;
  run(&m1, &t1, &p1);
  run(&m2, &t2, &p2);
  EXPECT_GT(m1.period_retunes, 0u);
  EXPECT_GE(m1.min_detection_period, 2u);
  EXPECT_LE(m1.max_detection_period, 64u);
  EXPECT_GT(p1, 0u);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(DeterministicMetrics(m1), DeterministicMetrics(m2));
  EXPECT_EQ(t1, t2);
}

// -- concurrent service integration --

// Builds a certain 2-transaction deadlock, resolves it with a manual
// pass, and returns the pass report rendered to a string.
std::string DeadlockReportFor(txn::ConcurrentLockService& service) {
  std::barrier rendezvous(2);
  std::atomic<int> victims{0};
  std::atomic<lock::TransactionId> tids[2] = {};
  std::string report_text;
  auto runner = [&](size_t index, lock::ResourceId first,
                    lock::ResourceId second) {
    lock::TransactionId t = *service.Begin();
    tids[index].store(t, std::memory_order_relaxed);
    ASSERT_TRUE(service.AcquireBlocking(t, first, kX).ok());
    rendezvous.arrive_and_wait();
    Status status = service.AcquireBlocking(t, second, kX);
    if (status.IsAborted()) {
      ++victims;
      return;
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(service.Commit(t).ok());
  };
  std::thread a(runner, 0, 1, 2);
  std::thread b(runner, 1, 2, 1);
  // Wait until both sides are actually parked (kBlocked is stored in the
  // same shard critical section that enqueues the wait) before running
  // any pass: a pass that sneaks between the two blocking acquires would
  // warm the graph cache and perturb the report's cache-counter line.
  auto blocked = [&](size_t index) {
    const lock::TransactionId t = tids[index].load(std::memory_order_relaxed);
    if (t == 0) return false;
    Result<txn::TxnState> state = service.State(t);
    return state.ok() && *state == txn::TxnState::kBlocked;
  };
  while (!(blocked(0) && blocked(1))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Both sides blocked on each other: run one pass and read the report.
  while (service.deadlock_victims() == 0) {
    core::ResolutionReport report = service.RunDetectionPass();
    if (report.found_deadlock()) report_text = report.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  a.join();
  b.join();
  EXPECT_EQ(victims.load(), 1);
  return report_text;
}

TEST(SchedServiceTest, FixedSchedulerReportsAreByteIdentical) {
  // A service with the scheduling layer engaged (detector thread parked
  // on a huge period, fixed policy) must resolve the same deadlock with
  // a byte-identical ResolutionReport to a service with no controller at
  // all (manual passes, detection_period = 0).
  txn::ConcurrentServiceOptions without;
  without.num_shards = 2;
  without.snapshot_strategy = txn::SnapshotStrategy::kStopTheWorld;
  auto plain = txn::ConcurrentLockService::Create(without);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  const std::string report_plain = DeadlockReportFor(**plain);

  txn::ConcurrentServiceOptions with = without;
  with.detection_period = std::chrono::microseconds(60'000'000);
  with.scheduler.min_period = 1;
  with.scheduler.max_period = 120'000'000;
  auto fixed = txn::ConcurrentLockService::Create(with);
  ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
  const std::string report_fixed = DeadlockReportFor(**fixed);

  EXPECT_FALSE(report_fixed.empty());
  EXPECT_EQ(report_plain, report_fixed);
  EXPECT_EQ((*fixed)->period_retunes(), 0u);
  EXPECT_EQ((*fixed)->current_detection_period_us(), 60'000'000u);
  EXPECT_EQ((*plain)->current_detection_period_us(), 0u);
}

TEST(SchedServiceTest, QuietServiceRaisesItsPeriod) {
  txn::ConcurrentServiceOptions options;
  options.num_shards = 2;
  // Park the thread far in the future; manual passes drive the feedback.
  options.detection_period = std::chrono::microseconds(60'000'000);
  options.scheduler.policy = sched::SchedulerPolicy::kEwmaRate;
  options.scheduler.min_period = 1'000'000;
  auto service = txn::ConcurrentLockService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ((*service)->current_detection_period_us(), 60'000'000u);
  // Deadlock-free passes: the rate estimate stays at zero, so the
  // controller walks the period up toward the ceiling (slew-capped).
  for (int i = 0; i < 4; ++i) {
    (void)(*service)->RunDetectionPass();
  }
  EXPECT_GT((*service)->period_retunes(), 0u);
  EXPECT_GT((*service)->current_detection_period_us(), 60'000'000u);
  EXPECT_LE((*service)->current_detection_period_us(), 16u * 60'000'000u);
}

TEST(SchedServiceTest, AdaptivePolicyRequiresDetectorThread) {
  txn::ConcurrentServiceOptions options;
  options.num_shards = 2;
  options.scheduler.policy = sched::SchedulerPolicy::kEwmaRate;
  // No detection_period: there is no detector thread to retune.
  auto service = txn::ConcurrentLockService::Create(options);
  EXPECT_TRUE(service.status().IsInvalidArgument());

  txn::ConcurrentServiceOptions bad_knobs;
  bad_knobs.num_shards = 2;
  bad_knobs.detection_period = std::chrono::microseconds(1000);
  bad_knobs.scheduler.min_period = 0;
  auto service2 = txn::ConcurrentLockService::Create(bad_knobs);
  EXPECT_TRUE(service2.status().IsInvalidArgument());
}

}  // namespace
}  // namespace twbg
