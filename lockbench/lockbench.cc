// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// lockbench — the repository benchmark.  Three named workloads drive the
// lock service through its public client surface (twbg::LockClient, as
// txn::InProcessClient and as net::TcpClient against an in-process
// net::Server) plus the service's public telemetry accessors:
//
//   hotspot-inproc  open loop, one driver thread, hundreds of
//                   transactions in flight on a Zipf hot set; reads with
//                   S->X upgrades, so conversion deadlocks form and the
//                   detector (core) and publish/apply (txn) do the work.
//   cold-inproc     closed loop, one client, X locks spread uniformly
//                   over a large key space: no conflicts, so lock-table,
//                   shard and transaction-table call costs dominate.
//   writers-tcp     closed loop over nproc-1 TCP sessions on a small,
//                   write-heavy hot set: the wire path (net) dominates,
//                   acquires block and deadlocks end in TDR-1 aborts.
//
// Usage:
//   lockbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--git-rev REV]
//
// --trace 0 measures the end-to-end metrics with no span recording.
// --trace 1 runs an untraced phase and then a traced phase on a fresh
// service, reports the per-layer metrics from the traced phase, writes
// the traced phase's spans as Chrome/Perfetto JSON to --trace-out, and
// reports the throughput difference as trace.overhead_share.
//
// Detection passes are driven in every run by the benchmark's pass
// thread, a replica of the service's own detector loop (wait one period,
// run a pass) at the daemon's default fixed period, so every pass's
// core::ResolutionReport can be read.  Every run checks that each
// acquire is accounted for, that every wait ends within a bound, that
// the service quiesces with no live transaction and passes
// CheckInvariants(true), and that the workload exercised what it claims.
// The last stdout line is the result object; the exit code is non-zero
// when any check fails.  lockbench/README.md documents the metrics.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <queue>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/server.h"
#include "net/tcp_client.h"
#include "net/wire.h"
#include "recorder.h"
#include "txn/concurrent_service.h"
#include "txn/lock_client.h"

namespace lockbench {
namespace {

using twbg::LockClient;
using twbg::Status;
using twbg::lock::LockMode;
using twbg::lock::RequestOutcome;
using twbg::lock::ResourceId;
using twbg::lock::TransactionId;
using twbg::txn::ConcurrentLockService;
using twbg::txn::TxnState;

// The service runs as twbg-serverd does by default: 4 shards, pauseless
// passes at a fixed 2 ms period, inline (single-threaded) pass walk.
constexpr size_t kShards = 4;
constexpr std::chrono::microseconds kPassPeriod{2000};
// A blocked acquire that has not ended after this long is a failure.
constexpr uint64_t kWaitLimitNs = 5'000'000'000ull;
// Draining the in-flight transactions after the deadline may take this
// long before the run counts the stragglers as failures.
constexpr uint64_t kDrainLimitNs = 20'000'000'000ull;
// A run measures kSegments segments of seconds / kSegments each, every
// one on a freshly set-up service with new server, client and driver
// threads, and reduces them per metric (see EndToEnd): on a small shared
// host, per-call latency drifts over seconds and with thread placement,
// and short segments sample that drift instead of letting one stretch of
// it decide the run.  setup_s is the median of the segments' set-up
// times.
constexpr int kSegments = 20;
// In-process blocked waits (closed loop) poll State at this interval,
// the granularity of InProcessClient::Await.
constexpr std::chrono::microseconds kInProcessPoll{200};
// Spans kept per recording lane in the traced phase.
constexpr size_t kSpanCapacityPerLane = 1u << 19;
// Traced TCP sessions round-trip a Ping before every this-many-th txn.
constexpr uint64_t kPingEvery = 8;
// Traced runs fail when more of the traced transactions' time than this
// is under no recorded span.  The driver's bookkeeping between a call's
// return and the next call is about 7% on cold-inproc, whose calls take
// well under a microsecond; a missing acquire or begin span there adds
// about 10%.
constexpr double kMaxHoleShare = 0.15;

// splitmix64: picks the traced transactions.  A hash rather than every
// n-th transaction, because a fixed stride can alias with the pass period
// and sample only the transactions a pass slows down.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Workload shapes.

enum class Kind { kHotspot, kCold, kWriters };

struct Shape {
  const char* name;
  Kind kind;
  // Open loop: arrivals per second, one driver thread.  Closed loop:
  // `clients` driver threads (TCP sessions for writers-tcp).
  double rate;
  size_t clients;
  // The hot set: resources [0, keys) drawn with Zipf exponent
  // zipf_theta (0 = uniform).  A share `tail_share` of the draws goes
  // instead uniformly to a cold tail of `tail_keys` further resources.
  uint32_t keys;
  double zipf_theta;
  uint32_t tail_keys;
  double tail_share;
  size_t locks_per_txn;
  // Probability that an acquire is X (else S), and that an S lock is
  // later upgraded to X by the same transaction.
  double x_share;
  double upgrade_share;
  // Open loop: think time between a transaction's steps, and the State
  // poll tick for blocked transactions.
  uint64_t step_gap_us;
  uint64_t poll_us;
  // Open loop: FIFO-stall triplets per second on private keys (see
  // Generate), on top of the `rate` background arrivals.
  double stall_rate;
  // Traced phase: spans are recorded for every call of about one
  // transaction in `trace_stride`, so the trace stays bounded.
  uint64_t trace_stride;
  // Set-up touches the key space this many times (see TouchKeys).
  uint32_t setup_rounds;
  // The service's heap is read when this many transactions of a segment
  // have begun (see HeapProbe): a fixed amount of work, so the figure
  // does not grow with throughput.
  uint64_t probe_txns;
};

bool LookupShape(const std::string& name, Shape* shape) {
  // Closed loops use at most nproc - 1 driver threads or sessions.
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const size_t clients = nproc > 2 ? static_cast<size_t>(std::min(3L, nproc - 1)) : 1;
  if (name == "hotspot-inproc") {
    *shape = {"hotspot-inproc", Kind::kHotspot, 4000.0, 1, 64, 0.8, 1u << 16,
              0.97, 4, 0.05, 0.3, 10000, 1000, 5.0, 8, 1, 2048};
  } else if (name == "cold-inproc") {
    // One client: with several, the shard and transaction-table mutexes
    // convoy, and transaction latency flips between about 4 and 30 us
    // with thread placement and host load.
    *shape = {"cold-inproc", Kind::kCold, 0.0, 1, 1u << 20, 0.0, 0,
              0.0, 4, 1.0, 0.0, 0, 0, 0.0, 256, 1, 1u << 16};
  } else if (name == "writers-tcp") {
    // Set-up touches the 64 keys 64 times over TCP: the wire path's
    // warm-up, about 4k round trips, so set-up time is work rather than
    // thread and connect noise.
    *shape = {"writers-tcp", Kind::kWriters, 0.0, clients, 64, 0.8, 0, 0.0,
              4, 0.7, 0.0, 0, 0, 0.0, 4, 64, 2048};
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Seeded input generation (before any timing).  The generators are the
// benchmark's own so that inputs stay fixed whatever the library does.

class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}
  uint64_t Below(uint64_t n) {  // uniform in [0, n)
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(gen_()) * n) >> 64);
  }
  double Unit() {  // uniform in [0, 1)
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }

 private:
  std::mt19937_64 gen_;
};

class Zipf {
 public:
  Zipf(uint32_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (uint32_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  uint32_t Draw(Rng& rng) const {
    const double u = rng.Unit();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct Step {
  ResourceId rid;
  LockMode mode;
};

// Transactions as flat step arrays: plan i is steps[first[i], first[i+1]).
struct Plans {
  std::vector<Step> steps;
  std::vector<uint32_t> first{0};
  size_t size() const { return first.size() - 1; }
  void Add(const std::vector<Step>& txn) {
    steps.insert(steps.end(), txn.begin(), txn.end());
    first.push_back(static_cast<uint32_t>(steps.size()));
  }
};

struct Inputs {
  // One plan list per driver thread (the open loop has one).
  std::vector<Plans> plans;
  // Open loop: arrival offsets from the start of the phase, ns.
  std::vector<uint64_t> arrivals;
};

// Distinct resources for one transaction.
std::vector<ResourceId> DrawDistinct(const Shape& s, const Zipf* zipf,
                                     size_t client, Rng& rng) {
  std::vector<ResourceId> rids;
  while (rids.size() < s.locks_per_txn) {
    ResourceId rid;
    if (s.kind == Kind::kCold) {
      // Client c owns the keys congruent to c modulo the client count,
      // so no two clients ever conflict.
      const uint64_t per_client = s.keys / s.clients;
      rid = static_cast<ResourceId>(client + s.clients * rng.Below(per_client));
    } else if (s.tail_share > 0 && rng.Unit() < s.tail_share) {
      rid = static_cast<ResourceId>(s.keys + rng.Below(s.tail_keys));
    } else {
      rid = zipf->Draw(rng);
    }
    if (std::find(rids.begin(), rids.end(), rid) == rids.end()) {
      rids.push_back(rid);
    }
  }
  return rids;
}

// One transaction: its acquires in order, then the S->X upgrades.
void DrawTxn(const Shape& s, const Zipf* zipf, size_t client, Rng& rng,
             std::vector<Step>* txn) {
  txn->clear();
  for (ResourceId rid : DrawDistinct(s, zipf, client, rng)) {
    txn->push_back({rid, rng.Unit() < s.x_share ? LockMode::kX : LockMode::kS});
  }
  const size_t n = txn->size();
  for (size_t i = 0; i < n; ++i) {
    if ((*txn)[i].mode == LockMode::kS && rng.Unit() < s.upgrade_share) {
      txn->push_back({(*txn)[i].rid, LockMode::kX});
    }
  }
}

Inputs Generate(const Shape& s, uint64_t seed, double seconds) {
  Rng rng(seed);
  std::unique_ptr<Zipf> zipf;
  if (s.kind != Kind::kCold) zipf = std::make_unique<Zipf>(s.keys, s.zipf_theta);
  Inputs in;
  std::vector<Step> txn;
  if (s.kind == Kind::kHotspot) {
    // Poisson background arrivals, plus Poisson FIFO-stall triplets: on
    // two private keys a and b, T1 reads a; T3 reads b; T2 asks X on a
    // and queues behind T1; T1 asks X on b and waits for T3; T3 asks S
    // on a, compatible with T1's S but queued behind T2.  The cycle runs
    // through the W edge T3 -> T2 — invisible to a classic wait-for
    // graph — and TDR-2 breaks it by moving T3 ahead of T2, aborting
    // no one.
    std::vector<std::pair<uint64_t, std::vector<Step>>> timed;
    const uint64_t end = static_cast<uint64_t>(seconds * 1e9);
    auto next = [&rng](uint64_t t, double rate) {
      return t + static_cast<uint64_t>(-std::log(1.0 - rng.Unit()) / rate * 1e9);
    };
    for (uint64_t t = next(0, s.rate); t < end; t = next(t, s.rate)) {
      DrawTxn(s, zipf.get(), 0, rng, &txn);
      timed.emplace_back(t, txn);
    }
    const uint64_t gap = s.step_gap_us * 1000;
    ResourceId key = s.keys + s.tail_keys;
    for (uint64_t t = s.stall_rate > 0 ? next(0, s.stall_rate) : end; t < end;
         t = next(t, s.stall_rate)) {
      const ResourceId a = key++, b = key++;
      timed.push_back({t, {{a, LockMode::kS}, {b, LockMode::kX}}});
      timed.push_back({t + gap / 4, {{b, LockMode::kS}, {a, LockMode::kS}}});
      timed.push_back({t + gap / 2, {{a, LockMode::kX}}});
    }
    std::stable_sort(timed.begin(), timed.end(),
                     [](const auto& x, const auto& y) { return x.first < y.first; });
    in.plans.resize(1);
    for (const auto& [t, steps] : timed) {
      in.arrivals.push_back(t);
      in.plans[0].Add(steps);
    }
    return in;
  }
  // Closed loop: a fixed pool per client, replayed cyclically.
  const size_t per_client = s.kind == Kind::kCold ? 1u << 18 : 1u << 15;
  in.plans.resize(s.clients);
  for (size_t c = 0; c < s.clients; ++c) {
    for (size_t i = 0; i < per_client; ++i) {
      DrawTxn(s, zipf.get(), c, rng, &txn);
      in.plans[c].Add(txn);
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// Measurements.

using Samples = std::vector<uint32_t>;  // nanoseconds, saturating
constexpr uint32_t kMissed = UINT32_MAX;  // a failed op misses every limit

void Put(Samples& v, uint64_t ns) {
  v.push_back(ns >= kMissed ? kMissed - 1 : static_cast<uint32_t>(ns));
}

// Nearest-rank percentile in microseconds (0 when there is no sample).
double PercentileUs(Samples v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return v[rank] / 1000.0;
}

double PercentileUs(const std::vector<uint64_t>& ns, double p) {
  Samples v;
  for (uint64_t x : ns) Put(v, x);
  return PercentileUs(std::move(v), p);
}

// Per-driver-thread outcome counts and latency samples (cache-line
// aligned: each driver thread writes its own Tally on every call).
struct alignas(64) Tally {
  uint64_t ops = 0;     // client calls attempted
  uint64_t failed = 0;  // non-OK outcomes other than victim or blocked
  uint64_t begun = 0, committed = 0, victims = 0, failed_txns = 0;
  uint64_t acquires = 0, immediate = 0, blocked = 0;
  uint64_t blocked_granted = 0, blocked_victim = 0, blocked_failed = 0;
  uint64_t failed_acquires = 0;  // non-blocking failures of the call
  uint64_t state_polls = 0, awaits = 0, pings = 0, aborts = 0;
  uint64_t inflight_sum = 0, inflight_ticks = 0;
  uint64_t last_commit_ns = 0;
  Samples txn, acquire, blocked_grant, victim_notify, lag;
  // Call durations (always taken; reported from the traced phase).
  Samples begin, acquire_immediate, commit, await, ping;

  void Merge(const Tally& o) {
    ops += o.ops; failed += o.failed; begun += o.begun;
    committed += o.committed; victims += o.victims;
    failed_txns += o.failed_txns; acquires += o.acquires;
    immediate += o.immediate; blocked += o.blocked;
    blocked_granted += o.blocked_granted; blocked_victim += o.blocked_victim;
    blocked_failed += o.blocked_failed; failed_acquires += o.failed_acquires;
    state_polls += o.state_polls; awaits += o.awaits; pings += o.pings;
    aborts += o.aborts; inflight_sum += o.inflight_sum;
    inflight_ticks += o.inflight_ticks;
    last_commit_ns = std::max(last_commit_ns, o.last_commit_ns);
    auto append = [](Samples& dst, const Samples& src) {
      dst.insert(dst.end(), src.begin(), src.end());
    };
    append(txn, o.txn);
    append(acquire, o.acquire);
    append(blocked_grant, o.blocked_grant);
    append(victim_notify, o.victim_notify);
    append(lag, o.lag);
    append(begin, o.begin);
    append(acquire_immediate, o.acquire_immediate);
    append(commit, o.commit);
    append(await, o.await);
    append(ping, o.ping);
  }

  // Reserves the sample buffers for `txns` transactions of at most
  // `steps` acquires each, so they do not grow (allocate) before then.
  // Returns the bytes reserved.
  uint64_t Reserve(uint64_t txns, uint64_t steps) {
    uint64_t bytes = 0;
    auto reserve = [&bytes](Samples& v, uint64_t n) {
      v.reserve(n);
      bytes += v.capacity() * sizeof(uint32_t);
    };
    for (Samples* v : {&txn, &victim_notify, &begin, &commit, &ping}) reserve(*v, txns);
    for (Samples* v : {&acquire, &blocked_grant, &acquire_immediate, &await}) {
      reserve(*v, txns * steps);
    }
    reserve(lag, txns * (steps + 2));
    return bytes;
  }
};

// Heap bytes in use by the process: every malloc arena, plus the chunks
// malloc maps on its own.
uint64_t HeapBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

// Measures the service's heap at a fixed amount of work: once, when the
// Shape::probe_txns-th transaction of a segment has begun.  The figure is
// the heap in use then, less the heap in use before the segment's set-up,
// less the driver's own buffers (reserved before the segment starts and
// large enough not to grow before the probe).  So it counts the service,
// its server and sessions, and not the benchmark's latency samples.  The
// pass thread takes the reading after its next pass, so no detector
// pass's transient buffers are in it.
class HeapProbe {
 public:
  HeapProbe(uint64_t at, uint64_t base) : at_(at), base_(base) {}
  // Driver buffers allocated after `base` was read; call before start.
  void Exclude(uint64_t bytes) { base_ += bytes; }
  // Driver threads: counts a begun transaction.
  void Count() {
    if (begun_.fetch_add(1, std::memory_order_relaxed) + 1 == at_) {
      requested_.store(true, std::memory_order_release);
    }
  }
  // The pass thread, between passes: takes the reading once requested.
  void MaybeRead() {
    if (!read_ && requested_.load(std::memory_order_acquire)) Read();
  }
  // After the pass thread and every driver thread have been joined: the
  // reading, taken now if the segment ended before it was.
  uint64_t bytes() {
    if (!read_) Read();
    return bytes_;
  }
  bool reached() const { return requested_.load(std::memory_order_relaxed); }

 private:
  void Read() {
    const uint64_t heap = HeapBytes();
    bytes_ = heap > base_ ? heap - base_ : 0;
    read_ = true;
  }

  const uint64_t at_;
  uint64_t base_;
  std::atomic<uint64_t> begun_{0};
  std::atomic<bool> requested_{false};
  uint64_t bytes_ = 0;
  bool read_ = false;
};

// Aggregates of the ResolutionReports of one phase's passes.
struct PassTally {
  uint64_t passes = 0, useful = 0, cycles = 0, repositioned = 0;
  uint64_t aborted = 0, txns = 0, edges = 0, reused = 0, rebuilt = 0;
  uint64_t rejected = 0, resources = 0;
  std::vector<uint64_t> pass_ns;

  void Merge(const PassTally& o) {
    passes += o.passes; useful += o.useful; cycles += o.cycles;
    repositioned += o.repositioned; aborted += o.aborted; txns += o.txns;
    edges += o.edges; reused += o.reused; rebuilt += o.rebuilt;
    rejected += o.rejected; resources += o.resources;
    pass_ns.insert(pass_ns.end(), o.pass_ns.begin(), o.pass_ns.end());
  }

  void Add(const twbg::core::ResolutionReport& r, uint64_t ns) {
    ++passes;
    pass_ns.push_back(ns);
    cycles += r.cycles_detected;
    repositioned += r.repositioned.size();
    aborted += r.aborted.size();
    useful += (r.cycles_detected > 0 || !r.aborted.empty() ||
               !r.repositioned.empty()) ? 1 : 0;
    txns += r.num_transactions;
    edges += r.num_edges;
    reused += r.edges_reused;
    rebuilt += r.edges_rebuilt;
    rejected += r.rejected;
    resources += r.num_dirty_resources + r.num_cached_resources;
  }
};

// Runs a detection pass every kPassPeriod — the service's DetectorLoop
// (wait one period, then pass) — until Stop, timing each pass from
// outside and keeping its report.
class PassDriver {
 public:
  // Pass timings reserved up front (see HeapProbe): 32 s of passes.
  static constexpr size_t kReservedPasses = 1u << 14;

  PassDriver(ConcurrentLockService* service, SpanRecorder* recorder,
             size_t lane, HeapProbe* heap)
      : service_(service), recorder_(recorder), lane_(lane), heap_(heap) {
    tally_.pass_ns.reserve(kReservedPasses);
    thread_ = std::thread([this] { Loop(); });
  }
  ~PassDriver() { Stop(); }
  PassDriver(const PassDriver&) = delete;
  PassDriver& operator=(const PassDriver&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  // Valid after Stop.
  const PassTally& tally() const { return tally_; }
  uint64_t reserved_bytes() const { return kReservedPasses * sizeof(uint64_t); }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!cv_.wait_for(lk, kPassPeriod, [this] { return stop_; })) {
      lk.unlock();
      const uint64_t t0 = NowNs();
      const twbg::core::ResolutionReport report = service_->RunDetectionPass();
      const uint64_t t1 = NowNs();
      tally_.Add(report, t1 - t0);
      if (recorder_ != nullptr) recorder_->Add(lane_, SpanName::kPass, 0, t0, t1);
      heap_->MaybeRead();
      lk.lock();
    }
  }

  ConcurrentLockService* service_;
  SpanRecorder* recorder_;
  size_t lane_;
  HeapProbe* heap_;
  PassTally tally_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// The system under test: a service, and for writers-tcp a server in
// front of it, plus one client per driver thread.

struct Rig {
  std::unique_ptr<ConcurrentLockService> service;
  std::unique_ptr<twbg::net::Server> server;
  std::vector<std::unique_ptr<LockClient>> clients;
  std::vector<twbg::net::TcpClient*> tcp;  // views of `clients` (TCP only)
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "lockbench: %s\n", what.c_str());
  std::exit(1);
}

// Acquires X once on every key of the workload's key space, in batches
// of 256 keys per transaction, Shape::setup_rounds times over.
void TouchKeys(const Shape& s, LockClient& client) {
  constexpr uint32_t kBatch = 256;
  const uint32_t count = s.keys + s.tail_keys;
  for (uint32_t round = 0; round < s.setup_rounds; ++round) {
    for (uint32_t j = 0; j < count; j += kBatch) {
      auto tid = client.Begin();
      if (!tid.ok()) Die("setup Begin: " + tid.status().ToString());
      for (uint32_t k = j; k < std::min(count, j + kBatch); ++k) {
        const ResourceId rid = static_cast<ResourceId>(k);
        auto out = client.Acquire(*tid, rid, LockMode::kX);
        if (!out.ok() || *out != RequestOutcome::kGranted) {
          Die("setup acquire was not granted");
        }
      }
      const Status st = client.Commit(*tid);
      if (!st.ok()) Die("setup Commit: " + st.ToString());
    }
  }
}

std::unique_ptr<Rig> MakeRig(const Shape& s) {
  auto rig = std::make_unique<Rig>();
  twbg::txn::ConcurrentServiceOptions options;
  options.num_shards = kShards;
  options.detection_mode = twbg::txn::DetectionMode::kPeriodic;
  // Passes come from the benchmark's PassDriver at kPassPeriod.
  options.detection_period = std::chrono::microseconds(0);
  auto service = ConcurrentLockService::Create(options);
  if (!service.ok()) Die("service: " + service.status().ToString());
  rig->service = std::move(*service);
  const size_t n_clients = s.kind == Kind::kHotspot ? 1 : s.clients;
  if (s.kind == Kind::kWriters) {
    auto server = twbg::net::Server::Create(twbg::net::ServerOptions{},
                                            rig->service.get());
    if (!server.ok()) Die("server: " + server.status().ToString());
    rig->server = std::move(*server);
    const Status st = rig->server->Start();
    if (!st.ok()) Die("server start: " + st.ToString());
    for (size_t c = 0; c < n_clients; ++c) {
      twbg::net::ClientOptions co;
      co.port = rig->server->port();
      co.request_timeout = std::chrono::milliseconds(kWaitLimitNs / 1'000'000);
      auto client = twbg::net::TcpClient::Create(co);
      if (!client.ok()) Die("connect: " + client.status().ToString());
      rig->tcp.push_back(client->get());
      rig->clients.push_back(std::move(*client));
    }
  } else {
    for (size_t c = 0; c < n_clients; ++c) {
      auto client = twbg::txn::InProcessClient::Create(rig->service.get());
      if (!client.ok()) Die("client: " + client.status().ToString());
      rig->clients.push_back(std::move(*client));
    }
  }
  // Touch the whole key space once, from one client: parallel touching
  // threads convoy on the shard mutexes and make set-up time bimodal.
  TouchKeys(s, *rig->clients[0]);
  return rig;
}

// ---------------------------------------------------------------------------
// Drivers.

// What a driver thread needs besides its client.
struct DriverContext {
  const Shape* shape;
  const Plans* plans;
  uint64_t start_ns;
  uint64_t end_ns;  // no new transaction is started at or after this
  SpanRecorder* recorder;  // null in the untraced phase
  size_t lane;
  // Added to a transaction id to key its spans: transaction ids restart
  // with every segment's service.
  uint64_t span_base;
  HeapProbe* heap;
};

// Open loop (hotspot-inproc): transactions arrive on the precomputed
// schedule whatever the service does.  A transaction runs its steps
// step_gap_us apart; a blocked step is polled through State on a fixed
// tick.  Latencies run from when the work was due.
void RunOpenLoop(const DriverContext& cx, const std::vector<uint64_t>& arrivals,
                 LockClient& client, Tally& t) {
  const Shape& s = *cx.shape;
  struct Open {
    uint32_t plan = 0;
    uint32_t step = 0;  // next step index within the plan
    TransactionId tid = 0;
    uint64_t due_ns = 0;       // arrival due time
    uint64_t step_due_ns = 0;  // current step's due time
    uint64_t wait_ns = 0;      // when the blocked acquire returned
    bool traced = false;
  };
  std::vector<Open> slots;
  std::vector<uint32_t> free_slots;
  std::vector<uint32_t> blocked;
  using Event = std::pair<uint64_t, uint32_t>;  // (due, slot)
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> ready;
  size_t inflight = 0;
  const uint64_t gap_ns = s.step_gap_us * 1000;
  const uint64_t tick_ns = s.poll_us * 1000;

  auto span = [&](const Open& o, SpanName name, uint64_t a, uint64_t b) {
    if (o.traced) cx.recorder->Add(cx.lane, name, cx.span_base + o.tid, a, b);
  };
  auto release = [&](uint32_t slot) {
    free_slots.push_back(slot);
    --inflight;
  };
  auto fail_txn = [&](uint32_t slot) {
    Open& o = slots[slot];
    ++t.failed_txns;
    Put(t.txn, kMissed);
    ++t.ops;
    ++t.aborts;
    const uint64_t a = NowNs();
    if (!client.Abort(o.tid).ok()) ++t.failed;
    span(o, SpanName::kAbort, a, NowNs());
    release(slot);
  };
  // Runs the slot's next step (an acquire, or the commit after the last).
  auto run_step = [&](uint32_t slot) {
    Open& o = slots[slot];
    const uint32_t first = cx.plans->first[o.plan];
    const uint32_t n = cx.plans->first[o.plan + 1] - first;
    const uint64_t a = NowNs();
    Put(t.lag, a - o.step_due_ns);
    span(o, SpanName::kLag, o.step_due_ns, a);
    ++t.ops;
    if (o.step == n) {
      const Status st = client.Commit(o.tid);
      const uint64_t b = NowNs();
      span(o, SpanName::kCommit, a, b);
      Put(t.commit, b - a);
      if (!st.ok()) {
        ++t.failed;
        ++t.failed_txns;
        Put(t.txn, kMissed);
      } else {
        ++t.committed;
        t.last_commit_ns = b;
        Put(t.txn, b - o.due_ns);
        span(o, SpanName::kTxn, o.due_ns, b);
      }
      release(slot);
      return;
    }
    const Step& step = cx.plans->steps[first + o.step];
    ++t.acquires;
    auto out = client.Acquire(o.tid, step.rid, step.mode);
    const uint64_t b = NowNs();
    span(o, SpanName::kAcquire, a, b);
    if (!out.ok()) {
      ++t.failed;
      ++t.failed_acquires;
      Put(t.acquire, kMissed);
      fail_txn(slot);
    } else if (*out == RequestOutcome::kBlocked) {
      ++t.blocked;
      o.wait_ns = b;
      blocked.push_back(slot);
    } else {
      ++t.immediate;
      Put(t.acquire, b - o.step_due_ns);
      Put(t.acquire_immediate, b - a);
      ++o.step;
      o.step_due_ns = b + gap_ns;
      span(o, SpanName::kThink, b, o.step_due_ns);
      ready.push({o.step_due_ns, slot});
    }
  };
  // Polls every blocked transaction once.
  auto poll = [&]() {
    size_t keep = 0;
    for (uint32_t slot : blocked) {
      Open& o = slots[slot];
      const uint64_t a = NowNs();
      ++t.ops;
      ++t.state_polls;
      auto st = client.State(o.tid);
      const uint64_t b = NowNs();
      span(o, SpanName::kState, a, b);
      if (st.ok() && *st == TxnState::kBlocked) {
        if (b - o.wait_ns < kWaitLimitNs) {
          blocked[keep++] = slot;
          continue;
        }
        span(o, SpanName::kWait, o.wait_ns, b);
        ++t.blocked_failed;
        Put(t.acquire, kMissed);
        fail_txn(slot);
        continue;
      }
      span(o, SpanName::kWait, o.wait_ns, b);
      if (st.ok() && *st == TxnState::kActive) {
        ++t.blocked_granted;
        Put(t.blocked_grant, b - o.wait_ns);
        Put(t.acquire, b - o.step_due_ns);
        ++o.step;
        o.step_due_ns = b + gap_ns;
        span(o, SpanName::kThink, b, o.step_due_ns);
        ready.push({o.step_due_ns, slot});
      } else if (st.ok() && *st == TxnState::kAborted) {
        ++t.blocked_victim;
        ++t.victims;
        Put(t.victim_notify, b - o.wait_ns);
        release(slot);
      } else {
        ++t.failed;
        ++t.blocked_failed;
        Put(t.acquire, kMissed);
        fail_txn(slot);
      }
    }
    blocked.resize(keep);
    t.inflight_sum += inflight;
    ++t.inflight_ticks;
  };

  size_t next_arrival = 0;
  uint64_t next_poll = cx.start_ns + tick_ns;
  const uint64_t drain_limit = cx.end_ns + kDrainLimitNs;
  while (true) {
    uint64_t now = NowNs();
    while (next_arrival < arrivals.size() &&
           cx.start_ns + arrivals[next_arrival] <= now &&
           cx.start_ns + arrivals[next_arrival] < cx.end_ns) {
      uint32_t slot;
      if (free_slots.empty()) {
        slot = static_cast<uint32_t>(slots.size());
        slots.emplace_back();
      } else {
        slot = free_slots.back();
        free_slots.pop_back();
      }
      Open& o = slots[slot];
      o = Open{};
      o.plan = static_cast<uint32_t>(next_arrival);
      o.due_ns = cx.start_ns + arrivals[next_arrival];
      o.traced = cx.recorder != nullptr && Mix(o.plan) % s.trace_stride == 0;
      ++next_arrival;
      ++inflight;
      cx.heap->Count();
      const uint64_t a = NowNs();
      Put(t.lag, a - o.due_ns);
      ++t.ops;
      ++t.begun;
      auto tid = client.Begin();
      const uint64_t b = NowNs();
      Put(t.begin, b - a);
      if (!tid.ok()) {
        ++t.failed;
        ++t.failed_txns;
        Put(t.txn, kMissed);
        release(slot);
        continue;
      }
      o.tid = *tid;
      span(o, SpanName::kLag, o.due_ns, a);
      span(o, SpanName::kBegin, a, b);
      o.step_due_ns = b;
      run_step(slot);
      now = NowNs();
    }
    while (!ready.empty() && ready.top().first <= now) {
      const uint32_t slot = ready.top().second;
      ready.pop();
      run_step(slot);
      now = NowNs();
    }
    if (now >= next_poll) {
      poll();
      // Paced: a poll that overran its tick does not start another at once.
      next_poll += tick_ns;
      if (next_poll <= now) next_poll = now + tick_ns;
    }
    const bool admitting = next_arrival < arrivals.size() &&
                           cx.start_ns + arrivals[next_arrival] < cx.end_ns;
    if (!admitting && inflight == 0) break;
    if (now > drain_limit) {
      // Stragglers: count each as a failed transaction and abort it.
      for (uint32_t slot : blocked) {
        ++t.blocked_failed;
        Put(t.acquire, kMissed);
        fail_txn(slot);
      }
      blocked.clear();
      while (!ready.empty()) {
        fail_txn(ready.top().second);
        ready.pop();
      }
      break;
    }
    uint64_t wake = next_poll;
    if (admitting) wake = std::min(wake, cx.start_ns + arrivals[next_arrival]);
    if (!ready.empty()) wake = std::min(wake, ready.top().first);
    // Spin until the next event: a sleeping driver wakes tens of
    // microseconds late by a varying amount, and that lateness would
    // be charged to the service.
    while (NowNs() < wake) {
    }
  }
}

// Closed loop (cold-inproc, writers-tcp): Begin, the plan's acquires
// (waiting out any block), Commit; then the next plan.  A TCP client
// waits with Await (the daemon parks the session); an in-process client
// polls State at InProcessClient::Await's granularity, bounded by
// kWaitLimitNs.
void RunClosedLoop(const DriverContext& cx, LockClient& client,
                   twbg::net::TcpClient* tcp, Tally& t) {
  const Plans& plans = *cx.plans;
  // A traced transaction's spans are staged on the stack and handed to
  // the recorder after the transaction ends, so recording adds no memory
  // traffic inside the timed window.  A transaction with more calls than
  // fit (only a very long in-process wait) records its first ones.
  SpanRecord staged[32];
  size_t n_staged = 0;
  uint64_t last_return = NowNs();
  for (uint64_t i = 0;; ++i) {
    const uint64_t t0 = NowNs();
    if (t0 >= cx.end_ns) break;
    const uint32_t plan = static_cast<uint32_t>(i % plans.size());
    const bool traced =
        cx.recorder != nullptr && Mix(i * 64 + cx.lane) % cx.shape->trace_stride == 0;
    if (tcp != nullptr && traced && i % kPingEvery == 0) {
      ++t.ops;
      ++t.pings;
      const Status st = tcp->Ping();
      const uint64_t b = NowNs();
      if (!st.ok()) ++t.failed;
      Put(t.ping, b - t0);
      cx.recorder->Add(cx.lane, SpanName::kPing, 0, t0, b);
    }
    cx.heap->Count();
    const uint64_t a0 = NowNs();
    Put(t.lag, a0 - last_return);
    ++t.ops;
    ++t.begun;
    auto tid = client.Begin();
    uint64_t b = NowNs();
    Put(t.begin, b - a0);
    if (!tid.ok()) {
      ++t.failed;
      ++t.failed_txns;
      Put(t.txn, kMissed);
      last_return = b;
      continue;
    }
    auto span = [&](SpanName name, uint64_t x, uint64_t y) {
      if (traced && n_staged < std::size(staged)) {
        staged[n_staged++] = {x, y, cx.span_base + *tid, name};
      }
    };
    span(SpanName::kBegin, a0, b);
    bool alive = true;
    bool failed = false;
    for (uint32_t k = plans.first[plan]; k < plans.first[plan + 1] && alive; ++k) {
      const Step& step = plans.steps[k];
      const uint64_t a = NowNs();
      ++t.ops;
      ++t.acquires;
      auto out = client.Acquire(*tid, step.rid, step.mode);
      b = NowNs();
      span(SpanName::kAcquire, a, b);
      if (!out.ok()) {
        ++t.failed;
        ++t.failed_acquires;
        Put(t.acquire, kMissed);
        alive = false;
        failed = true;
        break;
      }
      if (*out != RequestOutcome::kBlocked) {
        ++t.immediate;
        Put(t.acquire, b - a);
        Put(t.acquire_immediate, b - a);
        continue;
      }
      ++t.blocked;
      const uint64_t wait_start = b;
      Status st;
      if (tcp != nullptr) {
        ++t.ops;
        ++t.awaits;
        const uint64_t w = NowNs();
        st = client.Await(*tid);
        b = NowNs();
        Put(t.await, b - w);
        span(SpanName::kAwait, w, b);
      } else {
        while (true) {
          std::this_thread::sleep_for(kInProcessPoll);
          const uint64_t w = NowNs();
          ++t.ops;
          ++t.state_polls;
          auto state = client.State(*tid);
          b = NowNs();
          span(SpanName::kState, w, b);
          if (!state.ok()) {
            st = state.status();
          } else if (*state == TxnState::kActive) {
            st = Status::OK();
          } else if (*state == TxnState::kAborted) {
            st = Status::DeadlockVictim("aborted while waiting");
          } else if (*state == TxnState::kBlocked && b - wait_start < kWaitLimitNs) {
            continue;
          } else {
            st = Status::DeadlineExceeded("wait did not end");
          }
          break;
        }
        span(SpanName::kWait, wait_start, b);
      }
      if (st.ok()) {
        ++t.blocked_granted;
        Put(t.blocked_grant, b - wait_start);
        Put(t.acquire, b - a);
      } else if (st.IsDeadlockVictim()) {
        ++t.blocked_victim;
        ++t.victims;
        Put(t.victim_notify, b - wait_start);
        alive = false;
      } else {
        ++t.failed;
        ++t.blocked_failed;
        Put(t.acquire, kMissed);
        alive = false;
        failed = true;
      }
    }
    if (alive) {
      const uint64_t a = NowNs();
      ++t.ops;
      const Status st = client.Commit(*tid);
      b = NowNs();
      Put(t.commit, b - a);
      span(SpanName::kCommit, a, b);
      if (st.ok()) {
        ++t.committed;
        t.last_commit_ns = b;
        Put(t.txn, b - a0);
        span(SpanName::kTxn, a0, b);
      } else {
        ++t.failed;
        ++t.failed_txns;
        Put(t.txn, kMissed);
      }
    } else if (failed) {
      ++t.failed_txns;
      Put(t.txn, kMissed);
      ++t.ops;
      ++t.aborts;
      if (!client.Abort(*tid).ok()) ++t.failed;
      b = NowNs();
    }
    for (size_t q = 0; q < n_staged; ++q) {
      const SpanRecord& r = staged[q];
      cx.recorder->Add(cx.lane, r.name, r.txn, r.start_ns, r.end_ns);
    }
    n_staged = 0;
    last_return = NowNs();
  }
}

// ---------------------------------------------------------------------------
// One measured phase.

struct ShardTotals {
  uint64_t waits = 0, ops = 0, hold_ns = 0;
};

ShardTotals ReadShards(const ConcurrentLockService& service) {
  ShardTotals t;
  for (size_t i = 0; i < service.num_shards(); ++i) {
    const twbg::txn::ShardStats s = service.shard_stats(i);
    t.waits += s.acquire_waits;
    t.ops += s.ops;
    t.hold_ns += s.hold_ns;
  }
  return t;
}

struct Phase {
  Tally tally;
  PassTally passes;
  double seconds = 0;  // start to the last driver's exit
  uint64_t epochs = 0;
  uint64_t service_victims = 0;
  ShardTotals shards;
  std::vector<uint64_t> publish_pause_ns, apply_pause_ns, detection_lag_ns;
  twbg::net::ServerStats server;
  // The service's heap at the probe point (see HeapProbe), and whether
  // the segment reached it.
  uint64_t service_heap_bytes = 0;
  bool heap_probe_reached = false;
  std::vector<std::string> failures;
};

template <typename T>
std::vector<T> Tail(const std::vector<T>& v, size_t from) {
  return std::vector<T>(v.begin() + static_cast<std::ptrdiff_t>(std::min(from, v.size())),
                        v.end());
}

size_t MaxSteps(const Plans& plans) {
  size_t most = 0;
  for (size_t i = 0; i < plans.size(); ++i) {
    most = std::max<size_t>(most, plans.first[i + 1] - plans.first[i]);
  }
  return most;
}

// Runs one segment.  `segment` keeps span keys distinct across segments;
// `heap0` is the heap in use before the rig was set up.
Phase RunPhase(const Shape& s, const Inputs& in, Rig& rig, double seconds,
               SpanRecorder* recorder, int segment, uint64_t heap0) {
  ConcurrentLockService& svc = *rig.service;
  Phase ph;
  const uint64_t victims0 = svc.deadlock_victims();
  const uint64_t epoch0 = svc.snapshot_epoch();
  const ShardTotals shards0 = ReadShards(svc);
  const size_t publish0 = svc.publish_pause_times_ns().size();
  const size_t apply0 = svc.pause_times_ns().size();
  const size_t lag0 = svc.detection_lag_ns().size();
  const twbg::net::ServerStats server0 =
      rig.server ? rig.server->stats() : twbg::net::ServerStats{};

  const size_t n = rig.clients.size();
  std::vector<Tally> tallies(n);
  HeapProbe heap(s.probe_txns, heap0);
  // Room for twice the probe point: the pass thread reads the heap after
  // its next pass, while the drivers run on.
  for (size_t c = 0; c < n; ++c) {
    heap.Exclude(tallies[c].Reserve(2 * s.probe_txns, MaxSteps(in.plans[c])));
  }
  PassDriver passes(&svc, recorder, n, &heap);
  heap.Exclude(passes.reserved_bytes());
  const uint64_t span_base = static_cast<uint64_t>(segment) << 32;
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  if (s.kind == Kind::kHotspot) {
    std::thread driver([&] {
      DriverContext cx{&s, &in.plans[0], start, end, recorder, 0, span_base, &heap};
      RunOpenLoop(cx, in.arrivals, *rig.clients[0], tallies[0]);
    });
    driver.join();
  } else {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        DriverContext cx{&s, &in.plans[c], start, end, recorder, c, span_base, &heap};
        RunClosedLoop(cx, *rig.clients[c], rig.tcp.empty() ? nullptr : rig.tcp[c],
                      tallies[c]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  // Every client has drained; passes ran until now.
  passes.Stop();
  ph.heap_probe_reached = heap.reached();
  ph.service_heap_bytes = heap.bytes();
  for (const Tally& t : tallies) ph.tally.Merge(t);
  ph.seconds = static_cast<double>(std::max(ph.tally.last_commit_ns, end) - start) / 1e9;
  ph.passes = passes.tally();
  ph.epochs = svc.snapshot_epoch() - epoch0;
  ph.service_victims = svc.deadlock_victims() - victims0;
  const ShardTotals shards1 = ReadShards(svc);
  ph.shards = {shards1.waits - shards0.waits, shards1.ops - shards0.ops,
               shards1.hold_ns - shards0.hold_ns};
  ph.publish_pause_ns = Tail(svc.publish_pause_times_ns(), publish0);
  ph.apply_pause_ns = Tail(svc.pause_times_ns(), apply0);
  ph.detection_lag_ns = Tail(svc.detection_lag_ns(), lag0);
  if (rig.server) {
    const twbg::net::ServerStats s1 = rig.server->stats();
    ph.server = s1;
    ph.server.requests = s1.requests - server0.requests;
    ph.server.responses = s1.responses - server0.responses;
    ph.server.protocol_errors = s1.protocol_errors - server0.protocol_errors;
    ph.server.orphan_aborts = s1.orphan_aborts - server0.orphan_aborts;
    ph.server.inflight_rejects = s1.inflight_rejects - server0.inflight_rejects;
  }

  // Correctness checks.
  const Tally& t = ph.tally;
  auto check = [&ph](bool ok, const std::string& what) {
    if (!ok) ph.failures.push_back(what);
  };
  check(t.acquires == t.immediate + t.blocked + t.failed_acquires,
        "acquires not accounted for (immediate + blocked + failed != attempted)");
  check(t.blocked == t.blocked_granted + t.blocked_victim + t.blocked_failed,
        "blocked acquires not accounted for (granted + victim + failed != blocked)");
  check(t.begun == t.committed + t.victims + t.failed_txns,
        "transactions not accounted for (committed + victims + failed != begun)");
  check(t.blocked_failed == 0, "a blocked wait did not end within the bound");
  check(ph.service_victims == t.victims,
        "service victim count " + std::to_string(ph.service_victims) +
            " != client-observed victims " + std::to_string(t.victims));
  check(svc.live_transactions() == 0,
        "live transactions after drain: " + std::to_string(svc.live_transactions()));
  const Status inv = svc.CheckInvariants(true);
  check(inv.ok(), "CheckInvariants: " + inv.ToString());
  if (rig.server) {
    check(ph.server.orphan_aborts == 0, "server aborted orphaned transactions");
    check(ph.server.protocol_errors == 0, "server saw protocol errors");
  }
  return ph;
}

// Workload guards, on a whole phase (all its segments): the workload must
// exercise what it claims.  A 1 s hotspot-inproc segment makes about 4
// TDR-2 repositions, so a single segment may make none.
std::vector<std::string> GuardFailures(const Shape& s, const Phase& ph) {
  std::vector<std::string> failures;
  auto check = [&failures](bool ok, const char* what) {
    if (!ok) failures.push_back(what);
  };
  const Tally& t = ph.tally;
  switch (s.kind) {
    case Kind::kHotspot:
      check(t.victims > 0, "guard: hotspot-inproc produced no deadlock victim");
      check(ph.passes.repositioned > 0, "guard: hotspot-inproc produced no TDR-2 reposition");
      break;
    case Kind::kCold:
      check(t.blocked == 0, "guard: cold-inproc blocked an acquire");
      break;
    case Kind::kWriters:
      check(t.blocked > 0, "guard: writers-tcp blocked no acquire");
      check(t.victims > 0, "guard: writers-tcp produced no deadlock victim");
      break;
  }
  return failures;
}

// Pools `p` into `into` (counts summed, samples concatenated).
void Absorb(Phase& into, const Phase& p) {
  into.tally.Merge(p.tally);
  into.passes.Merge(p.passes);
  into.seconds += p.seconds;
  into.epochs += p.epochs;
  into.service_victims += p.service_victims;
  into.shards.waits += p.shards.waits;
  into.shards.ops += p.shards.ops;
  into.shards.hold_ns += p.shards.hold_ns;
  for (auto [dst, src] : {std::pair{&into.publish_pause_ns, &p.publish_pause_ns},
                          std::pair{&into.apply_pause_ns, &p.apply_pause_ns},
                          std::pair{&into.detection_lag_ns, &p.detection_lag_ns}}) {
    dst->insert(dst->end(), src->begin(), src->end());
  }
  into.server.requests += p.server.requests;
  into.server.responses += p.server.responses;
  into.server.protocol_errors += p.server.protocol_errors;
  into.server.orphan_aborts += p.server.orphan_aborts;
  into.server.inflight_rejects += p.server.inflight_rejects;
  into.failures.insert(into.failures.end(), p.failures.begin(), p.failures.end());
}

// ---------------------------------------------------------------------------
// Wire-codec timing on the workload's own request mix (net.encode_ns,
// net.decode_ns), and the frame bytes of each message kind.

size_t FrameBytes(twbg::net::MsgType type) {
  twbg::net::Request rq;
  rq.type = type;
  rq.req_id = 1;
  rq.tid = 1;
  rq.rid = 1;
  twbg::net::Response rs;
  rs.type = type;
  rs.req_id = 1;
  rs.tid = 1;
  return twbg::net::EncodeRequest(rq).size() + twbg::net::EncodeResponse(rs).size();
}

struct CodecTiming {
  double encode_ns = 0;
  double decode_ns = 0;
};

CodecTiming TimeCodec(const Plans& plans) {
  using twbg::net::MsgType;
  std::vector<twbg::net::Request> requests;
  uint64_t req_id = 1;
  for (size_t p = 0; p < std::min<size_t>(plans.size(), 4096); ++p) {
    const TransactionId tid = static_cast<TransactionId>(p + 1);
    requests.push_back({MsgType::kBegin, req_id++, 0, 0, LockMode::kS, 0.0, {}});
    for (uint32_t k = plans.first[p]; k < plans.first[p + 1]; ++k) {
      const Step& st = plans.steps[k];
      requests.push_back({MsgType::kAcquire, req_id++, tid, st.rid, st.mode, 0.0, {}});
    }
    requests.push_back({MsgType::kCommit, req_id++, tid, 0, LockMode::kS, 0.0, {}});
  }
  std::vector<std::string> payloads;
  for (const twbg::net::Request& rq : requests) {
    twbg::net::Response rs;
    rs.type = rq.type;
    rs.req_id = rq.req_id;
    rs.tid = rq.tid;
    const std::string frame = twbg::net::EncodeResponse(rs);
    twbg::net::FrameReader reader;
    reader.Append(frame.data(), frame.size());
    std::string payload;
    if (!reader.Next(&payload).ok()) Die("codec: response frame did not split");
    payloads.push_back(std::move(payload));
  }
  constexpr int kReps = 20;
  size_t sink = 0;
  uint64_t t0 = NowNs();
  for (int r = 0; r < kReps; ++r) {
    for (const twbg::net::Request& rq : requests) {
      sink += twbg::net::EncodeRequest(rq).size();
    }
  }
  uint64_t t1 = NowNs();
  CodecTiming ct;
  const double calls = static_cast<double>(kReps) * static_cast<double>(requests.size());
  ct.encode_ns = static_cast<double>(t1 - t0) / calls;
  twbg::net::Response out;
  t0 = NowNs();
  for (int r = 0; r < kReps; ++r) {
    for (const std::string& payload : payloads) {
      if (!twbg::net::DecodeResponse(payload, &out).ok()) Die("codec: decode failed");
      sink += out.req_id;
    }
  }
  t1 = NowNs();
  ct.decode_ns = static_cast<double>(t1 - t0) / calls;
  if (sink == 0) Die("codec: nothing encoded");
  return ct;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Steal and total jiffies of all CPUs from /proc/stat ({0, 0} when
// unreadable): on a virtual machine, the time the hypervisor ran other
// guests instead of this one.
std::pair<uint64_t, uint64_t> CpuSteal() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                            &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  uint64_t total = 0;
  for (unsigned long long x : v) total += x;
  return {v[7], total};
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double TxnPerS(const Phase& ph) {
  return Ratio(static_cast<double>(ph.tally.committed), ph.seconds);
}

// One segment's end-to-end figures, taken before its samples are pooled.
struct SegmentFigures {
  double setup_s = 0;
  double txn_per_s = 0;
  double txn_p50_us = 0;
  double txn_p99_us = 0;
  double acquire_p50_us = 0;
  double lag_p50_us = 0;
  double lag_p99_us = 0;
  double service_heap_mb = 0;
  bool heap_probe_reached = false;
};

SegmentFigures Figures(const Phase& ph, double setup_s) {
  return {setup_s,
          TxnPerS(ph),
          PercentileUs(ph.tally.txn, 0.50),
          PercentileUs(ph.tally.txn, 0.99),
          PercentileUs(ph.tally.acquire, 0.50),
          PercentileUs(ph.tally.lag, 0.50),
          PercentileUs(ph.tally.lag, 0.99),
          static_cast<double>(ph.service_heap_bytes) / (1024.0 * 1024.0),
          ph.heap_probe_reached};
}

std::vector<double> Column(const std::vector<SegmentFigures>& segments,
                           double SegmentFigures::*field) {
  std::vector<double> v;
  for (const SegmentFigures& f : segments) v.push_back(f.*field);
  return v;
}

double MedianOf(const std::vector<SegmentFigures>& segments, double SegmentFigures::*field) {
  return Median(Column(segments, field));
}
double LowestOf(const std::vector<SegmentFigures>& segments, double SegmentFigures::*field) {
  const std::vector<double> v = Column(segments, field);
  return *std::min_element(v.begin(), v.end());
}
double HighestOf(const std::vector<SegmentFigures>& segments, double SegmentFigures::*field) {
  const std::vector<double> v = Column(segments, field);
  return *std::max_element(v.begin(), v.end());
}

// The end-to-end metrics.  setup_s and service_heap_mb are medians over
// the segments.  Throughput and latency are the best segment's (highest
// txn_per_s, lowest percentiles): on a virtual machine that shares its
// cores and caches with other guests, per-call speed drops by up to 40%
// for seconds to minutes at a time, so the median segment flips between
// a fast and a slow mode from run to run.  The best segment is the one that
// interference touched least; a slower program slows every segment.
std::vector<Metric> EndToEnd(const std::vector<SegmentFigures>& segments) {
  return {
      {"setup_s", MedianOf(segments, &SegmentFigures::setup_s), "s"},
      {"txn_per_s", HighestOf(segments, &SegmentFigures::txn_per_s), "1/s"},
      {"txn_p50_us", LowestOf(segments, &SegmentFigures::txn_p50_us), "us"},
      {"txn_p99_us", LowestOf(segments, &SegmentFigures::txn_p99_us), "us"},
      {"service_heap_mb", MedianOf(segments, &SegmentFigures::service_heap_mb), "MB"},
  };
}

// End-to-end metrics that cannot carry a regression bound, reported with
// the per-layer set.  On hotspot-inproc, acquire_p50_us is a ~1 us
// in-process call that moves by a quarter between runs with the host's
// load, and acquire_p99_us sits on the knee between immediate and
// blocked grants (about 1% of acquires block), so it jumps between runs.
// The blocked and victim latencies and the abort ratio are not defined
// on cold-inproc, which never blocks; failed_ratio is 0 on a healthy run.
std::vector<Metric> WorkloadSpecific(const Phase& ph) {
  const Tally& t = ph.tally;
  return {
      {"acquire_p50_us", PercentileUs(t.acquire, 0.50), "us"},
      {"acquire_p99_us", PercentileUs(t.acquire, 0.99), "us"},
      {"blocked_grant_p50_us", PercentileUs(t.blocked_grant, 0.50), "us"},
      {"victim_notify_p50_us", PercentileUs(t.victim_notify, 0.50), "us"},
      {"abort_ratio", Ratio(static_cast<double>(t.victims), static_cast<double>(t.begun)), "ratio"},
      {"failed_ratio", Ratio(static_cast<double>(t.failed), static_cast<double>(t.ops)), "ratio"},
  };
}

std::vector<Metric> PerLayer(const Shape& s, const Phase& ph, const Phase& base,
                             double overhead_share, const CodecTiming& codec,
                             const SpanRecorder::Reconciliation& rec) {
  const Tally& t = ph.tally;
  const PassTally& p = ph.passes;
  const bool tcp = s.kind == Kind::kWriters;
  const double begun = static_cast<double>(t.begun);
  const double passes = static_cast<double>(p.passes);
  double bytes = 0;
  if (tcp) {
    using twbg::net::MsgType;
    bytes = static_cast<double>(t.begun) * static_cast<double>(FrameBytes(MsgType::kBegin)) +
            static_cast<double>(t.acquires) * static_cast<double>(FrameBytes(MsgType::kAcquire)) +
            static_cast<double>(t.awaits) * static_cast<double>(FrameBytes(MsgType::kAwait)) +
            static_cast<double>(t.committed) * static_cast<double>(FrameBytes(MsgType::kCommit)) +
            static_cast<double>(t.aborts) * static_cast<double>(FrameBytes(MsgType::kAbort)) +
            static_cast<double>(t.pings) * static_cast<double>(FrameBytes(MsgType::kPing));
  }
  std::vector<Metric> m = {
      {"net.ping_rtt_p50_us", PercentileUs(t.ping, 0.50), "us"},
      {"net.encode_ns", codec.encode_ns, "ns"},
      {"net.decode_ns", codec.decode_ns, "ns"},
      {"net.bytes_per_txn", Ratio(bytes, begun), "B"},
      {"net.requests_per_txn", Ratio(static_cast<double>(ph.server.requests), begun), "count"},
      {"net.await_call_p50_us", PercentileUs(t.await, 0.50), "us"},
      {"net.inflight_rejects", static_cast<double>(ph.server.inflight_rejects), "count"},
      {"net.protocol_errors", static_cast<double>(ph.server.protocol_errors), "count"},
      {"txn.begin_p50_us", PercentileUs(t.begin, 0.50), "us"},
      {"txn.acquire_immediate_p50_us", PercentileUs(t.acquire_immediate, 0.50), "us"},
      {"txn.commit_p50_us", PercentileUs(t.commit, 0.50), "us"},
      {"txn.publish_pause_p99_us", PercentileUs(ph.publish_pause_ns, 0.99), "us"},
      {"txn.apply_pause_p99_us", PercentileUs(ph.apply_pause_ns, 0.99), "us"},
      {"txn.detection_lag_p50_us", PercentileUs(ph.detection_lag_ns, 0.50), "us"},
      {"txn.rejected_per_pass", Ratio(static_cast<double>(p.rejected), passes), "count"},
      {"txn.state_polls_per_grant",
       Ratio(static_cast<double>(t.state_polls), static_cast<double>(t.blocked_granted)), "count"},
      {"lock.shard_hold_ns_per_op",
       Ratio(static_cast<double>(ph.shards.hold_ns), static_cast<double>(ph.shards.ops)), "ns"},
      {"lock.shard_wait_share",
       Ratio(static_cast<double>(ph.shards.waits), static_cast<double>(ph.shards.ops)), "ratio"},
      {"lock.resources_live", Ratio(static_cast<double>(p.resources), passes), "count"},
      {"core.passes_per_s", Ratio(static_cast<double>(ph.epochs), ph.seconds), "1/s"},
      {"core.pass_p50_us", PercentileUs(p.pass_ns, 0.50), "us"},
      {"core.pass_p99_us", PercentileUs(p.pass_ns, 0.99), "us"},
      {"core.txns_per_pass", Ratio(static_cast<double>(p.txns), passes), "count"},
      {"core.edges_per_pass", Ratio(static_cast<double>(p.edges), passes), "count"},
      {"core.edge_reuse_share",
       Ratio(static_cast<double>(p.reused), static_cast<double>(p.reused + p.rebuilt)), "ratio"},
      {"core.cycles_per_pass", Ratio(static_cast<double>(p.cycles), passes), "count"},
      {"core.useful_pass_share", Ratio(static_cast<double>(p.useful), passes), "ratio"},
      {"core.tdr2_share",
       Ratio(static_cast<double>(p.repositioned),
             static_cast<double>(p.repositioned + p.aborted)), "ratio"},
      {"driver.lag_p99_us", PercentileUs(t.lag, 0.99), "us"},
      {"driver.inflight_mean",
       s.kind == Kind::kHotspot
           ? Ratio(static_cast<double>(t.inflight_sum), static_cast<double>(t.inflight_ticks))
           : static_cast<double>(s.clients),
       "count"},
      {"trace.overhead_share", overhead_share, "ratio"},
      {"trace.gap_share", rec.gap_share, "ratio"},
  };
  for (Metric& w : WorkloadSpecific(base)) m.push_back(w);
  return m;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("-- %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
}

void PrintSummary(const char* title, const Phase& ph) {
  const Tally& t = ph.tally;
  const PassTally& p = ph.passes;
  std::printf(
      "-- %s: %.3f s, txns begun=%llu committed=%llu victims=%llu failed=%llu; "
      "acquires=%llu immediate=%llu blocked=%llu (granted=%llu victim=%llu "
      "failed=%llu); ops=%llu failed_ops=%llu; samples txn=%zu acquire=%zu; "
      "passes=%llu cycles=%llu aborted=%llu repositioned=%llu rejected=%llu; "
      "inflight mean %.1f\n",
      title, ph.seconds, static_cast<unsigned long long>(t.begun),
      static_cast<unsigned long long>(t.committed),
      static_cast<unsigned long long>(t.victims),
      static_cast<unsigned long long>(t.failed_txns),
      static_cast<unsigned long long>(t.acquires),
      static_cast<unsigned long long>(t.immediate),
      static_cast<unsigned long long>(t.blocked),
      static_cast<unsigned long long>(t.blocked_granted),
      static_cast<unsigned long long>(t.blocked_victim),
      static_cast<unsigned long long>(t.blocked_failed),
      static_cast<unsigned long long>(t.ops),
      static_cast<unsigned long long>(t.failed), t.txn.size(), t.acquire.size(),
      static_cast<unsigned long long>(p.passes),
      static_cast<unsigned long long>(p.cycles),
      static_cast<unsigned long long>(p.aborted),
      static_cast<unsigned long long>(p.repositioned),
      static_cast<unsigned long long>(p.rejected),
      Ratio(static_cast<double>(t.inflight_sum), static_cast<double>(t.inflight_ticks)));
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Short(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
  std::string git_rev = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "lockbench: %s\nusage: lockbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--git-rev REV]\n"
               "workloads: hotspot-inproc cold-inproc writers-tcp\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 120) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--git-rev") {
      a.git_rev = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.seconds == 0 || a.trace < 0) Usage("missing flag");
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Shape s;
  if (!LookupShape(args.workload, &s)) Usage("unknown workload");
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  std::printf(
      "meta: {\"seed\": %llu, \"nproc\": %ld, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"TWBG_LTO\": \"%s\", \"git_rev\": \"%s\", "
      "\"trace\": %d, \"seconds\": %s}\n",
      static_cast<unsigned long long>(args.seed), sysconf(_SC_NPROCESSORS_ONLN),
      LOCKBENCH_COMPILER, LOCKBENCH_BUILD_TYPE, LOCKBENCH_LTO,
      args.git_rev.c_str(), args.trace, Short(args.seconds).c_str());
  std::printf(
      "shape: {\"workload\": \"%s\", \"loop\": \"%s\", \"arrival_rate_per_s\": %s, "
      "\"clients\": %zu, \"keys\": %u, \"zipf_theta\": %s, \"tail_keys\": %u, \"tail_share\": %s, \"locks_per_txn\": %zu, "
      "\"x_share\": %s, \"upgrade_share\": %s, \"step_gap_us\": %llu, \"poll_us\": %llu, \"shards\": %zu, "
      "\"pass_period_us\": %lld, \"setup_rounds\": %u, \"heap_probe_txns\": %llu}\n",
      s.name, s.kind == Kind::kHotspot ? "open" : "closed", Short(s.rate).c_str(),
      s.kind == Kind::kHotspot ? size_t{1} : s.clients, s.keys,
      Short(s.zipf_theta).c_str(), s.tail_keys, Short(s.tail_share).c_str(),
      s.locks_per_txn,
      Short(s.x_share).c_str(), Short(s.upgrade_share).c_str(),
      static_cast<unsigned long long>(s.step_gap_us),
      static_cast<unsigned long long>(s.poll_us), kShards,
      static_cast<long long>(kPassPeriod.count()), s.setup_rounds,
      static_cast<unsigned long long>(s.probe_txns));

  // Segment j of either phase uses inputs generated from (seed, j), so
  // the traced and untraced phases replay the same inputs.  Each
  // segment's figures are taken before its samples are pooled.
  const double segment_s = args.seconds / kSegments;
  struct Measured {
    Phase pooled;
    std::vector<SegmentFigures> segments;
  };
  auto run_segment = [&](int j, SpanRecorder* recorder, double* setup_s) {
    const Inputs in = Generate(s, Mix(args.seed) + static_cast<uint64_t>(j), segment_s);
    const uint64_t heap0 = HeapBytes();
    const uint64_t t0 = NowNs();
    std::unique_ptr<Rig> rig = MakeRig(s);
    *setup_s = static_cast<double>(NowNs() - t0) / 1e9;
    return RunPhase(s, in, *rig, segment_s, recorder, j, heap0);
  };
  auto measure = [&](SpanRecorder* recorder) {
    Measured m;
    for (int j = 0; j < kSegments; ++j) {
      double setup_s = 0;
      const Phase ph = run_segment(j, recorder, &setup_s);
      m.segments.push_back(Figures(ph, setup_s));
      Absorb(m.pooled, ph);
    }
    return m;
  };

  // One warm-up segment first, checked but not measured.  The process's
  // first segment runs on a cold heap and caches: on hotspot-inproc its
  // transaction p50 reads milliseconds instead of microseconds.
  double warm_setup_s = 0;
  const Phase warm = run_segment(kSegments, nullptr, &warm_setup_s);
  std::vector<std::string> failures;
  for (const std::string& f : warm.failures) failures.push_back("warm-up: " + f);
  const auto steal0 = CpuSteal();
  const Measured base = measure(nullptr);
  const auto steal1 = CpuSteal();
  // Host interference is not a property of the program; it is printed so
  // that a run it disturbed can be recognised.
  std::printf("-- host: CPU steal %.2f%% of CPU time during the untraced phase\n",
              100 * Ratio(static_cast<double>(steal1.first - steal0.first),
                          static_cast<double>(steal1.second - steal0.second)));
  PrintSummary("untraced phase", base.pooled);
  failures.insert(failures.end(), base.pooled.failures.begin(), base.pooled.failures.end());
  for (const std::string& f : GuardFailures(s, base.pooled)) failures.push_back(f);
  uint64_t attempted = warm.tally.ops + base.pooled.tally.ops;
  uint64_t failed = warm.tally.failed + base.pooled.tally.failed;
  for (const SegmentFigures& f : base.segments) {
    std::printf(
        "-- segment: setup_s %.6f txn_per_s %.1f txn_p50_us %.3f txn_p99_us %.3f "
        "acquire_p50_us %.3f driver lag p50/p99 %.3f/%.3f us service_heap_mb %.3f%s\n",
        f.setup_s, f.txn_per_s, f.txn_p50_us, f.txn_p99_us, f.acquire_p50_us, f.lag_p50_us,
        f.lag_p99_us, f.service_heap_mb, f.heap_probe_reached ? "" : " (read at segment end)");
  }
  std::vector<Metric> result = EndToEnd(base.segments);
  PrintMetrics("end-to-end (untraced; set-up and heap: median segment, the rest: best segment)",
               result);
  PrintMetrics("workload-specific end-to-end (untraced)", WorkloadSpecific(base.pooled));

  if (args.trace == 1) {
    SpanRecorder recorder(s.kind == Kind::kHotspot ? 2 : s.clients + 1, kSpanCapacityPerLane);
    const Measured traced_run = measure(&recorder);
    const Phase& traced = traced_run.pooled;
    PrintSummary("traced phase", traced);
    for (const std::string& f : traced.failures) failures.push_back("traced: " + f);
    for (const std::string& f : GuardFailures(s, traced)) failures.push_back("traced: " + f);
    attempted += traced.tally.ops;
    failed += traced.tally.failed;
    const double overhead =
        1.0 - Ratio(HighestOf(traced_run.segments, &SegmentFigures::txn_per_s),
                    HighestOf(base.segments, &SegmentFigures::txn_per_s));
    const SpanRecorder::Reconciliation rec = recorder.Reconcile();
    const double txn_p50_ns = PercentileUs(traced.tally.txn, 0.5) * 1000.0;
    const double error = Ratio(std::fabs(rec.median_ns - txn_p50_ns), txn_p50_ns);
    std::printf(
        "-- trace: %zu spans (%llu dropped), %zu txns rebuilt, rebuilt p50 %.3f us vs "
        "client txn_p50 %.3f us (error %.2f%%), time under no span %.1f%%\n",
        recorder.recorded(), static_cast<unsigned long long>(recorder.dropped()),
        rec.txns, rec.median_ns / 1000.0, txn_p50_ns / 1000.0, error * 100,
        rec.gap_share * 100);
    // Two checks (see SpanRecorder::Reconcile).  The rebuilt median must
    // match the client's, so the traced sample is representative.  And
    // the recorded spans must explain the latency: a call or wait that
    // lost its span leaves a hole, and only the driver's bookkeeping
    // between two timestamps may fall outside every span.
    if (rec.txns == 0 || error > 0.10) {
      failures.push_back("trace: rebuilt txn p50 is not within 10% of client txn_p50_us");
    }
    if (rec.gap_share > kMaxHoleShare) {
      failures.push_back("trace: more than " + Short(kMaxHoleShare * 100) +
                         "% of traced transaction time is under no span");
    }
    if (!args.trace_out.empty()) {
      const char* layer = s.kind == Kind::kWriters ? "net" : "txn";
      if (!recorder.WriteChromeJson(args.trace_out, layer)) {
        failures.push_back("trace: cannot write " + args.trace_out);
      } else {
        std::printf("-- trace written to %s\n", args.trace_out.c_str());
      }
    }
    const Inputs codec_inputs = Generate(s, Mix(args.seed), segment_s);
    result = PerLayer(s, traced, base.pooled, overhead, TimeCodec(codec_inputs.plans[0]), rec);
    PrintMetrics("per-layer (traced)", result);
  }

  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  PrintResult(failures.empty(), attempted, failed, result);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace lockbench

int main(int argc, char** argv) { return lockbench::Main(argc, argv); }
