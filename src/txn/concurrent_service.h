// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Thread-safe strict-2PL lock service with periodic deadlock detection
// and resolution (§5).  The lock table is striped into `num_shards`
// hash-sharded partitions, each with its own mutex, LockManager (own
// version-stamp domain and mutation journal) and contention counters.
// Acquires touch exactly one shard; commits/aborts lock only the shards
// the transaction touched.  Deadlocks are resolved by the periodic pass —
// run by a dedicated detector thread every `detection_period`, or by
// explicit RunDetectionPass() calls.  Each pass stamps a new snapshot
// epoch.  (The continuous companion algorithm is TransactionManager's:
// a sequential engine, which the differential suites compare against.)
// Two pass strategies (SnapshotStrategy):
//
//   - kEpochDelta (the default, "pauseless"): each shard publishes its
//     mutation-journal delta plus a slim mirror of its wait map into a
//     detector-owned epoch mirror (txn/epoch_snapshot.h) under its own
//     mutex — an O(delta + active transactions) pause, independent of
//     table size — and the component-parallel Step 1/2 walk runs over the
//     sealed mirrors while client traffic proceeds on the live shards.
//     Resolution applies as a *validated change-list*: every decision
//     carries the version stamps of the evidence it was derived from
//     (core::VictimDecision::evidence) — every resource on its cycle,
//     which includes the resource a TDR-2 decision repositions; the apply
//     phase re-checks the stamps under every shard mutex, txn_mu_ and
//     (when observed) the observability mutex, and drops — as
//     kResolutionRejected, retried next pass — any decision whose
//     evidence moved between seal and apply.  A pass with no decision has
//     no apply: after its publishes it takes no shard mutex and no
//     txn_mu_, only the observability mutex for its pass events (and
//     each shard mutex briefly, one at a time, to read the counters it
//     reports).  A validated decision's evidence is byte-identical live
//     and sealed, so the cycle it resolves exists at apply time: no
//     phantom victim is possible, and a persistent deadlock (which cannot
//     mutate: every member is blocked) validates on the next pass at the
//     latest.
//   - kStopTheWorld: the pass briefly stops the world (all shard locks),
//     drains the journals into the per-shard incremental graph caches and
//     detects in place.  The event stream recorded under a pass is a true
//     linearization suitable for replay oracles, at the cost of pauses
//     that grow with table size.
//
// With no detector thread (detection_period == 0, the default) nothing
// resolves a deadlock until the caller runs RunDetectionPass; threaded
// callers that can deadlock configure a detection_period.
//
// Robustness layer (optional, all off by default; see docs/ROBUSTNESS.md):
//
//   * lock-wait deadlines (microseconds): an expired waiter withdraws its
//     request with full queue-invariant maintenance and AcquireBlocking
//     returns kDeadlineExceeded; after `deadline.abort_after` expiries the
//     transaction is aborted server-side.  Deadline-armed (and
//     fault-injected) waits park in a polling loop, so they also survive
//     dropped wakeups.
//   * admission control: Begin is shed at `admission.max_inflight_txns`
//     live transactions, a blocking acquire at
//     `admission.queue_depth_watermark` blocked transactions in the
//     target shard — both with kResourceExhausted (kAdmissionReject
//     event), to be retried after backoff (AcquireWithRetry).
//   * graceful degradation: when a detection pass pauses the service
//     longer than `degradation.pause_budget_ns` — for kEpochDelta the
//     recorded pause is max(longest shard publish, apply critical
//     section); for kStopTheWorld it is the whole pass — the next
//     `degraded_passes` scheduled passes run a cheap timeout-resolver
//     sweep (abort transactions observed blocked for `sweep_patience`
//     consecutive sweeps) instead of full detection, with a kDegraded
//     event emitted when the engine degrades.
//   * deterministic fault injection: a robustness::FaultPlan addressed by
//     (txn, per-txn operation index) injects crash-txn and delay-grant
//     faults at AcquireBlocking entry, drop-wakeup at the notifier's
//     terminate cv broadcast (never the unblock announcement), and
//     stall-shard at the target shard's next acquire.
//
// Every exit from kBlocked (grant, victim or sweep abort, withdrawn wait,
// abort of a waiter) calls the unblock listener (SetUnblockListener), and
// the shard cv broadcast follows; Await and AcquireBlocking park on it.
//
// Lock ordering (deadlock-free by construction): shard mutexes in
// ascending shard index, then the transaction-table mutex (txn_mu_), then
// the observability mutex.  Every bus emission happens under the
// observability mutex, so attaching a bus serializes the service's
// emission points — sinks see one totally ordered stream that is a true
// linearization of the lock-state history (the replay-parity stress suite
// depends on this).  Sink callbacks must not call back into the service.
//
// Transaction table: a slab of fixed-address records, one per live
// transaction (plus any terminated one a parked waiter can still reach),
// recycled through a free list; a finished tid is answered from a 1-bit
// outcome map (committed / aborted).  txn_mu_ guards only Begin's slot
// allocation and admission, slot reclamation, the outcome map, the
// unblock-listener slot, the release scratch buffers and the apply of a
// pass that has decisions — an immediately granted
// acquire takes no txn_mu_ (it looks the record up in a direct-mapped,
// reader-safe index; each record stores its tid), and a single-shard commit
// takes it once.  The record fields the acquire path writes (shard_mask,
// ops_executed, locks_granted, wait_shard, cost) are single-writer
// atomics: only the transaction's own operation writes them, except
// while it is kBlocked, when the releaser or the pass that grants or
// aborts it does — holding the shard mutex it waits in.
// Wait-span caveat: wait-span ids are per-shard domains (each shard's
// LockManager numbers its own spans), so span values are not comparable
// with a single-manager run; kinds/tids/rids/counters are.

#ifndef TWBG_TXN_CONCURRENT_SERVICE_H_
#define TWBG_TXN_CONCURRENT_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/parallel_detector.h"
#include "core/view.h"
#include "obs/span.h"
#include "obs/span_sinks.h"
#include "sched/period_controller.h"
#include "txn/epoch_snapshot.h"
#include "txn/robustness/robustness.h"
#include "txn/transaction_manager.h"

namespace twbg::txn {

/// How a detection pass observes the sharded lock state (see the file
/// comment for the full protocol descriptions).
enum class SnapshotStrategy {
  /// Pauseless: per-shard O(delta) journal publish into a sealed epoch
  /// mirror, detection off to the side, stamp-validated change-list
  /// apply.  The default.
  kEpochDelta,
  /// Hold every shard mutex for the whole pass.  Larger pauses, but the
  /// recorded event stream is a true linearization (replay oracles).
  kStopTheWorld,
};

/// Configuration of a ConcurrentLockService (see Create).
struct ConcurrentServiceOptions {
  /// Lock-table partitions, in [1, 64].  Resources are hash-assigned to
  /// shards; more shards mean less mutex contention between independent
  /// acquires.
  size_t num_shards = 1;
  /// Deprecated and scheduled for removal: the service has a single,
  /// periodic engine, so Validate accepts only kPeriodic (the default).
  /// The continuous engine is TransactionManager's.
  DetectionMode detection_mode = DetectionMode::kPeriodic;
  /// How the periodic pass snapshots the shards.
  SnapshotStrategy snapshot_strategy = SnapshotStrategy::kEpochDelta;
  /// Period of the dedicated detector thread; zero means no thread — the
  /// caller drives RunDetectionPass itself.  With a non-fixed `scheduler`
  /// policy this is only the *initial* period; the controller retunes it
  /// after every full pass (see current_detection_period()).
  std::chrono::microseconds detection_period{0};
  /// Closed-loop scheduling of the detector thread (docs/TUNING.md).
  /// Units are MICROSECONDS (min_period/max_period bound the retuned
  /// period; pass costs are fed to the controller in µs too).  The default
  /// kFixedPeriod policy never moves the period — byte-identical to the
  /// pre-scheduler service, so adaptive scheduling is strictly opt-in.
  /// A non-fixed policy requires detection_period > 0.
  sched::SchedulerOptions scheduler;
  /// Worker threads for the parallel pass; zero runs the pass entirely on
  /// the invoking thread.
  size_t detection_threads = 0;
  /// Victim-cost metric, as in TransactionManagerOptions.
  CostPolicy cost_policy = CostPolicy::kLocksHeld;
  /// Detector tuning; `detector.event_bus` defaults to `event_bus`.
  core::DetectorOptions detector;
  /// Structured-event bus (not owned; may be null).  Attaching a bus
  /// serializes the service — see the file comment.
  obs::EventBus* event_bus = nullptr;
  /// Causal span tracer (not owned; may be null).  Attaching one
  /// serializes the service exactly like a bus: every span call happens
  /// under the observability mutex, satisfying the tracer's single-writer
  /// contract.  The service opens txn spans at Begin / Terminate, the
  /// shard lock managers open/close the wait spans, and each pass emits a
  /// kPass span with kPublish / kApply / kResolution children (pauseless;
  /// a pass with no decision has no apply, so no kApply)
  /// — the engine's own detector tracer stays unset because the
  /// component-parallel walk runs on worker threads.  Required when
  /// scheduler.use_span_estimates is set.
  obs::SpanTracer* span_tracer = nullptr;
  /// Robustness knobs.  Deadline units are MICROSECONDS here (wall
  /// clock); `deadline.txn_budget` is not enforced by the service (it
  /// belongs to the discrete-time hosts).  All disabled by default.
  robustness::RobustnessOptions robustness;
  /// Deterministic faults to inject (empty = none).  See the file
  /// comment for how each FaultKind maps onto the service.
  robustness::FaultPlan fault_plan;
  /// Test hook (kEpochDelta only; may be null): runs on the pass thread
  /// after the epoch is sealed and detected but before the validated
  /// apply, with NO service lock held — so a test can race commits/aborts
  /// into the seal-to-apply window deterministically.
  std::function<void()> post_seal_hook;

  /// Rejects out-of-domain combinations — num_shards outside [1, 64],
  /// detection_mode other than kPeriodic, an adaptive scheduler without a
  /// detector thread, scheduler.use_span_estimates without a span tracer,
  /// bad robustness knobs.
  Status Validate() const;
};

/// Cumulative per-shard contention counters.
struct ShardStats {
  /// Lock attempts that found the shard mutex already held.
  uint64_t acquire_waits = 0;
  /// Operations routed to the shard (acquires, releases, passes).
  uint64_t ops = 0;
  /// Total shard-mutex hold time, nanoseconds.
  uint64_t hold_ns = 0;
};

/// Samples each pass history keeps (pause_times_ns() and its siblings):
/// at a 2 ms period, about two minutes of passes.  Fixed, so a
/// long-running daemon's memory stays bounded.
inline constexpr size_t kPassHistoryCapacity = 65536;

/// The most recent `capacity` samples of a series.  Push is O(1); once
/// full it overwrites the oldest sample.  Storage grows with the samples,
/// up to the cap — nothing is reserved up front.
class RecentSamples {
 public:
  /// `capacity` must be positive.
  explicit RecentSamples(size_t capacity = kPassHistoryCapacity)
      : capacity_(capacity) {}
  void Push(uint64_t sample);
  /// The retained samples, oldest first.
  std::vector<uint64_t> Ordered() const;

 private:
  size_t capacity_;
  std::vector<uint64_t> samples_;
  size_t oldest_ = 0;  // index of the oldest sample once full
};

/// Thread-safe strict-2PL lock service with periodic deadlock resolution.
/// See the file comment for the pass strategies and the locking
/// discipline.
class ConcurrentLockService {
 public:
  /// Validates `options` (ConcurrentServiceOptions::Validate) and builds
  /// the service; invalid combinations are rejected with InvalidArgument
  /// rather than silently coerced.  Default options give a one-shard
  /// service with no detector thread (passes run on RunDetectionPass).
  static Result<std::unique_ptr<ConcurrentLockService>> Create(
      ConcurrentServiceOptions options);

  ConcurrentLockService(const ConcurrentLockService&) = delete;
  ConcurrentLockService& operator=(const ConcurrentLockService&) = delete;

  /// Stops and joins the detector thread, if any.  No other thread may be
  /// inside a call when destruction begins.
  ~ConcurrentLockService();

  /// Starts a transaction.  kResourceExhausted when admission control
  /// sheds the Begin (retry after backoff).
  Result<lock::TransactionId> Begin();

  /// Acquires `mode` on `rid`, blocking the calling thread until granted.
  /// Canonical outcomes:
  ///   kOk                 granted;
  ///   kDeadlockVictim     chosen as deadlock victim (locks gone; Begin a
  ///                       new transaction to retry);
  ///   kDeadlineExceeded   the configured lock-wait deadline expired; the
  ///                       request was withdrawn (transaction still alive
  ///                       and holding its other locks) — unless the
  ///                       abort-after-N policy escalated, in which case
  ///                       the message says so and the transaction is
  ///                       aborted;
  ///   kResourceExhausted  admission control shed the request.
  Status AcquireBlocking(lock::TransactionId tid, lock::ResourceId rid,
                         lock::LockMode mode);

  /// Non-blocking acquire: starts the request and returns its immediate
  /// outcome instead of parking the calling thread.
  ///   kGranted      lock held;
  ///   kAlreadyHeld  `tid` already holds `mode` (or stronger) on `rid`;
  ///   kBlocked      queued; the transaction is kBlocked until a release
  ///                 or a detection pass reactivates (or aborts) it —
  ///                 Await(tid) blocks until then (the unblock listener
  ///                 hears of it too).
  /// Admission watermarks apply exactly as in AcquireBlocking
  /// (kResourceExhausted); lock-wait deadlines and fault injection do
  /// not (they are parked-waiter machinery).  This is the seam the
  /// network daemon serves requests through: one reactor thread can
  /// multiplex hundreds of blocked clients without one parked thread
  /// per waiter.
  Result<lock::RequestOutcome> AcquireAsync(lock::TransactionId tid,
                                            lock::ResourceId rid,
                                            lock::LockMode mode);

  /// Blocks until `tid` is not kBlocked (parked like AcquireBlocking, with
  /// no lock-wait deadline) and returns AwaitStatus of its state.
  Status Await(lock::TransactionId tid);

  /// Installs the single-slot listener called with `tid` whenever a
  /// transaction leaves kBlocked, under service locks: like a bus sink it
  /// must not call back into the service.  Null clears it; once this
  /// returns, the previous listener is not running.
  void SetUnblockListener(std::function<void(lock::TransactionId)> listener);

  /// Pins `tid`'s abort cost to `cost`: the value replaces the
  /// policy-computed cost and is no longer refreshed on subsequent
  /// operations, mirroring a script's `cost` command.
  /// kInvalidArgument unless `cost` is finite and non-negative
  /// (core::CheckAbortCost); kFailedPrecondition for a terminated
  /// transaction; kNotFound for an unknown one.
  Status SetCost(lock::TransactionId tid, double cost);

  /// True when the current wait-for state contains a cycle (H/W-TWBG
  /// HasCycle over the live table).  Requires num_shards == 1;
  /// kFailedPrecondition otherwise — merged multi-shard graph
  /// construction is not implemented.
  Result<bool> HasDeadlock();

  /// Renders `view` of the current state with core::RenderView, the
  /// text the raw script back end prints.  Graph-derived views require
  /// num_shards == 1; kTable / kCosts work for any configuration (a
  /// multi-shard table is concatenated with `-- shard N --` headers; kCosts
  /// lists each transaction the lock tables know once, in ascending tid
  /// order, whatever the shard count).
  /// Stops the world for the duration — a diagnostics surface, never a
  /// hot path.
  Result<std::string> RenderView(core::View view);

  /// Live (kActive or kBlocked) transactions right now.
  size_t live_transactions() const;

  /// Transaction records currently allocated: the live transactions plus
  /// the terminated ones whose record a parked waiter still holds.  A
  /// finished transaction costs one bit once its record is recycled.
  size_t txn_records() const;

  /// Transaction-table mutex acquisitions made so far by the calling
  /// thread, across every service (a structural cost counter: an
  /// immediately granted acquire adds 0, a single-shard commit 1).
  static uint64_t txn_mu_acquisitions_this_thread();

  /// Commits and releases; wakes any waiter this unblocks.
  Status Commit(lock::TransactionId tid);

  /// Aborts voluntarily and releases; wakes any waiter this unblocks.
  Status Abort(lock::TransactionId tid);

  /// Snapshot of a transaction's state.
  Result<TxnState> State(lock::TransactionId tid) const;

  /// Number of deadlock victims so far (detector-chosen aborts only;
  /// deadline and sweep aborts are counted separately).
  size_t deadlock_victims() const;

  /// Runs one detection-resolution pass now, on the calling thread, and
  /// returns its report: the same pass the detector thread runs — or,
  /// while degraded, the timeout-resolver sweep.
  core::ResolutionReport RunDetectionPass();

  /// Number of completed periodic passes (the snapshot epoch).  Each pass
  /// observes — and leaves behind — a consistent cross-shard snapshot;
  /// the epoch stamps which one.
  uint64_t snapshot_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Number of lock-table shards.
  size_t num_shards() const { return shards_.size(); }

  /// Contention counters of shard `shard` (zeros when out of range).
  ShardStats shard_stats(size_t shard) const;

  // The four pass histories below each keep only the most recent
  // kPassHistoryCapacity samples and return them oldest first.  A reader
  // that remembers size() and later takes the tail past it sees exactly
  // the new samples as long as fewer than kPassHistoryCapacity samples
  // were ever recorded.

  /// Client-visible pause of each recent *full* detection pass,
  /// nanoseconds, in pass order.  For kEpochDelta this is max(longest
  /// shard publish, apply critical section) — a pass with no decision has
  /// no apply critical section; for kStopTheWorld it is the whole pass.
  /// Degraded timeout-sweep passes are recorded separately in
  /// sweep_pause_times_ns().
  std::vector<uint64_t> pause_times_ns() const;

  /// Each recent individual shard publish pause, nanoseconds, in capture
  /// order (kEpochDelta passes only; num_shards entries per pass).
  std::vector<uint64_t> publish_pause_times_ns() const;

  /// Pause of each recent degraded timeout-sweep pass, nanoseconds, in
  /// pass order.
  std::vector<uint64_t> sweep_pause_times_ns() const;

  /// Seal-to-apply detection lag of each recent kEpochDelta pass,
  /// nanoseconds, in pass order: how stale the sealed epoch was when the
  /// validated change-list reached the live shards.
  std::vector<uint64_t> detection_lag_ns() const;

  /// Resolution commands dropped by stamp validation so far (kEpochDelta
  /// passes; each is retried by a later pass).
  uint64_t resolutions_rejected() const {
    return resolutions_rejected_.load(std::memory_order_relaxed);
  }

  // -- closed-loop scheduling telemetry --

  /// The detection period currently in effect, microseconds — the
  /// configured detection_period until the controller retunes it (always
  /// so under the default kFixedPeriod policy).  0 when no detector
  /// thread was configured.
  uint64_t current_detection_period_us() const {
    return current_period_us_.load(std::memory_order_acquire);
  }

  /// Period retunes the controller has applied so far (each also emitted
  /// as a kPeriodRetuned event when a bus is attached).
  uint64_t period_retunes() const {
    return period_retunes_.load(std::memory_order_relaxed);
  }

  // -- robustness telemetry --

  /// Lock waits cancelled by deadline so far.
  uint64_t deadline_expiries() const {
    return deadline_expiries_.load(std::memory_order_relaxed);
  }
  /// Transactions aborted by deadline escalation (abort-after-N).
  uint64_t deadline_aborts() const {
    return deadline_aborts_.load(std::memory_order_relaxed);
  }
  /// Begins/acquires shed by admission control.
  uint64_t admission_rejects() const {
    return admission_rejects_.load(std::memory_order_relaxed);
  }
  /// Transactions aborted by the degraded timeout-resolver sweep.
  uint64_t sweep_aborts() const {
    return sweep_aborts_.load(std::memory_order_relaxed);
  }
  /// Scheduled passes that still run the cheap sweep before full
  /// detection resumes (0 = not degraded).
  uint32_t degraded_passes_remaining() const {
    return degraded_remaining_.load(std::memory_order_relaxed);
  }
  /// The fault injector (fault counts), or nullptr when no plan was set.
  const robustness::FaultInjector* fault_injector() const {
    return injector_.get();
  }

  /// Verifies lock-table invariants (per shard), transaction-state /
  /// lock-manager agreement, and that no waiter leaked (every blocked
  /// table entry belongs to a live kBlocked transaction).  Stops the
  /// world for the duration.  `deep` as in LockManager::CheckInvariants.
  Status CheckInvariants(bool deep = true);

  /// Stop-the-world forensic dump: every shard's lock table plus every
  /// live transaction's state and wait target, in ascending tid order.  For diagnosing stalled
  /// workloads (e.g. a stuck benchmark cell); never on a hot path.
  std::string DebugDump();

  const ConcurrentServiceOptions& options() const { return options_; }

 private:
  // One lock-table partition.  The mutex guards the LockManager and the
  // contention counters; the condition variable parks waiters blocked on
  // this shard's resources.
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    lock::LockManager lm;
    uint64_t acquire_waits = 0;
    uint64_t ops = 0;
    uint64_t hold_ns = 0;
  };

  // Per-transaction slab record (see "Transaction table" in the file
  // comment).  Fixed address for the service's lifetime: a free record is
  // reused, never deallocated.  Padded to a cache line so records of
  // transactions on different threads do not share one.
  struct alignas(64) TxnRecord {
    // The transaction in this slot, 0 while free.  Set and cleared under
    // txn_mu_; lock-free lookups compare it against the tid they look up.
    std::atomic<lock::TransactionId> tid{0};
    // Waiter wake predicates read it under the shard mutex only.
    std::atomic<TxnState> state{TxnState::kActive};
    // SetCost pinned the cost: RefreshCost must not overwrite it.
    std::atomic<bool> cost_pinned{false};
    // Single-writer fields (file comment), with cost, locks_granted and
    // ops_executed below.  wait_shard is the shard of the latest wait;
    // bit s of shard_mask set => an operation was routed to shard s — it
    // never shrinks, and commits/aborts lock exactly these shards
    // (num_shards is capped at 64).
    std::atomic<uint8_t> wait_shard{0};
    std::atomic<uint64_t> shard_mask{0};
    std::atomic<uint64_t> locks_granted{0};
    std::atomic<uint64_t> ops_executed{0};
    std::atomic<double> cost{1.0};
    uint64_t begin_ts = 0;  // written once, before the tid is published
    // Parked waiters (AcquireBlocking / Await inside WaitUnblocked) times
    // two, plus 1 once the transaction terminated: the record is
    // recycled when the word drops to exactly 1.
    mutable std::atomic<uint32_t> parked{0};
    // txn_mu_: waits cancelled by deadline (abort-after-N policy), and
    // consecutive degraded sweeps that observed it blocked.
    uint32_t deadline_expiries = 0;
    uint32_t blocked_sweeps = 0;
  };
  static_assert(sizeof(TxnRecord) == 64, "one cache line per record");

  // tid -> record index, linear probing from slot tid & mask: a record
  // sits at most max_probe slots past its home, so a lookup reads at most
  // max_probe + 1 slots and needs no tombstones.  Entries change only
  // under txn_mu_.  The index doubles once it has fewer than
  // kIndexSlotsPerRecord slots per allocated record; replaced indexes stay
  // allocated until destruction, so a lock-free reader may keep using the
  // one it loaded (every record it can look up was indexed there).
  struct TxnIndex {
    explicit TxnIndex(size_t size)
        : mask(size - 1), slots(new std::atomic<TxnRecord*>[size]()) {}
    size_t mask;
    std::atomic<size_t> max_probe{0};
    std::unique_ptr<std::atomic<TxnRecord*>[]> slots;
  };

  class PassHost;  // core::ShardedDetectionHost over the shard set

  explicit ConcurrentLockService(ConcurrentServiceOptions options);

  size_t ShardIndex(lock::ResourceId rid) const;

  // The shard mutexes named by a mask, held from LockShards until
  // Unlock() or destruction.  The mask is the whole state, so holding any
  // set of shards allocates nothing.
  class ShardLocks {
   public:
    ShardLocks(const std::vector<std::unique_ptr<Shard>>& shards,
               uint64_t mask)
        : shards_(&shards), mask_(mask) {}
    ShardLocks(const ShardLocks&) = delete;
    ShardLocks& operator=(const ShardLocks&) = delete;
    ~ShardLocks() { Unlock(); }
    void Unlock();

   private:
    const std::vector<std::unique_ptr<Shard>>* shards_;
    uint64_t mask_;
  };

  // Locks every shard whose mask bit is set, ascending, maintaining the
  // contention counters.  `hold` starts timing once all are held.
  ShardLocks LockShards(uint64_t mask, common::Stopwatch& hold);

  // Locks one shard, maintaining its contention counters.
  std::unique_lock<std::mutex> LockShard(Shard& shard);

  // The registration half shared by AcquireBlocking and AcquireAsync,
  // with shard `shard_index`'s mutex held: validates the transaction,
  // records the routing, applies the admission watermark and runs the
  // lock-manager request with the state/cost updates.  On success `*rec`
  // is tid's record.
  Result<lock::RequestOutcome> RequestLocked(lock::TransactionId tid,
                                             lock::ResourceId rid,
                                             lock::LockMode mode,
                                             size_t shard_index,
                                             TxnRecord** rec);

  // Locks txn_mu_, counting the acquisition for the calling thread.
  std::unique_lock<std::mutex> LockTxnTable() const;

  // tid's record, lock-free; nullptr for a recycled or unknown tid.
  TxnRecord* Find(lock::TransactionId tid) const;
  // tid's state from its record (then `*rec` is set) or, for a finished
  // tid, from the outcome map; NotFound for a tid never begun (txn_mu_
  // held).
  Result<TxnState> StateLocked(lock::TransactionId tid, TxnRecord** rec) const;
  // Allocates and publishes a record for a new tid (txn_mu_ held).
  TxnRecord& AllocateLocked(lock::TransactionId tid);
  // Puts `rec` into the index, doubling it when due (txn_mu_ held).
  void IndexLocked(TxnRecord& rec);
  // Every allocated record of a non-terminated transaction, ascending tid
  // (txn_mu_ held).
  std::vector<TxnRecord*> LiveRecordsLocked() const;
  // Abort costs of the live transactions, for a pass (txn_mu_ held).
  core::CostTable CostSnapshotLocked() const;
  // The recorded cost of tid, 1.0 when it has no record (txn_mu_ held).
  double CostLocked(lock::TransactionId tid) const;
  // Terminates `rec` (state, live count, outcome bit) and recycles it
  // unless a waiter is parked on it (txn_mu_ held; `rec` must not be
  // used afterwards).
  void FinishLocked(TxnRecord& rec, TxnState to);
  // Recycles a terminated record (txn_mu_ held).
  void ReclaimLocked(TxnRecord& rec);
  // Drops one parked-waiter registration of `rec`, recycling the record
  // if it was the last one on a terminated transaction.
  void Unpark(const TxnRecord& rec);

  // Commit/Abort body: locks the transaction's shards and releases.
  Status Terminate(lock::TransactionId tid, bool commit);
  // The kStopTheWorld pass body: all shard locks for the whole pass.
  core::ResolutionReport RunStopTheWorldPass();
  // The kEpochDelta pass body: publish -> seal -> detect -> validated
  // apply.  Serialized by pass_mu_ (the shared epoch mirrors).
  core::ResolutionReport RunPauselessPass();
  // The degraded pass body: aborts transactions blocked for
  // `sweep_patience` consecutive sweeps.  Same locks as the full pass.
  core::ResolutionReport RunTimeoutSweep();

  // The park of AcquireBlocking and Await (`sl` holds shard.mu): waits
  // until `rec` leaves kBlocked and returns AwaitStatus, or withdraws the
  // wait once a nonzero `deadline_us` expires (CancelWait).  The caller
  // registered as a parked waiter on `rec`; this drops the registration.
  Status WaitUnblocked(lock::TransactionId tid, Shard& shard,
                       std::unique_lock<std::mutex>& sl, const TxnRecord& rec,
                       uint64_t deadline_us);

  // Deadline-timeout body of WaitUnblocked: cancels tid's wait (or
  // reports the grant/abort that raced in).  Runs with the shard mutex
  // held; takes txn_mu_/obs_mu_ internally.  Sets `escalate` when the
  // abort-after-N policy fires (caller aborts after unlocking).
  Status CancelWait(lock::TransactionId tid, Shard& shard, bool* escalate);

  // Releases every lock/queue position of `tid` across the shards in
  // `mask` in global ascending-rid order, reactivating granted waiters'
  // records, and emits the single kLockRelease summary (iff some shard
  // knew the transaction — mirroring LockManager::ReleaseAll).  Requires
  // the masked shard mutexes, txn_mu_ and (when a bus is attached)
  // obs_mu_ to be held.  Returns the granted transactions in grant order,
  // in a txn_mu_-guarded scratch buffer valid until the next call.
  const std::vector<lock::TransactionId>& ReleaseAllShardsLocked(
      lock::TransactionId tid, uint64_t mask);

  // Mirrors TransactionManager::ApplyReport under the pass's locks:
  // victims to kAborted (flagged, costs erased, kTxnAbort a=1), granted
  // waiters back to kActive.
  void ApplyReportLocked(const core::ResolutionReport& report);

  // Transitions granted waiters' records kBlocked -> kActive (txn_mu_
  // held).
  void ReactivateLocked(const std::vector<lock::TransactionId>& granted);

  // Every state change but entering kBlocked (txn_mu_ held); the only
  // caller of the unblock listener.
  void SetStateLocked(lock::TransactionId tid, TxnRecord& rec, TxnState to);

  // Emits one kShardContention per shard (pass locks held, bus active).
  void PublishShardStatsLocked();

  // Emits shard `shard`'s kShardContention from `stats` (obs_mu_ held,
  // bus active).
  void EmitShardContention(size_t shard, const ShardStats& stats);

  // Ends a pauseless pass that has no decision, holding no shard mutex
  // and no txn_mu_: streams the walk's kPassStart, kStep1 and kStep2 from
  // `recorded` (null when nothing was observed) with its kPassEnd under
  // obs_mu_, then every shard's counters, and bumps the epoch.
  void EndIdlePass(const std::deque<obs::Event>* recorded,
                   const core::ResolutionReport& report, uint64_t lag_ns,
                   const common::Stopwatch& pass_clock);

  // Ends a pass that held every shard: charges the hold time to each
  // shard, wakes every parked waiter and releases the locks.
  void UnlockAllShards(ShardLocks& locks, const common::Stopwatch& hold);

  // Graceful degradation: a full pass whose client-visible pause blew the
  // (period-scaled) budget switches the next degraded_passes scheduled
  // passes to the timeout-resolver sweep.  No service lock held.
  void DegradeIfOverBudget(uint64_t pause_ns);

  // Recomputes the record's abort cost per the policy (its single
  // writer: see the file comment).
  void RefreshCost(TxnRecord& rec) const;

  // Emits `event` under obs_mu_, the innermost lock: callers may hold
  // shard or transaction-table locks, never obs_mu_ itself.
  void EmitStandalone(obs::Event event);

  // True when a bus or a span tracer is attached: obs_mu_ must be held
  // around the shard lock managers' mutating calls (they emit on both).
  bool observed() const { return bus_ != nullptr || tracer_ != nullptr; }

  // Span-tracer twins of EmitStandalone: open/close a span under obs_mu_
  // alone (no other service lock held).  Return 0 / no-op when the tracer
  // is absent or inactive.
  uint64_t OpenSpanStandalone(obs::SpanKind kind, uint32_t track,
                              uint64_t parent);
  void CloseSpanStandalone(uint64_t id, uint64_t a, uint64_t b,
                           std::string label = {});

  // Feeds the period controller (if any) with a completed full pass and
  // applies/announces the retune it decides.  Called with no service
  // lock held.  `pass_ns` is the pass's detection cost (whole pass for
  // kStopTheWorld, publish+detect+apply for kEpochDelta).
  void UpdateSchedulerAfterPass(uint64_t pass_ns,
                                const core::ResolutionReport& report);

  // The degradation ladder's pause budget rescaled to the period
  // currently in effect: a retuned period moves the budget
  // proportionally, keeping the allowed pause *fraction* constant.
  // Identity when no controller is attached or the period never moved.
  uint64_t EffectivePauseBudgetNs() const;

  // Detector-thread body: run a pass every detection_period until told
  // to stop.
  void DetectorLoop();

  ConcurrentServiceOptions options_;

  std::vector<std::unique_ptr<Shard>> shards_;

  // Transaction table (file comment).  txn_mu_ guards everything below
  // but the atomics; acquired after any shard mutexes, before obs_mu_.
  mutable std::mutex txn_mu_;
  std::vector<std::unique_ptr<TxnRecord[]>> slab_;
  std::vector<TxnRecord*> free_records_;
  std::atomic<TxnIndex*> index_{nullptr};
  std::vector<std::unique_ptr<TxnIndex>> indexes_;  // current is back()
  std::vector<uint64_t> aborted_bits_;  // finished tid -> 1 = aborted
  lock::TransactionId next_tid_ = 1;
  std::atomic<uint64_t> next_ts_{1};
  std::atomic<size_t> live_txns_{0};
  size_t deadlock_victims_ = 0;
  std::function<void(lock::TransactionId)> unblock_listener_;
  // ReleaseAllShardsLocked's buffers, kept warm so a commit allocates
  // nothing.
  std::vector<lock::ResourceId> release_rids_;
  std::vector<lock::TransactionId> release_granted_;

  // Serializes every emission on the shared bus and span tracer
  // (innermost lock; only taken when one of them is attached).
  std::mutex obs_mu_;
  obs::EventBus* bus_ = nullptr;
  obs::SpanTracer* tracer_ = nullptr;
  // Measured scheduler inputs (scheduler.use_span_estimates): subscribed
  // to tracer_, drained by UpdateSchedulerAfterPass under obs_mu_.
  std::unique_ptr<obs::SpanEstimator> estimator_;

  std::unique_ptr<common::ThreadPool> pool_;
  std::unique_ptr<core::ParallelPeriodicDetector> detector_;
  std::unique_ptr<PassHost> pass_host_;
  std::atomic<uint64_t> epoch_{0};

  // -- pauseless pass state (snapshot_strategy == kEpochDelta) --
  // Serializes pauseless passes: the epoch mirrors are shared detector
  // state.  Outermost — never acquired while holding any other service
  // lock.
  std::mutex pass_mu_;
  std::vector<ShardSnapshot> snapshots_;
  std::unique_ptr<SnapshotWalkHost> snapshot_host_;

  // -- robustness state --
  std::unique_ptr<robustness::FaultInjector> injector_;
  std::atomic<uint64_t> deadline_expiries_{0};
  std::atomic<uint64_t> deadline_aborts_{0};
  std::atomic<uint64_t> admission_rejects_{0};
  std::atomic<uint64_t> sweep_aborts_{0};
  std::atomic<uint32_t> degraded_remaining_{0};
  std::atomic<uint64_t> resolutions_rejected_{0};

  // Pass histories (stats_mu_), each bounded to the most recent
  // kPassHistoryCapacity samples.
  mutable std::mutex stats_mu_;
  RecentSamples pause_times_ns_;
  RecentSamples publish_pause_times_ns_;
  RecentSamples sweep_pause_times_ns_;
  RecentSamples detection_lag_ns_;

  // -- closed-loop scheduling state --
  // Controller calls are serialized by sched_mu_ (taken with no other
  // service lock held); the current period is mirrored into an atomic so
  // the detector thread reads it lock-free.
  std::mutex sched_mu_;
  std::unique_ptr<sched::PeriodController> controller_;
  std::chrono::steady_clock::time_point last_pass_time_;
  bool sched_seen_pass_ = false;
  uint64_t base_period_us_ = 0;
  std::atomic<uint64_t> current_period_us_{0};
  std::atomic<uint64_t> period_retunes_{0};

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread detector_thread_;

  friend class ConcurrentLockServiceTestPeer;  // tests/txn_table_test.cc
};

/// The one TxnState -> Await result mapping: kOk for kActive,
/// kDeadlockVictim for kAborted, kFailedPrecondition for kCommitted,
/// kWouldBlock for kBlocked; a failed lookup passes through.
Status AwaitStatus(lock::TransactionId tid, const Result<TxnState>& state);

/// Client-side retry helper: calls AcquireBlocking, and on
/// kDeadlineExceeded / kResourceExhausted sleeps a decorrelated-jitter
/// backoff (robustness::RetryBackoff over `seed` — deterministic delays)
/// and retries.  When `retry.max_attempts` is exhausted the transaction
/// is aborted (the client-side abort-after-N policy) and the last error
/// is returned.  Other codes (kOk, kDeadlockVictim, misuse) return
/// immediately.  `attempts_out`, when non-null, receives the number of
/// AcquireBlocking calls made.
Status AcquireWithRetry(ConcurrentLockService& service,
                        lock::TransactionId tid, lock::ResourceId rid,
                        lock::LockMode mode,
                        const robustness::RetryOptions& retry, uint64_t seed,
                        uint32_t* attempts_out = nullptr);

}  // namespace twbg::txn

#endif  // TWBG_TXN_CONCURRENT_SERVICE_H_
