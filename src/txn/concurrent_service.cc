// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "txn/concurrent_service.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/string_util.h"
#include "core/twbg.h"
#include "lock/resource_state.h"
#include "obs/sinks.h"

namespace twbg::txn {

namespace {

constexpr size_t kMaxShards = 64;  // shard_mask is a uint64_t bitmask

// Transaction-table geometry: records are allocated kSlabChunk at a time;
// the tid index starts at kMinIndexSize slots and doubles whenever it has
// fewer than kIndexSlotsPerRecord slots per allocated record.
constexpr size_t kSlabChunk = 64;
constexpr size_t kMinIndexSize = 64;
constexpr size_t kIndexSlotsPerRecord = 4;

// txn_mu_ acquisitions by this thread (txn_mu_acquisitions_this_thread).
thread_local uint64_t t_txn_mu_acquisitions = 0;

// Debug tripwire for the pauseless pass: nonzero while this thread runs
// the detached detect phase over the sealed mirrors, during which it must
// never touch live shard state (checked at the shard-locking entry
// points).  The publish handshake and the validated apply run outside the
// guard.
thread_local int t_in_sealed_detect = 0;

// Deadline-armed and fault-exposed waits poll at this granularity instead
// of relying on a wakeup, so they observe deadline expiry promptly and
// survive dropped notifications.
constexpr std::chrono::microseconds kWaitPoll{500};

ConcurrentServiceOptions NormalizeConcurrent(ConcurrentServiceOptions options) {
  if (options.detector.event_bus == nullptr) {
    options.detector.event_bus = options.event_bus;
  }
  return options;
}

obs::Event FaultEvent(const robustness::Fault& fault) {
  obs::Event event;
  event.kind = obs::EventKind::kFaultInjected;
  event.tid = fault.txn;
  if (fault.kind == robustness::FaultKind::kStallShard) {
    event.rid = static_cast<lock::ResourceId>(fault.shard);  // shard index
  }
  event.a = static_cast<uint64_t>(fault.kind);
  event.b = fault.at;
  event.value = static_cast<double>(fault.duration);
  event.detail = fault.ToString();
  return event;
}

}  // namespace

Status ConcurrentServiceOptions::Validate() const {
  if (num_shards < 1 || num_shards > kMaxShards) {
    return Status::InvalidArgument(common::Format(
        "num_shards must be in [1, %zu], got %zu", kMaxShards, num_shards));
  }
  if (detection_mode != DetectionMode::kPeriodic) {
    return Status::InvalidArgument(
        "the service detects periodically; continuous detection is "
        "TransactionManager's");
  }
  Status sched_status = scheduler.Validate();
  if (!sched_status.ok()) return sched_status;
  if (scheduler.use_span_estimates && span_tracer == nullptr) {
    return Status::InvalidArgument(
        "scheduler.use_span_estimates requires span_tracer");
  }
  if (scheduler.policy != sched::SchedulerPolicy::kFixedPeriod) {
    // Closed-loop scheduling retunes the detector thread's wait; it is
    // meaningless without a detector thread to drive.
    if (detection_period.count() <= 0) {
      return Status::InvalidArgument(
          "adaptive scheduling (scheduler.policy != kFixedPeriod) requires "
          "detection_period > 0");
    }
  }
  return robustness.Validate();
}

// What the parallel pass sees of the shard set.  Every method runs with
// all shard mutexes, txn_mu_ and (when observing) obs_mu_ held by the
// pass, so plain cross-shard reads and serial mutations are safe.
class ConcurrentLockService::PassHost final
    : public core::ShardedDetectionHost {
 public:
  explicit PassHost(ConcurrentLockService& service) : service_(service) {}

  size_t num_shards() const override { return service_.shards_.size(); }
  const lock::LockTable& shard_table(size_t shard) const override {
    return service_.shards_[shard]->lm.table();
  }

  const lock::ResourceState* FindResource(
      lock::ResourceId rid) const override {
    return shard(rid).lm.table().Find(rid);
  }
  // A transaction can be known to several shards; only the shard of the
  // resource it is blocked on carries its wait info (blocked_on set).
  const lock::TxnLockInfo* FindWaitInfo(
      lock::TransactionId tid) const override {
    const lock::TxnLockInfo* any = nullptr;
    for (const auto& s : service_.shards_) {
      const lock::TxnLockInfo* info = s->lm.Info(tid);
      if (info == nullptr) continue;
      if (info->blocked_on.has_value()) return info;
      if (any == nullptr) any = info;
    }
    return any;
  }
  Status ApplyTdr2Direct(lock::ResourceId rid,
                         lock::TransactionId junction) override {
    lock::ResourceState* state =
        shard(rid).lm.mutable_table().FindMutableDeferred(rid);
    if (state == nullptr) {
      return Status::NotFound(common::Format("R%u is not locked", rid));
    }
    return state->ApplyTdr2(junction);
  }
  void NoteTdr2Applied(lock::ResourceId rid) override {
    shard(rid).lm.mutable_table().NoteMutation(rid);
  }

  std::vector<lock::TransactionId> ReleaseAll(
      lock::TransactionId tid) override {
    const TxnRecord* rec = service_.Find(tid);
    return service_.ReleaseAllShardsLocked(
        tid, rec == nullptr ? ~uint64_t{0} : rec->shard_mask.load());
  }
  std::vector<lock::TransactionId> Reschedule(lock::ResourceId rid) override {
    return shard(rid).lm.Reschedule(rid);
  }

 private:
  Shard& shard(lock::ResourceId rid) const {
    return *service_.shards_[service_.ShardIndex(rid)];
  }

  ConcurrentLockService& service_;
};

Result<std::unique_ptr<ConcurrentLockService>> ConcurrentLockService::Create(
    ConcurrentServiceOptions options) {
  TWBG_RETURN_IF_ERROR(options.Validate());
  return std::unique_ptr<ConcurrentLockService>(
      new ConcurrentLockService(std::move(options)));
}

ConcurrentLockService::ConcurrentLockService(ConcurrentServiceOptions options)
    : options_(NormalizeConcurrent(std::move(options))) {
  if (!options_.fault_plan.empty()) {
    injector_ = std::make_unique<robustness::FaultInjector>(options_.fault_plan);
  }
  bus_ = options_.event_bus;
  tracer_ = options_.span_tracer;
  indexes_.push_back(std::make_unique<TxnIndex>(kMinIndexSize));
  index_.store(indexes_.back().get(), std::memory_order_release);
  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->lm.set_event_bus(bus_);
    shards_.back()->lm.set_span_tracer(tracer_);
  }
  if (options_.detection_threads > 0) {
    pool_ = std::make_unique<common::ThreadPool>(options_.detection_threads);
  }
  core::DetectorOptions detector_options = options_.detector;
  // The component-parallel walk runs on pool workers; span emission there
  // would break the tracer's single-writer contract, so the sharded
  // engine's detector never carries the tracer — the service emits the
  // pass / publish / apply / resolution spans itself, under obs_mu_.
  detector_options.span_tracer = nullptr;
  if (options_.snapshot_strategy == SnapshotStrategy::kEpochDelta) {
    // Pauseless resolutions are validated against the live shards before
    // they apply, so every decision must carry its evidence stamps.
    detector_options.capture_evidence = true;
    snapshots_.reserve(options_.num_shards);
    for (size_t s = 0; s < options_.num_shards; ++s) {
      snapshots_.emplace_back(shards_[s]->lm.table().policy());
    }
    snapshot_host_ = std::make_unique<SnapshotWalkHost>(
        snapshots_, [this](lock::ResourceId rid) { return ShardIndex(rid); });
  }
  detector_ = std::make_unique<core::ParallelPeriodicDetector>(
      detector_options, pool_.get());
  pass_host_ = std::make_unique<PassHost>(*this);
  if (options_.scheduler.use_span_estimates) {
    // Validate() guarantees tracer_ is set with the flag on.
    estimator_ = std::make_unique<obs::SpanEstimator>();
    tracer_->Subscribe(estimator_.get());
    std::scoped_lock ol(obs_mu_);
    estimator_->Reset(tracer_->now());
  }
  if (options_.detection_period.count() > 0) {
    const uint64_t initial_us =
        static_cast<uint64_t>(options_.detection_period.count());
    controller_ = sched::MakePeriodController(options_.scheduler, initial_us);
    base_period_us_ = initial_us;
    current_period_us_.store(initial_us, std::memory_order_release);
    detector_thread_ = std::thread(&ConcurrentLockService::DetectorLoop, this);
  }
}

ConcurrentLockService::~ConcurrentLockService() {
  if (detector_thread_.joinable()) {
    {
      std::scoped_lock lk(stop_mu_);
      stopping_ = true;
    }
    stop_cv_.notify_all();
    detector_thread_.join();
  }
  if (estimator_ != nullptr) tracer_->Unsubscribe(estimator_.get());
}

size_t ConcurrentLockService::ShardIndex(lock::ResourceId rid) const {
  // Fibonacci hashing spreads dense rid ranges across shards.
  const uint64_t h = static_cast<uint64_t>(rid) * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>((h >> 32) % shards_.size());
}

std::unique_lock<std::mutex> ConcurrentLockService::LockShard(Shard& shard) {
  std::unique_lock<std::mutex> sl(shard.mu, std::try_to_lock);
  const bool contended = !sl.owns_lock();
  if (contended) sl.lock();
  shard.ops++;
  if (contended) shard.acquire_waits++;
  return sl;
}

std::vector<std::unique_lock<std::mutex>> ConcurrentLockService::LockShards(
    uint64_t mask, common::Stopwatch& hold) {
  TWBG_DCHECK(t_in_sealed_detect == 0);
  std::vector<std::unique_lock<std::mutex>> locks;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if ((mask & (uint64_t{1} << s)) == 0) continue;
    locks.push_back(LockShard(*shards_[s]));
  }
  hold.Reset();
  return locks;
}

void ConcurrentLockService::UnlockAllShards(
    std::vector<std::unique_lock<std::mutex>>& locks,
    const common::Stopwatch& hold) {
  const uint64_t hold_ns = static_cast<uint64_t>(hold.ElapsedNanos());
  for (auto& shard : shards_) {
    shard->hold_ns += hold_ns;
    shard->cv.notify_all();
  }
  locks.clear();
}

void ConcurrentLockService::EmitStandalone(obs::Event event) {
  if (bus_ == nullptr) return;
  std::scoped_lock ol(obs_mu_);
  if (bus_->active()) bus_->Emit(event);
}

uint64_t ConcurrentLockService::OpenSpanStandalone(obs::SpanKind kind,
                                                   uint32_t track,
                                                   uint64_t parent) {
  if (tracer_ == nullptr) return 0;
  std::scoped_lock ol(obs_mu_);
  if (!tracer_->active()) return 0;
  return tracer_->Open(kind, track, parent);
}

void ConcurrentLockService::CloseSpanStandalone(uint64_t id, uint64_t a,
                                                uint64_t b,
                                                std::string label) {
  if (id == 0 || tracer_ == nullptr) return;
  std::scoped_lock ol(obs_mu_);
  tracer_->Close(id, a, b, std::move(label));
}

std::unique_lock<std::mutex> ConcurrentLockService::LockTxnTable() const {
  ++t_txn_mu_acquisitions;
  return std::unique_lock<std::mutex>(txn_mu_);
}

uint64_t ConcurrentLockService::txn_mu_acquisitions_this_thread() {
  return t_txn_mu_acquisitions;
}

ConcurrentLockService::TxnRecord* ConcurrentLockService::Find(
    lock::TransactionId tid) const {
  if (tid == lock::kInvalidTransaction) return nullptr;  // 0 marks free
  const TxnIndex* index = index_.load(std::memory_order_acquire);
  const size_t probes = index->max_probe.load(std::memory_order_acquire);
  for (size_t d = 0; d <= probes; ++d) {
    TxnRecord* rec =
        index->slots[(tid + d) & index->mask].load(std::memory_order_acquire);
    if (rec != nullptr && rec->tid.load(std::memory_order_acquire) == tid) {
      return rec;
    }
  }
  return nullptr;
}

Result<TxnState> ConcurrentLockService::StateLocked(lock::TransactionId tid,
                                                    TxnRecord** rec) const {
  *rec = Find(tid);
  if (*rec != nullptr) return (*rec)->state.load(std::memory_order_acquire);
  if (tid == lock::kInvalidTransaction || tid >= next_tid_) {
    return Status::NotFound(common::Format("unknown transaction T%u", tid));
  }
  const size_t word = tid / 64;
  const bool aborted = word < aborted_bits_.size() &&
                       (aborted_bits_[word] >> (tid % 64) & 1) != 0;
  return aborted ? TxnState::kAborted : TxnState::kCommitted;
}

ConcurrentLockService::TxnRecord& ConcurrentLockService::AllocateLocked(
    lock::TransactionId tid) {
  if (free_records_.empty()) {
    slab_.push_back(std::make_unique<TxnRecord[]>(kSlabChunk));
    for (size_t i = kSlabChunk; i-- > 0;) {
      free_records_.push_back(&slab_.back()[i]);
    }
  }
  TxnRecord& rec = *free_records_.back();
  free_records_.pop_back();
  rec.state.store(TxnState::kActive, std::memory_order_relaxed);
  rec.begin_ts = next_ts_.fetch_add(1, std::memory_order_relaxed);
  rec.shard_mask.store(0, std::memory_order_relaxed);
  rec.locks_granted.store(0, std::memory_order_relaxed);
  rec.ops_executed.store(0, std::memory_order_relaxed);
  rec.wait_shard.store(0, std::memory_order_relaxed);
  rec.cost_pinned.store(false, std::memory_order_relaxed);
  rec.parked.store(0, std::memory_order_relaxed);
  rec.deadline_expiries = 0;
  rec.blocked_sweeps = 0;
  rec.tid.store(tid, std::memory_order_release);
  IndexLocked(rec);
  return rec;
}

void ConcurrentLockService::IndexLocked(TxnRecord& rec) {
  const auto place = [](TxnIndex& index, TxnRecord& r) {
    const lock::TransactionId tid = r.tid.load(std::memory_order_relaxed);
    for (size_t d = 0;; ++d) {
      std::atomic<TxnRecord*>& slot = index.slots[(tid + d) & index.mask];
      if (slot.load(std::memory_order_relaxed) != nullptr) continue;
      if (d > index.max_probe.load(std::memory_order_relaxed)) {
        index.max_probe.store(d, std::memory_order_release);
      }
      slot.store(&r, std::memory_order_release);
      return;
    }
  };
  TxnIndex* index = index_.load(std::memory_order_relaxed);
  const size_t records = slab_.size() * kSlabChunk - free_records_.size();
  size_t size = index->mask + 1;
  if (size >= kIndexSlotsPerRecord * records) {
    place(*index, rec);
    return;
  }
  // Grow: re-place every allocated record (this one included) in a larger
  // index, published once complete.
  while (size < kIndexSlotsPerRecord * records) size *= 2;
  indexes_.push_back(std::make_unique<TxnIndex>(size));
  for (const auto& chunk : slab_) {
    for (size_t i = 0; i < kSlabChunk; ++i) {
      if (chunk[i].tid.load(std::memory_order_relaxed) != 0) {
        place(*indexes_.back(), chunk[i]);
      }
    }
  }
  index_.store(indexes_.back().get(), std::memory_order_release);
}

std::vector<ConcurrentLockService::TxnRecord*>
ConcurrentLockService::LiveRecordsLocked() const {
  std::vector<TxnRecord*> live;
  for (const auto& chunk : slab_) {
    for (size_t i = 0; i < kSlabChunk; ++i) {
      const TxnState state = chunk[i].state.load(std::memory_order_relaxed);
      if (chunk[i].tid.load(std::memory_order_relaxed) != 0 &&
          state != TxnState::kCommitted && state != TxnState::kAborted) {
        live.push_back(&chunk[i]);
      }
    }
  }
  std::sort(live.begin(), live.end(), [](TxnRecord* a, TxnRecord* b) {
    return a->tid.load(std::memory_order_relaxed) <
           b->tid.load(std::memory_order_relaxed);
  });
  return live;
}

core::CostTable ConcurrentLockService::CostSnapshotLocked() const {
  core::CostTable costs;
  for (const TxnRecord* rec : LiveRecordsLocked()) {
    costs.Set(rec->tid.load(std::memory_order_relaxed),
              rec->cost.load(std::memory_order_relaxed));
  }
  return costs;
}

double ConcurrentLockService::CostLocked(lock::TransactionId tid) const {
  const TxnRecord* rec = Find(tid);
  return rec == nullptr ? 1.0 : rec->cost.load(std::memory_order_relaxed);
}

void ConcurrentLockService::FinishLocked(TxnRecord& rec, TxnState to) {
  const lock::TransactionId tid = rec.tid.load(std::memory_order_relaxed);
  SetStateLocked(tid, rec, to);
  live_txns_.fetch_sub(1, std::memory_order_relaxed);
  if (to == TxnState::kAborted) {
    const size_t word = tid / 64;
    if (word >= aborted_bits_.size()) aborted_bits_.resize(word + 1, 0);
    aborted_bits_[word] |= uint64_t{1} << (tid % 64);
  }
  if (rec.parked.fetch_or(1, std::memory_order_acq_rel) == 0) {
    ReclaimLocked(rec);
  }
}

void ConcurrentLockService::ReclaimLocked(TxnRecord& rec) {
  const lock::TransactionId tid = rec.tid.load(std::memory_order_relaxed);
  TxnIndex* index = index_.load(std::memory_order_relaxed);
  for (size_t d = 0;; ++d) {
    std::atomic<TxnRecord*>& slot = index->slots[(tid + d) & index->mask];
    if (slot.load(std::memory_order_relaxed) == &rec) {
      slot.store(nullptr, std::memory_order_release);
      break;
    }
  }
  rec.tid.store(0, std::memory_order_release);
  free_records_.push_back(&rec);
}

void ConcurrentLockService::Unpark(const TxnRecord& rec) {
  if (rec.parked.fetch_sub(2, std::memory_order_acq_rel) == 3) {
    // The transaction terminated while we were parked on it, and we were
    // the last waiter: the record is ours to recycle.
    std::unique_lock<std::mutex> tl = LockTxnTable();
    ReclaimLocked(const_cast<TxnRecord&>(rec));
  }
}

Result<lock::TransactionId> ConcurrentLockService::Begin() {
  std::unique_lock<std::mutex> tl = LockTxnTable();
  const robustness::AdmissionOptions& adm = options_.robustness.admission;
  if (adm.max_inflight_txns != 0) {
    robustness::AdmissionContext ctx;
    ctx.inflight_txns = live_txns_.load(std::memory_order_relaxed);
    Status admitted = robustness::WatermarkAdmission(adm).AdmitBegin(ctx);
    if (!admitted.ok()) {
      admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      obs::Event event;
      event.kind = obs::EventKind::kAdmissionReject;
      event.a = ctx.inflight_txns;
      event.b = adm.max_inflight_txns;
      EmitStandalone(std::move(event));
      return admitted;
    }
  }
  const lock::TransactionId tid = next_tid_++;
  TxnRecord& rec = AllocateLocked(tid);
  live_txns_.fetch_add(1, std::memory_order_relaxed);
  RefreshCost(rec);
  if (observed()) {
    std::scoped_lock ol(obs_mu_);
    if (obs::Enabled(bus_)) {
      obs::Event event;
      event.kind = obs::EventKind::kTxnBegin;
      event.tid = tid;
      bus_->Emit(event);
    }
    if (obs::Tracing(tracer_)) tracer_->OpenTxn(tid, "client");
  }
  return tid;
}

Result<lock::RequestOutcome> ConcurrentLockService::RequestLocked(
    lock::TransactionId tid, lock::ResourceId rid, lock::LockMode mode,
    size_t shard_index, TxnRecord** rec_out) {
  Shard& shard = *shards_[shard_index];
  // Only this transaction's own operation can move it out of kActive, so
  // a kActive record found here stays ours for the whole request.
  TxnRecord* found = Find(tid);
  TxnState state = TxnState::kActive;
  if (found != nullptr) {
    state = found->state.load(std::memory_order_acquire);
  } else {  // finished or unknown
    std::unique_lock<std::mutex> tl = LockTxnTable();
    Result<TxnState> known = StateLocked(tid, &found);
    if (!known.ok()) return known.status();
    state = *known;
  }
  if (state != TxnState::kActive) {
    return Status::FailedPrecondition(
        common::Format("T%u is %s and cannot request locks", tid,
                       std::string(ToString(state)).c_str()));
  }
  TxnRecord& rec = *found;
  // Record the routing before the request: commits/aborts must lock this
  // shard even if the request errors after registering the txn.
  rec.shard_mask.fetch_or(uint64_t{1} << shard_index,
                          std::memory_order_relaxed);
  // Backpressure: shed requests that would deepen an already saturated
  // shard.  Holders are exempt — a conversion must be allowed through or
  // the holder could never finish and drain the queue.
  const uint64_t watermark = options_.robustness.admission.queue_depth_watermark;
  if (watermark != 0) {
    const lock::ResourceState* res = shard.lm.table().Find(rid);
    const bool holder = res != nullptr && res->FindHolder(tid) != nullptr;
    if (!holder) {
      robustness::AdmissionContext ctx;
      ctx.inflight_txns = live_txns_.load(std::memory_order_relaxed);
      ctx.queue_depth = shard.lm.BlockedTransactions().size();
      Status admitted =
          robustness::WatermarkAdmission(options_.robustness.admission)
              .AdmitAcquire(ctx);
      if (!admitted.ok()) {
        admission_rejects_.fetch_add(1, std::memory_order_relaxed);
        obs::Event event;
        event.kind = obs::EventKind::kAdmissionReject;
        event.tid = tid;
        event.rid = rid;
        event.a = ctx.queue_depth;
        event.b = watermark;
        EmitStandalone(std::move(event));
        return admitted;
      }
    }
  }
  std::unique_lock<std::mutex> ol(obs_mu_, std::defer_lock);
  if (observed()) ol.lock();
  Result<lock::RequestOutcome> result = shard.lm.Acquire(tid, rid, mode);
  if (!result.ok()) return result.status();
  rec.ops_executed.fetch_add(1, std::memory_order_relaxed);
  if (*result == lock::RequestOutcome::kGranted) {
    rec.locks_granted.fetch_add(1, std::memory_order_relaxed);
  }
  RefreshCost(rec);
  if (*result == lock::RequestOutcome::kBlocked) {
    rec.wait_shard.store(static_cast<uint8_t>(shard_index),
                         std::memory_order_relaxed);
    rec.state.store(TxnState::kBlocked, std::memory_order_release);
  }
  *rec_out = &rec;
  return *result;
}

Status ConcurrentLockService::AcquireBlocking(lock::TransactionId tid,
                                              lock::ResourceId rid,
                                              lock::LockMode mode) {
  TWBG_DCHECK(t_in_sealed_detect == 0);
  const size_t shard_index = ShardIndex(rid);
  Shard& shard = *shards_[shard_index];

  uint64_t grant_delay_us = 0;
  if (injector_ != nullptr) {
    // Fire acquire-addressed faults before taking any shard mutex: the
    // crash path re-enters Terminate, which locks shards itself (lock
    // order forbids doing that while one is held).
    std::optional<robustness::Fault> fault;
    {
      std::unique_lock<std::mutex> tl = LockTxnTable();
      const TxnRecord* rec = Find(tid);
      if (rec != nullptr && rec->state.load(std::memory_order_relaxed) ==
                                TxnState::kActive) {
        fault = injector_->TakeAcquireFault(tid, rec->ops_executed.load());
      }
    }
    if (fault.has_value()) {
      EmitStandalone(FaultEvent(*fault));
      if (fault->kind == robustness::FaultKind::kCrashTxn) {
        Status aborted = Terminate(tid, /*commit=*/false);
        if (!aborted.ok()) return aborted;
        return Status::Aborted(
            common::Format("T%u crashed by injected fault", tid));
      }
      grant_delay_us = fault->duration;
    }
    if (std::optional<robustness::Fault> stall =
            injector_->TakeShardStall(static_cast<uint32_t>(shard_index))) {
      EmitStandalone(FaultEvent(*stall));
      // Hold the shard mutex through the stall: every operation routed
      // here piles up behind it, exactly an unresponsive partition.
      std::scoped_lock stall_lock(shard.mu);
      std::this_thread::sleep_for(std::chrono::microseconds(stall->duration));
    }
  }

  std::unique_lock<std::mutex> sl = LockShard(shard);
  common::Stopwatch hold;
  TxnRecord* rec = nullptr;
  Result<lock::RequestOutcome> outcome =
      RequestLocked(tid, rid, mode, shard_index, &rec);
  shard.hold_ns += static_cast<uint64_t>(hold.ElapsedNanos());
  if (!outcome.ok()) return outcome.status();
  if (*outcome == lock::RequestOutcome::kBlocked) {
    rec->parked.fetch_add(2, std::memory_order_relaxed);
    Status waited = WaitUnblocked(tid, shard, sl, *rec,
                                  options_.robustness.deadline.lock_wait);
    if (!waited.ok()) return waited;
  }
  sl.unlock();
  if (grant_delay_us != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(grant_delay_us));
  }
  return Status::OK();
}

Status ConcurrentLockService::Await(lock::TransactionId tid) {
  TWBG_DCHECK(t_in_sealed_detect == 0);
  TxnRecord* rec = nullptr;
  Shard* shard = nullptr;
  {
    std::unique_lock<std::mutex> tl = LockTxnTable();
    Result<TxnState> state = StateLocked(tid, &rec);
    if (!state.ok() || *state != TxnState::kBlocked) {
      return AwaitStatus(tid, state);
    }
    // Registered before txn_mu_ is dropped: the record cannot be recycled
    // under us even if a pass aborts the transaction before we park.
    rec->parked.fetch_add(2, std::memory_order_relaxed);
    shard = shards_[rec->wait_shard.load(std::memory_order_relaxed)].get();
  }
  // A wait that ends before we hold the shard mutex is no lost wakeup:
  // WaitUnblocked checks its predicate under the mutex before parking.
  std::unique_lock<std::mutex> sl(shard->mu);
  return WaitUnblocked(tid, *shard, sl, *rec, /*deadline_us=*/0);
}

Status ConcurrentLockService::WaitUnblocked(lock::TransactionId tid,
                                            Shard& shard,
                                            std::unique_lock<std::mutex>& sl,
                                            const TxnRecord& rec,
                                            uint64_t deadline_us) {
  // The status is computed before the registration drops (locals are
  // destroyed after the return value is built).
  struct Registration {
    ConcurrentLockService* service;
    const TxnRecord& rec;
    ~Registration() { service->Unpark(rec); }
  } registration{this, rec};
  // Whoever grants or aborts tid holds this shard's mutex (the rid is in
  // the granter's release set; the detector holds every shard), so the
  // change cannot slip in between the predicate check and the park.
  const auto unblocked = [&rec] {
    return rec.state.load(std::memory_order_relaxed) != TxnState::kBlocked;
  };
  if (deadline_us == 0 && injector_ == nullptr) {
    shard.cv.wait(sl, unblocked);
  } else {
    // Deadline-armed / fault-exposed waits poll: a deadline must be
    // noticed without anyone waking us, and a dropped wakeup must not
    // strand us.
    const auto expiry = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(deadline_us);
    while (!unblocked()) {
      if (deadline_us != 0 && std::chrono::steady_clock::now() >= expiry) {
        bool escalate = false;
        Status expired = CancelWait(tid, shard, &escalate);
        if (expired.ok()) break;  // a grant raced in: single resolution
        sl.unlock();
        shard.cv.notify_all();  // waiters granted by the withdrawal
        if (escalate) {
          Status aborted = Terminate(tid, /*commit=*/false);
          TWBG_CHECK(aborted.ok());
        }
        return expired;
      }
      shard.cv.wait_for(sl, kWaitPoll);
    }
  }
  return AwaitStatus(tid, rec.state.load(std::memory_order_relaxed));
}

void ConcurrentLockService::SetUnblockListener(
    std::function<void(lock::TransactionId)> listener) {
  std::unique_lock<std::mutex> tl = LockTxnTable();
  unblock_listener_ = std::move(listener);
}

Result<lock::RequestOutcome> ConcurrentLockService::AcquireAsync(
    lock::TransactionId tid, lock::ResourceId rid, lock::LockMode mode) {
  TWBG_DCHECK(t_in_sealed_detect == 0);
  const size_t shard_index = ShardIndex(rid);
  // The registration half of AcquireBlocking, returning the outcome
  // instead of parking on the shard cv; Await(tid) is the other half.
  Shard& shard = *shards_[shard_index];
  std::unique_lock<std::mutex> sl = LockShard(shard);
  common::Stopwatch hold;
  TxnRecord* rec = nullptr;
  Result<lock::RequestOutcome> outcome =
      RequestLocked(tid, rid, mode, shard_index, &rec);
  shard.hold_ns += static_cast<uint64_t>(hold.ElapsedNanos());
  return outcome;
}

Status ConcurrentLockService::SetCost(lock::TransactionId tid, double cost) {
  TWBG_RETURN_IF_ERROR(core::CheckAbortCost(cost));
  std::unique_lock<std::mutex> tl = LockTxnTable();
  TxnRecord* rec = nullptr;
  Result<TxnState> state = StateLocked(tid, &rec);
  if (!state.ok()) return state.status();
  if (rec == nullptr || *state == TxnState::kCommitted ||
      *state == TxnState::kAborted) {
    return Status::FailedPrecondition(common::Format(
        "T%u is %s; cannot set the cost of a terminated transaction", tid,
        std::string(ToString(*state)).c_str()));
  }
  rec->cost_pinned.store(true, std::memory_order_relaxed);
  rec->cost.store(cost, std::memory_order_relaxed);
  return Status::OK();
}

Status ConcurrentLockService::CancelWait(lock::TransactionId tid,
                                         Shard& shard, bool* escalate) {
  *escalate = false;
  std::unique_lock<std::mutex> tl = LockTxnTable();
  TxnRecord* found = Find(tid);
  TWBG_CHECK(found != nullptr);  // we are parked on it
  TxnRecord& rec = *found;
  const TxnState state = rec.state.load(std::memory_order_relaxed);
  // The shard mutex has been held since the deadline check, and both
  // resolvers (terminating releasers and the stop-the-world pass) change
  // waiter states only while holding it — whichever of {grant, abort,
  // expiry} we observe first under txn_mu_ is the wait's single
  // resolution.
  if (state != TxnState::kBlocked) return AwaitStatus(tid, state);
  std::unique_lock<std::mutex> ol(obs_mu_, std::defer_lock);
  if (observed()) ol.lock();
  const lock::TxnLockInfo* info = shard.lm.Info(tid);
  TWBG_CHECK(info != nullptr && info->blocked_on.has_value());
  const lock::ResourceId wait_rid = *info->blocked_on;
  const lock::LockMode wait_mode = info->blocked_mode;
  const uint64_t span = info->wait_span;
  Result<std::vector<lock::TransactionId>> granted = shard.lm.CancelWait(tid);
  TWBG_CHECK(granted.ok());
  SetStateLocked(tid, rec, TxnState::kActive);
  rec.deadline_expiries++;
  rec.blocked_sweeps = 0;
  deadline_expiries_.fetch_add(1, std::memory_order_relaxed);
  ReactivateLocked(*granted);
  const uint32_t abort_after = options_.robustness.deadline.abort_after;
  *escalate = abort_after != 0 && rec.deadline_expiries >= abort_after;
  if (*escalate) deadline_aborts_.fetch_add(1, std::memory_order_relaxed);
  if (obs::Enabled(bus_)) {
    obs::Event event;
    event.kind = obs::EventKind::kDeadlineExpired;
    event.tid = tid;
    event.rid = wait_rid;
    event.mode = wait_mode;
    event.span = span;
    event.a = rec.deadline_expiries;
    event.b = *escalate ? 1 : 0;
    bus_->Emit(event);
  }
  if (*escalate) {
    return Status::DeadlineExceeded(common::Format(
        "T%u wait on R%u exceeded its deadline; aborted after %u expired "
        "waits",
        tid, wait_rid, rec.deadline_expiries));
  }
  return Status::DeadlineExceeded(common::Format(
      "T%u wait on R%u exceeded its deadline", tid, wait_rid));
}

Status ConcurrentLockService::Commit(lock::TransactionId tid) {
  return Terminate(tid, /*commit=*/true);
}

Status ConcurrentLockService::Abort(lock::TransactionId tid) {
  return Terminate(tid, /*commit=*/false);
}

Status ConcurrentLockService::Terminate(lock::TransactionId tid, bool commit) {
  // Lock ordering requires the shard mutexes before txn_mu_, so peek at
  // the mask first, lock-free (no record: nothing to lock).  Only this
  // transaction's own thread grows it, and the protocol forbids concurrent
  // operations on one transaction, so the mask is stable; the state is
  // re-validated under the full locks (a detection pass may abort the
  // transaction in between).
  const TxnRecord* peek = Find(tid);
  const uint64_t mask =
      peek == nullptr ? 0 : peek->shard_mask.load(std::memory_order_relaxed);

  common::Stopwatch hold;
  std::vector<std::unique_lock<std::mutex>> shard_locks =
      LockShards(mask, hold);
  {
    std::unique_lock<std::mutex> tl = LockTxnTable();
    TxnRecord* rec = nullptr;
    Result<TxnState> known = StateLocked(tid, &rec);
    if (!known.ok()) return known.status();
    const TxnState state = *known;
    if (commit && state != TxnState::kActive) {
      return Status::FailedPrecondition(
          common::Format("T%u is %s and cannot commit", tid,
                         std::string(ToString(state)).c_str()));
    }
    if (!commit &&
        (state == TxnState::kCommitted || state == TxnState::kAborted)) {
      return Status::FailedPrecondition(
          common::Format("T%u is already %s", tid,
                         std::string(ToString(state)).c_str()));
    }
    std::unique_lock<std::mutex> ol(obs_mu_, std::defer_lock);
    if (observed()) ol.lock();
    FinishLocked(*rec, commit ? TxnState::kCommitted : TxnState::kAborted);
    if (obs::Enabled(bus_)) {
      obs::Event event;
      event.kind =
          commit ? obs::EventKind::kTxnCommit : obs::EventKind::kTxnAbort;
      event.tid = tid;
      event.a = 0;  // kTxnAbort: voluntary, not a deadlock victim
      bus_->Emit(event);
    }
    if (obs::Tracing(tracer_)) tracer_->CloseTxn(tid, /*aborted=*/!commit);
    ReactivateLocked(ReleaseAllShardsLocked(tid, mask));
  }
  // A planned drop-wakeup fault swallows this termination's broadcast (not
  // the announcements); its waiters recover via their polling waits.
  const bool drop = injector_ != nullptr && injector_->TakeDropWakeup(tid);
  if (drop) {
    robustness::Fault fault;
    fault.kind = robustness::FaultKind::kDropWakeup;
    fault.txn = tid;
    EmitStandalone(FaultEvent(fault));
  } else {
    for (size_t s = 0; s < shards_.size(); ++s) {
      if ((mask & (uint64_t{1} << s)) == 0) continue;
      shards_[s]->cv.notify_all();
    }
  }
  // Attribute the critical section to every shard held through it (all
  // were held for its whole duration; the locks are still owned here).
  const uint64_t hold_ns = static_cast<uint64_t>(hold.ElapsedNanos());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if ((mask & (uint64_t{1} << s)) == 0) continue;
    shards_[s]->hold_ns += hold_ns;
  }
  shard_locks.clear();
  return Status::OK();
}

std::vector<lock::TransactionId> ConcurrentLockService::ReleaseAllShardsLocked(
    lock::TransactionId tid, uint64_t mask) {
  // Union of the transaction's touched resources across its shards,
  // released in global ascending-rid order — the exact order a single
  // lock manager's ReleaseAll would use, so the kLockWakeup stream (and
  // hence the recorded linearization) matches the sequential engine.
  std::vector<lock::ResourceId> rids;
  bool known = false;
  bool was_blocked = false;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if ((mask & (uint64_t{1} << s)) == 0) continue;
    const lock::TxnLockInfo* info = shards_[s]->lm.Info(tid);
    if (info == nullptr) continue;
    known = true;
    was_blocked |= info->blocked_on.has_value();
    rids.insert(rids.end(), info->touched.begin(), info->touched.end());
  }
  if (!known) return {};  // mirror ReleaseAll: unknown tid emits nothing
  // The per-rid ReleaseOn path closes only the *granted* waiters' spans
  // (NoteGranted); the released transaction's own pending wait ends here,
  // the way LockManager::ReleaseAll would end it.
  if (was_blocked && obs::Tracing(tracer_)) {
    tracer_->CloseWait(tid, obs::WaitOutcome::kAborted);
  }
  std::sort(rids.begin(), rids.end());

  std::vector<lock::TransactionId> granted;
  for (lock::ResourceId rid : rids) {
    Shard& shard = *shards_[ShardIndex(rid)];
    const std::vector<lock::TransactionId> g = shard.lm.ReleaseOn(tid, rid);
    granted.insert(granted.end(), g.begin(), g.end());
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if ((mask & (uint64_t{1} << s)) == 0) continue;
    shards_[s]->lm.Forget(tid);
  }
  if (obs::Enabled(bus_)) {
    // The one release summary, same shape as LockManager::ReleaseAll.
    obs::Event event;
    event.kind = obs::EventKind::kLockRelease;
    event.tid = tid;
    event.a = rids.size();
    event.b = granted.size();
    bus_->Emit(event);
  }
  return granted;
}

core::ResolutionReport ConcurrentLockService::RunDetectionPass() {
  if (degraded_remaining_.load(std::memory_order_relaxed) > 0) {
    return RunTimeoutSweep();
  }
  if (options_.snapshot_strategy == SnapshotStrategy::kStopTheWorld) {
    return RunStopTheWorldPass();
  }
  return RunPauselessPass();
}

core::ResolutionReport ConcurrentLockService::RunStopTheWorldPass() {
  // Stop the world: all shard locks (ascending), the transaction table,
  // then the bus.  Everything the pass reads is a consistent cross-shard
  // snapshot; everything it mutates and emits lands atomically between
  // two application operations, which is what makes the recorded event
  // stream replayable against the sequential engine.
  common::Stopwatch pause;
  common::Stopwatch hold;
  std::vector<std::unique_lock<std::mutex>> shard_locks =
      LockShards(~uint64_t{0}, hold);
  core::ResolutionReport report;
  {
    std::unique_lock<std::mutex> tl = LockTxnTable();
    std::unique_lock<std::mutex> ol(obs_mu_, std::defer_lock);
    if (observed()) ol.lock();
    const uint64_t pass_span =
        obs::Tracing(tracer_) ? tracer_->Open(obs::SpanKind::kPass) : 0;
    core::CostTable costs = CostSnapshotLocked();
    report = detector_->RunPass(*pass_host_, costs);
    // Keep the TDR-2 bumps, which land on blocked ST members (victims are
    // erased from the snapshot; they terminate just below).
    for (const auto& [tid, cost] : costs.entries()) {
      TxnRecord* rec = Find(tid);
      if (rec != nullptr && rec->cost.load() != cost) rec->cost.store(cost);
    }
    ApplyReportLocked(report);
    if (obs::Enabled(bus_)) PublishShardStatsLocked();
    if (pass_span != 0) {
      // Pass-span close contract: a = cycles resolved, b = cost ns.
      tracer_->Close(pass_span, report.cycles_detected,
                     static_cast<uint64_t>(pause.ElapsedNanos()));
    }
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  const uint64_t pause_ns = static_cast<uint64_t>(pause.ElapsedNanos());
  UnlockAllShards(shard_locks, hold);
  {
    std::scoped_lock stl(stats_mu_);
    pause_times_ns_.push_back(pause_ns);
  }
  DegradeIfOverBudget(pause_ns);
  UpdateSchedulerAfterPass(pause_ns, report);
  return report;
}

void ConcurrentLockService::DegradeIfOverBudget(uint64_t pause_ns) {
  // The budget is judged against the period in effect during the pass
  // that paused, so a retune after it cannot excuse the pause that
  // motivated it.
  const uint64_t budget_ns = EffectivePauseBudgetNs();
  if (budget_ns == 0 || pause_ns <= budget_ns) return;
  const uint32_t passes = options_.robustness.degradation.degraded_passes;
  degraded_remaining_.store(passes, std::memory_order_relaxed);
  obs::Event event;
  event.kind = obs::EventKind::kDegraded;
  event.a = passes;
  event.b = pause_ns / 1000;                              // the pause, µs
  event.value = static_cast<double>(budget_ns) / 1000.0;  // budget, µs
  EmitStandalone(std::move(event));
}

core::ResolutionReport ConcurrentLockService::RunPauselessPass() {
  // The epoch mirrors are shared detector state: one pauseless pass at a
  // time.  pass_mu_ is outermost — nothing below takes it, and it is
  // never acquired while any other service lock is held.
  std::scoped_lock pass_lock(pass_mu_);
  common::Stopwatch pass_clock;
  const uint64_t sealing_epoch = epoch_.load(std::memory_order_acquire) + 1;
  const uint64_t pass_span = OpenSpanStandalone(obs::SpanKind::kPass, 0, 0);

  // Phase 1 — publish: capture each shard's journal delta under its own
  // mutex (the only pause a client ever observes, O(delta)), then fold it
  // into the mirror outside the lock.
  uint64_t max_publish_ns = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    ShardCaptureStats capture;
    uint64_t publish_ns = 0;
    const uint64_t publish_span = OpenSpanStandalone(
        obs::SpanKind::kPublish, static_cast<uint32_t>(s), pass_span);
    {
      std::unique_lock<std::mutex> sl = LockShard(shard);
      common::Stopwatch publish;
      capture = snapshots_[s].Capture(shard.lm);
      publish_ns = static_cast<uint64_t>(publish.ElapsedNanos());
      shard.hold_ns += publish_ns;
    }
    snapshots_[s].Fold();
    // Publish-span counters: a = dirty resources captured, b = the
    // client-visible publish pause in nanoseconds (the span's duration
    // also covers the fold, which runs off the shard lock).
    CloseSpanStandalone(publish_span, capture.dirty, publish_ns);
    max_publish_ns = std::max(max_publish_ns, publish_ns);
    {
      std::scoped_lock stl(stats_mu_);
      publish_pause_times_ns_.push_back(publish_ns);
    }
    obs::Event event;
    event.kind = obs::EventKind::kSnapshotPublish;
    event.rid = static_cast<lock::ResourceId>(s);  // shard index
    event.a = capture.dirty;
    event.b = capture.full_sweep ? 1 : 0;
    event.span = sealing_epoch;
    event.value = static_cast<double>(publish_ns);
    EmitStandalone(std::move(event));
  }
  common::Stopwatch seal_clock;  // measures the seal-to-apply lag

  // The walk decides victims on a cost snapshot; the validated apply
  // replays the TDR-2 ST bumps onto the live records.
  core::CostTable costs_copy;
  {
    std::unique_lock<std::mutex> tl = LockTxnTable();
    costs_copy = CostSnapshotLocked();
  }

  // Phase 2 — detect, lock-free over the sealed mirrors while client
  // traffic proceeds on the live shards.  Events are recorded on a local
  // bus; the apply phase replays the validated subset into the shared
  // stream so sinks never see resolutions that were later rejected.
  std::vector<const lock::LockTable*> tables;
  tables.reserve(snapshots_.size());
  for (const ShardSnapshot& snapshot : snapshots_) {
    tables.push_back(&snapshot.table());
  }
  obs::EventBus local_bus;
  obs::CollectorSink recorder;
  bool observing = false;
  if (bus_ != nullptr) {
    std::scoped_lock ol(obs_mu_);
    observing = bus_->active();
    local_bus.set_time(bus_->time());
  }
  if (observing) local_bus.Subscribe(&recorder);
  common::Stopwatch detect_clock;
  core::ParallelPeriodicDetector::DetectOutcome detect;
  {
    ++t_in_sealed_detect;
    detect = detector_->RunDetect(tables, *snapshot_host_, costs_copy,
                                  observing ? &local_bus : nullptr,
                                  detect_clock);
    --t_in_sealed_detect;
  }
  if (options_.post_seal_hook) options_.post_seal_hook();

  // Segment the recorded stream — [kPassStart, kStep1, one segment per
  // decision ([kUprReposition?] kCycleResolved [kCyclePostMortem?]),
  // kStep2] — so each decision's events replay exactly when the decision
  // validates.
  std::vector<core::VictimDecision>& decisions = detect.walk.decisions;
  const std::deque<obs::Event>& recorded = recorder.events();
  std::vector<std::pair<size_t, size_t>> segments;
  if (observing) {
    segments.reserve(decisions.size());
    size_t pos = 2;  // past kPassStart, kStep1
    for (size_t i = 0; i < decisions.size(); ++i) {
      const size_t begin = pos;
      while (recorded[pos].kind != obs::EventKind::kCycleResolved) ++pos;
      ++pos;
      if (pos < recorded.size() &&
          recorded[pos].kind == obs::EventKind::kCyclePostMortem) {
        ++pos;
      }
      segments.emplace_back(begin, pos);
    }
  }

  core::ResolutionReport report;
  report.cycles_detected = detect.walk.cycles;
  report.steps = detect.walk.steps;
  report.num_transactions = detect.num_transactions;
  report.num_edges = detect.num_edges;
  if (detect.incremental) {
    report.num_dirty_resources = detect.cache.num_dirty_resources;
    report.num_cached_resources = detect.cache.num_cached_resources;
    report.edges_rebuilt = detect.cache.edges_rebuilt;
    report.edges_reused = detect.cache.edges_reused;
  }

  // Phase 3 — validated apply: under the full pass locks, re-check every
  // decision's evidence stamps against the live shards.  A match means
  // the sealed state it was derived from IS the live state now (equal
  // versions guarantee identical content), so the cycle exists at this
  // instant and the resolution is sound; a mismatch means the evidence
  // moved between seal and apply, and the decision is dropped — the
  // cycle, if it persists, cannot mutate further (every member is
  // blocked) and re-derives cleanly next pass.
  common::Stopwatch apply_pause;
  common::Stopwatch hold;
  std::vector<std::unique_lock<std::mutex>> shard_locks =
      LockShards(~uint64_t{0}, hold);
  const uint64_t lag_ns = static_cast<uint64_t>(seal_clock.ElapsedNanos());
  {
    std::unique_lock<std::mutex> tl = LockTxnTable();
    std::unique_lock<std::mutex> ol(obs_mu_, std::defer_lock);
    if (observed()) ol.lock();
    const bool live_obs = observing && obs::Enabled(bus_);
    const uint64_t apply_span =
        obs::Tracing(tracer_)
            ? tracer_->Open(obs::SpanKind::kApply, 0, pass_span)
            : 0;
    const auto replay = [&](size_t index) { bus_->Emit(recorded[index]); };
    if (live_obs) {
      replay(0);  // kPassStart
      replay(1);  // kStep1
    }

    // A TDR-2 replay gives the live resource a fresh version stamp (the
    // stamp domain is process-wide), while later decisions in the same
    // component derived their evidence from the mirror's post-apply
    // stamp.  The overlay maps each repositioned resource to (the mirror
    // stamp later evidence should cite, the live stamp our replay
    // produced) so chained decisions validate.
    std::map<lock::ResourceId, std::pair<uint64_t, uint64_t>> overlay;
    std::vector<char> valid(decisions.size(), 0);
    for (size_t i = 0; i < decisions.size(); ++i) {
      const core::VictimDecision& decision = decisions[i];
      const core::VictimCandidate& victim = decision.victim();
      bool stamps_hold = true;
      for (const auto& [rid, stamp] : decision.evidence) {
        const lock::ResourceState* live =
            shards_[ShardIndex(rid)]->lm.table().Find(rid);
        if (live == nullptr) {
          stamps_hold = false;
          break;
        }
        const auto it = overlay.find(rid);
        if (it != overlay.end()) {
          if (stamp != it->second.first ||
              live->version() != it->second.second) {
            stamps_hold = false;
            break;
          }
        } else if (live->version() != stamp) {
          stamps_hold = false;
          break;
        }
      }
      if (!stamps_hold) {
        ++report.rejected;
        resolutions_rejected_.fetch_add(1, std::memory_order_relaxed);
        if (live_obs) {
          obs::Event event;
          event.kind = obs::EventKind::kResolutionRejected;
          event.tid = victim.junction;
          event.rid = victim.kind == core::VictimKind::kReposition
                          ? victim.resource
                          : 0;
          event.a = decision.cycle.size();
          event.b = victim.kind == core::VictimKind::kReposition;
          event.value = victim.cost;
          bus_->Emit(std::move(event));
        }
        continue;
      }
      valid[i] = 1;
      // The sealed detect ran tracer-less (worker threads), so the
      // resolution span of a validated decision is minted here, at the
      // moment the resolution actually lands on the live shards.
      uint64_t res_span = 0;
      if (obs::Tracing(tracer_)) {
        res_span = tracer_->Open(obs::SpanKind::kResolution, 0, pass_span);
        tracer_->SetContext(res_span, victim.junction,
                            victim.kind == core::VictimKind::kReposition
                                ? victim.resource
                                : 0);
      }
      if (victim.kind == core::VictimKind::kReposition) {
        Shard& shard = *shards_[ShardIndex(victim.resource)];
        lock::ResourceState* state =
            shard.lm.mutable_table().FindMutableDeferred(victim.resource);
        TWBG_CHECK(state != nullptr);  // stamps hold: same state as sealed
        const Status applied = state->ApplyTdr2(victim.junction);
        TWBG_CHECK(applied.ok());  // identical queue => same outcome
        shard.lm.mutable_table().NoteMutation(victim.resource);
        overlay[victim.resource] = {decision.applied_version,
                                    state->version()};
        for (lock::TransactionId st : victim.st) {
          // ST members queue on a resource whose stamp held, so they live.
          TxnRecord* rec = Find(st);
          TWBG_CHECK(rec != nullptr);
          rec->cost.store(rec->cost.load(std::memory_order_relaxed) *
                                  options_.detector.st_cost_multiplier +
                              options_.detector.st_cost_increment,
                          std::memory_order_relaxed);
        }
      }
      if (live_obs) {
        for (size_t e = segments[i].first; e < segments[i].second; ++e) {
          obs::Event event = recorded[e];
          if (event.kind == obs::EventKind::kCyclePostMortem) {
            // Forensic <-> timeline join: the recorded post-mortem was
            // captured span-less on the local bus; stamp it with the
            // resolution span minted above before it reaches the sinks.
            event.span = res_span;
          }
          bus_->Emit(std::move(event));
        }
      }
      if (res_span != 0) {
        const bool reposition =
            victim.kind == core::VictimKind::kReposition;
        tracer_->Close(res_span, decision.cycle.size(), reposition ? 1 : 0,
                       reposition ? "TDR-2" : "TDR-1");
      }
    }
    if (live_obs) replay(recorded.size() - 1);  // kStep2

    // Step 3 over the validated subset, mirroring core::ApplyResolution:
    // rebuild the abortion and change lists from the surviving decisions
    // (same order, same dedup the walk applied).
    std::vector<lock::TransactionId> order;
    std::vector<lock::ResourceId> change_list;
    for (size_t i = 0; i < decisions.size(); ++i) {
      if (valid[i] == 0) continue;
      const core::VictimCandidate& victim = decisions[i].victim();
      if (victim.kind == core::VictimKind::kAbort) {
        order.push_back(victim.junction);
      } else if (std::find(change_list.begin(), change_list.end(),
                           victim.resource) == change_list.end()) {
        change_list.push_back(victim.resource);
      }
    }
    switch (options_.detector.abort_order) {
      case core::AbortOrder::kInsertion:
        break;
      case core::AbortOrder::kReverseInsertion:
        std::reverse(order.begin(), order.end());
        break;
      case core::AbortOrder::kCostDescending:
        std::stable_sort(order.begin(), order.end(),
                         [&](lock::TransactionId a, lock::TransactionId b) {
                           return CostLocked(a) > CostLocked(b);
                         });
        break;
      case core::AbortOrder::kCostAscending:
        std::stable_sort(order.begin(), order.end(),
                         [&](lock::TransactionId a, lock::TransactionId b) {
                           return CostLocked(a) < CostLocked(b);
                         });
        break;
    }
    std::set<lock::TransactionId> granted_set;
    for (lock::TransactionId tid : order) {
      if (granted_set.count(tid) != 0) {
        report.spared.push_back(tid);
        continue;
      }
      const TxnRecord* rec = Find(tid);
      const std::vector<lock::TransactionId> granted = ReleaseAllShardsLocked(
          tid, rec == nullptr ? ~uint64_t{0} : rec->shard_mask.load());
      report.aborted.push_back(tid);
      for (lock::TransactionId g : granted) {
        granted_set.insert(g);
        report.granted.push_back(g);
      }
    }
    for (lock::ResourceId rid : change_list) {
      for (lock::TransactionId g :
           shards_[ShardIndex(rid)]->lm.Reschedule(rid)) {
        granted_set.insert(g);
        report.granted.push_back(g);
      }
    }
    report.repositioned = std::move(change_list);
    for (size_t i = 0; i < decisions.size(); ++i) {
      if (valid[i] == 0) continue;
      if (i < detect.walk.post_mortems.size()) {
        report.post_mortems.push_back(
            std::move(detect.walk.post_mortems[i]));
      }
      report.decisions.push_back(std::move(decisions[i]));
    }

    if (live_obs) {
      obs::Event end;
      end.kind = obs::EventKind::kPassEnd;
      end.a = report.cycles_detected;
      end.b = report.aborted.size();
      end.span = lag_ns;  // seal-to-apply lag (zero in STW streams)
      end.value = static_cast<double>(pass_clock.ElapsedNanos());
      bus_->Emit(std::move(end));
    }
    ApplyReportLocked(report);
    if (obs::Enabled(bus_)) PublishShardStatsLocked();
    if (apply_span != 0) {
      // Apply-span counters: a = decisions applied, b = rejected.
      tracer_->Close(apply_span, report.decisions.size(), report.rejected);
    }
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  const uint64_t apply_ns = static_cast<uint64_t>(apply_pause.ElapsedNanos());
  UnlockAllShards(shard_locks, hold);
  // The client-visible pause of a pauseless pass is whichever critical
  // section was longest: a single shard publish or the validated apply.
  const uint64_t pause_ns = std::max(max_publish_ns, apply_ns);
  {
    std::scoped_lock stl(stats_mu_);
    pause_times_ns_.push_back(pause_ns);
    detection_lag_ns_.push_back(lag_ns);
  }
  DegradeIfOverBudget(pause_ns);
  // Pass-span close contract: a = cycles actually resolved (detected
  // minus stamp-rejected — a rejected decision resolves nothing and is
  // re-derived next pass), b = the full pass cost in nanoseconds.
  const uint64_t pass_ns = static_cast<uint64_t>(pass_clock.ElapsedNanos());
  const uint64_t resolved =
      report.cycles_detected >= report.rejected
          ? report.cycles_detected - report.rejected
          : 0;
  CloseSpanStandalone(pass_span, resolved, pass_ns);
  // Full pass cost (publish + detect + validated apply), not just the
  // client-visible pause: the controller trades detector CPU for staleness.
  UpdateSchedulerAfterPass(pass_ns, report);
  return report;
}

core::ResolutionReport ConcurrentLockService::RunTimeoutSweep() {
  common::Stopwatch pause;
  common::Stopwatch hold;
  std::vector<std::unique_lock<std::mutex>> shard_locks =
      LockShards(~uint64_t{0}, hold);
  core::ResolutionReport report;
  {
    std::unique_lock<std::mutex> tl = LockTxnTable();
    std::unique_lock<std::mutex> ol(obs_mu_, std::defer_lock);
    if (observed()) ol.lock();
    // Timeout resolution (the fallback the paper's algorithm replaces):
    // abort whoever has been observed blocked for `sweep_patience`
    // consecutive sweeps.  Crude — it may abort transactions that are
    // merely waiting, not deadlocked — but O(transactions) cheap, which
    // is the point while degraded.
    const uint32_t patience = options_.robustness.degradation.sweep_patience;
    std::vector<TxnRecord*> victims;
    for (TxnRecord* rec : LiveRecordsLocked()) {
      if (rec->state.load(std::memory_order_relaxed) != TxnState::kBlocked) {
        rec->blocked_sweeps = 0;
        continue;
      }
      if (++rec->blocked_sweeps >= patience) victims.push_back(rec);
    }
    for (TxnRecord* rec : victims) {
      const lock::TransactionId victim = rec->tid.load();
      const uint64_t mask = rec->shard_mask.load();
      // Not counted in deadlock_victims(): a timeout abort is a guess,
      // not a detected cycle; it lands in sweep_aborts() instead.
      FinishLocked(*rec, TxnState::kAborted);
      sweep_aborts_.fetch_add(1, std::memory_order_relaxed);
      if (obs::Enabled(bus_)) {
        obs::Event event;
        event.kind = obs::EventKind::kTxnAbort;
        event.tid = victim;
        event.a = 0;  // not a deadlock victim
        bus_->Emit(event);
      }
      if (obs::Tracing(tracer_)) tracer_->CloseTxn(victim, /*aborted=*/true);
      const std::vector<lock::TransactionId> granted =
          ReleaseAllShardsLocked(victim, mask);
      ReactivateLocked(granted);
      report.aborted.push_back(victim);
      report.granted.insert(report.granted.end(), granted.begin(),
                            granted.end());
    }
    if (obs::Enabled(bus_)) PublishShardStatsLocked();
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    // Serialized by the shard locks, so no lost update; the guard keeps a
    // racing second sweep (manual pass vs detector thread) from wrapping.
    const uint32_t remaining = degraded_remaining_.load(std::memory_order_relaxed);
    if (remaining > 0) {
      degraded_remaining_.store(remaining - 1, std::memory_order_relaxed);
    }
  }
  const uint64_t pause_ns = static_cast<uint64_t>(pause.ElapsedNanos());
  UnlockAllShards(shard_locks, hold);
  {
    // A degraded sweep is not a detection pass: its pause lands in its
    // own series so pause percentiles of full passes stay uncontaminated.
    std::scoped_lock stl(stats_mu_);
    sweep_pause_times_ns_.push_back(pause_ns);
  }
  return report;
}

void ConcurrentLockService::ApplyReportLocked(
    const core::ResolutionReport& report) {
  for (lock::TransactionId victim : report.aborted) {
    TxnRecord* rec = Find(victim);
    if (rec == nullptr) continue;
    FinishLocked(*rec, TxnState::kAborted);
    ++deadlock_victims_;
    if (obs::Enabled(bus_)) {
      obs::Event event;
      event.kind = obs::EventKind::kTxnAbort;
      event.tid = victim;
      event.a = 1;  // deadlock victim (TDR-1)
      bus_->Emit(event);
    }
    if (obs::Tracing(tracer_)) tracer_->CloseTxn(victim, /*aborted=*/true);
  }
  ReactivateLocked(report.granted);
}

void ConcurrentLockService::ReactivateLocked(
    const std::vector<lock::TransactionId>& granted) {
  for (lock::TransactionId g : granted) {
    TxnRecord* rec = Find(g);
    if (rec == nullptr ||
        rec->state.load(std::memory_order_relaxed) != TxnState::kBlocked) {
      continue;
    }
    // The counters and cost first: the owner's next operation may follow
    // the state change on another thread.
    rec->locks_granted.fetch_add(1, std::memory_order_relaxed);
    rec->blocked_sweeps = 0;
    RefreshCost(*rec);
    SetStateLocked(g, *rec, TxnState::kActive);
  }
}

void ConcurrentLockService::SetStateLocked(lock::TransactionId tid,
                                           TxnRecord& rec, TxnState to) {
  const TxnState from = rec.state.exchange(to, std::memory_order_acq_rel);
  if (from == TxnState::kBlocked && unblock_listener_) unblock_listener_(tid);
}

void ConcurrentLockService::PublishShardStatsLocked() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    obs::Event event;
    event.kind = obs::EventKind::kShardContention;
    event.rid = static_cast<lock::ResourceId>(s);  // shard index
    event.a = shard.acquire_waits;
    event.b = shard.ops;
    event.value = static_cast<double>(shard.hold_ns);
    bus_->Emit(event);
  }
}

void ConcurrentLockService::RefreshCost(TxnRecord& rec) const {
  // SetCost owns a pinned cost.
  if (rec.cost_pinned.load(std::memory_order_relaxed)) return;
  double cost = 1.0;
  switch (options_.cost_policy) {
    case CostPolicy::kUnit:
      cost = 1.0;
      break;
    case CostPolicy::kLocksHeld:
      cost = 1.0 + static_cast<double>(rec.locks_granted.load());
      break;
    case CostPolicy::kAge:
      cost = 1.0 + static_cast<double>(next_ts_.load() - rec.begin_ts);
      break;
    case CostPolicy::kOpsDone:
      cost = 1.0 + static_cast<double>(rec.ops_executed.load());
      break;
  }
  rec.cost.store(cost, std::memory_order_relaxed);
}

void ConcurrentLockService::DetectorLoop() {
  std::unique_lock<std::mutex> lk(stop_mu_);
  while (!stopping_) {
    // Re-read every iteration: a retune applied after the previous pass
    // takes effect on the very next wait.
    const std::chrono::microseconds wait(
        current_period_us_.load(std::memory_order_acquire));
    if (stop_cv_.wait_for(lk, wait, [this] { return stopping_; })) {
      break;
    }
    lk.unlock();
    RunDetectionPass();
    lk.lock();
  }
}

uint64_t ConcurrentLockService::EffectivePauseBudgetNs() const {
  const uint64_t base_ns = options_.robustness.degradation.pause_budget_ns;
  if (base_ns == 0 || controller_ == nullptr || base_period_us_ == 0) {
    return base_ns;
  }
  const uint64_t period_us = current_period_us_.load(std::memory_order_acquire);
  if (period_us == 0 || period_us == base_period_us_) return base_ns;
  // Longer periods amortize a pass over more work, so a proportionally
  // longer pause keeps the same duty cycle; shorter periods tighten it.
  const double scaled = static_cast<double>(base_ns) *
                        static_cast<double>(period_us) /
                        static_cast<double>(base_period_us_);
  return scaled < 1.0 ? 1 : static_cast<uint64_t>(scaled);
}

void ConcurrentLockService::UpdateSchedulerAfterPass(
    uint64_t pass_ns, const core::ResolutionReport& report) {
  if (controller_ == nullptr) return;
  // Snapshot the blocked population under txn_mu_ alone before touching
  // any scheduling state (sched_mu_ is a leaf lock: nothing else is ever
  // taken under it).
  uint64_t blocked = 0;
  {
    std::unique_lock<std::mutex> tl = LockTxnTable();
    for (const TxnRecord* rec : LiveRecordsLocked()) {
      if (rec->state.load(std::memory_order_relaxed) == TxnState::kBlocked) {
        ++blocked;
      }
    }
  }
  // Drain the estimator window (if any) before sched_mu_ — like the
  // blocked snapshot above, so sched_mu_ stays a leaf lock.
  obs::SpanSampleStats stats;
  if (estimator_ != nullptr) {
    std::scoped_lock ol(obs_mu_);
    stats = estimator_->Take(tracer_->now());
  }
  std::optional<sched::PeriodRetune> retune;
  {
    std::scoped_lock sl(sched_mu_);
    const auto now = std::chrono::steady_clock::now();
    // First pass has no predecessor; charge it one nominal period.
    uint64_t elapsed_us = current_period_us_.load(std::memory_order_relaxed);
    if (sched_seen_pass_) {
      elapsed_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              now - last_pass_time_)
              .count());
      if (elapsed_us == 0) elapsed_us = 1;
    }
    last_pass_time_ = now;
    sched_seen_pass_ = true;
    sched::PassSample sample;
    if (estimator_ != nullptr) {
      // Span-measured inputs (SchedulerOptions::use_span_estimates): the
      // window is delimited by the tracer's clock, cycles come from the
      // closed pass spans' resolved counts (stamp-rejected decisions
      // excluded, unlike report.cycles_detected), C from the pass spans'
      // cost counters, and B is time-averaged over the window's closed
      // wait spans instead of sampled at pass end.
      sample.elapsed = std::max<uint64_t>(stats.window_ns / 1000, 1);
      const uint64_t passes = std::max<uint64_t>(stats.passes, 1);
      sample.detection_cost =
          static_cast<double>(stats.pass_cost) / 1000.0 /
          static_cast<double>(passes);
      sample.cycles_resolved = stats.cycles;
      sample.blocked_txns = static_cast<uint64_t>(stats.avg_blocked() + 0.5);
    } else {
      sample.elapsed = elapsed_us;
      // Cost in the controller's time unit (µs), same as the period.
      sample.detection_cost = static_cast<double>(pass_ns) / 1000.0;
      sample.cycles_resolved = report.cycles_detected;
      sample.blocked_txns = blocked;
    }
    retune = controller_->OnPassComplete(sample);
    if (retune.has_value()) {
      current_period_us_.store(retune->new_period, std::memory_order_release);
    }
  }
  if (!retune.has_value()) return;
  period_retunes_.fetch_add(1, std::memory_order_relaxed);
  obs::Event event;
  event.kind = obs::EventKind::kPeriodRetuned;
  event.a = retune->old_period;
  event.b = retune->new_period;
  event.value = retune->deadlock_rate;
  EmitStandalone(std::move(event));
}

Result<TxnState> ConcurrentLockService::State(lock::TransactionId tid) const {
  std::unique_lock<std::mutex> tl = LockTxnTable();
  TxnRecord* rec = nullptr;
  return StateLocked(tid, &rec);
}

size_t ConcurrentLockService::live_transactions() const {
  return live_txns_.load(std::memory_order_relaxed);
}

size_t ConcurrentLockService::txn_records() const {
  std::unique_lock<std::mutex> tl = LockTxnTable();
  return slab_.size() * kSlabChunk - free_records_.size();
}

Result<bool> ConcurrentLockService::HasDeadlock() {
  if (shards_.size() != 1) {
    return Status::FailedPrecondition(
        "HasDeadlock requires num_shards == 1 (merged multi-shard graph "
        "construction is not implemented)");
  }
  common::Stopwatch hold;
  std::vector<std::unique_lock<std::mutex>> shard_locks =
      LockShards(~uint64_t{0}, hold);
  return core::HwTwbg::Build(shards_[0]->lm.table()).HasCycle();
}

Result<std::string> ConcurrentLockService::RenderView(core::View view) {
  // Stop the world so the rendering is a consistent snapshot.
  common::Stopwatch hold;
  std::vector<std::unique_lock<std::mutex>> shard_locks =
      LockShards(~uint64_t{0}, hold);
  std::unique_lock<std::mutex> tl = LockTxnTable();
  if (view == core::View::kCosts) {
    // core::RenderView's kCosts lines over the union of the shards' known
    // transactions: one line per transaction, however many shards it
    // touched.
    std::vector<lock::TransactionId> tids;
    for (const auto& shard : shards_) {
      const std::vector<lock::TransactionId> known =
          shard->lm.KnownTransactions();
      tids.insert(tids.end(), known.begin(), known.end());
    }
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
    std::string out;
    for (lock::TransactionId tid : tids) {
      out += common::Format("T%u: %.2f\n", tid, CostLocked(tid));
    }
    return out;
  }
  if (shards_.size() == 1) {
    return core::RenderView(view, shards_[0]->lm, core::CostTable());
  }
  if (view != core::View::kTable) {
    return Status::FailedPrecondition(
        "graph views require num_shards == 1 (merged multi-shard graph "
        "construction is not implemented)");
  }
  std::string out;
  for (size_t s = 0; s < shards_.size(); ++s) {
    out += common::Format("-- shard %zu --\n", s);
    out += core::RenderView(view, shards_[s]->lm, core::CostTable());
  }
  return out;
}

size_t ConcurrentLockService::deadlock_victims() const {
  std::unique_lock<std::mutex> tl = LockTxnTable();
  return deadlock_victims_;
}

ShardStats ConcurrentLockService::shard_stats(size_t shard) const {
  ShardStats stats;
  if (shard >= shards_.size()) return stats;
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> sl(s.mu);
  stats.acquire_waits = s.acquire_waits;
  stats.ops = s.ops;
  stats.hold_ns = s.hold_ns;
  return stats;
}

std::vector<uint64_t> ConcurrentLockService::pause_times_ns() const {
  std::scoped_lock stl(stats_mu_);
  return pause_times_ns_;
}

std::vector<uint64_t> ConcurrentLockService::publish_pause_times_ns() const {
  std::scoped_lock stl(stats_mu_);
  return publish_pause_times_ns_;
}

std::vector<uint64_t> ConcurrentLockService::sweep_pause_times_ns() const {
  std::scoped_lock stl(stats_mu_);
  return sweep_pause_times_ns_;
}

std::vector<uint64_t> ConcurrentLockService::detection_lag_ns() const {
  std::scoped_lock stl(stats_mu_);
  return detection_lag_ns_;
}

Status ConcurrentLockService::CheckInvariants(bool deep) {
  // Stop the world so the cross-shard picture is consistent.
  common::Stopwatch hold;
  std::vector<std::unique_lock<std::mutex>> shard_locks =
      LockShards(~uint64_t{0}, hold);
  std::unique_lock<std::mutex> tl = LockTxnTable();
  for (size_t s = 0; s < shards_.size(); ++s) {
    Status status = shards_[s]->lm.CheckInvariants(deep);
    if (!status.ok()) {
      return Status::Internal(common::Format(
          "shard %zu: %s", s, std::string(status.message()).c_str()));
    }
    // Every transaction a shard knows must still be live.
    for (lock::TransactionId tid : shards_[s]->lm.KnownTransactions()) {
      TxnRecord* rec = nullptr;
      Result<TxnState> state = StateLocked(tid, &rec);
      if (!state.ok() || *state == TxnState::kCommitted ||
          *state == TxnState::kAborted) {
        return Status::Internal(common::Format(
            "terminated T%u is still known to shard %zu (leaked locks)", tid,
            s));
      }
    }
  }
  for (const TxnRecord* rec : LiveRecordsLocked()) {
    const lock::TransactionId tid = rec->tid.load(std::memory_order_relaxed);
    const TxnState state = rec->state.load(std::memory_order_relaxed);
    size_t blocked_in = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      const lock::TxnLockInfo* info = shards_[s]->lm.Info(tid);
      if (info != nullptr && info->blocked_on.has_value()) ++blocked_in;
    }
    if (state == TxnState::kBlocked && blocked_in != 1) {
      return Status::Internal(common::Format(
          "T%u is kBlocked but blocked in %zu shards (expected exactly 1)",
          tid, blocked_in));
    }
    if (state != TxnState::kBlocked && blocked_in != 0) {
      return Status::Internal(common::Format(
          "T%u is not kBlocked but waits in %zu shards", tid, blocked_in));
    }
  }
  // No leaked waiters: every blocked lock-table entry must belong to a
  // live transaction the service also believes is blocked.
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (lock::TransactionId tid : shards_[s]->lm.BlockedTransactions()) {
      const TxnRecord* rec = Find(tid);
      if (rec == nullptr ||
          rec->state.load(std::memory_order_relaxed) != TxnState::kBlocked) {
        return Status::Internal(common::Format(
            "shard %zu holds a blocked entry for T%u, which the service "
            "does not consider blocked (leaked waiter)",
            s, tid));
      }
    }
  }
  return Status::OK();
}

std::string ConcurrentLockService::DebugDump() {
  std::string out;
  common::Stopwatch hold;
  std::vector<std::unique_lock<std::mutex>> shard_locks =
      LockShards(~uint64_t{0}, hold);
  std::unique_lock<std::mutex> tl = LockTxnTable();
  for (size_t s = 0; s < shards_.size(); ++s) {
    out += common::Format("shard %zu:\n", s);
    out += shards_[s]->lm.table().ToString();
    for (lock::TransactionId tid : shards_[s]->lm.KnownTransactions()) {
      const lock::TxnLockInfo* info = shards_[s]->lm.Info(tid);
      if (info == nullptr || !info->blocked_on.has_value()) continue;
      out += common::Format("  T%u waits on R%u\n", tid, *info->blocked_on);
    }
  }
  for (const TxnRecord* rec : LiveRecordsLocked()) {
    out += common::Format(
        "T%u state=%d granted=%llu\n", rec->tid.load(),
        static_cast<int>(rec->state.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(rec->locks_granted.load()));
  }
  return out;
}

Status AwaitStatus(lock::TransactionId tid, const Result<TxnState>& state) {
  if (!state.ok()) return state.status();
  switch (*state) {
    case TxnState::kActive:
      return Status::OK();
    case TxnState::kBlocked:
      return Status::WouldBlock("still blocked");
    case TxnState::kAborted:
      return Status::DeadlockVictim(common::Format(
          "T%u aborted as deadlock victim while waiting", tid));
    case TxnState::kCommitted:
      return Status::FailedPrecondition(
          common::Format("T%u is committed; nothing to await", tid));
  }
  return Status::Internal("unhandled transaction state");
}

Status AcquireWithRetry(ConcurrentLockService& service,
                        lock::TransactionId tid, lock::ResourceId rid,
                        lock::LockMode mode,
                        const robustness::RetryOptions& retry, uint64_t seed,
                        uint32_t* attempts_out) {
  robustness::RetryBackoff backoff(retry, seed);
  uint32_t attempts = 0;
  for (;;) {
    Status status = service.AcquireBlocking(tid, rid, mode);
    ++attempts;
    if (attempts_out != nullptr) *attempts_out = attempts;
    if (!status.IsDeadlineExceeded() && !status.IsResourceExhausted()) {
      return status;
    }
    // A deadline expiry may have escalated into a server-side abort
    // (abort-after-N): the transaction is gone and a retry could only
    // return FailedPrecondition, so surface the deadline status as final.
    if (status.IsDeadlineExceeded()) {
      Result<TxnState> state = service.State(tid);
      if (state.ok() && *state == TxnState::kAborted) return status;
    }
    if (backoff.Exhausted()) {
      // Client-side abort-after-N: give up on the whole transaction.  The
      // abort may no-op if a server-side escalation already killed it.
      (void)service.Abort(tid);
      return status;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(backoff.NextDelay()));
  }
}

}  // namespace twbg::txn
