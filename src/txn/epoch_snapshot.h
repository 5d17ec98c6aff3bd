// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Epoch snapshots for pauseless periodic detection.  Each shard of
// txn::ConcurrentLockService owns a ShardSnapshot: a detector-side mirror
// of the shard's lock table plus the per-transaction wait bookkeeping the
// walk and post-mortems read.  A pass begins by *publishing* every
// shard's delta — Capture() runs under the shard mutex, walks the
// resources the live table's mutation journal says changed since the
// previous pass and stages each live one once and each gone one the
// mirror holds, an O(delta) copy with no sort — and then *sealing* the
// epoch: Fold() applies the staged delta into the mirror outside any
// lock.  The
// Step 1/2 detection walk then runs over the sealed mirrors while client
// traffic proceeds on the live shards; the only pause a shard ever
// observes is its own Capture() (plus the validated apply of a pass that
// has decisions; see txn/concurrent_service.h).
//
// Why the mirror converges: every mutation of live resource state —
// grants, blocks, releases, repositionings, cancellations — goes through
// the LockTable journal (conservatively; see lock/lock_table.h), so
// staging the journal's dirty set reproduces the live table exactly as
// of the capture point.  Per-transaction wait state is not diffed at
// all: the live wait map is mirrored wholesale each capture — an
// ordered sweep over O(active transactions), workload-bound and
// independent of table size.  Copy-assignment of ResourceState
// preserves version(), so the mirror carries the *live* version stamps
// — which is what lets resolution commands derived from the sealed
// epoch be validated against the live shards later
// (core::VictimDecision::evidence), and what lets the mirror feed the
// same incremental core::GraphBuilder cache path as a live table.

#ifndef TWBG_TXN_EPOCH_SNAPSHOT_H_
#define TWBG_TXN_EPOCH_SNAPSHOT_H_

#include <functional>
#include <utility>
#include <vector>

#include "core/parallel_engine.h"
#include "lock/lock_manager.h"
#include "lock/lock_table.h"

namespace twbg::txn {

/// What one publish (Capture() then Fold()) changed, for the
/// kSnapshotPublish event.
struct ShardCaptureStats {
  /// Distinct resources whose mirror entry changed: live resources copied
  /// in with a new version stamp plus mirror entries erased.
  size_t dirty = 0;
  /// True when the journal could not answer (reader fell behind its
  /// retention window) and the capture fell back to a full
  /// version-compare sweep of the live table.
  bool full_sweep = false;
};

/// Detector-side mirror of one shard's lock state.  Capture() under the
/// shard lock, Fold() outside it, then read the sealed mirror freely —
/// the owner guarantees no concurrent Capture/Fold (the pauseless pass is
/// serialized).
class ShardSnapshot {
 public:
  explicit ShardSnapshot(
      lock::AdmissionPolicy policy = lock::AdmissionPolicy::kTotalMode)
      : table_(policy) {}

  /// Stages everything that changed in `live` since the previous capture,
  /// plus the live per-transaction wait map.  Runs under the shard mutex;
  /// O(journal entries since last pass + active transactions) when the
  /// journal can answer, O(shard table) on the fallback sweep.  Nothing
  /// is sorted: each journal id costs one live lookup.  A live resource
  /// is staged once (the live ids are deduplicated in place); a resource
  /// gone from the live table is staged for erasure only if the mirror
  /// holds it, so one created and released between two passes, which
  /// never reached the mirror, is dropped.  No mirror state is modified —
  /// publication is split so the fold runs outside the lock.
  void Capture(const lock::LockManager& live);

  /// Folds the staged delta into the mirror: erases the staged gone
  /// entries (a repeated id once), copies each staged live state whose
  /// version stamp differs from the mirror's, adopts the wait map.  Runs
  /// WITHOUT the shard mutex; touches only detector-owned state.
  /// Returns what the publish changed.
  ShardCaptureStats Fold();

  /// The sealed mirror table.  Mutable access exists for the walk's
  /// TDR-2 repositioning (applied to the mirror first, validated against
  /// the live shard later).
  const lock::LockTable& table() const { return table_; }
  lock::LockTable& mutable_table() { return table_; }

  /// Mirror of LockManager::Info at the capture point: wait info of
  /// `tid`, or nullptr when the shard does not know the transaction.
  /// Only the wait fields (blocked_on, blocked_mode, wait_span,
  /// wait_started) are mirrored; `touched` is always empty — it can be
  /// as large as a transaction's whole lock footprint, the walk and
  /// post-mortems never read it, and staging it would break the
  /// O(delta) publish bound.
  const lock::TxnLockInfo* FindWaitInfo(lock::TransactionId tid) const;

 private:
  lock::LockTable table_;
  // Wait map mirror: (tid, info) ascending by tid.  A sorted vector
  // rather than a tree — Fold() adopts the staged sweep with one swap
  // (the retired buffer becomes next pass's staging capacity, so the
  // rebuild allocates nothing in steady state) and lookups binary-search.
  std::vector<std::pair<lock::TransactionId, lock::TxnLockInfo>> waits_;
  // Journal cursor into the live table (lock::LockTable::mutation_seq).
  uint64_t synced_seq_ = 0;
  // Journal cursor into the MIRROR's own table, taken at the end of
  // Fold().  Anything the mirror journals after that point is a
  // detect-phase mutation (a walk-applied TDR-2 repositioning).  If the
  // validated apply rejects that decision, the live shard never changes
  // — so the live journal will never re-dirty the resource — yet the
  // mirror now disagrees with it.  Capture() re-stages these resources
  // from live unconditionally; without this the mirror diverges forever
  // on a quiesced shard and every subsequent pass re-derives (and
  // re-rejects) resolutions from the corrupt mirror.
  uint64_t folded_seq_ = 0;

  // Staging area filled by Capture, consumed by Fold.  dirty_scratch_
  // holds the raw journal ids, then (in place) the distinct live ones.
  std::vector<lock::ResourceId> dirty_scratch_;
  bool staged_full_sweep_ = false;
  // staged_states_ keeps its elements alive across passes and tracks the
  // in-use prefix in staged_states_used_: reusing a ResourceState by
  // assignment reuses its holder/queue vector capacity, so steady-state
  // captures allocate nothing under the shard lock.
  std::vector<lock::ResourceState> staged_states_;
  size_t staged_states_used_ = 0;
  std::vector<lock::ResourceId> staged_erased_;  // may repeat an id
  std::vector<std::pair<lock::TransactionId, lock::TxnLockInfo>>
      staged_waits_;
};

/// core::ParallelWalkHost over a set of sealed shard mirrors: the Step
/// 1/2 walk of the pauseless pass reads (and TDR-2-mutates) the mirrors
/// only, never live shard state.  `shard_of` must be the owner's rid ->
/// shard routing (ConcurrentLockService::ShardIndex).
class SnapshotWalkHost final : public core::ParallelWalkHost {
 public:
  SnapshotWalkHost(std::vector<ShardSnapshot>& snapshots,
                   std::function<size_t(lock::ResourceId)> shard_of)
      : snapshots_(snapshots), shard_of_(std::move(shard_of)) {}

  const lock::ResourceState* FindResource(
      lock::ResourceId rid) const override {
    return snapshots_[shard_of_(rid)].table().Find(rid);
  }
  // Same preference rule as the live PassHost: a transaction can be known
  // to several shards; only the shard of the resource it is blocked on
  // carries blocked_on.
  const lock::TxnLockInfo* FindWaitInfo(
      lock::TransactionId tid) const override {
    const lock::TxnLockInfo* any = nullptr;
    for (const ShardSnapshot& snapshot : snapshots_) {
      const lock::TxnLockInfo* info = snapshot.FindWaitInfo(tid);
      if (info == nullptr) continue;
      if (info->blocked_on.has_value()) return info;
      if (any == nullptr) any = info;
    }
    return any;
  }
  Status ApplyTdr2Direct(lock::ResourceId rid,
                         lock::TransactionId junction) override;
  void NoteTdr2Applied(lock::ResourceId rid) override {
    snapshots_[shard_of_(rid)].mutable_table().NoteMutation(rid);
  }

 private:
  std::vector<ShardSnapshot>& snapshots_;
  std::function<size_t(lock::ResourceId)> shard_of_;
};

}  // namespace twbg::txn

#endif  // TWBG_TXN_EPOCH_SNAPSHOT_H_
