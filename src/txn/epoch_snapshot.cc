// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "txn/epoch_snapshot.h"

#include <algorithm>

#include "common/string_util.h"

namespace twbg::txn {

namespace {

// Drops repeated ids from `ids`, keeping each first occurrence in place
// and in order.  The open-addressing set that remembers the ids seen so
// far lives in the vector's own tail (at most half full), so this needs
// neither a sort nor a second buffer; the tail is cut off again before
// returning.
void DedupeKeepingOrder(std::vector<lock::ResourceId>& ids) {
  const size_t n = ids.size();
  if (n < 2) return;
  constexpr lock::ResourceId kEmpty = ~lock::ResourceId{0};
  int bits = 3;
  while ((size_t{1} << bits) < 2 * n) ++bits;
  const size_t mask = (size_t{1} << bits) - 1;
  ids.resize(n + mask + 1, kEmpty);
  lock::ResourceId* slots = ids.data() + n;
  bool seen_empty_id = false;  // kEmpty itself is a valid resource id
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const lock::ResourceId rid = ids[i];
    bool fresh = false;
    if (rid == kEmpty) {
      fresh = !seen_empty_id;
      seen_empty_id = true;
    } else {
      size_t slot = static_cast<size_t>((rid * 0x9E3779B9u) >> (32 - bits));
      while (slots[slot] != kEmpty && slots[slot] != rid) {
        slot = (slot + 1) & mask;
      }
      fresh = slots[slot] == kEmpty;
      slots[slot] = rid;
    }
    if (fresh) ids[out++] = rid;
  }
  ids.resize(out);
}

}  // namespace

void ShardSnapshot::Capture(const lock::LockManager& live) {
  const lock::LockTable& lt = live.table();
  dirty_scratch_.clear();
  // staged_states_ elements are reused by assignment (not cleared): a
  // ResourceState owns holder/queue vectors, and keeping the elements
  // alive keeps their capacity, so a steady-state capture allocates
  // nothing under the shard lock.
  staged_states_used_ = 0;
  staged_erased_.clear();
  staged_waits_.clear();

  // Two dirty sources: the live journal (client mutations since the last
  // capture) and the mirror's own journal since the last fold (walk
  // TDR-2s whose validated apply may have been rejected — live will
  // never re-dirty those, so the mirror must re-stage them from live or
  // it diverges permanently; see folded_seq_).
  const bool journals_answered =
      lt.DirtySince(synced_seq_, &dirty_scratch_) &&
      table_.DirtySince(folded_seq_, &dirty_scratch_);
  staged_full_sweep_ = !journals_answered;
  if (!journals_answered) {
    // The journal fell behind (or this is the first capture of a table
    // that already trimmed): sweep both sides, keyed on version stamps —
    // equal versions guarantee identical content (lock/resource_state.h).
    dirty_scratch_.clear();
    for (const auto& [rid, state] : lt) {
      const lock::ResourceState* mine = table_.Find(rid);
      if (mine == nullptr || mine->version() != state.version()) {
        dirty_scratch_.push_back(rid);
      }
    }
    for (const auto& [rid, state] : table_) {
      if (lt.Find(rid) == nullptr) dirty_scratch_.push_back(rid);
    }
  }
  synced_seq_ = lt.mutation_seq();

  // One live lookup per journal id.  Live ids move to the front of
  // dirty_scratch_; a gone id is staged for erasure only if the mirror
  // holds it (the mirror is detector-owned, so reading it needs no
  // lock).  In a churning shard most of the journal is resources created
  // and released between two passes, which never reached the mirror and
  // are dropped here.  Repeated erasures are left for Fold.
  size_t live_hits = 0;
  for (const lock::ResourceId rid : dirty_scratch_) {
    if (lt.Find(rid) != nullptr) {
      dirty_scratch_[live_hits++] = rid;
    } else if (table_.Find(rid) != nullptr) {
      staged_erased_.push_back(rid);
    }
  }
  dirty_scratch_.resize(live_hits);
  DedupeKeepingOrder(dirty_scratch_);
  for (const lock::ResourceId rid : dirty_scratch_) {
    // Copy-assignment keeps the live version stamp (resource_state.h).
    const lock::ResourceState& theirs = *lt.Find(rid);
    if (staged_states_used_ < staged_states_.size()) {
      staged_states_[staged_states_used_] = theirs;
    } else {
      staged_states_.push_back(theirs);
    }
    ++staged_states_used_;
  }

  // Stage the live per-transaction wait map wholesale — one ordered sweep
  // over O(active transactions), which is workload-bound, never
  // table-bound.  Only the wait fields are copied: `touched` is as large
  // as a transaction's lock footprint (a long-lived reader can hold the
  // whole shard), and nothing downstream of the sealed mirror reads it —
  // the walk wants blocked_on/blocked_mode, post-mortems want the wait
  // clocks.
  for (const auto& [tid, info] : live.txn_infos()) {
    lock::TxnLockInfo slim;
    slim.blocked_on = info.blocked_on;
    slim.blocked_mode = info.blocked_mode;
    slim.wait_span = info.wait_span;
    slim.wait_started = info.wait_started;
    staged_waits_.emplace_back(tid, std::move(slim));
  }
}

ShardCaptureStats ShardSnapshot::Fold() {
  ShardCaptureStats stats;
  stats.full_sweep = staged_full_sweep_;
  for (const lock::ResourceId rid : staged_erased_) {
    if (table_.Find(rid) == nullptr) continue;  // a repeat, already erased
    // Reset to a free state (journaling the mutation for the detector's
    // incremental graph cache), then let the table reclaim the entry —
    // the same end state a live release leaves behind.
    table_.GetOrCreate(rid).Reset(rid, table_.policy());
    table_.EraseIfFree(rid);
    ++stats.dirty;
  }
  for (size_t i = 0; i < staged_states_used_; ++i) {
    // Equal stamps mean identical content, so an unchanged entry (the
    // journal marks conservatively) is left alone, unjournaled.
    // Otherwise GetOrCreate journals the mutation and copy-assignment
    // preserves the live stamp, so the mirror is stamp-for-stamp the live
    // shard as of the capture point.
    const lock::ResourceState& state = staged_states_[i];
    const lock::ResourceState* mine = table_.Find(state.rid());
    if (mine != nullptr && mine->version() == state.version()) continue;
    table_.GetOrCreate(state.rid()) = state;
    ++stats.dirty;
  }
  // The staged wait map is the whole live map at the capture point, so
  // the mirror is rebuilt rather than patched — a departed transaction
  // simply no longer appears.  Staging is in ascending id order (the
  // txn_infos view), so one swap adopts it sorted; the retired buffer
  // becomes next pass's staging capacity.
  waits_.swap(staged_waits_);
  staged_states_used_ = 0;  // elements stay alive for capacity reuse
  staged_erased_.clear();
  staged_waits_.clear();
  // Everything journaled in the mirror past this point is a detect-phase
  // mutation that the next Capture must re-stage from live.
  folded_seq_ = table_.mutation_seq();
  return stats;
}

const lock::TxnLockInfo* ShardSnapshot::FindWaitInfo(
    lock::TransactionId tid) const {
  auto it = std::lower_bound(
      waits_.begin(), waits_.end(), tid,
      [](const auto& entry, lock::TransactionId t) { return entry.first < t; });
  return it == waits_.end() || it->first != tid ? nullptr : &it->second;
}

Status SnapshotWalkHost::ApplyTdr2Direct(lock::ResourceId rid,
                                         lock::TransactionId junction) {
  lock::ResourceState* state =
      snapshots_[shard_of_(rid)].mutable_table().FindMutableDeferred(rid);
  if (state == nullptr) {
    return Status::NotFound(common::Format("R%u is not locked", rid));
  }
  return state->ApplyTdr2(junction);
}

}  // namespace twbg::txn
