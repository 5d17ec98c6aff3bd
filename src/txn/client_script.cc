// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "txn/client_script.h"

#include "common/string_util.h"

namespace twbg::txn {

namespace {

bool Terminated(TxnState state) {
  return state == TxnState::kCommitted || state == TxnState::kAborted;
}

}  // namespace

Result<lock::TransactionId> LockClientBackend::MapTxn(
    lock::TransactionId script_id) {
  auto it = txn_of_script_.find(script_id);
  if (it != txn_of_script_.end()) {
    Result<TxnState> state = client_->State(it->second);
    if (state.ok() && !Terminated(*state)) return it->second;
    // The previous incarnation was aborted (victim) or is otherwise
    // done; the raw back end lets the id re-register, so Begin anew.
    txn_of_script_.erase(it);
  }
  Result<lock::TransactionId> tid = client_->Begin();
  if (!tid.ok()) return tid;
  txn_of_script_[script_id] = *tid;
  return tid;
}

Result<lock::RequestOutcome> LockClientBackend::Acquire(
    lock::TransactionId txn, lock::ResourceId rid, lock::LockMode mode) {
  Result<lock::TransactionId> mapped = MapTxn(txn);
  if (!mapped.ok()) return mapped.status();
  return client_->Acquire(*mapped, rid, mode);
}

Result<std::optional<size_t>> LockClientBackend::Release(
    lock::TransactionId txn) {
  auto it = txn_of_script_.find(txn);
  if (it == txn_of_script_.end()) {
    return Status::NotFound(
        common::Format("T%u has no service transaction", txn));
  }
  // Strict-2PL release-everything == voluntary abort.  Tolerate a
  // transaction the detector already aborted: its locks are gone.
  Status released = client_->Abort(it->second);
  if (!released.ok() && !released.IsFailedPrecondition()) return released;
  txn_of_script_.erase(it);
  return std::optional<size_t>();
}

Status LockClientBackend::SetCost(lock::TransactionId txn, double cost) {
  Result<lock::TransactionId> mapped = MapTxn(txn);
  if (!mapped.ok()) return mapped.status();
  return client_->SetCost(*mapped, cost);
}

Result<std::string> LockClientBackend::Obs() {
  return Status::InvalidArgument(
      "'obs' is not available through a lock client (the event stream "
      "lives in the service process)");
}

Status LockClientBackend::Reset() {
  for (const auto& [script_id, tid] : txn_of_script_) {
    Status aborted = client_->Abort(tid);
    // Already-terminated transactions are fine; anything else is not.
    if (!aborted.ok() && !aborted.IsFailedPrecondition()) return aborted;
  }
  txn_of_script_.clear();
  return Status::OK();
}

Result<lock::TransactionId> LockClientBackend::TxnId(
    lock::TransactionId txn) {
  auto it = txn_of_script_.find(txn);
  if (it == txn_of_script_.end()) {
    return Status::InvalidArgument(
        common::Format("T%u has no service transaction to check", txn));
  }
  return it->second;
}

}  // namespace twbg::txn
