// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "txn/lock_client.h"

namespace twbg::txn {

Result<std::unique_ptr<InProcessClient>> InProcessClient::Create(
    ConcurrentLockService* service) {
  if (service == nullptr) {
    return Status::InvalidArgument("service must not be null");
  }
  return std::unique_ptr<InProcessClient>(new InProcessClient(service));
}

Result<lock::TransactionId> InProcessClient::Begin() {
  return service_->Begin();
}

Result<lock::RequestOutcome> InProcessClient::Acquire(lock::TransactionId tid,
                                                      lock::ResourceId rid,
                                                      lock::LockMode mode) {
  return service_->AcquireAsync(tid, rid, mode);
}

Status InProcessClient::Await(lock::TransactionId tid) {
  return service_->Await(tid);
}

Status InProcessClient::Commit(lock::TransactionId tid) {
  return service_->Commit(tid);
}

Status InProcessClient::Abort(lock::TransactionId tid) {
  return service_->Abort(tid);
}

Result<TxnState> InProcessClient::State(lock::TransactionId tid) {
  return service_->State(tid);
}

Status InProcessClient::SetCost(lock::TransactionId tid, double cost) {
  return service_->SetCost(tid, cost);
}

Result<DetectResult> InProcessClient::Detect() {
  return core::ProjectReport(service_->RunDetectionPass());
}

Result<bool> InProcessClient::HasDeadlock() { return service_->HasDeadlock(); }

Result<std::string> InProcessClient::View(ServiceView view) {
  return service_->RenderView(view);
}

Result<ClientStats> InProcessClient::Stats() {
  ClientStats stats;
  stats.live_txns = service_->live_transactions();
  stats.deadlock_victims = service_->deadlock_victims();
  stats.snapshot_epoch = service_->snapshot_epoch();
  stats.num_shards = service_->num_shards();
  stats.admission_rejects = service_->admission_rejects();
  stats.resolutions_rejected = service_->resolutions_rejected();
  return stats;
}

}  // namespace twbg::txn
