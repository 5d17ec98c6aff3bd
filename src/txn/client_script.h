// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// The scenario-script back end over a LockClient: core::ScriptRunner (see
// core/script.h for the grammar) drives every operation through the
// abstract client surface — so one script drives an in-process service
// (InProcessClient) or a live twbg-serverd daemon (net::TcpClient)
// unchanged.  The differential test in tests/client_script_test.cc runs
// every scenarios/*.twbg file both ways and asserts byte-identical output.
//
// Semantics vs the raw back end (divergences are inherent to driving a
// *transactional service* instead of a raw lock manager):
//
//   * Script transaction ids are session-local names: the first use of
//     an id Begins a service transaction and the back end keeps the
//     script-id -> service-tid mapping.  Detect reports and views
//     therefore print *service* ids (identical across client kinds,
//     since Begin order matches).
//   * `acquire` for an id whose service transaction has terminated
//     (earlier victim abort or release) Begins a fresh transaction —
//     matching the raw back end, where an aborted id could simply
//     re-register with the manager.
//   * `release` maps to Abort (strict-2PL release-everything) and does
//     not report a granted-waiters count (that is service-internal).
//   * `obs` is unavailable: the event stream lives server-side.
//   * `reset` aborts every live script transaction; service ids are not
//     reused afterwards.

#ifndef TWBG_TXN_CLIENT_SCRIPT_H_
#define TWBG_TXN_CLIENT_SCRIPT_H_

#include <map>
#include <optional>
#include <string>

#include "core/script.h"
#include "txn/lock_client.h"

namespace twbg::txn {

/// core::ScriptBackend over a LockClient.  Not thread-safe (like the
/// client it drives).
class LockClientBackend final : public core::ScriptBackend {
 public:
  /// Runs against `client` (not owned; must outlive the back end).
  explicit LockClientBackend(LockClient* client) : client_(client) {}

  Result<lock::RequestOutcome> Acquire(lock::TransactionId txn,
                                       lock::ResourceId rid,
                                       lock::LockMode mode) override;
  Result<std::optional<size_t>> Release(lock::TransactionId txn) override;
  Status SetCost(lock::TransactionId txn, double cost) override;
  Result<DetectResult> Detect() override { return client_->Detect(); }
  Result<std::string> Render(core::View view) override {
    return client_->View(view);
  }
  Result<bool> HasDeadlock() override { return client_->HasDeadlock(); }
  Result<std::string> Obs() override;
  Status Reset() override;
  Result<lock::TransactionId> TxnId(lock::TransactionId txn) override;

 private:
  /// The service transaction for a script id, Beginning one on first use
  /// (or when the previous one terminated).
  Result<lock::TransactionId> MapTxn(lock::TransactionId script_id);

  LockClient* client_;
  std::map<lock::TransactionId, lock::TransactionId> txn_of_script_;
};

}  // namespace twbg::txn

#endif  // TWBG_TXN_CLIENT_SCRIPT_H_
