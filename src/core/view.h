// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// The diagnostic views of one lock table — the text a scenario script's
// `table`, `graph`, `dot`, `tst`, `cycles`, `oracle` and `costs` commands
// print.  Written once here: the raw script back end renders its own
// LockManager, and txn::ConcurrentLockService::RenderView renders its
// shards, so both print the same formats.

#ifndef TWBG_CORE_VIEW_H_
#define TWBG_CORE_VIEW_H_

#include <string>
#include <vector>

#include "core/cost_table.h"
#include "lock/lock_manager.h"

namespace twbg::core {

/// A read-only rendering of lock state (public name: twbg::ServiceView).
enum class View {
  /// The lock table.
  kTable,
  /// H/W-TWBG adjacency-list rendering.
  kGraph,
  /// H/W-TWBG in Graphviz dot syntax.
  kDot,
  /// Transaction Steps Table.
  kTst,
  /// Elementary cycles, one `cycle {...}` line each.
  kCycles,
  /// Reduction-oracle verdict: `deadlocked=... stuck={...}`.
  kOracle,
  /// Per-transaction abort costs, one `T<id>: <cost>` line per
  /// transaction known to the manager.
  kCosts,
};

/// "T1, T2, T3": how views and scripts list transactions.
std::string TxnList(const std::vector<lock::TransactionId>& tids);

/// Renders `view` of `manager`'s table, pricing transactions by `costs`.
std::string RenderView(View view, const lock::LockManager& manager,
                       const CostTable& costs);

}  // namespace twbg::core

#endif  // TWBG_CORE_VIEW_H_
