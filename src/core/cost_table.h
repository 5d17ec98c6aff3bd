// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Per-transaction abort costs used by victim selection (§5).  The paper
// leaves the metric open ("number of locks it holds, starting time, CPU
// and I/O time consumed, ...") and assumes a cost-table Cost(Ti); this is
// that table.  The simulator wires lock counts / work done into it.

#ifndef TWBG_CORE_COST_TABLE_H_
#define TWBG_CORE_COST_TABLE_H_

#include <map>

#include "common/status.h"
#include "lock/types.h"

namespace twbg::core {

/// Maps transactions to abort costs.  Unknown transactions default to 1.
class CostTable {
 public:
  CostTable() = default;

  /// Cost of aborting `tid` (default 1.0 when unset).
  double Get(lock::TransactionId tid) const;

  void Set(lock::TransactionId tid, double cost);

  /// cost := cost * multiplier + increment.  Used on ST members after a
  /// TDR-2 repositioning so repeatedly delayed transactions become
  /// expensive to delay again (livelock avoidance, §5 Step 2).
  void Bump(lock::TransactionId tid, double multiplier, double increment);

  /// Forgets `tid` (on commit/abort).
  void Erase(lock::TransactionId tid);

  size_t size() const { return costs_.size(); }

  /// Ordered view of every explicitly set entry.  The component-parallel
  /// walk hands each component a private copy and merges the entries of
  /// that component's members back through this view.
  const std::map<lock::TransactionId, double>& entries() const {
    return costs_;
  }

 private:
  std::map<lock::TransactionId, double> costs_;
};

/// InvalidArgument unless `cost` is finite and non-negative.  Victim
/// selection sorts and compares costs, which needs a strict weak order
/// (a NaN breaks it); every cost set from outside the program is checked
/// here first.
Status CheckAbortCost(double cost);

}  // namespace twbg::core

#endif  // TWBG_CORE_COST_TABLE_H_
