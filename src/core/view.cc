// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/view.h"

#include "common/string_util.h"
#include "core/oracle.h"
#include "core/tst.h"
#include "core/twbg.h"

namespace twbg::core {

std::string TxnList(const std::vector<lock::TransactionId>& tids) {
  std::vector<std::string> names;
  for (lock::TransactionId tid : tids) {
    names.push_back(common::Format("T%u", tid));
  }
  return common::Join(names, ", ");
}

std::string RenderView(View view, const lock::LockManager& manager,
                       const CostTable& costs) {
  const lock::LockTable& table = manager.table();
  std::string out;
  switch (view) {
    case View::kTable:
      return table.ToString();
    case View::kGraph:
      return HwTwbg::Build(table).ToString();
    case View::kDot:
      return HwTwbg::Build(table).ToDot();
    case View::kTst:
      return Tst::Build(table).ToString();
    case View::kCycles:
      for (const auto& cycle : HwTwbg::Build(table).ElementaryCycles()) {
        out += common::Format("cycle {%s}\n", TxnList(cycle).c_str());
      }
      return out;
    case View::kOracle: {
      OracleResult oracle = AnalyzeByReduction(table);
      return common::Format("deadlocked=%s stuck={%s}\n",
                            oracle.deadlocked ? "yes" : "no",
                            TxnList(oracle.stuck).c_str());
    }
    case View::kCosts:
      for (lock::TransactionId tid : manager.KnownTransactions()) {
        out += common::Format("T%u: %.2f\n", tid, costs.Get(tid));
      }
      return out;
  }
  return out;
}

}  // namespace twbg::core
