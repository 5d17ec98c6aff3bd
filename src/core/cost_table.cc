// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/cost_table.h"

#include <cmath>

#include "common/string_util.h"

namespace twbg::core {

double CostTable::Get(lock::TransactionId tid) const {
  auto it = costs_.find(tid);
  return it == costs_.end() ? 1.0 : it->second;
}

void CostTable::Set(lock::TransactionId tid, double cost) {
  costs_[tid] = cost;
}

void CostTable::Bump(lock::TransactionId tid, double multiplier,
                     double increment) {
  costs_[tid] = Get(tid) * multiplier + increment;
}

void CostTable::Erase(lock::TransactionId tid) { costs_.erase(tid); }

Status CheckAbortCost(double cost) {
  if (!std::isfinite(cost) || cost < 0.0) {
    return Status::InvalidArgument(common::Format(
        "abort cost must be finite and non-negative, got %g", cost));
  }
  return Status::OK();
}

}  // namespace twbg::core
