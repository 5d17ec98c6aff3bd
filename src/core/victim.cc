// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/victim.h"

#include "common/string_util.h"

namespace twbg::core {

std::string VictimCandidate::ToString() const {
  if (kind == VictimKind::kAbort) {
    return common::Format("abort T%u (cost %.2f)", junction, cost);
  }
  std::vector<std::string> st_names;
  for (lock::TransactionId tid : st) {
    st_names.push_back(common::Format("T%u", tid));
  }
  return common::Format("reposition {%s} on R%u at junction T%u (cost %.2f)",
                        common::Join(st_names, ", ").c_str(), resource,
                        junction, cost);
}

std::string VictimDecision::ToString() const {
  std::vector<std::string> cycle_names;
  for (lock::TransactionId tid : cycle) {
    cycle_names.push_back(common::Format("T%u", tid));
  }
  std::string out = common::Format(
      "cycle {%s}: ", common::Join(cycle_names, ", ").c_str());
  std::vector<std::string> parts;
  for (size_t i = 0; i < candidates.size(); ++i) {
    std::string c = candidates[i].ToString();
    if (i == chosen) c = "[" + c + "]";
    parts.push_back(std::move(c));
  }
  out += common::Join(parts, "; ");
  return out;
}

namespace {

// Adapts a single LockTable to the ResourceLookup interface.
class TableLookup final : public ResourceLookup {
 public:
  explicit TableLookup(const lock::LockTable& table) : table_(table) {}
  const lock::ResourceState* FindResource(
      lock::ResourceId rid) const override {
    return table_.Find(rid);
  }

 private:
  const lock::LockTable& table_;
};

}  // namespace

std::vector<VictimCandidate> EnumerateCandidates(
    const std::vector<CycleEdgeView>& cycle, const ResourceLookup& resources,
    const CostTable& costs, const DetectorOptions& options) {
  std::vector<VictimCandidate> candidates;
  const size_t n = cycle.size();
  for (size_t i = 0; i < n; ++i) {
    const TwbgEdge& out = cycle[i].out;
    if (!out.IsH()) continue;  // junctions are H-edge tails
    const lock::TransactionId junction = cycle[i].node;

    VictimCandidate abort;
    abort.kind = VictimKind::kAbort;
    abort.junction = junction;
    abort.cost = costs.Get(junction);
    candidates.push_back(std::move(abort));

    if (!options.enable_tdr2) continue;
    const TwbgEdge& in = cycle[(i + n - 1) % n].out;
    if (!in.IsW()) continue;  // TDR-2 needs a W-labeled incoming edge
    const lock::ResourceState* state = resources.FindResource(in.rid);
    if (state == nullptr) continue;
    Result<lock::ResourceState::AvSt> split = state->ComputeAvSt(junction);
    if (!split.ok() || split->st.empty()) continue;

    VictimCandidate repos;
    repos.kind = VictimKind::kReposition;
    repos.junction = junction;
    repos.resource = in.rid;
    double total = 0.0;
    for (const lock::QueueEntry& q : split->st) {
      repos.st.push_back(q.tid);
      total += costs.Get(q.tid);
    }
    for (const lock::QueueEntry& q : split->av) repos.av.push_back(q.tid);
    repos.cost = total / options.tdr2_cost_divisor;
    candidates.push_back(std::move(repos));
  }
  return candidates;
}

std::vector<VictimCandidate> EnumerateCandidates(
    const std::vector<CycleEdgeView>& cycle, const lock::LockTable& table,
    const CostTable& costs, const DetectorOptions& options) {
  return EnumerateCandidates(cycle, TableLookup(table), costs, options);
}

Result<std::vector<VictimCandidate>> EnumerateCandidates(
    const HwTwbg& graph, const std::vector<lock::TransactionId>& cycle,
    const lock::LockTable& table, const CostTable& costs,
    const DetectorOptions& options) {
  std::vector<CycleEdgeView> views;
  const size_t n = cycle.size();
  for (size_t i = 0; i < n; ++i) {
    const TwbgEdge* e = graph.FindEdge(cycle[i], cycle[(i + 1) % n]);
    if (e == nullptr) {
      return Status::InvalidArgument(common::Format(
          "no edge T%u -> T%u", cycle[i], cycle[(i + 1) % n]));
    }
    views.push_back(CycleEdgeView{cycle[i], *e});
  }
  return EnumerateCandidates(views, table, costs, options);
}

size_t SelectVictim(const std::vector<VictimCandidate>& candidates) {
  TWBG_CHECK(!candidates.empty());
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    const VictimCandidate& a = candidates[i];
    const VictimCandidate& b = candidates[best];
    if (a.cost < b.cost) {
      best = i;
      continue;
    }
    if (a.cost > b.cost) continue;
    // Tie: prefer repositioning (no abort), then the younger junction.
    const bool a_repos = a.kind == VictimKind::kReposition;
    const bool b_repos = b.kind == VictimKind::kReposition;
    if (a_repos != b_repos) {
      if (a_repos) best = i;
      continue;
    }
    if (a.junction > b.junction) best = i;
  }
  return best;
}

}  // namespace twbg::core
