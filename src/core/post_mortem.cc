// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/post_mortem.h"

#include <algorithm>

#include "common/string_util.h"

namespace twbg::core {

std::string PostMortemMember::ToString() const {
  std::string out = edge.ToString();
  if (blocked_on.has_value()) {
    out += common::Format(" [blocked %s on R%u, span=%llu, queued=%llut]",
                          std::string(lock::ToString(blocked_mode)).c_str(),
                          *blocked_on,
                          static_cast<unsigned long long>(wait_span),
                          static_cast<unsigned long long>(time_in_queue));
  } else {
    out += " [holder]";
  }
  return out;
}

std::string CyclePostMortem::ToString() const {
  std::string out = common::Format(
      "post-mortem @t=%llu: %zu-cycle resolved by %s at junction T%u "
      "(cost %.2f)\n",
      static_cast<unsigned long long>(time), members.size(),
      rule == VictimKind::kReposition ? "TDR-2" : "TDR-1", junction, cost);
  if (rule == VictimKind::kReposition) {
    out += common::Format("  repositioned queue: R%u\n", resource);
  }
  out += "  wait chain:\n";
  for (const PostMortemMember& member : members) {
    out += "    ";
    out += member.ToString();
    out += "\n";
  }
  out += "  candidates: ";
  out += rationale;
  out += "\n";
  if (!queue_snapshots.empty()) {
    out += "  queues after resolution:\n";
    for (const std::string& snapshot : queue_snapshots) {
      out += "    ";
      out += snapshot;
      out += "\n";
    }
  }
  return out;
}

std::string CyclePostMortem::Summary() const {
  std::vector<std::string> chain;
  for (const PostMortemMember& member : members) {
    chain.push_back(common::Format(
        "T%u(span=%llu,queued=%llut)", member.tid,
        static_cast<unsigned long long>(member.wait_span),
        static_cast<unsigned long long>(member.time_in_queue)));
  }
  std::string out = common::Format(
      "%s at T%u: chain %s; ",
      rule == VictimKind::kReposition ? "TDR-2" : "TDR-1", junction,
      common::Join(chain, " -> ").c_str());
  out += rationale;
  return out;
}

namespace {

// Adapt a LockManager to the lookup pair the generalized overload takes.
class ManagerLookup final : public ResourceLookup, public WaitInfoLookup {
 public:
  explicit ManagerLookup(const lock::LockManager& manager)
      : manager_(manager) {}
  const lock::ResourceState* FindResource(
      lock::ResourceId rid) const override {
    return manager_.table().Find(rid);
  }
  const lock::TxnLockInfo* FindWaitInfo(
      lock::TransactionId tid) const override {
    return manager_.Info(tid);
  }

 private:
  const lock::LockManager& manager_;
};

}  // namespace

CyclePostMortem BuildPostMortem(
    const std::vector<CycleEdgeView>& views,
    const std::vector<VictimCandidate>& candidates, size_t chosen,
    const lock::LockManager& manager, uint64_t now) {
  ManagerLookup lookup(manager);
  return BuildPostMortem(views, candidates, chosen, lookup, lookup, now);
}

CyclePostMortem BuildPostMortem(
    const std::vector<CycleEdgeView>& views,
    const std::vector<VictimCandidate>& candidates, size_t chosen,
    const ResourceLookup& resources, const WaitInfoLookup& waits,
    uint64_t now) {
  CyclePostMortem pm;
  pm.time = now;
  const VictimCandidate& victim = candidates[chosen];
  pm.rule = victim.kind;
  pm.junction = victim.junction;
  pm.resource =
      victim.kind == VictimKind::kReposition ? victim.resource : 0;
  pm.cost = victim.cost;

  std::vector<std::string> parts;
  for (size_t i = 0; i < candidates.size(); ++i) {
    std::string c = candidates[i].ToString();
    if (i == chosen) c = "[" + c + "]";
    parts.push_back(std::move(c));
  }
  pm.rationale = common::Join(parts, "; ");

  pm.members.reserve(views.size());
  for (const CycleEdgeView& view : views) {
    PostMortemMember member;
    member.tid = view.node;
    member.edge = view.out;
    const lock::TxnLockInfo* info = waits.FindWaitInfo(view.node);
    if (info != nullptr && info->blocked_on.has_value()) {
      member.blocked_on = info->blocked_on;
      member.blocked_mode = info->blocked_mode;
      member.wait_span = info->wait_span;
      member.time_in_queue =
          now >= info->wait_started ? now - info->wait_started : 0;
    }
    pm.members.push_back(std::move(member));
  }

  // Snapshot each distinct resource along the cycle, in edge order.
  std::vector<lock::ResourceId> seen;
  for (const CycleEdgeView& view : views) {
    const lock::ResourceId rid = view.out.rid;
    if (std::find(seen.begin(), seen.end(), rid) != seen.end()) continue;
    seen.push_back(rid);
    const lock::ResourceState* state = resources.FindResource(rid);
    if (state != nullptr) pm.queue_snapshots.push_back(state->ToString());
  }
  return pm;
}

}  // namespace twbg::core
