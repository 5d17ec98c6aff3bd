// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Victim-candidate enumeration and selection for a detected cycle (§4/§5).
//
// A cycle decomposes into TRRPs (Lemma 3: at least two).  The junctions —
// the tails of the cycle's H-labeled edges — are the TRRP boundaries:
//
//   * every junction is a TDR-1 (abort) candidate with cost Cost(T);
//   * a junction whose incoming cycle edge is W-labeled and whose blocked
//     mode is compatible with the total mode of the resource it queues on
//     is additionally a TDR-2 (reposition, no abort) candidate with cost
//     sum(Cost(ST)) / divisor.
//
// The minimum-cost candidate wins; ties prefer TDR-2 (nobody dies), then
// the higher junction id — both tie-breaks are ours (the paper only asks
// for minimal cost).  Transaction ids are issued in begin order, so the
// id tie-break aborts the youngest junction: the oldest transaction on a
// cycle of equal costs always survives, and a victim that retries comes
// back younger than every survivor.  Aborting the older junction instead
// livelocks periodic detection: a retry that queues within one period is
// granted the freed lock ahead of the survivor and re-forms the cycle with
// it, and the next tie aborts the survivor.

#ifndef TWBG_CORE_VICTIM_H_
#define TWBG_CORE_VICTIM_H_

#include <vector>

#include "core/cost_table.h"
#include "core/detector.h"
#include "core/ecr.h"
#include "core/twbg.h"
#include "lock/lock_table.h"

namespace twbg::core {

/// A cycle as (vertex, outgoing cycle edge) pairs: view[i].out leads to
/// view[(i+1) % n].node.  The incoming edge of view[i] is
/// view[(i-1+n) % n].out.
struct CycleEdgeView {
  lock::TransactionId node = lock::kInvalidTransaction;
  TwbgEdge out;
};

/// Enumerates every victim candidate of the cycle, in junction order along
/// the walk.  `resources` is consulted live for the TDR-2 AV/ST split.
std::vector<VictimCandidate> EnumerateCandidates(
    const std::vector<CycleEdgeView>& cycle, const ResourceLookup& resources,
    const CostTable& costs, const DetectorOptions& options);

/// Convenience overload looking resources up in a single lock table.
std::vector<VictimCandidate> EnumerateCandidates(
    const std::vector<CycleEdgeView>& cycle, const lock::LockTable& table,
    const CostTable& costs, const DetectorOptions& options);

/// Convenience overload resolving edges through an HwTwbg snapshot; errors
/// if `cycle` is not a cycle of `graph`.
Result<std::vector<VictimCandidate>> EnumerateCandidates(
    const HwTwbg& graph, const std::vector<lock::TransactionId>& cycle,
    const lock::LockTable& table, const CostTable& costs,
    const DetectorOptions& options);

/// Index of the winning candidate (minimum cost; ties prefer kReposition,
/// then the higher, younger junction id).  Requires a non-empty candidate
/// list.
size_t SelectVictim(const std::vector<VictimCandidate>& candidates);

}  // namespace twbg::core

#endif  // TWBG_CORE_VICTIM_H_
