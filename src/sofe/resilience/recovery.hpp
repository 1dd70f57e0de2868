#pragma once
// Budget-bounded survivable re-embedding (DESIGN.md §12).
//
// When a failure batch drives links to kInfiniteCost, every embedded
// service forest whose charges cross a dead link is broken.  recover_request
// produces the replacement embedding for one such request, composing the
// machinery earlier PRs built for exactly this moment:
//
//   repair    — DynamicForest::reroute_link splices every walk segment that
//               crosses a dead link onto the cheapest surviving path (the
//               §8 engine repairs the forest's cached shortest-path trees
//               in place under the same +inf deltas).  Free: no user moves.
//   re-home   — destinations whose walk has no surviving path (source site
//               died, component split) leave their tree and re-attach via
//               DynamicForest::destination_join, each consuming one unit of
//               the migration budget.
//   escalate  — a from-scratch re-embed of the whole request at the current
//               epoch prices (the scratch embedder — the same solver
//               session that admits arrivals), adopted when the budget or
//               connectivity forces it, or when the budget admits it and
//               the objective cost + migration_cost_weight · moved favors
//               it.  An unbounded budget adopts it outright whenever
//               feasible, making the unbounded drill bitwise the
//               from-scratch reference.
//
// The layer sits between core and online: it consumes Problem/ServiceForest
// and an opaque embed callback, so the online stream can drive it without
// the api layer and the api pipeline can hand it a Solver session.

#include <functional>

#include "sofe/core/chain_walk.hpp"
#include "sofe/core/forest.hpp"
#include "sofe/resilience/failure_plan.hpp"

namespace sofe::resilience {

/// The from-scratch re-embedder: problem in, forest out (empty = infeasible).
/// The online drivers install a solver session's solve() here
/// (online::ArrivalStream::set_recovery_embedder).
using EmbedFn = std::function<core::ServiceForest(const core::Problem&)>;

/// What recover_request decided for one affected request.  Costs are
/// total_cost at the prices of `staged` (the epoch snapshot); +inf marks an
/// infeasible candidate.
struct RecoveryOutcome {
  core::ServiceForest forest;  // the adopted embedding (empty = all lost)
  int rerouted_segments = 0;   // repair-phase splices (free)
  int moved_users = 0;         // re-homed destinations, or all on escalation
  int dropped_users = 0;       // destinations no admissible recovery served
  bool escalated = false;      // the from-scratch candidate was adopted
  Cost repaired_cost = graph::kInfiniteCost;
  Cost scratch_cost = graph::kInfiniteCost;
  Cost chosen_cost = graph::kInfiniteCost;
};

/// Recovers one request.  `staged` is the persistent master Problem at the
/// current epoch snapshot — dead links already at kInfiniteCost, sources and
/// destinations staged to the affected request — and `broken` is the
/// embedding admitted for it.  Deterministic in its arguments (both
/// candidates are always computed, so the quality delta the drill reports
/// never depends on which one wins); `opt` tunes the repair candidate's
/// k-stroll/Steiner choices exactly as core::AlgoOptions does elsewhere.
RecoveryOutcome recover_request(const core::Problem& staged, const core::ServiceForest& broken,
                                const RecoveryBudget& budget, const EmbedFn& scratch,
                                const core::AlgoOptions& opt = {});

}  // namespace sofe::resilience
