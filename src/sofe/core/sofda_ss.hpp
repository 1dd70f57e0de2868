#pragma once
// SOFDA-SS (Algorithm 1): the (2+ρST)-approximation for the single-source
// Service Overlay Forest problem (Section IV).
//
// For every candidate last VM u, phase 1 finds a minimum-cost service chain
// from the source to u (Procedure 2 / k-stroll), and phase 2 appends a
// Steiner tree rooted at u spanning all destinations.  The cheapest of the
// |M| candidate forests is returned.

#include <cassert>

#include "sofe/core/chain_walk.hpp"
#include "sofe/core/forest.hpp"

namespace sofe::core {

/// Runs SOFDA-SS from the given source.  Requires p.well_formed(), the
/// source and destinations connected, and at least |C| VMs reachable.
/// Returns an empty forest when no destination exists.
ServiceForest sofda_ss(const Problem& p, NodeId source, const AlgoOptions& opt = {});

/// Same algorithm against a caller-owned metric closure holding trees for
/// `source` and every VM (the api::Solver session path — a persistent
/// session reuses the closure's workspaces across solves).  Shortening
/// reads the closure's rows toward the destinations too; a complete
/// closure meets shorten_pass_through's precondition.
ServiceForest sofda_ss(const Problem& p, NodeId source, const graph::MetricClosure& closure,
                       const AlgoOptions& opt = {});

/// Convenience overload: uses p.sources.front() (the single-source setting).
inline ServiceForest sofda_ss(const Problem& p, const AlgoOptions& opt = {}) {
  assert(!p.sources.empty());
  return sofda_ss(p, p.sources.front(), opt);
}

}  // namespace sofe::core
