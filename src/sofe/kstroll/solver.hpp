#pragma once
// k-stroll solvers over a Procedure-1 metric instance.
//
// The k-stroll problem (Definition 2): find the cheapest walk from s to u
// visiting at least k distinct nodes.  In a metric instance an optimal
// solution is WLOG a simple path on exactly k nodes, so the solvers return an
// ordered selection of k distinct instance indices starting at the source
// and ending at the last VM.
//
// The paper invokes the 2-approximation of Chaudhuri et al. [29]; per
// DESIGN.md §3 we field a cheapest-insertion construction refined by
// 2-opt/or-opt/node-swap local search (the standard practical equivalent on
// metric instances — k = |C|+1 ≤ 8 in every experiment), plus an exact
// Held-Karp-style DP used as oracle and for small instances.

#include <optional>
#include <vector>

#include "sofe/kstroll/instance.hpp"

namespace sofe::kstroll {

/// Result: `order` holds instance indices, order.front() == 0 (the source),
/// order.back() == inst.last_index, all distinct, |order| == k.
struct Stroll {
  std::vector<std::size_t> order;
  Cost cost = graph::kInfiniteCost;

  bool feasible() const noexcept { return cost < graph::kInfiniteCost; }
};

enum class StrollAlgorithm {
  kCheapestInsertion,  // greedy insertion + local search (default)
  kExactDp,            // exact subset DP; see kMaxExactCandidates
};

/// exact_dp's limit on interior candidates (instance nodes other than the
/// source and the last VM), i.e. instances of at most 24 nodes: its table
/// grows as 2^c * c.
inline constexpr std::size_t kMaxExactCandidates = 22;

/// Solves for a stroll on exactly k distinct nodes (k >= 2).  Returns an
/// infeasible Stroll when the instance has fewer than k nodes, or fewer
/// than k at finite cost from the source and the last VM.  kExactDp throws
/// like exact_dp on instances past its limit.
Stroll solve_stroll(const StrollInstance& inst, int k,
                    StrollAlgorithm algo = StrollAlgorithm::kCheapestInsertion);

/// Exposed pieces for tests/ablation.  exact_dp throws
/// std::invalid_argument when k >= 3 and the instance has more than
/// kMaxExactCandidates interior candidates.
Stroll cheapest_insertion(const StrollInstance& inst, int k);
Stroll exact_dp(const StrollInstance& inst, int k);

/// In-place local search on a fixed-endpoint path: 2-opt segment reversal,
/// or-opt single-node relocation, and swap of a chosen interior node with an
/// unchosen instance node.  Never increases cost.
void improve_stroll(const StrollInstance& inst, Stroll& stroll);

}  // namespace sofe::kstroll
