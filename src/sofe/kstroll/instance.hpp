#pragma once
// Procedure 1 of the paper: construction of the k-stroll metric instance.
//
// Given network G, source s, VM set M and a designated last VM u, the
// instance is the complete graph over V = M ∪ {s} whose edge costs embed both
// shortest-path connection costs and *shared* VM setup costs:
//
//   c(v1, v2) = d_G(v1, v2) + (c(u) + c(v2))/2          if v1 = s
//               d_G(v1, v2) + (c(v1) + c(u))/2          if v2 = s
//               d_G(v1, v2) + (c(v1) + c(v2))/2         otherwise
//
// so that the cost of any simple s→u path visiting nodes s=u1,…,uk=u in the
// instance telescopes to  Σ setup(u2..uk) + Σ d_G(uj, uj+1)  — exactly the
// setup + connection cost of the corresponding service-chain walk in G
// (Section IV, "first characteristic").  Appendix D extends the sharing rule
// when the source itself carries a setup cost c(s).
//
// Lemma 1: these edge costs satisfy the triangle inequality (tested).

#include <cassert>
#include <vector>

#include "sofe/graph/graph.hpp"
#include "sofe/graph/metric_closure.hpp"

namespace sofe::kstroll {

using graph::Cost;
using graph::Graph;
using graph::MetricClosure;
using graph::NodeId;

/// Dense metric k-stroll instance ("G-cal" in the paper).
struct StrollInstance {
  NodeId source = graph::kInvalidNode;   // s in G
  NodeId last_vm = graph::kInvalidNode;  // u in G
  std::vector<NodeId> nodes;             // instance nodes; nodes[0] == s
  std::size_t last_index = 0;            // index of u in `nodes`
  std::vector<Cost> cost;                // dense symmetric matrix, row-major
                                         // size() x size()

  std::size_t size() const noexcept { return nodes.size(); }

  Cost edge_cost(std::size_t a, std::size_t b) const {
    assert(a < size() && b < size());
    return cost[a * size() + b];
  }

  /// Cost of a simple path through instance indices (diagnostics/tests).
  Cost path_cost(const std::vector<std::size_t>& order) const {
    Cost sum = 0.0;
    for (std::size_t i = 0; i + 1 < order.size(); ++i) sum += edge_cost(order[i], order[i + 1]);
    return sum;
  }
};

/// Builds the Procedure-1 instance.
///
/// `closure` must contain Dijkstra trees for s and every VM in `vms`.
/// `node_cost[v]` is the setup cost c(v).  `source_setup` is the Appendix-D
/// source cost c(s) (0 reproduces the paper's main construction).
/// Requires: u ∈ vms, u != s, and all of vms ∪ {s} reachable from s.
StrollInstance build_stroll_instance(const Graph& g, const MetricClosure& closure, NodeId s,
                                     const std::vector<NodeId>& vms, NodeId u,
                                     const std::vector<Cost>& node_cost,
                                     Cost source_setup = 0.0);

}  // namespace sofe::kstroll
