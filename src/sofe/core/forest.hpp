#pragma once
// Service overlay forest representation and cost accounting (Section III).
//
// A solution stores, per destination, the *walk* that serves it: a node
// sequence from a source to the destination plus the positions at which the
// chain's VNFs are applied.  Walks may revisit nodes (clones, in the paper's
// terminology).  All tree/forest structure is implicit: cost accounting
// deduplicates shared (stage, link) uses exactly as the IP's τ_{f,u,v}
// variables do, and shared enabled VMs exactly as σ_{f,u} does.

#include <cassert>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sofe/core/problem.hpp"

namespace sofe::graph {
class MetricClosure;
}  // namespace sofe::graph

namespace sofe::core {

/// The walk serving one destination.
///
/// `vnf_pos[j]` is the index into `nodes` where VNF f_{j+1} is applied; the
/// node there must be a VM.  Positions are strictly increasing.  The "stage"
/// of the walk edge (nodes[i], nodes[i+1]) is the number of VNFs already
/// applied at positions <= i; stage 0 edges carry unprocessed data from the
/// source, stage |C| edges carry fully processed data.
struct ChainWalk {
  NodeId source = graph::kInvalidNode;
  NodeId destination = graph::kInvalidNode;
  std::vector<NodeId> nodes;
  std::vector<std::size_t> vnf_pos;

  /// Stage of the edge leaving position i.
  int stage_at(std::size_t i) const {
    int stage = 0;
    for (std::size_t p : vnf_pos) {
      if (p <= i) ++stage;
    }
    return stage;
  }

  /// VM of VNF f_{j} (1-based j).
  NodeId vnf_node(int j) const {
    assert(j >= 1 && static_cast<std::size_t>(j) <= vnf_pos.size());
    return nodes[vnf_pos[static_cast<std::size_t>(j - 1)]];
  }
};

/// One (stage, undirected link) use; the unit of connection-cost accounting.
struct StageEdge {
  int stage;
  NodeId u, v;  // canonical: u < v

  auto operator<=>(const StageEdge&) const = default;
};

struct ServiceForest {
  std::vector<ChainWalk> walks;

  bool empty() const noexcept { return walks.empty(); }

  /// Map VM -> 1-based VNF index it runs, aggregated over all walks.
  /// If walks disagree (a VNF conflict), the entry keeps the first index seen;
  /// use validate() to detect conflicts.
  std::map<NodeId, int> enabled_vms() const;

  /// Distinct (stage, link) uses across all walks.
  std::set<StageEdge> stage_edges() const;

  /// Distinct sources actually used by walks.
  std::set<NodeId> used_sources() const;
};

/// Σ c(u) over enabled VMs (+ Appendix-D source costs when present).
Cost setup_cost(const Problem& p, const ServiceForest& f);

/// Σ c(e) over distinct (stage, link) uses — a link is paid once per stage
/// that crosses it, and once only however many walks share it at that stage.
Cost connection_cost(const Problem& p, const ServiceForest& f);

Cost total_cost(const Problem& p, const ServiceForest& f);

/// Pass-through shortening (the paper's Example 7 post-step): replaces each
/// maximal pass-through segment of every walk with a shortest path, keeping
/// the change only when the *forest* cost does not increase (shared-edge
/// accounting can make a locally shorter detour globally worse).
///
/// A segment runs between consecutive essential nodes — the walk's source,
/// its VNF VMs, its destination — so every segment starts at a source or a
/// VM, and its shortest path is read from `closure.tree(start)` (DESIGN.md
/// §4).  Precondition: every such start is a hub of `closure`, and its row
/// is exact toward the walk's VMs and destination.  Every MetricClosure
/// over VMs ∪ sources qualifies (built, repaired or published — its rows
/// are the engine's complete trees, bitwise).  The dist layer's stitched
/// view does not (DESIGN.md §11).  Given an exact closure the result is
/// bitwise the two-argument overload's.
void shorten_pass_through(const Problem& p, const graph::MetricClosure& closure,
                          ServiceForest& f);

/// The same post-step for callers without a closure: builds one complete
/// MetricClosure over the distinct starts of the segments that have
/// pass-through nodes — one Dijkstra per start (per tap host), not per
/// segment — and delegates.
void shorten_pass_through(const Problem& p, ServiceForest& f);

/// Human-readable dump (examples / debugging).
std::string describe(const Problem& p, const ServiceForest& f);

}  // namespace sofe::core
