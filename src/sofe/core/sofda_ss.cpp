#include "sofe/core/sofda_ss.hpp"

#include <algorithm>
#include <cassert>
#include <map>

#include "sofe/steiner/steiner.hpp"

namespace sofe::core {

namespace {

/// Adjacency of a tree edge set, for path extraction within the tree.
class TreePaths {
 public:
  TreePaths(const Graph& g, const std::vector<EdgeId>& edges, NodeId root) {
    adj_.resize(static_cast<std::size_t>(g.node_count()));
    for (EdgeId e : edges) {
      adj_[static_cast<std::size_t>(g.edge(e).u)].push_back(g.edge(e).v);
      adj_[static_cast<std::size_t>(g.edge(e).v)].push_back(g.edge(e).u);
    }
    parent_.assign(adj_.size(), graph::kInvalidNode);
    visited_.assign(adj_.size(), false);
    // Iterative DFS from the root.
    std::vector<NodeId> stack{root};
    visited_[static_cast<std::size_t>(root)] = true;
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (NodeId w : adj_[static_cast<std::size_t>(v)]) {
        if (!visited_[static_cast<std::size_t>(w)]) {
          visited_[static_cast<std::size_t>(w)] = true;
          parent_[static_cast<std::size_t>(w)] = v;
          stack.push_back(w);
        }
      }
    }
    root_ = root;
  }

  bool reaches(NodeId v) const { return visited_[static_cast<std::size_t>(v)]; }

  /// Node sequence root -> v within the tree.
  std::vector<NodeId> path_from_root(NodeId v) const {
    assert(reaches(v));
    std::vector<NodeId> rev;
    for (NodeId x = v; x != graph::kInvalidNode; x = parent_[static_cast<std::size_t>(x)]) {
      rev.push_back(x);
    }
    assert(rev.back() == root_);
    return {rev.rbegin(), rev.rend()};
  }

 private:
  std::vector<std::vector<NodeId>> adj_;
  std::vector<NodeId> parent_;
  std::vector<bool> visited_;
  NodeId root_ = graph::kInvalidNode;
};

}  // namespace

ServiceForest sofda_ss(const Problem& p, NodeId source, const AlgoOptions& opt) {
  assert(p.well_formed());
  if (p.destinations.empty()) return {};
  // Shared shortest-path trees for the source and all VMs.
  std::vector<NodeId> hubs = p.vms();
  hubs.push_back(source);
  const graph::MetricClosure closure(p.network, hubs, opt.closure_threads);
  return sofda_ss(p, source, closure, opt);
}

ServiceForest sofda_ss(const Problem& p, NodeId source, const graph::MetricClosure& closure,
                       const AlgoOptions& opt) {
  assert(p.well_formed());
  ServiceForest best;
  if (p.destinations.empty()) return best;

  const std::vector<NodeId> vms = p.vms();
  Cost best_cost = graph::kInfiniteCost;
  for (NodeId u : vms) {
    // Phase 1: minimum-cost service chain source -> u with |C| VMs.
    const ChainPlan chain = plan_chain_walk(p, closure, source, vms, u, opt);
    if (!chain.feasible()) continue;

    // Phase 2: Steiner tree rooted at the last VM spanning all destinations.
    std::vector<NodeId> terminals = p.destinations;
    terminals.push_back(u);
    const auto tree = steiner::solve(p.network, terminals, opt.steiner);
    const TreePaths paths(p.network, tree.edges, u);

    ServiceForest f;
    bool feasible = true;
    for (NodeId d : p.destinations) {
      if (!paths.reaches(d)) {
        feasible = false;
        break;
      }
      ChainWalk w;
      w.source = source;
      w.destination = d;
      w.nodes = chain.nodes;
      w.vnf_pos = chain.vnf_pos;
      const auto suffix = paths.path_from_root(d);
      w.nodes.insert(w.nodes.end(), suffix.begin() + 1, suffix.end());
      f.walks.push_back(std::move(w));
    }
    if (!feasible) continue;

    const Cost c = total_cost(p, f);
    if (c < best_cost) {
      best_cost = c;
      best = std::move(f);
    }
  }
  if (opt.shorten && !best.empty()) shorten_pass_through(p, closure, best);
  return best;
}

}  // namespace sofe::core
