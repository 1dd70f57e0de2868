// Exact Steiner tree via the Dreyfus-Wagner dynamic program.
//
//   S[X][v] = cost of the cheapest tree spanning terminal subset X plus v.
//
// Recurrence: a merge phase (split X at v) followed by a shortest-path
// relaxation phase (grow from every u to v).  Complexity O(3^t V + 2^t E log V)
// — exact but exponential in the number of terminals; used as a test oracle
// and for small instances only.

#include <algorithm>
#include <bit>
#include <cassert>
#include <queue>

#include "sofe/graph/shortest_path_engine.hpp"
#include "sofe/steiner/steiner.hpp"

namespace sofe::steiner {

namespace {

struct Decision {
  // How S[X][v] was achieved:
  //  merge: split into (X & split_mask, X & ~split_mask) both at v;
  //  walk:  from S[X][parent] via edge parent_edge.
  std::uint32_t split_mask = 0;  // nonzero => merge decision
  NodeId parent = graph::kInvalidNode;
  EdgeId parent_edge = graph::kInvalidEdge;
};

}  // namespace

SteinerTree dreyfus_wagner(const Graph& g, const std::vector<NodeId>& terminals) {
  std::vector<NodeId> T = terminals;
  std::sort(T.begin(), T.end());
  T.erase(std::unique(T.begin(), T.end()), T.end());
  if (T.size() <= 1) return {};
  assert(T.size() <= 20 && "Dreyfus-Wagner is exponential in terminal count");

  const auto n = static_cast<std::size_t>(g.node_count());
  // DP over subsets of T \ {T.back()}; the last terminal is the final root.
  const std::size_t t = T.size() - 1;
  const std::uint32_t full = (1u << t) - 1u;
  std::vector<std::vector<Cost>> S(full + 1, std::vector<Cost>(n, graph::kInfiniteCost));
  std::vector<std::vector<Decision>> dec(full + 1, std::vector<Decision>(n));

  // Base: singletons via Dijkstra from each terminal (one engine and one
  // tree, reused).
  graph::ShortestPathEngine engine(g);
  graph::ShortestPathTree sp;
  for (std::size_t i = 0; i < t; ++i) {
    engine.run_into(T[i], sp);
    const std::uint32_t mask = 1u << i;
    for (std::size_t v = 0; v < n; ++v) {
      S[mask][v] = sp.dist[v];
      dec[mask][v].parent = sp.parent[v];
      dec[mask][v].parent_edge = sp.parent_edge[v];
    }
  }

  // Subsets in increasing popcount order (any increasing-mask order works
  // because proper subsets have smaller masks... not true in general, so sort
  // explicitly by popcount).
  std::vector<std::uint32_t> masks;
  for (std::uint32_t m = 1; m <= full; ++m) masks.push_back(m);
  std::stable_sort(masks.begin(), masks.end(), [](std::uint32_t a, std::uint32_t b) {
    return std::popcount(a) < std::popcount(b);
  });

  struct HeapItem {
    Cost cost;
    NodeId node;
    bool operator>(const HeapItem& o) const noexcept {
      if (cost != o.cost) return cost > o.cost;
      return node > o.node;
    }
  };

  for (std::uint32_t X : masks) {
    if (std::popcount(X) < 2) continue;
    // Merge phase: canonical splits keep the lowest set bit on one side.
    const std::uint32_t low = X & (~X + 1u);
    for (std::uint32_t sub = (X - 1) & X; sub > 0; sub = (sub - 1) & X) {
      if (!(sub & low)) continue;  // enumerate each unordered split once
      const std::uint32_t rest = X ^ sub;
      for (std::size_t v = 0; v < n; ++v) {
        const Cost c = S[sub][v] + S[rest][v];
        if (c < S[X][v]) {
          S[X][v] = c;
          dec[X][v] = Decision{sub, graph::kInvalidNode, graph::kInvalidEdge};
        }
      }
    }
    // Relaxation phase: Dijkstra with the merge results as initial labels,
    // streamed over the CSR adjacency (this multi-label relaxation has no
    // single source, so it keeps its own heap rather than the engine's).
    const graph::CsrView& csr = g.csr();
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
    for (std::size_t v = 0; v < n; ++v) {
      if (S[X][v] < graph::kInfiniteCost) heap.push({S[X][v], static_cast<NodeId>(v)});
    }
    while (!heap.empty()) {
      const auto [c, u] = heap.top();
      heap.pop();
      if (c > S[X][static_cast<std::size_t>(u)]) continue;
      for (std::int32_t i = csr.begin(u); i < csr.end(u); ++i) {
        const graph::CsrArc& a = csr.arcs[static_cast<std::size_t>(i)];
        const Cost nc = c + a.cost;
        if (nc < S[X][static_cast<std::size_t>(a.to)]) {
          S[X][static_cast<std::size_t>(a.to)] = nc;
          dec[X][static_cast<std::size_t>(a.to)] = Decision{0, u, a.edge};
          heap.push({nc, a.to});
        }
      }
    }
  }

  // Reconstruct edges from (full, T.back()).
  SteinerTree tree;
  std::vector<std::pair<std::uint32_t, NodeId>> stack{{full, T.back()}};
  while (!stack.empty()) {
    const auto [X, v] = stack.back();
    stack.pop_back();
    const Decision& d = dec[X][static_cast<std::size_t>(v)];
    if (d.split_mask != 0) {
      stack.emplace_back(d.split_mask, v);
      stack.emplace_back(X ^ d.split_mask, v);
    } else if (d.parent != graph::kInvalidNode) {
      tree.edges.push_back(d.parent_edge);
      stack.emplace_back(X, d.parent);
    }
    // parent == kInvalidNode and no split: v is the terminal of a singleton
    // subset (base case root) — nothing to emit.
  }
  // Deduplicate (merge branches can share edges when costs tie).
  std::sort(tree.edges.begin(), tree.edges.end());
  tree.edges.erase(std::unique(tree.edges.begin(), tree.edges.end()), tree.edges.end());
  return tree;
}

}  // namespace sofe::steiner
