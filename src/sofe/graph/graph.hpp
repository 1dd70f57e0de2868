#pragma once
// Core weighted undirected graph used throughout the library.
//
// Design notes (see DESIGN.md §2):
//  * Nodes are dense integer ids [0, node_count).  Every higher layer
//    (problem instances, topologies, auxiliary graphs) maps its entities onto
//    these ids, so the graph stays a small cache-friendly POD store.
//  * Parallel edges are permitted (the SOFDA auxiliary graph needs several
//    virtual edges between the same endpoint pair); self loops are not.
//  * Costs are nonnegative doubles; the library asserts this at insertion.

#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace sofe::graph {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;
using Cost = double;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr EdgeId kInvalidEdge = -1;
inline constexpr Cost kInfiniteCost = std::numeric_limits<Cost>::infinity();

/// One undirected edge.  `u < v` is NOT enforced; callers that need a
/// canonical key use `Graph::edge_key`.
struct Edge {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  Cost cost = 0.0;

  /// The endpoint opposite to `from`.  Requires from ∈ {u, v}.
  NodeId other(NodeId from) const noexcept {
    assert(from == u || from == v);
    return from == u ? v : u;
  }
};

/// Adjacency entry: neighbouring node plus the edge that reaches it.
struct Arc {
  NodeId to = kInvalidNode;
  EdgeId edge = kInvalidEdge;
};

/// Record of one edge-cost mutation: the input of the incremental shortest-
/// path machinery (ShortestPathEngine::repair, MetricClosure::refresh,
/// api::ClosureSession).  `new_cost` must equal the edge's current cost in
/// the graph the consumer is attached to; `old_cost` is the value the
/// derived structure (tree, closure) was computed against.  At most one
/// delta per edge — a caller that mutates the same edge twice folds the
/// pair into one record.  A cost of kInfiniteCost is legal and acts as a
/// soft edge removal (infinite arcs never relax), so disconnect/reconnect
/// is expressible as a cost delta.
struct EdgeCostDelta {
  EdgeId edge = kInvalidEdge;
  Cost old_cost = 0.0;
  Cost new_cost = 0.0;
};

/// One CSR adjacency entry: head node, edge id and the edge's cost packed
/// into 16 bytes, so a relaxation reads one cache line per few arcs and
/// never touches the Edge array.
struct CsrArc {
  Cost cost = 0.0;
  NodeId to = kInvalidNode;
  EdgeId edge = kInvalidEdge;
};

/// Flat compressed-sparse-row adjacency snapshot (see DESIGN.md §2).
///
/// The arcs of node v live contiguously at [offsets[v], offsets[v+1]) in
/// `arcs`, in the same order `neighbors(v)` reports them.  Built lazily by
/// `Graph::csr()` and cached; structural mutations (add_node/add_edge) force
/// a full rebuild, cost mutations (set_edge_cost) only refresh the stored
/// costs in one O(E) sweep.
struct CsrView {
  std::vector<std::int32_t> offsets;  // size node_count()+1
  std::vector<CsrArc> arcs;           // size 2*edge_count()

  std::int32_t begin(NodeId v) const noexcept {
    return offsets[static_cast<std::size_t>(v)];
  }
  std::int32_t end(NodeId v) const noexcept {
    return offsets[static_cast<std::size_t>(v) + 1];
  }
};

/// Weighted undirected multigraph with O(1) node/edge addition and
/// contiguous adjacency storage.
class Graph {
 public:
  Graph() = default;
  explicit Graph(NodeId node_count) : adj_(static_cast<std::size_t>(node_count)) {
    assert(node_count >= 0);
  }

  NodeId node_count() const noexcept { return static_cast<NodeId>(adj_.size()); }
  EdgeId edge_count() const noexcept { return static_cast<EdgeId>(edges_.size()); }

  /// Appends an isolated node and returns its id.
  NodeId add_node() {
    adj_.emplace_back();
    ++version_;
    csr_.structure_valid = false;
    return node_count() - 1;
  }

  /// Adds an undirected edge with nonnegative cost; returns its id.
  EdgeId add_edge(NodeId u, NodeId v, Cost cost) {
    assert(valid_node(u) && valid_node(v));
    assert(u != v && "self loops are not supported");
    assert(cost >= 0.0 && "edge costs must be nonnegative");
    const EdgeId id = edge_count();
    edges_.push_back(Edge{u, v, cost});
    adj_[static_cast<std::size_t>(u)].push_back(Arc{v, id});
    adj_[static_cast<std::size_t>(v)].push_back(Arc{u, id});
    ++version_;
    csr_.structure_valid = false;
    return id;
  }

  const Edge& edge(EdgeId e) const {
    assert(valid_edge(e));
    return edges_[static_cast<std::size_t>(e)];
  }

  /// Mutable edge cost (used by the online simulator when loads change).
  /// O(1): the CSR cache is refreshed lazily on the next `csr()` call.
  void set_edge_cost(EdgeId e, Cost cost) {
    assert(valid_edge(e));
    assert(cost >= 0.0);
    edges_[static_cast<std::size_t>(e)].cost = cost;
    ++version_;
    csr_.costs_valid = false;
  }

  /// Monotone mutation counter: bumped by add_node/add_edge/set_edge_cost.
  /// Callers that cache derived structures (shortest-path trees, closures)
  /// key their invalidation on it.
  std::uint64_t version() const noexcept { return version_; }

  /// The CSR adjacency snapshot, (re)built lazily.  NOT thread-safe on a
  /// cache miss: call `ensure_csr()` before sharing the graph across reader
  /// threads.
  const CsrView& csr() const {
    if (!csr_.structure_valid) {
      rebuild_csr();
    } else if (!csr_.costs_valid) {
      refresh_csr_costs();
    }
    return csr_.view;
  }

  /// Forces the CSR cache into a valid state now.  The one call that makes
  /// concurrent read-only use of this graph safe: every subsequent `csr()`
  /// is a pure read until the next mutation.  MetricClosure and the api
  /// solver sessions call this before fanning out worker threads.
  const CsrView& ensure_csr() const { return csr(); }

  std::span<const Arc> neighbors(NodeId v) const {
    assert(valid_node(v));
    return adj_[static_cast<std::size_t>(v)];
  }

  std::span<const Edge> edges() const noexcept { return edges_; }

  /// Degree counting parallel edges.
  std::size_t degree(NodeId v) const { return neighbors(v).size(); }

  /// First edge between u and v (cheapest if `cheapest`), or kInvalidEdge.
  EdgeId find_edge(NodeId u, NodeId v, bool cheapest = true) const {
    EdgeId best = kInvalidEdge;
    for (const Arc& a : neighbors(u)) {
      if (a.to != v) continue;
      if (best == kInvalidEdge || edge(a.edge).cost < edge(best).cost) best = a.edge;
      if (!cheapest) break;
    }
    return best;
  }

  bool valid_node(NodeId v) const noexcept { return v >= 0 && v < node_count(); }
  bool valid_edge(EdgeId e) const noexcept { return e >= 0 && e < edge_count(); }

  /// Canonical (min, max) endpoint pair, usable as a map key for undirected
  /// edge identity irrespective of orientation.
  static std::pair<NodeId, NodeId> edge_key(NodeId u, NodeId v) noexcept {
    return u < v ? std::pair{u, v} : std::pair{v, u};
  }

 private:
  /// CSR cache.  Copying a Graph deliberately drops the cache (copies are
  /// usually mutated immediately — SOFDA's auxiliary graph, the online
  /// simulator's per-request problem — so carrying a stale snapshot would
  /// only waste memory); moves keep it.
  struct CsrCache {
    CsrView view;
    bool structure_valid = false;
    bool costs_valid = false;

    CsrCache() = default;
    CsrCache(const CsrCache&) noexcept {}
    CsrCache& operator=(const CsrCache&) noexcept {
      view = CsrView{};
      structure_valid = costs_valid = false;
      return *this;
    }
    CsrCache(CsrCache&& o) noexcept
        : view(std::move(o.view)),
          structure_valid(o.structure_valid),
          costs_valid(o.costs_valid) {
      o.structure_valid = o.costs_valid = false;
    }
    CsrCache& operator=(CsrCache&& o) noexcept {
      view = std::move(o.view);
      structure_valid = o.structure_valid;
      costs_valid = o.costs_valid;
      o.structure_valid = o.costs_valid = false;
      return *this;
    }
  };

  void rebuild_csr() const;
  void refresh_csr_costs() const;

  std::vector<Edge> edges_;
  std::vector<std::vector<Arc>> adj_;
  std::uint64_t version_ = 0;
  mutable CsrCache csr_;
};

/// The single zero-cost arc of a degree-1 node, or Arc{} (edge ==
/// kInvalidEdge).  Such a "tap" — the library's canonical VM attachment
/// (topology::make_problem, the online model's vms_per_dc VMs per DC) —
/// shares every shortest path with the arc's head, its host: MetricClosure
/// derives tap trees from the host's (DESIGN.md §13), and
/// core::PricingSession relabels one twin tap's chain onto the next
/// (DESIGN.md §9).
inline Arc zero_cost_tap(const Graph& g, NodeId v) {
  const auto arcs = g.neighbors(v);
  if (arcs.size() == 1 && g.edge(arcs[0].edge).cost == 0.0) return arcs[0];
  return Arc{};
}

}  // namespace sofe::graph
