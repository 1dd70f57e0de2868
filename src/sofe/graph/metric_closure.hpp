#pragma once
// Metric closure over a subset of "hub" nodes: pairwise shortest-path
// distances plus stored shortest-path trees for path reconstruction.
//
// Procedure 1 of the paper (k-stroll instance construction), the KMB Steiner
// algorithm, and SOFDA's auxiliary-graph pricing all consult distances among
// the same hub set {sources} ∪ {VMs} ∪ {destinations}; this class computes
// each hub's Dijkstra tree once and shares it.
//
// Storage is slab-backed rows (RowStore, DESIGN.md §13): each hub owns one
// dist row and one idx row (parents + parent edges) addressed by slot, and
// tap hubs alias their host's dist row.

#include <cassert>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "sofe/graph/closure_rows.hpp"
#include "sofe/graph/dijkstra.hpp"
#include "sofe/graph/graph.hpp"

namespace sofe::util {
class LaneRunner;
}  // namespace sofe::util

namespace sofe::graph {

class ShortestPathEngine;

class MetricClosure {
 public:
  /// One hub row's change report from refresh() (DESIGN.md §9): after a
  /// repair, the row `hub` may differ from its pre-repair state only at the
  /// listed `nodes` (an over-approximation — listed nodes may be unchanged,
  /// unlisted nodes never changed; duplicates possible), or anywhere when
  /// `full` is set (the repair fell back to a fresh run, or the tree was
  /// re-derived through a different representative than last time).  Rows
  /// that provably did not change are not reported at all.  This is the
  /// feed the repair-aware pricing cache (core::PricingSession) subscribes
  /// to through api::ClosureSession.
  struct RowDelta {
    NodeId hub = kInvalidNode;
    bool full = false;
    std::vector<NodeId> nodes;
  };
  /// Builds the complete shortest-path tree of every node in `hubs`
  /// (duplicates tolerated) through a ShortestPathEngine over the graph's
  /// CSR view, so every stored tree can be repaired and extended.
  ///
  /// Tap-hub derivation: a hub attached to the rest of the graph by a
  /// single zero-cost edge — the library's canonical VM tap
  /// (topology::make_problem, the online simulator) — shares every shortest
  /// path with its attachment host, so its tree is derived from the host's
  /// tree instead of a full Dijkstra: its dist row ALIASES the host image's
  /// dist row (0 + d == d makes them bitwise equal), and its idx row is the
  /// host's plus two parent fixups.  The derived tree is bit-identical to
  /// what the full run produces (tested).  A SOFDA-style hub set (many VMs
  /// per data center plus sources) therefore costs one Dijkstra and one
  /// dist row per *distinct host* rather than one per VM.
  ///
  /// `num_threads` > 1 runs the full (non-derived) trees in parallel
  /// through util::fork_join: the CSR is prebuilt once
  /// (`Graph::ensure_csr`), each lane claims the next unbuilt root and
  /// runs it on its own engine into that root's preassigned row — so the
  /// result is bit-identical to the single-threaded build for any thread
  /// count and lane schedule (tested).  Values < 1 are clamped to 1;
  /// the thread count is a knob on AlgoOptions (closure_threads) and
  /// api::SolverOptions (threads) for the solver layers.
  MetricClosure(const Graph& g, const std::vector<NodeId>& hubs, int num_threads = 1) {
    build(g, hubs, num_threads);
  }

  /// An empty closure; populate with build().  Lets long-lived solver
  /// sessions keep one MetricClosure object across solves.
  MetricClosure() = default;

  /// Rows are slab references that repairs write in place, so a plain
  /// copy would alias the original's rows.  Moves are fine.
  MetricClosure(const MetricClosure&) = delete;
  MetricClosure& operator=(const MetricClosure&) = delete;
  MetricClosure(MetricClosure&&) = default;
  MetricClosure& operator=(MetricClosure&&) = default;

  /// (Re)builds the closure in place.  Row storage is recycled through the
  /// store's free lists, so a session that rebuilds after an edge-cost
  /// change (the online simulator's per-arrival price refresh) recomputes
  /// the Dijkstra trees without reallocating their O(hubs · V) arrays.
  /// When `engine` is given it runs lane 0, the calling thread's share
  /// (persistent heap/label workspaces — api::ClosureSession passes its
  /// session engine); every other lane uses a lane-local engine.
  /// `runner` runs lanes 1.. (util::fork_join; nullptr: fresh threads) —
  /// here and in extend() and refresh().
  void build(const Graph& g, const std::vector<NodeId>& hubs, int num_threads = 1,
             ShortestPathEngine* engine = nullptr, util::LaneRunner* runner = nullptr);

  /// Adds trees for the hubs of `hubs` not yet present, leaving existing
  /// trees untouched — the incremental half of api::ClosureSession: across
  /// an online arrival stream the VM hubs persist while the sampled source
  /// hubs churn, so each acquire builds only the handful of new roots.
  /// Every tree is an independent Dijkstra (tap hubs derive from their
  /// host's tree, which may already be stored), so a closure grown by any
  /// build+extend sequence is per-tree bit-identical to a one-shot build.
  void extend(const Graph& g, const std::vector<NodeId>& hubs, int num_threads = 1,
              ShortestPathEngine* engine = nullptr, util::LaneRunner* runner = nullptr);

  /// Repairs the stored trees in place after the edge-cost mutations in
  /// `deltas` (ShortestPathEngine::repair preconditions apply: the closure
  /// must have been built against the old costs over this same graph
  /// structure).  Bit-identical to a full rebuild at
  /// the new costs.  Like the build, the repair is tap-aware: one repaired
  /// representative per distinct zero-cost-tap host carries its whole tap
  /// group by re-derivation, so the repair count matches the build's
  /// Dijkstra count rather than the (vms_per_dc times larger) tree count.
  /// Threading hands the representative repairs to lanes as they claim
  /// them, each repair writing only its own row.
  ///
  /// `changed`, when given, is cleared and filled with one RowDelta per hub
  /// row that may have changed (see RowDelta): directly repaired rows carry
  /// the engine's touched-node over-approximation, tap-derived rows inherit
  /// their representative's set when the derivation shape (representative,
  /// host, tap edge) matches the previous build/refresh and the tap edges
  /// sit outside `deltas` — else they are reported `full`.  Rows the repair
  /// left bitwise untouched are omitted, which is what makes per-arrival
  /// pricing-cache invalidation proportional to the affected rows.
  void refresh(const Graph& g, std::span<const EdgeCostDelta> deltas, int num_threads = 1,
               ShortestPathEngine* engine = nullptr, std::vector<RowDelta>* changed = nullptr,
               util::LaneRunner* runner = nullptr);

  /// Drops every stored tree whose hub is not in `hubs` (kept trees stay
  /// in slot order); freed rows return to the store for recycling.  The
  /// session's repair path calls this before refresh so rows no request
  /// names any more — an arrival stream's churned-out source hubs — stop
  /// costing one repair per solve.
  void retain(const std::vector<NodeId>& hubs);

  /// Number of stored hub trees (diagnostics).
  std::size_t hub_count() const noexcept { return rows_.size(); }

  /// Bytes held by this closure's slabs (live rows, open slabs and free
  /// lists), each slab counted once.
  std::size_t memory_bytes() const;

  /// Shortest-path distance from hub `from` to any node `to`.
  /// Requires `from` to be a hub.
  Cost distance(NodeId from, NodeId to) const {
    return tree(from).distance(to);
  }

  /// Shortest path (node sequence) from hub `from` to `to`.
  std::vector<NodeId> path(NodeId from, NodeId to) const {
    return tree(from).path_to(to);
  }

  bool is_hub(NodeId v) const { return tree_index_.contains(v); }

  /// Read view of one hub's stored tree.  The view is invalidated by the
  /// next mutating call (build/extend/refresh/retain) — same lifetime rule
  /// the old by-reference accessor had, now explicit in the value type.
  ConstTreeRow tree(NodeId hub) const {
    const auto it = tree_index_.find(hub);
    assert(it != tree_index_.end() && "node is not a hub of this closure");
    const StoredRow& row = rows_[it->second];
    const std::int32_t* idx = row.idx.get();
    return ConstTreeRow{row.source, row.dist.get(), idx, idx + n_, n_};
  }

 private:
  /// One hub's stored tree: a dist row (possibly aliased with the hub's
  /// zero-cost-tap host image) plus a privately owned idx row of parents
  /// and parent edges.
  struct StoredRow {
    NodeId source = kInvalidNode;
    RowStore::DistRef dist;
    RowStore::IdxRef idx;
  };

  void build_or_extend(const Graph& g, const std::vector<NodeId>& hubs, int num_threads,
                       ShortestPathEngine* engine, util::LaneRunner* runner, bool rebuild);

  /// Mutable engine view of a slot's row.
  TreeRow row_view(std::size_t slot) {
    StoredRow& row = rows_[slot];
    std::int32_t* idx = row.idx.get();
    return TreeRow{row.source, row.dist.get(), idx, idx + n_, n_};
  }

  /// How a slot's tree was last produced: derived from `from_hub`'s tree
  /// (its own host, or a sibling-tap representative) through the zero-cost
  /// `edge` to `host`, or run/repaired directly (from_hub == kInvalidNode).
  /// refresh() compares this against its current derivation plan to decide
  /// whether a derived row's change set can inherit the representative's
  /// (shape unchanged) or must be reported full (shape changed).
  struct DeriveMemo {
    NodeId from_hub = kInvalidNode;
    NodeId host = kInvalidNode;
    EdgeId edge = kInvalidEdge;
  };

  RowStore store_;
  std::vector<StoredRow> rows_;
  std::vector<DeriveMemo> derive_memo_;  // parallel to rows_
  std::unordered_map<NodeId, std::size_t> tree_index_;
  std::size_t n_ = 0;  // node count the rows cover
};

}  // namespace sofe::graph
