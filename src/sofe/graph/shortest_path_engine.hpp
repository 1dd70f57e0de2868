#pragma once
// Reusable shortest-path engine over the CSR adjacency view (DESIGN.md §2).
//
// Every solver layer in this library — Procedure-1 metric instances,
// KMB/Mehlhorn Steiner, SOFDA pricing, the sharded closure's per-domain
// builds, the dynamic-forest operations — bottoms out in Dijkstra.  The
// free functions in dijkstra.hpp allocate three O(V) arrays plus a heap per
// call; on the hot paths (metric closures over dozens of hubs, online
// arrival streams) that allocation dominates.
// The engine owns the workspaces once and reuses them across queries:
//
//   * run_multi's result arrays are reset via a touched-node list, so
//     clearing after a run that reached k nodes costs O(k), not O(V);
//   * the binary heap keeps its capacity between runs — zero allocation at
//     steady state;
//   * adjacency is streamed from Graph::csr(): three parallel flat arrays
//     instead of the Arc -> edges_ pointer chase.
//
// Workspace-reuse contract: `run_multi` returns a reference to
// engine-owned storage that the NEXT run_multi call overwrites; copy what
// must outlive it.  `run_into` writes a standalone tree directly into
// caller storage (this is what MetricClosure stores).  One engine serves
// one thread; parallel callers use one engine each over a shared,
// prebuilt CSR (see MetricClosure).
//
// Determinism: identical inputs produce identical trees, bit for bit.
// Single-source runs break heap ties on node id exactly like the historical
// free-function Dijkstra.  Multi-source runs order labels lexicographically
// by (distance, owner, node): an equal-distance node goes to the smallest
// owner among the labels that reach it — the deterministic Voronoi
// tie-break the Mehlhorn construction and its tests rely on.  A source
// always keeps its own cell, even when a zero-cost path from a smaller
// source reaches it; consequently a smaller source's label does not
// propagate THROUGH a protected source, and nodes reachable from it only
// via that source inherit the protected source's id (see dijkstra.hpp).

#include <cstdint>
#include <span>
#include <vector>

#include "sofe/graph/dijkstra.hpp"
#include "sofe/graph/graph.hpp"

namespace sofe::graph {

class ShortestPathEngine {
 public:
  ShortestPathEngine() = default;
  explicit ShortestPathEngine(const Graph& g) { attach(g); }

  /// (Re)binds the engine to a graph.  Workspaces are kept and only grow, so
  /// rebinding between graphs (e.g. a session engine serving successive
  /// problems' networks) does not thrash the allocator.  The graph must
  /// outlive the engine's use of it.
  void attach(const Graph& g) { g_ = &g; }

  const Graph* graph() const noexcept { return g_; }

  /// Full single-source Dijkstra written into caller-owned storage
  /// (MetricClosure hub trees, DynamicForest's cache, the Dreyfus–Wagner
  /// base cases).  Only the heap and label workspaces are engine-shared,
  /// so `out` is a standalone, complete ShortestPathTree with no tie to
  /// the engine's lifetime.
  void run_into(NodeId source, ShortestPathTree& out);

  /// run_into writing through a raw row view (slab-backed closure storage,
  /// DESIGN.md §13).  `out` must view exactly node_count() entries; the
  /// caller records `source` itself (the view's own source field is not
  /// consulted).  Bit-identical to the ShortestPathTree overload.
  void run_into(NodeId source, TreeRow out);

  /// Per-repair effect counters (diagnostics; tests, the repair-vs-
  /// rebuild heuristics and the pricing-cache invalidation consume them).
  struct RepairStats {
    std::size_t invalidated = 0;  // nodes orphaned by increased tree arcs
    std::size_t improved = 0;     // nodes whose dist was otherwise rewritten
    std::size_t reparented = 0;   // nodes whose parent arc changed
    bool fell_back = false;       // oversized orphan set: run_into rewrote the tree

    /// True when the repair may have altered any (dist, parent, parent_edge)
    /// entry at all; false guarantees the tree is bitwise untouched.
    bool changed_anything() const noexcept {
      return fell_back || invalidated > 0 || improved > 0 || reparented > 0;
    }
  };

  /// Delta-aware repair (Ramalingam–Reps style; DESIGN.md §8).  `tree` must
  /// be a complete tree over the attached graph (produced by run_into, or
  /// by a previous repair) computed when every
  /// edge cost equaled its current value except those listed in `deltas`
  /// (new_cost = current cost, old_cost = the cost the tree saw; at most
  /// one delta per edge).  The tree is repaired in place: arcs that got
  /// cheaper re-relax outward from their endpoints, subtrees hanging off
  /// costlier tree arcs are invalidated and resettled from the surviving
  /// frontier, and parents are re-derived canonically — including the
  /// discovery-order tie-break inside zero-cost (more precisely,
  /// distance-preserving) plateaus.  The result is bit-identical to a
  /// fresh run from tree.source at the new costs: dist, parent and
  /// parent_edge, every entry (tested by fuzz against run_into).  Cost is
  /// proportional to the affected region plus |deltas|, not to |V| + |E|.
  ///
  /// `touched_out`, when given, receives every node whose tree entry may
  /// have changed (appended; duplicates possible) — a sound OVER-approx of
  /// the real change set: every dist rewrite, parent reassignment and
  /// plateau replay lands in it, but queued-yet-unchanged fixup candidates
  /// (delta endpoints, neighbors of touched nodes) may appear too.  This
  /// is what the repair-aware pricing cache keys its invalidation on
  /// (DESIGN.md §9).  When the repair falls back to a full run
  /// (stats.fell_back), the list is NOT filled — treat every entry as
  /// changed.
  RepairStats repair(ShortestPathTree& tree, std::span<const EdgeCostDelta> deltas,
                     std::vector<NodeId>* touched_out = nullptr);

  /// repair over a raw row view; `tree.source` must be set and the view
  /// must cover exactly node_count() entries.  Same contract and
  /// bit-identity guarantee as the ShortestPathTree overload (which now
  /// wraps this one).
  RepairStats repair(TreeRow tree, std::span<const EdgeCostDelta> deltas,
                     std::vector<NodeId>* touched_out = nullptr);

  /// Multi-source Dijkstra (Mehlhorn's Voronoi partition).  Duplicate
  /// sources are tolerated; equal-distance ties deterministically assign
  /// ownership to the smallest source id.  The result is engine-owned and
  /// overwritten by the next run_multi() call.
  const VoronoiPartition& run_multi(std::span<const NodeId> sources);

 private:
  struct HeapItem {
    Cost dist;
    NodeId node;
    bool operator>(const HeapItem& o) const noexcept {
      if (dist != o.dist) return dist > o.dist;
      return node > o.node;
    }
  };
  struct MultiHeapItem {
    Cost dist;
    NodeId owner;
    NodeId node;
    bool operator>(const MultiHeapItem& o) const noexcept {
      if (dist != o.dist) return dist > o.dist;
      if (owner != o.owner) return owner > o.owner;
      return node > o.node;
    }
  };

  /// One node's full Dijkstra state packed into 16 bytes, so a relaxation
  /// reads and writes a single cache line per node instead of touching
  /// three parallel arrays.  Results are unpacked into the ShortestPathTree
  /// layout with one sequential sweep after the run.
  struct Label {
    Cost dist;
    NodeId parent;
    EdgeId parent_edge;
  };

  void reset_voronoi(std::size_t n);

  const Graph* g_ = nullptr;
  VoronoiPartition vor_;
  std::vector<Label> labels_;  // run_into scratch
  std::vector<NodeId> vor_touched_;
  std::vector<NodeId> seeds_;
  std::vector<HeapItem> heap_;
  std::vector<MultiHeapItem> multi_heap_;
  // repair() workspaces: per-node state bits with a touched list for O(k)
  // reset, plus worklists for subtree invalidation, parent fixup and
  // plateau resolution.
  std::vector<std::uint8_t> mark_;
  std::vector<NodeId> mark_touched_;
  std::vector<NodeId> stack_;
  std::vector<NodeId> invalid_;
  std::vector<NodeId> fix_;
  std::vector<NodeId> plateau_heap_;
  std::vector<NodeId> plateau_members_;
  std::vector<NodeId> cand_members_;
};

}  // namespace sofe::graph
