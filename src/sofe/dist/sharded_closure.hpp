#pragma once
// Sharded metric closure (Section VI, DESIGN.md §11): k controllers build
// the pricing closure together, none of them holding global O(V²) state.
//
// Each controller builds a MetricClosure restricted to its own domain
// subgraph (DomainGraphs), rooted at the border nodes plus the hubs it owns
// and targeting the borders plus the hubs/destinations it owns — all k
// local builds running in parallel.  A controller then *advertises* its
// rows: for every root, the parent-chain edges its local trees use to reach
// the domain's targets (plus every inter-domain link, which both endpoints
// see by definition).  Non-coordinator controllers ship their rows over the
// MessageBus — O(|borders|·|hubs ∪ borders|) row payload, charged in rows,
// entries and bytes — and the coordinator stitches.
//
// The stitch is NOT a distance composition (overlay sums re-associate IEEE
// folds and can drift ulps from global Dijkstra).  Instead the coordinator
// rebuilds the advertised skeleton as a *cost mask* over a copy of G: every
// edge no advertisement mentions is set to kInfiniteCost, node ids, edge
// ids and CSR arc order all staying identical, and the standard
// MetricClosure runs on the masked graph.  Exactness (DESIGN.md §11): a
// global shortest path from a hub, cut at every inter-domain link, falls
// apart into maximal intra-domain segments joined by cross links.  Each
// segment runs from a local root (the hub, or the border node where the
// path enters the domain) to a local target (the border node where
// it leaves, or the path's own target) over that domain's edges only, so
// it is shortest inside the domain too; and since local settle order is
// order-isomorphic to global (both ascending (dist, node) keys), it is the
// domain-local canonical chain from its entry point, which the domain
// advertises.  Cross links are advertised by definition.  So the masked
// graph contains every canonical hub-to-target chain, the masked distances
// meet the global ones bitwise (same edges folded in the same order), and
// since masking only removes relaxation candidates while the engine
// settles by (dist, node), the masked run picks the same parents on every
// advertised chain.  Distances, paths and zero-cost tap
// derivations over hubs × (hubs ∪ destinations) are bit-identical to the
// global closure — the property the distributed certificate rides on.
// The destinations here are those passed to build(): refresh() and
// extend() never advertise toward a later request's destinations, so a
// warm view's rows toward them are not exact (+inf, or a longer path).
// Pricing reads hub-to-hub rows only; pass-through shortening reads
// hub-to-destination rows, so distributed_sofda_with shortens over the
// network instead of this view (DESIGN.md §11).
//
// Incremental: an EdgeCostDelta batch routes to the owning domain
// (cross-link deltas hit the mask directly), the local closures repair in
// place, and only the dirtied rows re-advertise — their edge-set diffs
// become refcount moves on the mask, mask flips are themselves legal
// EdgeCostDeltas, and the stitched closure repairs through
// MetricClosure::refresh.  Rows are request-scoped on both layers
// (DESIGN.md §13): retain() leaves each domain rooted at its borders plus
// the retained hubs it owns, so a repair never touches a source no request
// names.  api::ClosureSession drives this path.

#include <cstddef>
#include <span>
#include <vector>

#include "sofe/dist/domain_graphs.hpp"
#include "sofe/dist/message_bus.hpp"
#include "sofe/dist/partition.hpp"
#include "sofe/graph/metric_closure.hpp"

namespace sofe::dist {

class ShardedClosure {
 public:
  struct Stats {
    int domains = 0;
    std::size_t rows = 0;             // advertised rows across all domains
    std::size_t entries = 0;          // advertised row entries (edges + distance slots)
    std::size_t exchanged_rows = 0;   // rows shipped to the coordinator (domains 1..k-1)
    std::size_t exchanged_entries = 0;
    std::size_t exchanged_bytes = 0;
    int exchange_rounds = 0;
    std::size_t skeleton_edges = 0;   // unmasked (advertised) edges of the stitch graph
    std::size_t repaired_rows = 0;    // cumulative dirtied rows over refresh()/extend()
    double local_build_seconds_max = 0.0;    // slowest controller: the parallel critical path
    double local_build_seconds_total = 0.0;  // sum over controllers: the k=1 work
    double stitch_seconds = 0.0;
  };

  ShardedClosure() = default;

  /// Builds the sharded closure: parallel per-domain local closures, the
  /// charged row exchange, and the stitched MetricClosure over `hubs` with
  /// every hub-to-(hub ∪ destination) distance and path bit-identical to a
  /// global build.  `part` must partition `g` (it is copied and kept).
  /// Local and stitched trees are complete, so every build can be
  /// repaired and extended.
  void build(const Graph& g, Partition part, std::vector<NodeId> hubs,
             std::span<const NodeId> destinations, int num_threads, MessageBus& bus);

  /// Repairs after the edge-cost mutations in `deltas` (g already carries
  /// the new costs; same preconditions as MetricClosure::refresh).  Deltas
  /// route to their owning domain, dirtied rows re-advertise and re-ship
  /// (charged), and the stitched closure repairs from the resulting mask
  /// deltas.  `changed` (optional) receives the stitched closure's
  /// RowDeltas — the pricing invalidation feed.
  void refresh(const Graph& g, std::span<const graph::EdgeCostDelta> deltas, int num_threads,
               MessageBus& bus, std::vector<graph::MetricClosure::RowDelta>* changed = nullptr);

  /// Adds rows for hubs not yet present (the session's churned-in sources).
  /// Owning domains grow local roots and targets (one local Dijkstra per
  /// non-border hub), every root of an owning domain re-advertises toward
  /// the new hubs, mask flips — including the withdrawals of the last
  /// retain() — repair the stitched closure (RowDeltas appended to
  /// `changed`), and the new hub trees extend it.
  void extend(const Graph& g, const std::vector<NodeId>& hubs, int num_threads, MessageBus& bus,
              std::vector<graph::MetricClosure::RowDelta>* changed = nullptr);

  /// Drops every row whose hub is not in `hubs`, on both layers: the
  /// stitched row, and in the owning domain the local root, its
  /// advertisement target (unless a border or a cold-build destination)
  /// and its advertisement.  Each domain keeps its borders plus the retained hubs
  /// it owns as roots.  The withdrawn advertisements' refcount moves flip
  /// the mask at the next refresh() or extend(); until then the mask only
  /// over-covers, which preserves exactness.
  void retain(const std::vector<NodeId>& hubs);

  /// The stitched global view SOFDA prices against.
  const graph::MetricClosure& closure() const noexcept { return stitched_; }
  const Partition& partition() const noexcept { return part_; }
  const Stats& stats() const noexcept { return stats_; }

  /// Bytes held in closure rows across the deployment: every domain's
  /// local closure plus the stitched global view (each slab counted once
  /// per closure — the closures share no storage with each other).
  std::size_t memory_bytes() const;

 private:
  struct DomainState {
    graph::MetricClosure local;
    std::vector<NodeId> roots;              // global ids, borders first then owned hubs
    std::vector<int> row_of_local;          // local node id -> row index, -1 otherwise
    std::vector<NodeId> targets_local;      // local ids: borders ∪ owned (hubs_ ∪ dests_)
    std::vector<char> is_target_local;      // local node id -> membership in targets_local
    std::vector<std::vector<EdgeId>> advert;  // per row: sorted global edge ids
    double build_seconds = 0.0;
  };

  /// Sets domain `d`'s roots (borders, then the owned hubs of hubs_) and
  /// advertisement targets (borders ∪ owned hubs ∪ owned dests_).
  void plan_domain(int d);
  std::vector<NodeId> local_roots(int d) const;
  void build_domain(int d, int inner_threads);
  std::vector<EdgeId> advertise_row(int d, NodeId root_global) const;
  /// Replaces one row's advertisement with `fresh`: refcount moves on the
  /// mask, each moved edge recorded in touched_.  Returns how many moved.
  std::size_t swap_advert(std::vector<EdgeId>& advert, std::vector<EdgeId> fresh);
  /// Turns the touched edges into mask deltas and repairs the stitched
  /// closure through them, appending its RowDeltas to `changed`.
  void repair_stitch(const Graph& g, int num_threads,
                     std::vector<graph::MetricClosure::RowDelta>* changed);

  Partition part_;
  DomainGraphs dg_;
  std::vector<DomainState> domains_;
  std::vector<int> ref_;       // global edge -> advertisement refcount (cross links: +1 base)
  Graph masked_;               // copy of g, non-advertised edges at kInfiniteCost
  graph::MetricClosure stitched_;
  std::vector<NodeId> hubs_;   // stitched hub list (global ids)
  std::vector<NodeId> dests_;  // the cold build's destinations
  std::vector<EdgeId> touched_;  // edges whose refcount or cost moved since the last stitch repair
  Stats stats_;
};

}  // namespace sofe::dist
