#include "sofe/graph/shortest_path_engine.hpp"

#include <algorithm>
#include <cassert>

namespace sofe::graph {

namespace {

// Binary min-heap with lazy deletion over a reusable buffer (capacity
// persists across runs).  Lazy deletion beats an indexed decrease-key heap
// here: the position array's random writes on every sift cost more than the
// stale pops save (measured on Inet-scale closures).  Pop order is the
// minimum of a TOTAL order (ties broken by node / owner / node), so any
// correct heap yields the same settle sequence — trees are bit-identical to
// the historical priority_queue implementation.

template <typename Item>
inline void heap_push(std::vector<Item>& h, Item item) {
  h.push_back(item);
  std::push_heap(h.begin(), h.end(), std::greater<>{});
}

template <typename Item>
inline Item heap_pop(std::vector<Item>& h) {
  std::pop_heap(h.begin(), h.end(), std::greater<>{});
  const Item top = h.back();
  h.pop_back();
  return top;
}

}  // namespace

void ShortestPathEngine::reset_voronoi(std::size_t n) {
  if (vor_.dist.size() != n) {
    vor_.dist.assign(n, kInfiniteCost);
    vor_.owner.assign(n, kInvalidNode);
    vor_.parent.assign(n, kInvalidNode);
    vor_.parent_edge.assign(n, kInvalidEdge);
  } else {
    for (NodeId v : vor_touched_) {
      const auto i = static_cast<std::size_t>(v);
      vor_.dist[i] = kInfiniteCost;
      vor_.owner[i] = kInvalidNode;
      vor_.parent[i] = kInvalidNode;
      vor_.parent_edge[i] = kInvalidEdge;
    }
  }
  vor_touched_.clear();
}

void ShortestPathEngine::run_into(NodeId source, ShortestPathTree& out) {
  const auto n = static_cast<std::size_t>(g_->node_count());
  out.source = source;
  out.dist.resize(n);
  out.parent.resize(n);
  out.parent_edge.resize(n);
  run_into(source,
           TreeRow{source, out.dist.data(), out.parent.data(), out.parent_edge.data(), n});
}

void ShortestPathEngine::run_into(NodeId source, TreeRow out) {
  assert(g_ != nullptr && "engine is not attached to a graph");
  assert(g_->valid_node(source));
  const CsrView& csr = g_->csr();
  const auto n = static_cast<std::size_t>(g_->node_count());
  assert(out.n == n && "row view must cover the whole graph");

  labels_.assign(n, Label{kInfiniteCost, kInvalidNode, kInvalidEdge});
  labels_[static_cast<std::size_t>(source)].dist = 0.0;

  heap_.clear();
  heap_.push_back(HeapItem{0.0, source});
  while (!heap_.empty()) {
    const auto [d, u] = heap_pop(heap_);
    if (d > labels_[static_cast<std::size_t>(u)].dist) continue;  // stale entry
    const std::int32_t hi = csr.end(u);
    for (std::int32_t i = csr.begin(u); i < hi; ++i) {
      const CsrArc& a = csr.arcs[static_cast<std::size_t>(i)];
      const Cost nd = d + a.cost;
      Label& lv = labels_[static_cast<std::size_t>(a.to)];
      if (nd < lv.dist) {
        lv = Label{nd, u, a.edge};
        heap_push(heap_, HeapItem{nd, a.to});
      }
    }
  }

  // Unpack the packed labels into the row layout in one sequential sweep.
  for (std::size_t i = 0; i < n; ++i) {
    out.dist[i] = labels_[i].dist;
    out.parent[i] = labels_[i].parent;
    out.parent_edge[i] = labels_[i].parent_edge;
  }
}

ShortestPathEngine::RepairStats ShortestPathEngine::repair(ShortestPathTree& tree,
                                                           std::span<const EdgeCostDelta> deltas,
                                                           std::vector<NodeId>* touched_out) {
  assert(tree.dist.size() == static_cast<std::size_t>(g_->node_count()) &&
         "repair requires a complete tree over the attached graph");
  return repair(TreeRow{tree.source, tree.dist.data(), tree.parent.data(),
                        tree.parent_edge.data(), tree.dist.size()},
                deltas, touched_out);
}

ShortestPathEngine::RepairStats ShortestPathEngine::repair(TreeRow tree,
                                                           std::span<const EdgeCostDelta> deltas,
                                                           std::vector<NodeId>* touched_out) {
  assert(g_ != nullptr && "engine is not attached to a graph");
  const CsrView& csr = g_->csr();  // also refreshes cached costs after set_edge_cost
  const auto n = static_cast<std::size_t>(g_->node_count());
  assert(tree.n == n && "repair requires a complete tree over the attached graph");
  assert(g_->valid_node(tree.source));
  assert(tree.dist[static_cast<std::size_t>(tree.source)] == 0.0);

  RepairStats stats;
  if (mark_.size() != n) mark_.assign(n, 0);

  // Per-node state bits, reset via mark_touched_ on exit.
  constexpr std::uint8_t kTouched = 1;      // dist invalidated or rewritten
  constexpr std::uint8_t kFixQueued = 2;    // on the parent-fixup worklist
  constexpr std::uint8_t kPlateauSeen = 4;  // collected into a tie plateau
  constexpr std::uint8_t kPlateauDone = 8;  // discovered by the plateau replay
  constexpr std::uint8_t kCandSeen = 16;    // candidate-order replay: collected
  constexpr std::uint8_t kCandDone = 32;    //   …discovered
  constexpr std::uint8_t kCandTarget = 64;  //   …is one of the tied candidates

  const auto set_bit = [&](NodeId v, std::uint8_t bit) {
    auto& m = mark_[static_cast<std::size_t>(v)];
    if (m == 0) mark_touched_.push_back(v);
    m |= bit;
  };
  const auto has_bit = [&](NodeId v, std::uint8_t bit) {
    return (mark_[static_cast<std::size_t>(v)] & bit) != 0;
  };

  // --- Phase 1: orphan every subtree hanging off an increased tree arc.
  // Children are found through the adjacency (child w of v satisfies
  // parent[w] == v via exactly the connecting arc), so the traversal costs
  // the orphaned region's degree sum, not O(V).
  stack_.clear();
  invalid_.clear();
  for (const EdgeCostDelta& d : deltas) {
    assert(g_->valid_edge(d.edge));
    assert(g_->edge(d.edge).cost == d.new_cost && "delta disagrees with the graph");
    if (!(d.new_cost > d.old_cost)) continue;
    const Edge& e = g_->edge(d.edge);
    if (tree.parent_edge[static_cast<std::size_t>(e.u)] == d.edge) stack_.push_back(e.u);
    if (tree.parent_edge[static_cast<std::size_t>(e.v)] == d.edge) stack_.push_back(e.v);
  }
  while (!stack_.empty()) {
    const NodeId v = stack_.back();
    stack_.pop_back();
    if (has_bit(v, kTouched)) continue;
    set_bit(v, kTouched);
    invalid_.push_back(v);
    const std::int32_t hi = csr.end(v);
    for (std::int32_t i = csr.begin(v); i < hi; ++i) {
      const CsrArc& a = csr.arcs[static_cast<std::size_t>(i)];
      if (tree.parent[static_cast<std::size_t>(a.to)] == v &&
          tree.parent_edge[static_cast<std::size_t>(a.to)] == a.edge) {
        stack_.push_back(a.to);
      }
    }
  }
  for (NodeId v : invalid_) {
    const auto vi = static_cast<std::size_t>(v);
    tree.dist[vi] = kInfiniteCost;
    tree.parent[vi] = kInvalidNode;
    tree.parent_edge[vi] = kInvalidEdge;
  }
  stats.invalidated = invalid_.size();

  // Bail-out: when the orphaned region already covers a third of the
  // graph (the online simulator's congestion spikes reprice the busiest
  // links, whose subtrees are the deepest), resettling plus the parent
  // fixup sweep costs more than one clean pass — and run_into rewrites
  // the tree wholesale, so falling back is trivially still bit-identical
  // to a fresh run.
  if (invalid_.size() * 3 > n) {
    for (NodeId v : mark_touched_) mark_[static_cast<std::size_t>(v)] = 0;
    mark_touched_.clear();
    run_into(tree.source, tree);
    stats.fell_back = true;  // touched_out stays unfilled: every entry may differ
    return stats;
  }

  // --- Phase 2: seed the frontier.  Orphans reseed from their surviving
  // neighbors (an upper bound that later pops tighten); decreased arcs relax
  // outward from both endpoints.  Seeding with upper bounds is safe: every
  // node whose dist must change has a true path whose first deviation from
  // the old tree is a seeded node, and settling proceeds in dist order.
  heap_.clear();
  for (NodeId v : invalid_) {
    const auto vi = static_cast<std::size_t>(v);
    Cost best = kInfiniteCost;
    const std::int32_t hi = csr.end(v);
    for (std::int32_t i = csr.begin(v); i < hi; ++i) {
      const CsrArc& a = csr.arcs[static_cast<std::size_t>(i)];
      const Cost nd = tree.dist[static_cast<std::size_t>(a.to)] + a.cost;
      if (nd < best) best = nd;
    }
    if (best < kInfiniteCost) {
      tree.dist[vi] = best;
      heap_push(heap_, HeapItem{best, v});
    }
  }
  for (const EdgeCostDelta& d : deltas) {
    if (!(d.new_cost < d.old_cost)) continue;
    const Edge& e = g_->edge(d.edge);
    const auto relax_seed = [&](NodeId from, NodeId to) {
      const Cost df = tree.dist[static_cast<std::size_t>(from)];
      if (df == kInfiniteCost) return;
      const Cost nd = df + d.new_cost;
      if (nd < tree.dist[static_cast<std::size_t>(to)]) {
        tree.dist[static_cast<std::size_t>(to)] = nd;
        set_bit(to, kTouched);
        heap_push(heap_, HeapItem{nd, to});
      }
    };
    relax_seed(e.u, e.v);
    relax_seed(e.v, e.u);
  }

  // --- Phase 3: settle the affected region (plain Dijkstra; dist values are
  // produced by the same dist[u] + cost additions a fresh run performs, so
  // the repaired array is the bitwise-identical pointwise minimum).
  while (!heap_.empty()) {
    const auto [d, u] = heap_pop(heap_);
    if (d > tree.dist[static_cast<std::size_t>(u)]) continue;  // stale entry
    const std::int32_t hi = csr.end(u);
    for (std::int32_t i = csr.begin(u); i < hi; ++i) {
      const CsrArc& a = csr.arcs[static_cast<std::size_t>(i)];
      const Cost nd = d + a.cost;
      auto& dv = tree.dist[static_cast<std::size_t>(a.to)];
      if (nd < dv) {
        dv = nd;
        set_bit(a.to, kTouched);
        heap_push(heap_, HeapItem{nd, a.to});
      }
    }
  }
  stats.improved = mark_touched_.size() - stats.invalidated;

  // --- Phase 4: parent fixup, reproducing the fresh run's tie-breaks.
  //
  // A fresh run's parent of v is the first SETTLED neighbor whose relaxation
  // attains dist[v] (later equal relaxations are not strict and never
  // overwrite).  Settle order is ascending (dist, node) — with one twist:
  // a node inside a distance-preserving plateau (neighbors at equal dist
  // joined by arcs with d + cost == d; zero-cost VM taps are the canonical
  // case) is only heap-present once a fellow member discovers it, so within
  // a plateau the order is discovery-driven, not id-driven.  Hence:
  //   * candidates strictly below dist[v]: the minimum (dist[u], u, edge)
  //     wins — unless several tie on dist[u] and sit inside plateaus, where
  //     settle_rank_winner replays their level to rank them;
  //   * candidates at dist[v] (v's own plateau): resolve_plateau replays the
  //     whole plateau and rewrites every non-entry member's parent.
  // Only nodes whose outcome could have changed are fixed: dist-touched
  // nodes, their neighbors, the endpoints of every delta, and — queued by
  // resolve_plateau — the neighbors of any replayed plateau (a reshuffled
  // plateau changes which member settles first, which re-parents downstream
  // neighbors whose own dist never moved).
  const auto assign_parent = [&](NodeId v, NodeId pu, EdgeId pe) {
    const auto vi = static_cast<std::size_t>(v);
    if (tree.parent[vi] != pu || tree.parent_edge[vi] != pe) {
      tree.parent[vi] = pu;
      tree.parent_edge[vi] = pe;
      ++stats.reparented;
    }
  };

  fix_.clear();
  const auto queue_fix = [&](NodeId v) {
    if (has_bit(v, kFixQueued)) return;
    set_bit(v, kFixQueued);
    fix_.push_back(v);
  };

  const auto heap_push_id = [&](std::vector<NodeId>& h, NodeId v) {
    h.push_back(v);
    std::push_heap(h.begin(), h.end(), std::greater<>{});
  };
  const auto heap_pop_id = [&](std::vector<NodeId>& h) {
    std::pop_heap(h.begin(), h.end(), std::greater<>{});
    const NodeId top = h.back();
    h.pop_back();
    return top;
  };

  /// True iff `v` starts level `d` heap-present: it is the source or some
  /// strictly-below neighbor's relaxation attains d.
  const auto is_entry = [&](NodeId v, Cost d) {
    if (v == tree.source) return true;
    const std::int32_t hi = csr.end(v);
    for (std::int32_t i = csr.begin(v); i < hi; ++i) {
      const CsrArc& a = csr.arcs[static_cast<std::size_t>(i)];
      const Cost du = tree.dist[static_cast<std::size_t>(a.to)];
      if (du < d && du + a.cost == d) return true;
    }
    return false;
  };

  /// Replays level-`d` settling restricted to the plateaus containing the
  /// kCandTarget-marked candidates (pre-collected in cand_members_ via
  /// kCandSeen) and returns the first candidate to settle.  Relative order
  /// is exact: discovery only travels preserving arcs inside a plateau, and
  /// among heap-present nodes the (dist, node) heap pops ascending ids —
  /// unrelated level-d nodes interleave but never reorder these.
  const auto settle_rank_winner = [&](Cost d) {
    // Expand the collected seeds to full plateaus.
    for (std::size_t k = 0; k < cand_members_.size(); ++k) {
      const NodeId v = cand_members_[k];
      const std::int32_t hi = csr.end(v);
      for (std::int32_t i = csr.begin(v); i < hi; ++i) {
        const CsrArc& a = csr.arcs[static_cast<std::size_t>(i)];
        if (d + a.cost != d) continue;
        if (tree.dist[static_cast<std::size_t>(a.to)] != d) continue;
        if (has_bit(a.to, kCandSeen)) continue;
        set_bit(a.to, kCandSeen);
        cand_members_.push_back(a.to);
      }
    }
    plateau_heap_.clear();
    for (NodeId v : cand_members_) {
      if (is_entry(v, d)) {
        set_bit(v, kCandDone);
        heap_push_id(plateau_heap_, v);
      }
    }
    assert(!plateau_heap_.empty() && "a settled level must have an entry node");
    NodeId winner = kInvalidNode;
    while (winner == kInvalidNode && !plateau_heap_.empty()) {
      const NodeId u = heap_pop_id(plateau_heap_);
      if (has_bit(u, kCandTarget)) {
        winner = u;
        break;
      }
      const std::int32_t hi = csr.end(u);
      for (std::int32_t i = csr.begin(u); i < hi; ++i) {
        const CsrArc& a = csr.arcs[static_cast<std::size_t>(i)];
        if (d + a.cost != d) continue;
        if (tree.dist[static_cast<std::size_t>(a.to)] != d) continue;
        if (has_bit(a.to, kCandDone)) continue;
        set_bit(a.to, kCandDone);
        heap_push_id(plateau_heap_, a.to);
      }
    }
    assert(winner != kInvalidNode && "some candidate must settle");
    for (NodeId v : cand_members_) {
      mark_[static_cast<std::size_t>(v)] &= static_cast<std::uint8_t>(~(kCandSeen | kCandDone | kCandTarget));
    }
    cand_members_.clear();
    return winner;
  };

  /// Replays the whole plateau of `start` (collected via kPlateauSeen so
  /// each plateau is resolved at most once per repair): entry nodes keep
  /// their strictly-below parents, every other member is re-parented by its
  /// replay discoverer, and all members' neighbors join the fix worklist.
  const auto resolve_plateau = [&](NodeId start) {
    const Cost d = tree.dist[static_cast<std::size_t>(start)];
    plateau_members_.clear();
    set_bit(start, kPlateauSeen);
    plateau_members_.push_back(start);
    for (std::size_t k = 0; k < plateau_members_.size(); ++k) {
      const NodeId v = plateau_members_[k];
      const std::int32_t hi = csr.end(v);
      for (std::int32_t i = csr.begin(v); i < hi; ++i) {
        const CsrArc& a = csr.arcs[static_cast<std::size_t>(i)];
        if (d + a.cost != d) continue;  // not distance-preserving
        if (tree.dist[static_cast<std::size_t>(a.to)] != d) continue;
        if (has_bit(a.to, kPlateauSeen)) continue;
        set_bit(a.to, kPlateauSeen);
        plateau_members_.push_back(a.to);
      }
    }
    plateau_heap_.clear();
    for (NodeId v : plateau_members_) {
      if (is_entry(v, d)) {
        set_bit(v, kPlateauDone);
        heap_push_id(plateau_heap_, v);
      }
    }
    assert(!plateau_heap_.empty() && "a settled plateau must have an entry node");
    while (!plateau_heap_.empty()) {
      const NodeId u = heap_pop_id(plateau_heap_);
      const std::int32_t hi = csr.end(u);
      for (std::int32_t i = csr.begin(u); i < hi; ++i) {
        const CsrArc& a = csr.arcs[static_cast<std::size_t>(i)];
        if (d + a.cost != d) continue;
        if (tree.dist[static_cast<std::size_t>(a.to)] != d) continue;
        if (has_bit(a.to, kPlateauDone)) continue;
        set_bit(a.to, kPlateauDone);
        assign_parent(a.to, u, a.edge);  // first preserving arc in u's order
        heap_push_id(plateau_heap_, a.to);
      }
    }
    for (NodeId v : plateau_members_) {
      const std::int32_t hi = csr.end(v);
      for (std::int32_t i = csr.begin(v); i < hi; ++i) {
        queue_fix(csr.arcs[static_cast<std::size_t>(i)].to);
      }
    }
  };

  const std::size_t touched_count = mark_touched_.size();
  for (std::size_t k = 0; k < touched_count; ++k) {
    const NodeId v = mark_touched_[k];
    queue_fix(v);
    const std::int32_t hi = csr.end(v);
    for (std::int32_t i = csr.begin(v); i < hi; ++i) {
      queue_fix(csr.arcs[static_cast<std::size_t>(i)].to);
    }
  }
  for (const EdgeCostDelta& d : deltas) {
    if (d.new_cost == d.old_cost) continue;
    queue_fix(g_->edge(d.edge).u);
    queue_fix(g_->edge(d.edge).v);
  }

  for (std::size_t k = 0; k < fix_.size(); ++k) {  // grows as plateaus resolve
    const NodeId v = fix_[k];
    const auto vi = static_cast<std::size_t>(v);
    if (v == tree.source) continue;
    if (tree.dist[vi] == kInfiniteCost) {
      assign_parent(v, kInvalidNode, kInvalidEdge);
      continue;
    }
    const Cost dv = tree.dist[vi];
    NodeId bu = kInvalidNode;
    EdgeId be = kInvalidEdge;
    Cost bd = kInfiniteCost;
    bool tie_arc = false;
    bool group_multi = false;  // several distinct candidates tie on min dist
    const std::int32_t hi = csr.end(v);
    for (std::int32_t i = csr.begin(v); i < hi; ++i) {
      const CsrArc& a = csr.arcs[static_cast<std::size_t>(i)];
      const Cost du = tree.dist[static_cast<std::size_t>(a.to)];
      if (du + a.cost != dv) continue;  // not attaining (bitwise-exact test)
      if (du == dv) {
        tie_arc = true;  // v's own plateau; ordering is discovery-driven
        continue;
      }
      if (du < bd) {
        bd = du;
        bu = a.to;
        be = a.edge;
        group_multi = false;
      } else if (du == bd) {
        if (a.to != bu) group_multi = true;
        if (a.to < bu || (a.to == bu && a.edge < be)) {
          bu = a.to;
          be = a.edge;
        }
      }
    }
    assert((bu != kInvalidNode || tie_arc) && "finite dist must be supported by some arc");
    if (bu != kInvalidNode) {
      if (group_multi) {
        // Does any min-dist candidate sit inside a preserving plateau?  If
        // not, all are heap-present when their level starts and ascending
        // node id is the settle order — bu/be already hold the winner.
        bool plateau_bound = false;
        cand_members_.clear();
        for (std::int32_t i = csr.begin(v); i < hi; ++i) {
          const CsrArc& a = csr.arcs[static_cast<std::size_t>(i)];
          if (tree.dist[static_cast<std::size_t>(a.to)] != bd || bd + a.cost != dv) continue;
          if (!has_bit(a.to, kCandSeen)) {
            set_bit(a.to, kCandSeen);
            set_bit(a.to, kCandTarget);
            cand_members_.push_back(a.to);
            const std::int32_t chi = csr.end(a.to);
            for (std::int32_t j = csr.begin(a.to); !plateau_bound && j < chi; ++j) {
              const CsrArc& c = csr.arcs[static_cast<std::size_t>(j)];
              if (bd + c.cost == bd && tree.dist[static_cast<std::size_t>(c.to)] == bd) {
                plateau_bound = true;
              }
            }
          }
        }
        if (plateau_bound) {
          const NodeId win = settle_rank_winner(bd);
          if (win != bu) {
            bu = win;
            be = kInvalidEdge;
            for (std::int32_t i = csr.begin(v); i < hi; ++i) {
              const CsrArc& a = csr.arcs[static_cast<std::size_t>(i)];
              if (a.to == win && bd + a.cost == dv) {
                be = a.edge;  // ascending scan: first hit is the minimal edge
                break;
              }
            }
            assert(be != kInvalidEdge);
          }
        } else {
          for (NodeId m : cand_members_) {
            mark_[static_cast<std::size_t>(m)] &=
                static_cast<std::uint8_t>(~(kCandSeen | kCandTarget));
          }
          cand_members_.clear();
        }
      }
      assign_parent(v, bu, be);
    }
    if (tie_arc && !has_bit(v, kPlateauSeen)) resolve_plateau(v);
  }

  // mark_touched_ is the superset of everything this repair wrote or queued
  // — exactly the over-approximated change set the pricing cache consumes.
  if (touched_out != nullptr && stats.changed_anything()) {
    touched_out->insert(touched_out->end(), mark_touched_.begin(), mark_touched_.end());
  }
  for (NodeId v : mark_touched_) mark_[static_cast<std::size_t>(v)] = 0;
  mark_touched_.clear();
  return stats;
}

const VoronoiPartition& ShortestPathEngine::run_multi(std::span<const NodeId> sources) {
  assert(g_ != nullptr && "engine is not attached to a graph");
  const CsrView& csr = g_->csr();
  const auto n = static_cast<std::size_t>(g_->node_count());
  reset_voronoi(n);

  // Seed in ascending id order (duplicates skipped).  With the
  // (dist, owner, node) label order this is cosmetic — ownership of ties is
  // decided by the lexicographic relaxation below, not by seed order — but
  // it keeps the initial heap layout canonical.
  seeds_.assign(sources.begin(), sources.end());
  std::sort(seeds_.begin(), seeds_.end());
  multi_heap_.clear();
  for (NodeId s : seeds_) {
    assert(g_->valid_node(s));
    auto& d = vor_.dist[static_cast<std::size_t>(s)];
    if (d == 0.0) continue;  // duplicate seed
    d = 0.0;
    vor_.owner[static_cast<std::size_t>(s)] = s;
    vor_touched_.push_back(s);
    heap_push(multi_heap_, MultiHeapItem{0.0, s, s});
  }

  // Lexicographic Dijkstra on labels (dist, owner): a node's settled label
  // is min over sources s of (d(s, v), s), i.e. the nearest source with the
  // smallest id among equals.  Standard Dijkstra finality holds because edge
  // relaxation is monotone in the label order (nonnegative cost added to
  // dist, owner carried through), so owners never change after settling and
  // parent chains stay within one Voronoi cell.
  while (!multi_heap_.empty()) {
    const auto [d, o, u] = heap_pop(multi_heap_);
    const auto ui = static_cast<std::size_t>(u);
    if (d > vor_.dist[ui] || (d == vor_.dist[ui] && o > vor_.owner[ui])) continue;  // stale
    const std::int32_t hi = csr.end(u);
    for (std::int32_t i = csr.begin(u); i < hi; ++i) {
      const CsrArc& a = csr.arcs[static_cast<std::size_t>(i)];
      const Cost nd = d + a.cost;
      const auto ti = static_cast<std::size_t>(a.to);
      // The tie branch never re-owns a seed (owner == self): every source
      // must keep its own Voronoi cell even when a zero-cost path from a
      // smaller source reaches it at distance 0 — Mehlhorn's bridge MST
      // needs all |T| cells non-empty, and the library's VM-tap and
      // auxiliary-graph constructions make zero-cost edges routine.
      if (nd < vor_.dist[ti] ||
          (nd == vor_.dist[ti] && o < vor_.owner[ti] && vor_.owner[ti] != a.to)) {
        if (vor_.dist[ti] == kInfiniteCost) vor_touched_.push_back(a.to);
        vor_.dist[ti] = nd;
        vor_.owner[ti] = o;
        vor_.parent[ti] = u;
        vor_.parent_edge[ti] = a.edge;
        heap_push(multi_heap_, MultiHeapItem{nd, o, a.to});
      }
    }
  }
  return vor_;
}

}  // namespace sofe::graph
