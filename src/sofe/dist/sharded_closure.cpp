#include "sofe/dist/sharded_closure.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <unordered_set>
#include <utility>

#include "sofe/util/fork_join.hpp"

namespace sofe::dist {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

void ShardedClosure::plan_domain(int d) {
  const auto du = static_cast<std::size_t>(d);
  auto& ds = domains_[du];
  const std::size_t members = part_.members[du].size();

  // Roots: the domain's borders (ascending, as partitioned) then the hubs it
  // owns, in hub-list order, deduplicated.
  ds.roots.clear();
  ds.row_of_local.assign(members, -1);
  const auto add_root = [&](NodeId global) {
    const int lv = dg_.local(global);
    if (ds.row_of_local[static_cast<std::size_t>(lv)] >= 0) return;
    ds.row_of_local[static_cast<std::size_t>(lv)] = static_cast<int>(ds.roots.size());
    ds.roots.push_back(global);
  };
  for (NodeId b : part_.borders[du]) add_root(b);
  for (NodeId h : hubs_) {
    if (part_.domain(h) == d) add_root(h);
  }

  // Advertisement targets: borders ∪ owned hubs ∪ owned cold-build
  // destinations (local ids).
  ds.targets_local.clear();
  ds.is_target_local.assign(members, 0);
  const auto add_target = [&](NodeId global) {
    const auto lv = static_cast<std::size_t>(dg_.local(global));
    if (ds.is_target_local[lv]) return;
    ds.is_target_local[lv] = 1;
    ds.targets_local.push_back(static_cast<NodeId>(lv));
  };
  for (NodeId b : part_.borders[du]) add_target(b);
  for (NodeId h : hubs_) {
    if (part_.domain(h) == d) add_target(h);
  }
  for (NodeId t : dests_) {
    if (part_.domain(t) == d) add_target(t);
  }
}

std::vector<NodeId> ShardedClosure::local_roots(int d) const {
  const auto& roots = domains_[static_cast<std::size_t>(d)].roots;
  std::vector<NodeId> out;
  out.reserve(roots.size());
  for (NodeId r : roots) out.push_back(static_cast<NodeId>(dg_.local(r)));
  return out;
}

void ShardedClosure::build_domain(int d, int inner_threads) {
  const auto t0 = Clock::now();
  const auto du = static_cast<std::size_t>(d);
  auto& ds = domains_[du];
  plan_domain(d);

  ds.local.build(dg_.domains[du].subgraph, local_roots(d), inner_threads);

  ds.advert.resize(ds.roots.size());
  for (std::size_t i = 0; i < ds.roots.size(); ++i) {
    ds.advert[i] = advertise_row(d, ds.roots[i]);
  }
  ds.build_seconds = seconds_since(t0);
}

std::vector<EdgeId> ShardedClosure::advertise_row(int d, NodeId root_global) const {
  const auto du = static_cast<std::size_t>(d);
  const auto& dom = dg_.domains[du];
  const auto& ds = domains_[du];
  const auto root_local = static_cast<NodeId>(dg_.local(root_global));
  const auto& t = ds.local.tree(root_local);

  std::vector<char> marked(static_cast<std::size_t>(dom.subgraph.edge_count()), 0);
  // Parent chains from every reachable target back to the root.  Chains to
  // the root share suffixes, so each walk stops at the first already-marked
  // parent edge.
  for (NodeId tl : ds.targets_local) {
    if (!t.reachable(tl)) continue;
    for (NodeId v = tl; t.parent[static_cast<std::size_t>(v)] != graph::kInvalidNode;
         v = t.parent[static_cast<std::size_t>(v)]) {
      const auto e = static_cast<std::size_t>(t.parent_edge[static_cast<std::size_t>(v)]);
      if (marked[e]) break;
      marked[e] = 1;
    }
  }
  // A root that is a zero-cost tap (the canonical VM attachment) advertises
  // its tap edge unconditionally, so the stitched build classifies it as a
  // tap exactly when the global build does, even when no target is
  // reachable from it.
  if (const auto arcs = dom.subgraph.neighbors(root_local);
      arcs.size() == 1 && dom.subgraph.edge(arcs[0].edge).cost == 0.0) {
    marked[static_cast<std::size_t>(arcs[0].edge)] = 1;
  }

  // Local edge ids map to global ids in insertion order, so scanning
  // ascending local ids yields a sorted global list for free.
  std::vector<EdgeId> out;
  for (std::size_t le = 0; le < marked.size(); ++le) {
    if (marked[le]) out.push_back(dom.edge_global[le]);
  }
  return out;
}

std::size_t ShardedClosure::swap_advert(std::vector<EdgeId>& advert,
                                        std::vector<EdgeId> fresh) {
  // Both vectors are sorted: one merge pass finds removals and additions.
  std::size_t moved = 0;
  std::size_t i = 0, j = 0;
  while (i < advert.size() || j < fresh.size()) {
    if (j == fresh.size() || (i < advert.size() && advert[i] < fresh[j])) {
      --ref_[static_cast<std::size_t>(advert[i])];
      touched_.push_back(advert[i]);
      ++moved;
      ++i;
    } else if (i == advert.size() || fresh[j] < advert[i]) {
      ++ref_[static_cast<std::size_t>(fresh[j])];
      touched_.push_back(fresh[j]);
      ++moved;
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  advert = std::move(fresh);
  return moved;
}

void ShardedClosure::repair_stitch(const Graph& g, int num_threads,
                                   std::vector<graph::MetricClosure::RowDelta>* changed) {
  // masked_ holds the costs the stitched closure was last built or repaired
  // against, so each touched edge moves from its masked_ cost to its real
  // cost if some advertisement names it, else to +inf.
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()), touched_.end());
  std::vector<graph::EdgeCostDelta> mask_deltas;
  for (EdgeId e : touched_) {
    const Cost old_eff = masked_.edge(e).cost;
    const Cost now =
        ref_[static_cast<std::size_t>(e)] > 0 ? g.edge(e).cost : graph::kInfiniteCost;
    if (now != old_eff) {
      masked_.set_edge_cost(e, now);
      mask_deltas.push_back({e, old_eff, now});
    }
  }
  touched_.clear();
  stats_.skeleton_edges = static_cast<std::size_t>(
      std::count_if(ref_.begin(), ref_.end(), [](int r) { return r > 0; }));
  if (mask_deltas.empty()) return;

  const auto t0 = Clock::now();
  std::vector<graph::MetricClosure::RowDelta> flips;
  stitched_.refresh(masked_, mask_deltas, num_threads, nullptr,
                    changed != nullptr ? &flips : nullptr);
  if (changed != nullptr) {
    changed->insert(changed->end(), std::make_move_iterator(flips.begin()),
                    std::make_move_iterator(flips.end()));
  }
  stats_.stitch_seconds += seconds_since(t0);
}

void ShardedClosure::build(const Graph& g, Partition part, std::vector<NodeId> hubs,
                           std::span<const NodeId> destinations, int num_threads,
                           MessageBus& bus) {
  part_ = std::move(part);
  dg_ = DomainGraphs(g, part_);
  hubs_ = std::move(hubs);
  dests_.assign(destinations.begin(), destinations.end());
  stats_ = Stats{};
  touched_.clear();
  const int k = part_.num_domains;
  stats_.domains = k;

  // All k controllers build their local closures in parallel: min(threads,
  // k) outer lanes claim domains one by one, each local MetricClosure build
  // getting the leftover inner threads.  Every domain writes only its own
  // preassigned DomainState slot, so the result is bit-identical at any
  // thread count (as MetricClosure's own parallel build already is).
  domains_.clear();
  domains_.resize(static_cast<std::size_t>(k));
  const int outer = util::lane_count(num_threads, static_cast<std::size_t>(k));
  const int inner = std::max(1, num_threads / outer);
  std::atomic<int> next_domain{0};
  util::fork_join(outer, nullptr, [&](int) {
    for (int d; (d = next_domain++) < k;) build_domain(d, inner);
  });
  for (const auto& ds : domains_) {
    stats_.local_build_seconds_total += ds.build_seconds;
    stats_.local_build_seconds_max = std::max(stats_.local_build_seconds_max, ds.build_seconds);
  }

  // Row exchange: non-coordinator controllers ship each row — its advertised
  // chain edges plus the per-target distance slots — to the coordinator.
  for (int d = 0; d < k; ++d) {
    const auto& ds = domains_[static_cast<std::size_t>(d)];
    for (const auto& row : ds.advert) {
      const std::size_t entries = row.size() + ds.targets_local.size();
      ++stats_.rows;
      stats_.entries += entries;
      if (d != 0) {
        bus.send(entries);
        ++stats_.exchanged_rows;
        stats_.exchanged_entries += entries;
        stats_.exchanged_bytes += entries * sizeof(Cost);
      }
    }
  }
  if (k > 1) {
    bus.end_round();
    stats_.exchange_rounds = 1;
  }

  // Stitch: mask every edge no advertisement mentions (cross links carry a
  // permanent base count — both endpoint controllers always see them) and
  // run the ordinary closure over the masked copy.
  ref_.assign(static_cast<std::size_t>(g.edge_count()), 0);
  for (std::size_t e = 0; e < ref_.size(); ++e) {
    if (dg_.edge_local[e] == graph::kInvalidEdge) ref_[e] = 1;
  }
  for (const auto& ds : domains_) {
    for (const auto& row : ds.advert) {
      for (EdgeId e : row) ++ref_[static_cast<std::size_t>(e)];
    }
  }
  const auto t0 = Clock::now();
  masked_ = g;
  for (std::size_t e = 0; e < ref_.size(); ++e) {
    if (ref_[e] == 0) {
      masked_.set_edge_cost(static_cast<EdgeId>(e), graph::kInfiniteCost);
    } else {
      ++stats_.skeleton_edges;
    }
  }
  stitched_.build(masked_, hubs_, num_threads);
  stats_.stitch_seconds = seconds_since(t0);
}

void ShardedClosure::refresh(const Graph& g, std::span<const graph::EdgeCostDelta> deltas,
                             int num_threads, MessageBus& bus,
                             std::vector<graph::MetricClosure::RowDelta>* changed) {
  const int k = part_.num_domains;

  // Route every delta to its owning domain; cross-link deltas have no owner
  // and hit the mask directly (their refcount base never drops).
  std::vector<std::vector<graph::EdgeCostDelta>> local_deltas(static_cast<std::size_t>(k));
  for (const auto& dc : deltas) {
    touched_.push_back(dc.edge);
    const EdgeId le = dg_.edge_local[static_cast<std::size_t>(dc.edge)];
    if (le == graph::kInvalidEdge) continue;
    const int dm = part_.domain(g.edge(dc.edge).u);
    local_deltas[static_cast<std::size_t>(dm)].push_back({le, dc.old_cost, dc.new_cost});
    dg_.domains[static_cast<std::size_t>(dm)].subgraph.set_edge_cost(le, dc.new_cost);
  }

  // Owning domains repair their local closures; only the dirtied rows
  // re-advertise, and only non-coordinator rows re-ship — the incremental
  // comms path.
  bool sent = false;
  std::vector<graph::MetricClosure::RowDelta> local_changed;
  for (int d = 0; d < k; ++d) {
    const auto du = static_cast<std::size_t>(d);
    if (local_deltas[du].empty()) continue;
    auto& ds = domains_[du];
    ds.local.refresh(dg_.domains[du].subgraph, local_deltas[du], num_threads, nullptr,
                     &local_changed);
    for (const auto& rc : local_changed) {
      const int row = ds.row_of_local[static_cast<std::size_t>(rc.hub)];
      assert(row >= 0 && "local refresh reported a non-root row");
      const auto ru = static_cast<std::size_t>(row);
      swap_advert(ds.advert[ru], advertise_row(d, ds.roots[ru]));
      ++stats_.repaired_rows;
      const std::size_t entries = ds.advert[ru].size() + ds.targets_local.size();
      if (d != 0) {
        bus.send(entries);
        ++stats_.exchanged_rows;
        stats_.exchanged_entries += entries;
        stats_.exchanged_bytes += entries * sizeof(Cost);
        sent = true;
      }
    }
  }
  if (sent) {
    bus.end_round();
    ++stats_.exchange_rounds;
  }

  if (changed != nullptr) changed->clear();
  repair_stitch(g, num_threads, changed);
}

void ShardedClosure::extend(const Graph& g, const std::vector<NodeId>& hubs, int num_threads,
                            MessageBus& bus,
                            std::vector<graph::MetricClosure::RowDelta>* changed) {
  const int k = part_.num_domains;

  std::vector<NodeId> missing;
  for (NodeId h : hubs) {
    if (!stitched_.is_hub(h)) missing.push_back(h);
  }
  if (missing.empty()) return;

  std::vector<std::vector<NodeId>> new_hubs_of(static_cast<std::size_t>(k));
  for (NodeId h : missing) {
    new_hubs_of[static_cast<std::size_t>(part_.domain(h))].push_back(h);
  }

  bool sent = false;
  for (int d = 0; d < k; ++d) {
    const auto du = static_cast<std::size_t>(d);
    if (new_hubs_of[du].empty()) continue;
    auto& ds = domains_[du];

    // New local roots and targets for the hubs this domain now owns.  A
    // border is a root and a target already; every other hub is new here,
    // since retain() drops the roots and targets of the hubs it drops.
    std::vector<NodeId> new_root_locals;
    const std::size_t old_rows = ds.roots.size();
    std::size_t new_targets = 0;
    for (NodeId h : new_hubs_of[du]) {
      const auto lv = static_cast<std::size_t>(dg_.local(h));
      if (ds.row_of_local[lv] < 0) {
        ds.row_of_local[lv] = static_cast<int>(ds.roots.size());
        ds.roots.push_back(h);
        new_root_locals.push_back(static_cast<NodeId>(lv));
      }
      if (!ds.is_target_local[lv]) {
        ds.is_target_local[lv] = 1;
        ds.targets_local.push_back(static_cast<NodeId>(lv));
        ++new_targets;
      }
    }
    if (!new_root_locals.empty()) {
      ds.local.extend(dg_.domains[du].subgraph, new_root_locals, num_threads);
      ds.advert.resize(ds.roots.size());
    }

    // Every pre-existing root must now also advertise its chains toward the
    // new targets (the final segment of any global chain into a new hub
    // enters this domain at one of these roots); it ships only its edge-set
    // diff plus one distance slot per new target.  New rows advertise — and
    // ship — in full.
    for (std::size_t row = 0; row < ds.roots.size(); ++row) {
      const bool fresh_row = row >= old_rows;
      if (!fresh_row && new_targets == 0) continue;
      const std::size_t moved = swap_advert(ds.advert[row], advertise_row(d, ds.roots[row]));
      const std::size_t entries = moved + (fresh_row ? ds.targets_local.size() : new_targets);
      ++stats_.repaired_rows;
      if (fresh_row) {
        ++stats_.rows;
        stats_.entries += entries;
      }
      if (d != 0) {
        bus.send(entries);
        ++stats_.exchanged_rows;
        stats_.exchanged_entries += entries;
        stats_.exchanged_bytes += entries * sizeof(Cost);
        sent = true;
      }
    }
  }
  if (sent) {
    bus.end_round();
    ++stats_.exchange_rounds;
  }

  // Freshly advertised edges (and the withdrawals of the last retain) flip
  // the mask — legal deltas for the stitched repair — then the new hub
  // rows extend the stitched view.
  repair_stitch(g, num_threads, changed);
  hubs_.insert(hubs_.end(), missing.begin(), missing.end());
  const auto t0 = Clock::now();
  stitched_.extend(masked_, hubs_, num_threads);
  stats_.stitch_seconds += seconds_since(t0);
}

void ShardedClosure::retain(const std::vector<NodeId>& hubs) {
  stitched_.retain(hubs);
  const std::unordered_set<NodeId> keep(hubs.begin(), hubs.end());
  std::vector<char> lost(static_cast<std::size_t>(part_.num_domains), 0);
  std::erase_if(hubs_, [&](NodeId h) {
    if (keep.contains(h)) return false;
    lost[static_cast<std::size_t>(part_.domain(h))] = 1;
    return true;
  });

  // The local layer is request-scoped too (DESIGN.md §13): a domain that
  // lost a hub re-plans to its borders plus the hubs it still owns.  A
  // dropped root leaves the local closure and withdraws its advertisement;
  // the refcount moves wait in touched_ for the stitched repair of the next
  // refresh() or extend(), and until then the mask merely over-covers.
  for (int d = 0; d < part_.num_domains; ++d) {
    const auto du = static_cast<std::size_t>(d);
    if (!lost[du]) continue;
    auto& ds = domains_[du];
    const std::vector<NodeId> old_roots = std::move(ds.roots);
    std::vector<std::vector<EdgeId>> old_advert = std::move(ds.advert);
    plan_domain(d);
    ds.advert.assign(ds.roots.size(), {});
    for (std::size_t r = 0; r < old_roots.size(); ++r) {
      const int row = ds.row_of_local[static_cast<std::size_t>(dg_.local(old_roots[r]))];
      if (row >= 0) {
        ds.advert[static_cast<std::size_t>(row)] = std::move(old_advert[r]);
      } else {
        swap_advert(old_advert[r], {});
      }
    }
    ds.local.retain(local_roots(d));
    assert(ds.local.hub_count() == ds.roots.size());
  }
}

std::size_t ShardedClosure::memory_bytes() const {
  std::size_t bytes = stitched_.memory_bytes();
  for (const DomainState& ds : domains_) bytes += ds.local.memory_bytes();
  return bytes;
}

}  // namespace sofe::dist
