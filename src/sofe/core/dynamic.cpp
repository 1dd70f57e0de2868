#include "sofe/core/dynamic.hpp"

#include <algorithm>
#include <cassert>
#include <set>

#include "sofe/kstroll/instance.hpp"

namespace sofe::core {

namespace {

/// Splices `mid` (a path a..b, inclusive) into walk `w`, replacing positions
/// [a_pos, b_pos].  VNF positions shift accordingly; positions strictly
/// inside the replaced span must have been cleared by the caller.
void splice_segment(ChainWalk& w, std::size_t a_pos, std::size_t b_pos,
                    const std::vector<NodeId>& mid) {
  assert(a_pos < b_pos && b_pos < w.nodes.size());
  assert(mid.front() == w.nodes[a_pos] && mid.back() == w.nodes[b_pos]);
  const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(a_pos + mid.size() - 1) -
                               static_cast<std::ptrdiff_t>(b_pos);
  std::vector<NodeId> nodes(w.nodes.begin(), w.nodes.begin() + static_cast<std::ptrdiff_t>(a_pos));
  nodes.insert(nodes.end(), mid.begin(), mid.end());
  nodes.insert(nodes.end(), w.nodes.begin() + static_cast<std::ptrdiff_t>(b_pos) + 1,
               w.nodes.end());
  w.nodes = std::move(nodes);
  for (std::size_t& pos : w.vnf_pos) {
    assert(pos <= a_pos || pos >= b_pos);
    if (pos >= b_pos) pos = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(pos) + shift);
  }
}

}  // namespace

const graph::ShortestPathTree& DynamicForest::paths_from(NodeId from) {
  // Rebind after construction or a move, and drop every cached tree when the
  // network mutated since it was built (edge-cost updates included —
  // Graph::version() covers set_edge_cost, add_edge and add_node).
  if (engine_.graph() != &p_.network || cache_version_ != p_.network.version()) {
    engine_.attach(p_.network);
    path_cache_.clear();
    cache_version_ = p_.network.version();
  }
  auto it = path_cache_.find(from);
  if (it == path_cache_.end()) {
    it = path_cache_.emplace(from, graph::ShortestPathTree{}).first;
    engine_.run_into(from, it->second);
  }
  return it->second;
}

bool DynamicForest::destination_leave(NodeId d) {
  const auto before = f_.walks.size();
  std::erase_if(f_.walks, [d](const ChainWalk& w) { return w.destination == d; });
  std::erase(p_.destinations, d);
  return f_.walks.size() != before;
}

bool DynamicForest::destination_join(NodeId d, const AlgoOptions& opt) {
  if (std::find(p_.destinations.begin(), p_.destinations.end(), d) != p_.destinations.end()) {
    return false;  // already served
  }
  const int chain = p_.chain_length;
  const auto enabled = f_.enabled_vms();
  std::vector<NodeId> fresh_vms;
  for (NodeId v : p_.vms()) {
    if (!enabled.contains(v)) fresh_vms.push_back(v);
  }

  struct Attachment {
    Cost cost = graph::kInfiniteCost;
    std::size_t walk = 0;
    std::size_t pos = 0;             // attachment position within the walk
    std::vector<NodeId> completion;  // nodes after the attachment point
    std::vector<std::size_t> completion_slots;  // positions within completion
  };
  Attachment best;

  // Candidate attachment points: every (walk, position) pair, deduplicated by
  // (node, #VNFs applied) since the completion cost only depends on those.
  struct Candidate {
    std::size_t walk;
    std::size_t pos;
    NodeId node;
    int remaining;  // VNFs still to install past this attachment point
  };
  std::vector<Candidate> cands;
  std::set<std::pair<NodeId, int>> seen;
  for (std::size_t wi = 0; wi < f_.walks.size(); ++wi) {
    const ChainWalk& w = f_.walks[wi];
    for (std::size_t i = 0; i < w.nodes.size(); ++i) {
      const int fu = w.stage_at(i);  // VNFs applied at/before position i
      if (!seen.insert({w.nodes[i], fu}).second) continue;
      cands.push_back(Candidate{wi, i, w.nodes[i], chain - fu});
    }
  }

  // One closure for the whole join: trees for every fresh VM plus every
  // attachment point that needs a completion chain.  Each hub tree is an
  // independent Dijkstra, so pooling candidates changes nothing in any
  // tree — and VM taps (the canonical zero-cost access links) are derived,
  // not recomputed, making the join cost one Dijkstra per distinct host
  // instead of O(candidates · fresh VMs) full runs.  Every query below is
  // hub-to-hub (reachability, stroll pricing, path lifting; the suffix to
  // the destination rides paths_from).  The closure object persists on the
  // DynamicForest so consecutive joins reuse its tree storage.
  graph::MetricClosure& closure = join_closure_;
  bool have_closure = false;
  if (static_cast<int>(fresh_vms.size()) >= 1) {
    std::vector<NodeId> hubs = fresh_vms;
    for (const Candidate& c : cands) {
      if (c.remaining > 0 && static_cast<int>(fresh_vms.size()) >= c.remaining) {
        hubs.push_back(c.node);
        have_closure = true;
      }
    }
    if (have_closure) {
      closure.build(p_.network, hubs, 1, &engine_);
    }
  }

  for (const Candidate& cand : cands) {
    const NodeId u = cand.node;

    if (cand.remaining == 0) {
      const auto& sp_u = paths_from(u);
      if (!sp_u.reachable(d) || u == d) continue;
      const Cost c = sp_u.distance(d);
      if (c < best.cost) {
        auto tail = sp_u.path_to(d);
        tail.erase(tail.begin());  // completion excludes the attachment node
        best = Attachment{c, cand.walk, cand.pos, std::move(tail), {}};
      }
      continue;
    }
    if (static_cast<int>(fresh_vms.size()) < cand.remaining) continue;
    assert(have_closure);
    // Completion chain: k-stroll from u through `remaining` fresh VMs to a
    // last VM u2, then the shortest path u2 -> d.  Reachability of d is
    // checked first: a stranded destination then skips every stroll.
    for (NodeId u2 : fresh_vms) {
      if (u2 == u || !closure.tree(u).reachable(u2)) continue;
      const auto& sp_u2 = paths_from(u2);
      if (!sp_u2.reachable(d)) continue;
      const auto inst = kstroll::build_stroll_instance(p_.network, closure, u, fresh_vms, u2,
                                                       p_.node_cost);
      const auto stroll = kstroll::solve_stroll(inst, cand.remaining + 1, opt.stroll);
      if (!stroll.feasible()) continue;
      const Cost c = stroll.cost + sp_u2.distance(d);
      if (c >= best.cost) continue;

      Attachment a;
      a.cost = c;
      a.walk = cand.walk;
      a.pos = cand.pos;
      for (std::size_t s = 0; s + 1 < stroll.order.size(); ++s) {
        const auto path = closure.path(inst.nodes[stroll.order[s]],
                                       inst.nodes[stroll.order[s + 1]]);
        a.completion.insert(a.completion.end(), path.begin() + 1, path.end());
        a.completion_slots.push_back(a.completion.size() - 1);
      }
      const auto suffix = sp_u2.path_to(d);
      a.completion.insert(a.completion.end(), suffix.begin() + 1, suffix.end());
      best = std::move(a);
    }
  }
  if (best.cost == graph::kInfiniteCost) return false;

  const ChainWalk& host = f_.walks[best.walk];
  ChainWalk w;
  w.source = host.source;
  w.destination = d;
  w.nodes.assign(host.nodes.begin(), host.nodes.begin() + static_cast<std::ptrdiff_t>(best.pos) + 1);
  for (std::size_t pos : host.vnf_pos) {
    if (pos <= best.pos) w.vnf_pos.push_back(pos);
  }
  const std::size_t offset = w.nodes.size();
  w.nodes.insert(w.nodes.end(), best.completion.begin(), best.completion.end());
  for (std::size_t rel : best.completion_slots) w.vnf_pos.push_back(offset + rel);
  assert(w.vnf_pos.size() == static_cast<std::size_t>(chain));

  f_.walks.push_back(std::move(w));
  p_.destinations.push_back(d);
  return true;
}

bool DynamicForest::vnf_delete(int j) {
  if (j < 1 || j > p_.chain_length) return false;
  for (ChainWalk& w : f_.walks) {
    assert(w.vnf_pos.size() == static_cast<std::size_t>(p_.chain_length));
    w.vnf_pos.erase(w.vnf_pos.begin() + (j - 1));
  }
  --p_.chain_length;
  // The deleted VM is now pass-through; shortcut it where globally cheaper
  // (the paper's reconnect-upstream-to-downstream rule).
  shorten_pass_through(p_, f_);
  return true;
}

bool DynamicForest::vnf_insert(int j, const AlgoOptions& opt) {
  (void)opt;
  if (j < 1 || j > p_.chain_length + 1) return false;
  const auto enabled = f_.enabled_vms();
  std::vector<NodeId> available;
  for (NodeId v : p_.vms()) {
    if (!enabled.contains(v)) available.push_back(v);
  }
  if (available.empty() && !f_.walks.empty()) return false;

  // VMs already picked for the new f_j by earlier walks may be shared.
  std::set<NodeId> chosen;
  for (ChainWalk& w : f_.walks) {
    // Anchors: upstream = f_{j-1} (or walk start), downstream = old f_j (or
    // walk end).
    const std::size_t a_pos = j >= 2 ? w.vnf_pos[static_cast<std::size_t>(j) - 2] : 0;
    const std::size_t b_pos = static_cast<std::size_t>(j) <= w.vnf_pos.size()
                                  ? w.vnf_pos[static_cast<std::size_t>(j) - 1]
                                  : w.nodes.size() - 1;
    const NodeId a = w.nodes[a_pos];
    const NodeId b = w.nodes[b_pos];
    const auto& sp_a = paths_from(a);

    NodeId pick = graph::kInvalidNode;
    Cost pick_cost = graph::kInfiniteCost;
    auto consider = [&](NodeId v) {
      if (v == a || !sp_a.reachable(v)) return;
      const auto& sp_v = paths_from(v);
      if (!sp_v.reachable(b)) return;
      // d(a,v) + c(v) + d(v,b); a shared pick's setup is already paid.
      const Cost setup = chosen.contains(v) ? 0.0 : p_.node_cost[static_cast<std::size_t>(v)];
      const Cost c = sp_a.distance(v) + setup + sp_v.distance(b);
      if (c < pick_cost) {
        pick_cost = c;
        pick = v;
      }
    };
    for (NodeId v : available) consider(v);
    for (NodeId v : chosen) consider(v);
    if (pick == graph::kInvalidNode) return false;
    chosen.insert(pick);

    // Clear any old slots strictly inside (a_pos, b_pos): impossible since
    // anchors are consecutive essential positions.  Build detour a→v→b.
    std::vector<NodeId> mid = paths_from(a).path_to(pick);
    const auto back = paths_from(pick).path_to(b);
    const std::size_t vm_rel = mid.size() - 1;
    mid.insert(mid.end(), back.begin() + 1, back.end());
    if (a_pos == b_pos) {
      // Degenerate: inserting past the end anchor when the walk ends at the
      // anchor (destination == upstream VM position).  Append instead.
      const std::size_t off = w.nodes.size() - 1;
      w.nodes.insert(w.nodes.end(), mid.begin() + 1, mid.end());
      w.vnf_pos.insert(w.vnf_pos.begin() + (j - 1), off + vm_rel);
    } else {
      splice_segment(w, a_pos, b_pos, mid);
      w.vnf_pos.insert(w.vnf_pos.begin() + (j - 1), a_pos + vm_rel);
      std::sort(w.vnf_pos.begin(), w.vnf_pos.end());
    }
  }
  ++p_.chain_length;
  return true;
}

int DynamicForest::reroute_link(EdgeId e, Cost new_cost) {
  const Cost old_cost = p_.network.edge(e).cost;
  p_.network.set_edge_cost(e, new_cost);  // bumps version()
  // Repair every cached tree in place instead of letting the version bump
  // flush the cache: one congested link is exactly the delta the engine's
  // incremental mode is built for, and the re-route scan below queries
  // trees from many anchors.  Requires the cache to have been current
  // before the mutation (cache_version_ + 1) and the engine to be bound to
  // this problem's network; otherwise paths_from's self-invalidation takes
  // over as before.
  if (engine_.graph() == &p_.network && cache_version_ + 1 == p_.network.version()) {
    if (new_cost != old_cost) {
      const graph::EdgeCostDelta delta{e, old_cost, new_cost};
      for (auto& [root, tree] : path_cache_) {
        (void)root;
        engine_.repair(tree, {&delta, 1});
      }
    }
    cache_version_ = p_.network.version();
  }
  const NodeId eu = p_.network.edge(e).u;
  const NodeId ev = p_.network.edge(e).v;

  int rerouted = 0;
  Cost best = total_cost(p_, f_);
  for (ChainWalk& w : f_.walks) {
    // Essential anchors: start, VNF slots, end.
    std::vector<std::size_t> anchors{0};
    anchors.insert(anchors.end(), w.vnf_pos.begin(), w.vnf_pos.end());
    if (anchors.back() != w.nodes.size() - 1) anchors.push_back(w.nodes.size() - 1);

    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t k = 0; k + 1 < anchors.size(); ++k) {
        const std::size_t a = anchors[k];
        const std::size_t b = anchors[k + 1];
        bool crosses = false;
        for (std::size_t i = a; i < b; ++i) {
          if ((w.nodes[i] == eu && w.nodes[i + 1] == ev) ||
              (w.nodes[i] == ev && w.nodes[i + 1] == eu)) {
            crosses = true;
            break;
          }
        }
        if (!crosses) continue;
        const auto& sp = paths_from(w.nodes[a]);
        if (!sp.reachable(w.nodes[b])) continue;
        const auto mid = sp.path_to(w.nodes[b]);
        if (b == a + static_cast<std::size_t>(mid.size()) - 1 &&
            std::equal(mid.begin(), mid.end(),
                       w.nodes.begin() + static_cast<std::ptrdiff_t>(a))) {
          continue;  // already the cheapest segment
        }
        // Splice tentatively: a per-walk shortest path can still lose
        // forest-wide when it abandons segments shared with other walks.
        ChainWalk saved = w;
        splice_segment(w, a, b, mid);
        const Cost now = total_cost(p_, f_);
        if (now > best + 1e-12) {
          w = std::move(saved);
          continue;
        }
        best = now;
        ++rerouted;
        // Re-derive anchors after the splice and restart this walk's scan.
        anchors.assign(1, 0);
        anchors.insert(anchors.end(), w.vnf_pos.begin(), w.vnf_pos.end());
        if (anchors.back() != w.nodes.size() - 1) anchors.push_back(w.nodes.size() - 1);
        changed = true;
        break;
      }
    }
  }
  return rerouted;
}

bool DynamicForest::migrate_vm(NodeId v, Cost new_cost, const AlgoOptions& opt) {
  (void)opt;
  assert(p_.is_vm[static_cast<std::size_t>(v)]);
  p_.node_cost[static_cast<std::size_t>(v)] = new_cost;
  const auto enabled = f_.enabled_vms();
  const auto it = enabled.find(v);
  if (it == enabled.end()) return true;  // not in use; nothing to migrate
  const int j = it->second;

  std::vector<NodeId> available;
  for (NodeId cand : p_.vms()) {
    if (cand != v && !enabled.contains(cand)) available.push_back(cand);
  }
  if (available.empty()) return false;

  // Choose the replacement minimizing the total detour over affected walks.
  struct Affected {
    std::size_t walk;
    std::size_t a_pos, v_pos, b_pos;
  };
  std::vector<Affected> affected;
  for (std::size_t wi = 0; wi < f_.walks.size(); ++wi) {
    ChainWalk& w = f_.walks[wi];
    const std::size_t slot = static_cast<std::size_t>(j) - 1;
    if (slot >= w.vnf_pos.size() || w.nodes[w.vnf_pos[slot]] != v) continue;
    const std::size_t v_pos = w.vnf_pos[slot];
    const std::size_t a_pos = slot > 0 ? w.vnf_pos[slot - 1] : 0;
    const std::size_t b_pos =
        slot + 1 < w.vnf_pos.size() ? w.vnf_pos[slot + 1] : w.nodes.size() - 1;
    affected.push_back(Affected{wi, a_pos, v_pos, b_pos});
  }
  if (affected.empty()) return true;

  NodeId pick = graph::kInvalidNode;
  Cost pick_cost = graph::kInfiniteCost;
  for (NodeId cand : available) {
    Cost total = p_.node_cost[static_cast<std::size_t>(cand)];
    bool ok = true;
    for (const Affected& af : affected) {
      const ChainWalk& w = f_.walks[af.walk];
      const auto& sp_a = paths_from(w.nodes[af.a_pos]);
      const auto& sp_c = paths_from(cand);
      if (!sp_a.reachable(cand) || !sp_c.reachable(w.nodes[af.b_pos])) {
        ok = false;
        break;
      }
      total += sp_a.distance(cand) + sp_c.distance(w.nodes[af.b_pos]);
    }
    if (ok && total < pick_cost) {
      pick_cost = total;
      pick = cand;
    }
  }
  if (pick == graph::kInvalidNode) return false;

  for (const Affected& af : affected) {
    ChainWalk& w = f_.walks[af.walk];
    // Re-locate positions (earlier splices shift them); anchors are stable
    // relative to slots.
    const std::size_t slot = static_cast<std::size_t>(j) - 1;
    const std::size_t a_pos = slot > 0 ? w.vnf_pos[slot - 1] : 0;
    const std::size_t b_pos =
        slot + 1 < w.vnf_pos.size() ? w.vnf_pos[slot + 1] : w.nodes.size() - 1;
    std::vector<NodeId> mid = paths_from(w.nodes[a_pos]).path_to(pick);
    const std::size_t vm_rel = mid.size() - 1;
    const auto back = paths_from(pick).path_to(w.nodes[b_pos]);
    mid.insert(mid.end(), back.begin() + 1, back.end());
    // Temporarily remove the migrating slot so splice_segment's invariant
    // (no slots strictly inside the span) holds, then re-add at the VM.
    w.vnf_pos.erase(w.vnf_pos.begin() + static_cast<std::ptrdiff_t>(slot));
    splice_segment(w, a_pos, b_pos, mid);
    w.vnf_pos.insert(w.vnf_pos.begin() + static_cast<std::ptrdiff_t>(slot), a_pos + vm_rel);
  }
  return true;
}

}  // namespace sofe::core
