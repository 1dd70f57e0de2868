#include "sofe/dist/dist_sofda.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <vector>

#include "sofe/graph/metric_closure.hpp"

namespace sofe::dist {

DistSofdaResult distributed_sofda_with(const core::Problem& p, const ShardedClosure& sc,
                                       MessageBus& bus, const core::AlgoOptions& opt) {
  assert(p.chain_length >= 1 && !p.destinations.empty());
  const Partition& part = sc.partition();
  const int k = part.num_domains;
  const graph::MetricClosure& closure = sc.closure();

  DistSofdaResult r;
  r.controllers = k;

  const std::vector<core::NodeId> vms = p.vms();
  std::vector<std::vector<core::NodeId>> sources_of(static_cast<std::size_t>(k));
  for (core::NodeId s : p.sources) {
    sources_of[static_cast<std::size_t>(part.domain(s))].push_back(s);
  }

  // --- Redistribution: peers price against the stitched view, so the
  // coordinator broadcasts the shared VM block (every VM's distances to the
  // VMs and destinations) and ships each peer its own sources' rows.
  if (k > 1) {
    const std::size_t vm_block = vms.size() * (vms.size() + p.destinations.size());
    bus.broadcast(static_cast<std::size_t>(k - 1), vm_block);
    for (int d = 1; d < k; ++d) {
      const auto& src = sources_of[static_cast<std::size_t>(d)];
      if (!src.empty()) bus.send(src.size() * vms.size());
    }
    bus.end_round();
  }

  // --- Per-controller chain pricing against the stitched closure (no
  // per-pair distance queries: the closure rows are already exact).  Each
  // controller reports its candidates — a chain ships its VM sequence plus
  // its price.
  std::vector<core::PricedChain> candidates;
  for (int d = 0; d < k; ++d) {
    auto local = core::price_candidate_chains(p, closure, sources_of[static_cast<std::size_t>(d)],
                                              opt, opt.closure_threads);
    if (d != 0 && k > 1) {
      const std::size_t chain_bytes =
          sizeof(Cost) + static_cast<std::size_t>(p.chain_length + 1) * sizeof(NodeId);
      bus.send(local.size(), local.size() * chain_bytes);
    }
    candidates.insert(candidates.end(), std::make_move_iterator(local.begin()),
                      std::make_move_iterator(local.end()));
  }
  if (k > 1) bus.end_round();

  // Coordinator-side merge into the canonical (source, last_vm) order: with
  // disjoint per-domain source sets this reproduces the centralized
  // candidate list exactly (see core::merge_priced_chains).
  core::merge_priced_chains(candidates);

  // --- The coordinator solves Procedure 3 over the merged candidates and
  // broadcasts the selected chains plus the per-destination distribution
  // segments.  Shortening runs over p.network, not the stitched view: a
  // warm session's view is exact only toward the destinations advertised
  // at its cold build (DESIGN.md §11), and segments end at destinations.
  core::AlgoOptions solve_opt = opt;
  solve_opt.shorten = false;
  r.forest = core::sofda_from_candidates(p, closure, candidates, solve_opt, &r.stats);
  if (opt.shorten) core::shorten_pass_through(p, r.forest);
  if (k > 1) {
    bus.broadcast(static_cast<std::size_t>(k - 1),
                  static_cast<std::size_t>(r.stats.deployed_chains) + r.forest.walks.size());
    bus.end_round();

    // --- Controllers install their local rule slices and ack.
    for (int d = 1; d < k; ++d) bus.send(1);
    bus.end_round();
  }

  r.messages = bus.messages();
  r.payload_items = bus.payload_items();
  r.payload_bytes = bus.payload_bytes();
  r.rounds = bus.rounds();
  const auto& cs = sc.stats();
  r.exchanged_rows = cs.exchanged_rows;
  r.exchanged_entries = cs.exchanged_entries;
  r.skeleton_edges = cs.skeleton_edges;
  r.closure_build_seconds = cs.local_build_seconds_max;
  r.closure_build_seconds_total = cs.local_build_seconds_total;
  r.stitch_seconds = cs.stitch_seconds;
  return r;
}

DistSofdaResult distributed_sofda(const core::Problem& p, int controllers,
                                  const core::AlgoOptions& opt) {
  assert(p.well_formed());
  const int n = static_cast<int>(p.network.node_count());
  const int k = std::clamp(controllers, 1, std::max(n, 1));

  if (k == 1 || p.chain_length == 0 || p.destinations.empty()) {
    // One controller or a pipeline-less instance: plain centralized SOFDA,
    // no protocol to run.
    DistSofdaResult r;
    r.controllers = k;
    r.forest = core::sofda(p, opt, &r.stats);
    return r;
  }

  MessageBus bus;

  // --- Round 1: the coordinator partitions the network and ships each peer
  // its domain assignment (one entry per node).
  Partition part = partition_bfs(p.network, k);
  bus.broadcast(static_cast<std::size_t>(k - 1), static_cast<std::size_t>(n));
  bus.end_round();

  // --- Round 2: parallel per-domain closure builds + the border/hub row
  // exchange (charged by ShardedClosure itself).
  std::vector<core::NodeId> hubs = p.vms();
  hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
  ShardedClosure sc;
  sc.build(p.network, std::move(part), std::move(hubs), p.destinations, opt.closure_threads,
           bus);

  // --- Rounds 3-6.
  return distributed_sofda_with(p, sc, bus, opt);
}

}  // namespace sofe::dist
