// Multi-controller tests (Section VI): partition sanity, sharded-closure
// exactness (per-domain builds + row exchange + masked stitch == the global
// closure, bit for bit), message accounting, and distributed-vs-centralized
// SOFDA equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "sofe/api/registry.hpp"
#include "sofe/api/solver.hpp"
#include "sofe/core/sofda.hpp"
#include "sofe/core/validate.hpp"
#include "sofe/dist/dist_sofda.hpp"
#include "sofe/dist/sharded_closure.hpp"
#include "sofe/graph/metric_closure.hpp"
#include "sofe/topology/topology.hpp"
#include "sofe/util/rng.hpp"

namespace sofe::dist {
namespace {

/// Bitwise row comparison over the query contract of a sharded closure:
/// every hub's distance AND path to every hub/destination must equal the
/// global closure's exactly (EXPECT_EQ on doubles is deliberate).
void expect_rows_bitwise_equal(const graph::MetricClosure& sharded,
                               const graph::MetricClosure& global,
                               const std::vector<NodeId>& hubs,
                               const std::vector<NodeId>& targets, const char* label) {
  std::vector<NodeId> queries = hubs;
  queries.insert(queries.end(), targets.begin(), targets.end());
  for (NodeId h : hubs) {
    ASSERT_TRUE(sharded.is_hub(h)) << label;
    for (NodeId x : queries) {
      EXPECT_EQ(sharded.distance(h, x), global.distance(h, x))
          << label << ": distance (" << h << " -> " << x << ")";
      if (global.distance(h, x) < graph::kInfiniteCost) {
        EXPECT_EQ(sharded.path(h, x), global.path(h, x))
            << label << ": path (" << h << " -> " << x << ")";
      }
    }
  }
}

core::Problem sharded_problem(unsigned seed = 77) {
  topology::ProblemConfig cfg;
  cfg.num_vms = 8;
  cfg.num_sources = 3;
  cfg.num_destinations = 4;
  cfg.chain_length = 2;
  cfg.seed = seed;
  return topology::make_problem(topology::softlayer(), cfg);
}

std::vector<NodeId> hub_set(const core::Problem& p) {
  std::vector<NodeId> hubs = p.vms();
  hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
  return hubs;
}

TEST(Partition, CoversAllNodesConnectedDomains) {
  const auto topo = topology::softlayer();
  for (int k : {1, 2, 3, 5}) {
    const auto part = partition_bfs(topo.g, k);
    EXPECT_EQ(part.num_domains, k);
    std::size_t covered = 0;
    for (int d = 0; d < k; ++d) covered += part.members[static_cast<std::size_t>(d)].size();
    EXPECT_EQ(covered, static_cast<std::size_t>(topo.g.node_count()));
    for (NodeId v = 0; v < topo.g.node_count(); ++v) {
      EXPECT_GE(part.domain_of[static_cast<std::size_t>(v)], 0);
      EXPECT_LT(part.domain_of[static_cast<std::size_t>(v)], k);
    }
  }
}

TEST(Partition, BordersTouchOtherDomains) {
  const auto topo = topology::softlayer();
  const auto part = partition_bfs(topo.g, 3);
  for (int d = 0; d < 3; ++d) {
    for (NodeId b : part.borders[static_cast<std::size_t>(d)]) {
      bool crosses = false;
      for (const auto& arc : topo.g.neighbors(b)) {
        if (part.domain_of[static_cast<std::size_t>(arc.to)] != d) crosses = true;
      }
      EXPECT_TRUE(crosses) << "border node " << b << " has no cross-domain link";
    }
  }
}

TEST(DistributedSofda, MatchesCentralizedCertificate) {
  topology::ProblemConfig cfg;
  cfg.num_vms = 8;
  cfg.num_sources = 3;
  cfg.num_destinations = 4;
  cfg.chain_length = 2;
  cfg.seed = 77;
  const auto topo = topology::softlayer();
  const auto p = topology::make_problem(topo, cfg);

  core::SofdaStats central_stats;
  const auto central = core::sofda(p, {}, &central_stats);
  ASSERT_FALSE(central.empty());

  for (int controllers : {2, 3, 4}) {
    const auto dist_r = distributed_sofda(p, controllers);
    ASSERT_FALSE(dist_r.forest.empty()) << controllers << " controllers";
    EXPECT_TRUE(core::is_feasible(p, dist_r.forest))
        << core::validate(p, dist_r.forest).summary();
    // Cost-exact simulation: identical chain prices and auxiliary graph give
    // the identical Steiner certificate.
    EXPECT_NEAR(dist_r.stats.steiner_tree_cost, central_stats.steiner_tree_cost, 1e-6);
    EXPECT_EQ(dist_r.stats.deployed_chains, central_stats.deployed_chains);
    // Walk geometry may differ in shortest-path tie-breaks only; the total
    // cost must stay in a tight band around the centralized result.
    EXPECT_NEAR(core::total_cost(p, dist_r.forest), core::total_cost(p, central),
                0.05 * core::total_cost(p, central) + 1e-6);
    EXPECT_GT(dist_r.messages, 0u);
    EXPECT_GE(dist_r.rounds, 4);
  }
}

TEST(DistributedSofda, SingleControllerDegeneratesToCentralized) {
  topology::ProblemConfig cfg;
  cfg.num_vms = 6;
  cfg.num_sources = 2;
  cfg.num_destinations = 3;
  cfg.chain_length = 2;
  cfg.seed = 13;
  const auto p = topology::make_problem(topology::softlayer(), cfg);
  const auto central = core::sofda(p);
  const auto dist_r = distributed_sofda(p, 1);
  ASSERT_FALSE(dist_r.forest.empty());
  EXPECT_NEAR(core::total_cost(p, dist_r.forest), core::total_cost(p, central), 1e-6);
}

TEST(Partition, OneDomainPerNode) {
  // k == |V|: every domain is a single node, and every node is a border of
  // its own domain (all of its links cross).
  const auto topo = topology::softlayer();
  const int n = static_cast<int>(topo.g.node_count());
  const auto part = partition_bfs(topo.g, n);
  EXPECT_EQ(part.num_domains, n);
  for (int d = 0; d < n; ++d) {
    ASSERT_EQ(part.members[static_cast<std::size_t>(d)].size(), 1u);
    EXPECT_EQ(part.borders[static_cast<std::size_t>(d)],
              part.members[static_cast<std::size_t>(d)]);
  }
}

TEST(Partition, ClampsControllerCountToNodeCount) {
  const auto topo = topology::ring(4);
  const auto part = partition_bfs(topo.g, 10);
  EXPECT_EQ(part.num_domains, 4);
  std::size_t covered = 0;
  for (const auto& m : part.members) covered += m.size();
  EXPECT_EQ(covered, 4u);
}

TEST(Partition, DisconnectedGraphStaysCovering) {
  // Two components (0-1-2 and 3-4).  The partition cannot keep every domain
  // connected, but it must stay a total, in-bounds covering in every build
  // type, with each component seeded before any gets a second seed.
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(3, 4, 1.0);
  for (int k : {1, 2, 3, 5}) {
    const auto part = partition_bfs(g, k);
    EXPECT_EQ(part.num_domains, k);
    std::size_t covered = 0;
    for (const auto& m : part.members) covered += m.size();
    EXPECT_EQ(covered, 5u);
    for (NodeId v = 0; v < 5; ++v) {
      EXPECT_GE(part.domain_of[static_cast<std::size_t>(v)], 0);
      EXPECT_LT(part.domain_of[static_cast<std::size_t>(v)], k);
    }
  }
}

TEST(DistributedSofda, AllSourcesInOneDomain) {
  // Every source administered by a single controller: the other controllers
  // contribute no candidates, yet the merged pipeline must still reproduce
  // the centralized certificate.
  constexpr int kControllers = 3;
  topology::ProblemConfig cfg;
  cfg.num_vms = 8;
  cfg.num_sources = 2;
  cfg.num_destinations = 4;
  cfg.chain_length = 2;
  cfg.seed = 41;
  auto p = topology::make_problem(topology::softlayer(), cfg);

  // Re-home all sources into domain 0 of the partition the driver will use.
  const auto part = partition_bfs(p.network, kControllers);
  p.sources.clear();
  for (NodeId v : part.members[0]) {
    if (p.is_vm[static_cast<std::size_t>(v)]) continue;
    if (std::find(p.destinations.begin(), p.destinations.end(), v) != p.destinations.end()) {
      continue;
    }
    p.sources.push_back(v);
    if (p.sources.size() == 3) break;
  }
  ASSERT_GE(p.sources.size(), 2u) << "domain 0 too small to host the sources";
  for (NodeId s : p.sources) {
    ASSERT_EQ(part.domain(s), 0);
  }

  core::SofdaStats central_stats;
  const auto central = core::sofda(p, {}, &central_stats);
  ASSERT_FALSE(central.empty());
  const auto dist_r = distributed_sofda(p, kControllers);
  ASSERT_FALSE(dist_r.forest.empty());
  EXPECT_TRUE(core::is_feasible(p, dist_r.forest))
      << core::validate(p, dist_r.forest).summary();
  EXPECT_NEAR(dist_r.stats.steiner_tree_cost, central_stats.steiner_tree_cost, 1e-6);
  EXPECT_EQ(dist_r.stats.deployed_chains, central_stats.deployed_chains);
  EXPECT_NEAR(core::total_cost(p, dist_r.forest), core::total_cost(p, central),
              0.05 * core::total_cost(p, central) + 1e-6);
  EXPECT_GT(dist_r.messages, 0u);
}

TEST(DistributedSofda, MoreControllersMoreMessages) {
  topology::ProblemConfig cfg;
  cfg.num_vms = 6;
  cfg.num_sources = 2;
  cfg.num_destinations = 3;
  cfg.chain_length = 2;
  cfg.seed = 29;
  const auto p = topology::make_problem(topology::softlayer(), cfg);
  const auto r2 = distributed_sofda(p, 2);
  const auto r5 = distributed_sofda(p, 5);
  EXPECT_GT(r5.messages, r2.messages);
}

class ShardedClosureBitIdentity : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ShardedClosureBitIdentity, MatchesGlobalClosure) {
  // The tentpole contract: sharded per-domain builds + border-row exchange +
  // masked stitch reproduce the global MetricClosure bit for bit on every
  // hub × (hub ∪ destination) query — including the zero-cost VM-tap hubs
  // make_problem attaches — at every k and thread count.
  const auto [k, threads] = GetParam();
  const auto p = sharded_problem();
  const auto hubs = hub_set(p);
  const graph::MetricClosure global(p.network, hubs, 1);

  const int kk = k > 0 ? k : static_cast<int>(p.network.node_count());
  MessageBus bus;
  ShardedClosure sc;
  sc.build(p.network, partition_bfs(p.network, kk), hubs, p.destinations, threads, bus);
  expect_rows_bitwise_equal(sc.closure(), global, hubs, p.destinations, "sharded");
}

INSTANTIATE_TEST_SUITE_P(KTimesThreads, ShardedClosureBitIdentity,
                         ::testing::Combine(::testing::Values(1, 2, 4, 0),  // 0 = |V|
                                            ::testing::Values(1, 2, 8)));

TEST(ShardedClosure, BitIdenticalOnUnitCostTies) {
  // grid() is unit-cost: equal-length shortest paths abound, so this pins
  // the tie-break argument (local chains = global segments in exact
  // arithmetic) rather than relying on generic costs.  ring(5) at k = 3
  // adds a mixed partition with a single-node domain, queried all-pairs.
  const auto expect_exact = [](const Graph& g, const std::vector<NodeId>& hubs,
                               const std::vector<NodeId>& dests, int k, const char* label) {
    const graph::MetricClosure global(g, hubs, 1);
    MessageBus bus;
    ShardedClosure sc;
    sc.build(g, partition_bfs(g, k), hubs, dests, 2, bus);
    const std::string what = std::string(label) + " k=" + std::to_string(k);
    expect_rows_bitwise_equal(sc.closure(), global, hubs, dests, what.c_str());
  };
  const auto grid = topology::grid(5, 5);
  for (int k : {2, 3, 4, 25}) expect_exact(grid.g, {0, 7, 12, 24, 18}, {4, 20, 13}, k, "grid");

  const auto ring = topology::ring(5);
  bool has_singleton = false;
  for (const auto& m : partition_bfs(ring.g, 3).members) has_singleton |= (m.size() == 1);
  ASSERT_TRUE(has_singleton) << "partition no longer produces a single-node domain";
  expect_exact(ring.g, {0, 1, 2, 3, 4}, {}, 3, "ring");
}

TEST(ShardedClosure, DisconnectedGraphStaysExact) {
  // Two components; hubs and destinations on both sides.  Unreachable pairs
  // must be +inf on both views, reachable ones bitwise equal.
  Graph g(7);
  g.add_edge(0, 1, 1.5);
  g.add_edge(1, 2, 0.5);
  g.add_edge(2, 0, 2.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(4, 5, 2.5);
  g.add_edge(5, 6, 0.75);
  const std::vector<NodeId> hubs = {0, 2, 3, 6};
  const std::vector<NodeId> dests = {1, 5};
  const graph::MetricClosure global(g, hubs, 1);
  for (int k : {1, 2, 3}) {
    MessageBus bus;
    ShardedClosure sc;
    sc.build(g, partition_bfs(g, k), hubs, dests, 2, bus);
    expect_rows_bitwise_equal(sc.closure(), global, hubs, dests, "disconnected");
  }
}

TEST(ShardedClosure, ExchangeLedgerChargesRowsAndBytes) {
  const auto p = sharded_problem();
  const auto hubs = hub_set(p);
  MessageBus bus;
  ShardedClosure sc;
  sc.build(p.network, partition_bfs(p.network, 4), hubs, p.destinations, 1, bus);
  const auto& st = sc.stats();
  EXPECT_EQ(st.domains, 4);
  EXPECT_GT(st.rows, 0u);
  EXPECT_GT(st.exchanged_rows, 0u);
  EXPECT_LT(st.exchanged_rows, st.rows + 1);  // coordinator rows never ship
  // One message per shipped row, entries counted as payload items, bytes
  // charged per entry — the MessageBus accounting-fix satellite.
  EXPECT_EQ(bus.messages(), st.exchanged_rows);
  EXPECT_EQ(bus.payload_items(), st.exchanged_entries);
  EXPECT_EQ(bus.payload_bytes(), st.exchanged_entries * sizeof(graph::Cost));
  EXPECT_EQ(st.exchanged_bytes, bus.payload_bytes());
  EXPECT_EQ(bus.rounds(), 1);
  // The skeleton is a strict subgraph on this instance: the whole point of
  // advertising rows instead of the global edge list.
  EXPECT_LT(st.skeleton_edges, static_cast<std::size_t>(p.network.edge_count()));
}

class ShardedClosureRepair : public ::testing::TestWithParam<int> {};

TEST_P(ShardedClosureRepair, DeltaRepairMatchesFreshGlobal) {
  // set_edge_cost on an intra-domain edge, a cross link, and a
  // border-incident edge; after each batch the repaired sharded closure
  // must match a fresh global closure at the new costs, bit for bit.
  const int threads = GetParam();
  auto p = sharded_problem(91);
  const auto hubs = hub_set(p);
  const int k = 4;
  const auto part = partition_bfs(p.network, k);

  MessageBus bus;
  ShardedClosure sc;
  sc.build(p.network, part, hubs, p.destinations, threads, bus);

  // Pick one edge of each flavor.
  EdgeId intra = graph::kInvalidEdge, cross = graph::kInvalidEdge,
         border_touch = graph::kInvalidEdge;
  const auto& edges = p.network.edges();
  std::vector<char> is_border(static_cast<std::size_t>(p.network.node_count()), 0);
  for (const auto& bl : part.borders) {
    for (NodeId b : bl) is_border[static_cast<std::size_t>(b)] = 1;
  }
  for (EdgeId e = 0; e < p.network.edge_count(); ++e) {
    const auto& ed = edges[static_cast<std::size_t>(e)];
    if (ed.cost == 0.0) continue;  // keep VM taps intact
    const bool crossing = part.domain(ed.u) != part.domain(ed.v);
    const bool touches_border =
        is_border[static_cast<std::size_t>(ed.u)] || is_border[static_cast<std::size_t>(ed.v)];
    if (crossing && cross == graph::kInvalidEdge) cross = e;
    if (!crossing && touches_border && border_touch == graph::kInvalidEdge) border_touch = e;
    if (!crossing && !touches_border && intra == graph::kInvalidEdge) intra = e;
  }
  ASSERT_NE(intra, graph::kInvalidEdge);
  ASSERT_NE(cross, graph::kInvalidEdge);
  ASSERT_NE(border_touch, graph::kInvalidEdge);

  int batch = 0;
  for (const auto& [e, factor] : {std::pair<EdgeId, double>{intra, 0.25},
                                  {cross, 3.0},
                                  {border_touch, 0.1}}) {
    ++batch;
    const Cost old_cost = p.network.edge(e).cost;
    const Cost new_cost = old_cost * factor;
    p.network.set_edge_cost(e, new_cost);
    const graph::EdgeCostDelta delta{e, old_cost, new_cost};
    const std::size_t rows_before = sc.stats().exchanged_rows;
    sc.refresh(p.network, std::span(&delta, 1), threads, bus);
    const graph::MetricClosure fresh(p.network, hubs, 1);
    expect_rows_bitwise_equal(sc.closure(), fresh, hubs, p.destinations,
                              batch == 1 ? "intra" : batch == 2 ? "cross" : "border");
    // Only dirtied rows re-ship: never the whole advertisement set again.
    EXPECT_LE(sc.stats().exchanged_rows - rows_before, sc.stats().rows);
  }
  EXPECT_GT(sc.stats().repaired_rows, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ShardedClosureRepair, ::testing::Values(1, 2, 8));

TEST(ShardedClosure, ExtendAddsHubRowsIncrementally) {
  // The session's churned-in-source path: build without one source, extend
  // with it, and land bitwise on the full global closure.  Then the two
  // ways a hub comes back after retain() dropped it.
  const auto p = sharded_problem(55);
  const auto hubs = hub_set(p);
  const NodeId late = hubs.back();
  const std::vector<NodeId> initial(hubs.begin(), hubs.end() - 1);
  const auto part = partition_bfs(p.network, 3);
  const auto is_border = [&part](NodeId v) {
    const auto& b = part.borders[static_cast<std::size_t>(part.domain(v))];
    return std::find(b.begin(), b.end(), v) != b.end();
  };
  const graph::MetricClosure global(p.network, hubs, 1);

  // A source outside the coordinator's domain (so its row ships) that is
  // not a border (so retain() drops its local root), and the first edge of
  // its route to a border, whose price the test then raises steeply.
  NodeId leaver = graph::kInvalidNode;
  for (NodeId h : p.sources) {
    if (part.domain(h) != 0 && !is_border(h)) {
      leaver = h;
      break;
    }
  }
  ASSERT_NE(leaver, graph::kInvalidNode);
  const auto& leaver_borders = part.borders[static_cast<std::size_t>(part.domain(leaver))];
  const auto route = global.path(leaver, leaver_borders.front());
  ASSERT_GE(route.size(), 2u);
  const EdgeId moved = p.network.find_edge(route[0], route[1]);
  std::vector<NodeId> without = hubs;
  std::erase(without, leaver);

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Graph g = p.network;
    MessageBus bus;
    ShardedClosure sc;
    sc.build(g, part, initial, p.destinations, threads, bus);
    ASSERT_FALSE(sc.closure().is_hub(late));
    sc.extend(g, hubs, threads, bus);
    expect_rows_bitwise_equal(sc.closure(), global, hubs, p.destinations, "extend");

    // `late` is a border of its domain, and a border stays a local root
    // by construction: retaining it away and re-extending re-ships nothing.
    ASSERT_TRUE(is_border(late));
    const std::size_t entries_first = sc.stats().exchanged_entries;
    sc.retain(initial);
    EXPECT_FALSE(sc.closure().is_hub(late));
    sc.extend(g, hubs, threads, bus);
    expect_rows_bitwise_equal(sc.closure(), global, hubs, p.destinations, "re-extend border");
    EXPECT_EQ(sc.stats().exchanged_entries, entries_first)
        << "re-extending a border hub should not re-ship rows";

    // Any other hub leaves its domain's local closure with its request: its
    // advertisement is withdrawn, the refresh folds the withdrawal into the
    // stitched repair, and coming back costs one local Dijkstra and one
    // shipped row.
    sc.retain(without);
    EXPECT_FALSE(sc.closure().is_hub(leaver));
    const Cost old_cost = g.edge(moved).cost;
    g.set_edge_cost(moved, old_cost * 16.0);
    const graph::EdgeCostDelta delta{moved, old_cost, old_cost * 16.0};
    sc.refresh(g, std::span(&delta, 1), threads, bus);
    const graph::MetricClosure global_without(g, without, 1);
    expect_rows_bitwise_equal(sc.closure(), global_without, without, p.destinations,
                              "refresh after retain");
    const std::size_t entries_before = sc.stats().exchanged_entries;
    sc.extend(g, hubs, threads, bus);
    EXPECT_GT(sc.stats().exchanged_entries, entries_before)
        << "a returning non-border hub must re-ship its row";
    const graph::MetricClosure global_moved(g, hubs, 1);
    expect_rows_bitwise_equal(sc.closure(), global_moved, hubs, p.destinations,
                              "re-extend non-border");
  }
}

TEST(DistributedSofda, CertificateBitwiseIdenticalAcrossKAndThreads) {
  // The acceptance bar: "dist/k=<int>" solves stay *bitwise* identical to
  // the centralized run — certificate, walks and total cost, not just a
  // tolerance band — at every controller and thread count.
  const auto p = sharded_problem(77);
  core::SofdaStats central_stats;
  const auto central = core::sofda(p, {}, &central_stats);
  ASSERT_FALSE(central.empty());
  const Cost central_cost = core::total_cost(p, central);

  for (int controllers : {2, 3, 4, 7}) {
    std::tuple<std::size_t, std::size_t, std::size_t, int> serial_ledger;
    for (int threads : {1, 4}) {
      core::AlgoOptions opt;
      opt.closure_threads = threads;
      const auto dist_r = distributed_sofda(p, controllers, opt);
      ASSERT_EQ(dist_r.forest.walks.size(), central.walks.size());
      for (std::size_t w = 0; w < central.walks.size(); ++w) {
        EXPECT_EQ(dist_r.forest.walks[w].source, central.walks[w].source);
        EXPECT_EQ(dist_r.forest.walks[w].destination, central.walks[w].destination);
        EXPECT_EQ(dist_r.forest.walks[w].nodes, central.walks[w].nodes);
        EXPECT_EQ(dist_r.forest.walks[w].vnf_pos, central.walks[w].vnf_pos);
      }
      EXPECT_EQ(dist_r.stats.steiner_tree_cost, central_stats.steiner_tree_cost);
      EXPECT_EQ(dist_r.stats.deployed_chains, central_stats.deployed_chains);
      EXPECT_EQ(core::total_cost(p, dist_r.forest), central_cost);
      EXPECT_GT(dist_r.payload_bytes, 0u);
      // The protocol ledger is a function of the deployment, never of the
      // thread count.
      const auto ledger = std::tuple(dist_r.messages, dist_r.payload_items,
                                     dist_r.payload_bytes, dist_r.rounds);
      if (threads == 1) {
        serial_ledger = ledger;
      } else {
        EXPECT_EQ(ledger, serial_ledger) << controllers << " controllers, " << threads
                                         << " threads";
      }
    }
  }
}

TEST(DistributedSofda, WarmSessionMatchesSofdaOnRedrawnRequests) {
  // A warm dist/k=4 session serves requests whose destinations its cold
  // build never advertised.  The stitched view is not exact toward them
  // (DESIGN.md §11), so distributed_sofda_with must shorten over
  // p.network instead.  Sources and destinations are re-drawn for every
  // solve, a few link prices move in between, and every forest must stay
  // bitwise the one a "sofda" session returns for the same problem.
  topology::ProblemConfig cfg;
  cfg.num_sources = 4;
  cfg.num_destinations = 10;
  cfg.seed = 21;
  core::Problem p = topology::make_problem(topology::inet(300, 600, 8, 21), cfg);
  std::vector<NodeId> access;
  for (NodeId v = 0; v < p.network.node_count(); ++v) {
    if (!p.is_vm[static_cast<std::size_t>(v)]) access.push_back(v);
  }
  const auto dist = api::make_solver("dist/k=4");
  const auto central = api::make_solver("sofda");
  util::Rng rng(5);
  int repairs = 0;
  std::size_t first_bytes = 0;
  for (int i = 0; i < 24; ++i) {
    if (i > 0) {
      for (int j = 0; j < 3; ++j) {
        const auto e = static_cast<EdgeId>(rng.index(static_cast<std::size_t>(p.network.edge_count())));
        const Cost cost = p.network.edge(e).cost;
        if (cost > 0.0) p.network.set_edge_cost(e, cost * rng.uniform(0.5, 2.0));  // taps stay 0
      }
      const auto picks = rng.sample_without_replacement(access.size(), 14);
      p.sources.clear();
      p.destinations.clear();
      for (std::size_t k = 0; k < picks.size(); ++k) {
        (k < 4 ? p.sources : p.destinations).push_back(access[picks[k]]);
      }
    }
    const core::ServiceForest fd = dist->solve(p);
    repairs += dist->report().closure_repaired ? 1 : 0;
    if (i == 0) first_bytes = dist->report().closure_bytes;
    const core::ServiceForest fc = central->solve(p);
    ASSERT_FALSE(fc.empty()) << "request " << i;
    ASSERT_EQ(fd.walks.size(), fc.walks.size()) << "request " << i;
    for (std::size_t w = 0; w < fc.walks.size(); ++w) {
      EXPECT_EQ(fd.walks[w].source, fc.walks[w].source) << "request " << i << " walk " << w;
      EXPECT_EQ(fd.walks[w].destination, fc.walks[w].destination)
          << "request " << i << " walk " << w;
      EXPECT_EQ(fd.walks[w].nodes, fc.walks[w].nodes) << "request " << i << " walk " << w;
      EXPECT_EQ(fd.walks[w].vnf_pos, fc.walks[w].vnf_pos) << "request " << i << " walk " << w;
    }
  }
  EXPECT_GT(repairs, 0) << "the dist session never served a request warm";
  // Every request has 4 sources, and rows live only as long as a request
  // names them, on the local layer too: the footprint must not grow with
  // the number of distinct sources the session has seen.
  EXPECT_GT(first_bytes, 0u);
  EXPECT_LE(dist->report().closure_bytes, first_bytes)
      << "the sharded closure kept rows of sources no request names";
}

}  // namespace
}  // namespace sofe::dist
