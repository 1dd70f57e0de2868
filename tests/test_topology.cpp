// Topology tests: exact paper node/link/DC counts, connectivity, degree
// shape of the Inet generator, determinism, and problem sampling.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "sofe/graph/oracles.hpp"
#include "sofe/topology/topology.hpp"

namespace sofe::topology {
namespace {

TEST(Topology, SoftlayerCounts) {
  const auto t = softlayer();
  EXPECT_EQ(t.g.node_count(), 27);
  EXPECT_EQ(t.g.edge_count(), 49);
  EXPECT_EQ(t.dc_nodes.size(), 17u);
  EXPECT_TRUE(graph::is_connected(t.g));
}

TEST(Topology, CogentCounts) {
  const auto t = cogent();
  EXPECT_EQ(t.g.node_count(), 190);
  EXPECT_EQ(t.g.edge_count(), 260);
  EXPECT_EQ(t.dc_nodes.size(), 40u);
  EXPECT_TRUE(graph::is_connected(t.g));
}

TEST(Topology, InetCountsSmall) {
  const auto t = inet(500, 1000, 200, 5);
  EXPECT_EQ(t.g.node_count(), 500);
  EXPECT_EQ(t.g.edge_count(), 1000);
  EXPECT_EQ(t.dc_nodes.size(), 200u);
  EXPECT_TRUE(graph::is_connected(t.g));
}

TEST(Topology, InetHeavyTailedDegrees) {
  const auto t = inet(1000, 2000, 100, 9);
  std::size_t max_degree = 0;
  for (graph::NodeId v = 0; v < t.g.node_count(); ++v) {
    max_degree = std::max(max_degree, t.g.degree(v));
  }
  // Mean degree is 4; preferential attachment should produce hubs far above.
  EXPECT_GE(max_degree, 20u) << "degree distribution does not look heavy-tailed";
}

TEST(Topology, InetDeterministicPerSeed) {
  const auto a = inet(300, 600, 50, 17);
  const auto b = inet(300, 600, 50, 17);
  ASSERT_EQ(a.g.edge_count(), b.g.edge_count());
  for (graph::EdgeId e = 0; e < a.g.edge_count(); ++e) {
    EXPECT_EQ(a.g.edge(e).u, b.g.edge(e).u);
    EXPECT_EQ(a.g.edge(e).v, b.g.edge(e).v);
  }
  const auto c = inet(300, 600, 50, 18);
  bool differs = false;
  for (graph::EdgeId e = 0; e < c.g.edge_count() && !differs; ++e) {
    differs = a.g.edge(e).u != c.g.edge(e).u || a.g.edge(e).v != c.g.edge(e).v;
  }
  EXPECT_TRUE(differs) << "different seeds should give different graphs";

  // Pin the generator itself: FNV-1a over every edge's (u, v, cost bits) of
  // the benchmark's Inet-2000 core.  A change to how links are drawn or
  // checked for duplicates that alters the graph or the RNG stream shows
  // up here.
  const auto big = inet(2000, 4000, 8, 21);
  std::uint64_t h = 1469598103934665603ULL;
  const auto add = [&h](const auto& v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  };
  for (graph::EdgeId e = 0; e < big.g.edge_count(); ++e) {
    const auto& edge = big.g.edge(e);
    std::uint64_t cost_bits = 0;
    std::memcpy(&cost_bits, &edge.cost, sizeof cost_bits);
    add(edge.u);
    add(edge.v);
    add(cost_bits);
  }
  EXPECT_EQ(big.g.edge_count(), 4000);
  EXPECT_EQ(h, 0x7c0287411904bfd9ULL);
}

TEST(Topology, Testbed14Counts) {
  const auto t = testbed14();
  EXPECT_EQ(t.g.node_count(), 14);
  EXPECT_EQ(t.g.edge_count(), 20);
  EXPECT_TRUE(graph::is_connected(t.g));
}

TEST(Topology, GeneratorsConnected) {
  EXPECT_TRUE(graph::is_connected(ring(8).g));
  EXPECT_TRUE(graph::is_connected(grid(4, 5).g));
  EXPECT_TRUE(graph::is_connected(random_geometric(60, 0.25, 3).g));
}

TEST(MakeProblem, StructureAndCosts) {
  ProblemConfig cfg;
  cfg.num_vms = 10;
  cfg.num_sources = 4;
  cfg.num_destinations = 5;
  cfg.chain_length = 3;
  cfg.seed = 21;
  const auto t = softlayer();
  const auto p = make_problem(t, cfg);
  EXPECT_TRUE(p.well_formed());
  EXPECT_EQ(p.network.node_count(), 27 + 10);
  EXPECT_EQ(p.vms().size(), 10u);
  EXPECT_EQ(p.sources.size(), 4u);
  EXPECT_EQ(p.destinations.size(), 5u);
  // Sources and destinations are distinct access nodes.
  for (auto s : p.sources) {
    EXPECT_LT(s, 27);
    EXPECT_EQ(std::count(p.destinations.begin(), p.destinations.end(), s), 0);
  }
  // VM costs positive and scaled; switch costs zero.
  for (graph::NodeId v = 0; v < p.network.node_count(); ++v) {
    if (p.is_vm[static_cast<std::size_t>(v)]) {
      EXPECT_GT(p.node_cost[static_cast<std::size_t>(v)], 0.0);
    } else {
      EXPECT_EQ(p.node_cost[static_cast<std::size_t>(v)], 0.0);
    }
  }
  // Each VM hangs off a DC with a zero-cost tap.
  for (auto vm : p.vms()) {
    ASSERT_EQ(p.network.degree(vm), 1u);
    const auto& arc = p.network.neighbors(vm)[0];
    EXPECT_DOUBLE_EQ(p.network.edge(arc.edge).cost, 0.0);
    EXPECT_NE(std::find(t.dc_nodes.begin(), t.dc_nodes.end(), arc.to), t.dc_nodes.end());
  }
}

TEST(MakeProblem, SetupScaleScalesVmCosts) {
  ProblemConfig cfg;
  cfg.seed = 5;
  cfg.setup_scale = 1.0;
  const auto t = softlayer();
  const auto p1 = make_problem(t, cfg);
  cfg.setup_scale = 5.0;
  const auto p5 = make_problem(t, cfg);
  for (auto vm : p1.vms()) {
    EXPECT_NEAR(p5.node_cost[static_cast<std::size_t>(vm)],
                5.0 * p1.node_cost[static_cast<std::size_t>(vm)], 1e-9);
  }
}

TEST(MakeProblem, DeterministicPerSeed) {
  ProblemConfig cfg;
  cfg.seed = 33;
  const auto t = cogent();
  const auto a = make_problem(t, cfg);
  const auto b = make_problem(t, cfg);
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.destinations, b.destinations);
  for (graph::EdgeId e = 0; e < a.network.edge_count(); ++e) {
    EXPECT_DOUBLE_EQ(a.network.edge(e).cost, b.network.edge(e).cost);
  }
}

}  // namespace
}  // namespace sofe::topology
