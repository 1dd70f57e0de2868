// Tests for the CSR graph core and the reusable ShortestPathEngine: CSR /
// adjacency agreement, workspace-reuse correctness across repeated queries,
// the multi-source smaller-owner tie-break invariant, path_to edge cases,
// and bit-identical multi-threaded MetricClosure construction and repair
// under any lane schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "lane_runners.hpp"
#include "sofe/graph/dijkstra.hpp"
#include "sofe/graph/metric_closure.hpp"
#include "sofe/graph/oracles.hpp"
#include "sofe/graph/shortest_path_engine.hpp"
#include "sofe/util/rng.hpp"

namespace sofe::graph {
namespace {

Graph random_connected(util::Rng& rng, int n, double extra_edge_prob,
                       bool integer_costs = false) {
  Graph g(n);
  auto cost = [&] {
    return integer_costs ? static_cast<Cost>(rng.uniform_int(1, 6)) : rng.uniform(0.5, 10.0);
  };
  for (NodeId v = 1; v < n; ++v) {
    g.add_edge(v, static_cast<NodeId>(rng.index(static_cast<std::size_t>(v))), cost());
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.chance(extra_edge_prob)) g.add_edge(u, v, cost());
    }
  }
  return g;
}

TEST(Csr, MatchesAdjacencyListsArcForArc) {
  util::Rng rng(7);
  const Graph g = random_connected(rng, 40, 0.2);
  const CsrView& csr = g.csr();
  ASSERT_EQ(csr.offsets.size(), static_cast<std::size_t>(g.node_count()) + 1);
  ASSERT_EQ(csr.arcs.size(), 2 * static_cast<std::size_t>(g.edge_count()));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto arcs = g.neighbors(v);
    ASSERT_EQ(static_cast<std::size_t>(csr.end(v) - csr.begin(v)), arcs.size());
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      const CsrArc& a = csr.arcs[static_cast<std::size_t>(csr.begin(v)) + i];
      EXPECT_EQ(a.to, arcs[i].to);
      EXPECT_EQ(a.edge, arcs[i].edge);
      EXPECT_DOUBLE_EQ(a.cost, g.edge(arcs[i].edge).cost);
    }
  }
}

TEST(Csr, CostRefreshWithoutStructuralRebuild) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  const std::uint64_t v0 = g.version();
  (void)g.csr();
  g.set_edge_cost(e, 5.5);
  EXPECT_GT(g.version(), v0);
  const CsrView& csr = g.csr();
  for (std::int32_t i = csr.begin(0); i < csr.end(0); ++i) {
    EXPECT_DOUBLE_EQ(csr.arcs[static_cast<std::size_t>(i)].cost, 5.5);
  }
}

TEST(Csr, StructuralMutationRebuilds) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  (void)g.csr();
  const NodeId w = g.add_node();
  g.add_edge(1, w, 3.0);
  const CsrView& csr = g.csr();
  ASSERT_EQ(csr.offsets.size(), 4u);
  EXPECT_EQ(csr.end(1) - csr.begin(1), 2);
  EXPECT_EQ(csr.arcs[static_cast<std::size_t>(csr.begin(w))].to, 1);
}

TEST(Csr, CopyDropsCacheButStaysCorrect) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  (void)g.csr();
  Graph copy = g;
  copy.set_edge_cost(0, 9.0);
  EXPECT_DOUBLE_EQ(copy.csr().arcs[static_cast<std::size_t>(copy.csr().begin(0))].cost, 9.0);
  // The original's cache is untouched by the copy's mutation.
  EXPECT_DOUBLE_EQ(g.csr().arcs[static_cast<std::size_t>(g.csr().begin(0))].cost, 1.0);
}

class EngineRandom : public ::testing::TestWithParam<int> {};

TEST_P(EngineRandom, RunMatchesOneShotDijkstraAndBellmanFord) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  const int n = rng.uniform_int(5, 40);
  const Graph g = random_connected(rng, n, 0.15);
  ShortestPathEngine engine(g);
  ShortestPathTree t;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    engine.run_into(s, t);
    const auto reference = dijkstra(g, s);
    const auto bf = bellman_ford(g, s);
    // Bit-identical to the one-shot free function, value-close to the oracle.
    EXPECT_EQ(t.dist, reference.dist);
    EXPECT_EQ(t.parent, reference.parent);
    EXPECT_EQ(t.parent_edge, reference.parent_edge);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_NEAR(t.distance(v), bf[static_cast<std::size_t>(v)], 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandom, ::testing::Range(1, 9));

TEST(Engine, RepeatedRunsLeaveNoResidue) {
  // Earlier runs leave other sources' labels in the engine's workspaces
  // and their trees in the reused output; the following run must be exact
  // everywhere.
  util::Rng rng(42);
  const Graph g = random_connected(rng, 60, 0.1);
  ShortestPathEngine engine(g);
  const auto baseline = dijkstra(g, 7);
  ShortestPathTree t;
  engine.run_into(3, t);
  engine.run_into(11, t);
  engine.run_into(7, t);
  EXPECT_EQ(t.source, 7);
  EXPECT_EQ(t.dist, baseline.dist);
  EXPECT_EQ(t.parent, baseline.parent);
  EXPECT_EQ(t.parent_edge, baseline.parent_edge);
}

TEST(Engine, UnreachableStaysInfinite) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  ShortestPathEngine engine(g);
  ShortestPathTree t;
  engine.run_into(0, t);
  EXPECT_FALSE(t.reachable(2));
  EXPECT_FALSE(t.reachable(3));
  EXPECT_DOUBLE_EQ(t.distance(1), 1.0);
}

TEST(PathTo, SourceEqualsTargetIsSingleton) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  const auto t = dijkstra(g, 1);
  EXPECT_EQ(t.path_to(1), std::vector<NodeId>{1});
}

#ifndef NDEBUG
using PathToDeathTest = ::testing::Test;

TEST(PathToDeathTest, UnreachableTargetAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Graph g(3);
  g.add_edge(0, 1, 1.0);  // node 2 isolated
  const auto t = dijkstra(g, 0);
  EXPECT_DEATH({ (void)t.path_to(2); }, "reachable");
}
#endif

TEST(MultiSource, EqualDistanceGoesToSmallerSourceId) {
  // d(0, 2) = 5 via 0-1-2; d(3, 2) = 5 directly.  The old visit-order
  // tie-break settled node 3's relaxation first and handed 2 to owner 3;
  // the lexicographic (dist, owner) labels must hand it to 0.
  Graph g(4);
  g.add_edge(0, 1, 4.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(3, 2, 5.0);
  const auto vor = multi_source_dijkstra(g, {0, 3});
  EXPECT_DOUBLE_EQ(vor.dist[2], 5.0);
  EXPECT_EQ(vor.owner[2], 0);
}

TEST(MultiSource, SeedProtectionShadowsNodesBehindTheProtectedSource) {
  // Sources 0 and 5 joined by a zero-cost edge; w hangs off 5.  Source 5
  // keeps its own cell (seed protection), and because labels never
  // propagate through a protected seed, w — reachable only via 5 — keeps
  // owner 5 even though d(0, w) == d(5, w) == 1.  This pins the documented
  // zero-cost-tie semantics of the (dist, owner) label order.
  Graph g(6);
  g.add_edge(0, 5, 0.0);
  const NodeId w = 1;
  g.add_edge(5, w, 1.0);
  const auto vor = multi_source_dijkstra(g, {0, 5});
  EXPECT_EQ(vor.owner[5], 5);
  EXPECT_EQ(vor.owner[0], 0);
  EXPECT_DOUBLE_EQ(vor.dist[static_cast<std::size_t>(w)], 1.0);
  EXPECT_EQ(vor.owner[static_cast<std::size_t>(w)], 5);
}

class MultiSourceRandom : public ::testing::TestWithParam<int> {};

TEST_P(MultiSourceRandom, OwnerIsSmallestAmongNearestSources) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 17);
  const int n = rng.uniform_int(8, 40);
  // Integer costs force plenty of exact distance ties.
  const Graph g = random_connected(rng, n, 0.2, /*integer_costs=*/true);
  std::vector<NodeId> sources;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (rng.chance(0.25)) sources.push_back(v);
  }
  if (sources.empty()) sources.push_back(static_cast<NodeId>(n - 1));

  const auto vor = multi_source_dijkstra(g, sources);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    Cost best = kInfiniteCost;
    NodeId best_src = kInvalidNode;
    for (NodeId s : sources) {  // sources ascend, so first minimum = smallest id
      const Cost d = dijkstra(g, s).distance(v);
      if (d < best) {
        best = d;
        best_src = s;
      }
    }
    EXPECT_NEAR(vor.dist[static_cast<std::size_t>(v)], best, 1e-9);
    EXPECT_EQ(vor.owner[static_cast<std::size_t>(v)], best_src) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiSourceRandom, ::testing::Range(1, 9));

TEST(MultiSource, ParentChainStaysInsideOwnersCell) {
  util::Rng rng(23);
  const Graph g = random_connected(rng, 40, 0.2, /*integer_costs=*/true);
  const std::vector<NodeId> sources{1, 9, 21};
  const auto vor = multi_source_dijkstra(g, sources);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (vor.parent[vi] == kInvalidNode) continue;
    const auto pi = static_cast<std::size_t>(vor.parent[vi]);
    EXPECT_EQ(vor.owner[pi], vor.owner[vi]);
    EXPECT_NEAR(vor.dist[pi] + g.edge(vor.parent_edge[vi]).cost, vor.dist[vi], 1e-9);
  }
}

TEST(MultiSource, EngineAgreesWithFreeFunction) {
  util::Rng rng(31);
  const Graph g = random_connected(rng, 35, 0.15, /*integer_costs=*/true);
  const std::vector<NodeId> sources{0, 5, 6, 17};
  ShortestPathEngine engine(g);
  ShortestPathTree dirty;
  engine.run_into(3, dirty);  // dirty the workspaces first
  const auto& a = engine.run_multi(sources);
  const auto b = multi_source_dijkstra(g, sources);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.owner, b.owner);
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.parent_edge, b.parent_edge);
}

TEST(MetricClosureThreads, BitIdenticalForAnyThreadCount) {
  util::Rng rng(77);
  const Graph g = random_connected(rng, 120, 0.05);
  std::vector<NodeId> hubs;
  for (NodeId v = 0; v < g.node_count(); v += 3) hubs.push_back(v);
  hubs.push_back(hubs.front());  // duplicate tolerated

  const MetricClosure solo(g, hubs, 1);
  test::ReverseRunner reverse;  // lanes n-1 .. 0, all on this thread
  for (util::LaneRunner* runner : {static_cast<util::LaneRunner*>(nullptr),
                                   static_cast<util::LaneRunner*>(&reverse)}) {
    for (int threads : {2, 3, 8}) {
      MetricClosure par;
      par.build(g, hubs, threads, nullptr, runner);
      for (NodeId h : hubs) {
        ASSERT_TRUE(par.is_hub(h));
        const ShortestPathTree p = par.tree(h).materialize();
        const ShortestPathTree s = solo.tree(h).materialize();
        EXPECT_EQ(p.source, s.source);
        EXPECT_EQ(p.dist, s.dist);          // bitwise doubles
        EXPECT_EQ(p.parent, s.parent);
        EXPECT_EQ(p.parent_edge, s.parent_edge);
      }
    }
  }
}

TEST(MetricClosure, TapDerivedTreesBitIdenticalToFullRuns) {
  // Hubs attached by zero-cost degree-1 taps (the library's VM attachment)
  // get their trees derived from the host tree; the result must equal a
  // full Dijkstra from the tap, bit for bit — dist, parent and parent_edge.
  util::Rng rng(55);
  Graph g = random_connected(rng, 60, 0.1);
  std::vector<NodeId> hubs;
  for (int i = 0; i < 12; ++i) {
    const auto host = static_cast<NodeId>(rng.index(60));  // several taps share hosts
    const NodeId vm = g.add_node();
    g.add_edge(vm, host, 0.0);
    hubs.push_back(vm);
  }
  hubs.push_back(3);  // one backbone hub that is also a tap host candidate
  const MetricClosure mc(g, hubs, 1);
  for (NodeId h : hubs) {
    const auto full = dijkstra(g, h);
    const ShortestPathTree got = mc.tree(h).materialize();
    EXPECT_EQ(got.source, h);
    EXPECT_EQ(got.dist, full.dist);
    EXPECT_EQ(got.parent, full.parent);
    EXPECT_EQ(got.parent_edge, full.parent_edge);
  }
}

TEST(MetricClosure, MutualZeroCostTapsFallBackToFullRuns) {
  // Two nodes joined by one zero-cost edge and nothing else: both are
  // "taps" of each other; derivation must not chase the cycle.
  Graph g(4);
  g.add_edge(0, 1, 0.0);
  g.add_edge(2, 3, 1.0);
  const MetricClosure mc(g, {0, 1}, 1);
  EXPECT_DOUBLE_EQ(mc.distance(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(mc.distance(1, 0), 0.0);
  EXPECT_FALSE(mc.tree(0).reachable(2));
}

TEST(MetricClosureThreads, TapDerivationBitIdenticalAcrossThreads) {
  util::Rng rng(66);
  Graph g = random_connected(rng, 80, 0.08);
  std::vector<NodeId> hubs;
  for (int i = 0; i < 20; ++i) {
    const auto host = static_cast<NodeId>(rng.index(80));
    const NodeId vm = g.add_node();
    g.add_edge(vm, host, 0.0);
    hubs.push_back(vm);
  }
  hubs.push_back(7);
  const MetricClosure solo(g, hubs, 1);
  const MetricClosure par(g, hubs, 4);
  for (NodeId h : hubs) {
    const ShortestPathTree p = par.tree(h).materialize();
    const ShortestPathTree s = solo.tree(h).materialize();
    EXPECT_EQ(p.dist, s.dist);
    EXPECT_EQ(p.parent, s.parent);
    EXPECT_EQ(p.parent_edge, s.parent_edge);
  }
}

TEST(MetricClosureThreads, ThreadCountClampedAndUsable) {
  Graph g(2);
  g.add_edge(0, 1, 2.0);
  const MetricClosure mc(g, {0, 1}, -4);  // clamped to 1
  EXPECT_DOUBLE_EQ(mc.distance(0, 1), 2.0);
  const MetricClosure wide(g, {0, 1}, 64);  // more threads than hubs
  EXPECT_DOUBLE_EQ(wide.distance(1, 0), 2.0);
}

// ---------------------------------------------------------------- repair ---

void expect_tree_eq(const ShortestPathTree& got, const ShortestPathTree& want,
                    const char* what) {
  EXPECT_EQ(got.source, want.source) << what;
  EXPECT_EQ(got.dist, want.dist) << what;          // bitwise doubles
  EXPECT_EQ(got.parent, want.parent) << what;
  EXPECT_EQ(got.parent_edge, want.parent_edge) << what;
}

TEST(Repair, SingleDecreaseMatchesFreshRun) {
  util::Rng rng(3);
  Graph g = random_connected(rng, 30, 0.15);
  ShortestPathEngine engine(g);
  ShortestPathTree tree;
  engine.run_into(0, tree);
  const EdgeId e = 5;
  const Cost old_cost = g.edge(e).cost;
  g.set_edge_cost(e, old_cost * 0.1);
  const EdgeCostDelta delta{e, old_cost, old_cost * 0.1};
  engine.repair(tree, {&delta, 1});
  ShortestPathTree fresh;
  ShortestPathEngine(g).run_into(0, fresh);
  expect_tree_eq(tree, fresh, "decrease");
}

TEST(Repair, SingleIncreaseMatchesFreshRun) {
  util::Rng rng(4);
  Graph g = random_connected(rng, 30, 0.15);
  ShortestPathEngine engine(g);
  ShortestPathTree tree;
  engine.run_into(2, tree);
  // Increase an arc the tree actually uses so a subtree is orphaned.
  EdgeId used = kInvalidEdge;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (tree.parent_edge[static_cast<std::size_t>(v)] != kInvalidEdge) {
      used = tree.parent_edge[static_cast<std::size_t>(v)];
    }
  }
  ASSERT_NE(used, kInvalidEdge);
  const Cost old_cost = g.edge(used).cost;
  g.set_edge_cost(used, old_cost * 50.0);
  const EdgeCostDelta delta{used, old_cost, old_cost * 50.0};
  engine.repair(tree, {&delta, 1});
  ShortestPathTree fresh;
  ShortestPathEngine(g).run_into(2, fresh);
  expect_tree_eq(tree, fresh, "increase");
}

TEST(Repair, DisconnectAndReconnectViaInfiniteCost) {
  // kInfiniteCost is a legal edge cost and acts as a soft removal: the
  // repair must carry nodes to +inf/parentless and back.
  Graph g(4);  // path 0-1-2-3
  const EdgeId cut = g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  ShortestPathEngine engine(g);
  ShortestPathTree tree;
  engine.run_into(0, tree);

  g.set_edge_cost(cut, kInfiniteCost);
  const EdgeCostDelta sever{cut, 1.0, kInfiniteCost};
  engine.repair(tree, {&sever, 1});
  EXPECT_FALSE(tree.reachable(1));
  EXPECT_FALSE(tree.reachable(3));
  ShortestPathTree fresh;
  ShortestPathEngine(g).run_into(0, fresh);
  expect_tree_eq(tree, fresh, "severed");

  g.set_edge_cost(cut, 0.25);
  const EdgeCostDelta rejoin{cut, kInfiniteCost, 0.25};
  engine.repair(tree, {&rejoin, 1});
  EXPECT_DOUBLE_EQ(tree.distance(3), 2.25);
  ShortestPathEngine(g).run_into(0, fresh);
  expect_tree_eq(tree, fresh, "rejoined");
}

TEST(Repair, ZeroCostPlateauReparentsLikeAFreshRun) {
  // Plateau {7, 2} at distance 3, entered only through 7: a fresh run
  // settles 7 before 2 (2 is only discovered by 7), so node 5's parent is
  // 7 even though 2 has the smaller id.  A cost delta elsewhere must not
  // disturb that; making 2 an entry point must flip it.
  Graph g(9);
  g.add_edge(0, 8, 3.0);   // 0 -> 8, unrelated branch we can perturb
  g.add_edge(0, 7, 3.0);   // entry into the plateau
  const EdgeId plateau_edge = g.add_edge(7, 2, 0.0);
  (void)plateau_edge;
  g.add_edge(7, 5, 2.0);   // 5 attains 5.0 via 7 ...
  g.add_edge(2, 5, 2.0);   // ... and via 2, same distance
  const EdgeId into2 = g.add_edge(0, 2, 9.0);  // too long to matter, yet
  ShortestPathEngine engine(g);
  ShortestPathTree tree;
  engine.run_into(0, tree);
  ASSERT_EQ(tree.parent[5], 7);

  // Unrelated decrease: parents inside and below the plateau stay put.
  g.set_edge_cost(0, 2.5);
  const EdgeCostDelta unrelated{0, 3.0, 2.5};
  engine.repair(tree, {&unrelated, 1});
  ShortestPathTree fresh;
  ShortestPathEngine(g).run_into(0, fresh);
  expect_tree_eq(tree, fresh, "unrelated delta");
  EXPECT_EQ(tree.parent[5], 7);

  // Make 2 an entry point at the same distance 3: level-3 now pops 2 first
  // (both heap-present, smaller id), so 2 relaxes 5 first.
  g.set_edge_cost(into2, 3.0);
  const EdgeCostDelta entry{into2, 9.0, 3.0};
  engine.repair(tree, {&entry, 1});
  ShortestPathEngine(g).run_into(0, fresh);
  expect_tree_eq(tree, fresh, "new entry point");
  EXPECT_EQ(tree.parent[5], 2);
  EXPECT_EQ(tree.parent[2], 0);
}

/// Random graph with zero-cost edges mixed in (taps and plateaus) so exact
/// distance ties and preserving plateaus are common.
Graph random_tied(util::Rng& rng, int n, double extra_edge_prob) {
  Graph g(n);
  auto cost = [&]() -> Cost {
    const int r = rng.uniform_int(0, 5);
    return r == 0 ? 0.0 : static_cast<Cost>(r);
  };
  for (NodeId v = 1; v < n; ++v) {
    g.add_edge(v, static_cast<NodeId>(rng.index(static_cast<std::size_t>(v))), cost());
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.chance(extra_edge_prob)) g.add_edge(u, v, cost());
    }
  }
  return g;
}

class RepairFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RepairFuzz, RepeatedRepairsBitIdenticalToFreshRuns) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int n = rng.uniform_int(8, 60);
  Graph g = random_tied(rng, n, 0.12);
  const auto source = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
  ShortestPathEngine engine(g);
  ShortestPathTree tree;
  engine.run_into(source, tree);

  ShortestPathEngine fresh_engine;
  ShortestPathTree fresh;
  for (int round = 0; round < 12; ++round) {
    // A batch of random cost mutations: mixed increases, decreases,
    // zero-outs, soft removals (+inf) and restores, at most one per edge.
    const int k = rng.uniform_int(1, std::max(1, g.edge_count() / 4));
    std::map<EdgeId, Cost> old_costs;
    for (int i = 0; i < k; ++i) {
      const auto e = static_cast<EdgeId>(rng.index(static_cast<std::size_t>(g.edge_count())));
      old_costs.try_emplace(e, g.edge(e).cost);
    }
    std::vector<EdgeCostDelta> deltas;
    for (const auto& [e, old_cost] : old_costs) {
      Cost next;
      switch (rng.uniform_int(0, 4)) {
        case 0: next = 0.0; break;
        case 1: next = kInfiniteCost; break;
        case 2: next = old_cost == kInfiniteCost ? 2.0 : old_cost * 0.5; break;
        default: next = static_cast<Cost>(rng.uniform_int(0, 6)); break;
      }
      g.set_edge_cost(e, next);
      deltas.push_back(EdgeCostDelta{e, old_cost, next});
    }
    engine.repair(tree, deltas);

    fresh_engine.attach(g);
    fresh_engine.run_into(source, fresh);
    ASSERT_EQ(tree.dist, fresh.dist) << "round " << round;
    ASSERT_EQ(tree.parent, fresh.parent) << "round " << round;
    ASSERT_EQ(tree.parent_edge, fresh.parent_edge) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairFuzz, ::testing::Range(1, 17));

TEST_P(RepairFuzz, TouchedListCoversEveryChangedEntry) {
  // The §9 pricing cache trusts repair's touched_out to OVER-approximate
  // the changed entries: any (dist, parent, parent_edge) that differs from
  // the pre-repair tree must be listed (or the repair reports fell_back).
  // Serving a stale chain is the failure mode if this ever under-reports,
  // so pin it with the same delta mix as the bit-identity fuzz.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6007 + 29);
  const int n = rng.uniform_int(8, 60);
  Graph g = random_tied(rng, n, 0.12);
  const auto source = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
  ShortestPathEngine engine(g);
  ShortestPathTree tree;
  engine.run_into(source, tree);

  for (int round = 0; round < 12; ++round) {
    const int k = rng.uniform_int(1, std::max(1, g.edge_count() / 4));
    std::map<EdgeId, Cost> old_costs;
    for (int i = 0; i < k; ++i) {
      const auto e = static_cast<EdgeId>(rng.index(static_cast<std::size_t>(g.edge_count())));
      old_costs.try_emplace(e, g.edge(e).cost);
    }
    std::vector<EdgeCostDelta> deltas;
    for (const auto& [e, old_cost] : old_costs) {
      Cost next;
      switch (rng.uniform_int(0, 4)) {
        case 0: next = 0.0; break;
        case 1: next = kInfiniteCost; break;
        case 2: next = old_cost == kInfiniteCost ? 2.0 : old_cost * 0.5; break;
        default: next = static_cast<Cost>(rng.uniform_int(0, 6)); break;
      }
      g.set_edge_cost(e, next);
      deltas.push_back(EdgeCostDelta{e, old_cost, next});
    }

    const ShortestPathTree before = tree;
    std::vector<NodeId> touched;
    const auto stats = engine.repair(tree, deltas, &touched);
    if (stats.fell_back) continue;  // full rewrite: no list by contract
    std::vector<bool> listed(static_cast<std::size_t>(n), false);
    for (NodeId v : touched) listed[static_cast<std::size_t>(v)] = true;
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      if (tree.dist[i] != before.dist[i] || tree.parent[i] != before.parent[i] ||
          tree.parent_edge[i] != before.parent_edge[i]) {
        ASSERT_TRUE(listed[i]) << "round " << round << ": node " << i
                               << " changed but is not in touched_out";
        ASSERT_TRUE(stats.changed_anything());
      }
    }
  }
}

TEST(MetricClosureRefresh, RowDeltasCoverEveryChangedRow) {
  // The closure-level half of the same §9 contract: any hub row whose tree
  // changed must appear in refresh's RowDelta list, with the differing
  // nodes covered by its change set (or the row reported full).  Tap
  // groups make the derive-inheritance path part of what is pinned.
  util::Rng rng(271);
  Graph g = random_tied(rng, 60, 0.1);
  std::vector<NodeId> hubs;
  for (NodeId v = 0; v < 60; v += 6) hubs.push_back(v);
  for (NodeId host : {NodeId{13}, NodeId{13}, NodeId{27}, NodeId{0}}) {
    const NodeId vm = g.add_node();
    g.add_edge(vm, host, 0.0);
    hubs.push_back(vm);
  }
  MetricClosure closure(g, hubs, 1);

  for (int round = 0; round < 6; ++round) {
    std::map<NodeId, ShortestPathTree> before;
    for (NodeId h : hubs) before.emplace(h, closure.tree(h).materialize());

    std::vector<EdgeCostDelta> deltas;
    for (int i = 0; i < 7; ++i) {
      const auto e = static_cast<EdgeId>(rng.index(static_cast<std::size_t>(g.edge_count())));
      const Cost old_cost = g.edge(e).cost;
      const Cost next = static_cast<Cost>(rng.uniform_int(0, 5));
      bool dup = next == old_cost;
      for (const auto& d : deltas) dup = dup || d.edge == e;
      if (dup) continue;
      g.set_edge_cost(e, next);
      deltas.push_back(EdgeCostDelta{e, old_cost, next});
    }

    std::vector<MetricClosure::RowDelta> rows;
    closure.refresh(g, deltas, round % 2 == 0 ? 1 : 4, nullptr, &rows);

    for (NodeId h : hubs) {
      const ShortestPathTree& old_tree = before.at(h);
      const ConstTreeRow new_tree = closure.tree(h);
      const MetricClosure::RowDelta* row = nullptr;
      for (const auto& r : rows) {
        if (r.hub == h) row = &r;
      }
      std::vector<bool> listed(old_tree.dist.size(), false);
      if (row != nullptr && !row->full) {
        for (NodeId v : row->nodes) listed[static_cast<std::size_t>(v)] = true;
      }
      for (std::size_t i = 0; i < old_tree.dist.size(); ++i) {
        if (new_tree.dist[i] == old_tree.dist[i] && new_tree.parent[i] == old_tree.parent[i] &&
            new_tree.parent_edge[i] == old_tree.parent_edge[i]) {
          continue;
        }
        ASSERT_NE(row, nullptr) << "round " << round << ": hub " << h
                                << " changed at node " << i << " but reported no RowDelta";
        ASSERT_TRUE(row->full || listed[i])
            << "round " << round << ": hub " << h << " changed at node " << i
            << " outside its RowDelta node set";
      }
    }
  }
}

TEST(Repair, NoOpDeltasLeaveTheTreeUntouched) {
  util::Rng rng(91);
  Graph g = random_tied(rng, 25, 0.2);
  ShortestPathEngine engine(g);
  ShortestPathTree tree;
  engine.run_into(1, tree);
  const ShortestPathTree before = tree;
  const std::vector<EdgeCostDelta> deltas{{0, g.edge(0).cost, g.edge(0).cost},
                                          {3, g.edge(3).cost, g.edge(3).cost}};
  const auto stats = engine.repair(tree, deltas);
  EXPECT_EQ(stats.invalidated, 0u);
  EXPECT_EQ(stats.improved, 0u);
  EXPECT_EQ(stats.reparented, 0u);
  expect_tree_eq(tree, before, "no-op deltas");
}

TEST(MetricClosureRefresh, RepairedTreesBitIdenticalToRebuild) {
  util::Rng rng(111);
  Graph g = random_tied(rng, 70, 0.08);
  // Hub set with taps (the online shape): backbone hubs + zero-cost VMs.
  // Several VMs share hosts so refresh's sibling derivation (one repaired
  // representative per host group) is exercised, for both stored and
  // non-stored hosts.
  std::vector<NodeId> hubs;
  for (NodeId v = 0; v < 70; v += 7) hubs.push_back(v);
  for (int i = 0; i < 8; ++i) {
    const auto host = static_cast<NodeId>(rng.index(70));
    const NodeId vm = g.add_node();
    g.add_edge(vm, host, 0.0);
    hubs.push_back(vm);
  }
  for (NodeId host : {NodeId{10}, NodeId{0}}) {  // 10 not a hub, 0 is
    for (int i = 0; i < 3; ++i) {
      const NodeId vm = g.add_node();
      g.add_edge(vm, host, 0.0);
      hubs.push_back(vm);
    }
  }
  MetricClosure closure(g, hubs, 1);
  test::ReverseRunner reverse;  // lanes n-1 .. 0, all on this thread

  for (int round = 0; round < 6; ++round) {
    std::vector<EdgeCostDelta> deltas;
    for (int i = 0; i < 9; ++i) {
      const auto e = static_cast<EdgeId>(rng.index(static_cast<std::size_t>(g.edge_count())));
      const Cost old_cost = g.edge(e).cost;
      const Cost next = static_cast<Cost>(rng.uniform_int(0, 5));
      if (next == old_cost) continue;
      bool dup = false;
      for (const auto& d : deltas) dup = dup || d.edge == e;
      if (dup) continue;
      g.set_edge_cost(e, next);
      deltas.push_back(EdgeCostDelta{e, old_cost, next});
    }
    // Serial, fresh threads, and the reversed lane schedule in turn.
    const int threads = round % 3 == 0 ? 1 : 4;
    closure.refresh(g, deltas, threads, nullptr, nullptr, round % 3 == 2 ? &reverse : nullptr);
    const MetricClosure fresh(g, hubs, 1);
    for (NodeId h : hubs) {
      const ShortestPathTree got = closure.tree(h).materialize();
      const ShortestPathTree want = fresh.tree(h).materialize();
      ASSERT_EQ(got.dist, want.dist) << "round " << round;
      ASSERT_EQ(got.parent, want.parent) << "round " << round;
      ASSERT_EQ(got.parent_edge, want.parent_edge) << "round " << round;
    }
  }
}

TEST(MetricClosureRetain, EvictsExactlyTheUnlistedHubs) {
  util::Rng rng(117);
  Graph g = random_connected(rng, 30, 0.15);
  MetricClosure closure(g, {1, 4, 9, 16, 25}, 1);
  ASSERT_EQ(closure.hub_count(), 5u);
  closure.retain({16, 4, 2});  // 2 was never a hub; listing it is harmless
  EXPECT_EQ(closure.hub_count(), 2u);
  EXPECT_TRUE(closure.is_hub(4));
  EXPECT_TRUE(closure.is_hub(16));
  EXPECT_FALSE(closure.is_hub(9));
  // Survivors are untouched, and the closure extends/refreshes normally.
  const auto full = dijkstra(g, 4);
  EXPECT_EQ(closure.tree(4).materialize().dist, full.dist);
  closure.extend(g, {9});
  EXPECT_EQ(closure.tree(9).materialize().dist, dijkstra(g, 9).dist);
}

TEST(MetricClosureExtend, GrownClosureMatchesOneShotBuildPerTree) {
  util::Rng rng(121);
  Graph g = random_connected(rng, 50, 0.1);
  // Taps whose hosts land in different batches, exercising cross-batch
  // host resolution.
  std::vector<NodeId> first{0, 3, 9};
  std::vector<NodeId> second{12, 3};  // overlap tolerated
  for (int i = 0; i < 4; ++i) {
    const NodeId vm = g.add_node();
    g.add_edge(vm, static_cast<NodeId>(i * 11 % 50), 0.0);
    (i % 2 == 0 ? first : second).push_back(vm);
  }
  MetricClosure grown(g, first, 1);
  grown.extend(g, second, 1);
  EXPECT_TRUE(grown.is_hub(12));

  std::vector<NodeId> all = first;
  all.insert(all.end(), second.begin(), second.end());
  const MetricClosure oneshot(g, all, 1);
  EXPECT_EQ(grown.hub_count(), oneshot.hub_count());
  for (NodeId h : all) {
    const ShortestPathTree got = grown.tree(h).materialize();
    const ShortestPathTree want = oneshot.tree(h).materialize();
    ASSERT_EQ(got.dist, want.dist);
    ASSERT_EQ(got.parent, want.parent);
    ASSERT_EQ(got.parent_edge, want.parent_edge);
  }
}

}  // namespace
}  // namespace sofe::graph
