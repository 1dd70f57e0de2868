// k-stroll substrate tests: Procedure-1 construction (cost telescoping and
// Lemma-1 triangle inequality), heuristic vs exact-DP quality, the
// Appendix-D source-cost variant, and the repair-aware pricing machinery
// (DESIGN.md §9): shared-block instance assembly bitwise vs the per-pair
// builder, and the PricingSession's cache hit/invalidate semantics across
// repair vs rebuild vs extend, departure cost restores, thread counts and
// lent lane runners, the equal-cost parent-flip traps, the read-only
// chains() view into the table (bitwise the values price() returns), and
// twin-run relabeling against the per-pair reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>

#include "lane_runners.hpp"
#include "sofe/core/pricing.hpp"
#include "sofe/core/sofda.hpp"
#include "sofe/graph/shortest_path_engine.hpp"
#include "sofe/kstroll/instance.hpp"
#include "sofe/kstroll/pricing.hpp"
#include "sofe/kstroll/solver.hpp"
#include "sofe/topology/topology.hpp"
#include "sofe/util/rng.hpp"
#include "sofe/util/worker_pool.hpp"

namespace sofe::kstroll {
namespace {

struct Fixture {
  Graph g;
  std::vector<Cost> node_cost;
  std::vector<NodeId> vms;
  NodeId source;
};

/// Line network: s=0 - 1 - 2 - 3 - 4 with unit edges; VMs 1..4.
Fixture line5() {
  Fixture f{Graph(5), {0.0, 2.0, 4.0, 6.0, 8.0}, {1, 2, 3, 4}, 0};
  for (NodeId v = 0; v + 1 < 5; ++v) f.g.add_edge(v, v + 1, 1.0);
  return f;
}

Fixture random_fixture(std::uint64_t seed, int n, int vms) {
  util::Rng rng(seed);
  Fixture f{Graph(n), std::vector<Cost>(static_cast<std::size_t>(n), 0.0), {}, 0};
  for (NodeId v = 1; v < n; ++v) {
    f.g.add_edge(v, static_cast<NodeId>(rng.index(static_cast<std::size_t>(v))),
                 rng.uniform(0.5, 5.0));
  }
  for (int extra = 0; extra < n; ++extra) {
    const NodeId u = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    const NodeId v = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    if (u != v && f.g.find_edge(u, v) == graph::kInvalidEdge) {
      f.g.add_edge(u, v, rng.uniform(0.5, 5.0));
    }
  }
  const auto chosen = rng.sample_without_replacement(static_cast<std::size_t>(n - 1),
                                                     static_cast<std::size_t>(vms));
  for (auto c : chosen) {
    const NodeId v = static_cast<NodeId>(c + 1);  // node 0 stays the source
    f.vms.push_back(v);
    f.node_cost[static_cast<std::size_t>(v)] = rng.uniform(1.0, 6.0);
  }
  return f;
}

graph::MetricClosure closure_for(const Fixture& f) {
  std::vector<NodeId> hubs = f.vms;
  hubs.push_back(f.source);
  return graph::MetricClosure(f.g, hubs);
}

TEST(StrollInstance, EdgeCostSharingMainModel) {
  Fixture f = line5();
  const auto mc = closure_for(f);
  const auto inst = build_stroll_instance(f.g, mc, 0, f.vms, /*u=*/4, f.node_cost);
  ASSERT_EQ(inst.size(), 5u);
  // nodes = [0, 1, 2, 3, 4]; edge (s=0, 1): d(0,1)=1 plus (c(u=4)+c(1))/2 = 5.
  EXPECT_DOUBLE_EQ(inst.edge_cost(0, 1), 1.0 + (8.0 + 2.0) / 2.0);
  // edge (1, 2): d=1 plus (c(1)+c(2))/2 = 3.
  EXPECT_DOUBLE_EQ(inst.edge_cost(1, 2), 1.0 + (2.0 + 4.0) / 2.0);
  // edge (s, u): d(0,4)=4 plus (c(4)+c(4))/2 = 8.
  EXPECT_DOUBLE_EQ(inst.edge_cost(0, 4), 4.0 + 8.0);
}

TEST(StrollInstance, PathCostTelescopesToWalkCost) {
  // §IV "first characteristic": the instance cost of a simple s→u path equals
  // the setup cost of its interior+last VMs plus shortest-path connections.
  Fixture f = line5();
  const auto mc = closure_for(f);
  const auto inst = build_stroll_instance(f.g, mc, 0, f.vms, 4, f.node_cost);
  // Path 0 -> 2 -> 4 visits VMs 2 and 4.
  const Cost path_cost = inst.edge_cost(0, 1 /*node 2? index*/);
  (void)path_cost;
  // Find indices of graph nodes 2 and 4.
  auto idx = [&](NodeId v) {
    for (std::size_t i = 0; i < inst.nodes.size(); ++i) {
      if (inst.nodes[i] == v) return i;
    }
    return std::size_t{999};
  };
  const Cost c = inst.edge_cost(0, idx(2)) + inst.edge_cost(idx(2), idx(4));
  // Setup: c(2)+c(4) = 12; connection: d(0,2)+d(2,4) = 4.
  EXPECT_DOUBLE_EQ(c, 16.0);
}

class TriangleInequality : public ::testing::TestWithParam<int> {};

TEST_P(TriangleInequality, Lemma1HoldsOnRandomInstances) {
  Fixture f = random_fixture(static_cast<std::uint64_t>(GetParam()) * 31 + 5, 18, 7);
  const auto mc = closure_for(f);
  for (NodeId u : f.vms) {
    const auto inst = build_stroll_instance(f.g, mc, f.source, f.vms, u, f.node_cost);
    const std::size_t n = inst.size();
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t c = 0; c < n; ++c) {
          if (a == b || b == c || a == c) continue;
          EXPECT_LE(inst.edge_cost(a, c), inst.edge_cost(a, b) + inst.edge_cost(b, c) + 1e-9)
              << "triangle inequality violated (Lemma 1)";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriangleInequality, ::testing::Range(1, 9));

TEST(StrollSolver, TrivialKTwo) {
  Fixture f = line5();
  const auto mc = closure_for(f);
  const auto inst = build_stroll_instance(f.g, mc, 0, f.vms, 4, f.node_cost);
  const auto s = solve_stroll(inst, 2);
  ASSERT_TRUE(s.feasible());
  EXPECT_EQ(s.order.size(), 2u);
  EXPECT_DOUBLE_EQ(s.cost, inst.edge_cost(0, inst.last_index));
}

TEST(StrollSolver, InfeasibleWhenTooFewNodes) {
  Fixture f = line5();
  const auto mc = closure_for(f);
  const auto inst = build_stroll_instance(f.g, mc, 0, f.vms, 4, f.node_cost);
  EXPECT_FALSE(solve_stroll(inst, 7).feasible());   // only 5 nodes exist
  EXPECT_FALSE(exact_dp(inst, 7).feasible());
}

TEST(StrollSolver, InfeasibleWhenTooFewNodesAtFiniteCost) {
  // Five instance nodes, but only the source (index 0), the last VM (1)
  // and node 2 are mutually reachable; nodes 3 and 4 sit behind +inf links
  // (VMs cut off by failed links).  A 4-stroll needs a fourth node at
  // finite cost, so every solver reports infeasible — no unused node has a
  // finite insertion delta, which cheapest insertion must not index past.
  constexpr Cost kInf = graph::kInfiniteCost;
  StrollInstance inst;
  inst.source = 10;
  inst.last_vm = 11;
  inst.nodes = {10, 11, 12, 13, 14};
  inst.last_index = 1;
  inst.cost = {0.0,  2.0,  1.0,  kInf, kInf,  //
               2.0,  0.0,  1.0,  kInf, kInf,  //
               1.0,  1.0,  0.0,  kInf, kInf,  //
               kInf, kInf, kInf, 0.0,  1.0,   //
               kInf, kInf, kInf, 1.0,  0.0};
  EXPECT_FALSE(cheapest_insertion(inst, 4).feasible());
  EXPECT_FALSE(exact_dp(inst, 4).feasible());
  EXPECT_FALSE(solve_stroll(inst, 4).feasible());
  // Three finite nodes still make a 3-stroll: s -> 2 -> u.
  const Stroll s = cheapest_insertion(inst, 3);
  ASSERT_TRUE(s.feasible());
  EXPECT_EQ(s.order, (std::vector<std::size_t>{0, 2, 1}));
  EXPECT_DOUBLE_EQ(s.cost, 2.0);
}

TEST(StrollSolver, LineNetworkOrderedVisit) {
  // On a line with increasing VM costs, the cheapest 3-stroll 0→4 takes the
  // cheapest intermediate VM (node 1).
  Fixture f = line5();
  const auto mc = closure_for(f);
  const auto inst = build_stroll_instance(f.g, mc, 0, f.vms, 4, f.node_cost);
  const auto s = exact_dp(inst, 3);
  ASSERT_TRUE(s.feasible());
  EXPECT_EQ(inst.nodes[s.order[1]], 1);
}

struct QualityCase {
  int seed;
  int nodes, vms, k;
};

class StrollQuality : public ::testing::TestWithParam<QualityCase> {};

TEST_P(StrollQuality, HeuristicNearExactOnPaperScales) {
  const auto [seed, n, m, k] = GetParam();
  Fixture f = random_fixture(static_cast<std::uint64_t>(seed) * 977 + 13, n, m);
  const auto mc = closure_for(f);
  for (NodeId u : f.vms) {
    const auto inst = build_stroll_instance(f.g, mc, f.source, f.vms, u, f.node_cost);
    const auto heur = solve_stroll(inst, k, StrollAlgorithm::kCheapestInsertion);
    const auto exact = solve_stroll(inst, k, StrollAlgorithm::kExactDp);
    ASSERT_EQ(heur.feasible(), exact.feasible());
    if (!exact.feasible()) continue;
    // Structure checks.
    EXPECT_EQ(heur.order.size(), static_cast<std::size_t>(k));
    EXPECT_EQ(heur.order.front(), 0u);
    EXPECT_EQ(heur.order.back(), inst.last_index);
    std::set<std::size_t> distinct(heur.order.begin(), heur.order.end());
    EXPECT_EQ(distinct.size(), heur.order.size());
    // Quality: never better than exact; within 25% at the paper's k <= 8.
    EXPECT_GE(heur.cost, exact.cost - 1e-9);
    EXPECT_LE(heur.cost, 1.25 * exact.cost + 1e-9);
    // Cost field consistent with the order.
    EXPECT_NEAR(heur.cost, inst.path_cost(heur.order), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrollQuality,
    ::testing::Values(QualityCase{1, 12, 5, 3}, QualityCase{2, 14, 6, 4},
                      QualityCase{3, 16, 7, 5}, QualityCase{4, 18, 8, 6},
                      QualityCase{5, 20, 9, 7}, QualityCase{6, 15, 6, 4},
                      QualityCase{7, 22, 10, 8}, QualityCase{8, 13, 5, 4},
                      QualityCase{9, 17, 8, 5}, QualityCase{10, 19, 9, 6}));

TEST(StrollInstance, AppendixDSourceCostTelescopes) {
  Fixture f = line5();
  const auto mc = closure_for(f);
  const Cost cs = 10.0;
  const auto inst = build_stroll_instance(f.g, mc, 0, f.vms, 4, f.node_cost, cs);
  auto idx = [&](NodeId v) {
    for (std::size_t i = 0; i < inst.nodes.size(); ++i) {
      if (inst.nodes[i] == v) return i;
    }
    return std::size_t{999};
  };
  // Walk 0 -> 2 -> 4: cost must be c(s) + c(2) + c(4) + d(0,2) + d(2,4) = 26.
  const Cost c = inst.edge_cost(0, idx(2)) + inst.edge_cost(idx(2), idx(4));
  EXPECT_DOUBLE_EQ(c, cs + 4.0 + 8.0 + 2.0 + 2.0);
  // Direct edge (s, u) carries the full c(s) + c(u).
  EXPECT_DOUBLE_EQ(inst.edge_cost(0, idx(4)), 4.0 + cs + 8.0);
}

TEST(StrollSolver, ImproveNeverWorsens) {
  Fixture f = random_fixture(4242, 20, 8);
  const auto mc = closure_for(f);
  const auto inst = build_stroll_instance(f.g, mc, f.source, f.vms, f.vms.back(), f.node_cost);
  auto s = cheapest_insertion(inst, 5);
  ASSERT_TRUE(s.feasible());
  const Cost before = s.cost;
  improve_stroll(inst, s);
  EXPECT_LE(s.cost, before + 1e-9);
}

// ---------------------------------------------------------------------------
// Repair-aware pricing (DESIGN.md §9)

TEST(SharedInstanceAssembly, BitwiseEqualToPerPairBuilder) {
  Fixture f = random_fixture(9001, 24, 9);
  const auto mc = closure_for(f);

  SharedVmBlock block;
  block.build(mc, f.vms, f.node_cost);
  InstanceAssembler assembler;
  assembler.bind_source(block, mc, f.vms, f.source);

  for (std::size_t j = 0; j < f.vms.size(); ++j) {
    const NodeId u = f.vms[j];
    const auto expect = build_stroll_instance(f.g, mc, f.source, f.vms, u, f.node_cost);
    const auto& got = assembler.with_last_vm(j, u, f.node_cost);
    ASSERT_EQ(got.nodes, expect.nodes);
    ASSERT_EQ(got.last_index, expect.last_index);
    for (std::size_t a = 0; a < expect.size(); ++a) {
      for (std::size_t b = 0; b < expect.size(); ++b) {
        EXPECT_EQ(got.edge_cost(a, b), expect.edge_cost(a, b))  // bitwise: == on doubles
            << "entry (" << a << ", " << b << ") for last VM " << u;
      }
    }
  }
}

/// A Problem over a Fixture: sources pick up extra ids, chain length |C|.
core::Problem problem_for(const Fixture& f, std::vector<NodeId> sources, int chain_length) {
  core::Problem p;
  p.network = f.g;
  p.node_cost = f.node_cost;
  p.is_vm.assign(static_cast<std::size_t>(f.g.node_count()), 0);
  for (NodeId v : f.vms) p.is_vm[static_cast<std::size_t>(v)] = 1;
  p.sources = std::move(sources);
  p.destinations = {f.vms.back()};
  p.chain_length = chain_length;
  return p;
}

graph::MetricClosure closure_for_problem(const core::Problem& p) {
  std::vector<NodeId> hubs = p.vms();
  hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
  return graph::MetricClosure(p.network, hubs);
}

bool chains_equal(const std::vector<core::PricedChain>& a,
                  const std::vector<core::PricedChain>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].source != b[i].source || a[i].last_vm != b[i].last_vm ||
        a[i].plan.nodes != b[i].plan.nodes || a[i].plan.vnf_pos != b[i].plan.vnf_pos ||
        a[i].plan.cost != b[i].plan.cost) {  // bitwise: == on doubles
      return false;
    }
  }
  return true;
}

/// PricingSession::chains' pointer view against owned values, plan by
/// plan: source, last VM, nodes, vnf_pos and the cost's bits.
bool chains_equal(const std::vector<const core::ChainPlan*>& view,
                  const std::vector<core::PricedChain>& values) {
  if (view.size() != values.size()) return false;
  for (std::size_t i = 0; i < view.size(); ++i) {
    const core::ChainPlan& a = *view[i];
    const core::PricedChain& b = values[i];
    if (a.source != b.source || a.last_vm != b.last_vm || a.nodes != b.plan.nodes ||
        a.vnf_pos != b.plan.vnf_pos ||
        std::bit_cast<std::uint64_t>(a.cost) != std::bit_cast<std::uint64_t>(b.plan.cost)) {
      return false;
    }
  }
  return true;
}

TEST(PricingSession, ColdCallMatchesFreeFunctionThenHitsWhenUnchanged) {
  Fixture f = random_fixture(7117, 26, 8);
  const auto p = problem_for(f, {0, 5}, 3);
  const auto mc = closure_for_problem(p);

  const auto expect = core::price_candidate_chains(p, mc, p.sources);
  ASSERT_FALSE(expect.empty());

  core::PricingSession session;
  core::PricingTally tally;
  const auto cold = session.price(p, mc, p.sources, core::ClosureUpdate::rebuilt(), {}, 1, &tally);
  EXPECT_TRUE(chains_equal(cold, expect));
  EXPECT_EQ(tally.hits, 0);
  EXPECT_GT(tally.repriced, 0);

  const auto warm =
      session.price(p, mc, p.sources, core::ClosureUpdate::unchanged(), {}, 1, &tally);
  EXPECT_TRUE(chains_equal(warm, expect));
  EXPECT_EQ(tally.repriced, 0);
  EXPECT_GT(tally.hits, 0);
  EXPECT_EQ(session.cached_chains(), static_cast<std::size_t>(tally.hits));
}

TEST(PricingSession, RepairInvalidatesOnlyTouchedChainsAndStaysExact) {
  Fixture f = random_fixture(5150, 30, 9);
  auto p = problem_for(f, {0, 7, 11}, 3);
  auto mc = closure_for_problem(p);

  core::PricingSession session;
  (void)session.price(p, mc, p.sources, core::ClosureUpdate::rebuilt(), {});

  // An online-style reprice: a few links move, the closure repairs, and
  // the session re-prices against the refresh's changed-row report.
  std::vector<graph::EdgeCostDelta> deltas;
  for (core::EdgeId e : {1, 4, 9}) {
    const Cost old_cost = p.network.edge(e).cost;
    p.network.set_edge_cost(e, old_cost * 1.5 + 0.25);
    deltas.push_back({e, old_cost, p.network.edge(e).cost});
  }
  std::vector<graph::MetricClosure::RowDelta> rows;
  mc.refresh(p.network, deltas, 1, nullptr, &rows);

  core::ClosureUpdate update;
  update.kind = core::ClosureUpdate::Kind::kRepaired;
  update.rows = rows;
  core::PricingTally tally;
  const auto got = session.price(p, mc, p.sources, update, {}, 1, &tally);
  EXPECT_TRUE(chains_equal(got, core::price_candidate_chains(p, mc, p.sources)));
  EXPECT_EQ(tally.hits + tally.repriced,
            static_cast<int>(p.sources.size() * f.vms.size()));
}

TEST(PricingSession, RebuildUpdateFlushesEverything) {
  Fixture f = random_fixture(6161, 22, 7);
  const auto p = problem_for(f, {0, 3}, 3);
  const auto mc = closure_for_problem(p);

  core::PricingSession session;
  (void)session.price(p, mc, p.sources, core::ClosureUpdate::rebuilt(), {});
  core::PricingTally tally;
  const auto again =
      session.price(p, mc, p.sources, core::ClosureUpdate::rebuilt(), {}, 1, &tally);
  EXPECT_TRUE(tally.flushed);
  EXPECT_EQ(tally.hits, 0);
  EXPECT_TRUE(chains_equal(again, core::price_candidate_chains(p, mc, p.sources)));
}

TEST(PricingSession, ExtendFlushesOnlyTheReaddedSourceBucket) {
  Fixture f = random_fixture(3030, 24, 8);
  auto p = problem_for(f, {0, 9}, 3);
  auto mc = closure_for_problem(p);

  core::PricingSession session;
  (void)session.price(p, mc, p.sources, core::ClosureUpdate::rebuilt(), {});

  // Source 9 churns out and back in: the closure extends its tree, and the
  // session — which observed no deltas for the missing row — must flush
  // bucket 9 while bucket 0 keeps hitting.
  const std::vector<NodeId> added{9};
  core::ClosureUpdate update;
  update.kind = core::ClosureUpdate::Kind::kRepaired;
  update.added_hubs = added;
  core::PricingTally tally;
  const auto got = session.price(p, mc, p.sources, update, {}, 1, &tally);
  EXPECT_TRUE(chains_equal(got, core::price_candidate_chains(p, mc, p.sources)));
  EXPECT_EQ(tally.hits, static_cast<int>(f.vms.size()));      // all of bucket 0
  EXPECT_EQ(tally.repriced, static_cast<int>(f.vms.size()));  // all of bucket 9
}

TEST(PricingSession, DepartureCostRestoreDeltasRoundTrip) {
  Fixture f = random_fixture(2468, 28, 9);
  auto p = problem_for(f, {0, 5, 13}, 3);
  auto mc = closure_for_problem(p);

  core::PricingSession session;
  const auto base = session.price(p, mc, p.sources, core::ClosureUpdate::rebuilt(), {});

  const auto reprice_after = [&](const std::vector<graph::EdgeCostDelta>& deltas) {
    std::vector<graph::MetricClosure::RowDelta> rows;
    mc.refresh(p.network, deltas, 1, nullptr, &rows);
    core::ClosureUpdate update;
    update.kind = core::ClosureUpdate::Kind::kRepaired;
    update.rows = rows;
    return session.price(p, mc, p.sources, update, {});
  };

  // Admission: congestion charges a few links...
  std::vector<graph::EdgeCostDelta> charge;
  for (core::EdgeId e : {2, 6, 12}) {
    const Cost old_cost = p.network.edge(e).cost;
    p.network.set_edge_cost(e, old_cost + 2.5);
    charge.push_back({e, old_cost, p.network.edge(e).cost});
  }
  const auto charged = reprice_after(charge);
  EXPECT_TRUE(chains_equal(charged, core::price_candidate_chains(p, mc, p.sources)));

  // ...and the departure returns exactly what was taken: cost-RESTORE
  // deltas.  The session must land bitwise back on the original chains.
  std::vector<graph::EdgeCostDelta> restore;
  for (const auto& d : charge) {
    p.network.set_edge_cost(d.edge, d.old_cost);
    restore.push_back({d.edge, d.new_cost, d.old_cost});
  }
  const auto restored = reprice_after(restore);
  EXPECT_TRUE(chains_equal(restored, base));
}

TEST(PricingSession, BitIdenticalAcrossThreadCounts) {
  Fixture f = random_fixture(1357, 32, 10);
  auto p = problem_for(f, {0, 4, 8, 12, 16}, 3);
  auto mc = closure_for_problem(p);

  // Three identically-driven sessions, priced at 1 / 2 / 8 workers, across
  // a cold call and a repair round: outputs must match bit for bit.
  std::vector<std::unique_ptr<core::PricingSession>> sessions;
  for (int i = 0; i < 3; ++i) sessions.push_back(std::make_unique<core::PricingSession>());
  const int threads[] = {1, 2, 8};

  std::vector<std::vector<core::PricedChain>> cold(3);
  for (int i = 0; i < 3; ++i) {
    cold[static_cast<std::size_t>(i)] = sessions[static_cast<std::size_t>(i)]->price(
        p, mc, p.sources, core::ClosureUpdate::rebuilt(), {}, threads[i]);
  }
  EXPECT_TRUE(chains_equal(cold[0], cold[1]));
  EXPECT_TRUE(chains_equal(cold[0], cold[2]));
  EXPECT_TRUE(chains_equal(cold[0], core::price_candidate_chains(p, mc, p.sources)));

  // One more input, the admission pipeline's shape: the union of the
  // sources priced once at 3 lanes on a lent runner (lanes in reverse on
  // the caller, or on parked pool threads), then subsets read back through
  // chains() — each bitwise the free function on that subset.
  test::ReverseRunner reverse;
  util::WorkerPool pooled(2);
  util::LaneRunner* const runners[] = {&reverse, &pooled};
  core::PricingSession lent[2];
  const std::vector<NodeId> subsets[] = {{8, 0}, {16, 4, 12}};
  const auto price_lent = [&](const core::ClosureUpdate& update,
                              const std::vector<core::PricedChain>& whole) {
    for (int i = 0; i < 2; ++i) {
      SCOPED_TRACE(i == 0 ? "reverse runner" : "worker pool");
      EXPECT_TRUE(chains_equal(lent[i].price(p, mc, p.sources, update, {}, 3, nullptr, runners[i]),
                               whole));
      for (const auto& subset : subsets) {
        EXPECT_TRUE(chains_equal(lent[i].chains(subset),
                                 core::price_candidate_chains(p, mc, subset)));
      }
    }
  };
  price_lent(core::ClosureUpdate::rebuilt(), cold[0]);

  std::vector<graph::EdgeCostDelta> deltas;
  for (core::EdgeId e : {0, 3, 7, 15}) {
    const Cost old_cost = p.network.edge(e).cost;
    p.network.set_edge_cost(e, old_cost * 2.0 + 0.125);
    deltas.push_back({e, old_cost, p.network.edge(e).cost});
  }
  std::vector<graph::MetricClosure::RowDelta> rows;
  mc.refresh(p.network, deltas, 1, nullptr, &rows);
  core::ClosureUpdate update;
  update.kind = core::ClosureUpdate::Kind::kRepaired;
  update.rows = rows;

  std::vector<std::vector<core::PricedChain>> warm(3);
  for (int i = 0; i < 3; ++i) {
    warm[static_cast<std::size_t>(i)] = sessions[static_cast<std::size_t>(i)]->price(
        p, mc, p.sources, update, {}, threads[i]);
  }
  EXPECT_TRUE(chains_equal(warm[0], warm[1]));
  EXPECT_TRUE(chains_equal(warm[0], warm[2]));
  EXPECT_TRUE(chains_equal(warm[0], core::price_candidate_chains(p, mc, p.sources)));
  price_lent(update, warm[0]);
}

// refresh() writes the table alone; chains(X) read from it is bitwise what
// a twin session's price(S) returned, restricted to the sources in X — on
// the cold call and after a repair round, both sessions pricing at 3 lanes
// on parked pool threads.
TEST(PricingSession, RefreshThenChainsEqualsTwinPriceRestricted) {
  Fixture f = random_fixture(8642, 30, 9);
  auto p = problem_for(f, {0, 3, 6, 10, 14}, 2);
  auto mc = closure_for_problem(p);

  util::WorkerPool pooled(2);
  core::PricingSession viewed;
  core::PricingSession priced;
  const std::vector<NodeId> subsets[] = {p.sources, {10, 0}, {14, 6, 3}};
  const auto check = [&](const core::ClosureUpdate& update) {
    core::PricingTally viewed_tally;
    core::PricingTally priced_tally;
    viewed.refresh(p, mc, p.sources, update, {}, 3, &viewed_tally, &pooled);
    const auto whole = priced.price(p, mc, p.sources, update, {}, 3, &priced_tally, &pooled);
    EXPECT_TRUE(chains_equal(whole, core::price_candidate_chains(p, mc, p.sources)));
    EXPECT_EQ(viewed_tally.hits, priced_tally.hits);
    EXPECT_EQ(viewed_tally.repriced, priced_tally.repriced);
    EXPECT_EQ(viewed_tally.flushed, priced_tally.flushed);
    for (const auto& subset : subsets) {
      std::vector<core::PricedChain> restricted;
      for (const core::PricedChain& c : whole) {
        if (std::find(subset.begin(), subset.end(), c.source) != subset.end()) {
          restricted.push_back(c);
        }
      }
      EXPECT_TRUE(chains_equal(viewed.chains(subset), restricted));
    }
  };
  check(core::ClosureUpdate::rebuilt());

  std::vector<graph::EdgeCostDelta> deltas;
  for (core::EdgeId e : {2, 5, 11, 17}) {
    const Cost old_cost = p.network.edge(e).cost;
    p.network.set_edge_cost(e, old_cost * 1.75 + 0.5);
    deltas.push_back({e, old_cost, p.network.edge(e).cost});
  }
  std::vector<graph::MetricClosure::RowDelta> rows;
  mc.refresh(p.network, deltas, 1, nullptr, &rows);
  core::ClosureUpdate update;
  update.kind = core::ClosureUpdate::Kind::kRepaired;
  update.rows = rows;
  check(update);
}

// chains() serves only what the last price() left known: a source that
// was never priced throws, and so does one whose bucket survived a later
// price() that invalidated part of it without re-pricing it.
TEST(PricingSession, ChainsThrowsForUnpricedOrInvalidatedSources) {
  Fixture f = random_fixture(4242, 24, 6);
  auto p = problem_for(f, {0, 5}, 1);
  const auto mc = closure_for_problem(p);

  core::PricingSession session;
  (void)session.price(p, mc, p.sources, core::ClosureUpdate::rebuilt(), {});
  EXPECT_TRUE(chains_equal(session.chains({5}), core::price_candidate_chains(p, mc, {5})));
  EXPECT_THROW((void)session.chains({0, 7}), std::logic_error);  // 7 was never priced

  // One VM's setup cost moves.  With |C| = 1 that invalidates only the
  // entries at that VM, in every bucket; pricing source 0 alone leaves
  // source 5's bucket in place, known but for that one entry.
  const NodeId moved = f.vms[0] != 5 ? f.vms[0] : f.vms[1];
  p.node_cost[static_cast<std::size_t>(moved)] += 1.5;
  (void)session.price(p, mc, {0}, core::ClosureUpdate::unchanged(), {});
  EXPECT_TRUE(chains_equal(session.chains({0}), core::price_candidate_chains(p, mc, {0})));
  EXPECT_THROW((void)session.chains({5}), std::logic_error);  // serving it == this test fails
}

/// The stale-bucket trap (ISSUE satellite): a plateau reshuffle can flip
/// parents in a hub row while EVERY distance survives — serving the cached
/// chain would hand out a lift path that no longer exists in the tree (and
/// whose edges no longer sum to its cost).  Gadget: s reaches {a, b} at
/// equal distance joined by a zero-cost edge; repricing s-a flips a's
/// parent onto b without moving any dist.
TEST(PricingSession, EqualCostParentFlipWithoutDistanceChangeReprices) {
  // Nodes: s=0, a=1, b=2, t=3 (VM).  dist(a)=dist(b)=1, dist(t)=2.
  Graph g(4);
  const auto e_sa = g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 2, 0.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(2, 3, 1.0);

  core::Problem p;
  p.network = g;
  p.node_cost = {0.0, 0.0, 0.0, 2.0};
  p.is_vm = {0, 0, 0, 1};
  p.sources = {0};
  p.destinations = {3};
  p.chain_length = 1;  // 2-stroll: per-entry invalidation is in effect

  auto mc = closure_for_problem(p);
  core::PricingSession session;
  const auto before = session.price(p, mc, p.sources, core::ClosureUpdate::rebuilt(), {});
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(before[0].plan.nodes, (std::vector<NodeId>{0, 1, 3}));  // via a

  // s-a becomes expensive; a stays at dist 1 through the zero-cost edge
  // from b, t stays at dist 2 — only parents moved.
  const Cost old_cost = p.network.edge(e_sa).cost;
  p.network.set_edge_cost(e_sa, 5.0);
  const std::vector<graph::EdgeCostDelta> deltas{{e_sa, old_cost, 5.0}};
  std::vector<graph::MetricClosure::RowDelta> rows;
  mc.refresh(p.network, deltas, 1, nullptr, &rows);
  EXPECT_EQ(mc.tree(0).distance(1), 1.0);  // the trap: dists unchanged...
  EXPECT_EQ(mc.tree(0).distance(3), 2.0);
  EXPECT_EQ(mc.tree(0).parent[3], 2);      // ...but t now hangs off b

  core::ClosureUpdate update;
  update.kind = core::ClosureUpdate::Kind::kRepaired;
  update.rows = rows;
  core::PricingTally tally;
  const auto after = session.price(p, mc, p.sources, update, {}, 1, &tally);
  EXPECT_GT(tally.repriced, 0);  // served stale == this test fails
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].plan.nodes, (std::vector<NodeId>{0, 2, 3}));  // via b
  EXPECT_TRUE(chains_equal(after, core::price_candidate_chains(p, mc, p.sources)));
}

/// Same trap, |C| >= 2 shape: the flip happens at an interior non-VM node
/// of a lift segment, so neither the instance matrix nor any (row, VM)
/// entry changes — only the per-chain lift-path check can catch it.
TEST(PricingSession, InteriorLiftPathParentFlipReprices) {
  // Nodes: s=0, a=1, b=2, m1=3 (VM), t=4 (VM); m1 only reachable via a.
  Graph g(5);
  const auto e_sa = g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 2, 0.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(3, 4, 1.0);

  core::Problem p;
  p.network = g;
  p.node_cost = {0.0, 0.0, 0.0, 1.0, 2.0};
  p.is_vm = {0, 0, 0, 1, 1};
  p.sources = {0};
  p.destinations = {4};
  p.chain_length = 2;  // 3-strolls read the full matrix

  auto mc = closure_for_problem(p);
  core::PricingSession session;
  const auto before = session.price(p, mc, p.sources, core::ClosureUpdate::rebuilt(), {});
  ASSERT_FALSE(before.empty());
  EXPECT_EQ(before[0].plan.nodes[1], 1);  // the s->m1 segment runs through a

  const Cost old_cost = p.network.edge(e_sa).cost;
  p.network.set_edge_cost(e_sa, 5.0);
  const std::vector<graph::EdgeCostDelta> deltas{{e_sa, old_cost, 5.0}};
  std::vector<graph::MetricClosure::RowDelta> rows;
  mc.refresh(p.network, deltas, 1, nullptr, &rows);
  // Every hub-pair distance survived; a (non-VM, interior) re-parented.
  EXPECT_EQ(mc.tree(0).distance(3), 2.0);
  EXPECT_EQ(mc.tree(0).distance(4), 3.0);
  EXPECT_EQ(mc.tree(0).parent[1], 2);

  core::ClosureUpdate update;
  update.kind = core::ClosureUpdate::Kind::kRepaired;
  update.rows = rows;
  core::PricingTally tally;
  const auto after = session.price(p, mc, p.sources, update, {}, 1, &tally);
  EXPECT_GT(tally.repriced, 0);
  const auto expect = core::price_candidate_chains(p, mc, p.sources);
  EXPECT_TRUE(chains_equal(after, expect));
  EXPECT_EQ(after[0].plan.nodes[1], 2);  // the segment re-lifted through b
}

TEST(PricingSession, SetupCostChangeInvalidatesPerEntryForSingleVnfChains) {
  Fixture f = random_fixture(8642, 20, 6);
  auto p = problem_for(f, {0}, 1);
  const auto mc = closure_for_problem(p);

  core::PricingSession session;
  (void)session.price(p, mc, p.sources, core::ClosureUpdate::rebuilt(), {});

  // One VM's setup cost moves: a 2-stroll reads only its own entry, so
  // exactly that chain re-prices and the rest keep hitting.
  p.node_cost[static_cast<std::size_t>(f.vms[2])] += 1.5;
  core::PricingTally tally;
  const auto got =
      session.price(p, mc, p.sources, core::ClosureUpdate::unchanged(), {}, 1, &tally);
  EXPECT_EQ(tally.repriced, 1);
  EXPECT_EQ(tally.hits, static_cast<int>(f.vms.size()) - 1);
  EXPECT_TRUE(chains_equal(got, core::price_candidate_chains(p, mc, p.sources)));
}

TEST(PricingSession, SetupCostChangeFlushesMultiVnfChains) {
  Fixture f = random_fixture(8643, 20, 6);
  auto p = problem_for(f, {0}, 3);
  const auto mc = closure_for_problem(p);

  core::PricingSession session;
  (void)session.price(p, mc, p.sources, core::ClosureUpdate::rebuilt(), {});

  // |C| >= 2: the moved setup cost sits in shared terms of every matrix.
  p.node_cost[static_cast<std::size_t>(f.vms[2])] += 1.5;
  core::PricingTally tally;
  const auto got =
      session.price(p, mc, p.sources, core::ClosureUpdate::unchanged(), {}, 1, &tally);
  EXPECT_TRUE(tally.flushed);
  EXPECT_EQ(tally.hits, 0);
  EXPECT_TRUE(chains_equal(got, core::price_candidate_chains(p, mc, p.sources)));
}

// ---------------------------------------------------------------------------
// Twin runs (DESIGN.md §9)

enum class TwinLayout {
  kContiguous,   // each DC's VMs numbered consecutively: the online model
  kInterleaved,  // VMs dealt round-robin over the DCs: no two twins adjacent
  kNudged,       // contiguous, the middle VM of each DC one ulp dearer
};

/// An online-model master: `topo` with five VMs on each of its first `dcs`
/// data centers by zero-cost links and one setup cost per DC, three access
/// nodes as sources.  Unit links (and integer setup costs) make twins tie
/// bitwise with non-twins; otherwise link and setup costs are random reals.
core::Problem twin_master(const topology::Topology& topo, std::size_t dcs, TwinLayout layout,
                          bool unit_links, int chain_length, std::uint64_t seed) {
  constexpr int kVmsPerDc = 5;
  util::Rng rng(seed);
  core::Problem p;
  p.network = topo.g;
  const NodeId access = p.network.node_count();
  for (core::EdgeId e = 0; e < p.network.edge_count(); ++e) {
    p.network.set_edge_cost(e, unit_links ? 1.0 : rng.uniform(0.5, 10.0));
  }
  p.node_cost.assign(static_cast<std::size_t>(access), 0.0);
  p.is_vm.assign(static_cast<std::size_t>(access), 0);
  std::vector<Cost> dc_cost(dcs);
  for (Cost& c : dc_cost) c = unit_links ? rng.uniform_int(1, 3) : rng.uniform(1.0, 20.0);
  const auto add_vm = [&](std::size_t dc, int i) {
    const NodeId vm = p.network.add_node();
    p.network.add_edge(vm, topo.dc_nodes[dc], 0.0);
    const bool nudge = layout == TwinLayout::kNudged && i == kVmsPerDc / 2;
    p.node_cost.push_back(nudge ? std::nextafter(dc_cost[dc], 100.0) : dc_cost[dc]);
    p.is_vm.push_back(1);
  };
  if (layout == TwinLayout::kInterleaved) {
    for (int i = 0; i < kVmsPerDc; ++i) {
      for (std::size_t dc = 0; dc < dcs; ++dc) add_vm(dc, i);
    }
  } else {
    for (std::size_t dc = 0; dc < dcs; ++dc) {
      for (int i = 0; i < kVmsPerDc; ++i) add_vm(dc, i);
    }
  }
  for (std::size_t v : rng.sample_without_replacement(static_cast<std::size_t>(access), 3)) {
    p.sources.push_back(static_cast<NodeId>(v));
  }
  p.destinations = {p.sources.front()};
  p.chain_length = chain_length;
  return p;
}

// Twin-run relabeling against the per-pair reference on online-model
// masters (SoftLayer 17 x 5 VMs, Cogent 40 x 5, and 3 DCs x 5 for the
// exact DP), |C| 1-4, three VM layouts, unit or random links: a cold
// refresh, three repair rounds, and at |C| = 1 a setup-cost move, on
// sessions at 1, 2 and 8 threads and on a worker pool.  Every table must
// equal price_candidate_chains bitwise.  Contiguous runs of five relabel
// four chains in five on a cold table; interleaved twins are never
// adjacent and must not relabel at all, and nudged DCs split into runs.
TEST(PricingSession, TwinRunsMatchPerPairPricing) {
  struct Master {
    const char* name;
    topology::Topology topo;
    std::size_t dcs;
    std::vector<StrollAlgorithm> algos;
  };
  const topology::Topology softlayer = topology::softlayer();
  const topology::Topology cogent = topology::cogent();
  const Master masters[] = {
      {"softlayer", softlayer, softlayer.dc_nodes.size(), {StrollAlgorithm::kCheapestInsertion}},
      {"cogent", cogent, cogent.dc_nodes.size(), {StrollAlgorithm::kCheapestInsertion}},
      {"softlayer-3dc", softlayer, 3,
       {StrollAlgorithm::kCheapestInsertion, StrollAlgorithm::kExactDp}},
  };
  util::WorkerPool pool(2);
  const int threads[] = {1, 2, 8, 3};
  util::LaneRunner* const runners[] = {nullptr, nullptr, nullptr, &pool};

  std::uint64_t seed = 24000;
  for (const Master& m : masters) {
    for (const StrollAlgorithm algo : m.algos) {
      for (const TwinLayout layout :
           {TwinLayout::kContiguous, TwinLayout::kInterleaved, TwinLayout::kNudged}) {
        for (const bool unit_links : {true, false}) {
          for (int chain = 1; chain <= 4; ++chain) {
            ++seed;
            SCOPED_TRACE(std::string(m.name) + " algo " + std::to_string(static_cast<int>(algo)) +
                         " layout " + std::to_string(static_cast<int>(layout)) +
                         (unit_links ? " unit" : " random") + " |C| " + std::to_string(chain));
            auto p = twin_master(m.topo, m.dcs, layout, unit_links, chain, seed);
            auto mc = closure_for_problem(p);
            core::AlgoOptions opt;
            opt.stroll = algo;
            util::Rng rng(seed ^ 0x7717);

            core::PricingSession sessions[4];
            int relabeled = 0;
            core::PricingTally first;  // session 0's tally of the last round
            const auto round = [&](const core::ClosureUpdate& update, const char* what) {
              SCOPED_TRACE(what);
              // The per-pair reference is most of this test's run time, so it
              // prices its three sources on three lanes: bitwise the serial
              // table (ParallelPricing.BitIdenticalForThreads128OnInet).
              const auto expect = core::price_candidate_chains(p, mc, p.sources, opt, 3);
              for (int i = 0; i < 4; ++i) {
                core::PricingTally tally;
                sessions[i].refresh(p, mc, p.sources, update, opt, threads[i], &tally,
                                    runners[i]);
                ASSERT_TRUE(chains_equal(sessions[i].chains(p.sources), expect))
                    << "session " << i;
                EXPECT_LE(tally.relabeled, tally.repriced);
                if (i == 0) {
                  first = tally;
                } else {
                  EXPECT_EQ(tally.repriced, first.repriced);
                  EXPECT_EQ(tally.relabeled, first.relabeled);
                }
              }
              relabeled += first.relabeled;
            };

            round(core::ClosureUpdate::rebuilt(), "cold");
            if (layout == TwinLayout::kContiguous) {
              EXPECT_EQ(first.relabeled * 5, first.repriced * 4);  // runs of five
            }
            for (int r = 0; r < 3; ++r) {
              std::vector<graph::EdgeCostDelta> deltas;
              for (std::size_t e : rng.sample_without_replacement(m.topo.g.edges().size(), 3)) {
                const auto edge = static_cast<core::EdgeId>(e);
                const Cost old_cost = p.network.edge(edge).cost;
                p.network.set_edge_cost(
                    edge, unit_links ? old_cost + 1.0 : old_cost * rng.uniform(0.5, 2.0));
                deltas.push_back({edge, old_cost, p.network.edge(edge).cost});
              }
              std::vector<graph::MetricClosure::RowDelta> rows;
              mc.refresh(p.network, deltas, 1, nullptr, &rows);
              core::ClosureUpdate update;
              update.kind = core::ClosureUpdate::Kind::kRepaired;
              update.rows = rows;
              round(update, "repair");
            }
            if (chain == 1) {
              // A DC's host price moves: its five VMs move together.
              const NodeId host = m.topo.dc_nodes[0];
              for (const graph::Arc& a : p.network.neighbors(host)) {
                if (p.is_vm[static_cast<std::size_t>(a.to)]) {
                  p.node_cost[static_cast<std::size_t>(a.to)] += 1.0;
                }
              }
              round(core::ClosureUpdate::unchanged(), "setup move");
            }
            if (layout == TwinLayout::kInterleaved) {
              EXPECT_EQ(relabeled, 0);
            } else {
              EXPECT_GT(relabeled, 0);
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace sofe::kstroll
