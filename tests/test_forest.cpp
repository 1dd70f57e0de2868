// ServiceForest cost-accounting tests: stage-edge deduplication (τ), shared
// VM setup (σ), walk revisits, and the pass-through shortening post-step
// (including its closure overload against every kind of closure row).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sofe/api/solver.hpp"
#include "sofe/core/forest.hpp"
#include "sofe/core/sofda.hpp"
#include "sofe/core/validate.hpp"
#include "sofe/graph/metric_closure.hpp"
#include "sofe/topology/topology.hpp"

namespace sofe::core {
namespace {

/// Line 0-1-2-3-4-5 with unit edges; VMs at 2 and 3.
Problem line6() {
  Problem p;
  p.network = Graph(6);
  for (NodeId v = 0; v + 1 < 6; ++v) p.network.add_edge(v, v + 1, 1.0);
  p.node_cost = {0, 0, 5, 7, 0, 0};
  p.is_vm = {0, 0, 1, 1, 0, 0};
  p.sources = {0};
  p.destinations = {5};
  p.chain_length = 2;
  return p;
}

ChainWalk straight_walk() {
  ChainWalk w;
  w.source = 0;
  w.destination = 5;
  w.nodes = {0, 1, 2, 3, 4, 5};
  w.vnf_pos = {2, 3};
  return w;
}

TEST(ForestCost, SingleWalk) {
  Problem p = line6();
  ServiceForest f;
  f.walks.push_back(straight_walk());
  EXPECT_DOUBLE_EQ(setup_cost(p, f), 12.0);
  EXPECT_DOUBLE_EQ(connection_cost(p, f), 5.0);
  EXPECT_DOUBLE_EQ(total_cost(p, f), 17.0);
  EXPECT_TRUE(is_feasible(p, f));
}

TEST(ForestCost, SharedChainCountedOnce) {
  Problem p = line6();
  p.destinations = {4, 5};
  ServiceForest f;
  ChainWalk w1 = straight_walk();
  w1.destination = 4;
  w1.nodes = {0, 1, 2, 3, 4};
  ChainWalk w2 = straight_walk();
  f.walks = {w1, w2};
  // Chain edges 0-1,1-2,2-3 and distribution 3-4 shared; 4-5 extra for w2.
  EXPECT_DOUBLE_EQ(connection_cost(p, f), 5.0);
  EXPECT_DOUBLE_EQ(setup_cost(p, f), 12.0);  // VMs shared
  EXPECT_TRUE(is_feasible(p, f));
}

TEST(ForestCost, RevisitedEdgePaidPerStage) {
  // Walk 0-1-2(f1)-1-2: edge 1-2 is used at stage 1 (to reach VM 2) and
  // again at stages 1/2 after bouncing — the paper's Fig. 1(b) effect.
  Problem p = line6();
  p.destinations = {4};
  p.chain_length = 1;
  ServiceForest f;
  ChainWalk w;
  w.source = 0;
  w.destination = 4;
  w.nodes = {0, 1, 2, 1, 2, 3, 4};
  w.vnf_pos = {2};  // f1 at first visit of node 2
  f.walks.push_back(w);
  // Stage 0: edges (0,1),(1,2).  Stage 1: (2,1),(1,2) dedup to {1,2} once,
  // plus (2,3),(3,4).  (1,2) appears at stage 0 AND stage 1: paid twice.
  EXPECT_DOUBLE_EQ(connection_cost(p, f), 2.0 + 3.0);
  EXPECT_TRUE(is_feasible(p, f));
}

TEST(ForestCost, TwoTreesIndependent) {
  Problem p = line6();
  p.sources = {0, 5};
  p.destinations = {1, 4};
  p.chain_length = 1;
  ServiceForest f;
  ChainWalk a;
  a.source = 0;
  a.destination = 1;
  a.nodes = {0, 1, 2, 1};
  a.vnf_pos = {2};
  ChainWalk b;
  b.source = 5;
  b.destination = 4;
  b.nodes = {5, 4, 3, 4};
  b.vnf_pos = {2};
  f.walks = {a, b};
  EXPECT_DOUBLE_EQ(setup_cost(p, f), 12.0);
  EXPECT_EQ(f.used_sources().size(), 2u);
  EXPECT_TRUE(is_feasible(p, f));
}

TEST(ForestCost, EnabledVmsAggregates) {
  Problem p = line6();
  ServiceForest f;
  f.walks.push_back(straight_walk());
  const auto enabled = f.enabled_vms();
  ASSERT_EQ(enabled.size(), 2u);
  EXPECT_EQ(enabled.at(2), 1);
  EXPECT_EQ(enabled.at(3), 2);
}

TEST(ForestCost, SourceSetupCostsAppendixD) {
  Problem p = line6();
  p.source_setup_cost.assign(6, 0.0);
  p.source_setup_cost[0] = 4.0;
  ServiceForest f;
  f.walks.push_back(straight_walk());
  EXPECT_DOUBLE_EQ(setup_cost(p, f), 16.0);
}

TEST(Shorten, RemovesUselessDetour) {
  // Walk detours 0-1-2(f1)-1-0-1-2-3... no; simpler: add a shortcut edge and
  // a walk that ignores it on its pass-through segment.
  Problem p = line6();
  p.network.add_edge(2, 5, 1.0);  // shortcut from VM 2 straight to 5
  p.chain_length = 1;
  ServiceForest f;
  ChainWalk w;
  w.source = 0;
  w.destination = 5;
  w.nodes = {0, 1, 2, 3, 4, 5};
  w.vnf_pos = {2};
  f.walks.push_back(w);
  const Cost before = total_cost(p, f);  // connection 5 + setup 5 = 10
  shorten_pass_through(p, f);
  EXPECT_LE(total_cost(p, f), before);
  // After the splice: 0-1-2 (2) + shortcut 2-5 (1) + setup 5 = 8.
  EXPECT_DOUBLE_EQ(total_cost(p, f), 8.0);
  EXPECT_TRUE(is_feasible(p, f));
}

TEST(Shorten, KeepsSharedSegmentsWhenCheaper) {
  // Two walks share an expensive-but-paid segment; shortening one onto a
  // private shortcut would RAISE the forest cost, so it must not happen.
  Problem p;
  p.network = Graph(5);
  p.network.add_edge(0, 1, 1.0);   // s -> vm
  p.network.add_edge(1, 2, 4.0);   // shared distribution trunk
  p.network.add_edge(2, 3, 0.5);   // to d1
  p.network.add_edge(2, 4, 0.5);   // to d2
  p.network.add_edge(1, 3, 4.2);   // private shortcut for d1 (longer than 0!)
  p.node_cost = {0, 1, 0, 0, 0};
  p.is_vm = {0, 1, 0, 0, 0};
  p.sources = {0};
  p.destinations = {3, 4};
  p.chain_length = 1;

  ServiceForest f;
  ChainWalk w1;
  w1.source = 0;
  w1.destination = 3;
  w1.nodes = {0, 1, 2, 3};
  w1.vnf_pos = {1};
  ChainWalk w2;
  w2.source = 0;
  w2.destination = 4;
  w2.nodes = {0, 1, 2, 4};
  w2.vnf_pos = {1};
  f.walks = {w1, w2};
  const Cost before = total_cost(p, f);  // 1 + 4 + 0.5 + 0.5 + setup 1 = 7
  shorten_pass_through(p, f);
  EXPECT_DOUBLE_EQ(total_cost(p, f), before) << "shortening must not raise forest cost";
}

/// Shortens a copy of `raw` through `closure` and expects every walk to be
/// bitwise `expected`'s.
void expect_closure_shortening(const Problem& p, const graph::MetricClosure& closure,
                               const ServiceForest& raw, const ServiceForest& expected,
                               const std::string& label) {
  ServiceForest got = raw;
  shorten_pass_through(p, closure, got);
  ASSERT_EQ(got.walks.size(), expected.walks.size()) << label;
  for (std::size_t i = 0; i < got.walks.size(); ++i) {
    EXPECT_EQ(got.walks[i].source, expected.walks[i].source) << label << " walk " << i;
    EXPECT_EQ(got.walks[i].nodes, expected.walks[i].nodes) << label << " walk " << i;
    EXPECT_EQ(got.walks[i].vnf_pos, expected.walks[i].vnf_pos) << label << " walk " << i;
  }
}

TEST(Shorten, ClosureOverloadMatchesSegmentStartClosure) {
  // Unshortened SOFDA forests, shortened through three kinds of complete
  // VMs ∪ sources closure: the solve's own (tap-aliased rows), a session
  // closure whose rows a refresh repaired into the current costs, and a
  // published epoch snapshot whose live session has since moved on.  Each
  // must reproduce the two-argument overload, which builds its closure
  // over the segment starts only.  Seeds 1-12 per topology; only some
  // instances splice, and each topology must contribute at least one.
  struct Case {
    const char* name;
    topology::Topology topo;
    int sources;
    int destinations;
  };
  const Case cases[] = {{"softlayer", topology::softlayer(), 4, 10},
                        {"cogent", topology::cogent(), 14, 6},
                        {"inet", topology::inet(300, 600, 8, 21), 4, 10}};
  AlgoOptions unshortened;
  unshortened.shorten = false;
  for (const Case& c : cases) {
    std::size_t shortened_walks = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      topology::ProblemConfig cfg;
      cfg.num_sources = c.sources;
      cfg.num_destinations = c.destinations;
      cfg.seed = seed;
      const Problem p = topology::make_problem(c.topo, cfg);
      const std::string label = std::string(c.name) + " seed " + std::to_string(seed);
      const ServiceForest raw = sofda(p, unshortened);
      ASSERT_FALSE(raw.empty()) << label;
      ServiceForest expected = raw;
      shorten_pass_through(p, expected);
      for (std::size_t i = 0; i < raw.walks.size(); ++i) {
        if (expected.walks[i].nodes != raw.walks[i].nodes) ++shortened_walks;
      }

      std::vector<NodeId> hubs = p.vms();
      hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
      const graph::MetricClosure full(p.network, hubs);
      expect_closure_shortening(p, full, raw, expected, label + " full");

      // Every third priced link of the raw forest costs 2.5x in `shifted`,
      // so moving between the two networks repairs the rows the walks ride.
      Problem shifted = p;
      int picked = 0;
      for (const StageEdge& se : raw.stage_edges()) {
        const EdgeId e = p.network.find_edge(se.u, se.v);
        const Cost cost = p.network.edge(e).cost;
        if (cost > 0.0 && shifted.network.edge(e).cost == cost && picked++ % 3 == 0) {
          shifted.network.set_edge_cost(e, cost * 2.5);
        }
      }

      api::ClosureRequest req;
      api::SolveReport cold, repair;
      api::ClosureSession session;
      session.acquire(shifted.network, hubs, req, cold);
      const graph::MetricClosure& repaired = session.acquire(p.network, hubs, req, repair);
      ASSERT_TRUE(repair.closure_repaired) << label;
      expect_closure_shortening(p, repaired, raw, expected, label + " repaired");

      api::SolveReport published, moved;
      api::ClosureSession publisher;
      publisher.publish(shifted.network, hubs, req, published);
      publisher.retire();
      const api::ClosureEpoch epoch = publisher.publish(p.network, hubs, req, moved);
      ASSERT_TRUE(moved.closure_repaired) << label;
      expect_closure_shortening(p, *epoch.closure, raw, expected, label + " epoch");
      publisher.retire();
    }
    EXPECT_GT(shortened_walks, 0u) << c.name << ": no instance exercised an actual splice";
  }
}

TEST(Describe, MentionsCostAndVnfs) {
  Problem p = line6();
  ServiceForest f;
  f.walks.push_back(straight_walk());
  const std::string text = describe(p, f);
  EXPECT_NE(text.find("total cost 17"), std::string::npos);
  EXPECT_NE(text.find("[f1]"), std::string::npos);
  EXPECT_NE(text.find("[f2]"), std::string::npos);
}

TEST(StageEdges, StagesComputedCorrectly) {
  ChainWalk w = straight_walk();
  EXPECT_EQ(w.stage_at(0), 0);
  EXPECT_EQ(w.stage_at(1), 0);
  EXPECT_EQ(w.stage_at(2), 1);
  EXPECT_EQ(w.stage_at(3), 2);
  EXPECT_EQ(w.vnf_node(1), 2);
  EXPECT_EQ(w.vnf_node(2), 3);
}

}  // namespace
}  // namespace sofe::core
