// Dynamic-operation tests (Section VII-C): join/leave, VNF insert/delete,
// congestion reroute and VM migration — every operation must preserve
// feasibility and behave as the paper specifies.

#include <gtest/gtest.h>

#include "sofe/core/dynamic.hpp"
#include "sofe/core/sofda.hpp"
#include "sofe/core/validate.hpp"
#include "sofe/topology/topology.hpp"

namespace sofe::core {
namespace {

DynamicForest make_live(std::uint64_t seed, int vms = 10, int srcs = 3, int dests = 4,
                        int chain = 2) {
  topology::ProblemConfig cfg;
  cfg.num_vms = vms;
  cfg.num_sources = srcs;
  cfg.num_destinations = dests;
  cfg.chain_length = chain;
  cfg.seed = seed;
  Problem p = topology::make_problem(topology::softlayer(), cfg);
  ServiceForest f = sofda(p);
  EXPECT_FALSE(f.empty());
  EXPECT_TRUE(is_feasible(p, f));
  return DynamicForest(std::move(p), std::move(f));
}

TEST(Dynamic, LeaveRemovesWalkAndLowersCost) {
  auto live = make_live(1);
  const Cost before = live.cost();
  const NodeId d = live.problem().destinations.front();
  ASSERT_TRUE(live.destination_leave(d));
  EXPECT_TRUE(is_feasible(live.problem(), live.forest()))
      << validate(live.problem(), live.forest()).summary();
  EXPECT_LE(live.cost(), before + 1e-9);
  EXPECT_FALSE(live.destination_leave(d)) << "double leave must fail";
}

TEST(Dynamic, LeaveAllThenForestEmpty) {
  auto live = make_live(2, 8, 2, 3, 2);
  const auto dests = live.problem().destinations;
  for (NodeId d : dests) EXPECT_TRUE(live.destination_leave(d));
  EXPECT_TRUE(live.forest().empty());
}

TEST(Dynamic, JoinServesNewcomer) {
  auto live = make_live(3);
  // Find an access node that is neither a source nor a destination.
  const Problem& p = live.problem();
  NodeId newcomer = graph::kInvalidNode;
  for (NodeId v = 0; v < 27; ++v) {
    const bool used =
        std::find(p.destinations.begin(), p.destinations.end(), v) != p.destinations.end() ||
        std::find(p.sources.begin(), p.sources.end(), v) != p.sources.end();
    if (!used) {
      newcomer = v;
      break;
    }
  }
  ASSERT_NE(newcomer, graph::kInvalidNode);
  const Cost before = live.cost();
  ASSERT_TRUE(live.destination_join(newcomer));
  EXPECT_TRUE(is_feasible(live.problem(), live.forest()))
      << validate(live.problem(), live.forest()).summary();
  EXPECT_GE(live.cost(), before - 1e-9) << "joining cannot reduce cost";
  EXPECT_EQ(live.forest().walks.size(), 5u);
  EXPECT_FALSE(live.destination_join(newcomer)) << "double join must fail";
}

// A destination cut off by +inf links (the price of a failed link, as in
// a failure drill) cannot join: no walk position reaches it, so the join
// fails and the walks stay exactly as they were.
TEST(Dynamic, JoinOfStrandedDestinationFailsAndLeavesWalksUnchanged) {
  topology::ProblemConfig cfg;
  cfg.num_vms = 10;
  cfg.num_sources = 3;
  cfg.num_destinations = 4;
  cfg.chain_length = 2;
  cfg.seed = 3;
  Problem p = topology::make_problem(topology::softlayer(), cfg);
  const auto incident = [&](NodeId v) {
    std::vector<graph::EdgeId> out;
    for (graph::EdgeId e = 0; e < p.network.edge_count(); ++e) {
      if (p.network.edge(e).u == v || p.network.edge(e).v == v) out.push_back(e);
    }
    return out;
  };
  // An access node that is neither a source nor a destination and hosts no
  // VM, so cutting it off strands nothing but itself.
  NodeId stranded = graph::kInvalidNode;
  for (NodeId v = 0; v < 27 && stranded == graph::kInvalidNode; ++v) {
    bool usable =
        std::find(p.destinations.begin(), p.destinations.end(), v) == p.destinations.end() &&
        std::find(p.sources.begin(), p.sources.end(), v) == p.sources.end();
    for (graph::EdgeId e : incident(v)) {
      const graph::Edge& edge = p.network.edge(e);
      usable = usable && !p.is_vm[static_cast<std::size_t>(edge.u == v ? edge.v : edge.u)];
    }
    if (usable) stranded = v;
  }
  ASSERT_NE(stranded, graph::kInvalidNode);
  for (graph::EdgeId e : incident(stranded)) p.network.set_edge_cost(e, graph::kInfiniteCost);
  ServiceForest f = sofda(p);
  ASSERT_FALSE(f.empty());
  DynamicForest live(std::move(p), std::move(f));
  const ServiceForest before = live.forest();
  const std::size_t destinations = live.problem().destinations.size();

  EXPECT_FALSE(live.destination_join(stranded));
  EXPECT_EQ(live.problem().destinations.size(), destinations);
  ASSERT_EQ(live.forest().walks.size(), before.walks.size());
  for (std::size_t i = 0; i < before.walks.size(); ++i) {
    EXPECT_EQ(live.forest().walks[i].source, before.walks[i].source) << "walk " << i;
    EXPECT_EQ(live.forest().walks[i].destination, before.walks[i].destination) << "walk " << i;
    EXPECT_EQ(live.forest().walks[i].nodes, before.walks[i].nodes) << "walk " << i;
    EXPECT_EQ(live.forest().walks[i].vnf_pos, before.walks[i].vnf_pos) << "walk " << i;
  }
}

TEST(Dynamic, JoinReusesExistingChains) {
  auto live = make_live(4);
  const auto enabled_before = live.forest().enabled_vms();
  NodeId newcomer = graph::kInvalidNode;
  const Problem& p = live.problem();
  for (NodeId v = 0; v < 27; ++v) {
    const bool used =
        std::find(p.destinations.begin(), p.destinations.end(), v) != p.destinations.end() ||
        std::find(p.sources.begin(), p.sources.end(), v) != p.sources.end();
    if (!used) {
      newcomer = v;
      break;
    }
  }
  ASSERT_TRUE(live.destination_join(newcomer));
  // A full-forest attachment (stage == |C|) adds no new VMs; allow the
  // k-stroll completion to add some, but never to change existing ones.
  for (const auto& [vm, idx] : enabled_before) {
    const auto now = live.forest().enabled_vms();
    ASSERT_TRUE(now.contains(vm));
    EXPECT_EQ(now.at(vm), idx);
  }
}

TEST(Dynamic, VnfDeleteShrinksChains) {
  auto live = make_live(5, 10, 3, 4, 3);
  const Cost before = live.cost();
  ASSERT_TRUE(live.vnf_delete(2));
  EXPECT_EQ(live.problem().chain_length, 2);
  EXPECT_TRUE(is_feasible(live.problem(), live.forest()))
      << validate(live.problem(), live.forest()).summary();
  EXPECT_LE(live.cost(), before + 1e-9) << "dropping a VNF cannot cost more";
  EXPECT_FALSE(live.vnf_delete(7)) << "out-of-range index must fail";
}

TEST(Dynamic, VnfDeleteFirstAndLast) {
  auto live = make_live(6, 10, 3, 3, 3);
  ASSERT_TRUE(live.vnf_delete(1));
  EXPECT_TRUE(is_feasible(live.problem(), live.forest()));
  ASSERT_TRUE(live.vnf_delete(live.problem().chain_length));
  EXPECT_TRUE(is_feasible(live.problem(), live.forest()));
  EXPECT_EQ(live.problem().chain_length, 1);
}

TEST(Dynamic, VnfInsertGrowsChains) {
  auto live = make_live(7, 12, 3, 4, 2);
  const Cost before = live.cost();
  ASSERT_TRUE(live.vnf_insert(2));
  EXPECT_EQ(live.problem().chain_length, 3);
  EXPECT_TRUE(is_feasible(live.problem(), live.forest()))
      << validate(live.problem(), live.forest()).summary();
  EXPECT_GE(live.cost(), before - 1e-9) << "adding a VNF cannot be free";
  EXPECT_FALSE(live.vnf_insert(9)) << "out-of-range position must fail";
}

TEST(Dynamic, VnfInsertAtHeadAndTail) {
  auto live = make_live(8, 12, 3, 3, 2);
  ASSERT_TRUE(live.vnf_insert(1));  // new first VNF
  EXPECT_TRUE(is_feasible(live.problem(), live.forest()))
      << validate(live.problem(), live.forest()).summary();
  ASSERT_TRUE(live.vnf_insert(live.problem().chain_length + 1));  // new last
  EXPECT_TRUE(is_feasible(live.problem(), live.forest()))
      << validate(live.problem(), live.forest()).summary();
  EXPECT_EQ(live.problem().chain_length, 4);
}

TEST(Dynamic, InsertThenDeleteRoundTrip) {
  auto live = make_live(9, 12, 3, 3, 2);
  const Cost before = live.cost();
  ASSERT_TRUE(live.vnf_insert(2));
  ASSERT_TRUE(live.vnf_delete(2));
  EXPECT_EQ(live.problem().chain_length, 2);
  EXPECT_TRUE(is_feasible(live.problem(), live.forest()));
  // Shortening on delete may even beat the original embedding slightly.
  EXPECT_LE(live.cost(), 1.25 * before + 1e-9);
}

TEST(Dynamic, RerouteAvoidsCongestedLink) {
  auto live = make_live(10);
  // Pick a link actually used by the forest.
  const auto uses = live.forest().stage_edges();
  ASSERT_FALSE(uses.empty());
  graph::EdgeId target = graph::kInvalidEdge;
  for (const auto& se : uses) {
    const auto e = live.problem().network.find_edge(se.u, se.v);
    if (live.problem().network.edge(e).cost > 0.0) {
      target = e;
      break;
    }
  }
  if (target == graph::kInvalidEdge) GTEST_SKIP() << "forest uses only free taps";
  // Snapshot the forest, reprice the link, and compare: the rerouted forest
  // must cost no more than the old forest at the new price (it avoids the
  // congested link wherever an alternative exists; on a cut edge both cost
  // the same).
  const ServiceForest before = live.forest();
  const int rerouted = live.reroute_link(target, 1000.0);
  EXPECT_TRUE(is_feasible(live.problem(), live.forest()))
      << validate(live.problem(), live.forest()).summary();
  EXPECT_GE(rerouted, 0);
  EXPECT_LE(live.cost(), total_cost(live.problem(), before) + 1e-9);
}

TEST(Dynamic, MigrateVmMovesVnf) {
  auto live = make_live(11);
  const auto enabled = live.forest().enabled_vms();
  ASSERT_FALSE(enabled.empty());
  const NodeId victim = enabled.begin()->first;
  const int idx = enabled.begin()->second;
  ASSERT_TRUE(live.migrate_vm(victim, 1e6));
  EXPECT_TRUE(is_feasible(live.problem(), live.forest()))
      << validate(live.problem(), live.forest()).summary();
  const auto now = live.forest().enabled_vms();
  EXPECT_FALSE(now.contains(victim)) << "overloaded VM must be vacated";
  // Some VM still runs that VNF index.
  bool found = false;
  for (const auto& [vm, j] : now) {
    (void)vm;
    if (j == idx) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Dynamic, MigrateUnusedVmIsNoOp) {
  auto live = make_live(12);
  const auto enabled = live.forest().enabled_vms();
  NodeId unused = graph::kInvalidNode;
  for (NodeId v : live.problem().vms()) {
    if (!enabled.contains(v)) {
      unused = v;
      break;
    }
  }
  ASSERT_NE(unused, graph::kInvalidNode);
  const Cost before = live.cost();
  EXPECT_TRUE(live.migrate_vm(unused, 123.0));
  EXPECT_NEAR(live.cost(), before, 1e-9);
}

class DynamicChurn : public ::testing::TestWithParam<int> {};

TEST_P(DynamicChurn, RandomOperationSequencePreservesFeasibility) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  auto live = make_live(seed * 131 + 7, 14, 3, 5, 2);
  util::Rng rng(seed);
  for (int step = 0; step < 12; ++step) {
    const int op = rng.uniform_int(0, 3);
    switch (op) {
      case 0: {  // leave (keep at least one destination)
        if (live.problem().destinations.size() > 1) {
          live.destination_leave(live.problem().destinations.front());
        }
        break;
      }
      case 1: {  // join any unserved access node
        for (NodeId v = 0; v < 27; ++v) {
          const auto& d = live.problem().destinations;
          const auto& s = live.problem().sources;
          if (std::find(d.begin(), d.end(), v) == d.end() &&
              std::find(s.begin(), s.end(), v) == s.end()) {
            live.destination_join(v);
            break;
          }
        }
        break;
      }
      case 2: {
        if (live.problem().chain_length > 1) live.vnf_delete(1);
        break;
      }
      default: {
        if (live.problem().chain_length < 4) live.vnf_insert(live.problem().chain_length + 1);
        break;
      }
    }
    ASSERT_TRUE(is_feasible(live.problem(), live.forest()))
        << "step " << step << " op " << op << ": "
        << validate(live.problem(), live.forest()).summary();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicChurn, ::testing::Range(1, 13));

}  // namespace
}  // namespace sofe::core
