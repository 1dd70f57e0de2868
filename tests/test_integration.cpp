// End-to-end integration tests: the full pipeline on every evaluation
// topology, larger-scale smoke runs, and the dynamic/online/distributed
// subsystems driven off real SOFDA embeddings.

#include <gtest/gtest.h>

#include "sofe/api/registry.hpp"
#include "sofe/baselines/baselines.hpp"
#include "sofe/core/dynamic.hpp"
#include "sofe/core/sofda.hpp"
#include "sofe/core/validate.hpp"
#include "sofe/dist/dist_sofda.hpp"
#include "sofe/online/simulator.hpp"
#include "sofe/qoe/streaming.hpp"
#include "sofe/topology/topology.hpp"
#include "sofe/util/stopwatch.hpp"

namespace sofe {
namespace {

using core::total_cost;

TEST(Integration, SoftlayerDefaultsAllAlgorithms) {
  // The paper's default cell: 14 sources, 6 destinations, 25 VMs, |C| = 3.
  topology::ProblemConfig cfg;
  cfg.seed = 1;
  const auto p = topology::make_problem(topology::softlayer(), cfg);
  const auto f_sofda = core::sofda(p);
  const auto f_est = baselines::run(p, baselines::Kind::kEst);
  const auto f_enemp = baselines::run(p, baselines::Kind::kEnemp);
  const auto f_st = baselines::run(p, baselines::Kind::kSt);
  for (const auto* f : {&f_sofda, &f_est, &f_enemp, &f_st}) {
    ASSERT_FALSE(f->empty());
    EXPECT_TRUE(core::is_feasible(p, *f)) << core::validate(p, *f).summary();
  }
  EXPECT_LE(total_cost(p, f_sofda), total_cost(p, f_st) + 1e-9);
}

TEST(Integration, CogentScale) {
  topology::ProblemConfig cfg;
  cfg.num_vms = 25;
  cfg.num_sources = 14;
  cfg.num_destinations = 10;
  cfg.chain_length = 3;
  cfg.seed = 2;
  const auto p = topology::make_problem(topology::cogent(), cfg);
  const auto f = core::sofda(p);
  ASSERT_FALSE(f.empty());
  EXPECT_TRUE(core::is_feasible(p, f)) << core::validate(p, f).summary();
}

TEST(Integration, InetMidScaleUnderTimeBudget) {
  // 1000-node synthetic network; SOFDA must finish well under the paper's
  // reported seconds-scale runtime.
  topology::ProblemConfig cfg;
  cfg.num_vms = 25;
  cfg.num_sources = 8;
  cfg.num_destinations = 10;
  cfg.chain_length = 3;
  cfg.seed = 3;
  const auto topo = topology::inet(1000, 2000, 400, 42);
  const auto p = topology::make_problem(topo, cfg);
  util::Stopwatch watch;
  const auto f = core::sofda(p);
  const double secs = watch.seconds();
  ASSERT_FALSE(f.empty());
  EXPECT_TRUE(core::is_feasible(p, f)) << core::validate(p, f).summary();
  EXPECT_LT(secs, 30.0) << "SOFDA too slow at 1000 nodes";
}

TEST(Integration, EmbedThenChurnThenReroute) {
  topology::ProblemConfig cfg;
  cfg.num_vms = 12;
  cfg.num_sources = 4;
  cfg.num_destinations = 5;
  cfg.chain_length = 2;
  cfg.seed = 4;
  auto p = topology::make_problem(topology::softlayer(), cfg);
  auto f = core::sofda(p);
  ASSERT_FALSE(f.empty());
  core::DynamicForest live(std::move(p), std::move(f));

  ASSERT_TRUE(live.destination_leave(live.problem().destinations.front()));
  ASSERT_TRUE(live.vnf_insert(3));
  ASSERT_TRUE(live.vnf_delete(1));
  const auto uses = live.forest().stage_edges();
  for (const auto& se : uses) {
    const auto e = live.problem().network.find_edge(se.u, se.v);
    if (live.problem().network.edge(e).cost > 0.0) {
      live.reroute_link(e, live.problem().network.edge(e).cost * 50.0);
      break;
    }
  }
  EXPECT_TRUE(core::is_feasible(live.problem(), live.forest()))
      << core::validate(live.problem(), live.forest()).summary();
}

TEST(Integration, OnlineThenQoeOnTestbed) {
  // Embed a request on the Fig. 13 testbed, then stream over it.
  const auto topo = topology::testbed14();
  topology::ProblemConfig cfg;
  cfg.num_vms = 6;
  cfg.num_sources = 2;
  cfg.num_destinations = 4;
  cfg.chain_length = 2;
  cfg.seed = 5;
  const auto p = topology::make_problem(topo, cfg);
  const auto f = core::sofda(p);
  ASSERT_FALSE(f.empty());
  auto q = qoe::profile_ours();
  q.physical_edges = topo.g.edge_count();
  q.trials = 100;
  const auto r = qoe::evaluate_streaming(p, f, q);
  EXPECT_GT(r.avg_startup_latency_s, 0.0);
  EXPECT_GE(r.avg_rebuffering_s, 0.0);
  EXPECT_GT(r.avg_throughput_mbps, 0.0);
}

TEST(Integration, DistributedOnCogent) {
  topology::ProblemConfig cfg;
  cfg.num_vms = 10;
  cfg.num_sources = 4;
  cfg.num_destinations = 6;
  cfg.chain_length = 2;
  cfg.seed = 6;
  const auto p = topology::make_problem(topology::cogent(), cfg);
  const auto r = dist::distributed_sofda(p, 4);
  ASSERT_FALSE(r.forest.empty());
  EXPECT_TRUE(core::is_feasible(p, r.forest)) << core::validate(p, r.forest).summary();
  EXPECT_EQ(r.controllers, 4);
  EXPECT_GT(r.messages, 0u);
}

TEST(Integration, OnlineSequenceAllAlgorithms) {
  const auto topo = topology::softlayer();
  online::OnlineConfig cfg;
  cfg.requests = 6;
  cfg.min_destinations = 3;
  cfg.max_destinations = 5;
  cfg.min_sources = 2;
  cfg.max_sources = 4;
  cfg.vms_per_dc = 3;
  cfg.seed = 7;
  const auto sofda_solver = api::make_solver("sofda");
  const auto est_solver = api::make_solver("baseline/est");
  const auto sofda_r = online::simulate(topo, cfg, *sofda_solver);
  const auto est_r = online::simulate(topo, cfg, *est_solver);
  EXPECT_EQ(sofda_r.infeasible_requests, 0);
  EXPECT_EQ(est_r.infeasible_requests, 0);
  EXPECT_GT(sofda_r.accumulative_cost.back(), 0.0);
}

TEST(Integration, AppendixDSourceCostsEndToEnd) {
  topology::ProblemConfig cfg;
  cfg.num_vms = 10;
  cfg.num_sources = 5;
  cfg.num_destinations = 5;
  cfg.chain_length = 2;
  cfg.seed = 8;
  auto p = topology::make_problem(topology::softlayer(), cfg);
  auto p_priced = p;
  p_priced.source_setup_cost.assign(static_cast<std::size_t>(p.network.node_count()), 0.0);
  for (auto s : p_priced.sources) {
    p_priced.source_setup_cost[static_cast<std::size_t>(s)] = 5.0;
  }
  const auto f_free = core::sofda(p);
  const auto f_priced = core::sofda(p_priced);
  ASSERT_FALSE(f_free.empty());
  ASSERT_FALSE(f_priced.empty());
  EXPECT_TRUE(core::is_feasible(p_priced, f_priced));
  // Priced sources make the forest at least as expensive and tend to shrink
  // the number of trees.
  EXPECT_GE(total_cost(p_priced, f_priced) + 1e-9, total_cost(p, f_free));
  EXPECT_LE(f_priced.used_sources().size(), f_free.used_sources().size() + 1);
}

}  // namespace
}  // namespace sofe
