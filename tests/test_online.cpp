// Online-deployment simulator tests (Section VIII-C): accumulative-cost
// bookkeeping, load charging, price growth under congestion, and paired
// request sequences across algorithms.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "callback_solver.hpp"
#include "sofe/api/registry.hpp"
#include "sofe/api/report.hpp"
#include "sofe/core/validate.hpp"
#include "sofe/online/simulator.hpp"
#include "sofe/online/stream.hpp"

namespace sofe::online {
namespace {

OnlineConfig small_config() {
  OnlineConfig cfg;
  cfg.requests = 8;
  cfg.min_destinations = 2;
  cfg.max_destinations = 4;
  cfg.min_sources = 2;
  cfg.max_sources = 3;
  cfg.chain_length = 2;
  cfg.vms_per_dc = 2;
  cfg.seed = 5;
  return cfg;
}

/// The stream through a fresh registry session (default options).
OnlineResult run(const topology::Topology& topo, const OnlineConfig& cfg,
                 const std::string& solver_name = "sofda",
                 const api::SolverOptions& opt = {}) {
  auto solver = api::make_solver(solver_name, opt);
  return simulate(topo, cfg, *solver);
}

/// A strict session, which rebuilds its closure and so re-prices every chain
/// whenever anything changed: the cache-free reference warm sessions must
/// reproduce bitwise.
OnlineResult run_recomputing(const topology::Topology& topo, const OnlineConfig& cfg) {
  api::SolverOptions opt;
  opt.incremental = false;
  return run(topo, cfg, "sofda", opt);
}

TEST(Online, AccumulativeCostMonotone) {
  const auto topo = topology::softlayer();
  const auto r = run(topo, small_config());
  ASSERT_EQ(r.accumulative_cost.size(), 8u);
  for (std::size_t i = 1; i < r.accumulative_cost.size(); ++i) {
    EXPECT_GE(r.accumulative_cost[i], r.accumulative_cost[i - 1]);
  }
  EXPECT_EQ(r.infeasible_requests, 0);
  EXPECT_EQ(r.algorithm, "sofda");
}

TEST(Online, PerRequestSumsToAccumulative) {
  const auto topo = topology::softlayer();
  const auto r = run(topo, small_config());
  double sum = 0.0;
  for (std::size_t i = 0; i < r.per_request_cost.size(); ++i) {
    sum += r.per_request_cost[i];
    EXPECT_NEAR(sum, r.accumulative_cost[i], 1e-9);
  }
}

TEST(Online, EmbeddingsAreValidatedPerRequest) {
  const auto topo = topology::softlayer();
  auto cfg = small_config();
  int checked = 0;
  const auto inner = api::make_solver("sofda");
  test::CallbackSolver validating([&](const Problem& p) {
    auto f = inner->solve(p);
    if (!f.empty()) {
      EXPECT_TRUE(core::is_feasible(p, f)) << core::validate(p, f).summary();
      ++checked;
    }
    return f;
  });
  simulate(topo, cfg, validating);
  EXPECT_EQ(checked, cfg.requests);
}

TEST(Online, PricesRiseWithLoad) {
  // With many requests the same cheap links get loaded, so the marginal
  // request cost trends upward (Fortz-Thorup convexity).
  const auto topo = topology::softlayer();
  auto cfg = small_config();
  cfg.requests = 24;
  const auto r = run(topo, cfg);
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 8; ++i) early += r.per_request_cost[static_cast<std::size_t>(i)];
  for (int i = 16; i < 24; ++i) late += r.per_request_cost[static_cast<std::size_t>(i)];
  EXPECT_GT(late, early) << "costs should grow as the network loads up";
}

TEST(Online, SameSeedSameRequestSequence) {
  const auto topo = topology::softlayer();
  const auto cfg = small_config();
  // Two runs see identical request workloads: with identical solvers the
  // whole series must match.
  const auto a = run(topo, cfg);
  const auto b = run(topo, cfg);
  ASSERT_EQ(a.accumulative_cost.size(), b.accumulative_cost.size());
  for (std::size_t i = 0; i < a.accumulative_cost.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.accumulative_cost[i], b.accumulative_cost[i]);
  }
}

TEST(Online, SofdaAccumulatesLessThanBaselines) {
  const auto topo = topology::softlayer();
  auto cfg = small_config();
  cfg.requests = 12;
  const auto sofda_r = run(topo, cfg);
  const auto est_r = run(topo, cfg, "baseline/est");
  const auto st_r = run(topo, cfg, "baseline/st");
  // Fig. 12 shape: SOFDA's accumulative cost stays below the baselines.
  EXPECT_LT(sofda_r.accumulative_cost.back(), est_r.accumulative_cost.back());
  EXPECT_LT(sofda_r.accumulative_cost.back(), st_r.accumulative_cost.back());
}

TEST(Online, InfeasibleEmbedderCountsAndContinues) {
  const auto topo = topology::softlayer();
  auto cfg = small_config();
  cfg.requests = 3;
  test::CallbackSolver null_solver([](const Problem&) { return ServiceForest{}; });
  const auto r = simulate(topo, cfg, null_solver);
  EXPECT_EQ(r.infeasible_requests, 3);
  EXPECT_DOUBLE_EQ(r.accumulative_cost.back(), 0.0);
}

void expect_results_identical(const OnlineResult& a, const OnlineResult& b) {
  ASSERT_EQ(a.accumulative_cost.size(), b.accumulative_cost.size());
  for (std::size_t i = 0; i < a.accumulative_cost.size(); ++i) {
    EXPECT_EQ(a.accumulative_cost[i], b.accumulative_cost[i]) << "arrival " << i;  // bitwise
    EXPECT_EQ(a.per_request_cost[i], b.per_request_cost[i]) << "arrival " << i;
  }
  EXPECT_EQ(a.infeasible_requests, b.infeasible_requests);
  EXPECT_EQ(a.overloaded_links, b.overloaded_links);
}

TEST(OnlinePersistentProblem, SessionWithRepairBitIdenticalToRecomputingSession) {
  // The full acceptance chain: persistent Problem -> cost-only deltas ->
  // ClosureSession repair + pricing cache, against a session that rebuilds
  // and re-prices per arrival.  Forests, costs and the accept/reject
  // sequence must agree bit for bit.
  const auto topo = topology::softlayer();
  auto cfg = small_config();
  cfg.requests = 10;
  expect_results_identical(run(topo, cfg), run_recomputing(topo, cfg));
}

TEST(OnlinePersistentProblem, SessionSeesCostDeltasAndRepairs) {
  const auto topo = topology::softlayer();
  auto cfg = small_config();
  cfg.requests = 8;
  auto solver = api::make_solver("sofda");
  api::ReportAccumulator acc;
  solver->set_report_sink(&acc);
  (void)simulate(topo, cfg, *solver);
  EXPECT_EQ(acc.solves(), 8u);
  // After the warm-up arrival the persistent Problem feeds the session
  // cost-only deltas plus fresh source hubs: every subsequent acquire is a
  // repair (or a pure hit when the previous embedding loaded nothing new).
  EXPECT_GE(acc.repairs() + acc.cache_hits(), acc.solves() - 1);
  EXPECT_LE(acc.rebuilds(), 1u);
}

TEST(OnlineDepartures, InfiniteHoldingMatchesNoHoldingBitForBit) {
  const auto topo = topology::softlayer();
  auto cfg = small_config();
  cfg.requests = 10;
  const auto never = run(topo, cfg);
  auto held = cfg;
  held.holding_arrivals = cfg.requests;  // departs only after the stream ends
  const auto outlives = run(topo, held);
  expect_results_identical(never, outlives);
}

TEST(OnlineDepartures, ChargesAreRestoredWhenRequestsDepart) {
  const auto topo = topology::softlayer();
  auto cfg = small_config();
  cfg.requests = 20;
  const auto loaded = run(topo, cfg);
  auto held = cfg;
  held.holding_arrivals = 1;  // every request departs before the next
  const auto churn = run(topo, held);
  EXPECT_EQ(churn.infeasible_requests, 0);
  // With immediate departures the network never accumulates load, so the
  // final state cannot be more congested than the never-departing run, and
  // the total cost cannot exceed it (prices are monotone in load).
  EXPECT_LE(churn.overloaded_links, loaded.overloaded_links);
  EXPECT_LE(churn.accumulative_cost.back(), loaded.accumulative_cost.back());
}

// --- Recurring-source mode (DESIGN.md §13) -------------------------------

TEST(RecurringSources, ValidationNamesTheOffendingField) {
  auto cfg = small_config();
  cfg.source_pool = 2;  // < max_sources: a request could not fill its draw
  EXPECT_THROW(validate(cfg), std::invalid_argument);
  cfg.source_pool = -3;
  EXPECT_THROW(validate(cfg), std::invalid_argument);
  cfg.source_pool = cfg.max_sources;
  EXPECT_NO_THROW(validate(cfg));
  cfg.source_alpha = -0.1;
  EXPECT_THROW(validate(cfg), std::invalid_argument);
}

TEST(RecurringSources, EveryDrawStaysInsideOnePoolOfDistinctNodes) {
  const auto topo = topology::softlayer();
  auto cfg = small_config();
  cfg.requests = 30;
  cfg.source_pool = 5;
  cfg.source_alpha = 1.0;
  const ArrivalStream stream(topo, cfg);
  std::set<core::NodeId> all_sources;
  for (int r = 0; r < cfg.requests; ++r) {
    const Request& req = stream.request(r);
    const std::set<core::NodeId> distinct(req.sources.begin(), req.sources.end());
    EXPECT_EQ(distinct.size(), req.sources.size()) << "duplicate source in request " << r;
    EXPECT_GE(static_cast<int>(req.sources.size()), cfg.min_sources);
    EXPECT_LE(static_cast<int>(req.sources.size()), cfg.max_sources);
    all_sources.insert(distinct.begin(), distinct.end());
    // Destinations still roam the whole topology, pool or not.
    EXPECT_LE(static_cast<int>(req.destinations.size()), cfg.max_destinations);
  }
  // 30 requests of 2-3 sources land inside the 5-node pool.
  EXPECT_LE(all_sources.size(), static_cast<std::size_t>(cfg.source_pool));

  // Same seed, same sequence: the pool draw is part of the RNG stream.
  const ArrivalStream again(topo, cfg);
  for (int r = 0; r < cfg.requests; ++r) {
    EXPECT_EQ(stream.request(r).sources, again.request(r).sources);
    EXPECT_EQ(stream.request(r).destinations, again.request(r).destinations);
  }
}

}  // namespace
}  // namespace sofe::online
