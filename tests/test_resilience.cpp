// Failure injection + budget-bounded survivable re-embedding (DESIGN.md
// §12): plan validation from both drivers, fail/heal round-trip
// bit-identity at the stream level, drill recovery of every affected
// forest, migration-budget boundary cases (0 = repair-only, unbounded =
// from-scratch quality), disconnected-component failures, and determinism
// across solver threads and pipeline worker counts.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "callback_solver.hpp"
#include "sofe/api/registry.hpp"
#include "sofe/costmodel/load_ledger.hpp"
#include "sofe/online/pipeline.hpp"
#include "sofe/online/simulator.hpp"
#include "sofe/online/stream.hpp"

namespace sofe::online {
namespace {

using resilience::FailureEvent;
using resilience::FailurePlan;

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
                 const api::SolverOptions& opt = {}) {
  auto solver = api::make_solver("sofda", opt);
  return simulate(topo, cfg, *solver);
}

/// The cache-free reference: a strict session, which rebuilds its closure
/// and so re-prices every chain whenever anything changed, recovery
/// re-embeds included.
OnlineResult run_recomputing(const topology::Topology& topo, const OnlineConfig& cfg) {
  api::SolverOptions opt;
  opt.incremental = false;
  return run(topo, cfg, opt);
}

/// A physical link request 0's embedding is guaranteed to charge: run the
/// stream once without failures, capture the first admitted forest and take
/// its first hop that lives in the physical topology.
graph::EdgeId charged_link_of_first_request(const topology::Topology& topo,
                                            const OnlineConfig& cfg) {
  ServiceForest first;
  auto probe = cfg;
  probe.requests = 1;
  const auto inner = api::make_solver("sofda");
  test::CallbackSolver recording([&](const Problem& p) {
    first = inner->solve(p);
    return first;
  });
  simulate(topo, probe, recording);
  for (const auto& se : first.stage_edges()) {
    if (se.u < topo.g.node_count() && se.v < topo.g.node_count()) {
      const graph::EdgeId e = topo.g.find_edge(se.u, se.v);
      if (e != graph::kInvalidEdge) return e;
    }
  }
  ADD_FAILURE() << "request 0 produced no physical hop to fail";
  return 0;
}

void expect_series_identical(const OnlineResult& a, const OnlineResult& b) {
  ASSERT_EQ(a.accumulative_cost.size(), b.accumulative_cost.size());
  for (std::size_t i = 0; i < a.accumulative_cost.size(); ++i) {
    EXPECT_EQ(a.accumulative_cost[i], b.accumulative_cost[i]) << "arrival " << i;  // bitwise
    EXPECT_EQ(a.per_request_cost[i], b.per_request_cost[i]) << "arrival " << i;
  }
  EXPECT_EQ(a.infeasible_requests, b.infeasible_requests);
  EXPECT_EQ(a.overloaded_links, b.overloaded_links);
}

/// Everything but `seconds` (wall time) must match bitwise.
void expect_recoveries_identical(const OnlineResult& a, const OnlineResult& b) {
  ASSERT_EQ(a.recoveries.size(), b.recoveries.size());
  for (std::size_t i = 0; i < a.recoveries.size(); ++i) {
    const auto& x = a.recoveries[i];
    const auto& y = b.recoveries[i];
    EXPECT_EQ(x.epoch_first, y.epoch_first) << "recovery " << i;
    EXPECT_EQ(x.slot, y.slot) << "recovery " << i;
    EXPECT_EQ(x.rerouted_segments, y.rerouted_segments) << "recovery " << i;
    EXPECT_EQ(x.moved_users, y.moved_users) << "recovery " << i;
    EXPECT_EQ(x.dropped_users, y.dropped_users) << "recovery " << i;
    EXPECT_EQ(x.escalated, y.escalated) << "recovery " << i;
    EXPECT_EQ(x.repaired_cost, y.repaired_cost) << "recovery " << i;  // bitwise
    EXPECT_EQ(x.scratch_cost, y.scratch_cost) << "recovery " << i;
    EXPECT_EQ(x.chosen_cost, y.chosen_cost) << "recovery " << i;
  }
}

// ---------------------------------------------------------------- validate --

TEST(ResilienceValidate, NegativeFailIndexRejectedFromBothDrivers) {
  const auto topo = topology::softlayer();
  FailurePlan plan;
  plan.events.push_back({FailureEvent::Target::kLink, 0, /*fail_at=*/-1, /*heal_at=*/-1});
  auto cfg = small_config();
  cfg.failures = &plan;
  try {
    run(topo, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("FailurePlan.events[0].fail_at"), std::string::npos)
        << e.what();
  }
  // The pipeline validates at construction, before any thread spawns.
  EXPECT_THROW(Pipeline(topo, cfg, "sofda", {}, {}), std::invalid_argument);
}

TEST(ResilienceValidate, HealBeforeFailRejected) {
  const auto topo = topology::softlayer();
  FailurePlan plan;
  plan.events.push_back({FailureEvent::Target::kLink, 1, /*fail_at=*/4, /*heal_at=*/4});
  auto cfg = small_config();
  cfg.failures = &plan;
  try {
    run(topo, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("heal_at"), std::string::npos) << e.what();
  }
}

TEST(ResilienceValidate, UnknownIdsRejectedPerTargetKind) {
  const auto topo = topology::softlayer();
  auto expect_rejects = [&](FailureEvent ev, const char* member) {
    FailurePlan plan;
    plan.events.push_back(ev);
    auto cfg = small_config();
    cfg.failures = &plan;
    try {
      run(topo, cfg);
      FAIL() << "expected std::invalid_argument for " << member;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(member), std::string::npos) << e.what();
    }
  };
  expect_rejects({FailureEvent::Target::kLink, topo.g.edge_count(), 1, -1}, ".id");
  expect_rejects({FailureEvent::Target::kNode, topo.g.node_count(), 1, -1}, ".id");
  expect_rejects({FailureEvent::Target::kDataCenter,
                  static_cast<std::int32_t>(topo.dc_nodes.size()), 1, -1},
                 ".id");
}

TEST(ResilienceValidate, NegativeMigrationWeightRejected) {
  const auto topo = topology::softlayer();
  auto cfg = small_config();
  cfg.recovery.migration_cost_weight = -1.0;
  EXPECT_THROW(run(topo, cfg), std::invalid_argument);
}

// ----------------------------------------------------- fail/heal round-trip --

TEST(ResilienceRoundTrip, HealRestoresEveryPriceBitForBit) {
  // Stream-level drill with empty commits: the ledger never moves, so the
  // only deltas are the drill's own — fail must drive exactly the target
  // link to +inf, heal must restore the pre-failure vector bitwise, and
  // both must surface as ordinary EdgeCostDelta entries.
  const auto topo = topology::softlayer();
  auto cfg = small_config();
  cfg.requests = 6;
  const graph::EdgeId victim = 3;
  FailurePlan plan;
  plan.events.push_back({FailureEvent::Target::kLink, victim, /*fail_at=*/2, /*heal_at=*/4});
  cfg.failures = &plan;

  ArrivalStream stream(topo, cfg);
  stream.set_recovery_embedder([](const Problem&) { return ServiceForest{}; });

  std::vector<graph::EdgeCostDelta> deltas;
  // The first refresh reprices every link from its topology base cost to the
  // zero-load Fortz-Thorup price; capture that steady state as the baseline.
  stream.open_epoch(0, &deltas);
  std::vector<Cost> baseline;
  for (graph::EdgeId e = 0; e < topo.g.edge_count(); ++e) {
    baseline.push_back(stream.master().network.edge(e).cost);
  }
  stream.commit_epoch(0, {ServiceForest{}});

  stream.open_epoch(1, &deltas);
  stream.commit_epoch(1, {ServiceForest{}});

  stream.open_epoch(2, &deltas);  // failure fires here
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].edge, victim);
  EXPECT_EQ(stream.master().network.edge(victim).cost, graph::kInfiniteCost);
  for (graph::EdgeId e = 0; e < topo.g.edge_count(); ++e) {
    if (e != victim) {
      EXPECT_EQ(stream.master().network.edge(e).cost, baseline[static_cast<std::size_t>(e)]);
    }
  }
  stream.commit_epoch(2, {ServiceForest{}});

  stream.open_epoch(3, &deltas);
  EXPECT_TRUE(deltas.empty()) << "failed link stays failed without a toggle";
  stream.commit_epoch(3, {ServiceForest{}});

  stream.open_epoch(4, &deltas);  // heal fires here
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].edge, victim);
  for (graph::EdgeId e = 0; e < topo.g.edge_count(); ++e) {
    EXPECT_EQ(stream.master().network.edge(e).cost, baseline[static_cast<std::size_t>(e)])
        << "heal must restore the pre-failure price vector bit for bit";
  }
  EXPECT_TRUE(stream.recoveries().empty()) << "nothing was admitted, nothing to recover";
}

// ----------------------------------------------------------------- recovery --

TEST(ResilienceDrill, DrillRecoversEveryAffectedForest) {
  // The acceptance drill: kill a link request 0 provably charges, heal it
  // three arrivals later.  Request 0 must be recovered at the failure
  // epoch, and every recovery must adopt a finite-cost embedding (the
  // unbounded default escalates to the from-scratch re-embed).
  const auto topo = topology::softlayer();
  auto cfg = small_config();
  const graph::EdgeId victim = charged_link_of_first_request(topo, cfg);
  FailurePlan plan;
  plan.events.push_back({FailureEvent::Target::kLink, static_cast<std::int32_t>(victim),
                         /*fail_at=*/2, /*heal_at=*/5});
  cfg.failures = &plan;

  const auto r = run(topo, cfg);
  ASSERT_FALSE(r.recoveries.empty());
  bool recovered_first = false;
  for (const auto& rep : r.recoveries) {
    EXPECT_EQ(rep.epoch_first, 2);
    EXPECT_LT(rep.slot, 2) << "only already-admitted requests can be affected";
    if (rep.slot == 0) recovered_first = true;
    EXPECT_LT(rep.chosen_cost, graph::kInfiniteCost)
        << "softlayer minus one link stays connected: recovery must be feasible";
    EXPECT_EQ(rep.dropped_users, 0);
  }
  EXPECT_TRUE(recovered_first) << "request 0 charged the dead link and must be recovered";
}

TEST(ResilienceDrill, BudgetZeroIsRepairOnly) {
  const auto topo = topology::softlayer();
  auto cfg = small_config();
  const graph::EdgeId victim = charged_link_of_first_request(topo, cfg);
  FailurePlan plan;
  plan.events.push_back({FailureEvent::Target::kLink, static_cast<std::int32_t>(victim),
                         /*fail_at=*/3, /*heal_at=*/-1});
  cfg.failures = &plan;
  cfg.recovery.max_moved_users = 0;

  const auto r = run(topo, cfg);
  ASSERT_FALSE(r.recoveries.empty());
  for (const auto& rep : r.recoveries) {
    EXPECT_EQ(rep.moved_users, 0) << "budget 0 may never move a user";
    EXPECT_FALSE(rep.escalated) << "budget 0 cannot afford the from-scratch re-embed";
  }
}

TEST(ResilienceDrill, UnboundedBudgetMatchesFromScratchQuality) {
  // Budget ∞: every recovery adopts the from-scratch candidate, so the
  // chosen cost IS the from-scratch reference cost — and the whole drill
  // (series + reports) is bitwise identical between the warm incremental
  // session and the cold recomputing reference driver.
  const auto topo = topology::softlayer();
  auto cfg = small_config();
  cfg.requests = 10;
  const graph::EdgeId victim = charged_link_of_first_request(topo, cfg);
  FailurePlan plan;
  plan.events.push_back({FailureEvent::Target::kLink, static_cast<std::int32_t>(victim),
                         /*fail_at=*/4, /*heal_at=*/8});
  cfg.failures = &plan;
  cfg.recovery.max_moved_users = -1;

  const auto incremental = run(topo, cfg);
  ASSERT_FALSE(incremental.recoveries.empty());
  for (const auto& rep : incremental.recoveries) {
    ASSERT_LT(rep.scratch_cost, graph::kInfiniteCost);
    EXPECT_TRUE(rep.escalated);
    EXPECT_EQ(rep.chosen_cost, rep.scratch_cost);  // bitwise
  }

  const auto reference = run_recomputing(topo, cfg);
  expect_series_identical(incremental, reference);
  expect_recoveries_identical(incremental, reference);
}

TEST(ResilienceDrill, DisconnectedComponentDropsOnlyUnreachableUsers) {
  // Node failure that cuts a served destination off entirely: the repair
  // keeps the survivors, the orphan is dropped (no feasible attachment),
  // and escalation cannot rescue it either (a full re-embed is infeasible
  // with an unreachable destination) — so the drill reports dropped users
  // instead of an infinite chosen cost.
  const auto topo = topology::softlayer();
  auto cfg = small_config();
  ArrivalStream probe(topo, cfg);
  const core::NodeId victim = probe.request(0).destinations.front();
  FailurePlan plan;
  plan.events.push_back({FailureEvent::Target::kNode, victim, /*fail_at=*/2, /*heal_at=*/-1});
  cfg.failures = &plan;

  const auto r = run(topo, cfg);
  ASSERT_FALSE(r.recoveries.empty());
  bool saw_first = false;
  int dropped = 0;
  for (const auto& rep : r.recoveries) {
    if (rep.slot == 0) saw_first = true;
    dropped += rep.dropped_users;
    EXPECT_FALSE(rep.escalated)
        << "a from-scratch re-embed cannot serve an unreachable destination";
  }
  EXPECT_TRUE(saw_first) << "request 0 serves the failed node and must be in the drill";
  EXPECT_GE(dropped, 1) << "the cut-off destination cannot be served by any recovery";
}

TEST(ResilienceDrill, HoldingDeparturesComposeWithFailures) {
  // Departures and failures share the release path: a request that departs
  // before the failure must NOT be recovered; the run must still match the
  // recomputing session bit for bit.
  const auto topo = topology::softlayer();
  auto cfg = small_config();
  cfg.requests = 10;
  cfg.holding_arrivals = 3;
  const graph::EdgeId victim = charged_link_of_first_request(topo, cfg);
  FailurePlan plan;
  plan.events.push_back({FailureEvent::Target::kLink, static_cast<std::int32_t>(victim),
                         /*fail_at=*/6, /*heal_at=*/-1});
  cfg.failures = &plan;

  const auto r = run(topo, cfg);
  for (const auto& rep : r.recoveries) {
    EXPECT_GE(rep.slot, 6 - cfg.holding_arrivals)
        << "request " << rep.slot << " departed before the failure";
  }
  const auto reference = run_recomputing(topo, cfg);
  expect_series_identical(r, reference);
  expect_recoveries_identical(r, reference);
}

// -------------------------------------------------------------- determinism --

TEST(ResilienceDeterminism, IdenticalAcrossSolverThreadsAndPipelineWorkers) {
  // The drill is a pure speed-knob invariant like everything else: solver
  // threads {1, 2, 8} and pipeline workers {1, 2, 8} must reproduce the
  // sequential single-thread drill bit for bit, recoveries included.
  const auto topo = topology::softlayer();
  auto cfg = small_config();
  cfg.requests = 12;
  cfg.epoch_size = 4;
  const graph::EdgeId victim = charged_link_of_first_request(topo, cfg);
  FailurePlan plan;
  plan.events.push_back({FailureEvent::Target::kLink, static_cast<std::int32_t>(victim),
                         /*fail_at=*/5, /*heal_at=*/9});
  plan.events.push_back({FailureEvent::Target::kDataCenter, 0, /*fail_at=*/7, /*heal_at=*/-1});
  cfg.failures = &plan;

  const auto reference = run(topo, cfg);
  ASSERT_FALSE(reference.recoveries.empty());

  for (const int threads : {2, 8}) {
    api::SolverOptions opt;
    opt.threads = threads;
    const auto got = run(topo, cfg, opt);
    expect_series_identical(got, reference);
    expect_recoveries_identical(got, reference);
  }
  for (const int workers : {1, 2, 8}) {
    PipelineOptions popt;
    popt.workers = workers;
    const auto got = Pipeline(topo, cfg, "sofda", {}, popt).run();
    expect_series_identical(got, reference);
    expect_recoveries_identical(got, reference);
  }
}

// ------------------------------------------------- ledger hardening (§12e) --

TEST(ResilienceLedger, DoubleReleaseClampsAtZeroAndAssertsInDebug) {
  costmodel::LoadLedger ledger(2, 100.0, 1, 5.0);
  ledger.add_link_load(0, 5.0);
  EXPECT_DOUBLE_EQ(ledger.remove_link_load(0, 5.0), 5.0);
  // A second release of the same charge is a caller bug: debug builds trip
  // the assert; release builds clamp at zero and report the shortfall via
  // the returned amount.
  EXPECT_DEBUG_DEATH(
      {
        const double removed = ledger.remove_link_load(0, 5.0);
        EXPECT_DOUBLE_EQ(removed, 0.0);
        EXPECT_DOUBLE_EQ(ledger.link_load(0), 0.0);
      },
      "removing more link load");

  ledger.add_host_load(0, 1.0);
  EXPECT_DOUBLE_EQ(ledger.remove_host_load(0, 1.0), 1.0);
  EXPECT_DEBUG_DEATH(
      {
        const double removed = ledger.remove_host_load(0, 1.0);
        EXPECT_DOUBLE_EQ(removed, 0.0);
        EXPECT_DOUBLE_EQ(ledger.host_load(0), 0.0);
      },
      "removing more host load");
}

}  // namespace
}  // namespace sofe::online
