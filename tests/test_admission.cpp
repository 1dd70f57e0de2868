// Capacity-constrained admission control tests (DESIGN.md §14): hard
// feasibility at the LoadLedger boundary, the three policies' decision
// rules, the strict option-string parser, sequential-vs-pipeline bitwise
// determinism of the accept/cost series, composition with departures and
// failure drills, and the fuzzed global invariants (no ledger entry ever
// exceeds capacity in enforced mode, capacity-prefix monotonicity, and
// decision-log replay reproducing the exact ledger end state).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sofe/api/registry.hpp"
#include "sofe/costmodel/load_ledger.hpp"
#include "sofe/online/admission.hpp"
#include "sofe/online/pipeline.hpp"
#include "sofe/online/stream.hpp"
#include "sofe/util/rng.hpp"

namespace sofe::online {
namespace {

using costmodel::LoadLedger;

// Small instance where hard capacity actually binds: 5 Mb/s streams over
// 20 Mb/s links saturate a popular link after four stream copies, and two
// VNF slots per host fill fast with two VMs per DC.
OnlineConfig tight_config() {
  OnlineConfig cfg;
  cfg.requests = 12;
  cfg.min_destinations = 2;
  cfg.max_destinations = 4;
  cfg.min_sources = 2;
  cfg.max_sources = 3;
  cfg.chain_length = 2;
  cfg.vms_per_dc = 2;
  cfg.demand_mbps = 5.0;
  cfg.link_capacity = 20.0;
  cfg.host_capacity = 4.0;
  cfg.seed = 5;
  cfg.admission = "greedy";
  return cfg;
}

OnlineResult run_sequential(const topology::Topology& topo, const OnlineConfig& cfg) {
  auto solver = api::make_solver("sofda");
  return simulate(topo, cfg, *solver);
}

// The full §14 determinism surface: cost series, accept/reject series,
// decision-time utilization and every end-of-stream admission statistic,
// compared bitwise, plus the deterministic recovery fields.
void expect_admission_series_identical(const OnlineResult& a, const OnlineResult& b) {
  ASSERT_EQ(a.accumulative_cost.size(), b.accumulative_cost.size());
  for (std::size_t i = 0; i < a.accumulative_cost.size(); ++i) {
    EXPECT_EQ(a.accumulative_cost[i], b.accumulative_cost[i]) << "arrival " << i;  // bitwise
    EXPECT_EQ(a.per_request_cost[i], b.per_request_cost[i]) << "arrival " << i;
  }
  ASSERT_EQ(a.accepted.size(), b.accepted.size());
  ASSERT_EQ(a.decision_utilization.size(), b.decision_utilization.size());
  for (std::size_t i = 0; i < a.accepted.size(); ++i) {
    EXPECT_EQ(a.accepted[i], b.accepted[i]) << "arrival " << i;
    EXPECT_EQ(a.decision_utilization[i], b.decision_utilization[i]) << "arrival " << i;
  }
  EXPECT_EQ(a.infeasible_requests, b.infeasible_requests);
  EXPECT_EQ(a.rejected_requests, b.rejected_requests);
  EXPECT_EQ(a.rejected_demand_mbps, b.rejected_demand_mbps);
  EXPECT_EQ(a.accept_rate, b.accept_rate);
  EXPECT_EQ(a.overloaded_links, b.overloaded_links);
  EXPECT_EQ(a.max_link_utilization, b.max_link_utilization);
  EXPECT_EQ(a.mean_link_utilization, b.mean_link_utilization);
  EXPECT_EQ(a.max_host_utilization, b.max_host_utilization);
  EXPECT_EQ(a.mean_host_utilization, b.mean_host_utilization);
  ASSERT_EQ(a.recoveries.size(), b.recoveries.size());
  for (std::size_t i = 0; i < a.recoveries.size(); ++i) {
    EXPECT_EQ(a.recoveries[i].epoch_first, b.recoveries[i].epoch_first);
    EXPECT_EQ(a.recoveries[i].slot, b.recoveries[i].slot);
    EXPECT_EQ(a.recoveries[i].dropped_users, b.recoveries[i].dropped_users);
    EXPECT_EQ(a.recoveries[i].capacity_dropped, b.recoveries[i].capacity_dropped);
    EXPECT_EQ(a.recoveries[i].chosen_cost, b.recoveries[i].chosen_cost);
  }
}

// ------------------------------------------------------- ledger feasibility --

TEST(LedgerFeasibility, BoundaryExactlyAtCapacityIsClosed) {
  LoadLedger led(2, 10.0, 2, 2.0, /*enforce_capacity=*/true);
  EXPECT_TRUE(led.enforced());
  led.add_link_load(0, 5.0);
  // Exactly filling the link is feasible; one drop more is not.
  EXPECT_TRUE(led.can_admit({0}, 5.0, {}, 1.0));
  EXPECT_FALSE(led.can_admit({0}, 5.0 + 1e-6, {}, 1.0));
  // The untouched link has full headroom.
  EXPECT_TRUE(led.can_admit({1}, 10.0, {}, 1.0));
  EXPECT_FALSE(led.can_admit({1}, 10.0 + 1e-6, {}, 1.0));
  // Hosts: one slot taken, one left.
  led.add_host_load(0, 1.0);
  EXPECT_TRUE(led.can_admit({}, 0.0, {0}, 1.0));
  EXPECT_FALSE(led.can_admit({}, 0.0, {0}, 1.0 + 1e-6));
  EXPECT_FALSE(led.can_admit({}, 0.0, {0, 0}, 1.0));
}

TEST(LedgerFeasibility, ZeroDemandIsAlwaysFeasible) {
  LoadLedger led(1, 10.0, 1, 1.0, true);
  led.add_link_load(0, 10.0);  // completely full
  led.add_host_load(0, 1.0);
  EXPECT_TRUE(led.can_admit({0, 0, 0}, 0.0, {0}, 0.0));
  EXPECT_TRUE(led.can_admit({}, 5.0, {}, 1.0)) << "empty charge lists are trivially feasible";
}

TEST(LedgerFeasibility, MultiplicityAggregatesBeforeTheBoundaryCheck) {
  LoadLedger led(2, 10.0, 1, 3.0, true);
  // One copy fits, two copies exactly fill, three overflow — a forest that
  // crosses a link at several stages must aggregate its repeats.
  EXPECT_TRUE(led.can_admit({0}, 5.0, {}, 1.0));
  EXPECT_TRUE(led.can_admit({0, 0}, 5.0, {}, 1.0));
  EXPECT_FALSE(led.can_admit({0, 0, 0}, 5.0, {}, 1.0));
  // Repeats interleaved with other entries still aggregate per entry.
  EXPECT_TRUE(led.can_admit({0, 1, 0}, 5.0, {}, 1.0));
  EXPECT_FALSE(led.can_admit({0, 1, 0, 1, 0}, 5.0, {}, 1.0));
  // Host slots behave identically.
  EXPECT_TRUE(led.can_admit({}, 0.0, {0, 0, 0}, 1.0));
  EXPECT_FALSE(led.can_admit({}, 0.0, {0, 0, 0, 0}, 1.0));
}

TEST(LedgerFeasibility, HeadroomAndUtilizationStats) {
  LoadLedger led(2, 10.0, 2, 4.0, false);
  led.add_link_load(0, 4.0);
  led.add_host_load(1, 1.0);
  EXPECT_DOUBLE_EQ(led.link_headroom(0), 6.0);
  EXPECT_DOUBLE_EQ(led.link_headroom(1), 10.0);
  EXPECT_DOUBLE_EQ(led.host_headroom(1), 3.0);
  EXPECT_DOUBLE_EQ(led.host_utilization(1), 0.25);
  EXPECT_DOUBLE_EQ(led.max_link_utilization(), 0.4);
  EXPECT_DOUBLE_EQ(led.mean_link_utilization(), 0.2);
  EXPECT_DOUBLE_EQ(led.max_host_utilization(), 0.25);
  EXPECT_DOUBLE_EQ(led.mean_host_utilization(), 0.125);
  // Soft mode may overload; headroom clamps at zero instead of going negative.
  led.add_link_load(0, 8.0);
  EXPECT_DOUBLE_EQ(led.link_headroom(0), 0.0);
  EXPECT_EQ(led.overloaded_links(), 1u);
}

// ------------------------------------------------------------ policy units --

AdmissionCandidate cand(int slot, double marginal, double uncongested) {
  AdmissionCandidate c;
  c.slot = slot;
  c.feasible = true;
  c.marginal_cost = marginal;
  c.uncongested_cost = uncongested;
  return c;
}

AdmissionCandidate infeasible_cand(int slot) {
  AdmissionCandidate c;
  c.slot = slot;
  c.feasible = false;
  c.marginal_cost = graph::kInfiniteCost;
  c.uncongested_cost = graph::kInfiniteCost;
  return c;
}

TEST(AdmissionPolicyUnit, GreedyAdmitsExactlyTheFeasible) {
  const auto policy = make_admission_policy("greedy");
  EXPECT_EQ(policy->name(), "greedy");
  std::vector<AdmissionCandidate> batch{cand(0, 5.0, 1.0), infeasible_cand(1),
                                        cand(2, 1e9, 1.0)};
  std::vector<char> intent;
  policy->decide(batch, intent);
  ASSERT_EQ(intent.size(), 3u);
  EXPECT_EQ(intent[0], 1);
  EXPECT_EQ(intent[1], 0) << "no policy may intend an infeasible arrival";
  EXPECT_EQ(intent[2], 1) << "greedy ignores cost entirely";
}

TEST(AdmissionPolicyUnit, ThresholdPriceComparesAgainstUncongestedCost) {
  const auto policy = make_admission_policy("threshold-price,theta=1.5");
  std::vector<AdmissionCandidate> batch{
      cand(0, 10.0, 10.0),  // ratio 1.0: uncongested, admit
      cand(1, 15.0, 10.0),  // ratio exactly theta: boundary admits
      cand(2, 15.1, 10.0),  // just past: reject
      cand(3, 0.0, 0.0),    // zero-cost embedding: always admit
      infeasible_cand(4),
  };
  std::vector<char> intent;
  policy->decide(batch, intent);
  EXPECT_EQ(intent[0], 1);
  EXPECT_EQ(intent[1], 1);
  EXPECT_EQ(intent[2], 0);
  EXPECT_EQ(intent[3], 1);
  EXPECT_EQ(intent[4], 0);
}

TEST(AdmissionPolicyUnit, RejectCostliestRanksTheBatchCheapestFirst) {
  const auto policy = make_admission_policy("reject-costliest,budget=10");
  std::vector<AdmissionCandidate> batch{cand(0, 6.0, 1.0), cand(1, 5.0, 1.0),
                                        cand(2, 3.0, 1.0)};
  std::vector<char> intent;
  policy->decide(batch, intent);
  // Cheapest-first: 3 (slot 2) then 5 (slot 1) = 8 <= 10; adding 6 busts.
  EXPECT_EQ(intent[0], 0);
  EXPECT_EQ(intent[1], 1);
  EXPECT_EQ(intent[2], 1);
}

TEST(AdmissionPolicyUnit, RejectCostliestBreaksCostTiesBySlot) {
  const auto policy = make_admission_policy("reject-costliest,budget=10");
  std::vector<AdmissionCandidate> batch{cand(0, 5.0, 1.0), cand(1, 5.0, 1.0),
                                        cand(2, 5.0, 1.0)};
  std::vector<char> intent;
  policy->decide(batch, intent);
  EXPECT_EQ(intent[0], 1);
  EXPECT_EQ(intent[1], 1);
  EXPECT_EQ(intent[2], 0) << "equal costs admit in arrival order";
}

TEST(AdmissionPolicyUnit, RejectCostliestBudgetExtremes) {
  std::vector<AdmissionCandidate> batch{cand(0, 5.0, 1.0), cand(1, 7.0, 1.0)};
  std::vector<char> intent;
  make_admission_policy("reject-costliest,budget=0")->decide(batch, intent);
  EXPECT_EQ(intent[0], 0);
  EXPECT_EQ(intent[1], 0);
  make_admission_policy("reject-costliest")->decide(batch, intent);  // unbounded default
  EXPECT_EQ(intent[0], 1);
  EXPECT_EQ(intent[1], 1);
}

// ------------------------------------------------------------- spec parsing --

TEST(AdmissionSpec, AcceptsTheDocumentedGrammar) {
  EXPECT_EQ(make_admission_policy("greedy")->name(), "greedy");
  EXPECT_EQ(make_admission_policy("admission/greedy")->name(), "greedy");
  EXPECT_NE(make_admission_policy("threshold-price")->name().find("theta"),
            std::string_view::npos);
  EXPECT_NE(make_admission_policy("admission/threshold-price,theta=1.25")->name().find("1.25"),
            std::string_view::npos);
  EXPECT_NE(make_admission_policy("reject-costliest,budget=250")->name().find("250"),
            std::string_view::npos);
}

void expect_spec_throws(const std::string& spec, const std::string& needle) {
  try {
    (void)make_admission_policy(spec);
    FAIL() << "expected std::invalid_argument for \"" << spec << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "\"" << spec << "\" -> " << e.what();
  }
}

TEST(AdmissionSpec, RejectsMalformedSpecsNamingTheField) {
  expect_spec_throws("", "unknown policy");
  expect_spec_throws("gredy", "unknown policy");
  expect_spec_throws("admission/", "unknown policy");
  expect_spec_throws("greedy,theta=1", "greedy takes no parameters");
  expect_spec_throws("threshold-price,thta=1", "unknown key");
  expect_spec_throws("threshold-price,theta", "expected <key>=<value>");
  expect_spec_throws("threshold-price,theta=", "must be a number");
  expect_spec_throws("threshold-price,theta=1.5x", "must be a number");
  expect_spec_throws("threshold-price,theta=-1", "must be >= 0");
  expect_spec_throws("threshold-price,theta=1,theta=2", "duplicate key");
  expect_spec_throws("reject-costliest,budget=-2", "must be >= 0");
  expect_spec_throws("reject-costliest,theta=1", "unknown key");
}

TEST(AdmissionSpec, BothDriversThrowFromValidate) {
  const auto topo = topology::softlayer();
  auto cfg = tight_config();
  cfg.admission = "threshold-price,theta=nope";
  EXPECT_THROW(run_sequential(topo, cfg), std::invalid_argument);
  EXPECT_THROW(Pipeline(topo, cfg, "sofda", {}), std::invalid_argument);
  cfg = tight_config();
  cfg.link_capacity = -1.0;
  try {
    run_sequential(topo, cfg);
    FAIL() << "negative link_capacity must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("link_capacity"), std::string::npos) << e.what();
  }
  cfg = tight_config();
  cfg.host_capacity = 0.0;
  EXPECT_THROW(Pipeline(topo, cfg, "sofda", {}), std::invalid_argument);
}

// ------------------------------------------------------------- golden cases --

TEST(AdmissionGolden, GreedyWithAmpleCapacityMatchesTheLegacyScenario) {
  // With capacity far beyond what the stream can load, the gate never
  // fires: the greedy run's cost series must be BITWISE the legacy
  // (no-admission) run's — prices evolve identically because every arrival
  // is admitted in both.
  const auto topo = topology::softlayer();
  auto cfg = tight_config();
  cfg.link_capacity = 1e6;
  cfg.host_capacity = 1e3;
  auto legacy_cfg = cfg;
  legacy_cfg.admission.clear();
  const auto legacy = run_sequential(topo, legacy_cfg);
  const auto greedy = run_sequential(topo, cfg);
  ASSERT_EQ(legacy.accumulative_cost.size(), greedy.accumulative_cost.size());
  for (std::size_t i = 0; i < legacy.accumulative_cost.size(); ++i) {
    EXPECT_EQ(legacy.accumulative_cost[i], greedy.accumulative_cost[i]);
    EXPECT_EQ(legacy.per_request_cost[i], greedy.per_request_cost[i]);
  }
  EXPECT_EQ(greedy.rejected_requests, 0);
  EXPECT_EQ(greedy.rejected_demand_mbps, 0.0);
  EXPECT_EQ(greedy.accept_rate, 1.0);
  EXPECT_EQ(greedy.infeasible_requests, 0);
  // The legacy run reports the same accept series with every slot accepted.
  ASSERT_EQ(legacy.accepted.size(), greedy.accepted.size());
  for (std::size_t i = 0; i < legacy.accepted.size(); ++i) {
    EXPECT_EQ(legacy.accepted[i], 1);
    EXPECT_EQ(greedy.accepted[i], 1);
  }
}

TEST(AdmissionGolden, TightCapacityRejectsButNeverOverloads) {
  const auto topo = topology::softlayer();
  const auto cfg = tight_config();
  const auto r = run_sequential(topo, cfg);
  EXPECT_GT(r.rejected_requests, 0) << "the tight scenario must actually bind";
  EXPECT_EQ(r.overloaded_links, 0u) << "enforced mode forbids overload";
  EXPECT_LE(r.max_link_utilization, 1.0 + 1e-9);
  EXPECT_LE(r.max_host_utilization, 1.0 + 1e-9);
  EXPECT_LT(r.accept_rate, 1.0);
  EXPECT_DOUBLE_EQ(
      r.accept_rate,
      1.0 - static_cast<double>(r.rejected_requests + r.infeasible_requests) /
                static_cast<double>(cfg.requests));
  // A rejected arrival charges nothing and costs nothing.
  int rejected_seen = 0;
  for (std::size_t i = 0; i < r.accepted.size(); ++i) {
    if (r.accepted[i] == 0) {
      EXPECT_EQ(r.per_request_cost[i], 0.0) << "arrival " << i;
      ++rejected_seen;
    }
  }
  EXPECT_EQ(rejected_seen, r.rejected_requests + r.infeasible_requests);
  EXPECT_GT(r.rejected_demand_mbps, 0.0);
}

TEST(AdmissionGolden, ThresholdThetaDivergesRejectFirst) {
  // Run-level theta monotonicity is not well defined (decisions feed back
  // into prices), but the FIRST divergence is: both runs see identical
  // candidates until their decisions differ, and at that slot the tighter
  // theta must be the one rejecting.
  const auto topo = topology::softlayer();
  auto tight = tight_config();
  tight.link_capacity = 60.0;  // loose enough that theta, not capacity, decides
  tight.admission = "threshold-price,theta=1.02";
  auto loose = tight;
  loose.admission = "threshold-price,theta=8";
  const auto rt = run_sequential(topo, tight);
  const auto rl = run_sequential(topo, loose);
  ASSERT_EQ(rt.accepted.size(), rl.accepted.size());
  bool diverged = false;
  for (std::size_t i = 0; i < rt.accepted.size(); ++i) {
    if (rt.accepted[i] != rl.accepted[i]) {
      EXPECT_EQ(rt.accepted[i], 0) << "tight theta rejects at the first divergence";
      EXPECT_EQ(rl.accepted[i], 1);
      diverged = true;
      break;
    }
  }
  EXPECT_TRUE(diverged) << "theta 1.02 vs 8 should decide at least one arrival differently";

  // A theta beyond any congestion surcharge in this scenario is greedy.
  auto greedy_cfg = tight;
  greedy_cfg.admission = "greedy";
  auto huge = tight;
  huge.admission = "threshold-price,theta=1000000";
  expect_admission_series_identical(run_sequential(topo, greedy_cfg),
                                    run_sequential(topo, huge));
}

TEST(AdmissionGolden, RejectCostliestExtremes) {
  const auto topo = topology::softlayer();
  auto cfg = tight_config();
  cfg.admission = "reject-costliest,budget=0";
  const auto none = run_sequential(topo, cfg);
  EXPECT_EQ(none.accept_rate, 0.0);
  EXPECT_EQ(none.rejected_requests + none.infeasible_requests, cfg.requests);
  for (const Cost c : none.accumulative_cost) EXPECT_EQ(c, 0.0);
  EXPECT_EQ(none.max_link_utilization, 0.0) << "nothing admitted, nothing charged";

  // An unbounded budget admits everything feasible: bitwise greedy.
  cfg.admission = "reject-costliest";
  auto greedy_cfg = cfg;
  greedy_cfg.admission = "greedy";
  expect_admission_series_identical(run_sequential(topo, greedy_cfg),
                                    run_sequential(topo, cfg));
}

TEST(AdmissionGolden, RejectCostliestRanksWithinTheEpochBatch) {
  // With an epoch batch and a budget, the policy admits the batch's
  // cheapest arrivals first — so within some epoch an arrival can be
  // rejected while a LATER, cheaper one of the same epoch is admitted
  // (impossible for per-arrival policies, which decide in isolation).
  const auto topo = topology::softlayer();
  auto cfg = tight_config();
  cfg.requests = 16;
  cfg.epoch_size = 4;
  cfg.link_capacity = 200.0;  // budget, not capacity, is the binding constraint
  cfg.host_capacity = 50.0;
  cfg.admission = "reject-costliest,budget=40";
  const auto r = run_sequential(topo, cfg);
  ASSERT_EQ(r.infeasible_requests, 0) << "capacity is ample; every arrival should embed";
  EXPECT_GT(r.rejected_requests, 0);
  bool reject_then_accept_in_epoch = false;
  for (int first = 0; first < cfg.requests && !reject_then_accept_in_epoch; first += cfg.epoch_size) {
    bool saw_reject = false;
    for (int r2 = first; r2 < std::min(cfg.requests, first + cfg.epoch_size); ++r2) {
      const std::size_t i = static_cast<std::size_t>(r2);
      if (r.accepted[i] == 0) {
        saw_reject = true;
      } else if (saw_reject) {
        reject_then_accept_in_epoch = true;
      }
    }
  }
  EXPECT_TRUE(reject_then_accept_in_epoch)
      << "batch ranking should admit a cheaper later arrival past a costlier earlier one";
}

// --------------------------------------------------- driver determinism S×W --

TEST(AdmissionDeterminism, PipelineMatchesSequentialForEveryPolicyAcrossSxW) {
  // The acceptance criterion: accept/reject and cost series from the
  // epoch-pipelined service bitwise identical to the sequential driver for
  // every policy at S in {1,4,16} x W in {1,2,8}, on the capacity-bound
  // scenario (so rejections actually occur and the gate is exercised).
  const auto topo = topology::softlayer();
  const char* policies[] = {"greedy", "threshold-price,theta=1.2",
                            "reject-costliest,budget=120"};
  for (const char* policy : policies) {
    bool any_rejection = false;
    for (int epoch_size : {1, 4, 16}) {
      auto cfg = tight_config();
      cfg.admission = policy;
      cfg.epoch_size = epoch_size;
      const auto ref = run_sequential(topo, cfg);
      EXPECT_EQ(ref.overloaded_links, 0u);
      any_rejection = any_rejection || ref.rejected_requests > 0;
      for (int workers : {1, 2, 8}) {
        SCOPED_TRACE(std::string(policy) + " S=" + std::to_string(epoch_size) +
                     " W=" + std::to_string(workers));
        PipelineOptions popt;
        popt.workers = workers;
        const auto got = Pipeline(topo, cfg, "sofda", {}, popt).run();
        expect_admission_series_identical(ref, got);
      }
    }
    EXPECT_TRUE(any_rejection) << policy << ": the tight scenario should reject somewhere";
  }
}

// ---------------------------------------------------------------- composition --

TEST(AdmissionComposition, DepartureFreesCapacityForALaterArrival) {
  // Churn regime: requests depart after holding_arrivals, returning their
  // bandwidth.  Under tight capacity the stream saturates (a rejection),
  // then departures free room and a LATER arrival is admitted again —
  // the freed-capacity-readmits pattern, impossible without departures
  // once the ledger pins near capacity.
  const auto topo = topology::softlayer();
  auto cfg = tight_config();
  cfg.requests = 20;
  cfg.holding_arrivals = 4;
  cfg.link_capacity = 10.0;  // two stream copies per link: binds within one window
  const auto r = run_sequential(topo, cfg);
  EXPECT_EQ(r.overloaded_links, 0u);
  EXPECT_GT(r.rejected_requests, 0);
  int first_reject = -1, later_accept = -1;
  for (std::size_t i = 0; i < r.accepted.size(); ++i) {
    if (first_reject < 0 && r.accepted[i] == 0) first_reject = static_cast<int>(i);
    if (first_reject >= 0 && r.accepted[i] == 1) later_accept = static_cast<int>(i);
  }
  ASSERT_GE(first_reject, 0);
  EXPECT_GT(later_accept, first_reject)
      << "capacity freed by departures should admit a later arrival";

  // And the pipelined service agrees bitwise, departures and all.
  cfg.epoch_size = 4;
  const auto ref = run_sequential(topo, cfg);
  PipelineOptions popt;
  popt.workers = 2;
  expect_admission_series_identical(ref, Pipeline(topo, cfg, "sofda", {}, popt).run());
}

TEST(AdmissionComposition, FailureDrillUnderCapacityPressure) {
  // PR 8 composition: a link dies mid-stream while capacity is enforced.
  // Recovery re-embeds the affected forests; any recovery that no longer
  // fits is dropped (capacity_dropped) instead of overloading — and the
  // whole drill stays bitwise identical across drivers and worker counts.
  const auto topo = topology::softlayer();
  resilience::FailurePlan plan;
  plan.events.push_back(
      {resilience::FailureEvent::Target::kNode, 3, /*fail_at=*/4, /*heal_at=*/9});
  auto cfg = tight_config();
  cfg.requests = 14;
  cfg.failures = &plan;
  const auto seq = run_sequential(topo, cfg);
  EXPECT_EQ(seq.overloaded_links, 0u);
  EXPECT_LE(seq.max_link_utilization, 1.0 + 1e-9);
  for (int epoch_size : {1, 4}) {
    auto pcfg = cfg;
    pcfg.epoch_size = epoch_size;
    const auto ref = run_sequential(topo, pcfg);
    EXPECT_EQ(ref.overloaded_links, 0u);
    for (int workers : {1, 2}) {
      SCOPED_TRACE("S=" + std::to_string(epoch_size) + " W=" + std::to_string(workers));
      PipelineOptions popt;
      popt.workers = workers;
      expect_admission_series_identical(ref, Pipeline(topo, pcfg, "sofda", {}, popt).run());
    }
  }
}

// ------------------------------------------------------------ fuzz invariants --

TEST(AdmissionFuzz, LedgerNeverExceedsCapacityInEnforcedMode) {
  // Seeded random streams through the real embedder, checked INSIDE the
  // run: after every committed epoch, every ledger entry is within its
  // hard capacity (not just at the end, where departures could have masked
  // a transient overload).
  const auto topo = topology::softlayer();
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    auto cfg = tight_config();
    cfg.seed = seed;
    cfg.requests = 16;
    cfg.epoch_size = 4;
    cfg.holding_arrivals = 5;
    ArrivalStream stream(topo, cfg);
    ASSERT_TRUE(stream.has_admission());
    const auto solver = api::make_solver("sofda");
    for (int first = 0; first < cfg.requests;) {
      const int count = stream.open_epoch(first);
      std::vector<ServiceForest> forests;
      for (int r = first; r < first + count; ++r) {
        forests.push_back(solver->solve(stream.stage(r)));
      }
      stream.commit_epoch(first, forests);
      const auto& led = stream.ledger();
      const double link_slack = 1e-9 * std::max(1.0, led.link_capacity());
      for (graph::EdgeId e = 0; e < topo.g.edge_count(); ++e) {
        ASSERT_LE(led.link_load(e), led.link_capacity() + link_slack)
            << "seed " << seed << " epoch " << first << " link " << e;
      }
      const double host_slack = 1e-9 * std::max(1.0, led.host_capacity());
      for (std::size_t h = 0; h < led.hosts(); ++h) {
        ASSERT_LE(led.host_load(h), led.host_capacity() + host_slack)
            << "seed " << seed << " epoch " << first << " host " << h;
      }
      first += count;
    }
    EXPECT_EQ(stream.overloaded_links(), 0u);
  }
}

TEST(AdmissionFuzz, GreedyDecisionsAreCapacityPrefixMonotone) {
  // Ledger-level property: feed the SAME random candidate-charge stream to
  // greedy admit-iff-feasible gates at capacities c1 < c2.  Decisions are
  // identical until the first divergence, and the divergence can only be
  // "c1 rejects, c2 admits" — more capacity never rejects an arrival the
  // smaller ledger accepted while their histories agree.
  for (const std::uint64_t seed : {1u, 7u, 23u, 55u, 140u}) {
    util::Rng rng(seed);
    const std::size_t links = 6, hosts = 3;
    const double c1 = 20.0, c2 = 28.0;
    LoadLedger a(links, c1, hosts, 3.0, true);
    LoadLedger b(links, c2, hosts, 3.0, true);
    bool diverged = false;
    for (int step = 0; step < 200 && !diverged; ++step) {
      std::vector<graph::EdgeId> ls;
      const int n_links = rng.uniform_int(1, 3);
      for (int i = 0; i < n_links; ++i) {
        ls.push_back(static_cast<graph::EdgeId>(rng.index(links)));
      }
      std::vector<std::size_t> hs;
      if (rng.chance(0.5)) hs.push_back(rng.index(hosts));
      const double mbps = rng.uniform(1.0, 9.0);
      const bool admit_a = a.can_admit(ls, mbps, hs, 1.0);
      const bool admit_b = b.can_admit(ls, mbps, hs, 1.0);
      if (admit_a != admit_b) {
        EXPECT_FALSE(admit_a) << "seed " << seed << " step " << step
                              << ": the smaller capacity must be the one rejecting";
        EXPECT_TRUE(admit_b);
        diverged = true;
        break;
      }
      if (admit_a) {
        for (const auto e : ls) {
          a.add_link_load(e, mbps);
          b.add_link_load(e, mbps);
        }
        for (const auto h : hs) {
          a.add_host_load(h, 1.0);
          b.add_host_load(h, 1.0);
        }
      }
    }
  }
}

TEST(AdmissionFuzz, ReplayingTheDecisionLogReproducesTheLedgerEndState) {
  // The decision log plus the per-request charge lists fully determine the
  // ledger: replaying admit/release against a FRESH ledger lands on the
  // exact (bitwise) end state the live stream reached.
  const auto topo = topology::softlayer();
  for (const std::uint64_t seed : {5u, 29u}) {
    auto cfg = tight_config();
    cfg.seed = seed;
    cfg.requests = 16;
    cfg.epoch_size = 4;
    cfg.holding_arrivals = 6;  // >= epoch_size: charges stay live through each epoch
    ArrivalStream stream(topo, cfg);
    const auto solver = api::make_solver("sofda");
    std::vector<char> admitted(static_cast<std::size_t>(cfg.requests), 0);
    std::vector<std::vector<graph::EdgeId>> links(admitted.size());
    std::vector<std::vector<std::size_t>> hosts(admitted.size());
    for (int first = 0; first < cfg.requests;) {
      const int count = stream.open_epoch(first);
      std::vector<ServiceForest> forests;
      for (int r = first; r < first + count; ++r) {
        forests.push_back(solver->solve(stream.stage(r)));
      }
      const auto outcomes = stream.commit_epoch(first, forests);
      for (int i = 0; i < count; ++i) {
        const std::size_t r = static_cast<std::size_t>(first + i);
        if (outcomes[static_cast<std::size_t>(i)].status == SlotOutcome::Status::kAdmitted) {
          admitted[r] = 1;
          links[r] = stream.charged_links(first + i);  // copied before release
          hosts[r] = stream.charged_hosts(first + i);
        }
      }
      first += count;
    }

    // Replay: charges in admission order, releases at the departure slots
    // the stream honored.  Ledger adds/removes commute, so the end state
    // must be EXACTLY the live one.
    LoadLedger replay(static_cast<std::size_t>(topo.g.edge_count()), cfg.link_capacity,
                      topo.dc_nodes.size(), cfg.host_capacity, true);
    for (int r = 0; r < cfg.requests; ++r) {
      const int departing = r - cfg.holding_arrivals;
      if (departing >= 0 && admitted[static_cast<std::size_t>(departing)] != 0) {
        for (const auto e : links[static_cast<std::size_t>(departing)]) {
          replay.remove_link_load(e, cfg.demand_mbps);
        }
        for (const auto h : hosts[static_cast<std::size_t>(departing)]) {
          replay.remove_host_load(h, 1.0);
        }
      }
      if (admitted[static_cast<std::size_t>(r)] != 0) {
        for (const auto e : links[static_cast<std::size_t>(r)]) {
          replay.add_link_load(e, cfg.demand_mbps);
        }
        for (const auto h : hosts[static_cast<std::size_t>(r)]) {
          replay.add_host_load(h, 1.0);
        }
      }
    }
    const auto& live = stream.ledger();
    for (graph::EdgeId e = 0; e < topo.g.edge_count(); ++e) {
      EXPECT_EQ(replay.link_load(e), live.link_load(e)) << "seed " << seed << " link " << e;
    }
    for (std::size_t h = 0; h < live.hosts(); ++h) {
      EXPECT_EQ(replay.host_load(h), live.host_load(h)) << "seed " << seed << " host " << h;
    }
  }
}

}  // namespace
}  // namespace sofe::online
