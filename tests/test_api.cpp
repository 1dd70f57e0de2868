// Tests for the sofe::api layer: the SolverRegistry round-trip, the
// session's closure-cache reuse/invalidation semantics, parallel-pricing
// bit-identity, and warm sessions reproducing a recomputing session's
// online series bitwise.

#include <gtest/gtest.h>

#include <stdexcept>

#include "sofe/api/registry.hpp"
#include "sofe/api/report.hpp"
#include "sofe/baselines/baselines.hpp"
#include "sofe/core/sofda.hpp"
#include "sofe/core/sofda_ss.hpp"
#include "sofe/core/validate.hpp"
#include "sofe/dist/dist_sofda.hpp"
#include "sofe/exact/solver.hpp"
#include "sofe/online/simulator.hpp"
#include "sofe/topology/topology.hpp"

namespace {

using namespace sofe;
using api::make_solver;
using api::SolverOptions;
using api::SolverRegistry;
using core::NodeId;
using core::Problem;
using core::ServiceForest;

/// The quickstart instance (examples/quickstart.cpp): 10 nodes, 2 sources,
/// 2 destinations, 4 VMs, |C| = 2 — small enough for every solver
/// including "exact".
Problem quickstart_instance() {
  Problem p;
  p.network = core::Graph(10);
  const std::vector<std::tuple<int, int, double>> links = {
      {0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}, {4, 5, 2.0},
      {5, 6, 1.0}, {6, 7, 1.0}, {7, 8, 1.0}, {8, 9, 1.0}, {9, 0, 2.0},
      {1, 6, 3.0}, {3, 8, 3.0},
  };
  for (const auto& [u, v, c] : links) {
    p.network.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v), c);
  }
  p.node_cost = {0, 0, 2.0, 1.5, 0, 0, 1.0, 2.5, 0, 0};
  p.is_vm = {0, 0, 1, 1, 0, 0, 1, 1, 0, 0};
  p.sources = {0, 5};
  p.destinations = {4, 9};
  p.chain_length = 2;
  return p;
}

bool forests_equal(const ServiceForest& a, const ServiceForest& b) {
  if (a.walks.size() != b.walks.size()) return false;
  for (std::size_t i = 0; i < a.walks.size(); ++i) {
    if (a.walks[i].source != b.walks[i].source ||
        a.walks[i].destination != b.walks[i].destination ||
        a.walks[i].nodes != b.walks[i].nodes || a.walks[i].vnf_pos != b.walks[i].vnf_pos) {
      return false;
    }
  }
  return true;
}

TEST(Registry, EveryRegisteredNameSolvesTheQuickstartInstance) {
  const auto p = quickstart_instance();
  const auto names = SolverRegistry::global().names();
  ASSERT_GE(names.size(), 9u);
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    const auto solver = make_solver(name);
    ASSERT_NE(solver, nullptr);
    EXPECT_EQ(solver->name(), name);
    EXPECT_FALSE(SolverRegistry::global().describe(name).empty());
    const auto f = solver->solve(p);
    ASSERT_FALSE(f.empty());
    const auto report = core::validate(p, f);
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_TRUE(solver->report().feasible);
    EXPECT_EQ(solver->report().solver, name);
    EXPECT_DOUBLE_EQ(solver->report().total_cost, core::total_cost(p, f));
    EXPECT_GE(solver->report().total_seconds, 0.0);
  }
}

TEST(Registry, SessionsMatchTheFreeFunctions) {
  const auto p = quickstart_instance();
  EXPECT_TRUE(forests_equal(make_solver("sofda")->solve(p), core::sofda(p)));
  EXPECT_TRUE(forests_equal(make_solver("sofda-ss")->solve(p),
                            core::sofda_ss(p, p.sources.front())));
  EXPECT_TRUE(forests_equal(make_solver("baseline/st")->solve(p),
                            baselines::run(p, baselines::Kind::kSt)));
  EXPECT_TRUE(forests_equal(make_solver("baseline/est")->solve(p),
                            baselines::run(p, baselines::Kind::kEst)));
  EXPECT_TRUE(forests_equal(make_solver("baseline/enemp")->solve(p),
                            baselines::run(p, baselines::Kind::kEnemp)));
  EXPECT_TRUE(forests_equal(make_solver("dist/k=3")->solve(p),
                            dist::distributed_sofda(p, 3).forest));
  const auto exact_f = make_solver("exact")->solve(p);
  const auto exact_r = exact::solve_exact(p);
  ASSERT_TRUE(exact_r.optimal);
  EXPECT_DOUBLE_EQ(core::total_cost(p, exact_f), exact_r.cost);
}

TEST(Registry, SofdaSessionMatchesFreeFunctionOnTopologyInstances) {
  const auto topo = topology::softlayer();
  auto solver = make_solver("sofda");
  auto threaded = make_solver("sofda", [] {
    SolverOptions o;
    o.threads = 4;
    return o;
  }());
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    topology::ProblemConfig cfg;
    cfg.seed = seed;
    const auto p = topology::make_problem(topo, cfg);
    const auto expect = core::sofda(p);
    EXPECT_TRUE(forests_equal(solver->solve(p), expect)) << "seed " << seed;
    EXPECT_TRUE(forests_equal(threaded->solve(p), expect)) << "seed " << seed;
  }
}

TEST(Registry, DistNamesAreParameterized) {
  auto& reg = SolverRegistry::global();
  EXPECT_TRUE(reg.contains("dist/k=2"));
  EXPECT_TRUE(reg.contains("dist/k=17"));  // synthesized, not pre-registered
  EXPECT_FALSE(reg.contains("dist/k=0"));
  EXPECT_FALSE(reg.contains("dist/k="));
  EXPECT_FALSE(reg.contains("dist/k=2x"));
  EXPECT_EQ(make_solver("dist/k=17")->name(), "dist/k=17");
}

TEST(Registry, MalformedDistParameterThrowsNamingTheField) {
  // A request that names the dist family but botches the controller count
  // is a malformed argument, not an unknown solver: create() must reject
  // it with a message naming the field instead of clamping or listing the
  // registry.  contains() stays lenient (above) — it answers "could this
  // name resolve", never validates.
  for (const char* name : {"dist/k=0", "dist/k=-3", "dist/k=", "dist/k=2x", "dist/k= 4"}) {
    try {
      (void)make_solver(name);
      FAIL() << name << " should have thrown";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("dist/k"), std::string::npos)
          << name << ": message must name the field, got \"" << e.what() << "\"";
    }
  }
  EXPECT_NO_THROW((void)make_solver("dist/k=3"));
}

TEST(Registry, DistSessionRepairsShardedClosureAcrossSolves) {
  const auto topo = topology::softlayer();
  topology::ProblemConfig cfg;
  cfg.seed = 11;
  auto p = topology::make_problem(topo, cfg);
  auto solver = make_solver("dist/k=3");

  const auto f_cold = solver->solve(p);
  EXPECT_FALSE(solver->report().closure_cache_hit);
  EXPECT_GT(solver->report().payload_bytes, 0u);
  const std::size_t bytes_cold = solver->report().payload_bytes;
  EXPECT_TRUE(forests_equal(f_cold, dist::distributed_sofda(p, 3).forest));

  // Unchanged problem: the sharded closure hits, so neither the partition
  // broadcast nor the row exchange is re-charged — only rounds 3-6 fly.
  const auto f_hit = solver->solve(p);
  EXPECT_TRUE(solver->report().closure_cache_hit);
  EXPECT_LT(solver->report().payload_bytes, bytes_cold);
  EXPECT_TRUE(forests_equal(f_hit, f_cold));

  // One link price moves: the session repairs the shards (re-exchanging
  // only dirtied rows) and stays bit-identical to the free function.
  p.network.set_edge_cost(0, p.network.edge(0).cost * 2.0);
  const auto f_rep = solver->solve(p);
  EXPECT_TRUE(solver->report().closure_repaired);
  EXPECT_EQ(solver->report().closure_delta_edges, 1);
  EXPECT_LT(solver->report().payload_bytes, bytes_cold);
  EXPECT_TRUE(forests_equal(f_rep, dist::distributed_sofda(p, 3).forest));
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW((void)make_solver("no-such-solver"), std::invalid_argument);
  EXPECT_FALSE(SolverRegistry::global().contains("no-such-solver"));
}

TEST(Registry, ExactStrollThrowsPastTheDpLimit) {
  // The library's default instance has 25 VMs, so every stroll instance
  // has 24 interior candidates, past exact_dp's limit: the solve must
  // throw, not abort or reach for gigabytes of DP table.
  const auto p = topology::make_problem(topology::softlayer(), topology::ProblemConfig{});
  ASSERT_EQ(p.vms().size(), 25u);
  EXPECT_THROW((void)make_solver("sofda/exact-stroll")->solve(p), std::invalid_argument);
}

TEST(Registry, CallersCanRegisterTheirOwnFactories) {
  SolverRegistry reg;  // private registry; the global one stays untouched
  class Null final : public api::Solver {
   public:
    using Solver::Solver;
    std::string_view name() const noexcept override { return "null"; }

   protected:
    ServiceForest do_solve(const Problem&, api::SolveReport&) override { return {}; }
  };
  reg.add("null", "returns the empty forest",
          [](const SolverOptions& opt) { return std::make_unique<Null>(opt); });
  ASSERT_TRUE(reg.contains("null"));
  const auto p = quickstart_instance();
  auto solver = reg.create("null");
  EXPECT_TRUE(solver->solve(p).empty());
  EXPECT_FALSE(solver->report().feasible);
}

TEST(Session, ClosureCacheHitsOnUnchangedProblem) {
  const auto p = quickstart_instance();
  auto solver = make_solver("sofda");
  const auto f1 = solver->solve(p);
  EXPECT_FALSE(solver->report().closure_cache_hit);  // cold session
  const auto f2 = solver->solve(p);
  EXPECT_TRUE(solver->report().closure_cache_hit);
  EXPECT_TRUE(forests_equal(f1, f2));
}

TEST(Session, EdgeCostMutationInvalidatesTheClosure) {
  auto p = quickstart_instance();
  auto solver = make_solver("sofda");
  (void)solver->solve(p);
  p.network.set_edge_cost(0, 10.0);
  const auto f = solver->solve(p);
  EXPECT_FALSE(solver->report().closure_cache_hit);
  EXPECT_TRUE(forests_equal(f, core::sofda(p)));  // fresh result at new costs
  (void)solver->solve(p);
  EXPECT_TRUE(solver->report().closure_cache_hit);  // steady again
}

TEST(Session, StructuralMutationInvalidatesTheClosure) {
  auto p = quickstart_instance();
  auto solver = make_solver("sofda");
  (void)solver->solve(p);
  p.network.add_edge(0, 4, 0.5);  // new shortcut straight to a destination
  const auto f = solver->solve(p);
  EXPECT_FALSE(solver->report().closure_cache_hit);
  EXPECT_TRUE(forests_equal(f, core::sofda(p)));
}

TEST(Session, HubSetShrinkReusesTheSupersetClosure) {
  // An incremental hit needs every requested hub stored, not the exact
  // set: dropping a source leaves its (now unqueried) tree in place until
  // the next repair, so the shrunken request is a pure hit — and the
  // result still matches the free function exactly, because every tree is
  // an independent Dijkstra.
  auto p = quickstart_instance();
  auto solver = make_solver("sofda");
  (void)solver->solve(p);
  p.sources = {0};  // hubs = VMs + sources shrink
  const auto f = solver->solve(p);
  EXPECT_TRUE(solver->report().closure_cache_hit);
  EXPECT_TRUE(forests_equal(f, core::sofda(p)));
}

TEST(Session, HubSetGrowthExtendsInsteadOfRebuilding) {
  auto p = quickstart_instance();
  p.sources = {0};
  auto solver = make_solver("sofda");
  (void)solver->solve(p);
  p.sources = {0, 5};  // a new source hub appears
  const auto f = solver->solve(p);
  EXPECT_FALSE(solver->report().closure_cache_hit);
  EXPECT_TRUE(solver->report().closure_repaired);  // incremental acquire
  EXPECT_EQ(solver->report().closure_hubs_added, 1);
  EXPECT_EQ(solver->report().closure_delta_edges, 0);
  EXPECT_TRUE(forests_equal(f, core::sofda(p)));
}

TEST(Session, NonIncrementalSessionsKeepStrictKeySemantics) {
  SolverOptions strict;
  strict.incremental = false;
  auto p = quickstart_instance();
  auto solver = make_solver("sofda", strict);
  (void)solver->solve(p);
  p.sources = {0};
  (void)solver->solve(p);
  EXPECT_FALSE(solver->report().closure_cache_hit);  // exact-sequence key
  EXPECT_FALSE(solver->report().closure_repaired);
  p.network.set_edge_cost(0, 7.75);
  const auto f = solver->solve(p);
  EXPECT_FALSE(solver->report().closure_repaired);  // rebuild, never repair
  EXPECT_TRUE(forests_equal(f, core::sofda(p)));
}

TEST(Session, CostDeltasRepairTheClosureBitIdentically) {
  const auto topo = topology::softlayer();
  topology::ProblemConfig cfg;
  cfg.seed = 31;
  auto p = topology::make_problem(topo, cfg);
  auto solver = make_solver("sofda");
  (void)solver->solve(p);
  // An online-style reprice: a handful of links change cost.
  for (core::EdgeId e : {2, 9, 17, 23}) {
    p.network.set_edge_cost(e, p.network.edge(e).cost * 1.5 + 0.125);
  }
  const auto f = solver->solve(p);
  EXPECT_FALSE(solver->report().closure_cache_hit);
  EXPECT_TRUE(solver->report().closure_repaired);
  EXPECT_EQ(solver->report().closure_delta_edges, 4);
  EXPECT_TRUE(forests_equal(f, core::sofda(p)));  // repair exactness, end to end
  (void)solver->solve(p);
  EXPECT_TRUE(solver->report().closure_cache_hit);  // steady again
}

TEST(Session, StrictKeyTracksRepairPathHubChanges) {
  // A repair-path acquire rewrites the stored hub set (retain + extend);
  // the strict key must follow, or flipping the session to non-incremental
  // afterwards could falsely hit on a closure missing hub trees.
  auto p = quickstart_instance();
  auto solver = make_solver("sofda");
  (void)solver->solve(p);  // rebuild: key = VMs + {0, 5}
  p.sources = {0, 9};      // 5 churns out, 9 churns in ...
  p.network.set_edge_cost(0, 4.25);  // ... via the repair path
  (void)solver->solve(p);
  EXPECT_TRUE(solver->report().closure_repaired);
  solver->options().incremental = false;
  p.sources = {0, 5};  // the ORIGINAL hub set, unchanged costs
  const auto f = solver->solve(p);
  EXPECT_FALSE(solver->report().closure_cache_hit);  // 5's tree is gone: no hit
  EXPECT_TRUE(forests_equal(f, core::sofda(p)));
}

TEST(Session, MassiveDeltaFallsBackToRebuild) {
  auto p = quickstart_instance();
  auto solver = make_solver("sofda");
  (void)solver->solve(p);
  for (core::EdgeId e = 0; e < p.network.edge_count(); ++e) {
    p.network.set_edge_cost(e, p.network.edge(e).cost + 0.5);
  }
  const auto f = solver->solve(p);
  EXPECT_FALSE(solver->report().closure_repaired);  // above the delta threshold
  EXPECT_GT(solver->report().closure_delta_edges, 0);
  EXPECT_TRUE(forests_equal(f, core::sofda(p)));
}

TEST(Session, SolverOutputMatchesTheFreeFunction) {
  auto solver = make_solver("sofda");
  auto ss = make_solver("sofda-ss");
  std::vector<std::pair<std::string, core::Problem>> problems;
  for (std::uint64_t seed : {3u, 4u}) {
    topology::ProblemConfig cfg;
    cfg.seed = seed;
    problems.emplace_back("softlayer seed " + std::to_string(seed),
                          topology::make_problem(topology::softlayer(), cfg));
  }
  // Shortening reads the last VM's row toward each destination, and here
  // those reads shape the SOFDA-SS forest: a session closure that were not
  // exact toward the destinations would change it.
  topology::ProblemConfig cogent_cfg;
  cogent_cfg.num_vms = 8;
  cogent_cfg.num_sources = 1;
  cogent_cfg.num_destinations = 4;
  cogent_cfg.seed = 2;
  problems.emplace_back("cogent seed 2", topology::make_problem(topology::cogent(), cogent_cfg));
  for (const auto& [label, p] : problems) {
    EXPECT_TRUE(forests_equal(solver->solve(p), core::sofda(p))) << label;
    EXPECT_TRUE(forests_equal(ss->solve(p), core::sofda_ss(p, p.sources.front()))) << label;
  }
}

// Version counters are copied with the graph, so two Problem copies can
// carry the SAME Graph::version() with DIFFERENT link costs (the online
// simulator does exactly this every arrival).  The session must not take
// that bait.
TEST(Session, EqualVersionsWithDifferentCostsDoNotFalselyHit) {
  const auto base = quickstart_instance();
  auto p1 = base;
  auto p2 = base;
  p1.network.set_edge_cost(0, 5.0);  // both copies land on version V+1 ...
  p2.network.set_edge_cost(0, 9.0);  // ... with different costs
  ASSERT_EQ(p1.network.version(), p2.network.version());
  auto solver = make_solver("sofda");
  (void)solver->solve(p1);
  const auto f2 = solver->solve(p2);
  EXPECT_FALSE(solver->report().closure_cache_hit);
  EXPECT_TRUE(forests_equal(f2, core::sofda(p2)));
}

TEST(ParallelPricing, BitIdenticalForThreads128OnInet) {
  const auto topo = topology::inet(300, 600, 120, 5);
  topology::ProblemConfig cfg;
  cfg.num_vms = 12;
  cfg.num_sources = 7;
  cfg.num_destinations = 4;
  cfg.chain_length = 3;
  cfg.seed = 21;
  const auto p = topology::make_problem(topo, cfg);

  std::vector<NodeId> hubs = p.vms();
  hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
  const graph::MetricClosure closure(p.network, hubs);

  const auto serial = core::price_candidate_chains(p, closure, p.sources, {}, 1);
  ASSERT_FALSE(serial.empty());
  for (int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    const auto par = core::price_candidate_chains(p, closure, p.sources, {}, threads);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(par[i].source, serial[i].source);
      EXPECT_EQ(par[i].last_vm, serial[i].last_vm);
      EXPECT_EQ(par[i].plan.nodes, serial[i].plan.nodes);
      EXPECT_EQ(par[i].plan.vnf_pos, serial[i].plan.vnf_pos);
      EXPECT_EQ(par[i].plan.cost, serial[i].plan.cost);  // bitwise: == on doubles
    }
  }
}

TEST(PricingCache, SessionTracksFreeFunctionAcrossArrivalStyleMutations) {
  // The SOFDA session's PricedChain cache (DESIGN.md §9) rides the closure
  // session's change stream: cost deltas, source churn, setup-cost moves.
  // Every solve must stay bitwise equal to the free function.
  const auto topo = topology::softlayer();
  topology::ProblemConfig cfg;
  cfg.seed = 19;
  auto p = topology::make_problem(topo, cfg);
  auto solver = make_solver("sofda");

  EXPECT_TRUE(forests_equal(solver->solve(p), core::sofda(p)));
  EXPECT_GT(solver->report().pricing_repriced, 0);  // cold cache
  EXPECT_TRUE(solver->report().pricing_flushed);

  // Unchanged problem: the closure hits and every chain serves from cache.
  EXPECT_TRUE(forests_equal(solver->solve(p), core::sofda(p)));
  EXPECT_EQ(solver->report().pricing_repriced, 0);
  EXPECT_GT(solver->report().pricing_hits, 0);

  // A handful of link repricings: the closure repairs; chains whose rows
  // were touched re-price, and the result still matches exactly.
  for (core::EdgeId e : {3, 11, 19}) {
    p.network.set_edge_cost(e, p.network.edge(e).cost * 1.25 + 0.5);
  }
  EXPECT_TRUE(forests_equal(solver->solve(p), core::sofda(p)));
  EXPECT_TRUE(solver->report().closure_repaired);

  // Source churn (drop one, later re-add): buckets flush only as needed.
  auto sources = p.sources;
  p.sources.pop_back();
  EXPECT_TRUE(forests_equal(solver->solve(p), core::sofda(p)));
  p.sources = sources;
  EXPECT_TRUE(forests_equal(solver->solve(p), core::sofda(p)));

  // A VM setup-cost move (|C| >= 2): the shared terms shift, all chains
  // re-price — and still match.
  const auto vms = p.vms();
  p.node_cost[static_cast<std::size_t>(vms[1])] += 0.75;
  EXPECT_TRUE(forests_equal(solver->solve(p), core::sofda(p)));
  EXPECT_TRUE(solver->report().pricing_flushed);
}

TEST(PricingCache, AccumulatorAggregatesPricingTallies) {
  const auto p = quickstart_instance();
  auto solver = make_solver("sofda");
  api::ReportAccumulator acc;
  solver->set_report_sink(&acc);
  (void)solver->solve(p);  // cold: everything re-prices (one flush)
  (void)solver->solve(p);  // warm: everything hits
  EXPECT_GT(acc.pricing_repriced(), 0u);
  EXPECT_GT(acc.pricing_hits(), 0u);
  EXPECT_EQ(acc.pricing_flushes(), 1u);
}

TEST(OnlineSession, HoldingDeparturesStayBitIdenticalWithPricingCache) {
  // Departures return their ledger charges as cost-RESTORE deltas; the
  // pricing cache must ride both delta directions through the arrival
  // loop and reproduce the recomputing session's series exactly.
  const auto topo = topology::softlayer();
  online::OnlineConfig cfg;
  cfg.requests = 10;
  cfg.min_destinations = 3;
  cfg.max_destinations = 5;
  cfg.min_sources = 2;
  cfg.max_sources = 3;
  cfg.holding_arrivals = 3;
  cfg.seed = 99;

  SolverOptions recompute_opt;
  recompute_opt.incremental = false;
  auto recomputing = make_solver("sofda", recompute_opt);
  const auto reference = online::simulate(topo, cfg, *recomputing);
  auto solver = make_solver("sofda");
  const auto session = online::simulate(topo, cfg, *solver);
  EXPECT_EQ(session.algorithm, "sofda");
  ASSERT_EQ(session.accumulative_cost.size(), reference.accumulative_cost.size());
  for (std::size_t i = 0; i < reference.accumulative_cost.size(); ++i) {
    EXPECT_EQ(session.accumulative_cost[i], reference.accumulative_cost[i]);  // bitwise
  }
  EXPECT_EQ(session.infeasible_requests, reference.infeasible_requests);
  EXPECT_EQ(session.overloaded_links, reference.overloaded_links);
}

TEST(ReportAccumulator, AggregatesPhaseTimingsAndCacheOutcomes) {
  const auto p = quickstart_instance();
  auto solver = make_solver("sofda");
  api::ReportAccumulator acc;
  solver->set_report_sink(&acc);
  (void)solver->solve(p);  // cold: rebuild
  (void)solver->solve(p);  // hit
  (void)solver->solve(p);  // hit
  EXPECT_EQ(acc.solves(), 3u);
  EXPECT_EQ(acc.cache_hits(), 2u);
  EXPECT_EQ(acc.repairs(), 0u);
  EXPECT_EQ(acc.rebuilds(), 1u);
  EXPECT_EQ(acc.infeasible(), 0u);
  const auto total = acc.total();
  EXPECT_EQ(total.count, 3u);
  EXPECT_GT(total.mean, 0.0);
  EXPECT_LE(total.p50, total.p95);
  EXPECT_LE(total.min, total.p50);
  EXPECT_LE(total.p95, total.max);
  EXPECT_NEAR(total.total, total.mean * 3.0, 1e-12);
  const auto closure = acc.closure();
  EXPECT_EQ(closure.count, 3u);
  EXPECT_GE(closure.max, 0.0);

  solver->set_report_sink(nullptr);
  (void)solver->solve(p);
  EXPECT_EQ(acc.solves(), 3u);  // detached

  acc.clear();
  EXPECT_EQ(acc.solves(), 0u);
  EXPECT_EQ(acc.total().count, 0u);
}

TEST(SolveReport, CarriesDistProtocolAndExactCertificates) {
  const auto p = quickstart_instance();
  auto d = make_solver("dist/k=4");
  (void)d->solve(p);
  EXPECT_EQ(d->report().controllers, 4);
  EXPECT_GT(d->report().messages, 0u);
  EXPECT_GT(d->report().rounds, 0);
  EXPECT_GT(d->report().sofda.deployed_chains, 0);

  auto ex = make_solver("exact");
  (void)ex->solve(p);
  EXPECT_TRUE(ex->report().optimal);
  EXPECT_GE(ex->report().bnb_nodes, 1);
}

TEST(SolverOptions, RoundTripsThroughAlgoOptions) {
  SolverOptions o;
  o.stroll = kstroll::StrollAlgorithm::kExactDp;
  o.steiner = steiner::Algorithm::kKmb;
  o.shorten = false;
  o.threads = 8;
  const auto a = o.algo();
  EXPECT_EQ(a.stroll, o.stroll);
  EXPECT_EQ(a.steiner, o.steiner);
  EXPECT_EQ(a.shorten, o.shorten);
  EXPECT_EQ(a.closure_threads, 8);
}

// --- Steady-state closure engine (DESIGN.md §13) --------------------------

// publish() hands out the session's own closure (DESIGN.md §13): the
// epoch is read-only until retire(), an acquire before it asserts, and the
// next publish repairs that same closure in place.
TEST(ClosureSession, PublishHandsOutTheLiveClosureUntilRetire) {
  auto g = quickstart_instance().network;
  const std::vector<NodeId> hubs{0, 5, 2};
  api::ClosureSession session;
  const api::ClosureRequest req;

  api::SolveReport cold;
  const api::ClosureEpoch first = session.publish(g, hubs, req, cold);
  ASSERT_NE(first.closure, nullptr);
  EXPECT_EQ(first.update.kind, core::ClosureUpdate::Kind::kRebuilt);
  const core::Cost* row0 = first.closure->tree(0).dist;

  // An acquire while the epoch is out would write under its readers.
  // (Without asserts the statement runs: a hit on the unchanged graph.)
  EXPECT_DEBUG_DEATH(
      {
        api::SolveReport early;
        (void)session.acquire(g, hubs, req, early);
      },
      "retire");

  // A cost move dirties hub 0's tree; retire, then publish again.
  g.set_edge_cost(g.find_edge(0, 1), 10.0);
  session.retire();
  api::SolveReport repair;
  const api::ClosureEpoch second = session.publish(g, hubs, req, repair);
  EXPECT_EQ(second.closure, first.closure);
  EXPECT_EQ(second.update.kind, core::ClosureUpdate::Kind::kRepaired);
  EXPECT_TRUE(repair.closure_repaired);
  EXPECT_EQ(second.generation, first.generation + 1);
  EXPECT_EQ(second.closure->tree(0).dist, row0);  // the row was written in place

  const graph::MetricClosure fresh(g, hubs, 1);
  for (NodeId h : hubs) {
    const auto got = second.closure->tree(h).materialize();
    const auto want = fresh.tree(h).materialize();
    EXPECT_EQ(got.dist, want.dist) << "hub " << h;  // bitwise
    EXPECT_EQ(got.parent, want.parent) << "hub " << h;
    EXPECT_EQ(got.parent_edge, want.parent_edge) << "hub " << h;
  }

  session.retire();
  api::SolveReport hit;
  const graph::MetricClosure& live = session.acquire(g, hubs, req, hit);
  EXPECT_TRUE(hit.closure_cache_hit);
  EXPECT_EQ(&live, second.closure);
}

// Rows are request-scoped (DESIGN.md §13): a repair-path acquire keeps
// exactly the requested rows, so a hub the request drops is gone — and
// repaired no more — and its return builds the row afresh.
TEST(ClosureSession, RepairKeepsExactlyTheRequestedRows) {
  auto g = quickstart_instance().network;
  api::ClosureSession session;
  const api::ClosureRequest req;

  api::SolveReport cold;
  const graph::MetricClosure& live = session.acquire(g, {0, 5}, req, cold);
  ASSERT_EQ(live.hub_count(), 2u);

  g.set_edge_cost(g.find_edge(0, 1), 6.5);
  api::SolveReport churn;
  session.acquire(g, {5, 7}, req, churn);  // 0 churns out, 7 churns in
  EXPECT_TRUE(churn.closure_repaired);
  EXPECT_EQ(churn.closure_hubs_added, 1);
  EXPECT_EQ(live.hub_count(), 2u);
  EXPECT_FALSE(live.is_hub(0));
  EXPECT_TRUE(live.is_hub(5));
  EXPECT_TRUE(live.is_hub(7));

  api::SolveReport back;
  session.acquire(g, {0}, req, back);  // dropped, so 0 is built again
  EXPECT_TRUE(back.closure_repaired);
  EXPECT_EQ(back.closure_hubs_added, 1);
  EXPECT_EQ(live.hub_count(), 1u);
  const graph::MetricClosure fresh(g, std::vector<NodeId>{0}, 1);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(live.distance(0, v), fresh.distance(0, v)) << "node " << v;  // bitwise
  }
  // The frozen benchmark still reads the retired row tallies; they stay 0.
  EXPECT_EQ(back.closure_row_hits + back.closure_rows_retained + back.closure_rows_evicted, 0);
}

// An epoch solve reads its chains from the publisher's table (DESIGN.md
// §10): a SOFDA solve_epoch on a |C| >= 1 problem against a bare publish(),
// which prices nothing, fails an assert instead of pricing on its own.
TEST(ClosureSession, SofdaEpochSolveRequiresThePublishersTable) {
#ifdef NDEBUG
  GTEST_SKIP() << "the contract is an assert";
#endif
  const Problem p = quickstart_instance();
  std::vector<NodeId> hubs = p.vms();
  hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
  api::ClosureSession publisher;
  const api::ClosureRequest req;
  api::SolveReport rep;
  api::ClosureEpoch epoch = publisher.publish(p.network, hubs, req, rep);
  ASSERT_EQ(epoch.pricing, nullptr);
  auto solver = make_solver("sofda");
  EXPECT_DEBUG_DEATH((void)solver->solve_epoch(p, epoch), "pricing table");

  // With the epoch priced, the same solve reads the table and matches the
  // free function.
  core::PricingSession table;
  table.refresh(p, *epoch.closure, p.sources, epoch.update, solver->options().algo());
  epoch.pricing = &table;
  EXPECT_TRUE(forests_equal(solver->solve_epoch(p, epoch), core::sofda(p)));
  publisher.retire();
}

}  // namespace
