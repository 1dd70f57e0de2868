// Epoch-pipelined admission service tests (DESIGN.md §10): worker-count
// determinism against the sequential driver, including recurring sources
// and mid-epoch departures, OnlineConfig validation, the price_epoch
// generation dedup, fault injection into both drivers (throwing and
// stalling sessions), and the pipeline's session count.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "callback_solver.hpp"
#include "sofe/api/registry.hpp"
#include "sofe/api/report.hpp"
#include "sofe/core/pricing.hpp"
#include "sofe/graph/metric_closure.hpp"
#include "sofe/online/pipeline.hpp"
#include "sofe/online/stream.hpp"

namespace sofe::online {
namespace {

OnlineConfig pipeline_config() {
  OnlineConfig cfg;
  cfg.requests = 12;
  cfg.min_destinations = 2;
  cfg.max_destinations = 4;
  cfg.min_sources = 2;
  cfg.max_sources = 3;
  cfg.chain_length = 2;
  cfg.vms_per_dc = 2;
  cfg.seed = 5;
  return cfg;
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

OnlineResult sequential_reference(const topology::Topology& topo, const OnlineConfig& cfg) {
  auto solver = api::make_solver("sofda");
  return simulate(topo, cfg, *solver);
}

/// The sequential driver over a session that rebuilds its closure and
/// re-prices every chain per arrival: the cache-free reference.
OnlineResult recomputing_reference(const topology::Topology& topo, const OnlineConfig& cfg) {
  api::SolverOptions opt;
  opt.incremental = false;
  auto solver = api::make_solver("sofda", opt);
  return simulate(topo, cfg, *solver);
}

// The tentpole contract: at every worker count and epoch size, with and
// without departures, on more than one topology, the pipeline's cost
// series is bitwise the sequential driver's.
TEST(PipelineDeterminism, MatchesSequentialDriverAcrossWorkersEpochsHolding) {
  const topology::Topology topos[] = {topology::softlayer(), topology::inet(40, 80, 8, 7)};
  for (const auto& topo : topos) {
    for (int holding : {0, 8}) {
      for (int epoch_size : {1, 4, 16}) {
        auto cfg = pipeline_config();
        cfg.holding_arrivals = holding;
        cfg.epoch_size = epoch_size;
        const OnlineResult ref = sequential_reference(topo, cfg);
        for (int workers : {1, 2, 8}) {
          PipelineOptions popt;
          popt.workers = workers;
          const OnlineResult got = Pipeline(topo, cfg, "sofda", {}, popt).run();
          SCOPED_TRACE(topo.name + " holding=" + std::to_string(holding) +
                       " S=" + std::to_string(epoch_size) + " W=" + std::to_string(workers));
          expect_series_identical(ref, got);
          EXPECT_EQ(got.workers, workers);
          EXPECT_EQ(got.epoch_size, epoch_size);
        }
      }
    }
  }
}

// Recurring sources (DESIGN.md §13): sources drawn from a fixed Zipf-ish
// pool keep returning while departures churn the ledger both ways, so
// consecutive epochs request overlapping hub sets and the session and
// publisher closures repair, drop and rebuild rows as the working set
// moves.  Every series — sequential at solver threads {1, 2, 8} and with
// incremental off, and pipelined at each of those options with workers
// {1, 2, 8} — must be bitwise the plain-defaults sequential reference, on
// two topologies and at |C| = 1 and 2.  The publisher prices each epoch
// once, so the chains it re-prices are the same at every thread and worker
// count: one tally for the incremental inputs, another for the strict
// publisher, which rebuilds and flushes on every epoch that changed
// anything.  At |C| = 1 the incremental table invalidates chain by chain
// from each epoch's row deltas (a moved VM setup cost flushes every
// |C| >= 2 chain), which pins that the publisher applies the epoch's
// update.
TEST(PipelineDeterminism, RecurringSourcesMatchAcrossThreadsAndWorkers) {
  const topology::Topology topos[] = {topology::softlayer(), topology::inet(40, 80, 8, 7)};
  std::vector<std::pair<std::string, api::SolverOptions>> inputs;
  for (int threads : {1, 2, 8}) {
    api::SolverOptions opt;
    opt.threads = threads;
    inputs.emplace_back("threads=" + std::to_string(threads), opt);
  }
  api::SolverOptions strict;
  strict.incremental = false;
  inputs.emplace_back("incremental=false", strict);
  for (const auto& topo : topos) {
    for (int holding : {0, 8}) {
      for (int chain_length : {1, 2}) {
        auto cfg = pipeline_config();
        cfg.holding_arrivals = holding;
        cfg.chain_length = chain_length;
        cfg.epoch_size = 4;
        cfg.source_pool = 6;
        cfg.source_alpha = 1.0;
        const OnlineResult ref = sequential_reference(topo, cfg);
        // The publisher's chain tally, by opt.incremental.
        std::map<bool, std::size_t> epoch_repriced;
        for (const auto& [label, opt] : inputs) {
          auto solver = api::make_solver("sofda", opt);
          SCOPED_TRACE(topo.name + " holding=" + std::to_string(holding) +
                       " |C|=" + std::to_string(chain_length) + " " + label);
          expect_series_identical(ref, simulate(topo, cfg, *solver));
          for (int workers : {1, 2, 8}) {
            PipelineOptions popt;
            popt.workers = workers;
            SCOPED_TRACE("workers=" + std::to_string(workers));
            Pipeline pipeline(topo, cfg, "sofda", opt, popt);
            api::ReportAccumulator acc;
            pipeline.set_report_sink(&acc);
            expect_series_identical(ref, pipeline.run());
            const auto [it, first] =
                epoch_repriced.try_emplace(opt.incremental, acc.pricing_repriced());
            if (first) {
              EXPECT_GT(it->second, 0u);
            } else {
              EXPECT_EQ(acc.pricing_repriced(), it->second);
            }
          }
        }
      }
    }
  }
}

// online::simulate re-expressed: at epoch_size 1 the sequential driver IS
// the historical per-arrival loop (pinned against the cache-free
// recomputing session), and the 1-worker pipeline reproduces it through
// the full publish/commit machinery.
TEST(PipelineDeterminism, DegenerateCaseIsTheSequentialLoop) {
  const auto topo = topology::softlayer();
  const auto cfg = pipeline_config();  // epoch_size = 1
  const OnlineResult recomputed = recomputing_reference(topo, cfg);
  expect_series_identical(recomputed, sequential_reference(topo, cfg));
  PipelineOptions one;
  one.workers = 1;
  expect_series_identical(recomputed, Pipeline(topo, cfg, "sofda", {}, one).run());
}

// Mid-epoch departures: holding_arrivals < epoch_size makes departures
// land inside an epoch, so the NEXT epoch's refresh moves prices downward
// while more workers than epoch slots wait for claimable work.  Workers
// price only the open epoch, so nothing is ever priced at a stale
// generation: the series matches sequentially and the two counters the
// frozen benchmark still reads stay 0.
TEST(PipelineDeterminism, MidEpochDeparturesMatchAtEightWorkers) {
  const auto topo = topology::softlayer();
  auto cfg = pipeline_config();
  cfg.requests = 16;
  cfg.holding_arrivals = 2;  // departs inside the 4-slot epoch
  cfg.epoch_size = 4;
  const OnlineResult ref = sequential_reference(topo, cfg);
  PipelineOptions popt;
  popt.workers = 8;  // more workers than epoch slots
  const OnlineResult got = Pipeline(topo, cfg, "sofda", {}, popt).run();
  expect_series_identical(ref, got);
  EXPECT_EQ(got.stale_repriced, 0);
  EXPECT_EQ(got.speculative_commits, 0);
}

// Solvers that don't price against shared closures run through the
// pipeline's non-epoch path (solve() on the replica) and must match too.
TEST(PipelineDeterminism, NonClosureSolverFamilyMatches) {
  const auto topo = topology::softlayer();
  auto cfg = pipeline_config();
  cfg.requests = 8;
  cfg.epoch_size = 4;
  auto solver = api::make_solver("baseline/est");
  const OnlineResult ref = simulate(topo, cfg, *solver);
  PipelineOptions popt;
  popt.workers = 4;
  expect_series_identical(ref, Pipeline(topo, cfg, "baseline/est", {}, popt).run());
}

// The epoch-size semantics are real: with prices frozen for a whole epoch
// the drivers see different Problems than per-arrival refresh, so the
// series of different epoch sizes are NOT compared — but each one is
// internally consistent (accumulative = running sum of per-request).
TEST(PipelineSemantics, EpochSeriesInternallyConsistent) {
  const auto topo = topology::softlayer();
  auto cfg = pipeline_config();
  cfg.epoch_size = 4;
  PipelineOptions popt;
  popt.workers = 2;
  const OnlineResult r = Pipeline(topo, cfg, "sofda", {}, popt).run();
  ASSERT_EQ(r.per_request_cost.size(), static_cast<std::size_t>(cfg.requests));
  ASSERT_EQ(r.arrival_seconds.size(), static_cast<std::size_t>(cfg.requests));
  double sum = 0.0;
  for (std::size_t i = 0; i < r.per_request_cost.size(); ++i) {
    sum += r.per_request_cost[i];
    EXPECT_NEAR(sum, r.accumulative_cost[i], 1e-9);
  }
}

TEST(PipelineReports, SinkCollectsQueueWaitAndCommitPhases) {
  const auto topo = topology::softlayer();
  auto cfg = pipeline_config();
  cfg.requests = 8;
  cfg.epoch_size = 4;
  Pipeline pipeline(topo, cfg, "sofda", {}, PipelineOptions{2});
  api::ReportAccumulator acc;
  pipeline.set_report_sink(&acc);
  (void)pipeline.run();
  // One committed report per arrival, with matching phase sample counts.
  EXPECT_EQ(acc.solves(), 8u);
  EXPECT_EQ(acc.queue_wait().count, 8u);
  EXPECT_EQ(acc.commit().count, 8u);
  EXPECT_GE(acc.queue_wait().total, 0.0);
}

TEST(PipelineValidation, RejectsDegenerateConfigs) {
  const auto topo = topology::softlayer();
  const auto solver = api::make_solver("sofda");
  const auto expect_rejected = [&](OnlineConfig cfg) {
    EXPECT_THROW(simulate(topo, cfg, *solver), std::invalid_argument);
    EXPECT_THROW(Pipeline(topo, cfg, "sofda", {}, {}), std::invalid_argument);
  };
  auto cfg = pipeline_config();
  cfg.requests = 0;
  expect_rejected(cfg);
  cfg = pipeline_config();
  cfg.min_destinations = 5;
  cfg.max_destinations = 4;
  expect_rejected(cfg);
  cfg = pipeline_config();
  cfg.min_sources = 0;
  expect_rejected(cfg);
  cfg = pipeline_config();
  cfg.holding_arrivals = -1;
  expect_rejected(cfg);
  cfg = pipeline_config();
  cfg.epoch_size = 0;
  expect_rejected(cfg);
  cfg = pipeline_config();
  cfg.link_capacity = 0.0;
  expect_rejected(cfg);
  // NaN fails every comparison, so each bound must be written to reject it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double OnlineConfig::*field :
       {&OnlineConfig::demand_mbps, &OnlineConfig::link_capacity, &OnlineConfig::host_capacity,
        &OnlineConfig::setup_scale, &OnlineConfig::source_alpha}) {
    cfg = pipeline_config();
    cfg.*field = nan;
    expect_rejected(cfg);
  }
  cfg = pipeline_config();
  cfg.recovery.migration_cost_weight = nan;
  expect_rejected(cfg);
}

// run() serves its stream once.  A second call throws in every build type
// instead of serving the consumed stream again.
TEST(PipelineValidation, SecondRunThrows) {
  const auto topo = topology::softlayer();
  auto cfg = pipeline_config();
  cfg.requests = 4;
  Pipeline pipeline(topo, cfg, "sofda", {}, {});
  (void)pipeline.run();
  EXPECT_THROW((void)pipeline.run(), std::logic_error);
}

TEST(PipelineValidation, AcceptsTheDefaults) {
  EXPECT_NO_THROW(validate(OnlineConfig{}));
}

// price_epoch's generation dedup, in isolation: a repeated generation must
// serve everything from cache (the update was already applied), and a
// generation gap must flush (this session missed an epoch's deltas).
TEST(PricingEpochMode, GenerationDedupAndGapFlush) {
  const auto topo = topology::softlayer();
  ArrivalStream stream(topo, pipeline_config());
  (void)stream.open_epoch(0);
  core::Problem p = stream.stage(0);  // a private copy to price against

  graph::MetricClosure closure;
  std::vector<core::NodeId> hubs = p.vms();
  hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
  closure.build(p.network, hubs);

  core::PricingSession session;
  core::PricingTally tally;
  const core::AlgoOptions opt;
  const auto first = session.price_epoch(p, closure, p.sources, 1,
                                         core::ClosureUpdate::rebuilt(), opt, 1, &tally);
  ASSERT_FALSE(first.empty());
  EXPECT_GT(tally.repriced, 0);

  // Same generation again: the "update" argument must be ignored — the
  // session already observed this epoch — so everything hits.
  const auto repeat = session.price_epoch(p, closure, p.sources, 1,
                                          core::ClosureUpdate::rebuilt(), opt, 1, &tally);
  EXPECT_EQ(repeat.size(), first.size());
  EXPECT_EQ(tally.repriced, 0);
  EXPECT_GT(tally.hits, 0);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].source, repeat[i].source);
    EXPECT_EQ(first[i].last_vm, repeat[i].last_vm);
    EXPECT_EQ(first[i].plan.cost, repeat[i].plan.cost);  // bitwise
  }

  // Jumping to generation 5 skips epochs 2..4: the session cannot know
  // what it missed, so it must flush and re-price.
  (void)session.price_epoch(p, closure, p.sources, 5, core::ClosureUpdate::unchanged(), opt, 1,
                            &tally);
  EXPECT_TRUE(tally.flushed);
  EXPECT_GT(tally.repriced, 0);
}

// The sequential epoch driver itself: warm session (closure repair plus
// pricing cache) vs the cache-free recomputing session at epoch_size > 1,
// with departures landing mid-epoch.
TEST(EpochDriver, WarmSessionMatchesRecomputingSessionAtEpochSize4) {
  const auto topo = topology::softlayer();
  auto cfg = pipeline_config();
  cfg.epoch_size = 4;
  cfg.holding_arrivals = 3;
  expect_series_identical(sequential_reference(topo, cfg), recomputing_reference(topo, cfg));
}

// --- Fault injection ------------------------------------------------------

struct InjectedFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Registers "test/faulty": a sofda session that calls `fault` (which may
/// throw) before every solve.  Re-registering replaces the factory, so each
/// test installs its own trigger.
void register_faulty_solver(std::function<void()> fault) {
  api::SolverRegistry::global().add(
      "test/faulty", "sofda with an injected fault (test only)",
      [fault](const api::SolverOptions& opt) {
        const std::shared_ptr<api::Solver> inner = api::make_solver("sofda", opt);
        return std::make_unique<test::CallbackSolver>([fault, inner](const Problem& p) {
          fault();
          return inner->solve(p);
        });
      });
}

// A lane's solve throws: run() must rethrow that exception once every
// lane of the epoch has returned, at every worker count.
TEST(PipelineFaults, WorkerSolveFaultIsRethrown) {
  const auto topo = topology::softlayer();
  auto cfg = pipeline_config();
  cfg.epoch_size = 4;
  for (int workers : {1, 2, 8}) {
    SCOPED_TRACE("W=" + std::to_string(workers));
    const auto solves = std::make_shared<std::atomic<int>>(0);
    register_faulty_solver([solves] {
      if (solves->fetch_add(1) == 4) throw InjectedFault("fifth solve");
    });
    PipelineOptions popt;
    popt.workers = workers;
    EXPECT_THROW(Pipeline(topo, cfg, "test/faulty", {}, popt).run(), InjectedFault);
  }
}

/// The drill of the calling-thread and session-count tests: request 0's
/// first destination fails at the second epoch (epoch_size 4).  Request 0
/// is admitted by then and reaches it over an incident link, so that
/// epoch's open must recover it.
resilience::FailurePlan destination_drill(const topology::Topology& topo,
                                          const OnlineConfig& cfg) {
  const core::NodeId victim = ArrivalStream(topo, cfg).request(0).destinations.front();
  resilience::FailurePlan plan;
  plan.events.push_back(
      {resilience::FailureEvent::Target::kNode, victim, /*fail_at=*/4, /*heal_at=*/-1});
  return plan;
}

// A solve on the thread that called run() throws.  The pipeline's slot
// solves go through solve_epoch, lane 0's on the calling thread too, so
// the session throws from plain solve() calls only: in the pipeline that
// is the drill's recovery re-embed inside open_epoch, on the commit thread
// between two phases.  run() must rethrow it, and the pool must join its
// parked threads on the way out.  The sequential driver runs every solve
// as a plain solve() on the calling thread and must rethrow too.
TEST(PipelineFaults, CallingThreadFaultIsRethrownByBothDrivers) {
  const auto topo = topology::softlayer();
  auto cfg = pipeline_config();
  cfg.epoch_size = 4;
  const resilience::FailurePlan plan = destination_drill(topo, cfg);
  cfg.failures = &plan;
  const std::thread::id caller = std::this_thread::get_id();
  api::SolverRegistry::global().add(
      "test/recovery-fault", "sofda whose plain solves throw on the calling thread (test only)",
      [caller](const api::SolverOptions& opt) {
        return std::make_unique<test::EpochForwardingSolver>(
            api::make_solver("sofda", opt),
            [caller] {
              if (std::this_thread::get_id() == caller) {
                throw InjectedFault("solve on the calling thread");
              }
            },
            /*hook_epoch_solves=*/false);
      });

  const auto solver = api::make_solver("test/recovery-fault");
  EXPECT_THROW(simulate(topo, cfg, *solver), InjectedFault);
  for (int workers : {1, 2, 8}) {
    SCOPED_TRACE("W=" + std::to_string(workers));
    PipelineOptions popt;
    popt.workers = workers;
    EXPECT_THROW(Pipeline(topo, cfg, "test/recovery-fault", {}, popt).run(), InjectedFault);
  }
}

// A lane stalls in the middle of an epoch (a slow solve on every fourth
// arrival) in a session that prices against the published closure epochs:
// the other lanes claim the slots behind it, the commit waits for the
// stalled lane, the next publish runs on every pool thread, and the series
// must stay bitwise the sequential driver's.
TEST(PipelineFaults, StallingWorkerKeepsTheSeriesBitwise) {
  const auto topo = topology::softlayer();
  auto cfg = pipeline_config();
  cfg.epoch_size = 4;
  const OnlineResult ref = sequential_reference(topo, cfg);
  for (int workers : {2, 8}) {
    SCOPED_TRACE("W=" + std::to_string(workers));
    const auto solves = std::make_shared<std::atomic<int>>(0);
    api::SolverRegistry::global().add(
        "test/stalling", "sofda that sleeps on every fourth solve (test only)",
        [solves](const api::SolverOptions& opt) {
          return std::make_unique<test::EpochForwardingSolver>(
              api::make_solver("sofda", opt), [solves] {
                if (solves->fetch_add(1) % 4 == 3) {
                  std::this_thread::sleep_for(std::chrono::milliseconds(20));
                }
              });
        });
    PipelineOptions popt;
    popt.workers = workers;
    const OnlineResult got = Pipeline(topo, cfg, "test/stalling", {}, popt).run();
    expect_series_identical(got, ref);
    EXPECT_GT(got.peak_closure_bytes, 0u);  // the epochs were published
    EXPECT_EQ(solves->load(), cfg.requests);
  }
}

// The pipeline builds exactly `workers` solver sessions, one per solve lane
// (lane 0's on the calling thread), plus one recovery session under a
// failure drill; every session grows its own closure and workspaces.
TEST(PipelineSessions, OneSessionPerWorkerPlusRecovery) {
  const auto topo = topology::softlayer();
  auto cfg = pipeline_config();
  cfg.epoch_size = 4;
  const resilience::FailurePlan plan = destination_drill(topo, cfg);
  const auto built = std::make_shared<std::atomic<int>>(0);
  api::SolverRegistry::global().add(
      "test/counted", "sofda that counts its sessions (test only)",
      [built](const api::SolverOptions& opt) {
        built->fetch_add(1);
        return api::make_solver("sofda", opt);
      });
  for (const bool drill : {false, true}) {
    for (int workers : {1, 2, 8}) {
      SCOPED_TRACE(std::string(drill ? "drill" : "no drill") + " W=" + std::to_string(workers));
      auto run_cfg = cfg;
      if (drill) run_cfg.failures = &plan;
      PipelineOptions popt;
      popt.workers = workers;
      built->store(0);
      (void)Pipeline(topo, run_cfg, "test/counted", {}, popt).run();
      EXPECT_EQ(built->load(), workers + (drill ? 1 : 0));
    }
  }
}

}  // namespace
}  // namespace sofe::online
