#pragma once
// Online-deployment simulator (Section VIII-C, Fig. 12).
//
// Requests arrive sequentially; each asks to serve a random destination set
// from a random candidate-source set through a |C|-stage chain.  Before each
// arrival, link and VM prices are refreshed from the current loads via the
// Fortz-Thorup function; the algorithm under test embeds a forest at those
// prices; the embedding's bandwidth and VNF placements are then charged to
// the ledger.  The simulator reports the accumulative cost series the paper
// plots, plus congestion statistics.

#include <cstdint>
#include <string>
#include <vector>

#include "sofe/core/forest.hpp"
#include "sofe/costmodel/load_ledger.hpp"
#include "sofe/resilience/failure_plan.hpp"
#include "sofe/topology/topology.hpp"
#include "sofe/util/rng.hpp"

namespace sofe::api {
class Solver;
}

namespace sofe::online {

using core::Cost;
using core::Problem;
using core::ServiceForest;

struct OnlineConfig {
  int requests = 30;
  int min_destinations = 13, max_destinations = 17;  // SoftLayer defaults
  int min_sources = 8, max_sources = 12;
  int chain_length = 3;
  int vms_per_dc = 5;          // "each data center has 5 VMs"
  double demand_mbps = 5.0;    // per-destination-stream demand
  double link_capacity = 100.0;
  double host_capacity = 5.0;  // VNF slots per DC host
  double setup_scale = 3.0;
  std::uint64_t seed = 11;
  /// Request lifetime in arrivals: > 0 means the request admitted at
  /// arrival r departs before arrival r + holding_arrivals, returning its
  /// bandwidth and VNF charges to the ledger — so the next price refresh
  /// mutates the persistent Problem with cost-RESTORE deltas, exactly the
  /// shape the session's incremental repair consumes.  0 (the default, and
  /// the paper's Fig. 12 setting) means requests never depart.
  int holding_arrivals = 0;
  /// Price-refresh granularity (DESIGN.md §10): link and VM prices refresh
  /// from the ledger once per epoch of this many arrivals, and every
  /// arrival of an epoch is priced against that one immutable snapshot
  /// (commits still apply in arrival order).  1 — the default, and the
  /// paper's Fig. 12 setting — refreshes per arrival, reproducing the
  /// historical loop bit for bit.  Values > 1 define the semantics the
  /// epoch-pipelined `online::Pipeline` parallelizes: the sequential
  /// driver at epoch_size S is the determinism reference the pipeline must
  /// match at every worker count.
  int epoch_size = 1;
  /// Optional failure drill (DESIGN.md §12): scripted link/node/DC failures
  /// and heals, realized as +inf / cost-restore delta batches at epoch
  /// opens, with budget-bounded recovery of every embedding a failure
  /// breaks.  Non-owning — the plan must outlive the run; nullptr (the
  /// default) streams without a drill.  Both drivers validate the plan at
  /// construction (resilience::validate throws std::invalid_argument).
  const resilience::FailurePlan* failures = nullptr;
  /// Migration budget the recovery engine works under (ignored when
  /// `failures` is null).  See resilience::RecoveryBudget.
  resilience::RecoveryBudget recovery;
  /// Recurring-source mode (DESIGN.md §13): when > 0, every request draws
  /// its sources from ONE pool of this many access nodes, sampled up front
  /// from the same RNG stream, instead of from the whole topology — the
  /// skewed-tenant workload where yesterday's source hubs keep coming
  /// back.  Must be 0 (off, the paper's Fig. 12 setting — the request
  /// sequence is then byte-identical to pre-pool builds) or >= max_sources.
  int source_pool = 0;
  /// Skew of the recurring-source draw: pool member at popularity rank r
  /// (0-based) is picked with weight 1 / (r + 1)^source_alpha, without
  /// replacement per request (Zipf-like; 0 = uniform over the pool).
  /// Ignored when source_pool == 0.
  double source_alpha = 1.0;
  /// Admission-control policy spec (DESIGN.md §14), e.g. "greedy",
  /// "threshold-price,theta=1.5", "reject-costliest,budget=250" — see
  /// online::make_admission_policy for the full grammar (an "admission/"
  /// prefix is accepted).  Empty (the default) is the paper's setting:
  /// every feasible arrival is embedded and capacity only shapes prices
  /// (the SOFT regime).  Non-empty switches the ledger to the ENFORCED
  /// regime: link/host capacities become hard constraints, the policy
  /// declares per-epoch admission intent, and the stream's commit gate
  /// rejects any arrival that the policy declines or that no longer fits —
  /// a rejected arrival charges nothing and costs nothing.  Malformed
  /// specs throw std::invalid_argument from online::validate (both
  /// drivers).
  std::string admission;
};

struct OnlineResult {
  std::string algorithm;
  std::vector<Cost> accumulative_cost;  // after each arrival
  std::vector<Cost> per_request_cost;
  /// Per-arrival embed wall time (the solve alone — queue wait and commit
  /// bookkeeping excluded), so throughput panels are self-describing.
  std::vector<double> arrival_seconds;
  int infeasible_requests = 0;
  /// Links loaded beyond capacity at the end of the stream.  Mode matters
  /// (DESIGN.md §14): with OnlineConfig::admission EMPTY the ledger is
  /// SOFT — Fortz-Thorup prices discourage congestion but nothing forbids
  /// it, so this count is the scenario's congestion statistic.  With a
  /// policy set the ledger is ENFORCED and this is provably zero: every
  /// admission passes LoadLedger::can_admit before charging, and
  /// departures/rejections only subtract (asserted in test_admission's
  /// fuzz suite and by the stream itself in debug builds).
  std::size_t overloaded_links = 0;
  int workers = 1;     // echo: solver workers (1 = the sequential driver)
  int epoch_size = 1;  // echo: OnlineConfig::epoch_size
  // Pipeline-only diagnostics, timing-dependent and so excluded from every
  // determinism comparison; the cost series above never varies.
  int stale_repriced = 0;       // inert, always 0; remove at the next benchmark change
  int speculative_commits = 0;  // inert, always 0; remove at the next benchmark change
  /// Commit-thread wall spent publishing epochs: the closure publish
  /// plus, for SOFDA families with |C| >= 1, the epoch's chain pricing
  /// (DESIGN.md §10).
  double publish_seconds = 0.0;
  /// Peak slab footprint of the publisher's closure over every epoch
  /// publish (DESIGN.md §13).  Zero for the sequential driver (its
  /// per-solve footprint lives on the solver's ReportAccumulator) and for
  /// solver families without epoch closures.
  std::size_t peak_closure_bytes = 0;
  /// Admission series (DESIGN.md §14), deterministic and compared bitwise
  /// between the two drivers.  `accepted[r]` is 1 iff arrival r was
  /// embedded AND admitted (with no policy configured that is simply "the
  /// solver found an embedding"); `decision_utilization[r]` is the maximum
  /// physical-link utilization at the moment arrival r's admission decision
  /// took effect (after the departures due at r released, before r's own
  /// charge).  `rejected_requests` counts policy/capacity rejections only —
  /// infeasible arrivals stay in `infeasible_requests` — and
  /// `rejected_demand_mbps` totals the demand those rejections turned away
  /// (|destinations| x demand_mbps each).
  std::vector<std::uint8_t> accepted;
  std::vector<double> decision_utilization;
  int rejected_requests = 0;
  double rejected_demand_mbps = 0.0;
  double accept_rate = 0.0;  // accepted / requests
  /// End-of-stream ledger utilization (max and mean over links / hosts).
  double max_link_utilization = 0.0;
  double mean_link_utilization = 0.0;
  double max_host_utilization = 0.0;
  double mean_host_utilization = 0.0;
  /// Failure drill only: one entry per (failure epoch, affected request),
  /// in recovery order.  RecoveryReport::seconds is wall time (excluded
  /// from determinism comparisons, like arrival_seconds); every other
  /// field is deterministic in (topology, config, plan, budget).
  std::vector<resilience::RecoveryReport> recoveries;
};

/// The sequential driver: runs the request sequence against one solver
/// session.  The identical sequence is regenerated from cfg.seed for every
/// solver, so series are paired.
///
/// Persistent-Problem contract (DESIGN.md §8): the driver builds ONE
/// Problem — topology + VM taps — up front and mutates it in place per
/// arrival (sources/destinations reassigned, only the link prices that
/// actually moved rewritten via set_edge_cost, VM setup costs refreshed).
/// No per-arrival copy exists, so the network keeps its CSR cache across
/// arrivals and consecutive solves differ by link-price deltas plus the
/// sampled source hubs: an incremental session (SolverOptions::incremental)
/// repairs its hub trees per arrival and builds only the new source roots,
/// so arrival cost scales with the size of the price change, not the graph.
/// The series is bit-identical to a recomputing session's (incremental
/// off; tested).  A failure drill's recovery
/// re-embeds run on the same session.  Attach a ReportAccumulator via
/// Solver::set_report_sink to collect per-arrival phase timings.
///
/// Declared here, implemented in src/sofe/api/pipeline.cpp beside
/// online::Pipeline: both drivers run api::Solver sessions, and the layer
/// DAG has api on top of online.
OnlineResult simulate(const topology::Topology& topo, const OnlineConfig& cfg,
                      api::Solver& solver);

}  // namespace sofe::online
