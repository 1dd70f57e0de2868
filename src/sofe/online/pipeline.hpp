#pragma once
// Epoch-pipelined concurrent arrival service (DESIGN.md §10).
//
// The production shape of the online layer: arrivals queue up, N worker
// sessions solve different queued arrivals in parallel against one
// immutable epoch snapshot (graph prices + published read-only metric
// closure + the epoch's priced chains + ledger state frozen at epoch
// open), and a single commit stage serializes ledger writes in arrival
// order — folding each epoch's price movements into ONE EdgeCostDelta
// batch that drives closure repair and pricing-cache invalidation per
// epoch instead of per arrival.  The publisher prices every source of the
// epoch once, so no two workers price the same chain.
//
// Determinism contract: for every (topology, OnlineConfig) the cost series
// is bitwise identical to the sequential driver `online::simulate` at the
// same epoch_size, at ANY worker count — the sequential loop is the
// 1-worker degenerate case, and OnlineConfig::epoch_size = 1 makes both of
// them the paper's per-arrival Fig. 12 loop.  Workers solve only the open
// epoch's arrivals: every admission moves Fortz-Thorup prices, so work done
// for a later epoch would almost never survive to its commit (§10).
//
// Declared here in the online layer, implemented in src/sofe/api/
// pipeline.cpp beside the sequential driver: both drive api::Solver
// sessions, and the layer DAG has api on top of online.

#include <memory>
#include <string>

#include "sofe/online/simulator.hpp"

namespace sofe::api {
class ReportAccumulator;
struct SolverOptions;
}  // namespace sofe::api

namespace sofe::online {

struct PipelineOptions {
  /// Solver worker threads.  0 = std::thread::hardware_concurrency();
  /// 1 reproduces the sequential driver's schedule with the pipeline's
  /// machinery (still bit-identical — as is every other count).  The
  /// same threads run the epoch's closure publish and chain pricing
  /// while they are parked: each takes workers + 1 lanes, the commit
  /// thread running one of them (§10); SolverOptions::threads sizes only
  /// each session's own solves.
  int workers = 1;
  int lookahead_epochs = 0;  // inert; remove at the next benchmark change
};

/// The admission pipeline.  One instance serves one arrival stream; run()
/// may be called once.  Construction validates the OnlineConfig
/// (std::invalid_argument on nonsense) and resolves `solver_name` against
/// the global SolverRegistry — each worker owns a private solver session
/// built from these options, plus a private Problem replica advanced by
/// the per-epoch delta batch.
class Pipeline {
 public:
  Pipeline(const topology::Topology& topo, const OnlineConfig& cfg, std::string solver_name,
           const api::SolverOptions& opt, PipelineOptions popt = {});
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Optional aggregation sink, folded on the commit thread only: every
  /// committed arrival's SolveReport plus its queue-wait and commit-stage
  /// samples, and each epoch's pricing tally (ReportAccumulator::
  /// add_pricing).  Attach before run(); must outlive it.
  void set_report_sink(api::ReportAccumulator* sink) noexcept;

  /// Serves the whole stream: spawns the workers, runs the epoch publish /
  /// commit loop on the calling thread, joins, and returns the same
  /// OnlineResult the sequential driver produces (plus the pipeline
  /// diagnostics fields).  An exception from a worker's solve, or from
  /// the calling thread (a drill's recovery re-embed runs there), is
  /// rethrown here once every worker has been joined.
  OnlineResult run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sofe::online
