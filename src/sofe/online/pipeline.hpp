#pragma once
// Epoch-pipelined concurrent arrival service (DESIGN.md §10).
//
// The production shape of the online layer: arrivals queue up, N solver
// sessions solve different queued arrivals in parallel against one
// immutable epoch snapshot (graph prices + published read-only metric
// closure + the epoch's priced chains + ledger state frozen at epoch
// open), and a single commit stage serializes ledger writes in arrival
// order — folding each epoch's price movements into ONE EdgeCostDelta
// batch that drives closure repair and pricing-cache invalidation per
// epoch instead of per arrival.  The publisher prices every source of the
// epoch once, so no two sessions price the same chain.  Each epoch is
// three phases on one util::WorkerPool, one after the other: publish and
// price, solve, commit.
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
  /// Solve lanes, each with its own solver session: lane 0 on the
  /// calling thread, which is also the commit stage, the rest on the
  /// pool's threads.  0 = std::thread::hardware_concurrency(); 1 solves
  /// in the sequential driver's order with the pipeline's machinery
  /// (still bit-identical — as is every other count).  The pool holds
  /// `workers` threads, so the epoch's closure publish and chain pricing
  /// each take workers + 1 lanes (§10); SolverOptions::threads sizes only
  /// each session's own solves.
  int workers = 1;
  int lookahead_epochs = 0;  // inert; remove at the next benchmark change
};

/// The admission pipeline.  One instance serves one arrival stream; run()
/// may be called once.  Construction validates the OnlineConfig
/// (std::invalid_argument on nonsense); run() resolves `solver_name`
/// against the global SolverRegistry — each solve lane owns a private
/// solver session built from these options, plus a private Problem
/// replica that copies the master's moved prices at its first claim of
/// each epoch.
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

  /// Serves the whole stream: starts the pool, runs the epoch loop on the
  /// calling thread, joins, and returns the same OnlineResult the
  /// sequential driver produces (plus the pipeline diagnostics fields).
  /// An exception from a lane's solve, or from the calling thread (a
  /// drill's recovery re-embed runs there), is rethrown here once every
  /// lane of its phase has returned; the pool's threads are joined on the
  /// way out.  A second call throws std::logic_error.
  OnlineResult run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sofe::online
