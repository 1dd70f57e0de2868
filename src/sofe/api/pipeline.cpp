#include "sofe/online/pipeline.hpp"

// Both online drivers: the sequential `simulate` and the admission
// pipeline's engine room (DESIGN.md §10).  They live in api/ because they
// drive api::Solver sessions; their declarations stay in online/.
//
// The pipeline runs on one util::WorkerPool of N threads plus the caller
// of run(), which is also the commit stage.  Each epoch runs three
// phases on that pool, one after the other: the closure publish and the
// chain pricing, each a util::fork_join on N + 1 lanes, then the solves,
// one fork_join on N lanes with lane 0 on the caller.  Solve lane i owns
// session i and Problem replica i and claims slots in arrival order;
// between the phases the caller retires the last epoch, opens the next
// and commits the batch.  Shared state
// (master Problem, ledger, publisher closure and pricing table) is
// written only between phases, so what the lanes read is immutable by
// construction.  Every source of the epoch is priced once, in the
// publish, so no two lanes price the same chain (DESIGN.md §10).
//
// Determinism: slots commit in arrival order against the same epoch
// snapshots the sequential driver uses, and every number that enters the
// cost series is computed from (epoch snapshot, request) alone.  Lanes
// only ever solve slots of the open epoch, so each result is priced at the
// generation it commits under and the committed value is
// schedule-independent, which is the whole proof.  Nothing is priced
// ahead: Fortz-Thorup prices move on nearly every admission, so a result
// priced for a later epoch would almost never survive to its commit.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sofe/api/registry.hpp"
#include "sofe/api/report.hpp"
#include "sofe/api/solver.hpp"
#include "sofe/online/stream.hpp"
#include "sofe/util/fork_join.hpp"
#include "sofe/util/stopwatch.hpp"
#include "sofe/util/worker_pool.hpp"

namespace sofe::online {

namespace {
using SteadyClock = std::chrono::steady_clock;

/// Appends one committed epoch to the result's series — the fold both
/// drivers share.  The running total continues from the series' last entry.
void append_outcomes(const std::vector<SlotOutcome>& outcomes, OnlineResult& result) {
  Cost accumulated = result.accumulative_cost.empty() ? 0.0 : result.accumulative_cost.back();
  for (const SlotOutcome& out : outcomes) {
    const bool admitted = out.status == SlotOutcome::Status::kAdmitted;
    if (out.status == SlotOutcome::Status::kInfeasible) ++result.infeasible_requests;
    if (admitted) accumulated += out.cost;
    result.per_request_cost.push_back(admitted ? out.cost : 0.0);
    result.accumulative_cost.push_back(accumulated);
    result.accepted.push_back(admitted ? 1 : 0);
    result.decision_utilization.push_back(out.decision_utilization);
  }
}
}  // namespace

OnlineResult simulate(const topology::Topology& topo, const OnlineConfig& cfg,
                      api::Solver& solver) {
  // The scenario's semantics (request sampling, master Problem, price
  // refreshes, departures, commit order) live in ArrivalStream, shared with
  // the pipeline.  At the default epoch_size 1 every epoch is a single
  // arrival and this loop is the paper's Fig. 12 loop, bit for bit; at
  // S > 1 it is the determinism reference the pipeline must reproduce at
  // every worker count (DESIGN.md §10).
  ArrivalStream stream(topo, cfg);
  // Failure drill: recovery escalates to the session under test.
  if (stream.has_failures()) {
    stream.set_recovery_embedder([&solver](const Problem& p) { return solver.solve(p); });
  }

  OnlineResult result;
  result.algorithm = std::string(solver.name());
  result.epoch_size = cfg.epoch_size;
  for (int first = 0; first < cfg.requests;) {
    const int count = stream.open_epoch(first);
    // Solve every slot of the epoch first, then commit the batch: solves
    // read only the frozen snapshot (stage() swaps sources/destinations per
    // slot) and commits only the ledger, so the split is bitwise the
    // historical interleaving — and it is what lets admission policies rank
    // the whole epoch (DESIGN.md §14).
    std::vector<ServiceForest> forests;
    forests.reserve(static_cast<std::size_t>(count));
    for (int r = first; r < first + count; ++r) {
      const Problem& p = stream.stage(r);
      const util::Stopwatch watch;
      forests.push_back(solver.solve(p));
      result.arrival_seconds.push_back(watch.seconds());
    }
    append_outcomes(stream.commit_epoch(first, forests), result);
    first += count;
  }
  stream.finish(result);
  return result;
}

struct Pipeline::Impl {
  Impl(const topology::Topology& topo, const OnlineConfig& cfg, std::string solver_name,
       const api::SolverOptions& opt, PipelineOptions popt)
      : stream(topo, cfg), solver_name(std::move(solver_name)), opt(opt) {
    workers = popt.workers;
    if (workers <= 0) workers = static_cast<int>(std::thread::hardware_concurrency());
    workers = std::max(workers, 1);
    if (stream.has_failures()) {
      // Recovery escalation gets its own session of the same family.  It
      // runs on the commit thread inside open_epoch, between two phases,
      // and sessions are pure speed knobs, so a dedicated instance returns
      // bitwise what the sequential driver's shared embedder returns.
      recovery_solver = api::make_solver(this->solver_name, opt);
      stream.set_recovery_embedder(
          [this](const core::Problem& p) { return recovery_solver->solve(p); });
    }
  }

  ArrivalStream stream;
  std::string solver_name;
  api::SolverOptions opt;
  int workers = 1;
  api::ReportAccumulator* sink = nullptr;
  std::unique_ptr<api::Solver> recovery_solver;  // failure drills only
  bool ran = false;

  /// Solve lane i's own session and Problem replica.  The pool runs lane i
  /// on the same thread every epoch (lane 0 on the commit thread), so both
  /// live on one thread.  The replica catches up with the master's prices
  /// at the lane's first claim of each epoch.
  struct Lane {
    std::unique_ptr<api::Solver> solver;
    Problem replica;
    int synced_epoch = -1;  // `epoch_index` the replica's prices are from
  };
  int epoch_index = 0;

  // The published closure epoch the solves read.  Only meaningful when
  // use_epoch (the solver family solves against shared closures); with
  // price_epochs it also carries the publisher's pricing table.
  api::ClosureEpoch epoch;
  bool use_epoch = false;
  bool price_epochs = false;  // use_epoch and |C| >= 1

  struct Slot {
    ServiceForest forest;
    api::SolveReport report;
    double solve_seconds = 0.0;
    double queue_seconds = 0.0;
  };
  std::vector<Slot> slots;  // the open epoch's, in arrival order

  // Publisher state.  `pricing` sees each epoch's closure update exactly
  // once, right after the publish.
  api::ClosureSession publisher;
  core::PricingSession pricing;
  core::AlgoOptions price_opt;       // the solver family's own pricing knobs
  core::PricingTally epoch_tally;    // the open epoch's pricing, for the sink
  std::vector<core::NodeId> union_hubs;
  std::vector<core::NodeId> union_sources;
  std::vector<std::uint8_t> hub_mark;
  std::size_t pub_peak_bytes = 0;  // publisher closure slab footprint (§13)

  void publish_epoch(int first, int count, util::WorkerPool& pool);
  void solve_slots(int first, int count, util::WorkerPool& pool, std::vector<Lane>& lanes);
  void commit(int first, OnlineResult& result);
  OnlineResult run();
};

void Pipeline::Impl::publish_epoch(int first, int count, util::WorkerPool& pool) {
  // Union hubs over the open epoch: the VMs plus every source any lane
  // solves for before the next publish.  Extras are invisible to queries
  // (§8), so one closure serves every slot of the epoch bitwise.
  union_hubs = stream.master().vms();
  union_sources.clear();
  for (int r = first; r < first + count; ++r) {
    const auto& sources = stream.request(r).sources;
    union_sources.insert(union_sources.end(), sources.begin(), sources.end());
  }
  hub_mark.assign(static_cast<std::size_t>(stream.master().network.node_count()), 0);
  for (core::NodeId vm : union_hubs) hub_mark[static_cast<std::size_t>(vm)] = 1;
  for (core::NodeId s : union_sources) {
    if (!hub_mark[static_cast<std::size_t>(s)]) {
      hub_mark[static_cast<std::size_t>(s)] = 1;
      union_hubs.push_back(s);
    }
  }
  api::ClosureRequest req;
  // Publish on the whole pool (§10): this thread plus every pool thread.
  // SolverOptions::threads sizes the sessions' own solves only.
  req.threads = workers + 1;
  req.runner = &pool;
  req.incremental = opt.incremental;
  api::SolveReport publish_report;
  epoch = publisher.publish(stream.master().network, union_hubs, req, publish_report);
  pub_peak_bytes = std::max(pub_peak_bytes, publish_report.closure_bytes);
  if (price_epochs) {
    // Price once per epoch (§10): every source of the epoch against the
    // published closure, applying its update exactly once, on the same
    // lanes, into the table alone — the solves read it in place.  A chain
    // plan is a pure function of the snapshot, the source and the last VM,
    // so the solves' reads are bitwise what they would have priced.
    // Staging the first slot makes the master a well-formed problem;
    // commit_epoch re-stages every slot it reads.
    pricing.refresh(stream.stage(first), *epoch.closure, union_sources, epoch.update, price_opt,
                    workers + 1, &epoch_tally, &pool);
    epoch.pricing = &pricing;
  }
}

void Pipeline::Impl::solve_slots(int first, int count, util::WorkerPool& pool,
                                 std::vector<Lane>& lanes) {
  slots.assign(static_cast<std::size_t>(count), Slot{});
  const auto opened_at = SteadyClock::now();
  // Lanes claim slots in arrival order (the queue is FIFO).  Nothing the
  // lanes read changes until the fork returns: the master, the published
  // closure and the pricing table are written only between phases.
  std::atomic<int> next_slot{0};
  util::fork_join(util::lane_count(workers, static_cast<std::size_t>(count)), &pool, [&](int i) {
    Lane& lane = lanes[static_cast<std::size_t>(i)];
    for (int k; (k = next_slot++) < count;) {
      Slot& s = slots[static_cast<std::size_t>(k)];
      s.queue_seconds = std::chrono::duration<double>(SteadyClock::now() - opened_at).count();
      Problem& replica = lane.replica;
      if (lane.synced_epoch != epoch_index) {
        // Copy the link costs that differ and the VM setup costs.
        const Problem& master = stream.master();
        for (graph::EdgeId e = 0; e < master.network.edge_count(); ++e) {
          const Cost cost = master.network.edge(e).cost;
          if (replica.network.edge(e).cost != cost) replica.network.set_edge_cost(e, cost);
        }
        replica.node_cost = master.node_cost;
        lane.synced_epoch = epoch_index;
      }
      const Request& req = stream.request(first + k);
      replica.sources = req.sources;
      replica.destinations = req.destinations;
      const util::Stopwatch watch;
      s.forest = use_epoch ? lane.solver->solve_epoch(replica, epoch) : lane.solver->solve(replica);
      s.solve_seconds = watch.seconds();
      s.report = lane.solver->report();
    }
  });
}

void Pipeline::Impl::commit(int first, OnlineResult& result) {
  // The same ArrivalStream::commit_epoch the sequential driver uses:
  // admission decisions, departures and ledger evolution are shared code,
  // so the two drivers cannot drift (DESIGN.md §14).
  std::vector<ServiceForest> forests;
  forests.reserve(slots.size());
  for (Slot& s : slots) forests.push_back(std::move(s.forest));
  const util::Stopwatch commit_watch;
  const auto outcomes = stream.commit_epoch(first, forests);
  // The sink keeps its one-commit-sample-per-arrival shape: the epoch's
  // commit wall time is split evenly across its slots.
  const double commit_share = commit_watch.seconds() / static_cast<double>(slots.size());
  append_outcomes(outcomes, result);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Slot& s = slots[i];
    result.arrival_seconds[static_cast<std::size_t>(first) + i] = s.solve_seconds;
    if (sink != nullptr) {
      sink->add(s.report);
      sink->add_queue_wait(s.queue_seconds);
      sink->add_commit(commit_share);
    }
  }
}

OnlineResult Pipeline::Impl::run() {
  if (ran) throw std::logic_error("Pipeline::run() may be called once");
  ran = true;

  // One pool for every phase: `workers` threads, so the publish runs on
  // workers + 1 lanes and the solves on `workers` (lane 0 on this thread).
  // Its destructor joins the parked threads on every exit path, and every
  // fork_join has returned, and rethrown a lane's exception, before then.
  // Each lane builds its session and replica on its own thread.
  util::WorkerPool pool(workers);
  std::vector<Lane> lanes(static_cast<std::size_t>(workers));
  util::fork_join(workers, &pool, [&](int i) {
    Lane& lane = lanes[static_cast<std::size_t>(i)];
    lane.solver = api::make_solver(solver_name, opt);
    lane.replica = stream.master();
  });
  // Lane 0's session answers for the family: its name, its closure
  // appetite and its pricing knobs (a family may override the caller's
  // stroll oracle).
  const api::Solver& lead = *lanes.front().solver;
  use_epoch = lead.wants_epoch_closure();
  price_epochs = use_epoch && stream.master().chain_length >= 1;
  price_opt = lead.options().algo();

  OnlineResult result;
  result.algorithm = std::string(lead.name());
  result.workers = workers;
  result.epoch_size = stream.epoch_size();
  result.arrival_seconds.assign(static_cast<std::size_t>(stream.requests()), 0.0);

  for (int first = 0; first < stream.requests(); ++epoch_index) {
    const util::Stopwatch publish_watch;
    if (use_epoch) publisher.retire();
    const int count = stream.open_epoch(first);
    if (use_epoch) publish_epoch(first, count, pool);
    result.publish_seconds += publish_watch.seconds();
    if (sink != nullptr && price_epochs) sink->add_pricing(epoch_tally);

    solve_slots(first, count, pool, lanes);
    commit(first, result);
    first += count;
  }
  if (use_epoch) publisher.retire();

  stream.finish(result);
  result.peak_closure_bytes = pub_peak_bytes;
  return result;
}

Pipeline::Pipeline(const topology::Topology& topo, const OnlineConfig& cfg,
                   std::string solver_name, const api::SolverOptions& opt, PipelineOptions popt)
    : impl_(std::make_unique<Impl>(topo, cfg, std::move(solver_name), opt, popt)) {}

Pipeline::~Pipeline() = default;

void Pipeline::set_report_sink(api::ReportAccumulator* sink) noexcept { impl_->sink = sink; }

OnlineResult Pipeline::run() { return impl_->run(); }

}  // namespace sofe::online
