#include "sofe/online/pipeline.hpp"

// Both online drivers: the sequential `simulate` and the admission
// pipeline's engine room (DESIGN.md §10).  They live in api/ because they
// drive api::Solver sessions; their declarations stay in online/.
//
// Pipeline threads: N worker threads plus the caller of run(), which
// serves as both epoch publisher and commit stage.  One mutex guards all
// shared state; workers claim queued slots, solve them OUTSIDE the lock
// against private Problem replicas (synced once per epoch from the
// published EdgeCostDelta batch), the shared read-only closure epoch and
// the epoch's priced chains, and post results back.  The publisher
// mutates shared state (master Problem, ledger, publisher closure and
// pricing table) only while every worker is parked — the `publishing`
// flag blocks new claims and the `active` counter drains in-flight solves
// — so the snapshot workers read is immutable by construction, not by
// convention.  While parked, the workers are the publisher's
// util::LaneRunner: the closure publish and the epoch's pricing each run
// on N + 1 lanes, lane 0 on the publisher and one posted lane per woken
// worker.  Every source of the epoch is priced once there, so no two
// workers price the same chain (DESIGN.md §10).
//
// Determinism: slots commit in arrival order against the same epoch
// snapshots the sequential driver uses, and every number that enters the
// cost series is computed from (epoch snapshot, request) alone.  Workers
// only ever claim slots of the open epoch, so each result is priced at the
// generation it commits under and the committed value is
// schedule-independent, which is the whole proof.  Nothing is priced
// ahead: Fortz-Thorup prices move on nearly every admission, so a result
// priced for a later epoch would almost never survive to its commit.

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sofe/api/registry.hpp"
#include "sofe/api/report.hpp"
#include "sofe/api/solver.hpp"
#include "sofe/online/stream.hpp"
#include "sofe/util/fork_join.hpp"
#include "sofe/util/stopwatch.hpp"

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

struct Pipeline::Impl final : util::LaneRunner {
  Impl(const topology::Topology& topo, const OnlineConfig& cfg, std::string solver_name,
       const api::SolverOptions& opt, PipelineOptions popt)
      : stream(topo, cfg), solver_name(std::move(solver_name)), opt(opt) {
    workers = popt.workers;
    if (workers <= 0) workers = static_cast<int>(std::thread::hardware_concurrency());
    workers = std::max(workers, 1);
    if (stream.has_failures()) {
      // Recovery escalation gets its own session of the same family.  It
      // runs on the commit thread inside open_epoch — all workers parked —
      // and sessions are pure speed knobs, so a dedicated instance returns
      // bitwise what the sequential driver's shared embedder returns.
      recovery_solver = api::make_solver(this->solver_name, opt);
      stream.set_recovery_embedder(
          [this](const core::Problem& p) { return recovery_solver->solve(p); });
    }
  }

  // --- construction-time (immutable during run) ---
  ArrivalStream stream;
  std::string solver_name;
  api::SolverOptions opt;
  int workers = 1;
  api::ReportAccumulator* sink = nullptr;
  std::unique_ptr<api::Solver> recovery_solver;  // failure drills only
  bool ran = false;

  // --- shared state, guarded by mu ---
  std::mutex mu;
  std::condition_variable cv_work;  // workers: claimable slot / shutdown
  std::condition_variable cv_main;  // driver: result posted / worker parked
  bool publishing = true;           // true until the first epoch publishes
  bool done = false;
  int active = 0;                    // workers inside a solve
  std::uint64_t generation = 0;      // epochs published so far
  int next_slot = 0;                 // lowest never-claimed slot
  int dispatch_limit = 0;            // slots [0, dispatch_limit) are claimable
  std::exception_ptr failure;        // first worker exception, rethrown by run()

  // The posted publish lanes (fork/join below): lanes [next_lane,
  // lane_total) are unclaimed, and lanes_done counts the returned ones
  // among 1 .. lane_total - 1 (lane 0 is the publisher's own).
  const Lane* lane_fn = nullptr;
  int lane_total = 0;
  int next_lane = 0;
  int lanes_done = 0;

  // One entry per published epoch: payloads[g] is the snapshot advance
  // from generation g to g + 1.  Workers fold the batches they missed
  // into their replicas at claim time (under mu; O(moved links) per
  // epoch), which is how "ONE EdgeCostDelta batch per epoch" reaches
  // every worker-side repair and pricing invalidation.
  struct Payload {
    std::vector<graph::EdgeCostDelta> deltas;
    std::vector<Cost> node_cost;  // full post-refresh vector (VM setups)
  };
  std::deque<Payload> payloads;

  // The published closure epoch, copied by workers at claim time.  Only
  // meaningful when use_epoch (the solver family solves against shared
  // closures); rewritten by the publisher while quiesced.  With
  // price_epochs it also carries the publisher's pricing table.
  api::ClosureEpoch epoch;
  bool use_epoch = false;
  bool price_epochs = false;  // use_epoch, incremental_pricing and |C| >= 1

  struct Slot {
    bool ready = false;
    ServiceForest forest;
    api::SolveReport report;
    double solve_seconds = 0.0;
    double queue_seconds = 0.0;
  };
  std::vector<Slot> slots;
  SteadyClock::time_point opened_at;  // when the open epoch's slots became claimable

  // Publisher-side state (driver thread only).  `pricing` sees each
  // epoch's closure update exactly once, right after the publish.
  api::ClosureSession publisher;
  core::PricingSession pricing;
  core::AlgoOptions price_opt;       // the solver family's own pricing knobs
  core::PricingTally epoch_tally;    // the open epoch's pricing, for the sink
  std::vector<core::NodeId> union_hubs;
  std::vector<core::NodeId> union_sources;
  std::vector<std::uint8_t> hub_mark;

  // Diagnostics folded into OnlineResult (driver thread only).
  std::size_t pub_peak_bytes = 0;  // publisher closure slab footprint (§13)

  void worker_main(Problem replica);
  void run_lane(std::unique_lock<std::mutex>& lock);
  void fork(int lanes, const Lane& lane) override;
  void join() override;
  int publish_epoch(int first);
  void serve(OnlineResult& result);
  OnlineResult run();
};

void Pipeline::Impl::worker_main(Problem replica) {
  // Worker-private solver session and Problem replica: the replica starts
  // at the pre-stream master and advances one published delta batch per
  // epoch, so its prices are bitwise the epoch snapshot's at the claimed
  // generation.
  const auto solver = api::make_solver(solver_name, opt);
  std::uint64_t synced = 0;

  std::unique_lock lock(mu);
  for (;;) {
    cv_work.wait(lock, [&] {
      return next_lane < lane_total || done || (!publishing && next_slot < dispatch_limit);
    });
    if (next_lane < lane_total) {
      run_lane(lock);
      continue;
    }
    if (done) return;

    // Claim the lowest unclaimed slot: the arrival queue is FIFO.
    const int r = next_slot++;
    const api::ClosureEpoch epoch_copy = epoch;
    ++active;

    // Replica sync under the lock (payloads grow only under mu): apply
    // every delta batch published since this worker last priced.
    while (synced < generation) {
      const Payload& pl = payloads[static_cast<std::size_t>(synced)];
      for (const graph::EdgeCostDelta& d : pl.deltas) {
        replica.network.set_edge_cost(d.edge, d.new_cost);
      }
      replica.node_cost = pl.node_cost;
      ++synced;
    }
    const Request& req = stream.request(r);
    const double queue_seconds =
        std::chrono::duration<double>(SteadyClock::now() - opened_at).count();
    lock.unlock();

    replica.sources = req.sources;
    replica.destinations = req.destinations;
    const util::Stopwatch watch;
    ServiceForest forest;
    try {
      forest = use_epoch ? solver->solve_epoch(replica, epoch_copy) : solver->solve(replica);
    } catch (...) {
      lock.lock();
      if (!failure) failure = std::current_exception();
      done = true;
      --active;
      cv_main.notify_all();
      cv_work.notify_all();
      return;
    }
    const double solve_seconds = watch.seconds();

    lock.lock();
    Slot& s = slots[static_cast<std::size_t>(r)];
    s.ready = true;
    s.forest = std::move(forest);
    s.report = solver->report();
    s.solve_seconds = solve_seconds;
    s.queue_seconds = queue_seconds;
    --active;
    cv_main.notify_all();
  }
}

void Pipeline::Impl::run_lane(std::unique_lock<std::mutex>& lock) {
  const int lane = next_lane++;
  const Lane& fn = *lane_fn;
  lock.unlock();
  fn(lane);  // never throws: fork_join catches per lane
  lock.lock();
  if (++lanes_done == lane_total - 1) cv_main.notify_all();
}

void Pipeline::Impl::fork(int lanes, const Lane& lane) {
  {
    const std::lock_guard<std::mutex> lock(mu);
    assert(lane_total == 0 && "one fork at a time");
    lane_fn = &lane;
    lane_total = lanes;
    next_lane = 1;
    lanes_done = 0;
  }
  cv_work.notify_all();
}

void Pipeline::Impl::join() {
  std::unique_lock lock(mu);
  // Lanes no worker has woken up for yet run here, so the publish never
  // waits on a worker that is slow to wake.
  while (next_lane < lane_total) run_lane(lock);
  cv_main.wait(lock, [&] { return lanes_done == lane_total - 1; });
  lane_fn = nullptr;
  lane_total = 0;
  next_lane = 0;
}

int Pipeline::Impl::publish_epoch(int first) {
  std::unique_lock lock(mu);
  publishing = true;  // block new claims...
  cv_main.wait(lock, [&] { return active == 0; });  // ...and drain in-flight ones

  // Every worker is parked: shared state is ours to mutate.
  if (use_epoch) publisher.retire();

  Payload pl;
  const int count = stream.open_epoch(first, &pl.deltas);
  pl.node_cost = stream.master().node_cost;
  payloads.push_back(std::move(pl));
  ++generation;

  if (use_epoch) {
    // Union hubs over the open epoch: the VMs plus every source any worker
    // may solve for before the next publish.  Extras are invisible to
    // queries (§8), so one closure serves every slot of the epoch bitwise.
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
    // Publish on the parked pool (§10): this thread plus every worker.
    // SolverOptions::threads sizes the sessions' own solves only.
    req.threads = workers + 1;
    req.runner = this;
    req.incremental = opt.incremental;
    // Epoch closures are always unbounded: truncated trees cannot be
    // repaired per epoch, and the re-homing fallback queries
    // hub-to-destination rows for arbitrary queued requests.
    req.bounded = false;
    api::SolveReport publish_report;
    // The lanes reach the workers through mu; `publishing` still holds
    // every slot claim back while it is released.
    lock.unlock();
    api::ClosureEpoch published =
        publisher.publish(stream.master().network, union_hubs, req, publish_report);
    if (price_epochs) {
      // Price once per epoch (§10): every source of the epoch against the
      // published closure, applying its update exactly once, on the same
      // lanes.  A chain plan is a pure function of the snapshot, the source
      // and the last VM, so the workers' reads are bitwise what they would
      // have priced.  Staging the first slot makes the master a
      // well-formed problem; commit_epoch re-stages every slot it reads.
      (void)pricing.price(stream.stage(first), *published.closure, union_sources,
                          published.update, price_opt, workers + 1, &epoch_tally, this);
      published.pricing = &pricing;
    }
    lock.lock();
    epoch = published;
    pub_peak_bytes = std::max(pub_peak_bytes, publish_report.closure_bytes);
  }

  // Make the open epoch's slots claimable and wake the floor.
  opened_at = SteadyClock::now();
  dispatch_limit = first + count;
  publishing = false;
  lock.unlock();
  cv_work.notify_all();
  return count;
}

void Pipeline::Impl::serve(OnlineResult& result) {
  const int total = stream.requests();
  for (int first = 0; first < total;) {
    const util::Stopwatch publish_watch;
    const int count = publish_epoch(first);
    result.publish_seconds += publish_watch.seconds();
    if (sink != nullptr && price_epochs) sink->add_pricing(epoch_tally);

    // Collect the whole epoch's results (in arrival order), then commit
    // the batch through the same ArrivalStream::commit_epoch the sequential
    // driver uses — admission decisions, departures and ledger evolution
    // are shared code, so the two drivers cannot drift (DESIGN.md §14).
    // Workers never read the ledger, so batching the commit changes nothing
    // they observe.
    std::vector<Slot> epoch_slots;
    std::vector<ServiceForest> forests;
    epoch_slots.reserve(static_cast<std::size_t>(count));
    forests.reserve(static_cast<std::size_t>(count));
    for (int r = first; r < first + count; ++r) {
      Slot s;
      {
        std::unique_lock lock(mu);
        cv_main.wait(lock, [&] {
          return slots[static_cast<std::size_t>(r)].ready || failure != nullptr;
        });
        if (failure) return;  // a worker failed; run() rethrows it
        s = std::move(slots[static_cast<std::size_t>(r)]);
      }
      forests.push_back(std::move(s.forest));
      epoch_slots.push_back(std::move(s));
    }

    const util::Stopwatch commit_watch;
    const auto outcomes = stream.commit_epoch(first, forests);
    // The sink keeps its one-commit-sample-per-arrival shape: the epoch's
    // commit wall time is split evenly across its slots.
    const double commit_share =
        count > 0 ? commit_watch.seconds() / static_cast<double>(count) : 0.0;
    append_outcomes(outcomes, result);
    for (int i = 0; i < count; ++i) {
      const Slot& s = epoch_slots[static_cast<std::size_t>(i)];
      result.arrival_seconds[static_cast<std::size_t>(first + i)] = s.solve_seconds;
      if (sink != nullptr) {
        sink->add(s.report);
        sink->add_queue_wait(s.queue_seconds);
        sink->add_commit(commit_share);
      }
    }
    first += count;
  }
}

OnlineResult Pipeline::Impl::run() {
  assert(!ran && "Pipeline::run() may be called once");
  ran = true;

  const int total = stream.requests();
  slots.resize(static_cast<std::size_t>(total));

  // Probe the registry once for the family's name, closure appetite and
  // pricing knobs (a family may override the caller's stroll oracle);
  // workers build their own sessions.
  OnlineResult result;
  {
    const auto probe = api::make_solver(solver_name, opt);
    result.algorithm = std::string(probe->name());
    use_epoch = probe->wants_epoch_closure();
    price_epochs = use_epoch && probe->options().incremental_pricing &&
                   stream.master().chain_length >= 1;
    price_opt = probe->options().algo();
  }
  result.workers = workers;
  result.epoch_size = stream.epoch_size();
  result.arrival_seconds.assign(static_cast<std::size_t>(total), 0.0);

  // The pool is stopped and joined on every exit path before anything
  // propagates: a throw on this thread (a drill's recovery re-embed runs
  // inside open_epoch) must not unwind past joinable threads.
  std::vector<std::thread> pool;
  const auto join_workers = [&] {
    {
      const std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv_work.notify_all();
    for (std::thread& th : pool) th.join();
  };
  try {
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      // Replicas are copied before the first epoch opens, so no worker can
      // observe a half-refreshed master.
      pool.emplace_back(&Impl::worker_main, this, stream.master());
    }
    serve(result);
  } catch (...) {
    join_workers();
    throw;
  }
  join_workers();
  if (use_epoch) publisher.retire();
  if (failure) std::rethrow_exception(failure);

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
