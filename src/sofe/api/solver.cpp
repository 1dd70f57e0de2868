#include "sofe/api/solver.hpp"

#include <algorithm>
#include <cassert>

#include "sofe/api/report.hpp"
#include "sofe/dist/sharded_closure.hpp"
#include "sofe/util/stopwatch.hpp"

namespace sofe::api {

// Out of line so solver.hpp can hold the sharded cache behind an incomplete
// dist::ShardedClosure (the api header stays free of dist includes).
ClosureSession::ClosureSession() = default;
ClosureSession::~ClosureSession() = default;

template <typename RepairFn, typename RebuildFn>
void ClosureSession::acquire_with(const graph::Graph& g, const std::vector<NodeId>& hubs,
                                  const ClosureRequest& req, const graph::MetricClosure* stored,
                                  SolveReport& report, const RepairFn& repair,
                                  const RebuildFn& rebuild) {
  assert(!published_ && "retire() the published epoch before the next acquire");
  report.closure_hubs = static_cast<int>(hubs.size());
  // Incremental sessions key on hub membership and may repair; strict
  // ones key on the exact hub sequence and only hit or rebuild.
  const auto edges = g.edges();

  // Structural part of the key: node count + edge endpoints.  Costs are
  // compared edge by edge below, and the differing ones ARE the arc-delta
  // list the repair path consumes.
  const bool structure_same =
      stored != nullptr && key_nodes_ == g.node_count() &&
      key_edges_.size() == edges.size() &&
      std::equal(edges.begin(), edges.end(), key_edges_.begin(),
                 [](const graph::Edge& a, const graph::Edge& b) {
                   return a.u == b.u && a.v == b.v;
                 });

  deltas_.clear();
  missing_.clear();
  bool hubs_ok = false;
  if (structure_same) {
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (edges[i].cost != key_edges_[i].cost) {
        deltas_.push_back(graph::EdgeCostDelta{static_cast<graph::EdgeId>(i),
                                               key_edges_[i].cost, edges[i].cost});
      }
    }
    if (req.incremental) {
      // Only hubs without a stored tree matter.  Extra stored hubs are
      // invisible to queries (each tree is independent); a repair drops
      // them before it refreshes.
      for (NodeId h : hubs) {
        if (!stored->is_hub(h)) missing_.push_back(h);
      }
      hubs_ok = missing_.empty();
    } else {
      // Strict semantics: the exact hub and settle-target sequences (a
      // sharded closure's rows toward destinations are exact only for the
      // targets it advertised toward).
      hubs_ok = key_hubs_ == hubs && std::ranges::equal(key_targets_, req.settle_targets);
    }
  }
  report.closure_delta_edges = static_cast<int>(deltas_.size());

  row_changes_.clear();
  added_hubs_.clear();
  if (structure_same && hubs_ok && deltas_.empty()) {
    report.closure_cache_hit = true;
    last_kind_ = core::ClosureUpdate::Kind::kUnchanged;
    return;
  }
  report.closure_cache_hit = false;

  const util::Stopwatch watch;
  g.ensure_csr();  // make subsequent csr() reads safe for worker threads

  // Repair-vs-rebuild: repair scales with the affected region, a rebuild
  // with |hubs| * (V + E); past a quarter of the edges changing, affected
  // regions approach whole trees and the rebuild's sequential sweeps win.
  const bool repairable =
      structure_same && req.incremental && deltas_.size() * 4 <= edges.size();
  if (repairable) {
    // Rows live for the request that names them (DESIGN.md §13): the
    // repair keeps exactly `hubs`, so no refresh is spent on a row that
    // no current request reads.
    repair();
    added_hubs_ = missing_;
    last_kind_ = core::ClosureUpdate::Kind::kRepaired;
    report.closure_repaired = true;
    report.closure_hubs_added = static_cast<int>(missing_.size());
    for (const graph::EdgeCostDelta& d : deltas_) {
      key_edges_[static_cast<std::size_t>(d.edge)].cost = d.new_cost;
    }
    // The strict key follows the request: a later non-incremental acquire
    // must not falsely hit on a closure whose trees changed.
    key_hubs_ = hubs;
  } else {
    rebuild();
    last_kind_ = core::ClosureUpdate::Kind::kRebuilt;
    key_nodes_ = g.node_count();
    key_edges_.assign(edges.begin(), edges.end());
    key_hubs_ = hubs;
    key_targets_.assign(req.settle_targets.begin(), req.settle_targets.end());
  }
  report.closure_seconds = watch.seconds();
}

const graph::MetricClosure& ClosureSession::acquire(const graph::Graph& g,
                                                    const std::vector<NodeId>& hubs,
                                                    const ClosureRequest& req,
                                                    SolveReport& report) {
  acquire_with(
      g, hubs, req, valid_ ? &closure_ : nullptr, report,
      [&] {
        closure_.retain(hubs);
        closure_.refresh(g, deltas_, req.threads, &engine_, &row_changes_, req.runner);
        if (!missing_.empty()) closure_.extend(g, missing_, req.threads, &engine_, req.runner);
      },
      [&] {
        closure_.build(g, hubs, req.threads, &engine_, req.runner);
        valid_ = true;
        sharded_valid_ = false;  // the key storage no longer describes the sharded cache
      });
  report.closure_bytes = closure_.memory_bytes();
  return closure_;
}

const dist::ShardedClosure& ClosureSession::acquire_sharded(
    const graph::Graph& g, const std::vector<NodeId>& hubs, int controllers,
    const ClosureRequest& req, dist::MessageBus& bus, SolveReport& report) {
  assert(controllers >= 1);
  // Same exact key as acquire(), plus the controller count: a different k
  // means a different partition, different borders, a different exchange —
  // the cached shards describe nothing of the new deployment.
  const bool cached = sharded_valid_ && sharded_ != nullptr && sharded_k_ == controllers;
  acquire_with(
      g, hubs, req, cached ? &sharded_->closure() : nullptr, report,
      [&] {
        // Every re-exchanged row is charged on `bus` by the ShardedClosure
        // itself.  refresh clears `row_changes_` before filling it; extend
        // appends, so the combined list is this solve's pricing-
        // invalidation feed.
        sharded_->retain(hubs);
        if (!deltas_.empty()) sharded_->refresh(g, deltas_, req.threads, bus, &row_changes_);
        if (!missing_.empty()) sharded_->extend(g, hubs, req.threads, bus, &row_changes_);
      },
      [&] {
        // Cold rebuild: the coordinator re-partitions and ships each peer
        // its assignment (one protocol round), then the sharded build runs
        // its charged border/hub row exchange.
        dist::Partition part = dist::partition_bfs(g, controllers);
        if (controllers > 1) {
          bus.broadcast(static_cast<std::size_t>(controllers - 1),
                        static_cast<std::size_t>(g.node_count()));
          bus.end_round();
        }
        if (sharded_ == nullptr) sharded_ = std::make_unique<dist::ShardedClosure>();
        sharded_->build(g, std::move(part), hubs, req.settle_targets, req.threads, bus);
        sharded_k_ = controllers;
        sharded_valid_ = true;
        valid_ = false;  // the key storage no longer describes the plain cache
      });
  report.closure_bytes = sharded_->memory_bytes();
  return *sharded_;
}

ClosureEpoch ClosureSession::publish(const graph::Graph& g, const std::vector<NodeId>& hubs,
                                     const ClosureRequest& req, SolveReport& report) {
  // The outcome acquire records (hit / repair / rebuild) becomes the
  // epoch's advance, and the epoch reads the live closure itself: the
  // caller retires before the next acquire, so nothing writes it while
  // the epoch is out.
  (void)acquire(g, hubs, req, report);
  published_ = true;
  ++generation_;
  ClosureEpoch epoch;
  epoch.closure = &closure_;
  epoch.update = last_update();
  epoch.generation = generation_;
  return epoch;
}

template <typename BodyFn>
ServiceForest Solver::solve_reported(const Problem& p, const BodyFn& body) {
  assert(p.well_formed());
  report_ = SolveReport{};
  report_.solver = std::string(name());
  const util::Stopwatch watch;
  ServiceForest f = body();
  report_.total_seconds = watch.seconds();
  report_.feasible = !f.empty();
  report_.total_cost = report_.feasible ? core::total_cost(p, f) : 0.0;
  if (sink_ != nullptr) sink_->add(report_);
  return f;
}

ServiceForest Solver::solve(const Problem& p) {
  return solve_reported(p, [&] { return do_solve(p, report_); });
}

ServiceForest Solver::solve_epoch(const Problem& p, const ClosureEpoch& epoch) {
  assert((!wants_epoch_closure() || epoch.closure != nullptr) &&
         "this solver prices against the published closure");
  return solve_reported(p, [&] { return do_solve_epoch(p, epoch, report_); });
}

}  // namespace sofe::api
