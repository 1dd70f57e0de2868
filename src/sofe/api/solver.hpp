#pragma once
// Unified solver session API (DESIGN.md §7; the delta-aware closure
// session is §8, the repair-aware pricing cache §9).
//
// Every embedding algorithm in the library — SOFDA, SOFDA-SS, the Section
// VIII baselines, the multi-controller pipeline and the exact solver — is
// exposed as a stateful `Solver` object with one uniform entry point,
// `solve(const Problem&) -> ServiceForest`.  A Solver is a *session*: it
// owns a persistent ShortestPathEngine and a MetricClosure cache that
// survive across solve() calls, so sequential workloads (the online
// simulator's arrival stream, bench sweeps over seeds) reuse workspaces
// instead of reallocating O(hubs · V) state per call, and an unchanged
// network + hub set skips closure construction entirely.
//
// The free functions (core::sofda, core::sofda_ss, baselines::run,
// dist::distributed_sofda, exact::solve_exact) remain as one-shot shims;
// solvers are obtained by name through the SolverRegistry (registry.hpp).

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sofe/core/chain_walk.hpp"
#include "sofe/core/forest.hpp"
#include "sofe/core/pricing.hpp"
#include "sofe/core/sofda.hpp"
#include "sofe/exact/solver.hpp"
#include "sofe/graph/metric_closure.hpp"
#include "sofe/graph/shortest_path_engine.hpp"

namespace sofe::dist {
class MessageBus;
class ShardedClosure;
}  // namespace sofe::dist

namespace sofe::util {
class LaneRunner;
}  // namespace sofe::util

namespace sofe::api {

using core::Cost;
using core::NodeId;
using core::Problem;
using core::ServiceForest;

/// Solver-wide tuning knobs.  Absorbs core::AlgoOptions and generalizes its
/// closure_threads into `threads`, the session-wide parallelism knob: it
/// drives both metric-closure construction and SOFDA candidate pricing.
/// Every parallel path is bit-identical to the serial one (tested), so
/// `threads` is purely a speed knob, never a results knob.
struct SolverOptions {
  kstroll::StrollAlgorithm stroll =
      kstroll::StrollAlgorithm::kCheapestInsertion;        // k-stroll solver variant
  steiner::Algorithm steiner = steiner::Algorithm::kMehlhorn;  // Steiner-tree variant
  bool shorten = true;  // apply the pass-through shortening post-step
  int threads = 1;      // solver-wide: closure build + chain pricing workers
  /// Delta-aware session cache (DESIGN.md §8): when only edge costs changed
  /// since the cached closure was built, repair its trees in place
  /// (ShortestPathEngine::repair) instead of rebuilding, and grow the hub
  /// set incrementally instead of keying on the exact hub sequence.  Like
  /// `threads` this is purely a speed knob: repaired trees are bit-identical
  /// to rebuilt ones (tested), so results never depend on it.  Off restores
  /// the strict rebuild-on-any-change session of the pre-incremental API
  /// (the bench's recomputing baseline).
  bool incremental = true;
  /// Repair-aware k-stroll pricing (DESIGN.md §9): SOFDA sessions keep a
  /// PricedChain cache per (source, last VM) that subscribes to the
  /// closure session's change stream — after a repair, only the chains
  /// whose hub rows, lift paths or setup costs were actually touched
  /// re-price (through the shared-block instance assembly); a rebuild
  /// flushes everything.  Like `incremental`, purely a speed knob:
  /// candidates are bitwise identical to the recomputing path at any
  /// thread count (tested, and re-asserted on every bench_fig12_online
  /// panel).  Off restores per-solve from-scratch pricing.
  bool incremental_pricing = true;
  /// Build session closures bounded: every hub tree stops once all hubs and
  /// all destinations are settled (run_into's stop targets).  Exact for every
  /// query SOFDA pricing and re-homing perform, and cheaper on large graphs
  /// with clustered hubs, but truncated trees cannot be repaired — bounded
  /// sessions rebuild on every cost change, so prefer `incremental` for
  /// arrival streams and `bounded_closure` for one-shot solves.
  bool bounded_closure = false;
  int retention_rows = 0;  // inert; remove at the next benchmark change
  exact::ExactLimits exact_limits;  // the "exact" solver's search budget

  /// View for the procedural (core/baselines/dist) layers.
  core::AlgoOptions algo() const {
    core::AlgoOptions o;
    o.stroll = stroll;
    o.steiner = steiner;
    o.shorten = shorten;
    o.closure_threads = threads;
    return o;
  }
};

/// Uniform per-solve diagnostics, filled by Solver::solve.  Absorbs
/// SofdaStats/ConflictStats (zeroed for non-SOFDA solvers) plus the
/// distributed protocol ledger, the exact-solver certificate and a timing
/// breakdown; fields a given solver does not produce stay at their defaults.
struct SolveReport {
  std::string solver;          // registry name of the solver that ran
  bool feasible = false;       // a non-empty forest was returned
  Cost total_cost = 0.0;       // core::total_cost of the returned forest

  core::SofdaStats sofda;      // SOFDA-family runs (incl. dist/*)

  int controllers = 0;         // dist/*: k actually used
  std::size_t messages = 0;    //   directed controller-to-controller messages
  std::size_t payload_items = 0;
  std::size_t payload_bytes = 0;  // honest wire size of those items
  int rounds = 0;

  bool optimal = false;        // exact: optimum proven within limits
  int bnb_nodes = 0;           //   branch-and-bound tree size

  bool closure_cache_hit = false;  // session cache: closure reused as-is
  bool closure_repaired = false;   //   cost deltas repaired in place
  int closure_hubs = 0;            //   hub count requested of the closure
  int closure_delta_edges = 0;     //   edges whose cost changed since cached
  int closure_hubs_added = 0;      //   hubs newly built by an incremental acquire

  int pricing_hits = 0;      // chains served from the pricing cache (§9)
  int pricing_repriced = 0;  //   chains re-priced this solve
  bool pricing_flushed = false;  //   this solve dropped every cached chain

  int closure_row_hits = 0;       // inert, always 0; remove at the next benchmark change
  int closure_rows_retained = 0;  // inert, always 0; remove at the next benchmark change
  int closure_rows_evicted = 0;   // inert, always 0; remove at the next benchmark change
  std::size_t closure_bytes = 0;  // session closure slab footprint after the acquire

  double closure_seconds = 0.0;  // hub-tree (re)construction or repair
  double pricing_seconds = 0.0;  // candidate-chain pricing (SOFDA)
  double solve_seconds = 0.0;    // everything after pricing
  double total_seconds = 0.0;    // full solve() wall time
};

/// Per-acquire parameters of the session closure cache.
struct ClosureRequest {
  int threads = 1;           // lane count, as in MetricClosure::build
  bool incremental = true;   // SolverOptions::incremental
  bool bounded = false;      // SolverOptions::bounded_closure
  /// Extra settle targets of a bounded build (SOFDA passes the
  /// destinations); ignored when !bounded.  The span must stay alive for
  /// the duration of the acquire call only.
  std::span<const NodeId> settle_targets;
  int retention = 0;  // inert; remove at the next benchmark change
  /// Where acquire() and publish() run the closure build, extend and
  /// refresh lanes past the calling thread's (util::fork_join); nullptr
  /// spawns fresh threads per call.  Non-owning, used during the call
  /// only; the admission pipeline lends its parked workers here (DESIGN.md
  /// §10).  acquire_sharded() ignores it.
  util::LaneRunner* runner = nullptr;
};

/// A published read-only closure epoch (DESIGN.md §10): the immutable
/// snapshot handle the admission pipeline's worker sessions solve against.
/// Produced by ClosureSession::publish, consumed by Solver::solve_epoch.
/// The closure pointer and the update spans stay valid — and safe for any
/// number of concurrent readers — until the publishing session's retire().
struct ClosureEpoch {
  const graph::MetricClosure* closure = nullptr;
  /// The snapshot advance from the previous epoch to this one, in the
  /// shape core::PricingSession consumes: what publish()'s acquire did.
  core::ClosureUpdate update;
  /// Monotone per-publisher epoch counter (1 = first publish), for
  /// PricingSession::price_epoch, which dedups the update by generation
  /// and flushes on gaps.  Only the benchmark's per-slot replay reads it;
  /// the admission pipeline prices once per epoch (`pricing`).
  std::uint64_t generation = 0;
  /// The epoch's priced chains: a session that priced every source of the
  /// epoch against `closure` with `update`, read through
  /// PricingSession::chains.  Non-owning and read-only; the admission
  /// pipeline sets it after publish() and keeps it valid until its next
  /// publish.  nullptr when nothing was priced (publish() itself, and a
  /// pipeline whose sessions run with incremental_pricing off): solvers
  /// then price from scratch against `closure`.
  const core::PricingSession* pricing = nullptr;
};

/// Session-scoped MetricClosure cache shared by the concrete solvers.
///
/// `acquire` returns a closure holding Dijkstra trees for `hubs` over `g`,
/// recomputing only what actually changed.  The cache key is the exact
/// (node count, edge list incl. costs, hub membership) value rather than
/// (graph pointer, Graph::version()): version counters travel with Problem
/// copies, so two graphs can carry the same version at the same address
/// with different link prices — an exact key is what makes the session safe
/// to point at any Problem.  The O(E + hubs) comparison is noise next to
/// one Dijkstra, and it is exactly what produces the arc-delta list the
/// incremental path feeds to MetricClosure::refresh.
///
/// Outcomes of an incremental acquire (DESIGN.md §8):
///   * hit        — same structure, same costs, every requested hub
///                  stored: reuse.  Stored extras are invisible to queries.
///   * repair     — same structure, few cost deltas: drop the rows the
///                  request does not name, repair the rest in place and
///                  build only the missing hubs.  Rows are request-scoped
///                  (DESIGN.md §13): no repair is spent on a row that no
///                  current request reads.
///   * rebuild    — structural change, hub-set cold start, or a delta list
///                  above the repair threshold (quarter of the edges: past
///                  that the affected regions approach whole trees and a
///                  rebuild's linear sweeps win).
/// Non-incremental sessions (SolverOptions::incremental = false) and
/// bounded closures key on the exact hub sequence (+ settle targets) and
/// only ever hit or rebuild.
class ClosureSession {
 public:
  ClosureSession();   // out of line: ShardedClosure is incomplete here
  ~ClosureSession();

  /// Updates report.closure_cache_hit/_repaired/_hubs/_delta_edges/
  /// _hubs_added and report.closure_seconds, and records the outcome for
  /// last_update().
  const graph::MetricClosure& acquire(const graph::Graph& g, const std::vector<NodeId>& hubs,
                                      const ClosureRequest& req, SolveReport& report);

  /// The sharded-mode acquire (DESIGN.md §11): the cached object is a
  /// dist::ShardedClosure over `controllers` domains, and every exchange a
  /// cold build or an incremental repair performs is charged on `bus` — the
  /// partition broadcast of a rebuild, the row exchange of the build, the
  /// dirtied-row re-exchange of a refresh, the new-row shipping of an
  /// extend.  Outcomes mirror acquire(): hit (same structure/costs/k, hubs
  /// present — nothing charged), repair (retain + refresh + extend on the
  /// sharded closure; incremental unbounded sessions only), rebuild
  /// (re-partition + full sharded build).  The repair's retain is
  /// request-scoped on every layer (DESIGN.md §13): stitched rows, local
  /// roots and advertisements of hubs no longer named all go, so a
  /// returning non-border source pays one local Dijkstra and, outside the
  /// coordinator's domain, one row exchange.  `req.settle_targets` names the
  /// problem's destinations — the sharded closure's advertisement targets,
  /// bounded or not.  Results are bit-identical to a fresh global closure
  /// at every k and thread count (tested), so sharing one session between
  /// plain and sharded acquires is safe; the two modes merely invalidate
  /// each other's cache.
  const dist::ShardedClosure& acquire_sharded(const graph::Graph& g,
                                              const std::vector<NodeId>& hubs, int controllers,
                                              const ClosureRequest& req, dist::MessageBus& bus,
                                              SolveReport& report);

  /// What the most recent acquire did to the cached closure, in the shape
  /// core::PricingSession consumes (DESIGN.md §9): hit -> unchanged,
  /// repair -> the per-row change sets from MetricClosure::refresh plus
  /// the hubs an incremental extend (re)built, rebuild -> flush.  The
  /// spans point into session storage overwritten by the next acquire.
  core::ClosureUpdate last_update() const noexcept {
    core::ClosureUpdate u;
    u.kind = last_kind_;
    u.rows = row_changes_;
    u.added_hubs = added_hubs_;
    return u;
  }

  /// Drops the cached closure (the next acquire rebuilds).  A published
  /// epoch is unaffected: it holds its own row references.
  void invalidate() {
    valid_ = false;
    sharded_valid_ = false;
  }

  /// Publishes the session closure as a read-only epoch (DESIGN.md §10):
  /// acquires exactly as acquire() would — hit, repair or rebuild — then
  /// snapshots the result by sharing row slabs copy-on-write
  /// (MetricClosure::snapshot_to, §13): O(rows) reference copies and slab
  /// pins, never a deep copy.  The handle N pipeline workers may query
  /// concurrently stays bitwise frozen even while the live session keeps
  /// acquiring — a repair relocates any row an epoch still pins before
  /// writing it — so publish/acquire no longer exclude each other; the
  /// caller must merely not mutate `g` while a reader is mid-query.
  ClosureEpoch publish(const graph::Graph& g, const std::vector<NodeId>& hubs,
                       const ClosureRequest& req, SolveReport& report);

  /// Ends the published epoch's sharing phase: drops the snapshot's row
  /// references and unpins its slabs (the caller guarantees no reader
  /// still dereferences the handle).  The cached closure itself is
  /// retained, so the next publish() repairs instead of rebuilding — and
  /// retiring BEFORE the next publish keeps that repair in place rather
  /// than copy-on-write.
  void retire() noexcept {
    epoch_closure_.release_rows();
    published_ = false;
  }

 private:
  /// The cache decision both acquires share: compares the exact key with
  /// (g, hubs, req), collects deltas_ and missing_, and decides hit,
  /// repair or rebuild — filling the report's closure tallies,
  /// last_update() and the key along the way.  `stored` is the mode's
  /// cached closure view (nullptr when that cache is invalid),
  /// `reusable` whether its flavour (bounded, k) fits the request, and
  /// `match_targets` whether the strict key includes the settle targets.
  /// Only the mode's own work is delegated: `repair` retains `hubs`,
  /// refreshes deltas_ and extends missing_; `rebuild` builds cold over
  /// `hubs` and sets the mode's validity flags.
  template <typename RepairFn, typename RebuildFn>
  void acquire_with(const graph::Graph& g, const std::vector<NodeId>& hubs,
                    const ClosureRequest& req, const graph::MetricClosure* stored, bool reusable,
                    bool match_targets, SolveReport& report, const RepairFn& repair,
                    const RebuildFn& rebuild);

  graph::MetricClosure closure_;
  graph::MetricClosure epoch_closure_;  // the published snapshot's row refs
  graph::ShortestPathEngine engine_;
  std::unique_ptr<dist::ShardedClosure> sharded_;  // sharded-mode cache (lazy)
  bool valid_ = false;
  bool sharded_valid_ = false;
  int sharded_k_ = 0;               // controller count the sharded cache was built for
  bool published_ = false;          // epoch handle outstanding (publish/retire)
  std::uint64_t generation_ = 0;    // epochs published by this session
  NodeId key_nodes_ = 0;
  std::vector<graph::Edge> key_edges_;
  std::vector<NodeId> key_hubs_;     // exact-sequence key (non-incremental/bounded)
  std::vector<NodeId> key_targets_;  // bounded: the settle-target sequence
  std::vector<graph::EdgeCostDelta> deltas_;  // scratch
  std::vector<NodeId> missing_;               // scratch
  // last_update() storage, rewritten per acquire.
  core::ClosureUpdate::Kind last_kind_ = core::ClosureUpdate::Kind::kRebuilt;
  std::vector<graph::MetricClosure::RowDelta> row_changes_;
  std::vector<NodeId> added_hubs_;
};

class ReportAccumulator;

/// Abstract solver session.  Concrete implementations live behind the
/// SolverRegistry; all of them are deterministic in (problem, options) and
/// produce results bit-identical to their free-function counterparts.
///
/// Sessions are single-threaded objects (one Solver per driving thread);
/// `threads` parallelism happens *inside* a solve call.
class Solver {
 public:
  /// A fresh session with the given knobs (caches start cold).
  explicit Solver(SolverOptions opt = {}) : opt_(opt) {}
  virtual ~Solver() = default;
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// The registry name this solver answers to (e.g. "sofda", "dist/k=4").
  virtual std::string_view name() const noexcept = 0;

  /// Embeds one instance.  Returns an empty forest when infeasible.
  /// Diagnostics for the call are available from report() until the next
  /// solve().
  ServiceForest solve(const Problem& p);

  /// Embeds one instance against a published closure epoch (DESIGN.md
  /// §10): instead of maintaining its own ClosureSession, the solver
  /// solves against `epoch.closure` — shared, read-only, covering every
  /// hub the instance needs — and reads its candidate chains from
  /// `epoch.pricing` when the epoch carries a table (else it prices them
  /// from scratch against the closure).  The session's own caches are
  /// left untouched.  Results are bit-identical to solve() on the same
  /// problem (the epoch is a cache, never an input).  Solvers that don't
  /// consume shared closures (wants_epoch_closure() == false) fall back
  /// to solve() semantics; callers may then skip publishing entirely.
  ServiceForest solve_epoch(const Problem& p, const ClosureEpoch& epoch);

  /// Whether solve_epoch actually reads the published closure and its
  /// priced chains.  The pipeline skips the per-epoch publish and pricing
  /// when no worker would use them.
  virtual bool wants_epoch_closure() const noexcept { return false; }

  const SolveReport& report() const noexcept { return report_; }

  /// Optional aggregation sink: every finished solve()'s report is folded
  /// into `sink` (report.hpp), so workloads that drive a session — the
  /// online simulator, the bench sweeps — get per-phase breakdowns for
  /// free.  Pass nullptr to detach.  The sink must outlive its use here.
  void set_report_sink(ReportAccumulator* sink) noexcept { sink_ = sink; }

  /// Live tuning knobs: mutations apply from the next solve() on (session
  /// caches detect semantic flips and restart cold where needed).
  SolverOptions& options() noexcept { return opt_; }
  const SolverOptions& options() const noexcept { return opt_; }

 protected:
  /// The algorithm body.  `report` arrives zeroed except for `solver`;
  /// feasible/total_cost/total_seconds are filled by the wrapper.
  virtual ServiceForest do_solve(const Problem& p, SolveReport& report) = 0;

  /// The epoch-mode body.  The default ignores the epoch and runs
  /// do_solve — correct for every solver (epochs are caches), merely
  /// missing the sharing; SofdaSolver overrides it to solve against the
  /// published closure and the epoch's priced chains.
  virtual ServiceForest do_solve_epoch(const Problem& p, const ClosureEpoch& epoch,
                                       SolveReport& report) {
    (void)epoch;
    return do_solve(p, report);
  }

  SolverOptions opt_;

 private:
  /// The report wrapper both entry points share: zeroes the report, runs
  /// `body` (do_solve or do_solve_epoch), then fills
  /// feasible/total_cost/total_seconds and feeds the sink.
  template <typename BodyFn>
  ServiceForest solve_reported(const Problem& p, const BodyFn& body);

  SolveReport report_;
  ReportAccumulator* sink_ = nullptr;
};

}  // namespace sofe::api
