#pragma once
// Repair-aware k-stroll pricing: the delta-driven candidate-chain cache
// (DESIGN.md §9).
//
// PR 4 made the metric closure incremental; on the paper-scale online
// panels the remaining per-arrival wall clock is k-stroll pricing, which
// the free functions redo from scratch every solve.  PricingSession
// extends the delta principle one layer up: it keeps every ChainPlan
// keyed per (source, last VM) across solves and consumes the same
// closure-change stream api::ClosureSession already computes —
// invalidating exactly the chains whose closure rows, lift paths or setup
// costs were touched, re-pricing those through the shared-block instance
// assembly (kstroll/pricing.hpp), and serving the rest from the table in
// place (chains() is a view into it).  The output is bitwise identical to
// core::price_candidate_chains at any thread count (tested, and asserted
// end-to-end by bench_fig12_online's differential run).
//
// Invalidation contract (proofs and the full case analysis in DESIGN.md
// §9):
//   * closure rebuilt, VM set / chain length / stroll algorithm changed,
//     or (|C| >= 2) ANY node setup cost changed -> every chain re-prices;
//   * (|C| >= 2) a repaired VM row changed at a VM
//                                               -> every chain re-prices
//     (the stroll solver reads the whole matrix, and the shared (VM, VM)
//     block is part of every instance);
//   * a repaired source row changed at a VM, or the source hub was
//     re-added after churning out (no deltas observed while absent)
//                                               -> that source's bucket
//     (|C| == 1: only the entries at the changed VMs — a 2-stroll reads
//     nothing but its own (source, u) entry, so single-VNF chains
//     invalidate row by row and survive VM-block churn);
//   * otherwise a chain re-prices only if some repaired row changed on
//     one of its lift-path segments — which catches the equal-cost
//     plateau trap where a parent flips while every distance survives;
//   * everything untouched                      -> cache hit, zero work.
//
// Twin runs (DESIGN.md §9): the online model hangs vms_per_dc VMs off each
// DC host by zero-cost links at one host price, so most re-priced chains
// have a twin whose chain is theirs up to renaming.  Every refresh() splits
// the VM list into runs of consecutive zero-cost taps of one host with
// bit-equal setup costs; on the shared-block path a re-priced entry whose
// run starts before it is filled by relabeling the run start's chain — no
// stroll solve, lift or cost sum — and the result is still bitwise the
// per-pair one.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "sofe/core/sofda.hpp"
#include "sofe/graph/metric_closure.hpp"
#include "sofe/kstroll/pricing.hpp"

namespace sofe::util {
class LaneRunner;
}  // namespace sofe::util

namespace sofe::core {

/// What happened to the metric closure since the previous refresh() on the
/// same session.  api::ClosureSession::last_update produces this from
/// every acquire; callers without delta knowledge pass rebuilt() — always
/// sound, never fast.  The spans must stay alive for the refresh() call.
struct ClosureUpdate {
  enum class Kind {
    kUnchanged,  // bitwise the same closure (cache hit)
    kRepaired,   // repaired in place; `rows` lists what may have changed
    kRebuilt,    // rebuilt from scratch (or unknown provenance): flush
  };
  Kind kind = Kind::kRebuilt;
  /// kRepaired: per-row over-approximated change sets (MetricClosure
  /// refresh output).  Rows not listed are bitwise unchanged.
  std::span<const graph::MetricClosure::RowDelta> rows;
  /// kRepaired: hubs (re)built by an incremental extend.  A re-added
  /// source hub observed no deltas while absent, so its bucket flushes.
  std::span<const NodeId> added_hubs;

  static ClosureUpdate unchanged() noexcept { return {Kind::kUnchanged, {}, {}}; }
  static ClosureUpdate rebuilt() noexcept { return {Kind::kRebuilt, {}, {}}; }
};

/// Per-refresh() cache-effect counters, surfaced through api::SolveReport
/// and the bench's per-phase breakdown.
struct PricingTally {
  int hits = 0;        // chains served from cache, bitwise unchanged
  int repriced = 0;    // chains re-priced (cold, invalidated, or flushed)
  int relabeled = 0;   //   of those, filled by relabeling a twin's chain
  bool flushed = false;  // this call dropped every cached chain
};

/// Session-scoped chain cache: one ChainPlan per (source, last VM), kept
/// across calls.  One PricingSession serves one logical stream of Problems
/// whose closure is maintained by one ClosureSession (api::SofdaSolver owns
/// exactly that pair, and the admission pipeline's publisher another);
/// refresh() must see every closure change exactly once via `update`.
/// Sessions are single-writer objects; `num_threads` parallelism happens
/// inside a refresh() call and is bit-identical to serial (lanes claim
/// sources, each writing only its own bucket — the same scheme as
/// core::price_candidate_chains).  Between refresh() calls any number of
/// threads may read the table through chains().
class PricingSession {
 public:
  /// Brings the table up to date for `sources`: serves cached chains that
  /// survived `update`, re-prices the rest in place.  Builds no output —
  /// read the result through chains().  Requires p.chain_length >= 1 and
  /// closure trees for every VM and every source.  Lanes past the caller's
  /// run on `runner` when one is given, else on fresh threads
  /// (util::fork_join); the admission pipeline passes its worker pool
  /// here (DESIGN.md §10).
  void refresh(const Problem& p, const graph::MetricClosure& closure,
               const std::vector<NodeId>& sources, const ClosureUpdate& update,
               const AlgoOptions& opt, int num_threads = 1, PricingTally* tally = nullptr,
               util::LaneRunner* runner = nullptr);

  /// refresh() followed by a copy of chains(sources): a drop-in replacement
  /// for core::price_candidate_chains (same canonical (source, last_vm)
  /// output order, bitwise-identical plans), for callers that need owned
  /// values.
  std::vector<PricedChain> price(const Problem& p, const graph::MetricClosure& closure,
                                 const std::vector<NodeId>& sources, const ClosureUpdate& update,
                                 const AlgoOptions& opt, int num_threads = 1,
                                 PricingTally* tally = nullptr,
                                 util::LaneRunner* runner = nullptr);

  /// The feasible chains of `sources` as the last refresh() left them, in
  /// canonical (source, last_vm) order: pointers into the table, no copies.
  /// Bitwise what price() would return for those sources (each plan's
  /// source and last_vm name its pair).  The pointers stay valid until the
  /// next refresh(), price() or price_epoch() on this session or its
  /// destruction; until then any number of threads may read them —
  /// the pipeline's workers solve against the publisher's epoch table this
  /// way (DESIGN.md §10).  Throws std::logic_error for a source whose
  /// bucket is missing (never priced, or evicted) or holds an entry the
  /// cache no longer knows (invalidated by a later refresh() that did not
  /// name the source).
  std::vector<const ChainPlan*> chains(const std::vector<NodeId>& sources) const;

  /// Per-slot fork-from-epoch mode, kept for the benchmark's
  /// single-threaded replay (the admission pipeline prices once per epoch
  /// on its publisher's session instead, DESIGN.md §10): slots price
  /// against ONE publisher-maintained closure whose change stream arrives
  /// once per epoch as (generation, update) — api::ClosureEpoch.  A
  /// session must see every closure change exactly once, but an epoch's
  /// update reaches every slot priced during it; this entry point dedups
  /// by generation so each epoch's movement is applied once:
  ///   * same generation as the previous call  -> the closure is bitwise
  ///     the one already observed: unchanged();
  ///   * exactly the next generation           -> `update` describes the
  ///     one-step advance: apply it;
  ///   * a gap, or the session's first epoch   -> this session missed at
  ///     least one epoch's row deltas (it priced nothing that epoch):
  ///     flush — sound, never fast.
  /// Mixing refresh() and price_epoch() on one session re-keys the cache to
  /// whichever closure came last: the next price_epoch after a plain
  /// refresh() flushes (first-epoch rule), and callers switching the other
  /// way pass ClosureUpdate::rebuilt() to their first refresh() — the epoch
  /// closure's changes are not in their own update stream.
  std::vector<PricedChain> price_epoch(const Problem& p, const graph::MetricClosure& closure,
                                       const std::vector<NodeId>& sources,
                                       std::uint64_t generation, const ClosureUpdate& update,
                                       const AlgoOptions& opt, int num_threads = 1,
                                       PricingTally* tally = nullptr);

  /// Cached chains currently held across all buckets (diagnostics).
  std::size_t cached_chains() const noexcept;

 private:
  struct Entry {
    enum class State : std::uint8_t { kUnknown, kFeasible, kInfeasible };
    State state = State::kUnknown;
    ChainPlan plan;
  };
  struct Bucket {
    std::vector<Entry> entries;  // indexed by position in the VM list
  };

  void flush_chains();
  void apply_update(const Problem& p, const ClosureUpdate& update, PricingTally& tally);
  bool lift_stale(const ChainPlan& plan);
  const std::vector<std::uint8_t>& row_marks(const graph::MetricClosure::RowDelta& row);
  void find_twin_runs(const Problem& p);
  void relabel(const Entry& from, std::size_t r, std::size_t j, Entry& to) const;
  void price_source(const Problem& p, const graph::MetricClosure& closure, NodeId s,
                    Bucket& bucket, kstroll::InstanceAssembler& assembler,
                    const AlgoOptions& opt, PricingTally& tally);

  // Epoch-mode state (price_epoch): the last generation whose update this
  // session consumed.  Reset by refresh() so mode switches never replay or
  // skip an update.
  bool epoch_seen_ = false;
  std::uint64_t epoch_generation_ = 0;

  // Session key: a mismatch on any of these is a structural change that
  // flushes everything (chains AND block).
  bool key_valid_ = false;
  NodeId key_nodes_ = 0;
  std::vector<NodeId> key_vms_;
  int key_chain_length_ = 0;
  kstroll::StrollAlgorithm key_stroll_ = kstroll::StrollAlgorithm::kCheapestInsertion;
  std::vector<Cost> node_cost_cache_;
  std::vector<Cost> source_setup_cache_;

  kstroll::SharedVmBlock block_;
  std::unordered_map<NodeId, std::size_t> vm_pos_;  // VM -> index in key_vms_
  // Per key_vms_ entry: the index of the first entry of its twin run
  // (itself when it starts one).  Recomputed by every refresh(): host
  // prices, and with them the setup-cost bits, move between calls.
  std::vector<std::size_t> run_start_;
  std::unordered_map<NodeId, Bucket> buckets_;

  std::vector<kstroll::InstanceAssembler> assemblers_;  // one per worker
  // apply_update scratch: VM membership marks, the row lookup, and
  // lazily-built per-row changed-node bitmaps for the lift-path checks.
  std::vector<std::uint8_t> vm_mark_;
  std::unordered_map<NodeId, const graph::MetricClosure::RowDelta*> row_of_;
  std::unordered_map<NodeId, std::vector<std::uint8_t>> row_mark_cache_;
};

}  // namespace sofe::core
