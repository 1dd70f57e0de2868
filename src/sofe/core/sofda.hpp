#pragma once
// SOFDA (Algorithm 2): the 3ρST-approximation for the general SOF problem
// with multiple sources (Section V).
//
// Pipeline:
//   1. price every candidate service chain (source v -> last VM u) by a
//      (|C|+1)-stroll on the Procedure-1 metric instance;
//   2. build the auxiliary Steiner instance Ĝ (Procedure 3): a virtual
//      source ŝ, zero-cost edges to source duplicates v̂, virtual edges
//      (v̂, û) priced by the chains, and zero-cost edges û -> u;
//   3. find a Steiner tree over {ŝ} ∪ D (cost ≤ 3ρST · OPT by Lemma 2);
//   4. deploy the chain of every selected virtual edge, resolving VNF
//      conflicts (Procedure 4) without adding links or enabling new VMs;
//   5. route each destination along T ∩ G from its chain's last VM.

#include <span>
#include <vector>

#include "sofe/core/chain_walk.hpp"
#include "sofe/core/conflict.hpp"
#include "sofe/core/forest.hpp"

namespace sofe::core {

struct SofdaStats {
  ConflictStats conflicts;
  int candidate_chains = 0;   // feasible (source, last VM) pairs priced
  int deployed_chains = 0;    // virtual edges selected by the Steiner tree
  int rehomed_destinations = 0;  // served via the drop-fallback (0 in practice)
  Cost steiner_tree_cost = 0.0;  // cost of T in Ĝ (the 3ρST·OPT certificate)
};

/// Runs SOFDA.  Returns an empty forest when the instance is infeasible
/// (no destinations, or no source can reach a full chain and a destination).
/// A one-shot: it builds a fresh closure and prices from scratch; the
/// repair-aware chain cache (core::PricingSession, DESIGN.md §9) lives in
/// api::Solver sessions.
ServiceForest sofda(const Problem& p, const AlgoOptions& opt = {},
                    SofdaStats* stats = nullptr);

/// One priced candidate service chain: a feasible (source, last VM) pair and
/// its Procedure-2 walk plan.  The unit of exchange between controllers in
/// the multi-controller pipeline (Section VI).
struct PricedChain {
  NodeId source = graph::kInvalidNode;
  NodeId last_vm = graph::kInvalidNode;
  ChainPlan plan;
};

/// Step 1 of SOFDA exposed as a standalone phase: prices every feasible
/// (source, last VM) chain for the given sources.  Sources are deduplicated
/// and processed in ascending order, so candidates come back in canonical
/// (source, last_vm) order regardless of the caller's grouping — merging the
/// outputs of several calls over disjoint source sets and sorting by
/// (source, last_vm) reproduces exactly what one call over the union yields.
/// `closure` must hold Dijkstra trees for every source and every VM.
///
/// `num_threads` > 1 prices sources in parallel: pricing is embarrassingly
/// parallel over sources (each k-stroll reads only the shared, read-only
/// closure), so lanes claim sources one by one and each source's
/// candidates land in a preassigned bucket; concatenating the buckets in
/// ascending-source order reproduces the serial output bit for bit at any
/// thread count (tested).  Values < 1 are clamped to 1.
///
/// This is the from-scratch reference.  The repair-aware chain cache
/// (PricingSession, pricing.hpp, DESIGN.md §9) returns bitwise the same
/// chains; sessions that solve right away read them in place through
/// PricingSession::chains instead of copying.
std::vector<PricedChain> price_candidate_chains(const Problem& p,
                                                const graph::MetricClosure& closure,
                                                const std::vector<NodeId>& sources,
                                                const AlgoOptions& opt = {},
                                                int num_threads = 1);

/// Coordinator-side merge of per-controller pricing outputs: restores the
/// canonical (source, last_vm) order a single price_candidate_chains call
/// over the union of the source sets emits.  Because each per-controller
/// call already emits canonically and the controllers' source sets are
/// disjoint, merging then feeding sofda_from_candidates reproduces the
/// centralized run bit for bit — the distributed driver's certificate
/// argument rests on this.
void merge_priced_chains(std::vector<PricedChain>& chains);

/// Steps 2-5 of SOFDA (auxiliary graph, Steiner tree, deployment, walks)
/// given already-priced feasible candidates in canonical (source, last_vm)
/// order, each naming its pair through ChainPlan::source / last_vm (a
/// source of `p` and a VM).  The plans are read, never copied, during the
/// call only — PricingSession::chains hands its table over this way.
/// `closure` must hold trees for every candidate's last VM (used by the
/// drop-fallback re-homing) and, with `opt.shorten`, for every source, each
/// row exact toward the VMs and destinations (shorten_pass_through's
/// precondition, which every complete closure meets).
/// Requires chain_length >= 1.  Throws std::invalid_argument for a
/// candidate whose source or last VM is not one of `p`'s.
ServiceForest sofda_from_candidates(const Problem& p, const graph::MetricClosure& closure,
                                    std::span<const ChainPlan* const> candidates,
                                    const AlgoOptions& opt = {}, SofdaStats* stats = nullptr);

/// Adapter for callers holding owned values (the multi-controller merge, the
/// one-shot core::sofda and the benchmark's replay): solves over pointers to
/// each candidate's plan.
ServiceForest sofda_from_candidates(const Problem& p, const graph::MetricClosure& closure,
                                    const std::vector<PricedChain>& candidates,
                                    const AlgoOptions& opt = {}, SofdaStats* stats = nullptr);

}  // namespace sofe::core
