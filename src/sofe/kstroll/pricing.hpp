#pragma once
// Incremental Procedure-1 instance assembly for repair-aware pricing
// (DESIGN.md §9).
//
// SOFDA prices every (source, last VM) pair on a Procedure-1 metric
// instance over V = M ∪ {s}.  Under the paper's main construction
// (source_setup == 0) the instance decomposes:
//
//   * the (VM, VM) sub-matrix — base distance plus the shared-setup term
//     (c(v1) + c(v2))/2 — depends on neither the source NOR the last VM,
//     so ONE dense block serves every pair of every source;
//   * the source row depends on the source (base distances d(s, ·)) and on
//     the last VM u (the (c(u) + c(v))/2 share), i.e. O(|M|) values per
//     pair instead of O(|M|²).
//
// build_stroll_instance recomputes the full matrix per pair — with one
// closure hash lookup per entry and a fresh (|M|+1)² matrix per call.  On
// an online arrival stream that construction dominates SOFDA's wall clock;
// the classes here assemble bitwise-identical instances (tested) from a
// session-cached block: SharedVmBlock is rebuilt only when a VM's setup
// cost or a closure row changed at a VM, InstanceAssembler copies it once
// per source and rewrites only the source row per last VM, reusing all
// storage.  core::PricingSession drives both across arrivals.
//
// Twin VMs — zero-cost taps of one host with bit-equal setup costs, the
// online model's vms_per_dc VMs per DC — have equal rows and columns in
// every instance, so the instance for one twin as last VM is the other's
// with the twins' indices permuted.  core::PricingSession therefore
// assembles one instance per (source, run of adjacent twins) and relabels
// the run's other chains instead of assembling theirs (DESIGN.md §9).

#include <vector>

#include "sofe/kstroll/instance.hpp"

namespace sofe::kstroll {

/// The source-independent (VM, VM) sub-matrix of every main-construction
/// Procedure-1 instance: values()[i * size() + j] is the instance edge cost
/// between vms[i] and vms[j] (0 on the diagonal).  Entry (i, j) with i < j
/// reads closure.tree(vms[i]) exactly like build_stroll_instance reads the
/// lower-indexed instance node's row, so the block is bitwise what the
/// per-pair build computes.
class SharedVmBlock {
 public:
  /// Rebuilds the block in place (storage reused).  `closure` must hold a
  /// tree for every node of `vms`; `node_cost[v]` is the setup cost c(v).
  void build(const MetricClosure& closure, const std::vector<NodeId>& vms,
             const std::vector<Cost>& node_cost);

  /// Drops the cached values; valid() turns false until the next build.
  void invalidate() noexcept { valid_ = false; }

  bool valid() const noexcept { return valid_; }

  /// Number of VMs the block covers (row/column count).
  std::size_t size() const noexcept { return m_; }

  /// Row-major size() x size() values; meaningful only while valid().
  const std::vector<Cost>& values() const noexcept { return values_; }

 private:
  std::vector<Cost> values_;
  std::size_t m_ = 0;
  bool valid_ = false;
};

/// Per-thread workspace that assembles the full StrollInstance for one
/// (source, last VM) pair from a SharedVmBlock: bind_source() copies the
/// block and reads the source's base distances once, with_last_vm()
/// rewrites only the source row/column and the last index.  The returned
/// instance is bitwise equal to
///   build_stroll_instance(g, closure, s, vms, u, node_cost, 0.0)
/// for every u (tested) — preconditions: s ∉ vms and zero source setup
/// (callers with s ∈ vms or Appendix-D source costs use the per-pair
/// builder instead).
class InstanceAssembler {
 public:
  /// Binds the workspace to source `s`: nodes become [s] + vms, the VM
  /// block is copied in, and d(s, vms[j]) is read from closure.tree(s).
  /// `block` must be valid and built over this same `vms`/`closure` state.
  void bind_source(const SharedVmBlock& block, const MetricClosure& closure,
                   const std::vector<NodeId>& vms, NodeId s);

  /// True after bind_source until the next bind_source (diagnostics).
  bool bound() const noexcept { return bound_; }

  /// Rewrites the source row for last VM `u` (instance index `vm_index`+1
  /// into the bound vms order) and returns the assembled instance.  The
  /// reference is invalidated by the next with_last_vm/bind_source call.
  const StrollInstance& with_last_vm(std::size_t vm_index, NodeId u,
                                     const std::vector<Cost>& node_cost);

 private:
  StrollInstance inst_;
  std::vector<Cost> base_row_;  // d(s, vms[j]), read once per bind
  bool bound_ = false;
};

}  // namespace sofe::kstroll
