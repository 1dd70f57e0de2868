#include "sofe/core/pricing.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "sofe/util/fork_join.hpp"

namespace sofe::core {

void PricingSession::invalidate() {
  key_valid_ = false;
  buckets_.clear();
  block_.invalidate();
}

std::size_t PricingSession::cached_chains() const noexcept {
  std::size_t n = 0;
  for (const auto& [s, bucket] : buckets_) {
    (void)s;
    for (const Entry& e : bucket.entries) {
      if (e.state != Entry::State::kUnknown) ++n;
    }
  }
  return n;
}

void PricingSession::flush_chains() {
  // Keep buckets and their ChainPlan storage (capacity is the point of a
  // session); only the cached outcomes are dropped.
  for (auto& [s, bucket] : buckets_) {
    (void)s;
    for (Entry& e : bucket.entries) e.state = Entry::State::kUnknown;
  }
}

const std::vector<std::uint8_t>& PricingSession::row_marks(
    const graph::MetricClosure::RowDelta& row) {
  auto [it, fresh] = row_mark_cache_.try_emplace(row.hub);
  if (fresh) {
    it->second.assign(vm_mark_.size(), 0);
    for (NodeId x : row.nodes) it->second[static_cast<std::size_t>(x)] = 1;
  }
  return it->second;
}

bool PricingSession::lift_stale(const ChainPlan& plan) {
  // A cached plan's walk is its lift paths concatenated: segment i runs
  // from stroll node plan.nodes[prev] to plan.nodes[vnf_pos[i]] and was
  // read from closure.tree(plan.nodes[prev]).  The fresh lift reproduces
  // it bitwise iff no node ON the old segment changed (dist or parent) in
  // that row — walking unchanged parent pointers from an unchanged
  // endpoint retraces the old path (DESIGN.md §9).
  std::size_t prev = 0;
  for (std::size_t pos : plan.vnf_pos) {
    const NodeId a = plan.nodes[prev];
    const auto it = row_of_.find(a);
    if (it != row_of_.end()) {
      const graph::MetricClosure::RowDelta& row = *it->second;
      if (row.full) return true;
      const auto& marks = row_marks(row);
      for (std::size_t i = prev; i <= pos; ++i) {
        if (marks[static_cast<std::size_t>(plan.nodes[i])]) return true;
      }
    }
    prev = pos;
  }
  return false;
}

void PricingSession::apply_update(const Problem& p, const ClosureUpdate& update,
                                  PricingTally& tally) {
  const auto n = static_cast<std::size_t>(p.network.node_count());
  vm_mark_.assign(n, 0);
  for (NodeId v : key_vms_) vm_mark_[static_cast<std::size_t>(v)] = 1;
  row_of_.clear();          // previous call's pointers died with its spans
  row_mark_cache_.clear();

  // |C| == 1 means 2-strolls: the solve reads ONLY the (source, u) entry,
  // so the (VM, VM) block — and with it every VM row — is out of every
  // chain's read set and invalidation stays per (source row, entry).
  const bool row_only = key_chain_length_ == 1;

  // |C| >= 2: a changed VM row entry AT a VM changes the shared (VM, VM)
  // block, and with it every instance matrix — nothing survives.
  if (!row_only) {
    for (const auto& row : update.rows) {
      if (!vm_mark_[static_cast<std::size_t>(row.hub)]) continue;
      bool dirty = row.full;
      for (std::size_t i = 0; !dirty && i < row.nodes.size(); ++i) {
        dirty = vm_mark_[static_cast<std::size_t>(row.nodes[i])] != 0;
      }
      if (dirty) {
        flush_chains();
        block_.invalidate();
        tally.flushed = true;
        return;
      }
    }
  }

  for (const auto& row : update.rows) row_of_.emplace(row.hub, &row);

  // Re-added source hubs observed no deltas while evicted: flush their
  // buckets wholesale.
  for (NodeId h : update.added_hubs) {
    const auto it = buckets_.find(h);
    if (it == buckets_.end()) continue;
    for (Entry& e : it->second.entries) e.state = Entry::State::kUnknown;
  }

  for (auto& [s, bucket] : buckets_) {
    // A changed source row entry AT a VM changes that source's instance
    // matrix (including the reachability gate): the whole bucket flushes
    // when the stroll reads the full matrix, or — 2-strolls — exactly the
    // entries at the changed VMs.  Infeasible outcomes survive anything
    // weaker, feasible chains additionally need their lift paths
    // untouched.
    const auto it = row_of_.find(s);
    if (it != row_of_.end()) {
      const graph::MetricClosure::RowDelta& row = *it->second;
      if (row.full) {
        for (Entry& e : bucket.entries) e.state = Entry::State::kUnknown;
        continue;
      }
      if (row_only) {
        const auto& marks = row_marks(row);
        for (std::size_t j = 0; j < key_vms_.size(); ++j) {
          if (marks[static_cast<std::size_t>(key_vms_[j])]) {
            bucket.entries[j].state = Entry::State::kUnknown;
          }
        }
      } else {
        bool dirty = false;
        for (std::size_t i = 0; !dirty && i < row.nodes.size(); ++i) {
          dirty = vm_mark_[static_cast<std::size_t>(row.nodes[i])] != 0;
        }
        if (dirty) {
          for (Entry& e : bucket.entries) e.state = Entry::State::kUnknown;
          continue;
        }
      }
    }
    for (Entry& e : bucket.entries) {
      if (e.state == Entry::State::kFeasible && lift_stale(e.plan)) {
        e.state = Entry::State::kUnknown;
      }
    }
  }
}

void PricingSession::price_source(const Problem& p, const graph::MetricClosure& closure,
                                  NodeId s, Bucket& bucket,
                                  kstroll::InstanceAssembler& assembler, const AlgoOptions& opt,
                                  std::vector<PricedChain>& out, int& hits, int& repriced) {
  // The shared-block assembly needs the main construction (zero source
  // setup) and a source outside the VM set; anything else re-prices
  // through the per-pair builder — same results, just not as fast.
  const bool fast = !vm_pos_.contains(s) && p.source_cost(s) == 0.0;
  bool bound = false;
  for (std::size_t j = 0; j < key_vms_.size(); ++j) {
    const NodeId u = key_vms_[j];
    if (u == s) continue;
    Entry& e = bucket.entries[j];
    if (e.state == Entry::State::kUnknown) {
      ++repriced;
      if (fast) {
        // Mirrors plan_chain_walk: reachability gate, then the shared
        // Procedure-2 tail on the assembled instance.
        if (!closure.tree(s).reachable(u)) {
          e.plan = ChainPlan{};
          e.plan.source = s;
          e.plan.last_vm = u;
        } else {
          if (!bound) {
            assembler.bind_source(block_, closure, key_vms_, s);
            bound = true;
          }
          e.plan = plan_chain_walk_on(p, closure, assembler.with_last_vm(j, u, p.node_cost), opt);
        }
      } else {
        e.plan = plan_chain_walk(p, closure, s, key_vms_, u, opt);
      }
      e.state = e.plan.feasible() ? Entry::State::kFeasible : Entry::State::kInfeasible;
    } else {
      ++hits;
    }
    if (e.state == Entry::State::kFeasible) out.push_back(PricedChain{s, u, e.plan});
  }
}

std::vector<PricedChain> PricingSession::price(const Problem& p,
                                               const graph::MetricClosure& closure,
                                               const std::vector<NodeId>& sources,
                                               const ClosureUpdate& update,
                                               const AlgoOptions& opt, int num_threads,
                                               PricingTally* tally, util::LaneRunner* runner) {
  assert(p.well_formed());
  assert(p.chain_length >= 1 && "multicast-only problems have no chains to price");
  // A direct price() call leaves epoch mode: the caller's own update
  // stream now keys the cache, so the next price_epoch must flush.
  epoch_seen_ = false;
  PricingTally local;
  PricingTally& t = tally != nullptr ? *tally : local;
  t = PricingTally{};

  const std::vector<NodeId> vms = p.vms();
  const std::vector<NodeId> srcs = sorted_unique(sources);

  // --- 1. Session key: structural mismatches flush everything. ---
  const bool key_ok = key_valid_ && key_nodes_ == p.network.node_count() && key_vms_ == vms &&
                      key_chain_length_ == p.chain_length && key_stroll_ == opt.stroll &&
                      source_setup_cache_ == p.source_setup_cost;
  if (!key_ok) {
    buckets_.clear();
    block_.invalidate();
    key_valid_ = true;
    key_nodes_ = p.network.node_count();
    key_vms_ = vms;
    key_chain_length_ = p.chain_length;
    key_stroll_ = opt.stroll;
    source_setup_cache_ = p.source_setup_cost;
    node_cost_cache_ = p.node_cost;
    vm_pos_.clear();
    for (std::size_t j = 0; j < key_vms_.size(); ++j) vm_pos_.emplace(key_vms_[j], j);
    t.flushed = true;
  } else {
    // --- 2. Setup-cost deltas.  |C| >= 2: any changed node cost perturbs
    // the shared setup terms of every instance matrix — full flush.
    // |C| == 1: a 2-stroll's only entry carries only c(u), so just the
    // chains whose last VM's setup moved re-price.  (Only VM costs can
    // differ: well_formed pins switches to zero.) ---
    const bool row_only = key_chain_length_ == 1;
    const bool costs_changed = node_cost_cache_ != p.node_cost;
    if (update.kind == ClosureUpdate::Kind::kRebuilt || (costs_changed && !row_only)) {
      flush_chains();
      block_.invalidate();
      t.flushed = true;
    } else {
      if (costs_changed) {
        // The block's shared-setup terms go stale too, but a 2-stroll
        // never reads them — the block is invalidated on the key flush
        // that ends any |C| == 1 epoch.
        for (std::size_t j = 0; j < key_vms_.size(); ++j) {
          const auto v = static_cast<std::size_t>(key_vms_[j]);
          if (node_cost_cache_[v] == p.node_cost[v]) continue;
          for (auto& [s, bucket] : buckets_) {
            (void)s;
            bucket.entries[j].state = Entry::State::kUnknown;
          }
        }
      }
      if (update.kind == ClosureUpdate::Kind::kRepaired) {
        // --- 3. Closure repair: row-level and chain-level invalidation. ---
        apply_update(p, update, t);
      }
      // kUnchanged: the closure is bitwise the cached one; nothing to do.
    }
    if (costs_changed) node_cost_cache_ = p.node_cost;
  }

  // --- 4. Materialize buckets for the requested sources, and bound the
  // session: on a long stream of fresh random sources (the Inet-scale
  // panels) every bucket holds |M| cached plans, so churned-out sources
  // must not accumulate forever.  Evicting is always sound — a dropped
  // bucket simply re-prices cold on its next appearance. ---
  const std::size_t bucket_cap = std::max<std::size_t>(64, 4 * srcs.size());
  if (buckets_.size() > bucket_cap) {
    for (auto it = buckets_.begin(); it != buckets_.end();) {
      it = std::binary_search(srcs.begin(), srcs.end(), it->first) ? std::next(it)
                                                                   : buckets_.erase(it);
    }
  }
  for (NodeId s : srcs) {
    Bucket& b = buckets_[s];
    if (b.entries.size() != key_vms_.size()) b.entries.assign(key_vms_.size(), Entry{});
  }

  // --- 5. Shared block: (re)built once per call at most — the cost of
  // pricing ONE source the slow way buys the fast path for all of them. ---
  if (!block_.valid() && !key_vms_.empty()) {
    bool needed = false;
    for (NodeId s : srcs) {
      if (vm_pos_.contains(s) || p.source_cost(s) != 0.0) continue;
      const Bucket& b = buckets_.at(s);
      for (const Entry& e : b.entries) {
        if (e.state == Entry::State::kUnknown) {
          needed = true;
          break;
        }
      }
      if (needed) break;
    }
    if (needed) block_.build(closure, key_vms_, p.node_cost);
  }

  // --- 6. Price: same fixed source striping as price_candidate_chains,
  // so the concatenated buckets reproduce the serial output bit for bit
  // at any thread count. ---
  const int lanes = util::lane_count(num_threads, srcs.size());
  if (assemblers_.size() < static_cast<std::size_t>(lanes)) {
    assemblers_.resize(static_cast<std::size_t>(lanes));
  }
  std::vector<std::vector<PricedChain>> per_source(srcs.size());
  std::vector<int> per_hits(srcs.size(), 0);
  std::vector<int> per_repriced(srcs.size(), 0);

  if (lanes > 1) p.network.ensure_csr();  // lift queries only read; keep csr() race-free
  util::fork_join(lanes, runner, [&](int lane) {
    for (auto i = static_cast<std::size_t>(lane); i < srcs.size();
         i += static_cast<std::size_t>(lanes)) {
      price_source(p, closure, srcs[i], buckets_.at(srcs[i]),
                   assemblers_[static_cast<std::size_t>(lane)], opt, per_source[i], per_hits[i],
                   per_repriced[i]);
    }
  });

  std::vector<PricedChain> candidates;
  std::size_t total = 0;
  for (const auto& bucket : per_source) total += bucket.size();
  candidates.reserve(total);
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    for (PricedChain& c : per_source[i]) candidates.push_back(std::move(c));
    t.hits += per_hits[i];
    t.repriced += per_repriced[i];
  }
  return candidates;
}

std::vector<PricedChain> PricingSession::chains(const std::vector<NodeId>& sources) const {
  // Mirrors price_source's output loop over the cached outcomes, and
  // refuses what price_source would have re-priced: serving such an entry
  // would hand out a chain priced against some older closure.
  const std::vector<NodeId> srcs = sorted_unique(sources);
  std::vector<PricedChain> out;
  out.reserve(srcs.size() * key_vms_.size());
  for (NodeId s : srcs) {
    const auto it = buckets_.find(s);
    if (it == buckets_.end()) {
      throw std::logic_error("PricingSession::chains: source " + std::to_string(s) +
                             " was not priced");
    }
    assert(it->second.entries.size() == key_vms_.size() && "a key change clears every bucket");
    for (std::size_t j = 0; j < key_vms_.size(); ++j) {
      const NodeId u = key_vms_[j];
      if (u == s) continue;
      const Entry& e = it->second.entries[j];
      if (e.state == Entry::State::kUnknown) {
        throw std::logic_error("PricingSession::chains: the chain from source " +
                               std::to_string(s) + " to VM " + std::to_string(u) +
                               " was invalidated since it was priced");
      }
      if (e.state == Entry::State::kFeasible) out.push_back(PricedChain{s, u, e.plan});
    }
  }
  return out;
}

std::vector<PricedChain> PricingSession::price_epoch(const Problem& p,
                                                     const graph::MetricClosure& closure,
                                                     const std::vector<NodeId>& sources,
                                                     std::uint64_t generation,
                                                     const ClosureUpdate& update,
                                                     const AlgoOptions& opt, int num_threads,
                                                     PricingTally* tally) {
  // Generation dedup (pricing.hpp): the publisher hands the SAME update to
  // every worker that prices during an epoch, so only the first call of a
  // generation may apply it; a repeat sees an unchanged closure and a gap
  // (or a mode switch, or a brand-new session) flushes.
  ClosureUpdate effective = update;
  if (epoch_seen_ && generation == epoch_generation_) {
    effective = ClosureUpdate::unchanged();
  } else if (!epoch_seen_ || generation != epoch_generation_ + 1) {
    effective = ClosureUpdate::rebuilt();
  }
  auto out = price(p, closure, sources, effective, opt, num_threads, tally);
  epoch_seen_ = true;  // price() cleared it; this call stays in epoch mode
  epoch_generation_ = generation;
  return out;
}

}  // namespace sofe::core
