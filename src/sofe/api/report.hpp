#pragma once
// SolveReport aggregation over a session's lifetime (DESIGN.md §8, with
// the pricing-cache tallies of §9).
//
// Every Solver::solve fills a SolveReport with a closure/pricing/solve/total
// timing breakdown plus the session-cache outcomes (closure hit / repaired /
// rebuilt, pricing chains cached / re-priced).  A ReportAccumulator folds
// those reports into per-phase count/mean/p50/p95 summaries, so the online
// simulator and the bench harnesses print phase breakdowns without any
// per-call bookkeeping of their own: attach one accumulator per solver via
// Solver::set_report_sink and read it after the workload.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sofe/api/solver.hpp"

namespace sofe::api {

/// Order-insensitive summary of one timing series (seconds).  Percentiles
/// use the nearest-rank definition: p_q = sorted[ceil(q * count)] (1-based),
/// so p50 of {1, 2, 3, 4} is 2 and p95 of 100 samples is the 95th.
struct PhaseSummary {
  std::size_t count = 0;  // samples folded in (== solves when attached throughout)
  double total = 0.0;     // sum of all samples
  double mean = 0.0;      // total / count (0 when empty)
  double p50 = 0.0;       // nearest-rank median
  double p95 = 0.0;       // nearest-rank 95th percentile
  double min = 0.0;       // smallest sample
  double max = 0.0;       // largest sample
};

class ReportAccumulator {
 public:
  /// Folds one solve's report in (phase samples + cache/feasibility tallies).
  void add(const SolveReport& r) {
    closure_.push_back(r.closure_seconds);
    pricing_.push_back(r.pricing_seconds);
    solve_.push_back(r.solve_seconds);
    total_.push_back(r.total_seconds);
    if (r.closure_cache_hit) ++cache_hits_;
    if (r.closure_repaired) ++repairs_;
    if (!r.feasible) ++infeasible_;
    pricing_hits_ += static_cast<std::size_t>(r.pricing_hits);
    pricing_repriced_ += static_cast<std::size_t>(r.pricing_repriced);
    pricing_relabeled_ += static_cast<std::size_t>(r.pricing_relabeled);
    if (r.pricing_flushed) ++pricing_flushes_;
    peak_closure_bytes_ = std::max(peak_closure_bytes_, r.closure_bytes);
  }

  /// Folds in pricing done outside any solve: online::Pipeline prices each
  /// epoch's sources once on its publisher (DESIGN.md §10), and its commit
  /// stage adds that call's tally here once per epoch.
  void add_pricing(const core::PricingTally& t) {
    pricing_hits_ += static_cast<std::size_t>(t.hits);
    pricing_repriced_ += static_cast<std::size_t>(t.repriced);
    pricing_relabeled_ += static_cast<std::size_t>(t.relabeled);
    if (t.flushed) ++pricing_flushes_;
  }

  /// Pipeline phases (DESIGN.md §10), sampled by online::Pipeline's commit
  /// stage rather than by solvers: how long an arrival sat claimable in
  /// the queue before a worker picked it up, and its share of the epoch's
  /// commit-stage turn (admission decision + ledger charge).
  void add_queue_wait(double seconds) { queue_wait_.push_back(seconds); }
  void add_commit(double seconds) { commit_.push_back(seconds); }

  /// Resets the accumulator to its freshly-constructed state.
  void clear() { *this = ReportAccumulator{}; }

  /// Reports folded in so far.
  std::size_t solves() const noexcept { return total_.size(); }
  /// Solves whose closure was reused bitwise (SolveReport::closure_cache_hit).
  std::size_t cache_hits() const noexcept { return cache_hits_; }
  /// Solves whose closure was repaired in place (closure_repaired).
  std::size_t repairs() const noexcept { return repairs_; }
  /// Solves that neither hit the cache nor repaired it (cold or full-rebuild
  /// closures, and solvers without a session cache).
  std::size_t rebuilds() const noexcept { return solves() - cache_hits_ - repairs_; }
  /// Solves that returned an empty forest.
  std::size_t infeasible() const noexcept { return infeasible_; }
  /// Chains served from the pricing cache across all solves and epoch
  /// pricings (DESIGN.md §9).
  std::size_t pricing_hits() const noexcept { return pricing_hits_; }
  /// Chains re-priced across all solves and epoch pricings (cold,
  /// invalidated, or flushed).
  std::size_t pricing_repriced() const noexcept { return pricing_repriced_; }
  /// The re-priced chains filled by relabeling a twin's chain instead of
  /// a k-stroll solve (a subset of pricing_repriced(); DESIGN.md §9).
  std::size_t pricing_relabeled() const noexcept { return pricing_relabeled_; }
  /// Solves and epoch pricings on which the pricing cache dropped every
  /// cached chain.
  std::size_t pricing_flushes() const noexcept { return pricing_flushes_; }
  /// Largest per-solve closure slab footprint seen (closure_bytes max;
  /// DESIGN.md §13).
  std::size_t peak_closure_bytes() const noexcept { return peak_closure_bytes_; }

  /// Summary of the closure (re)build/repair phase, seconds.
  PhaseSummary closure() const { return summarize(closure_); }
  /// Summary of the candidate-chain pricing phase, seconds.
  PhaseSummary pricing() const { return summarize(pricing_); }
  /// Summary of everything after pricing, seconds.
  PhaseSummary solve() const { return summarize(solve_); }
  /// Summary of full solve() wall time, seconds.
  PhaseSummary total() const { return summarize(total_); }
  /// Summary of arrival queue wait, seconds (pipeline workloads; empty
  /// count for sequential drivers).
  PhaseSummary queue_wait() const { return summarize(queue_wait_); }
  /// Summary of per-arrival commit-stage time, seconds (pipeline).
  PhaseSummary commit() const { return summarize(commit_); }

 private:
  static PhaseSummary summarize(std::vector<double> samples) {
    PhaseSummary s;
    s.count = samples.size();
    if (samples.empty()) return s;
    std::sort(samples.begin(), samples.end());
    for (double v : samples) s.total += v;
    s.mean = s.total / static_cast<double>(s.count);
    const auto rank = [&](double q) {
      const auto i = static_cast<std::size_t>(
          std::max<long long>(0, static_cast<long long>(q * static_cast<double>(s.count) + 0.999999) - 1));
      return samples[std::min(i, s.count - 1)];
    };
    s.p50 = rank(0.50);
    s.p95 = rank(0.95);
    s.min = samples.front();
    s.max = samples.back();
    return s;
  }

  std::vector<double> closure_, pricing_, solve_, total_;
  std::vector<double> queue_wait_, commit_;
  std::size_t cache_hits_ = 0;
  std::size_t repairs_ = 0;
  std::size_t infeasible_ = 0;
  std::size_t pricing_hits_ = 0;
  std::size_t pricing_repriced_ = 0;
  std::size_t pricing_relabeled_ = 0;
  std::size_t pricing_flushes_ = 0;
  std::size_t peak_closure_bytes_ = 0;
};

}  // namespace sofe::api
