#include "sofe/api/registry.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <stdexcept>
#include <utility>

#include "sofe/baselines/baselines.hpp"
#include "sofe/core/sofda_ss.hpp"
#include "sofe/dist/dist_sofda.hpp"
#include "sofe/util/stopwatch.hpp"

namespace sofe::api {

namespace {

/// SOFDA as a session: the closure over {VMs} ∪ {sources} persists across
/// solves (hub order matches core::sofda, so results are bit-identical to
/// the free function), pricing fans out over SolverOptions::threads, and
/// the chain cache rides the closure session's change stream so a repaired
/// arrival re-prices only the touched chains, and the solve reads them in
/// place (DESIGN.md §9).  solve_epoch reads the publisher's table in place
/// instead and touches neither cache (§10).
class SofdaSolver final : public Solver {
 public:
  SofdaSolver(SolverOptions opt, std::string name) : Solver(opt), name_(std::move(name)) {}

  std::string_view name() const noexcept override { return name_; }

  bool wants_epoch_closure() const noexcept override { return true; }

 protected:
  ServiceForest do_solve(const Problem& p, SolveReport& r) override {
    if (p.destinations.empty()) return {};
    if (p.chain_length == 0) {
      // Pure multicast: no chains to price, no closure to cache.
      return core::sofda(p, opt_.algo(), &r.sofda);
    }
    std::vector<NodeId> hubs = p.vms();
    hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
    ClosureRequest req;
    req.threads = opt_.threads;
    req.incremental = opt_.incremental;
    const auto& closure = session_.acquire(p.network, hubs, req, r);
    return price_and_solve(p, closure, r, [&](core::PricingTally& tally) {
      // The pricing cache must observe every closure change exactly once;
      // acquire() just ran, so last_update() is this solve's delta.
      pricing_.refresh(p, closure, p.sources, session_.last_update(), opt_.algo(), opt_.threads,
                       &tally);
      return pricing_.chains(p.sources);
    });
  }

  ServiceForest do_solve_epoch(const Problem& p, const ClosureEpoch& epoch,
                               SolveReport& r) override {
    if (p.destinations.empty()) return {};
    if (p.chain_length == 0) {
      // Pure multicast: the closure epoch is irrelevant.
      return core::sofda(p, opt_.algo(), &r.sofda);
    }
    // The published closure replaces the session's own: it covers the
    // union of every hub any worker of the epoch needs (the publisher
    // guarantees this), and union extras are invisible to queries — so
    // candidates and forests are bit-identical to do_solve on the same
    // problem.
    const graph::MetricClosure& closure = *epoch.closure;
    assert(closure.is_hub(p.sources.front()) && "publisher must cover the epoch's hubs");
    r.closure_hubs = static_cast<int>(closure.hub_count());
    r.closure_cache_hit = epoch.update.kind == core::ClosureUpdate::Kind::kUnchanged;
    r.closure_repaired = epoch.update.kind == core::ClosureUpdate::Kind::kRepaired;
    assert(epoch.pricing != nullptr && "an epoch solve reads the publisher's pricing table");
    return price_and_solve(p, closure, r, [&](core::PricingTally&) {
      // Priced once per epoch by the publisher (DESIGN.md §10): this solve
      // reads its sources' chains in place and re-prices nothing.
      return epoch.pricing->chains(p.sources);
    });
  }

 private:
  /// The tail both entry points share: take the candidate chains in place
  /// from `chains_view` (pointers into a pricing table), then run
  /// sofda_from_candidates over them.
  template <typename ChainsViewFn>
  ServiceForest price_and_solve(const Problem& p, const graph::MetricClosure& closure,
                                SolveReport& r, const ChainsViewFn& chains_view) {
    util::Stopwatch watch;
    core::PricingTally tally;
    const std::vector<const core::ChainPlan*> candidates = chains_view(tally);
    r.pricing_hits = tally.hits;
    r.pricing_repriced = tally.repriced;
    r.pricing_relabeled = tally.relabeled;
    r.pricing_flushed = tally.flushed;
    r.pricing_seconds = watch.seconds();
    watch.reset();
    ServiceForest f = core::sofda_from_candidates(p, closure, candidates, opt_.algo(), &r.sofda);
    r.solve_seconds = watch.seconds();
    return f;
  }

  std::string name_;
  ClosureSession session_;
  core::PricingSession pricing_;
};

/// SOFDA-SS session over p.sources.front(); the closure over
/// {VMs} ∪ {source} persists across solves.
class SofdaSsSolver final : public Solver {
 public:
  using Solver::Solver;

  std::string_view name() const noexcept override { return "sofda-ss"; }

 protected:
  ServiceForest do_solve(const Problem& p, SolveReport& r) override {
    if (p.destinations.empty()) return {};
    const NodeId source = p.sources.front();
    std::vector<NodeId> hubs = p.vms();
    hubs.push_back(source);
    ClosureRequest req;
    req.threads = opt_.threads;
    req.incremental = opt_.incremental;
    const auto& closure = session_.acquire(p.network, hubs, req, r);
    util::Stopwatch watch;
    ServiceForest f = core::sofda_ss(p, source, closure, opt_.algo());
    r.solve_seconds = watch.seconds();
    return f;
  }

 private:
  ClosureSession session_;
};

/// Thin adapters over the remaining free functions; the uniform Solver
/// surface (options, report, registry selection) is the point here.
class BaselineSolver final : public Solver {
 public:
  BaselineSolver(SolverOptions opt, baselines::Kind kind, std::string name)
      : Solver(opt), kind_(kind), name_(std::move(name)) {}

  std::string_view name() const noexcept override { return name_; }

 protected:
  ServiceForest do_solve(const Problem& p, SolveReport& r) override {
    util::Stopwatch watch;
    ServiceForest f = baselines::run(p, kind_, opt_.algo());
    r.solve_seconds = watch.seconds();
    return f;
  }

 private:
  baselines::Kind kind_;
  std::string name_;
};

/// Multi-controller SOFDA as a session: the sharded closure (DESIGN.md §11)
/// persists across solves through ClosureSession::acquire_sharded, so an
/// arrival stream's repeated solves repair the per-domain shards and
/// re-exchange only dirtied border rows instead of rebuilding and
/// re-shipping the whole advertisement every call.  Every exchange — cold
/// or incremental — is charged on a per-solve MessageBus, and results stay
/// bit-identical to the free dist::distributed_sofda at any k and thread
/// count (tested).
class DistSolver final : public Solver {
 public:
  DistSolver(SolverOptions opt, int controllers)
      : Solver(opt),
        controllers_(controllers),
        name_("dist/k=" + std::to_string(controllers)) {}

  std::string_view name() const noexcept override { return name_; }

 protected:
  ServiceForest do_solve(const Problem& p, SolveReport& r) override {
    const int n = static_cast<int>(p.network.node_count());
    const int k = std::clamp(controllers_, 1, std::max(n, 1));
    if (k == 1 || p.chain_length == 0 || p.destinations.empty()) {
      // One controller or a pipeline-less instance: centralized, no
      // protocol, nothing worth caching across solves.
      util::Stopwatch watch;
      auto result = dist::distributed_sofda(p, k, opt_.algo());
      r.solve_seconds = watch.seconds();
      fill(r, result);
      return std::move(result.forest);
    }

    dist::MessageBus bus;
    std::vector<NodeId> hubs = p.vms();
    hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
    ClosureRequest req;
    req.threads = opt_.threads;
    req.incremental = opt_.incremental;
    req.settle_targets = p.destinations;  // the sharded advertisement targets
    const dist::ShardedClosure& sc = session_.acquire_sharded(p.network, hubs, k, req, bus, r);

    util::Stopwatch watch;
    auto result = dist::distributed_sofda_with(p, sc, bus, opt_.algo());
    r.solve_seconds = watch.seconds();
    fill(r, result);
    return std::move(result.forest);
  }

 private:
  static void fill(SolveReport& r, const dist::DistSofdaResult& result) {
    r.sofda = result.stats;
    r.controllers = result.controllers;
    r.messages = result.messages;
    r.payload_items = result.payload_items;
    r.payload_bytes = result.payload_bytes;
    r.rounds = result.rounds;
  }

  int controllers_;
  std::string name_;
  ClosureSession session_;
};

class ExactSolver final : public Solver {
 public:
  using Solver::Solver;

  std::string_view name() const noexcept override { return "exact"; }

 protected:
  ServiceForest do_solve(const Problem& p, SolveReport& r) override {
    util::Stopwatch watch;
    auto result = exact::solve_exact(p, opt_.exact_limits);
    r.solve_seconds = watch.seconds();
    r.optimal = result.optimal;
    r.bnb_nodes = result.bnb_nodes;
    // A truncated search still returns its best incumbent (empty only when
    // the instance is genuinely infeasible or no incumbent was found);
    // report().optimal distinguishes proven from best-so-far.
    return std::move(result.forest);
  }
};

/// Parses the k of "dist/k=<int>"; returns 0 when `name` is not of that
/// form (k >= 1 on success).
int parse_dist_controllers(std::string_view name) {
  constexpr std::string_view kPrefix = "dist/k=";
  if (!name.starts_with(kPrefix)) return 0;
  const std::string_view num = name.substr(kPrefix.size());
  int k = 0;
  const auto [ptr, ec] = std::from_chars(num.data(), num.data() + num.size(), k);
  if (ec != std::errc{} || ptr != num.data() + num.size() || k < 1) return 0;
  return k;
}

void register_builtins(SolverRegistry& reg) {
  reg.add("sofda", "SOFDA (Algorithm 2): 3rhoST-approximation, multi-source",
          [](const SolverOptions& opt) { return std::make_unique<SofdaSolver>(opt, "sofda"); });
  reg.add("sofda/exact-stroll", "SOFDA with the exact-DP k-stroll oracle",
          [](const SolverOptions& opt) {
            SolverOptions o = opt;
            o.stroll = kstroll::StrollAlgorithm::kExactDp;
            return std::make_unique<SofdaSolver>(o, "sofda/exact-stroll");
          });
  reg.add("sofda-ss", "SOFDA-SS (Algorithm 1): single-source (2+rhoST)-approximation",
          [](const SolverOptions& opt) { return std::make_unique<SofdaSsSolver>(opt); });
  reg.add("baseline/st", "ST: best single Steiner tree + grafted service chain",
          [](const SolverOptions& opt) {
            return std::make_unique<BaselineSolver>(opt, baselines::Kind::kSt, "baseline/st");
          });
  reg.add("baseline/est", "eST: ST + iterative multi-source extension",
          [](const SolverOptions& opt) {
            return std::make_unique<BaselineSolver>(opt, baselines::Kind::kEst, "baseline/est");
          });
  reg.add("baseline/enemp", "eNEMP: NFV-enabled multicast baseline, extended",
          [](const SolverOptions& opt) {
            return std::make_unique<BaselineSolver>(opt, baselines::Kind::kEnemp,
                                                    "baseline/enemp");
          });
  for (int k : {2, 4}) {
    reg.add("dist/k=" + std::to_string(k),
            "multi-controller SOFDA, " + std::to_string(k) + " controllers",
            [k](const SolverOptions& opt) { return std::make_unique<DistSolver>(opt, k); });
  }
  reg.add("exact", "exact branch-and-bound optimum (SolverOptions::exact_limits)",
          [](const SolverOptions& opt) { return std::make_unique<ExactSolver>(opt); });
}

}  // namespace

SolverRegistry& SolverRegistry::global() {
  static SolverRegistry reg = [] {
    SolverRegistry r;
    register_builtins(r);
    return r;
  }();
  return reg;
}

void SolverRegistry::add(std::string name, std::string description, Factory factory) {
  assert(factory != nullptr);
  entries_.insert_or_assign(std::move(name), Entry{std::move(description), std::move(factory)});
}

bool SolverRegistry::contains(std::string_view name) const {
  return entries_.find(name) != entries_.end() || parse_dist_controllers(name) > 0;
}

std::unique_ptr<Solver> SolverRegistry::create(std::string_view name,
                                               const SolverOptions& opt) const {
  const auto it = entries_.find(name);
  if (it != entries_.end()) return it->second.factory(opt);
  if (constexpr std::string_view kDistPrefix = "dist/k="; name.starts_with(kDistPrefix)) {
    // The dist family is parameterized, so create() parses — and a request
    // that *names* the family but botches the parameter is a malformed
    // argument, not an unknown solver: reject it loudly (naming the field)
    // instead of silently clamping or falling through to the generic list.
    const std::string_view num = name.substr(kDistPrefix.size());
    int k = 0;
    const auto [ptr, ec] = std::from_chars(num.data(), num.data() + num.size(), k);
    if (ec != std::errc{} || ptr != num.data() + num.size()) {
      throw std::invalid_argument("dist/k: controller count must be a base-10 integer, got \"" +
                                  std::string(num) + "\"");
    }
    if (k < 1) {
      throw std::invalid_argument("dist/k: controller count must be >= 1, got " +
                                  std::to_string(k));
    }
    return std::make_unique<DistSolver>(opt, k);
  }
  std::string msg = "unknown solver \"" + std::string(name) + "\"; registered:";
  for (const auto& [n, e] : entries_) {
    (void)e;
    msg += " " + n;
  }
  throw std::invalid_argument(msg);
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [n, e] : entries_) {
    (void)e;
    out.push_back(n);
  }
  return out;
}

std::string SolverRegistry::describe(std::string_view name) const {
  const auto it = entries_.find(name);
  return it != entries_.end() ? it->second.description : std::string{};
}

std::unique_ptr<Solver> make_solver(std::string_view name, const SolverOptions& opt) {
  return SolverRegistry::global().create(name, opt);
}

}  // namespace sofe::api
