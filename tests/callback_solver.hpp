#pragma once
// Test-side api::Solver fakes: a session whose solve() runs a callback, for
// drivers that need an embedder the registry does not offer — one that
// returns nothing, checks every arrival, records what it saw, or throws on
// cue — and an epoch-forwarding variant that wraps a real session.
// Registered under a test-only name they also reach online::Pipeline,
// which builds its sessions through the registry.

#include <functional>
#include <memory>
#include <string_view>
#include <utility>

#include "sofe/api/solver.hpp"

namespace sofe::test {

class CallbackSolver final : public api::Solver {
 public:
  using Body = std::function<core::ServiceForest(const core::Problem&)>;

  explicit CallbackSolver(Body body) : body_(std::move(body)) {}

  std::string_view name() const noexcept override { return "callback"; }

 protected:
  core::ServiceForest do_solve(const core::Problem& p, api::SolveReport& report) override {
    (void)report;
    return body_(p);
  }

 private:
  Body body_;
};

/// Runs `hook` before every solve, then forwards the solve to `inner` —
/// solve_epoch included, so a wrapped "sofda" session still makes the
/// pipeline publish and price closure epochs.  With `hook_epoch_solves`
/// false only plain solve() calls run the hook: in the pipeline those are
/// a drill's recovery re-embeds.  It reports `inner`'s options, which the
/// pipeline prices by.
class EpochForwardingSolver final : public api::Solver {
 public:
  EpochForwardingSolver(std::unique_ptr<api::Solver> inner, std::function<void()> hook,
                        bool hook_epoch_solves = true)
      : api::Solver(inner->options()),
        inner_(std::move(inner)),
        hook_(std::move(hook)),
        hook_epoch_solves_(hook_epoch_solves) {}

  std::string_view name() const noexcept override { return inner_->name(); }
  bool wants_epoch_closure() const noexcept override { return inner_->wants_epoch_closure(); }

 protected:
  core::ServiceForest do_solve(const core::Problem& p, api::SolveReport& report) override {
    hook_();
    core::ServiceForest f = inner_->solve(p);
    report = inner_->report();
    return f;
  }

  core::ServiceForest do_solve_epoch(const core::Problem& p, const api::ClosureEpoch& epoch,
                                     api::SolveReport& report) override {
    if (hook_epoch_solves_) hook_();
    core::ServiceForest f = inner_->solve_epoch(p, epoch);
    report = inner_->report();
    return f;
  }

 private:
  std::unique_ptr<api::Solver> inner_;
  std::function<void()> hook_;
  bool hook_epoch_solves_;
};

}  // namespace sofe::test
