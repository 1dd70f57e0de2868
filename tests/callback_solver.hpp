#pragma once
// Test-side api::Solver fake: a session whose solve() runs a callback, for
// drivers that need an embedder the registry does not offer — one that
// returns nothing, checks every arrival, records what it saw, or throws on
// cue.  Registered under a test-only name it also reaches online::Pipeline,
// which builds its sessions through the registry.

#include <functional>
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

}  // namespace sofe::test
