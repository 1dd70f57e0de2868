#pragma once
// A test-side util::LaneRunner schedule for util::fork_join: every lane on
// the calling thread, in reverse order.  Outputs that must be bitwise
// schedule-independent take it, and util::WorkerPool, as one more input.

#include "sofe/util/fork_join.hpp"

namespace sofe::test {

/// Runs lanes lanes-1 .. 1 on the calling thread inside fork(); fork_join
/// then runs lane 0, so the whole fork/join runs in reverse lane order.
class ReverseRunner final : public util::LaneRunner {
 public:
  void fork(int lanes, const Lane& lane) override {
    for (int i = lanes - 1; i >= 1; --i) lane(i);
  }
  void join() override {}
};

}  // namespace sofe::test
