#pragma once
// Fork/join over a fixed number of lanes (DESIGN.md §2): the one place the
// library's parallel loops (closure builds and repairs, sharded domain
// builds, candidate pricing, the admission pipeline's solves) fan out to
// threads.
//
// fork_join(n, runner, body) runs body(lane) for every lane in [0, n):
// lane 0 on the calling thread, lanes 1.. on `runner` when one is given
// (util::WorkerPool), else on fresh threads joined before the call
// returns.  Every loop over items lets its lanes claim the items from a
// shared atomic counter, and each item writes only its own preassigned
// slot, so the output is bitwise the serial one whichever lane claims an
// item, whichever thread runs a lane and in whatever order (tested with a
// runner that runs the lanes in reverse on the calling thread).
//
// A throwing lane never ends the process: each lane's exception is caught,
// every other lane still runs to completion and is joined, and then the
// exception of the lowest lane that threw is rethrown on the caller.

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace sofe::util {

/// Runs the lanes of a fork_join that the calling thread does not run:
/// util::WorkerPool, the library's one thread pool (worker_pool.hpp).
/// The caller keeps ownership; a runner serves one fork at a time.
class LaneRunner {
 public:
  using Lane = std::function<void(int)>;

  /// Starts lane(1) .. lane(lanes - 1) on any threads, in any order, and
  /// may return before they finish.  `lane` never throws (fork_join
  /// catches per lane) and stays valid until join() returns.
  virtual void fork(int lanes, const Lane& lane) = 0;

  /// Returns once every lane of the last fork() has returned.
  virtual void join() = 0;

 protected:
  ~LaneRunner() = default;
};

/// The lane count of a loop over `items`: `threads` clamped to
/// [1, max(items, 1)], so no lane is left without an item.
inline int lane_count(int threads, std::size_t items) {
  const std::size_t cap = std::max<std::size_t>(items, 1);
  return static_cast<int>(std::min(static_cast<std::size_t>(std::max(threads, 1)), cap));
}

/// Runs body(lane) for every lane in [0, lanes): lane 0 here, the rest on
/// `runner` (nullptr: fresh threads).  Returns once every lane returned;
/// rethrows the lowest throwing lane's exception after that.
template <typename Body>
void fork_join(int lanes, LaneRunner* runner, const Body& body) {
  if (lanes <= 1) {
    body(0);
    return;
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(lanes));
  const LaneRunner::Lane lane = [&](int i) {
    try {
      body(i);
    } catch (...) {
      errors[static_cast<std::size_t>(i)] = std::current_exception();
    }
  };
  if (runner != nullptr) {
    runner->fork(lanes, lane);
    lane(0);
    runner->join();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(lanes - 1));
    for (int i = 1; i < lanes; ++i) {
      try {
        threads.emplace_back([&lane, i] { lane(i); });
      } catch (...) {
        lane(i);  // no thread to spare: the caller runs the lane itself
      }
    }
    lane(0);
    for (std::thread& t : threads) t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace sofe::util
