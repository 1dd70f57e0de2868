#pragma once
// The library's one thread pool (DESIGN.md §2, §10): parked threads that
// run util::fork_join lanes.  The admission pipeline runs every phase of
// every epoch on one (closure publish, chain pricing, solves).
//
// Pool thread t always runs lane t + 1, so whatever a lane keeps between
// forks (the pipeline's per-lane solver session and Problem replica) is
// touched, and its heap allocated and freed, by one thread only.  A fork
// of more than threads() + 1 lanes runs the extra lanes on the caller
// inside join(); a thread the system refuses to start is simply missing
// from threads(), so its lane runs there too.

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "sofe/util/fork_join.hpp"

namespace sofe::util {

class WorkerPool final : public LaneRunner {
 public:
  explicit WorkerPool(int threads) {
    pool_.reserve(static_cast<std::size_t>(std::max(threads, 0)));
    for (int t = 0; t < threads; ++t) {
      try {
        pool_.emplace_back([this, t] { serve(t); });
      } catch (const std::system_error&) {
        break;  // no thread to spare: join() runs the missing lanes
      }
    }
  }
  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_.notify_all();
    for (std::thread& t : pool_) t.join();
  }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Threads actually running; lanes 1 .. threads() run on them.
  int threads() const noexcept { return static_cast<int>(pool_.size()); }

  void fork(int lanes, const Lane& lane) override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      lane_ = &lane;
      lanes_ = lanes;
      running_ = std::min(lanes - 1, threads());
      ++forks_;
    }
    work_.notify_all();
  }

  void join() override {
    for (int i = threads() + 1; i < lanes_; ++i) (*lane_)(i);
    std::unique_lock lock(mu_);
    finished_.wait(lock, [&] { return running_ == 0; });
    lane_ = nullptr;
    lanes_ = 0;
  }

 private:
  void serve(int t) {
    std::uint64_t seen = 0;  // forks this thread has looked at
    std::unique_lock lock(mu_);
    for (;;) {
      work_.wait(lock, [&] { return stop_ || forks_ != seen; });
      if (forks_ == seen) return;  // stopping, nothing posted
      seen = forks_;
      if (t + 1 >= lanes_) continue;  // this fork has no lane for thread t
      const Lane& lane = *lane_;
      lock.unlock();
      lane(t + 1);
      lock.lock();
      if (--running_ == 0) finished_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_;
  std::condition_variable finished_;
  const Lane* lane_ = nullptr;
  int lanes_ = 0;             // lanes of the posted fork
  int running_ = 0;           // its pool lanes that have not returned yet
  std::uint64_t forks_ = 0;   // forks posted so far
  bool stop_ = false;
  std::vector<std::thread> pool_;  // last: started after the state it reads
};

}  // namespace sofe::util
