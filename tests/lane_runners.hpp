#pragma once
// Test-side util::LaneRunner schedules for util::fork_join: one that runs
// every lane on the calling thread in reverse order, and a pool of parked
// threads that claim posted lanes the way the admission pipeline's workers
// do.  Outputs that must be bitwise schedule-independent take these as one
// more input.

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

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

/// `threads` persistent threads parked on a condition variable; fork()
/// posts lanes 1.. and wakes them, join() waits until every posted lane
/// has returned.
class PooledRunner final : public util::LaneRunner {
 public:
  explicit PooledRunner(int threads) {
    for (int t = 0; t < threads; ++t) pool_.emplace_back([this] { serve(); });
  }
  ~PooledRunner() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_.notify_all();
    for (std::thread& t : pool_) t.join();
  }
  PooledRunner(const PooledRunner&) = delete;
  PooledRunner& operator=(const PooledRunner&) = delete;

  void fork(int lanes, const Lane& lane) override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      lane_ = &lane;
      total_ = lanes;
      next_ = 1;
      done_ = 0;
    }
    work_.notify_all();
  }

  void join() override {
    std::unique_lock lock(mu_);
    finished_.wait(lock, [&] { return done_ == total_ - 1; });
    lane_ = nullptr;
    total_ = 0;
    next_ = 0;
  }

 private:
  void serve() {
    std::unique_lock lock(mu_);
    for (;;) {
      work_.wait(lock, [&] { return stop_ || next_ < total_; });
      if (next_ >= total_) return;  // stopping with nothing posted
      const int i = next_++;
      const Lane& lane = *lane_;
      lock.unlock();
      lane(i);
      lock.lock();
      if (++done_ == total_ - 1) finished_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_;
  std::condition_variable finished_;
  const Lane* lane_ = nullptr;
  int total_ = 0;
  int next_ = 0;
  int done_ = 0;
  bool stop_ = false;
  std::vector<std::thread> pool_;  // last: started after the state it reads
};

}  // namespace sofe::test
