// Tests for util::fork_join and util::WorkerPool (DESIGN.md §2): every lane
// runs exactly once with lane 0 on the caller, on fresh threads and on a
// lane runner, a throwing lane reaches the caller only after every other
// lane finished, and the pool pins lane t + 1 to its thread t.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lane_runners.hpp"
#include "sofe/util/fork_join.hpp"
#include "sofe/util/worker_pool.hpp"

namespace sofe::util {
namespace {

struct LaneFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

TEST(ForkJoin, EveryLaneRunsOnceWithLaneZeroOnTheCaller) {
  test::ReverseRunner reverse;
  WorkerPool pooled(3);
  for (LaneRunner* runner : {static_cast<LaneRunner*>(nullptr),
                             static_cast<LaneRunner*>(&reverse),
                             static_cast<LaneRunner*>(&pooled)}) {
    for (int lanes : {1, 2, 5}) {
      std::vector<std::atomic<int>> runs(static_cast<std::size_t>(lanes));
      std::thread::id lane0;
      fork_join(lanes, runner, [&](int lane) {
        if (lane == 0) lane0 = std::this_thread::get_id();
        ++runs[static_cast<std::size_t>(lane)];
      });
      for (int i = 0; i < lanes; ++i) EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1);
      EXPECT_EQ(lane0, std::this_thread::get_id());
    }
  }
}

TEST(ForkJoin, ThrowingLaneIsForwardedAfterTheOtherLanesFinish) {
  WorkerPool pooled(2);
  for (LaneRunner* runner : {static_cast<LaneRunner*>(nullptr),
                             static_cast<LaneRunner*>(&pooled)}) {
    SCOPED_TRACE(runner == nullptr ? "fresh threads" : "worker pool");
    // Lane 1 of 3 throws at once; lanes 0 and 2 are still running then.
    std::vector<std::atomic<bool>> finished(3);
    EXPECT_THROW(fork_join(3, runner,
                           [&](int lane) {
                             if (lane == 1) throw LaneFault("lane 1");
                             std::this_thread::sleep_for(std::chrono::milliseconds(20));
                             finished[static_cast<std::size_t>(lane)] = true;
                           }),
                 LaneFault);
    EXPECT_TRUE(finished[0].load());
    EXPECT_TRUE(finished[2].load());

    // Several lanes throw: the lowest lane's exception wins.
    std::string caught;
    try {
      fork_join(3, runner, [](int lane) {
        if (lane > 0) throw LaneFault("lane " + std::to_string(lane));
      });
    } catch (const LaneFault& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "lane 1");
  }
}

// Pool thread t runs lane t + 1 on every fork, whatever the fork's lane
// count, so a lane's state stays on one thread from fork to fork.
TEST(WorkerPool, ThreadTAlwaysRunsLaneTPlusOne) {
  WorkerPool pool(3);
  ASSERT_EQ(pool.threads(), 3);
  std::vector<std::thread::id> owner(4);  // lane -> the thread that first ran it
  for (int round = 0; round < 20; ++round) {
    for (int lanes : {4, 2, 3, 4}) {
      std::vector<std::thread::id> ran(static_cast<std::size_t>(lanes));
      fork_join(lanes, &pool, [&](int lane) {
        ran[static_cast<std::size_t>(lane)] = std::this_thread::get_id();
      });
      EXPECT_EQ(ran[0], std::this_thread::get_id());
      for (int lane = 1; lane < lanes; ++lane) {
        auto& first = owner[static_cast<std::size_t>(lane)];
        if (first == std::thread::id{}) first = ran[static_cast<std::size_t>(lane)];
        EXPECT_EQ(ran[static_cast<std::size_t>(lane)], first) << "lane " << lane;
      }
    }
  }
  // Three distinct pool threads, none of them the caller.
  const std::set<std::thread::id> threads(owner.begin() + 1, owner.end());
  EXPECT_EQ(threads.size(), 3u);
  EXPECT_FALSE(threads.contains(std::this_thread::get_id()));
}

// A fork of more than threads + 1 lanes runs the extra lanes on the caller
// (inside join()), each exactly once; lanes 1 .. threads still run on the
// pool.
TEST(WorkerPool, ExtraLanesRunOnTheCaller) {
  WorkerPool pool(2);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::atomic<int>> runs(7);
    std::vector<std::thread::id> ran(7);
    fork_join(7, &pool, [&](int lane) {
      ++runs[static_cast<std::size_t>(lane)];
      ran[static_cast<std::size_t>(lane)] = std::this_thread::get_id();
    });
    for (int lane = 0; lane < 7; ++lane) {
      EXPECT_EQ(runs[static_cast<std::size_t>(lane)].load(), 1) << "lane " << lane;
      const bool on_caller = ran[static_cast<std::size_t>(lane)] == std::this_thread::get_id();
      EXPECT_EQ(on_caller, lane == 0 || lane > 2) << "lane " << lane;
    }
  }
  // With no pool threads every lane runs on the caller.
  WorkerPool none(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(3);
  fork_join(3, &none,
            [&](int lane) { ran[static_cast<std::size_t>(lane)] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ran) EXPECT_EQ(id, caller);
}

TEST(ForkJoin, LaneCountClampsToTheItems) {
  EXPECT_EQ(lane_count(4, 10), 4);
  EXPECT_EQ(lane_count(4, 3), 3);
  EXPECT_EQ(lane_count(4, 0), 1);
  EXPECT_EQ(lane_count(-2, 10), 1);
}

}  // namespace
}  // namespace sofe::util
