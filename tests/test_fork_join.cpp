// Tests for util::fork_join (DESIGN.md §2): every lane runs exactly once
// with lane 0 on the caller, on fresh threads and on a lane runner, and a
// throwing lane reaches the caller only after every other lane finished.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lane_runners.hpp"
#include "sofe/util/fork_join.hpp"

namespace sofe::util {
namespace {

struct LaneFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

TEST(ForkJoin, EveryLaneRunsOnceWithLaneZeroOnTheCaller) {
  test::ReverseRunner reverse;
  test::PooledRunner pooled(3);
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
  test::PooledRunner pooled(2);
  for (LaneRunner* runner : {static_cast<LaneRunner*>(nullptr),
                             static_cast<LaneRunner*>(&pooled)}) {
    SCOPED_TRACE(runner == nullptr ? "fresh threads" : "pooled runner");
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

TEST(ForkJoin, LaneCountClampsToTheItems) {
  EXPECT_EQ(lane_count(4, 10), 4);
  EXPECT_EQ(lane_count(4, 3), 3);
  EXPECT_EQ(lane_count(4, 0), 1);
  EXPECT_EQ(lane_count(-2, 10), 1);
}

}  // namespace
}  // namespace sofe::util
