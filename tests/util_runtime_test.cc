#include <gtest/gtest.h>

#include <thread>

#include "data/datasets.h"
#include "fsm/miner.h"
#include "util/logging.h"
#include "util/timer.h"

namespace graphsig {
namespace {

TEST(TimerTest, MeasuresElapsedTime) {
  util::WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double elapsed = timer.ElapsedSeconds();
  EXPECT_GE(elapsed, 0.015);
  EXPECT_LT(elapsed, 5.0);
  EXPECT_NEAR(timer.ElapsedMillis(), timer.ElapsedSeconds() * 1e3,
              timer.ElapsedSeconds() * 50);
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), 0.015);
}

TEST(LoggingTest, LevelFilterRoundTrips) {
  const util::LogLevel before = util::GetLogLevel();
  util::SetLogLevel(util::LogLevel::kError);
  EXPECT_EQ(util::GetLogLevel(), util::LogLevel::kError);
  // Filtered and unfiltered calls must both be safe to make.
  util::LogDebug("dropped");
  util::LogInfo("dropped");
  util::LogWarning("dropped");
  util::SetLogLevel(before);
}

TEST(MinerBudgetTest, GSpanBudgetStopsAndFlagsIncomplete) {
  data::DatasetOptions options;
  options.size = 400;
  options.seed = 55;
  graph::GraphDatabase db = data::MakeAidsLike(options);
  fsm::MinerConfig config;
  config.min_support = 2;  // explosive
  config.budget_seconds = 0.1;
  util::WallTimer timer;
  fsm::MineResult result = fsm::MineFrequentGSpan(db, config);
  EXPECT_FALSE(result.completed);
  EXPECT_LT(timer.ElapsedSeconds(), 5.0);  // stopped promptly
}

TEST(MinerBudgetTest, AprioriBudgetStopsAndFlagsIncomplete) {
  data::DatasetOptions options;
  options.size = 300;
  options.seed = 56;
  graph::GraphDatabase db = data::MakeAidsLike(options);
  fsm::MinerConfig config;
  config.min_support = 3;
  config.budget_seconds = 0.1;
  util::WallTimer timer;
  fsm::MineResult result = fsm::MineFrequentApriori(db, config);
  EXPECT_FALSE(result.completed);
  EXPECT_LT(timer.ElapsedSeconds(), 10.0);
}

}  // namespace
}  // namespace graphsig
