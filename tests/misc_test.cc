// Tests for the small common utilities: RNG, metrics, logging.
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"

namespace sac {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  EXPECT_NE(Rng(42).NextU64(), c.NextU64());
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(d, -2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(RngTest, SplitStreamsAreIndependentAndStable) {
  Rng base(100);
  Rng s1 = base.Split(1);
  Rng s2 = base.Split(2);
  Rng s1b = Rng(100).Split(1);
  EXPECT_EQ(s1.NextU64(), s1b.NextU64());
  // Different streams diverge immediately.
  EXPECT_NE(Rng(100).Split(1).NextU64(), s2.NextU64());
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const uint64_t v = rng.NextBelow(5);
    EXPECT_LT(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(MetricsTest, CountersAccumulateAndReset) {
  Metrics m;
  m.Add(Counter::kShuffleBytes, 1024);
  m.Add(Counter::kShuffleBytes, 512);
  m.Add(Counter::kCrossExecutorBytes, 1024);
  m.Add(Counter::kTasksRun, 1);
  m.Add(Counter::kRecordsProcessed, 100);
  EXPECT_EQ(m.Get(Counter::kShuffleBytes), 1536u);
  EXPECT_EQ(m.Get(Counter::kCrossExecutorBytes), 1024u);
  EXPECT_EQ(m.Get(Counter::kTasksRun), 1u);
  EXPECT_EQ(m.Get(Counter::kRecordsProcessed), 100u);
  EXPECT_EQ(m.Get(Counter::kTasksRecomputed), 0u);
  m.Reset();
  EXPECT_EQ(m.Get(Counter::kShuffleBytes), 0u);
  EXPECT_EQ(m.Get(Counter::kTasksRun), 0u);
}

TEST(MetricsTest, ThreadSafeAccumulation) {
  Metrics m;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&m] {
      for (int i = 0; i < 1000; ++i) m.Add(Counter::kShuffleBytes, 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(m.Get(Counter::kShuffleBytes), 4000u);
}

TEST(MetricsTest, ToStringMentionsVolume) {
  Metrics m;
  m.Add(Counter::kShuffleBytes, 2 * 1024 * 1024);
  EXPECT_NE(m.ToString().find("2"), std::string::npos);
  EXPECT_NE(m.ToString().find("MB"), std::string::npos);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  EXPECT_GE(sw.ElapsedMillis(), 0.0);
  const double first = sw.ElapsedMillis();
  sw.Restart();
  EXPECT_LE(sw.ElapsedMillis(), first + 1000.0);
}

TEST(LoggingTest, LevelGate) {
  const LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SAC_LOG(Info) << "suppressed";  // must not crash and stays quiet
  SetLogLevel(old);
}

TEST(LoggingTest, CheckMacrosPassOnTruth) {
  SAC_CHECK(true);
  SAC_CHECK_EQ(1, 1);
  SAC_CHECK_LT(1, 2);
  SAC_CHECK_GE(2, 2);
  // Failing CHECK aborts: verify via death test.
  EXPECT_DEATH({ SAC_CHECK_EQ(1, 2) << "boom"; }, "check failed");
}

}  // namespace
}  // namespace sac
