#include "src/common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace sac {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForSingleElement) {
  ThreadPool pool(2);
  int v = 0;
  pool.ParallelFor(1, [&](size_t i) { v = static_cast<int>(i) + 7; });
  EXPECT_EQ(v, 7);
}

TEST(ThreadPoolTest, MinimumOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  pool.ParallelFor(10, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, NestedSubmitDoesNotDeadlockWait) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&] {
      count.fetch_add(1);
      pool.Submit([&] { count.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, ParallelForExplicitChunkCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); },
                   /*chunk=*/7);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, DynamicClaimingLetsIdleWorkersDrainSkewedWork) {
  // Element 0 blocks until elements 1..3 have run. Static striping would
  // pin some of 1..3 behind the blocked worker and deadlock; dynamic
  // claiming lets the free worker drain them, so element 0's wait is
  // satisfied. The generous timeout turns a regression into a test
  // failure instead of a hang.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  bool timed_out = false;
  pool.ParallelFor(4, [&](size_t i) {
    std::unique_lock<std::mutex> lock(mu);
    if (i == 0) {
      timed_out = !cv.wait_for(lock, std::chrono::seconds(60),
                               [&] { return done == 3; });
    } else {
      ++done;
      cv.notify_all();
    }
  });
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(done, 3);
}

TEST(ThreadPoolTest, ParallelForSumsCorrectly) {
  ThreadPool pool(4);
  std::vector<int64_t> parts(257, 0);
  pool.ParallelFor(parts.size(),
                   [&](size_t i) { parts[i] = static_cast<int64_t>(i); });
  const int64_t total = std::accumulate(parts.begin(), parts.end(), int64_t{0});
  EXPECT_EQ(total, 256 * 257 / 2);
}

TEST(ThreadPoolTest, ReturnedParallelForHasRetiredEveryChunk) {
  // ParallelFor must not return while a worker still counts one of its
  // chunks as active: in_flight() (the sampler's gauge, and what
  // ResetStats-style quiescence checks read) is exactly zero afterwards.
  ThreadPool pool(3);
  const ThreadPool::QueueId q = pool.OpenQueue();
  std::atomic<size_t> hits{0};
  for (int round = 0; round < 1000; ++round) {
    pool.ParallelFor(7, [&](size_t) { hits.fetch_add(1); }, /*chunk=*/0,
                     round % 2 == 0 ? ThreadPool::kDefaultQueue : q);
    ASSERT_EQ(pool.in_flight(), 0u) << "round " << round;
  }
  EXPECT_EQ(hits.load(), 7000u);
}

}  // namespace
}  // namespace sac
