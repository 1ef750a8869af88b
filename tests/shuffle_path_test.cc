// Tests for the shuffle path: byte-identity of single-process against
// distributed (loopback transport, full frame codec) execution, exact
// byte accounting, pooled-buffer hygiene on success and error paths, and
// the ResetStats in-flight guard.
#include <gtest/gtest.h>

#include "src/runtime/engine.h"

namespace sac::runtime {
namespace {

ValueVec MixedPairs(int n) {
  ValueVec rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back(VPair(VInt(i % 13), VTuple({VInt(i), VDouble(i * 0.5)})));
  }
  return rows;
}

/// Single process, or 3 in-process workers behind the loopback transport
/// (no heartbeat, so wire metering is deterministic).
ClusterConfig PathConfig(int executors, int cores, int parallelism,
                         bool distributed) {
  ClusterConfig cfg{executors, cores, parallelism};
  if (distributed) {
    cfg.workers = "3";
    cfg.transport = "loopback";
    cfg.heartbeat_interval_ms = 0;
  }
  return cfg;
}

/// Runs `query` on a fresh engine and returns the collected rows plus the
/// engine's final counter snapshot.
struct RunResult {
  ValueVec rows;
  MetricsSnapshot counters;
};
template <typename QueryFn>
RunResult RunWithPath(bool distributed, QueryFn&& query) {
  Engine eng(PathConfig(3, 2, 6, distributed));
  Result<Dataset> out = query(&eng);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  RunResult r;
  r.rows = eng.Collect(out.value()).value();
  r.counters = eng.metrics().Snapshot();
  return r;
}

void ExpectIdenticalRows(const ValueVec& a, const ValueVec& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].Equals(b[i]))
        << "row " << i << ": " << a[i].ToString() << " vs "
        << b[i].ToString();
  }
}

/// Both paths must agree byte-for-byte: same rows in the same order
/// (reduce folds are order-sensitive), and the same local/remote byte
/// split -- distribution changes where remote buckets live, never how
/// many bytes they hold -- every remote byte of which crossed the wire.
void CheckPathEquivalence(
    const std::function<Result<Dataset>(Engine*)>& query) {
  RunResult single = RunWithPath(false, query);
  RunResult dist = RunWithPath(true, query);
  ExpectIdenticalRows(single.rows, dist.rows);

  EXPECT_EQ(single.counters.local_shuffle_bytes,
            dist.counters.local_shuffle_bytes);
  EXPECT_EQ(single.counters.shuffle_bytes, dist.counters.shuffle_bytes);
  EXPECT_EQ(single.counters.shuffle_records, dist.counters.shuffle_records);
  // Everything serialized is cross-executor by construction.
  EXPECT_EQ(single.counters.shuffle_bytes,
            single.counters.cross_executor_bytes);
  EXPECT_EQ(single.counters.dist_bytes_sent, 0u);
  EXPECT_GE(dist.counters.dist_bytes_sent, dist.counters.shuffle_bytes);
  // This workload genuinely exercises both routes.
  EXPECT_GT(single.counters.local_shuffle_bytes, 0u);
  EXPECT_GT(single.counters.shuffle_bytes, 0u);
}

TEST(ShufflePathTest, GroupByKeyEquivalent) {
  CheckPathEquivalence([](Engine* eng) {
    Dataset ds = eng->Parallelize(MixedPairs(500), 6);
    return eng->GroupByKey(ds);
  });
}

TEST(ShufflePathTest, ReduceByKeyEquivalent) {
  CheckPathEquivalence([](Engine* eng) {
    ValueVec rows;
    for (int i = 0; i < 400; ++i) rows.push_back(VPair(VInt(i % 9), VInt(i)));
    Dataset ds = eng->Parallelize(std::move(rows), 6);
    return eng->ReduceByKey(ds, [](const Value& a, const Value& b) {
      return VInt(a.AsInt() + b.AsInt());
    });
  });
}

TEST(ShufflePathTest, JoinEquivalent) {
  CheckPathEquivalence([](Engine* eng) {
    ValueVec left, right;
    for (int i = 0; i < 200; ++i) {
      left.push_back(VPair(VInt(i % 17), VInt(i)));
      right.push_back(VPair(VInt(i % 17), VDouble(i * 2.0)));
    }
    Dataset a = eng->Parallelize(std::move(left), 5);
    Dataset b = eng->Parallelize(std::move(right), 4);
    return eng->Join(a, b);
  });
}

TEST(ShufflePathTest, SingleExecutorShufflesEverythingLocally) {
  Engine eng(ClusterConfig{1, 4, 4});
  Dataset ds = eng.Parallelize(MixedPairs(300), 4);
  ASSERT_TRUE(eng.GroupByKey(ds).ok());
  const MetricsSnapshot c = eng.metrics().Snapshot();
  EXPECT_EQ(c.shuffle_bytes, 0u);
  EXPECT_EQ(c.cross_executor_bytes, 0u);
  EXPECT_GT(c.local_shuffle_bytes, 0u);
}

TEST(ShufflePathTest, LineageRecoveryMatchesOnBothPaths) {
  for (bool distributed : {false, true}) {
    Engine eng(PathConfig(2, 2, 4, distributed));
    Dataset ds = eng.Parallelize(MixedPairs(200), 4);
    Result<Dataset> grouped = eng.GroupByKey(ds);
    ASSERT_TRUE(grouped.ok());
    ValueVec before = eng.Collect(grouped.value()).value();
    grouped.value()->InvalidatePartition(1);
    ValueVec after = eng.Collect(grouped.value()).value();
    ExpectIdenticalRows(before, after);
  }
}

TEST(ShufflePathTest, PooledBuffersAllReturnedAfterQuery) {
  Engine eng(ClusterConfig{2, 2, 4});
  Dataset ds = eng.Parallelize(MixedPairs(300), 4);
  ASSERT_TRUE(eng.GroupByKey(ds).ok());
  EXPECT_EQ(eng.shuffle_buffer_pool().outstanding(), 0u);
  EXPECT_EQ(eng.row_scratch_pool().outstanding(), 0u);
  EXPECT_GT(eng.shuffle_buffer_pool().acquires() +
                eng.row_scratch_pool().acquires(),
            0u);

  // A second identical stage runs on recycled allocations.
  ASSERT_TRUE(eng.GroupByKey(ds).ok());
  EXPECT_GT(eng.shuffle_buffer_pool().reuses() +
                eng.row_scratch_pool().reuses(),
            0u);
  EXPECT_EQ(eng.shuffle_buffer_pool().outstanding(), 0u);
  EXPECT_EQ(eng.row_scratch_pool().outstanding(), 0u);
}

TEST(ShufflePathTest, PooledBuffersReturnedOnFailedShuffle) {
  Engine eng(ClusterConfig{2, 2, 4});
  // One malformed (non-pair) row: its partition's map side fails while
  // the other partitions bucket normally; every checked-out buffer must
  // come back regardless.
  ValueVec rows = MixedPairs(300);
  rows[0] = VInt(42);
  Dataset ds = eng.Parallelize(std::move(rows), 4);
  Result<Dataset> out = eng.GroupByKey(ds);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(eng.shuffle_buffer_pool().outstanding(), 0u);
  EXPECT_EQ(eng.row_scratch_pool().outstanding(), 0u);
  EXPECT_EQ(eng.in_flight(), 0);
}

TEST(ShufflePathTest, InFlightDropsToZeroAfterQueries) {
  Engine eng(ClusterConfig{2, 2, 4});
  EXPECT_EQ(eng.in_flight(), 0);
  Dataset ds = eng.Parallelize(MixedPairs(100), 4);
  ASSERT_TRUE(eng.GroupByKey(ds).ok());
  EXPECT_EQ(eng.in_flight(), 0);
  eng.ResetStats();  // quiescent engine: must not abort
}

TEST(EngineDeathTest, ResetStatsDuringQueryAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Engine eng(ClusterConfig{2, 2, 4});
        ValueVec rows;
        for (int i = 0; i < 8; ++i) rows.push_back(VInt(i));
        Dataset ds = eng.Parallelize(std::move(rows), 2);
        auto mapped = eng.Map(ds, [&eng](const Value& v) {
          eng.ResetStats();  // misuse: a query is executing right now
          return v;
        });
        (void)mapped;
      },
      "ResetStats called while a query is executing");
}

}  // namespace
}  // namespace sac::runtime
