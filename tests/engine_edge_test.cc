// Edge-case and robustness tests for the DISC engine.
#include <algorithm>

#include <gtest/gtest.h>

#include "src/runtime/engine.h"

namespace sac::runtime {
namespace {

ValueVec Pairs(std::initializer_list<std::pair<int, int>> xs) {
  ValueVec out;
  for (auto [k, v] : xs) out.push_back(VPair(VInt(k), VInt(v)));
  return out;
}

TEST(EngineEdgeTest, EmptyDatasetThroughEveryOperator) {
  Engine eng(ClusterConfig{2, 1, 3});
  Dataset empty = eng.Parallelize({}, 3);
  EXPECT_EQ(eng.Count(empty).value(), 0);
  auto mapped = eng.Map(empty, [](const Value& v) { return v; });
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(eng.Count(mapped.value()).value(), 0);
  auto red = eng.ReduceByKey(empty, [](const Value& a, const Value&) {
    return a;
  });
  ASSERT_TRUE(red.ok());
  EXPECT_EQ(eng.Count(red.value()).value(), 0);
  auto joined = eng.Join(empty, empty);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(eng.Count(joined.value()).value(), 0);
  auto grouped = eng.GroupByKey(empty);
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(eng.Count(grouped.value()).value(), 0);
}

TEST(EngineEdgeTest, SinglePartitionSingleExecutor) {
  Engine eng(ClusterConfig{1, 1, 1});
  Dataset ds = eng.Parallelize(Pairs({{1, 10}, {1, 20}, {2, 5}}), 1);
  auto red = eng.ReduceByKey(ds, [](const Value& a, const Value& b) {
    return VInt(a.AsInt() + b.AsInt());
  });
  ASSERT_TRUE(red.ok());
  auto rows = eng.Collect(red.value()).value();
  ASSERT_EQ(rows.size(), 2u);
  // Single executor: no cross-executor traffic.
  EXPECT_EQ(eng.metrics().Snapshot().cross_executor_bytes, 0u);
}

TEST(EngineEdgeTest, MorePartitionsThanRows) {
  Engine eng(ClusterConfig{2, 2, 4});
  Dataset ds = eng.Parallelize(Pairs({{1, 1}}), 16);
  EXPECT_EQ(ds->num_partitions(), 16);
  EXPECT_EQ(eng.Count(ds).value(), 1);
  auto grouped = eng.GroupByKey(ds);
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(eng.Count(grouped.value()).value(), 1);
}

TEST(EngineEdgeTest, SkewedKeysAllCollideOnOnePartition) {
  Engine eng(ClusterConfig{2, 2, 4});
  ValueVec rows;
  for (int i = 0; i < 1000; ++i) rows.push_back(VPair(VInt(7), VInt(1)));
  Dataset ds = eng.Parallelize(std::move(rows), 8);
  auto red = eng.ReduceByKey(ds, [](const Value& a, const Value& b) {
    return VInt(a.AsInt() + b.AsInt());
  });
  ASSERT_TRUE(red.ok());
  auto out = eng.Collect(red.value()).value();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].At(1).AsInt(), 1000);
}

TEST(EngineEdgeTest, JoinWithDuplicateKeysIsCrossProductPerKey) {
  Engine eng(ClusterConfig{2, 1, 2});
  Dataset a = eng.Parallelize(Pairs({{1, 1}, {1, 2}}), 2);
  Dataset b = eng.Parallelize(Pairs({{1, 10}, {1, 20}, {1, 30}}), 2);
  auto joined = eng.Join(a, b);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(eng.Count(joined.value()).value(), 6);  // 2 x 3
}

TEST(EngineEdgeTest, TupleKeysShuffleCorrectly) {
  Engine eng(ClusterConfig{2, 2, 4});
  ValueVec rows;
  for (int i = 0; i < 6; ++i) {
    rows.push_back(VPair(VIdx2(i % 2, i % 3), VInt(1)));
  }
  Dataset ds = eng.Parallelize(std::move(rows), 3);
  auto red = eng.ReduceByKey(ds, [](const Value& a, const Value& b) {
    return VInt(a.AsInt() + b.AsInt());
  });
  ASSERT_TRUE(red.ok());
  // 6 distinct (i%2, i%3) pairs for i in 0..5 (Chinese remainder).
  EXPECT_EQ(eng.Count(red.value()).value(), 6);
}

TEST(EngineEdgeTest, UnionPartitionRecovery) {
  Engine eng(ClusterConfig{2, 1, 2});
  Dataset a = eng.Parallelize({VInt(1), VInt(2)}, 2);
  Dataset b = eng.Parallelize({VInt(3)}, 1);
  auto u = eng.Union(a, b).value();
  u->InvalidatePartition(0);
  u->InvalidatePartition(2);  // the partition that came from b
  auto rows = eng.Collect(u).value();
  std::sort(rows.begin(), rows.end(),
            [](const Value& x, const Value& y) { return x.Compare(y) < 0; });
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[2].AsInt(), 3);
}

TEST(EngineEdgeTest, ParallelizeSourceCannotRegenerate) {
  Engine eng(ClusterConfig{2, 1, 2});
  Dataset ds = eng.Parallelize({VInt(1), VInt(2)}, 2);
  ds->InvalidatePartition(0);
  auto rows = eng.Collect(ds);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kRuntimeError);
}

TEST(EngineEdgeTest, GeneratorErrorPropagates) {
  Engine eng(ClusterConfig{2, 1, 2});
  auto gen = eng.GeneratePartitions(4, [](int p, Partition*) {
    if (p == 2) return Status::IoError("synthetic failure");
    return Status::OK();
  });
  ASSERT_FALSE(gen.ok());
  EXPECT_EQ(gen.status().code(), StatusCode::kIoError);
}

TEST(EngineEdgeTest, MapPartitionsSeesWholePartition) {
  Engine eng(ClusterConfig{2, 1, 2});
  Dataset ds = eng.Parallelize({VInt(1), VInt(2), VInt(3), VInt(4)}, 2);
  auto sums = eng.MapPartitions(ds, [](const Partition& in, Partition* out) {
    int64_t s = 0;
    for (const Value& v : in) s += v.AsInt();
    out->push_back(VInt(s));
    return Status::OK();
  });
  ASSERT_TRUE(sums.ok());
  auto rows = eng.Collect(sums.value()).value();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].AsInt() + rows[1].AsInt(), 10);
}

TEST(EngineEdgeTest, ReduceByKeyWithTileValues) {
  // Tiles as aggregation values: the 5.3 pattern at engine level.
  Engine eng(ClusterConfig{2, 2, 4});
  ValueVec rows;
  for (int i = 0; i < 8; ++i) {
    la::Tile t(2, 2);
    t.Set(0, 0, 1.0);
    rows.push_back(VPair(VInt(i % 2), Value::TileVal(std::move(t))));
  }
  Dataset ds = eng.Parallelize(std::move(rows), 4);
  auto red = eng.ReduceByKey(ds, [](const Value& a, const Value& b) {
    Value acc = a;
    la::Tile* t = acc.MutableTile();
    for (int64_t i = 0; i < t->size(); ++i) {
      t->data()[i] += b.AsTile().data()[i];
    }
    return acc;
  });
  ASSERT_TRUE(red.ok());
  auto out = eng.Collect(red.value()).value();
  ASSERT_EQ(out.size(), 2u);
  for (const Value& row : out) {
    EXPECT_DOUBLE_EQ(row.At(1).AsTile().At(0, 0), 4.0);
  }
}

TEST(EngineEdgeTest, CollectOrderIsPartitionMajorDeterministic) {
  Engine eng(ClusterConfig{2, 2, 4});
  ValueVec rows;
  for (int i = 0; i < 20; ++i) rows.push_back(VInt(i));
  Dataset ds = eng.Parallelize(std::move(rows), 4);
  auto c1 = eng.Collect(ds).value();
  auto c2 = eng.Collect(ds).value();
  EXPECT_EQ(c1, c2);
}

}  // namespace
}  // namespace sac::runtime
