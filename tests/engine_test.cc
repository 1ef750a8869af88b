#include "src/runtime/engine.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace sac::runtime {
namespace {

ValueVec Ints(std::initializer_list<int64_t> xs) {
  ValueVec out;
  for (int64_t x : xs) out.push_back(VInt(x));
  return out;
}

/// Sorts a collected result for order-insensitive comparison.
ValueVec Sorted(ValueVec v) {
  std::sort(v.begin(), v.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  return v;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : eng_(ClusterConfig{2, 2, 4}) {}
  Engine eng_;
};

TEST_F(EngineTest, ParallelizeAndCollect) {
  Dataset ds = eng_.Parallelize(Ints({1, 2, 3, 4, 5}), 3);
  EXPECT_EQ(ds->num_partitions(), 3);
  auto rows = eng_.Collect(ds);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(Sorted(rows.value()), Sorted(Ints({1, 2, 3, 4, 5})));
  EXPECT_EQ(eng_.Count(ds).value(), 5);
}

TEST_F(EngineTest, MapFilterFlatMap) {
  Dataset ds = eng_.Parallelize(Ints({1, 2, 3, 4}), 2);
  auto mapped = eng_.Map(ds, [](const Value& v) {
    return VInt(v.AsInt() * 10);
  });
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(Sorted(eng_.Collect(mapped.value()).value()),
            Sorted(Ints({10, 20, 30, 40})));

  auto filtered = eng_.Filter(mapped.value(), [](const Value& v) {
    return v.AsInt() > 15;
  });
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(Sorted(eng_.Collect(filtered.value()).value()),
            Sorted(Ints({20, 30, 40})));

  auto doubled = eng_.FlatMap(ds, [](const Value& v, ValueVec* out) {
    out->push_back(v);
    out->push_back(VInt(-v.AsInt()));
  });
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(eng_.Count(doubled.value()).value(), 8);
}

TEST_F(EngineTest, ReduceByKeySumsPerKey) {
  ValueVec rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(VPair(VInt(i % 7), VInt(i)));
  }
  Dataset ds = eng_.Parallelize(std::move(rows), 5);
  auto red = eng_.ReduceByKey(ds, [](const Value& a, const Value& b) {
    return VInt(a.AsInt() + b.AsInt());
  });
  ASSERT_TRUE(red.ok());
  auto out = eng_.Collect(red.value()).value();
  ASSERT_EQ(out.size(), 7u);
  int64_t expected[7] = {0};
  for (int i = 0; i < 100; ++i) expected[i % 7] += i;
  for (const Value& row : out) {
    EXPECT_EQ(row.At(1).AsInt(), expected[row.At(0).AsInt()]);
  }
}

TEST_F(EngineTest, ReduceByKeyShufflesLessThanGroupByKey) {
  ValueVec rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back(VPair(VInt(i % 3), VDouble(i)));
  }
  Dataset ds = eng_.Parallelize(std::move(rows), 8);

  eng_.metrics().Reset();
  ASSERT_TRUE(eng_.ReduceByKey(ds, [](const Value& a, const Value& b) {
                     return VDouble(a.AsDouble() + b.AsDouble());
                   }).ok());
  const uint64_t reduce_bytes = eng_.metrics().Snapshot().shuffle_bytes;

  eng_.metrics().Reset();
  ASSERT_TRUE(eng_.GroupByKey(ds).ok());
  const uint64_t group_bytes = eng_.metrics().Snapshot().shuffle_bytes;

  // Map-side combine leaves at most keys*partitions records to shuffle.
  EXPECT_LT(reduce_bytes * 10, group_bytes);
}

TEST_F(EngineTest, GroupByKeyCollectsAllValues) {
  ValueVec rows;
  for (int i = 0; i < 20; ++i) rows.push_back(VPair(VInt(i % 4), VInt(i)));
  Dataset ds = eng_.Parallelize(std::move(rows), 3);
  auto grouped = eng_.GroupByKey(ds);
  ASSERT_TRUE(grouped.ok());
  auto out = eng_.Collect(grouped.value()).value();
  ASSERT_EQ(out.size(), 4u);
  for (const Value& row : out) {
    const auto& vals = row.At(1).AsList();
    EXPECT_EQ(vals.size(), 5u);
    for (const Value& v : vals) {
      EXPECT_EQ(v.AsInt() % 4, row.At(0).AsInt());
    }
  }
}

TEST_F(EngineTest, JoinMatchesKeys) {
  Dataset a = eng_.Parallelize(
      {VPair(VInt(1), Value::Str("a")), VPair(VInt(2), Value::Str("b")),
       VPair(VInt(3), Value::Str("c"))},
      2);
  Dataset b = eng_.Parallelize(
      {VPair(VInt(2), VInt(20)), VPair(VInt(3), VInt(30)),
       VPair(VInt(3), VInt(31)), VPair(VInt(4), VInt(40))},
      3);
  auto joined = eng_.Join(a, b);
  ASSERT_TRUE(joined.ok());
  auto out = Sorted(eng_.Collect(joined.value()).value());
  ASSERT_EQ(out.size(), 3u);  // 2 matches once, 3 matches twice
  EXPECT_EQ(out[0].At(0).AsInt(), 2);
  EXPECT_EQ(out[0].At(1).At(0).AsString(), "b");
  EXPECT_EQ(out[0].At(1).At(1).AsInt(), 20);
  EXPECT_EQ(out[1].At(0).AsInt(), 3);
  EXPECT_EQ(out[2].At(0).AsInt(), 3);
}

TEST_F(EngineTest, CoGroupIncludesUnmatchedKeys) {
  Dataset a = eng_.Parallelize({VPair(VInt(1), VInt(10))}, 2);
  Dataset b = eng_.Parallelize({VPair(VInt(2), VInt(20))}, 2);
  auto cg = eng_.CoGroup(a, b);
  ASSERT_TRUE(cg.ok());
  auto out = Sorted(eng_.Collect(cg.value()).value());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].At(1).At(0).AsList().size(), 1u);
  EXPECT_EQ(out[0].At(1).At(1).AsList().size(), 0u);
  EXPECT_EQ(out[1].At(1).At(0).AsList().size(), 0u);
  EXPECT_EQ(out[1].At(1).At(1).AsList().size(), 1u);
}

TEST_F(EngineTest, UnionConcatenates) {
  Dataset a = eng_.Parallelize(Ints({1, 2}), 2);
  Dataset b = eng_.Parallelize(Ints({3}), 1);
  auto u = eng_.Union(a, b);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u.value()->num_partitions(), 3);
  EXPECT_EQ(Sorted(eng_.Collect(u.value()).value()), Sorted(Ints({1, 2, 3})));
}

TEST_F(EngineTest, WideOpRejectsNonPairRows) {
  Dataset ds = eng_.Parallelize(Ints({1, 2, 3}), 2);
  auto red = eng_.ReduceByKey(ds, [](const Value& a, const Value&) {
    return a;
  });
  EXPECT_FALSE(red.ok());
  EXPECT_EQ(red.status().code(), StatusCode::kRuntimeError);
}

TEST_F(EngineTest, ShuffleAccountsBytes) {
  ValueVec rows;
  for (int i = 0; i < 50; ++i) rows.push_back(VPair(VInt(i), VDouble(i)));
  Dataset ds = eng_.Parallelize(std::move(rows), 4);
  eng_.metrics().Reset();
  ASSERT_TRUE(eng_.PartitionBy(ds).ok());
  EXPECT_GT(eng_.metrics().Snapshot().shuffle_bytes, 0u);
  EXPECT_EQ(eng_.metrics().Snapshot().shuffle_records, 50u);
  EXPECT_GT(eng_.metrics().Snapshot().cross_executor_bytes, 0u);
  EXPECT_LE(eng_.metrics().Snapshot().cross_executor_bytes,
            eng_.metrics().Snapshot().shuffle_bytes);
}

// ---- lineage-based fault recovery ----------------------------------------

TEST_F(EngineTest, RecoversLostNarrowPartition) {
  Dataset src = eng_.Parallelize(Ints({0, 1, 2, 3, 4, 5, 6, 7}), 4);
  auto mapped = eng_.Map(src, [](const Value& v) {
    return VInt(v.AsInt() + 100);
  });
  ASSERT_TRUE(mapped.ok());
  Dataset ds = mapped.value();
  const ValueVec before = Sorted(eng_.Collect(ds).value());

  ds->InvalidatePartition(1);
  ds->InvalidatePartition(3);
  EXPECT_FALSE(ds->IsAvailable(1));
  eng_.metrics().Reset();
  const ValueVec after = Sorted(eng_.Collect(ds).value());
  EXPECT_EQ(before, after);
  EXPECT_GE(eng_.metrics().Snapshot().tasks_recomputed, 2u);
}

TEST_F(EngineTest, RecoversLostShufflePartition) {
  ValueVec rows;
  for (int i = 0; i < 60; ++i) rows.push_back(VPair(VInt(i % 10), VInt(1)));
  Dataset src = eng_.Parallelize(std::move(rows), 4);
  auto red = eng_.ReduceByKey(src, [](const Value& a, const Value& b) {
    return VInt(a.AsInt() + b.AsInt());
  });
  ASSERT_TRUE(red.ok());
  Dataset ds = red.value();
  const ValueVec before = Sorted(eng_.Collect(ds).value());
  for (int i = 0; i < ds->num_partitions(); ++i) ds->InvalidatePartition(i);
  const ValueVec after = Sorted(eng_.Collect(ds).value());
  EXPECT_EQ(before, after);
}

TEST_F(EngineTest, RecoversThroughChainedLineage) {
  Dataset src = eng_.Parallelize(Ints({1, 2, 3, 4, 5, 6}), 3);
  auto m1 = eng_.Map(src, [](const Value& v) { return VInt(v.AsInt() * 2); });
  ASSERT_TRUE(m1.ok());
  auto m2 = eng_.Map(m1.value(),
                     [](const Value& v) { return VInt(v.AsInt() + 1); });
  ASSERT_TRUE(m2.ok());
  // Lose the same partition at both levels; recovery must chain.
  m1.value()->InvalidatePartition(2);
  m2.value()->InvalidatePartition(2);
  const ValueVec after = Sorted(eng_.Collect(m2.value()).value());
  EXPECT_EQ(after, Sorted(Ints({3, 5, 7, 9, 11, 13})));
}

TEST_F(EngineTest, GeneratedSourceRegenerates) {
  auto gen = eng_.GeneratePartitions(
      3,
      [](int p, Partition* out) {
        out->push_back(VInt(p * 10));
        return Status::OK();
      },
      "testsrc");
  ASSERT_TRUE(gen.ok());
  Dataset ds = gen.value();
  ds->InvalidatePartition(0);
  const ValueVec rows = Sorted(eng_.Collect(ds).value());
  EXPECT_EQ(rows, Sorted(Ints({0, 10, 20})));
}

TEST_F(EngineTest, DeterministicReduceOrderAcrossRuns) {
  // Float addition is order-sensitive; the engine promises a deterministic
  // fold order, so two identical runs must agree bit-for-bit.
  auto run = [&]() -> ValueVec {
    ValueVec rows;
    for (int i = 0; i < 500; ++i) {
      rows.push_back(VPair(VInt(i % 5), VDouble(1.0 / (1 + i))));
    }
    Engine eng(ClusterConfig{3, 2, 6});
    Dataset ds = eng.Parallelize(std::move(rows), 6);
    auto red = eng.ReduceByKey(ds, [](const Value& a, const Value& b) {
      return VDouble(a.AsDouble() + b.AsDouble());
    });
    return Sorted(eng.Collect(red.value()).value());
  };
  const ValueVec a = run(), b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].Equals(b[i])) << a[i].ToString() << " vs "
                                   << b[i].ToString();
  }
}

}  // namespace
}  // namespace sac::runtime
