#include "src/runtime/partitioner.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/algorithms.h"
#include "src/api/sac.h"
#include "src/la/kernels.h"
#include "src/runtime/engine.h"

namespace sac::runtime {
namespace {

/// Records per partition when every cell of `extents` is one key.
std::vector<int> CellCounts(const std::vector<int64_t>& extents, int n) {
  const Partitioner p = Partitioner::Grid(extents);
  std::vector<int> counts(n, 0);
  if (extents.size() == 1) {
    for (int64_t i = 0; i < extents[0]; ++i) ++counts[p.Of(VInt(i), n)];
  } else {
    for (int64_t i = 0; i < extents[0]; ++i) {
      for (int64_t j = 0; j < extents[1]; ++j) ++counts[p.Of(VIdx2(i, j), n)];
    }
  }
  return counts;
}

TEST(PartitionerTest, GridBalancesEveryGridExactly) {
  struct Case {
    std::vector<int64_t> extents;
    int n;
  };
  const Case cases[] = {{{8, 8}, 8}, {{4, 4}, 8},   {{8, 1}, 8},
                        {{1, 8}, 8}, {{16, 16}, 16}, {{8, 8}, 16},
                        {{5, 7}, 4}, {{8}, 8},      {{13}, 4}};
  for (const Case& c : cases) {
    const std::vector<int> counts = CellCounts(c.extents, c.n);
    const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
    EXPECT_LE(*hi - *lo, 1) << Partitioner::Grid(c.extents).ToString()
                            << " over " << c.n;
  }
}

TEST(PartitionerTest, GridIsRowMajorModN) {
  const Partitioner p = Partitioner::Grid({3, 5});
  EXPECT_EQ(p.Of(VIdx2(0, 0), 4), 0);
  EXPECT_EQ(p.Of(VIdx2(1, 2), 4), (1 * 5 + 2) % 4);
  EXPECT_EQ(p.Of(VIdx2(2, 4), 4), 14 % 4);
  EXPECT_EQ(p.ToString(), "grid(3x5)");
  EXPECT_EQ(Partitioner().ToString(), "hash");
}

TEST(PartitionerTest, EqualKeysLandInTheSamePartition) {
  const Partitioner grid = Partitioner::Grid({4, 4});
  const Partitioner hash;
  const Value a = VTuple({VInt(2), VInt(3)});
  const Value b = VTuple({VDouble(2.0), VInt(3)});
  ASSERT_EQ(a, b);
  for (int n : {3, 4, 8, 16}) {
    EXPECT_EQ(grid.Of(a, n), grid.Of(b, n)) << n;
    EXPECT_EQ(hash.Of(a, n), hash.Of(b, n)) << n;
  }
  EXPECT_EQ(Partitioner::Grid({8}).Of(VDouble(-0.0), 8),
            Partitioner::Grid({8}).Of(VInt(0), 8));
}

TEST(PartitionerTest, NonCoordinateKeysFallBackToTheMixedHash) {
  const Partitioner grid = Partitioner::Grid({4, 4});
  const int n = 8;
  const Value keys[] = {
      VIdx2(4, 0),                         // out of range
      VIdx2(0, -1),                        // negative
      Value::Str("tile"),                  // string
      VTuple({VInt(1), Value::Str("x")}),  // mixed
      VTuple({VDouble(1.5), VInt(0)}),     // fractional
      VInt(3),                             // wrong arity
      VTuple({VInt(1), VInt(1), VInt(1)}), // wrong arity
  };
  for (const Value& k : keys) {
    const int want =
        static_cast<int>(k.Hash() % static_cast<uint64_t>(n));
    EXPECT_EQ(grid.Of(k, n), want) << k.ToString();
    EXPECT_EQ(Partitioner().Of(k, n), want) << k.ToString();
    EXPECT_EQ(grid.Of(k, n), grid.Of(k, n)) << k.ToString();
  }
  // Non-positive extents give the hash partitioner.
  EXPECT_FALSE(Partitioner::Grid({4, 0}).is_grid());
}

TEST(PartitionerTest, MixedHashSpreadsSmallIntegerTiles) {
  // The pre-finalizer hash sent all 64 tiles of an 8x8 grid to one of 8
  // partitions; the mixed hash must use most of them.
  const Partitioner hash;
  std::vector<int> counts(8, 0);
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j < 8; ++j) ++counts[hash.Of(VIdx2(i, j), 8)];
  }
  EXPECT_LE(*std::max_element(counts.begin(), counts.end()), 16);
  EXPECT_EQ(std::count(counts.begin(), counts.end(), 0), 0);
}

// ---- engine: grid shuffles ---------------------------------------------

/// Rows ((i,j), i*100+j) over a gr x gc grid, `copies` records per key.
ValueVec GridRows(int64_t gr, int64_t gc, int copies) {
  ValueVec rows;
  for (int c = 0; c < copies; ++c) {
    for (int64_t i = 0; i < gr; ++i) {
      for (int64_t j = 0; j < gc; ++j) {
        rows.push_back(VPair(VIdx2(i, j), VInt(i * 100 + j + c)));
      }
    }
  }
  return rows;
}

/// Records held by each partition of `ds`, in partition order.
std::vector<int64_t> PartitionSizes(Engine* eng, const Dataset& ds) {
  auto sizes = eng->MapPartitions(ds, [](const Partition& in, Partition* out) {
    out->push_back(VInt(static_cast<int64_t>(in.size())));
    return Status::OK();
  });
  EXPECT_TRUE(sizes.ok());
  const ValueVec rows = eng->Collect(sizes.value()).value();
  std::vector<int64_t> out;
  for (const Value& v : rows) out.push_back(v.AsInt());
  return out;
}

std::vector<uint8_t> Bytes(const ValueVec& rows) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  for (const Value& v : rows) v.Serialize(&w);
  return buf;
}

TEST(EngineGridShuffleTest, PlacesKeysByGridAndRecordsBalance) {
  Engine eng(ClusterConfig{4, 1, 8});
  const Partitioner grid = Partitioner::Grid({8, 8});
  Dataset in = eng.Parallelize(GridRows(8, 8, 2), 5);
  auto g = eng.GroupByKey(in, 8, grid);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value()->partitioner(), grid);
  for (int64_t sz : PartitionSizes(&eng, g.value())) EXPECT_EQ(sz, 8);
  // Every key sits in the partition the grid names.
  auto tagged = eng.MapPartitions(g.value(), [](const Partition& in,
                                                Partition* out) {
    for (const Value& r : in) out->push_back(r.At(0));
    return Status::OK();
  });
  ASSERT_TRUE(tagged.ok());
  const ValueVec keys = eng.Collect(tagged.value()).value();
  ASSERT_EQ(keys.size(), 64u);
  for (size_t r = 0; r < keys.size(); ++r) {
    EXPECT_EQ(grid.Of(keys[r], 8), static_cast<int>(r / 8));
  }
  // The stage recorded its balance: 16 records to each partition.
  bool found = false;
  for (const StageStatsSnapshot& s : eng.stages().Snapshot()) {
    if (s.label != "groupByKey") continue;
    found = true;
    EXPECT_DOUBLE_EQ(s.partition_skew, 1.0);
    EXPECT_GE(s.partition_bytes_skew, 1.0);
    EXPECT_LT(s.partition_bytes_skew, 1.1);
  }
  EXPECT_TRUE(found);
}

TEST(EngineGridShuffleTest, RecoveredGridPartitionIsByteIdentical) {
  Engine eng(ClusterConfig{2, 2, 4});
  const Partitioner grid = Partitioner::Grid({4, 6});
  Dataset a = eng.Parallelize(GridRows(4, 6, 1), 3);
  Dataset b = eng.Parallelize(GridRows(4, 6, 2), 5);
  auto cg = eng.CoGroup(a, b, 8, grid);
  ASSERT_TRUE(cg.ok());
  const std::vector<int64_t> sizes = PartitionSizes(&eng, cg.value());
  const std::vector<uint8_t> before = Bytes(eng.Collect(cg.value()).value());
  for (int p : {2, 5}) {
    ASSERT_GT(sizes[p], 0);
    cg.value()->InvalidatePartition(p);
  }
  ASSERT_TRUE(eng.Recover(cg.value()).ok());
  EXPECT_EQ(PartitionSizes(&eng, cg.value()), sizes);
  EXPECT_EQ(Bytes(eng.Collect(cg.value()).value()), before);
}

// ---- planner: the SUMMA cogroup spreads over every partition -------------

TEST(EngineGridShuffleTest, SummaMultiplyHoldsEightTilesPerPartition) {
  // n=1024, tile 128: 64 output tiles over 8 partitions. Before grid
  // placement one partition held all 64 and the multiply ran serially.
  ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.default_parallelism = 8;
  planner::PlannerOptions opts;
  opts.auto_strategy = false;  // pin the 5.4 group-by-join (SUMMA) plan
  Sac ctx(cfg, opts);
  auto a = ctx.RandomMatrix(1024, 1024, 128, 1).value();
  auto b = ctx.RandomMatrix(1024, 1024, 128, 2).value();
  auto c = algo::Multiply(&ctx, a, b);
  ASSERT_TRUE(c.ok());
  const std::vector<int64_t> sizes =
      PartitionSizes(&ctx.engine(), c.value().tiles);
  ASSERT_EQ(sizes.size(), 8u);
  for (int64_t sz : sizes) EXPECT_EQ(sz, 8);
  for (const StageStatsSnapshot& s : ctx.stages().Snapshot()) {
    if (s.kind == "coshuffle") {
      EXPECT_DOUBLE_EQ(s.partition_skew, 1.0);
    }
  }
}

TEST(EngineGridShuffleTest, ProductsAgreeAcrossPartitionCounts) {
  // Placement decides each key's summation order, so products at
  // different partition counts agree to rounding, not bit for bit.
  std::vector<la::Tile> products;
  for (int parts : {4, 8, 16}) {
    ClusterConfig cfg;
    cfg.default_parallelism = parts;
    for (bool gbj : {true, false}) {
      planner::PlannerOptions opts;
      opts.auto_strategy = false;
      opts.enable_group_by_join = gbj;
      Sac ctx(cfg, opts);
      auto a = ctx.RandomMatrix(256, 256, 32, 11).value();
      auto b = ctx.RandomMatrix(256, 256, 32, 12).value();
      auto c = algo::Multiply(&ctx, a, b);
      ASSERT_TRUE(c.ok());
      products.push_back(storage::ToLocal(&ctx.engine(), c.value()).value());
    }
  }
  const la::Tile& ref = products[0];
  double ref_norm = 0;
  for (int64_t i = 0; i < ref.size(); ++i) {
    ref_norm += ref.data()[i] * ref.data()[i];
  }
  for (size_t p = 1; p < products.size(); ++p) {
    ASSERT_EQ(products[p].size(), ref.size());
    double diff = 0;
    for (int64_t i = 0; i < ref.size(); ++i) {
      const double d = products[p].data()[i] - ref.data()[i];
      diff += d * d;
    }
    EXPECT_LE(std::sqrt(diff), 1e-12 * std::sqrt(ref_norm)) << p;
  }
}

TEST(EngineGridShuffleTest, SummaProductsByteIdenticalAcrossPartitionCounts) {
  // The 5.4 plan sums each output tile over k ascending whatever order
  // the cogroup delivers its A tiles in, so the product is the same bytes
  // at every partition count, on either backend, and equal to a plain
  // k-ascending GemmAccum loop over the tiles.
  constexpr int64_t kN = 640, kBlock = 64, kGrid = kN / kBlock;
  std::optional<la::Tile> first;
  for (const char* backend : {"packed", "generic"}) {
    for (int parts : {3, 8, 13}) {
      ClusterConfig cfg;
      cfg.default_parallelism = parts;
      cfg.kernel_backend = backend;
      planner::PlannerOptions opts;
      opts.auto_strategy = false;  // pin the 5.4 group-by-join (SUMMA) plan
      Sac ctx(cfg, opts);
      auto a = ctx.RandomMatrix(kN, kN, kBlock, 21).value();
      auto b = ctx.RandomMatrix(kN, kN, kBlock, 22).value();
      auto c = algo::Multiply(&ctx, a, b);
      ASSERT_TRUE(c.ok());
      const la::Tile product =
          storage::ToLocal(&ctx.engine(), c.value()).value();
      if (!first) {
        // The reference, from the first run's inputs.
        const la::Tile ta = storage::ToLocal(&ctx.engine(), a).value();
        const la::Tile tb = storage::ToLocal(&ctx.engine(), b).value();
        const auto block = [&](const la::Tile& m, int64_t bi, int64_t bj) {
          la::Tile t(kBlock, kBlock);
          for (int64_t i = 0; i < kBlock; ++i) {
            for (int64_t j = 0; j < kBlock; ++j) {
              t.Set(i, j, m.At(bi * kBlock + i, bj * kBlock + j));
            }
          }
          return t;
        };
        la::Tile ref(kN, kN);
        for (int64_t bi = 0; bi < kGrid; ++bi) {
          for (int64_t bj = 0; bj < kGrid; ++bj) {
            la::Tile acc(kBlock, kBlock);
            for (int64_t k = 0; k < kGrid; ++k) {
              la::GemmAccum(block(ta, bi, k), block(tb, k, bj), &acc);
            }
            for (int64_t i = 0; i < kBlock; ++i) {
              for (int64_t j = 0; j < kBlock; ++j) {
                ref.Set(bi * kBlock + i, bj * kBlock + j, acc.At(i, j));
              }
            }
          }
        }
        first = std::move(ref);
      }
      ASSERT_EQ(product.size(), first->size());
      EXPECT_EQ(std::memcmp(product.data(), first->data(),
                            sizeof(double) * product.size()),
                0)
          << backend << " at " << parts << " partitions";
    }
  }
}

}  // namespace
}  // namespace sac::runtime
