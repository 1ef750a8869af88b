// Tests for the Section 8 extension: CSR tiles and the sparse-tiled
// distributed storage with its black-box library kernels.
#include "src/storage/sparse_tiled.h"

#include <gtest/gtest.h>

#include "src/api/algorithms.h"
#include "src/api/sac.h"
#include "src/la/kernels.h"

namespace sac {
namespace {

using la::SparseTile;
using la::Tile;

Tile SparseRandom(int64_t r, int64_t c, uint64_t seed, double density) {
  Rng rng(seed);
  Tile t(r, c);
  for (int64_t i = 0; i < t.size(); ++i) {
    if (rng.NextDouble() < density) t.data()[i] = rng.Uniform(-2.0, 2.0);
  }
  return t;
}

TEST(SparseTileTest, DenseRoundTrip) {
  Tile d = SparseRandom(13, 9, 1, 0.2);
  SparseTile s = SparseTile::FromDense(d);
  EXPECT_TRUE(s.ToDense() == d);
  EXPECT_LT(s.nnz(), d.size());
  EXPECT_EQ(s.row_ptr().size(), 14u);
}

TEST(SparseTileTest, EmptyAndFullTiles) {
  Tile zero(4, 4);
  SparseTile s0 = SparseTile::FromDense(zero);
  EXPECT_EQ(s0.nnz(), 0);
  EXPECT_TRUE(s0.ToDense() == zero);

  Tile full(3, 3);
  for (int64_t i = 0; i < full.size(); ++i) full.data()[i] = 1.0 + i;
  SparseTile sf = SparseTile::FromDense(full);
  EXPECT_EQ(sf.nnz(), 9);
  EXPECT_TRUE(sf.ToDense() == full);
}

TEST(SparseTileTest, PayloadSmallerThanDenseWhenSparse) {
  Tile d = SparseRandom(64, 64, 2, 0.05);
  SparseTile s = SparseTile::FromDense(d);
  EXPECT_LT(s.PayloadBytes(), static_cast<size_t>(d.size()) * 8 / 2);
}

TEST(SparseTileTest, SpMVMatchesDense) {
  Tile a = SparseRandom(17, 23, 3, 0.15);
  Rng rng(4);
  Tile x(1, 23);
  x.FillRandom(&rng, -1.0, 1.0);
  SparseTile s = SparseTile::FromDense(a);
  Tile y(1, 17);
  la::SpMV(s, x, &y);
  for (int64_t i = 0; i < 17; ++i) {
    double ref = 0;
    for (int64_t k = 0; k < 23; ++k) ref += a.At(i, k) * x.At(0, k);
    EXPECT_NEAR(y.At(0, i), ref, 1e-12);
  }
}

TEST(SparseTileTest, SpGemmMatchesDenseGemm) {
  Tile a = SparseRandom(12, 15, 5, 0.2);
  Rng rng(6);
  Tile b(15, 10);
  b.FillRandom(&rng, -1.0, 1.0);
  Tile ref(12, 10), got(12, 10);
  la::GemmAccum(a, b, &ref);
  la::SpGemmAccum(SparseTile::FromDense(a), b, &got);
  for (int64_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got.data()[i], ref.data()[i], 1e-12);
  }
}

TEST(SparseTileTest, SpAxpby) {
  Tile a = SparseRandom(6, 7, 7, 0.3);
  Rng rng(8);
  Tile b(6, 7);
  b.FillRandom(&rng, -1.0, 1.0);
  Tile out;
  la::SpAxpby(2.0, SparseTile::FromDense(a), -1.0, b, &out);
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.data()[i], 2.0 * a.data()[i] - b.data()[i], 1e-12);
  }
}

TEST(SparseValueTest, SerializeRoundTrip) {
  using runtime::Value;
  Value v = Value::SparseTileVal(
      SparseTile::FromDense(SparseRandom(9, 9, 9, 0.25)));
  ByteWriter w;
  v.Serialize(&w);
  EXPECT_EQ(w.size(), v.SerializedSize());
  ByteReader r(w.buffer());
  auto back = Value::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value().Equals(v));
  EXPECT_EQ(back.value().Hash(), v.Hash());
}

// ---- distributed sparse storage -------------------------------------------

class SparseTiledTest : public ::testing::Test {
 protected:
  SparseTiledTest() : ctx_(runtime::ClusterConfig{2, 2, 4}) {}
  Sac ctx_;
};

TEST_F(SparseTiledTest, CompressDecompressRoundTrip) {
  auto dense = ctx_.RandomSparseMatrix(40, 30, 8, 11, 0.1, 5).value();
  auto sparse = storage::Compress(&ctx_.engine(), dense).value();
  auto back = storage::Decompress(&ctx_.engine(), sparse).value();
  EXPECT_EQ(storage::MaxAbsDiff(&ctx_.engine(), dense, back).value(), 0.0);
}

TEST_F(SparseTiledTest, NnzAndCompressionRatio) {
  auto dense = ctx_.RandomSparseMatrix(64, 64, 16, 12, 0.05, 5).value();
  auto sparse = storage::Compress(&ctx_.engine(), dense).value();
  const int64_t nnz = storage::Nnz(&ctx_.engine(), sparse).value();
  EXPECT_GT(nnz, 0);
  EXPECT_LT(nnz, 64 * 64 / 5);  // ~5% density
  const int64_t bytes = storage::PayloadBytes(&ctx_.engine(), sparse).value();
  EXPECT_LT(bytes, 64 * 64 * 8 / 2);  // much smaller than dense
}

TEST_F(SparseTiledTest, SpMatVecMatchesDenseMatVec) {
  auto dense = ctx_.RandomSparseMatrix(40, 24, 8, 13, 0.15, 5).value();
  auto sparse = storage::Compress(&ctx_.engine(), dense).value();
  auto x = ctx_.RandomVector(24, 8, 14).value();
  auto sy = ctx_.ToLocal(
                   storage::SpMatVec(&ctx_.engine(), sparse, x).value())
                .value();
  auto dy = ctx_.ToLocal(algo::MatVec(&ctx_, dense, x).value()).value();
  ASSERT_EQ(sy.size(), dy.size());
  for (size_t i = 0; i < sy.size(); ++i) {
    ASSERT_NEAR(sy[i], dy[i], 1e-9);
  }
}

TEST_F(SparseTiledTest, SpMultiplyMatchesDenseMultiply) {
  auto a_dense = ctx_.RandomSparseMatrix(24, 20, 8, 15, 0.2, 5).value();
  auto a_sparse = storage::Compress(&ctx_.engine(), a_dense).value();
  auto b = ctx_.RandomMatrix(20, 16, 8, 16).value();
  auto sp = storage::SpMultiply(&ctx_.engine(), a_sparse, b).value();
  auto de = algo::Multiply(&ctx_, a_dense, b).value();
  EXPECT_LT(storage::MaxAbsDiff(&ctx_.engine(), sp, de).value(), 1e-8);
}

TEST_F(SparseTiledTest, SparseShufflesFewerBytesThanDense) {
  // The Section 8 rationale: sparse tiles shrink the shuffle. Compared on
  // total moved bytes (cross-executor + executor-local): which share
  // crosses executors depends on placement, not on the tile format.
  auto dense = ctx_.RandomSparseMatrix(64, 64, 16, 17, 0.02, 5).value();
  auto sparse = storage::Compress(&ctx_.engine(), dense).value();
  auto x = ctx_.RandomVector(64, 16, 18).value();
  auto moved = [this] {
    const MetricsSnapshot s = ctx_.metrics().Snapshot();
    return s.shuffle_bytes + s.local_shuffle_bytes;
  };

  ctx_.metrics().Reset();
  ASSERT_TRUE(storage::SpMatVec(&ctx_.engine(), sparse, x).ok());
  const uint64_t sparse_bytes = moved();

  ctx_.metrics().Reset();
  ASSERT_TRUE(algo::MatVec(&ctx_, dense, x).ok());
  const uint64_t dense_bytes = moved();

  EXPECT_LT(sparse_bytes * 2, dense_bytes);
}

TEST_F(SparseTiledTest, DimensionMismatchErrors) {
  auto dense = ctx_.RandomSparseMatrix(16, 16, 8, 19, 0.1, 5).value();
  auto sparse = storage::Compress(&ctx_.engine(), dense).value();
  auto bad_x = ctx_.RandomVector(24, 8, 20).value();
  EXPECT_FALSE(storage::SpMatVec(&ctx_.engine(), sparse, bad_x).ok());
  auto bad_b = ctx_.RandomMatrix(24, 8, 8, 21).value();
  EXPECT_FALSE(storage::SpMultiply(&ctx_.engine(), sparse, bad_b).ok());
}

}  // namespace
}  // namespace sac
