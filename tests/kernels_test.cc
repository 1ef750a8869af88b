#include "src/la/kernels.h"

#include <cmath>
#include <cstring>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/la/backend.h"
#include "src/la/fused.h"
#include "src/la/jvmlike.h"
#include "src/la/packed_gemm.h"
#include "src/la/tile.h"

namespace sac::la {

void PrintTo(MicroKernel kernel, std::ostream* os) {
  *os << MicroKernelName(kernel);
}

namespace {

Tile RandomTile(int64_t r, int64_t c, uint64_t seed) {
  Rng rng(seed);
  Tile t(r, c);
  t.FillRandom(&rng, -1.0, 1.0);
  return t;
}

/// Obviously correct reference gemm for oracle comparison.
Tile NaiveGemm(const Tile& a, const Tile& b) {
  Tile out(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double s = 0;
      for (int64_t k = 0; k < a.cols(); ++k) s += a.At(i, k) * b.At(k, j);
      out.Set(i, j, s);
    }
  }
  return out;
}

TEST(TileTest, ConstructAndAccess) {
  Tile t(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.size(), 12);
  t.Set(2, 3, 5.5);
  EXPECT_EQ(t.At(2, 3), 5.5);
  t.Add(2, 3, 1.5);
  EXPECT_EQ(t.At(2, 3), 7.0);
}

TEST(TileTest, EqualityIsElementwise) {
  Tile a(2, 2), b(2, 2);
  EXPECT_TRUE(a == b);
  b.Set(1, 1, 1.0);
  EXPECT_FALSE(a == b);
}

TEST(KernelsTest, AddMatchesElementwise) {
  Tile a = RandomTile(7, 5, 1), b = RandomTile(7, 5, 2);
  Tile out;
  Add(a, b, &out);
  for (int64_t i = 0; i < 7; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(out.At(i, j), a.At(i, j) + b.At(i, j));
    }
  }
}

TEST(KernelsTest, SubMulAxpbyScale) {
  Tile a = RandomTile(4, 6, 3), b = RandomTile(4, 6, 4);
  Tile sub, mul, axpby, scale;
  Sub(a, b, &sub);
  Mul(a, b, &mul);
  Axpby(2.0, a, -3.0, b, &axpby);
  Scale(0.5, a, &scale);
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(sub.data()[i], a.data()[i] - b.data()[i]);
    EXPECT_DOUBLE_EQ(mul.data()[i], a.data()[i] * b.data()[i]);
    EXPECT_DOUBLE_EQ(axpby.data()[i], 2.0 * a.data()[i] - 3.0 * b.data()[i]);
    EXPECT_DOUBLE_EQ(scale.data()[i], 0.5 * a.data()[i]);
  }
}

TEST(KernelsTest, AddInPlaceAccumulates) {
  Tile acc = RandomTile(3, 3, 5);
  Tile orig = acc;
  Tile t = RandomTile(3, 3, 6);
  AddInPlace(&acc, t);
  for (int64_t i = 0; i < acc.size(); ++i) {
    EXPECT_DOUBLE_EQ(acc.data()[i], orig.data()[i] + t.data()[i]);
  }
}

class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, BlockedGemmMatchesNaive) {
  const auto [m, l, n] = GetParam();
  Tile a = RandomTile(m, l, 10 + m), b = RandomTile(l, n, 20 + n);
  Tile ref = NaiveGemm(a, b);
  Tile out(m, n);
  GemmAccum(a, b, &out);
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.data()[i], ref.data()[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(4, 4, 4),
                      std::make_tuple(17, 9, 23), std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 127, 3), std::make_tuple(128, 1, 128),
                      std::make_tuple(100, 100, 100)));

TEST(KernelsTest, GemmAccumulatesIntoExisting) {
  Tile a = RandomTile(5, 5, 7), b = RandomTile(5, 5, 8);
  Tile out(5, 5);
  out.Set(0, 0, 100.0);
  Tile ref = NaiveGemm(a, b);
  GemmAccum(a, b, &out);
  EXPECT_NEAR(out.At(0, 0), 100.0 + ref.At(0, 0), 1e-9);
}

TEST(KernelsTest, TransposeTwiceIsIdentity) {
  Tile a = RandomTile(13, 7, 9);
  Tile t, tt;
  Transpose(a, &t);
  EXPECT_EQ(t.rows(), 7);
  EXPECT_EQ(t.cols(), 13);
  Transpose(t, &tt);
  EXPECT_TRUE(a == tt);
}

TEST(KernelsTest, TransposeElementMapping) {
  Tile a = RandomTile(40, 33, 11);
  Tile t;
  Transpose(a, &t);
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(t.At(j, i), a.At(i, j));
    }
  }
}

TEST(KernelsTest, RowAndColSums) {
  Tile a = RandomTile(6, 9, 12);
  std::vector<double> rows(6), cols(9);
  RowSums(a, rows.data());
  ColSums(a, cols.data());
  double total = 0;
  for (int64_t i = 0; i < 6; ++i) {
    double s = 0;
    for (int64_t j = 0; j < 9; ++j) s += a.At(i, j);
    EXPECT_NEAR(rows[i], s, 1e-12);
    total += s;
  }
  for (int64_t j = 0; j < 9; ++j) {
    double s = 0;
    for (int64_t i = 0; i < 6; ++i) s += a.At(i, j);
    EXPECT_NEAR(cols[j], s, 1e-12);
  }
  EXPECT_NEAR(TotalSum(a), total, 1e-12);
}

TEST(KernelsTest, MapAndZipElements) {
  Tile a = RandomTile(3, 5, 13), b = RandomTile(3, 5, 14);
  Tile mapped, zipped;
  MapElements(a, [](double x) { return x * x; }, &mapped);
  ZipElements(a, b, [](double x, double y) { return x - 2 * y; }, &zipped);
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(mapped.data()[i], a.data()[i] * a.data()[i]);
    EXPECT_DOUBLE_EQ(zipped.data()[i], a.data()[i] - 2 * b.data()[i]);
  }
}

// ---- jvmlike kernels must agree with the fast kernels -------------------

TEST(JvmlikeTest, GenericAddMatchesFast) {
  Tile a = RandomTile(8, 8, 21), b = RandomTile(8, 8, 22);
  Tile fast, generic;
  Add(a, b, &fast);
  jvmlike::TileAdd(a, b, &generic);
  EXPECT_TRUE(fast == generic);
}

TEST(JvmlikeTest, GenericGemmMatchesFast) {
  Tile a = RandomTile(16, 12, 23), b = RandomTile(12, 9, 24);
  Tile fast(16, 9), generic(16, 9);
  GemmAccum(a, b, &fast);
  jvmlike::TileGemmAccum(a, b, &generic);
  for (int64_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast.data()[i], generic.data()[i], 1e-9);
  }
}

TEST(JvmlikeTest, GenericAxpbyAndTranspose) {
  Tile a = RandomTile(5, 7, 25), b = RandomTile(5, 7, 26);
  Tile fast, generic;
  Axpby(1.5, a, 2.5, b, &fast);
  jvmlike::TileAxpby(1.5, a, 2.5, b, &generic);
  EXPECT_TRUE(fast == generic);
  Tile ft, gt;
  Transpose(a, &ft);
  jvmlike::TileTranspose(a, &gt);
  EXPECT_TRUE(ft == gt);
}

// ---- kernel backends (docs/KERNELS.md) ----------------------------------
//
// Every registered backend must produce byte-identical results for the
// elementwise kernels and GEMM (all accumulate c(i,j) = C + sum_k
// ascending), and tolerance-equal results for the reductions (the generic
// backend's SIMD reduction may reassociate).

class BackendTest : public ::testing::TestWithParam<const char*> {
 protected:
  const KernelBackend* be() const {
    const KernelBackend* b = FindBackend(GetParam());
    EXPECT_NE(b, nullptr);
    return b;
  }
};

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest,
                         ::testing::Values("generic", "packed", "jvmlike"));

TEST_P(BackendTest, NameRoundTrips) {
  EXPECT_EQ(std::string(be()->name()), GetParam());
  EXPECT_EQ(be(), GetBackend(be()->kind()));
}

TEST_P(BackendTest, ElementwiseByteIdenticalToGeneric) {
  const KernelBackend* g = GetBackend(BackendKind::kGeneric);
  Tile a = RandomTile(13, 11, 31), b = RandomTile(13, 11, 32);
  Tile ours, ref;
  be()->Add(a, b, &ours);
  g->Add(a, b, &ref);
  EXPECT_TRUE(ours == ref);
  be()->Sub(a, b, &ours);
  g->Sub(a, b, &ref);
  EXPECT_TRUE(ours == ref);
  be()->Mul(a, b, &ours);
  g->Mul(a, b, &ref);
  EXPECT_TRUE(ours == ref);
  be()->Axpby(1.25, a, -0.5, b, &ours);
  g->Axpby(1.25, a, -0.5, b, &ref);
  EXPECT_TRUE(ours == ref);
  be()->Scale(-2.0, a, &ours);
  g->Scale(-2.0, a, &ref);
  EXPECT_TRUE(ours == ref);
  be()->Transpose(a, &ours);
  g->Transpose(a, &ref);
  EXPECT_TRUE(ours == ref);
  Tile acc1 = RandomTile(13, 11, 33), acc2 = acc1;
  be()->AddInPlace(&acc1, a);
  g->AddInPlace(&acc2, a);
  EXPECT_TRUE(acc1 == acc2);
}

TEST_P(BackendTest, GemmEdgeShapesMatchOracleAndGeneric) {
  const KernelBackend* g = GetBackend(BackendKind::kGeneric);
  // Non-multiple-of-block dims, degenerate 1xN / Nx1, empty tiles, and
  // shapes on both sides of the packing threshold (min(m,n) >= 32).
  const std::tuple<int, int, int> shapes[] = {
      {65, 3, 65},   {65, 17, 65}, {1, 7, 5},      {5, 7, 1},
      {1, 1, 1},     {0, 5, 3},    {3, 0, 5},      {5, 3, 0},
      {63, 65, 64},  {8, 6, 8},    {130, 70, 134},
  };
  for (const auto& [m, l, n] : shapes) {
    SCOPED_TRACE(::testing::Message() << m << "x" << l << "x" << n);
    Tile a = RandomTile(m, l, 40 + m), b = RandomTile(l, n, 50 + n);
    Tile ours(m, n), ref(m, n);
    be()->GemmAccum(a, b, &ours);
    g->GemmAccum(a, b, &ref);
    EXPECT_TRUE(ours == ref) << "backend disagrees with generic";
    Tile oracle = NaiveGemm(a, b);
    for (int64_t i = 0; i < ours.size(); ++i) {
      EXPECT_NEAR(ours.data()[i], oracle.data()[i], 1e-9);
    }
  }
}

TEST_P(BackendTest, GemmAccumulatesIntoExistingOutput) {
  const KernelBackend* g = GetBackend(BackendKind::kGeneric);
  Tile a = RandomTile(130, 64, 60), b = RandomTile(64, 130, 61);
  Tile ours = RandomTile(130, 130, 62), ref = ours;
  be()->GemmAccum(a, b, &ours);
  g->GemmAccum(a, b, &ref);
  EXPECT_TRUE(ours == ref);
}

TEST_P(BackendTest, ReductionsMatchWithinTolerance) {
  Tile a = RandomTile(37, 29, 70);
  std::vector<double> rows(37), cols(29);
  be()->RowSums(a, rows.data());
  be()->ColSums(a, cols.data());
  double total = 0;
  for (int64_t i = 0; i < a.rows(); ++i) {
    double s = 0;
    for (int64_t j = 0; j < a.cols(); ++j) s += a.At(i, j);
    EXPECT_NEAR(rows[i], s, 1e-12);
    total += s;
  }
  for (int64_t j = 0; j < a.cols(); ++j) {
    double s = 0;
    for (int64_t i = 0; i < a.rows(); ++i) s += a.At(i, j);
    EXPECT_NEAR(cols[j], s, 1e-12);
  }
  EXPECT_NEAR(be()->TotalSum(a), total, 1e-10);
}

TEST(BackendLookupTest, UnknownNameReturnsNull) {
  EXPECT_EQ(FindBackend("blas"), nullptr);
  EXPECT_EQ(FindBackend(""), nullptr);
}

TEST(PackedGemmTest, SmallShapesForwardToUnpacked) {
  EXPECT_EQ(PackedGemmThreshold(), 32);
  EXPECT_FALSE(PackedGemmWouldPack(31, 64, 64));
  EXPECT_FALSE(PackedGemmWouldPack(64, 64, 31));
  EXPECT_FALSE(PackedGemmWouldPack(512, 7, 512));  // k below the depth floor
  // Without a vector microkernel nothing packs.
  const bool vector = PackedMicroKernel().has_value();
  EXPECT_EQ(PackedGemmWouldPack(64, 64, 64), vector);  // the default tile
  EXPECT_EQ(PackedGemmWouldPack(32, 64, 32), vector);
  EXPECT_EQ(PackedGemmWouldPack(128, 8, 128), vector);
  EXPECT_EQ(PackedGemmWouldPack(512, 512, 512), vector);
}

TEST(PackedGemmTest, RunsTheWidestSupportedMicroKernel) {
  const std::optional<MicroKernel> k = PackedMicroKernel();
  if (MicroKernelSupported(MicroKernel::kAvx512)) {
    EXPECT_EQ(k, MicroKernel::kAvx512);
  } else if (MicroKernelSupported(MicroKernel::kAvx2)) {
    EXPECT_EQ(k, MicroKernel::kAvx2);
  } else {
    EXPECT_EQ(k, std::nullopt);
  }
}

// Every microkernel the host runs must match la::GemmAccum bit for bit on
// tile-sized shapes: full and fringe microtiles on both axes, depths that
// are and are not multiples of the register tile, accumulating into an
// existing C.
class MicroKernelTest : public ::testing::TestWithParam<MicroKernel> {};

INSTANTIATE_TEST_SUITE_P(
    AllMicroKernels, MicroKernelTest,
    ::testing::Values(MicroKernel::kAvx512, MicroKernel::kAvx2),
    [](const ::testing::TestParamInfo<MicroKernel>& info) {
      return std::string(MicroKernelName(info.param));
    });

TEST_P(MicroKernelTest, ByteIdenticalToGemmAccum) {
  if (!MicroKernelSupported(GetParam())) {
    GTEST_SKIP() << MicroKernelName(GetParam()) << " not supported here";
  }
  const int64_t dims[] = {32, 37, 64, 65, 71, 128, 130, 136};
  const int64_t depths[] = {8, 9, 17, 64, 127};
  for (int64_t m : dims) {
    for (int64_t n : dims) {
      for (int64_t l : depths) {
        SCOPED_TRACE(::testing::Message() << m << "x" << l << "x" << n);
        const auto seed = static_cast<uint64_t>(m * 1000000 + l * 1000 + n);
        Tile a = RandomTile(m, l, seed), b = RandomTile(l, n, seed + 1);
        Tile ours = RandomTile(m, n, seed + 2), ref = ours;
        PackedGemmAccumWith(GetParam(), a, b, &ours);
        GemmAccum(a, b, &ref);
        ASSERT_EQ(ours.size(), ref.size());
        EXPECT_EQ(std::memcmp(ours.data(), ref.data(),
                              sizeof(double) * static_cast<size_t>(ref.size())),
                  0);
      }
    }
  }
}

// ---- fused elementwise pipelines (src/la/fused.h) -----------------------
//
// A fused transposed read must be bit-identical to materializing the
// transpose and then running the plain kernel: same single arithmetic
// expression per element, just no temporary tile.

TEST(FusedTest, FusedZipMatchesTransposeThenOp) {
  Tile a = RandomTile(33, 65, 80);   // stored transposed: logical 65x33
  Tile b = RandomTile(65, 33, 81);
  Tile at;
  Transpose(a, &at);
  const struct {
    ZipOp op;
    double alpha, beta;
  } cases[] = {{ZipOp::kAdd, 1, 1},
               {ZipOp::kSub, 1, 1},
               {ZipOp::kMul, 1, 1},
               {ZipOp::kAxpby, 0.002, -1.5}};
  for (const auto& c : cases) {
    Tile fused, ref;
    FusedZip(c.op, c.alpha, c.beta, a, /*a_t=*/true, b, /*b_t=*/false,
             &fused);
    FusedZip(c.op, c.alpha, c.beta, at, false, b, false, &ref);
    EXPECT_TRUE(fused == ref);
  }
  // Both operands transposed.
  Tile b2 = RandomTile(33, 65, 82), b2t;
  Transpose(b2, &b2t);
  Tile fused, ref;
  FusedZip(ZipOp::kAdd, 1, 1, a, true, b2, true, &fused);
  Add(at, b2t, &ref);
  EXPECT_TRUE(fused == ref);
}

TEST(FusedTest, FusedMapAndScaleMatchTwoPass) {
  Tile a = RandomTile(47, 31, 83);
  Tile at;
  Transpose(a, &at);
  Tile fused, ref;
  FusedScale(0.25, a, true, &fused);
  Scale(0.25, at, &ref);
  EXPECT_TRUE(fused == ref);
  auto sq = [](double x) { return x * x; };
  FusedMapFn(sq, a, true, &fused);
  MapElements(at, sq, &ref);
  EXPECT_TRUE(fused == ref);
  auto sub2 = [](double x, double y) { return x - 2 * y; };
  Tile b = RandomTile(31, 47, 84);
  FusedZipFn(sub2, a, true, b, false, &fused);
  ZipElements(at, b, sub2, &ref);
  EXPECT_TRUE(fused == ref);
}

}  // namespace
}  // namespace sac::la
