// End-to-end tests of the block-array translation rules (Sections 4-5):
// every strategy is exercised through the public API and validated against
// the reference evaluator (the oracle) on the same inputs.
#include <cmath>

#include <gtest/gtest.h>

#include "src/api/sac.h"
#include "src/planner/planner.h"

namespace sac {
namespace {

using planner::Strategy;
using runtime::Value;

constexpr double kTol = 1e-9;

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : ctx_(runtime::ClusterConfig{2, 2, 4}) {}

  /// Asserts that `src` compiles with `want` strategy, runs, and that the
  /// produced matrix equals the reference evaluation.
  void CheckMatrixQuery(const std::string& src, Strategy want) {
    auto q = ctx_.Compile(src);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(q.value().strategy, want)
        << "plan: " << q.value().explanation;
    auto r = ctx_.EvalTiled(src);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto local = ctx_.ToLocal(r.value());
    ASSERT_TRUE(local.ok());
    auto ref = ctx_.ReferenceEval(src);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_TRUE(ref.value().is_tile());
    const la::Tile& expect = ref.value().AsTile();
    const la::Tile& got = local.value();
    ASSERT_EQ(got.rows(), expect.rows());
    ASSERT_EQ(got.cols(), expect.cols());
    for (int64_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got.data()[i], expect.data()[i], kTol)
          << "cell " << i << " of " << src;
    }
  }

  void CheckVectorQuery(const std::string& src, Strategy want) {
    auto q = ctx_.Compile(src);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(q.value().strategy, want)
        << "plan: " << q.value().explanation;
    auto r = ctx_.EvalVector(src);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto local = ctx_.ToLocal(r.value());
    ASSERT_TRUE(local.ok());
    auto ref = ctx_.ReferenceEval(src);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_TRUE(ref.value().is_list());
    const auto& expect = ref.value().AsList();
    const auto& got = local.value();
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], expect[i].At(1).AsDouble(), kTol) << src;
    }
  }

  Sac ctx_;
};

// ---- 5.1 tiling-preserving -------------------------------------------------

TEST_F(PlannerTest, MatrixAdditionPreservesTiling) {
  ctx_.Bind("A", ctx_.RandomMatrix(30, 22, 8, 1).value());
  ctx_.Bind("B", ctx_.RandomMatrix(30, 22, 8, 2).value());
  ctx_.BindScalar("n", int64_t{30});
  ctx_.BindScalar("m", int64_t{22});
  CheckMatrixQuery(
      "tiled(n,m)[ ((i,j),a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
      " ii == i, jj == j ]",
      Strategy::kTilingPreserving);
}

TEST_F(PlannerTest, ElementwiseExpressionWithScalars) {
  ctx_.Bind("A", ctx_.RandomMatrix(17, 17, 8, 3).value());
  ctx_.Bind("B", ctx_.RandomMatrix(17, 17, 8, 4).value());
  ctx_.BindScalar("n", int64_t{17});
  ctx_.BindScalar("gamma", 0.5);
  CheckMatrixQuery(
      "tiled(n,n)[ ((i,j), a + gamma*(2.0*b - a)) | ((i,j),a) <- A,"
      " ((ii,jj),b) <- B, ii == i, jj == j ]",
      Strategy::kTilingPreserving);
}

TEST_F(PlannerTest, MatrixSubtraction) {
  ctx_.Bind("A", ctx_.RandomMatrix(16, 16, 8, 5).value());
  ctx_.Bind("B", ctx_.RandomMatrix(16, 16, 8, 6).value());
  ctx_.BindScalar("n", int64_t{16});
  CheckMatrixQuery(
      "tiled(n,n)[ ((i,j),a-b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
      " ii == i, jj == j ]",
      Strategy::kTilingPreserving);
}

TEST_F(PlannerTest, TransposePreservesTiling) {
  ctx_.Bind("A", ctx_.RandomMatrix(20, 12, 8, 7).value());
  ctx_.BindScalar("n", int64_t{20});
  ctx_.BindScalar("m", int64_t{12});
  CheckMatrixQuery("tiled(m,n)[ ((j,i),a) | ((i,j),a) <- A ]",
                   Strategy::kTilingPreserving);
}

TEST_F(PlannerTest, ScaleByScalar) {
  ctx_.Bind("A", ctx_.RandomMatrix(16, 16, 8, 8).value());
  ctx_.BindScalar("n", int64_t{16});
  ctx_.BindScalar("c", 2.5);
  CheckMatrixQuery("tiled(n,n)[ ((i,j), c*a) | ((i,j),a) <- A ]",
                   Strategy::kTilingPreserving);
}

TEST_F(PlannerTest, DiagonalExtraction) {
  ctx_.Bind("A", ctx_.RandomMatrix(24, 24, 8, 9).value());
  ctx_.BindScalar("n", int64_t{24});
  CheckVectorQuery("tiled(n)[ (i, a) | ((i,j),a) <- A, i == j ]",
                   Strategy::kTilingPreserving);
}

TEST_F(PlannerTest, VectorElementwise) {
  ctx_.Bind("V", ctx_.RandomVector(40, 8, 10).value());
  ctx_.Bind("W", ctx_.RandomVector(40, 8, 11).value());
  ctx_.BindScalar("n", int64_t{40});
  CheckVectorQuery("tiled(n)[ (i, 3.0*v) | (i,v) <- V ]",
                   Strategy::kTilingPreserving);
  CheckVectorQuery(
      "tiled(n)[ (i, v+w) | (i,v) <- V, (j,w) <- W, j == i ]",
      Strategy::kTilingPreserving);
}

// ---- 5.3 reduce-by-key ------------------------------------------------------

TEST_F(PlannerTest, RowSumsUseReduceByKey) {
  ctx_.Bind("M", ctx_.RandomMatrix(30, 26, 8, 12).value());
  ctx_.BindScalar("n", int64_t{30});
  CheckVectorQuery("tiled(n)[ (i, +/m) | ((i,j),m) <- M, group by i ]",
                   Strategy::kReduceByKey);
}

TEST_F(PlannerTest, ColumnSums) {
  ctx_.Bind("M", ctx_.RandomMatrix(30, 26, 8, 13).value());
  ctx_.BindScalar("m", int64_t{26});
  CheckVectorQuery("tiled(m)[ (j, +/v) | ((i,j),v) <- M, group by j ]",
                   Strategy::kReduceByKey);
}

TEST_F(PlannerTest, RowMaxima) {
  ctx_.Bind("M", ctx_.RandomMatrix(24, 24, 8, 14).value());
  ctx_.BindScalar("n", int64_t{24});
  CheckVectorQuery("tiled(n)[ (i, max/m) | ((i,j),m) <- M, group by i ]",
                   Strategy::kReduceByKey);
}

TEST_F(PlannerTest, RowAveragesUseTwoAggregates) {
  ctx_.Bind("M", ctx_.RandomMatrix(24, 16, 8, 15).value());
  ctx_.BindScalar("n", int64_t{24});
  CheckVectorQuery("tiled(n)[ (i, avg/m) | ((i,j),m) <- M, group by i ]",
                   Strategy::kReduceByKey);
}

TEST_F(PlannerTest, MatrixMultiplyWithoutGbjUsesReduceByKey) {
  planner::PlannerOptions opts;
  opts.enable_group_by_join = false;
  Sac ctx(runtime::ClusterConfig{2, 2, 4}, opts);
  ctx.Bind("A", ctx.RandomMatrix(24, 18, 6, 16).value());
  ctx.Bind("B", ctx.RandomMatrix(18, 20, 6, 17).value());
  ctx.BindScalar("n", int64_t{24});
  ctx.BindScalar("m", int64_t{20});
  const std::string src =
      "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
      " kk == k, let v = a*b, group by (i,j) ]";
  auto q = ctx.Compile(src);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().strategy, Strategy::kReduceByKey);
  auto r = ctx.EvalTiled(src);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto local = ctx.ToLocal(r.value()).value();
  auto ref = ctx.ReferenceEval(src).value();
  for (int64_t i = 0; i < local.size(); ++i) {
    ASSERT_NEAR(local.data()[i], ref.AsTile().data()[i], 1e-8);
  }
}

TEST_F(PlannerTest, MatrixVectorProduct) {
  ctx_.Bind("A", ctx_.RandomMatrix(24, 16, 8, 18).value());
  ctx_.Bind("V", ctx_.RandomVector(16, 8, 19).value());
  ctx_.BindScalar("n", int64_t{24});
  CheckVectorQuery(
      "tiled(n)[ (i, +/c) | ((i,k),a) <- A, (kk,v) <- V, kk == k,"
      " let c = a*v, group by i ]",
      Strategy::kReduceByKey);
}

// ---- 5.4 group-by-join (SUMMA) ---------------------------------------------

TEST_F(PlannerTest, MatrixMultiplyUsesGroupByJoin) {
  ctx_.Bind("A", ctx_.RandomMatrix(24, 18, 6, 20).value());
  ctx_.Bind("B", ctx_.RandomMatrix(18, 20, 6, 21).value());
  ctx_.BindScalar("n", int64_t{24});
  ctx_.BindScalar("m", int64_t{20});
  CheckMatrixQuery(
      "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
      " kk == k, let v = a*b, group by (i,j) ]",
      Strategy::kGroupByJoin);
}

TEST(PlannerDefaults, TwoMatrixMultiplyTakesGroupByJoinAtEveryExtent) {
  // The 5.4 rule fires whenever it applies, on fine 64-tile grids too.
  // Planning reads only the bound shapes, so the operands carry no data.
  for (const int64_t n : {int64_t{512}, int64_t{1024}}) {
    Sac ctx;
    ctx.Bind("A", storage::TiledMatrix{n, n, 64, nullptr});
    ctx.Bind("B", storage::TiledMatrix{n, n, 64, nullptr});
    ctx.BindScalar("n", n);
    ctx.BindScalar("m", n);
    auto q = ctx.Compile(
        "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
        " kk == k, let v = a*b, group by (i,j) ]");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(q.value().strategy, Strategy::kGroupByJoin)
        << "n=" << n << ": " << q.value().explanation;
  }
}

TEST(PlannerDefaults, PerTileRowSumsSizeTheirReduceByOutputTiles) {
  // 256 rows in 64-tiles: 4 output tiles, fewer than the parallelism of
  // 8, so the reduce takes 4 partitions rather than the engine default,
  // whatever auto_strategy says.
  for (const bool auto_strategy : {true, false}) {
    planner::PlannerOptions opts;
    opts.auto_strategy = auto_strategy;
    Sac ctx(runtime::ClusterConfig(), opts);
    ctx.Bind("M", storage::TiledMatrix{256, 192, 64, nullptr});
    ctx.BindScalar("n", int64_t{256});
    auto q = ctx.Compile("tiled(n)[ (i, +/m) | ((i,j),m) <- M, group by i ]");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ASSERT_EQ(q.value().strategy, Strategy::kReduceByKey);
    const int want = planner::GridShufflePartitions(
        4, ctx.options().cluster.default_parallelism);
    ASSERT_EQ(want, 4);
    int reduces = 0;
    for (const planner::PlanNodePtr& node : q.value().plan_nodes) {
      if (node->label != "reduceTiles") continue;
      ++reduces;
      EXPECT_EQ(node->partitioning.num_partitions, want)
          << "auto_strategy=" << auto_strategy;
    }
    EXPECT_EQ(reduces, 1) << "auto_strategy=" << auto_strategy;
  }
}

TEST_F(PlannerTest, GroupByJoinHandlesNonSquareGrids) {
  ctx_.Bind("A", ctx_.RandomMatrix(25, 13, 8, 22).value());
  ctx_.Bind("B", ctx_.RandomMatrix(13, 31, 8, 23).value());
  ctx_.BindScalar("n", int64_t{25});
  ctx_.BindScalar("m", int64_t{31});
  CheckMatrixQuery(
      "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
      " kk == k, let v = a*b, group by (i,j) ]",
      Strategy::kGroupByJoin);
}

TEST_F(PlannerTest, MinPlusSemiringProduct) {
  // The rules are oblivious to linear algebra: a min-plus "multiplication"
  // (shortest paths step) compiles through the same group-by-join rule.
  ctx_.Bind("A", ctx_.RandomMatrix(16, 16, 8, 24).value());
  ctx_.Bind("B", ctx_.RandomMatrix(16, 16, 8, 25).value());
  ctx_.BindScalar("n", int64_t{16});
  CheckMatrixQuery(
      "tiled(n,n)[ ((i,j),min/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
      " kk == k, let v = a+b, group by (i,j) ]",
      Strategy::kGroupByJoin);
}

TEST_F(PlannerTest, ProductOfTransposedOperand) {
  // E^T x P: the transposed operand appears as ((k,i),e).
  ctx_.Bind("E", ctx_.RandomMatrix(18, 12, 6, 26).value());
  ctx_.Bind("P", ctx_.RandomMatrix(18, 14, 6, 27).value());
  ctx_.BindScalar("m", int64_t{12});
  ctx_.BindScalar("k", int64_t{14});
  CheckMatrixQuery(
      "tiled(m,k)[ ((i,j),+/v) | ((q,i),e) <- E, ((qq,j),p) <- P,"
      " qq == q, let v = e*p, group by (i,j) ]",
      Strategy::kGroupByJoin);
}

// ---- 5.2 replication ---------------------------------------------------------

TEST_F(PlannerTest, RowRotationUsesReplication) {
  ctx_.Bind("X", ctx_.RandomMatrix(24, 16, 8, 28).value());
  ctx_.BindScalar("n", int64_t{24});
  ctx_.BindScalar("m", int64_t{16});
  CheckMatrixQuery(
      "tiled(n,m)[ (((i+1) % n, j), v) | ((i,j),v) <- X ]",
      Strategy::kReplication);
}

TEST_F(PlannerTest, ShiftByOneColumnDropsBoundary) {
  ctx_.Bind("X", ctx_.RandomMatrix(16, 16, 8, 29).value());
  ctx_.BindScalar("n", int64_t{16});
  CheckMatrixQuery(
      "tiled(n,n)[ ((i, j+1), v) | ((i,j),v) <- X, j+1 < n ]",
      Strategy::kReplication);
}

// ---- Section 4 COO ----------------------------------------------------------

TEST_F(PlannerTest, ForcedCooMatchesReference) {
  planner::PlannerOptions opts;
  opts.force_coo = true;
  Sac ctx(runtime::ClusterConfig{2, 2, 4}, opts);
  ctx.Bind("A", ctx.RandomMatrix(12, 12, 4, 30).value());
  ctx.Bind("B", ctx.RandomMatrix(12, 12, 4, 31).value());
  ctx.BindScalar("n", int64_t{12});
  const std::string add =
      "tiled(n,n)[ ((i,j),a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
      " ii == i, jj == j ]";
  auto q = ctx.Compile(add);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().strategy, Strategy::kCoo);
  auto local = ctx.ToLocal(ctx.EvalTiled(add).value()).value();
  auto ref = ctx.ReferenceEval(add).value();
  for (int64_t i = 0; i < local.size(); ++i) {
    ASSERT_NEAR(local.data()[i], ref.AsTile().data()[i], kTol);
  }
}

TEST_F(PlannerTest, CooMatrixMultiply) {
  planner::PlannerOptions opts;
  opts.force_coo = true;
  Sac ctx(runtime::ClusterConfig{2, 2, 4}, opts);
  ctx.Bind("A", ctx.RandomMatrix(10, 8, 4, 32).value());
  ctx.Bind("B", ctx.RandomMatrix(8, 12, 4, 33).value());
  ctx.BindScalar("n", int64_t{10});
  ctx.BindScalar("m", int64_t{12});
  const std::string src =
      "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
      " kk == k, let v = a*b, group by (i,j) ]";
  auto q = ctx.Compile(src);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().strategy, Strategy::kCoo);
  auto local = ctx.ToLocal(ctx.EvalTiled(src).value()).value();
  auto ref = ctx.ReferenceEval(src).value();
  for (int64_t i = 0; i < local.size(); ++i) {
    ASSERT_NEAR(local.data()[i], ref.AsTile().data()[i], 1e-8);
  }
}

// ---- total aggregation -------------------------------------------------------

TEST_F(PlannerTest, TotalSumAndExtrema) {
  ctx_.Bind("A", ctx_.RandomMatrix(20, 20, 8, 34).value());
  auto sum = ctx_.EvalScalar("+/[ v | ((i,j),v) <- A ]");
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  auto ref = ctx_.ReferenceEval("+/[ v | ((i,j),v) <- A ]").value();
  EXPECT_NEAR(sum.value(), ref.AsDouble(), 1e-8);

  auto mx = ctx_.EvalScalar("max/[ v | ((i,j),v) <- A ]");
  auto ref_mx = ctx_.ReferenceEval("max/[ v | ((i,j),v) <- A ]").value();
  EXPECT_DOUBLE_EQ(mx.value(), ref_mx.AsDouble());
}

TEST_F(PlannerTest, SquaredErrorNorm) {
  ctx_.Bind("E", ctx_.RandomMatrix(16, 16, 8, 35).value());
  auto v = ctx_.EvalScalar("+/[ e*e | ((i,j),e) <- E ]");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  auto ref = ctx_.ReferenceEval("+/[ e*e | ((i,j),e) <- E ]").value();
  EXPECT_NEAR(v.value(), ref.AsDouble(), 1e-8);
}

TEST_F(PlannerTest, GuardedCountOverDiagonal) {
  ctx_.Bind("A", ctx_.RandomMatrix(12, 12, 4, 36).value());
  auto v = ctx_.EvalScalar("count/[ v | ((i,j),v) <- A, i == j ]");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v.value(), 12.0);
}

// ---- local fallback & local queries -----------------------------------------

TEST_F(PlannerTest, SmoothingFallsBackAndMatchesReference) {
  ctx_.Bind("M", ctx_.RandomMatrix(12, 12, 4, 37).value());
  ctx_.BindScalar("n", int64_t{12});
  ctx_.BindScalar("m", int64_t{12});
  // The Section 3 smoothing stencil: not expressible by the tile rules we
  // implement, so the planner must still run it correctly (fallback).
  const std::string src =
      "tiled(n,m)[ ((ii,jj), (+/a)/a.length) | ((i,j),a) <- M,"
      " ii <- (i-1) to (i+1), jj <- (j-1) to (j+1),"
      " ii >= 0, ii < n, jj >= 0, jj < m, group by (ii,jj) ]";
  auto q = ctx_.Compile(src);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().strategy, Strategy::kLocalFallback);
  auto local = ctx_.ToLocal(ctx_.EvalTiled(src).value()).value();
  auto ref = ctx_.ReferenceEval(src).value();
  for (int64_t i = 0; i < local.size(); ++i) {
    ASSERT_NEAR(local.data()[i], ref.AsTile().data()[i], kTol);
  }
}

TEST_F(PlannerTest, LocalFallbackCollectsOnlyTheQuerysInputs) {
  ctx_.Bind("M", ctx_.RandomMatrix(12, 12, 4, 37).value());
  ctx_.BindScalar("n", int64_t{12});
  ctx_.BindScalar("m", int64_t{12});
  const std::string src =
      "tiled(n,m)[ ((ii,jj), (+/a)/a.length) | ((i,j),a) <- M,"
      " ii <- (i-1) to (i+1), jj <- (j-1) to (j+1),"
      " ii >= 0, ii < n, jj >= 0, jj < m, group by (ii,jj) ]";
  ASSERT_EQ(ctx_.Compile(src).value().strategy, Strategy::kLocalFallback);
  // Runs the fallback and returns (tasks run, stages created) by it.
  auto cost = [&]() -> std::pair<uint64_t, size_t> {
    ctx_.ResetStats();
    EXPECT_TRUE(ctx_.EvalTiled(src).ok());
    return {ctx_.metrics().Snapshot().tasks_run, ctx_.stages().size()};
  };
  const auto alone = cost();
  // A large matrix the query never names must not be collected.
  ctx_.Bind("Z", ctx_.RandomMatrix(512, 512, 16, 38).value());
  const auto with_unrelated = cost();
  EXPECT_EQ(with_unrelated.first, alone.first);
  EXPECT_EQ(with_unrelated.second, alone.second);
}

TEST_F(PlannerTest, PurelyLocalQueriesEvaluateLocally) {
  ctx_.BindScalar("n", int64_t{5});
  auto q = ctx_.Compile("+/[ i*i | i <- 0 until n ]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().strategy, Strategy::kLocal);
  auto r = ctx_.Eval("+/[ i*i | i <- 0 until n ]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().value.AsInt(), 30);
}

// ---- planner diagnostics ------------------------------------------------------

TEST_F(PlannerTest, UnboundArrayIsAnError) {
  ctx_.BindScalar("n", int64_t{4});
  auto r = ctx_.Eval("tiled(n,n)[ ((i,j),v) | ((i,j),v) <- NOPE ]");
  EXPECT_FALSE(r.ok());
}

TEST_F(PlannerTest, ExplanationMentionsRule) {
  ctx_.Bind("A", ctx_.RandomMatrix(16, 16, 8, 38).value());
  ctx_.Bind("B", ctx_.RandomMatrix(16, 16, 8, 39).value());
  ctx_.BindScalar("n", int64_t{16});
  auto q = ctx_.Compile(
      "tiled(n,n)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
      " kk == k, let v = a*b, group by (i,j) ]");
  ASSERT_TRUE(q.ok());
  EXPECT_NE(q.value().explanation.find("5.4"), std::string::npos);
}

// ---- shuffle-volume assertions (the paper's causal claims) -------------------

TEST_F(PlannerTest, GbjAndJoinGroupByPlansAgree) {
  // The two multiply translations of Figure 4.B must produce bit-identical
  // linear algebra (up to float summation order).
  const int64_t n = 48, blk = 8;
  planner::PlannerOptions no_gbj;
  no_gbj.enable_group_by_join = false;
  const std::string src =
      "tiled(n,n)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
      " kk == k, let v = a*b, group by (i,j) ]";

  Sac c1(runtime::ClusterConfig{2, 2, 4});
  c1.Bind("A", c1.RandomMatrix(n, n, blk, 40).value());
  c1.Bind("B", c1.RandomMatrix(n, n, blk, 41).value());
  c1.BindScalar("n", n);
  auto q1 = c1.Compile(src);
  ASSERT_TRUE(q1.ok());
  ASSERT_EQ(q1.value().strategy, Strategy::kGroupByJoin);
  auto t1 = c1.ToLocal(c1.EvalTiled(src).value()).value();

  Sac c2(runtime::ClusterConfig{2, 2, 4}, no_gbj);
  c2.Bind("A", c2.RandomMatrix(n, n, blk, 40).value());
  c2.Bind("B", c2.RandomMatrix(n, n, blk, 41).value());
  c2.BindScalar("n", n);
  auto q2 = c2.Compile(src);
  ASSERT_TRUE(q2.ok());
  ASSERT_EQ(q2.value().strategy, Strategy::kReduceByKey);
  auto t2 = c2.ToLocal(c2.EvalTiled(src).value()).value();

  ASSERT_EQ(t1.rows(), t2.rows());
  for (int64_t i = 0; i < t1.size(); ++i) {
    ASSERT_NEAR(t1.data()[i], t2.data()[i], 1e-8);
  }
}

TEST_F(PlannerTest, TilingPreservingAdditionAvoidsElementShuffle) {
  const int64_t n = 32, blk = 8;
  const std::string src =
      "tiled(n,n)[ ((i,j),a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
      " ii == i, jj == j ]";
  Sac tiled_ctx(runtime::ClusterConfig{2, 2, 4});
  tiled_ctx.Bind("A", tiled_ctx.RandomMatrix(n, n, blk, 42).value());
  tiled_ctx.Bind("B", tiled_ctx.RandomMatrix(n, n, blk, 43).value());
  tiled_ctx.BindScalar("n", n);
  tiled_ctx.metrics().Reset();
  ASSERT_TRUE(tiled_ctx.EvalTiled(src).ok());
  const uint64_t tiled_bytes = tiled_ctx.metrics().Snapshot().shuffle_bytes;

  planner::PlannerOptions coo;
  coo.force_coo = true;
  Sac coo_ctx(runtime::ClusterConfig{2, 2, 4}, coo);
  coo_ctx.Bind("A", coo_ctx.RandomMatrix(n, n, blk, 42).value());
  coo_ctx.Bind("B", coo_ctx.RandomMatrix(n, n, blk, 43).value());
  coo_ctx.BindScalar("n", n);
  coo_ctx.metrics().Reset();
  ASSERT_TRUE(coo_ctx.EvalTiled(src).ok());
  const uint64_t coo_bytes = coo_ctx.metrics().Snapshot().shuffle_bytes;

  // COO shuffles per-element records (index + value); tiles shuffle far
  // fewer, larger records. The paper's Section 4-vs-5 claim.
  EXPECT_LT(tiled_bytes * 2, coo_bytes);
}

}  // namespace
}  // namespace sac
