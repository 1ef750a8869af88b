// Tests for the public Sac facade: binding management, compile/eval
// surfaces, reference evaluation, and planner-option plumbing.
#include <gtest/gtest.h>

#include "src/api/sac.h"

namespace sac {
namespace {

TEST(ApiTest, BindUnbindLifecycle) {
  Sac ctx;
  ctx.BindScalar("n", int64_t{8});
  ctx.Bind("A", ctx.RandomMatrix(8, 8, 4, 1).value());
  EXPECT_EQ(ctx.bindings().size(), 2u);
  EXPECT_TRUE(ctx.Eval("tiled(n,n)[ ((i,j),a) | ((i,j),a) <- A ]").ok());
  ctx.Unbind("A");
  EXPECT_FALSE(ctx.Eval("tiled(n,n)[ ((i,j),a) | ((i,j),a) <- A ]").ok());
}

TEST(ApiTest, RebindingReplaces) {
  Sac ctx;
  ctx.BindScalar("c", 2.0);
  ctx.Bind("A", ctx.RandomMatrix(8, 8, 4, 2).value());
  ctx.BindScalar("n", int64_t{8});
  auto r1 = ctx.ToLocal(
                   ctx.EvalTiled("tiled(n,n)[ ((i,j),c*a) | ((i,j),a) <- A ]")
                       .value())
                .value();
  ctx.BindScalar("c", 3.0);
  auto r2 = ctx.ToLocal(
                   ctx.EvalTiled("tiled(n,n)[ ((i,j),c*a) | ((i,j),a) <- A ]")
                       .value())
                .value();
  for (int64_t i = 0; i < r1.size(); ++i) {
    EXPECT_DOUBLE_EQ(r2.data()[i], r1.data()[i] * 1.5);
  }
}

TEST(ApiTest, ParseAndNormalizeExposesRewrites) {
  Sac ctx;
  ctx.Bind("A", ctx.RandomMatrix(8, 8, 4, 3).value());
  ctx.BindScalar("n", int64_t{8});
  auto e = ctx.ParseAndNormalize(
      "tiled(n,n)[ ((i,j), a + A[i,j]) | ((i,j),a) <- A ]");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  // Indexing was desugared into a second generator.
  const std::string s = e.value()->ToString();
  EXPECT_EQ(s.find("A["), std::string::npos);
}

TEST(ApiTest, CompileDoesNotExecute) {
  Sac ctx;
  ctx.Bind("A", ctx.RandomMatrix(16, 16, 8, 4).value());
  ctx.Bind("B", ctx.RandomMatrix(16, 16, 8, 5).value());
  ctx.BindScalar("n", int64_t{16});
  ctx.metrics().Reset();
  auto q = ctx.Compile(
      "tiled(n,n)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
      " kk == k, let v = a*b, group by (i,j) ]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(ctx.metrics().Snapshot().shuffle_bytes, 0u);  // nothing ran yet
  auto r = q.value().run(&ctx.engine(), ctx.bindings());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(ctx.metrics().Snapshot().shuffle_bytes, 0u);
}

TEST(ApiTest, ReferenceEvalUsesCollectedInputs) {
  Sac ctx;
  ctx.Bind("A", ctx.RandomMatrix(6, 6, 3, 6).value());
  auto ref = ctx.ReferenceEval("+/[ v | ((i,j),v) <- A ]");
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  auto dist = ctx.EvalScalar("+/[ v | ((i,j),v) <- A ]");
  ASSERT_TRUE(dist.ok());
  EXPECT_NEAR(ref.value().AsDouble(), dist.value(), 1e-9);
}

TEST(ApiTest, EvalScalarRejectsNonScalar) {
  Sac ctx;
  ctx.Bind("A", ctx.RandomMatrix(8, 8, 4, 7).value());
  ctx.BindScalar("n", int64_t{8});
  auto r = ctx.EvalScalar("tiled(n,n)[ ((i,j),a) | ((i,j),a) <- A ]");
  EXPECT_FALSE(r.ok());
}

TEST(ApiTest, PlannerOptionsAreHonored) {
  planner::PlannerOptions opts;
  opts.enable_group_by_join = false;
  Sac ctx(runtime::ClusterConfig{2, 1, 2}, opts);
  ctx.Bind("A", ctx.RandomMatrix(12, 12, 4, 8).value());
  ctx.Bind("B", ctx.RandomMatrix(12, 12, 4, 9).value());
  ctx.BindScalar("n", int64_t{12});
  auto q = ctx.Compile(
      "tiled(n,n)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
      " kk == k, let v = a*b, group by (i,j) ]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().strategy, planner::Strategy::kReduceByKey);
  // Flipping the option at runtime re-enables the 5.4 rule.
  ctx.options().enable_group_by_join = true;
  auto q2 = ctx.Compile(
      "tiled(n,n)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
      " kk == k, let v = a*b, group by (i,j) ]");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2.value().strategy, planner::Strategy::kGroupByJoin);
}

TEST(ApiTest, LocalMatrixBindingsWorkInLocalQueries) {
  Sac ctx;
  la::Tile t(2, 2);
  t.Set(0, 0, 1);
  t.Set(1, 1, 2);
  ctx.BindLocal("M", runtime::Value::TileVal(std::move(t)));
  auto r = ctx.Eval("+/[ v | ((i,j),v) <- M ]");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r.value().value.AsDouble(), 3.0);
}

TEST(ApiTest, MatrixFromLocalAgreesWithToLocal) {
  Sac ctx;
  Rng rng(10);
  la::Tile t(10, 14);
  t.FillRandom(&rng, -1.0, 1.0);
  auto m = ctx.MatrixFromLocal(t, 4).value();
  EXPECT_TRUE(ctx.ToLocal(m).value() == t);
}

}  // namespace
}  // namespace sac
