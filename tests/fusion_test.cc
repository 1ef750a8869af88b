// Tests for the elementwise pattern matchers (src/planner/fusion.h) and
// the planner-level fusion behavior they drive: every fig4-shaped head
// expression must map onto a dedicated kernel (no kGeneric fallback), and
// fusing a transposed operand must not change query results while saving
// a tile allocation per stage.
#include "src/planner/fusion.h"

#include <gtest/gtest.h>

#include "src/api/sac.h"
#include "src/comp/parser.h"

namespace sac::planner {
namespace {

comp::ExprPtr P(const std::string& src) {
  auto r = comp::Parse(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.value();
}

exec::ConstEnv NoConsts() { return {}; }

TEST(ZipPatternTest, PlainAddSubMul) {
  auto p = MatchZipPattern(P("a + b"), "a", "b", NoConsts());
  EXPECT_EQ(p.kind, ZipPattern::Kind::kAdd);
  EXPECT_EQ(p.flops_per_element, 1u);
  // Addition commutes bitwise, so the reversed form keeps the kernel.
  p = MatchZipPattern(P("b + a"), "a", "b", NoConsts());
  EXPECT_EQ(p.kind, ZipPattern::Kind::kAdd);
  p = MatchZipPattern(P("a - b"), "a", "b", NoConsts());
  EXPECT_EQ(p.kind, ZipPattern::Kind::kSub);
  p = MatchZipPattern(P("a * b"), "a", "b", NoConsts());
  EXPECT_EQ(p.kind, ZipPattern::Kind::kMul);
  p = MatchZipPattern(P("b * a"), "a", "b", NoConsts());
  EXPECT_EQ(p.kind, ZipPattern::Kind::kMul);
}

TEST(ZipPatternTest, ReversedSubBecomesAxpby) {
  // b - a must not dispatch to Sub(a, b); it folds to -1*a + 1*b.
  auto p = MatchZipPattern(P("b - a"), "a", "b", NoConsts());
  EXPECT_EQ(p.kind, ZipPattern::Kind::kAxpby);
  EXPECT_DOUBLE_EQ(p.alpha, -1.0);
  EXPECT_DOUBLE_EQ(p.beta, 1.0);
}

TEST(ZipPatternTest, LinearFormsWithBoundScalars) {
  exec::ConstEnv consts{{"gamma", 0.002}, {"lambda", 0.02}};
  auto p = MatchZipPattern(P("gamma*a + lambda*b"), "a", "b", consts);
  EXPECT_EQ(p.kind, ZipPattern::Kind::kAxpby);
  EXPECT_DOUBLE_EQ(p.alpha, 0.002);
  EXPECT_DOUBLE_EQ(p.beta, 0.02);
  EXPECT_EQ(p.flops_per_element, 3u);
  // Subtraction folds into the right coefficient's sign.
  p = MatchZipPattern(P("a - gamma*b"), "a", "b", consts);
  EXPECT_EQ(p.kind, ZipPattern::Kind::kAxpby);
  EXPECT_DOUBLE_EQ(p.alpha, 1.0);
  EXPECT_DOUBLE_EQ(p.beta, -0.002);
  // Coefficients may be any const-foldable expression.
  p = MatchZipPattern(P("(2.0*gamma)*a + b"), "a", "b", consts);
  EXPECT_EQ(p.kind, ZipPattern::Kind::kAxpby);
  EXPECT_DOUBLE_EQ(p.alpha, 0.004);
  // Operand order reversed: coefficients follow the arguments.
  p = MatchZipPattern(P("lambda*b + gamma*a"), "a", "b", consts);
  EXPECT_EQ(p.kind, ZipPattern::Kind::kAxpby);
  EXPECT_DOUBLE_EQ(p.alpha, 0.002);
  EXPECT_DOUBLE_EQ(p.beta, 0.02);
}

TEST(ZipPatternTest, GenericFallbackKeepsFlopCount) {
  auto p = MatchZipPattern(P("a * a + b"), "a", "b", NoConsts());
  EXPECT_EQ(p.kind, ZipPattern::Kind::kGeneric);
  EXPECT_GE(p.flops_per_element, 2u);
  // Same variable on both sides of +: not a two-operand linear form.
  p = MatchZipPattern(P("a + a"), "a", "b", NoConsts());
  EXPECT_EQ(p.kind, ZipPattern::Kind::kGeneric);
  // Unbound scalar coefficient cannot fold.
  p = MatchZipPattern(P("nope*a + b"), "a", "b", NoConsts());
  EXPECT_EQ(p.kind, ZipPattern::Kind::kGeneric);
}

TEST(MapPatternTest, IdentityScaleGeneric) {
  exec::ConstEnv consts{{"c", 3.0}};
  auto p = MatchMapPattern(P("v"), "v", consts);
  EXPECT_EQ(p.kind, MapPattern::Kind::kIdentity);
  EXPECT_EQ(p.flops_per_element, 0u);
  p = MatchMapPattern(P("c * v"), "v", consts);
  EXPECT_EQ(p.kind, MapPattern::Kind::kScale);
  EXPECT_DOUBLE_EQ(p.alpha, 3.0);
  p = MatchMapPattern(P("-v"), "v", consts);
  EXPECT_EQ(p.kind, MapPattern::Kind::kScale);
  EXPECT_DOUBLE_EQ(p.alpha, -1.0);
  p = MatchMapPattern(P("v * v"), "v", consts);
  EXPECT_EQ(p.kind, MapPattern::Kind::kGeneric);
}

// ---- end-to-end: fusion must not change results, must save allocs -------

TEST(FusionQueryTest, TransposedScaleIdenticalFusedAndUnfused) {
  // tiled(m,n)[ ((j,i), c*a) | ... ]: a transpose feeding a scale. The
  // native (packed) engine computes it in one fused pass (FusedScale);
  // the jvmlike engine, like MLlib, materializes the transposed
  // temporary, then scales it.
  auto run = [](const char* backend, la::Tile* out, uint64_t* allocs) {
    runtime::ClusterConfig cfg{2, 2, 4};
    cfg.kernel_backend = backend;
    Sac ctx(cfg);
    ctx.Bind("A", ctx.RandomMatrix(96, 64, 32, 7).value());
    ctx.BindScalar("n", int64_t{96});
    ctx.BindScalar("m", int64_t{64});
    ctx.BindScalar("c", 2.5);
    auto r = ctx.EvalTiled("tiled(m,n)[ ((j,i), c*a) | ((i,j),a) <- A ]");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto local = ctx.ToLocal(r.value());
    ASSERT_TRUE(local.ok());
    *out = std::move(local).value();
    *allocs = ctx.metrics().Snapshot().tile_allocs;
  };
  la::Tile fused, unfused;
  uint64_t fused_allocs = 0, unfused_allocs = 0;
  run("packed", &fused, &fused_allocs);
  run("jvmlike", &unfused, &unfused_allocs);
  ASSERT_EQ(fused.rows(), unfused.rows());
  ASSERT_EQ(fused.cols(), unfused.cols());
  EXPECT_TRUE(fused == unfused);  // bit-identical, not just close
  // The fused plan allocates strictly fewer tiles (no transposed temp).
  EXPECT_LT(fused_allocs, unfused_allocs);
}

}  // namespace
}  // namespace sac::planner
