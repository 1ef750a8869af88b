// Tests for the DIABLO-style loop front end: parsing, translation to
// comprehensions, and end-to-end execution (loops -> comprehensions ->
// block plans) compared against local oracles.
#include <gtest/gtest.h>

#include "src/api/sac.h"
#include "src/comp/loops.h"
#include "src/la/kernels.h"

namespace sac {
namespace {

using comp::LoopStmt;
using comp::LoopStmtPtr;

TEST(LoopParseTest, ForNestWithAssignment) {
  auto p = comp::ParseLoopProgram(
      "for i = 0, n-1 do for j = 0, n-1 do C[i,j] := A[i,j] + B[i,j];");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const LoopStmtPtr& prog = p.value();
  ASSERT_EQ(prog->kind, LoopStmt::Kind::kSeq);
  ASSERT_EQ(prog->stmts.size(), 1u);
  const LoopStmtPtr& outer = prog->stmts[0];
  EXPECT_EQ(outer->kind, LoopStmt::Kind::kFor);
  EXPECT_EQ(outer->var, "i");
  EXPECT_EQ(outer->body->kind, LoopStmt::Kind::kFor);
  EXPECT_EQ(outer->body->body->kind, LoopStmt::Kind::kAssign);
  EXPECT_EQ(outer->body->body->target, "C");
}

TEST(LoopParseTest, UpdateAndBlocks) {
  auto p = comp::ParseLoopProgram(
      "for i = 0, 9 do {\n"
      "  V[i] := 0.0;\n"
      "}\n"
      "for i = 0, 9 do for j = 0, 9 do V[i] += A[i,j];");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p.value()->stmts.size(), 2u);
  // Round-trips through ToString into something containing both forms.
  const std::string s = p.value()->ToString();
  EXPECT_NE(s.find(":="), std::string::npos);
  EXPECT_NE(s.find("+="), std::string::npos);
}

TEST(LoopParseTest, Errors) {
  EXPECT_FALSE(comp::ParseLoopProgram("").ok());
  EXPECT_FALSE(comp::ParseLoopProgram("for i = 0 do x[i] := 1;").ok());
  EXPECT_FALSE(comp::ParseLoopProgram("C[i,j] = 1;").ok());   // not := or +=
  EXPECT_FALSE(comp::ParseLoopProgram("C[i,j] := 1").ok());   // missing ;
  EXPECT_FALSE(comp::ParseLoopProgram("{ C[i] := 1;").ok());  // open block
}

TEST(LoopTranslateTest, AssignBecomesComprehension) {
  auto p = comp::ParseLoopProgram(
      "for i = 0, n-1 do for j = 0, m-1 do C[i,j] := A[i,j] * 2.0;");
  ASSERT_TRUE(p.ok());
  auto dims = [](const std::string&) -> Result<std::vector<comp::ExprPtr>> {
    return std::vector<comp::ExprPtr>{comp::Expr::Var("n"),
                                      comp::Expr::Var("m")};
  };
  auto t = comp::TranslateLoops(p.value(), dims);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t.value().size(), 1u);
  EXPECT_EQ(t.value()[0].target, "C");
  const std::string q = t.value()[0].query->ToString();
  EXPECT_NE(q.find("tiled"), std::string::npos);
  EXPECT_NE(q.find("<-"), std::string::npos);  // range generators
}

class LoopEndToEnd : public ::testing::Test {
 protected:
  LoopEndToEnd() : ctx_(runtime::ClusterConfig{2, 2, 4}) {
    a_ = ctx_.RandomMatrix(16, 16, 8, 1).value();
    b_ = ctx_.RandomMatrix(16, 16, 8, 2).value();
    ctx_.Bind("A", a_);
    ctx_.Bind("B", b_);
    ctx_.BindScalar("n", int64_t{16});
    // Targets bound up front (they provide output shapes).
    ctx_.Bind("C", ctx_.RandomMatrix(16, 16, 8, 3, 0.0, 0.0).value());
    ctx_.Bind("V", ctx_.RandomVector(16, 8, 4, 0.0, 0.0).value());
  }

  Sac ctx_;
  storage::TiledMatrix a_, b_;
};

TEST_F(LoopEndToEnd, ElementwiseLoopMatchesKernels) {
  auto r = ctx_.EvalLoop(
      "for i = 0, n-1 do for j = 0, n-1 do C[i,j] := A[i,j] + B[i,j];");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto c = ctx_.ToLocal(ctx_.bindings().at("C").tiled).value();
  auto la_ = ctx_.ToLocal(a_).value();
  auto lb = ctx_.ToLocal(b_).value();
  for (int64_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c.data()[i], la_.data()[i] + lb.data()[i], 1e-12);
  }
}

TEST_F(LoopEndToEnd, MatrixMultiplyLoopUsesGroupByJoin) {
  auto r = ctx_.EvalLoop(
      "for i = 0, n-1 do for k = 0, n-1 do for j = 0, n-1 do"
      "  C[i,j] += A[i,k] * B[k,j];");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 1u);
  // The translated comprehension is the Query (9) shape, so the 5.4 rule
  // fires -- the paper's DIABLO+SAC pipeline end to end.
  EXPECT_NE(r.value()[0].find("GroupByJoin"), std::string::npos)
      << r.value()[0];
  auto c = ctx_.ToLocal(ctx_.bindings().at("C").tiled).value();
  auto la_ = ctx_.ToLocal(a_).value();
  auto lb = ctx_.ToLocal(b_).value();
  la::Tile ref(16, 16);
  la::GemmAccum(la_, lb, &ref);
  for (int64_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(c.data()[i], ref.data()[i], 1e-9);
  }
}

TEST_F(LoopEndToEnd, RowSumLoop) {
  auto r = ctx_.EvalLoop(
      "for i = 0, n-1 do for j = 0, n-1 do V[i] += A[i,j];");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto v = ctx_.ToLocal(ctx_.bindings().at("V").vec).value();
  auto la_ = ctx_.ToLocal(a_).value();
  for (int64_t i = 0; i < 16; ++i) {
    double s = 0;
    for (int64_t j = 0; j < 16; ++j) s += la_.At(i, j);
    ASSERT_NEAR(v[i], s, 1e-9);
  }
}

TEST_F(LoopEndToEnd, SequencedStatementsSeeEarlierResults) {
  // C := A + B, then C := C * 2 elementwise via a second nest.
  auto r = ctx_.EvalLoop(
      "for i = 0, n-1 do for j = 0, n-1 do C[i,j] := A[i,j] + B[i,j];\n"
      "for i = 0, n-1 do for j = 0, n-1 do C[i,j] := C[i,j] * 2.0;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 2u);
  auto c = ctx_.ToLocal(ctx_.bindings().at("C").tiled).value();
  auto la_ = ctx_.ToLocal(a_).value();
  auto lb = ctx_.ToLocal(b_).value();
  for (int64_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c.data()[i], 2.0 * (la_.data()[i] + lb.data()[i]), 1e-12);
  }
}

TEST_F(LoopEndToEnd, IteratedLoopReusesCachedPlans) {
  // Each update rebinds C to a fresh matrix of the same shape, so only
  // the first iteration compiles; later ones hit and still compute over
  // the rebound C.
  ctx_.metrics().Reset();
  auto r = ctx_.EvalLoopIterated(
      "for i = 0, n-1 do for j = 0, n-1 do C[i,j] := A[i,j] + B[i,j];\n"
      "for i = 0, n-1 do for j = 0, n-1 do C[i,j] := C[i,j] * 2.0;",
      3);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const MetricsSnapshot snap = ctx_.metrics().Snapshot();
  EXPECT_EQ(snap.plan_cache_misses, 2u);
  EXPECT_EQ(snap.plan_cache_hits, 4u);
  auto c = ctx_.ToLocal(ctx_.bindings().at("C").tiled).value();
  auto la_ = ctx_.ToLocal(a_).value();
  auto lb = ctx_.ToLocal(b_).value();
  for (int64_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c.data()[i], 2.0 * (la_.data()[i] + lb.data()[i]), 1e-12);
  }
}

TEST_F(LoopEndToEnd, TransposedWriteIndices) {
  auto r = ctx_.EvalLoop(
      "for i = 0, n-1 do for j = 0, n-1 do C[j,i] := A[i,j];");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto c = ctx_.ToLocal(ctx_.bindings().at("C").tiled).value();
  auto la_ = ctx_.ToLocal(a_).value();
  for (int64_t i = 0; i < 16; ++i) {
    for (int64_t j = 0; j < 16; ++j) {
      ASSERT_EQ(c.At(j, i), la_.At(i, j));
    }
  }
}

TEST_F(LoopEndToEnd, UnboundTargetIsPlanError) {
  auto r = ctx_.EvalLoop("for i = 0, n-1 do X[i] := 1.0;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kPlanError);
}

}  // namespace
}  // namespace sac
