// Tests for the expression-to-closure compiler (the generated-code layer).
#include "src/exec/scalar_fn.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/comp/eval.h"
#include "src/comp/parser.h"
#include "src/exec/scalar_program.h"

namespace sac::exec {
namespace {

comp::ExprPtr P(const std::string& src) {
  auto r = comp::Parse(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.value();
}

TEST(ScalarFnTest, ArithmeticAndConstants) {
  ConstEnv consts{{"gamma", 0.5}};
  auto f = CompileScalarFn(P("a + gamma * (2.0*b - a)"), {"a", "b"}, consts);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  const double args[2] = {4.0, 10.0};
  EXPECT_DOUBLE_EQ(f.value()(args), 4.0 + 0.5 * (20.0 - 4.0));
}

TEST(ScalarFnTest, MathBuiltins) {
  ConstEnv consts;
  const double args[1] = {4.0};
  EXPECT_DOUBLE_EQ(CompileScalarFn(P("sqrt(x)"), {"x"}, consts).value()(args),
                   2.0);
  EXPECT_DOUBLE_EQ(CompileScalarFn(P("abs(-x)"), {"x"}, consts).value()(args),
                   4.0);
  EXPECT_DOUBLE_EQ(
      CompileScalarFn(P("pow(x, 2.0)"), {"x"}, consts).value()(args), 16.0);
  EXPECT_DOUBLE_EQ(
      CompileScalarFn(P("min(x, 1.5)"), {"x"}, consts).value()(args), 1.5);
  EXPECT_DOUBLE_EQ(
      CompileScalarFn(P("max(x, 7.0)"), {"x"}, consts).value()(args), 7.0);
  EXPECT_NEAR(CompileScalarFn(P("exp(log(x))"), {"x"}, consts).value()(args),
              4.0, 1e-12);
}

TEST(ScalarFnTest, ConditionalExpression) {
  ConstEnv consts;
  auto f = CompileScalarFn(P("if (a > 0.0 && a < 10.0) a else 0.0 - a"),
                           {"a"}, consts);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  double args[1] = {3.0};
  EXPECT_DOUBLE_EQ(f.value()(args), 3.0);
  args[0] = -3.0;
  EXPECT_DOUBLE_EQ(f.value()(args), 3.0);
  args[0] = 30.0;
  EXPECT_DOUBLE_EQ(f.value()(args), -30.0);
}

TEST(ScalarFnTest, FmodForDoubles) {
  ConstEnv consts;
  auto f = CompileScalarFn(P("a % 3.0"), {"a"}, consts);
  ASSERT_TRUE(f.ok());
  const double args[1] = {7.5};
  EXPECT_DOUBLE_EQ(f.value()(args), std::fmod(7.5, 3.0));
}

TEST(ScalarFnTest, RejectsUnboundAndUnsupported) {
  ConstEnv consts;
  EXPECT_FALSE(CompileScalarFn(P("a + nope"), {"a"}, consts).ok());
  EXPECT_FALSE(CompileScalarFn(P("+/a"), {"a"}, consts).ok());
  EXPECT_FALSE(CompileScalarFn(P("[ x | x <- a ]"), {"a"}, consts).ok());
  EXPECT_FALSE(CompileScalarFn(P("unknown(a)"), {"a"}, consts).ok());
  // Errors carry PlanError so planners can fall back.
  EXPECT_EQ(CompileScalarFn(P("a + nope"), {"a"}, consts).status().code(),
            StatusCode::kPlanError);
}

TEST(IntFnTest, TrueIntegerSemantics) {
  ConstEnv consts{{"n", 10.0}};
  const int64_t args[2] = {7, 3};
  EXPECT_EQ(CompileIntFn(P("(i+1) % n"), {"i", "j"}, consts).value()(args), 8);
  EXPECT_EQ(CompileIntFn(P("i / 2"), {"i", "j"}, consts).value()(args), 3);
  EXPECT_EQ(CompileIntFn(P("i * n + j"), {"i", "j"}, consts).value()(args),
            73);
  EXPECT_EQ(CompileIntFn(P("-j"), {"i", "j"}, consts).value()(args), -3);
  EXPECT_EQ(CompileIntFn(P("min(i, j)"), {"i", "j"}, consts).value()(args),
            3);
}

TEST(IntFnTest, DivisionByZeroYieldsZeroNotCrash) {
  ConstEnv consts;
  const int64_t args[1] = {5};
  EXPECT_EQ(CompileIntFn(P("i / 0"), {"i"}, consts).value()(args), 0);
  EXPECT_EQ(CompileIntFn(P("i % 0"), {"i"}, consts).value()(args), 0);
}

TEST(IntFnTest, RejectsNonIntegralConstants) {
  ConstEnv consts{{"x", 2.5}};
  EXPECT_FALSE(CompileIntFn(P("i + x"), {"i"}, consts).ok());
}

TEST(IntPredTest, ComparisonsAndLogic) {
  ConstEnv consts{{"n", 8.0}};
  auto p = CompileIntPred(P("i >= 0 && i < n || i == 100"), {"i"}, consts);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  int64_t args[1] = {5};
  EXPECT_TRUE(p.value()(args));
  args[0] = 8;
  EXPECT_FALSE(p.value()(args));
  args[0] = 100;
  EXPECT_TRUE(p.value()(args));
  args[0] = -1;
  EXPECT_FALSE(p.value()(args));
}

TEST(IntPredTest, NegationAndLiterals) {
  ConstEnv consts;
  int64_t args[1] = {1};
  EXPECT_TRUE(CompileIntPred(P("!(i == 0)"), {"i"}, consts).value()(args));
  EXPECT_TRUE(CompileIntPred(P("true"), {"i"}, consts).value()(args));
  EXPECT_FALSE(CompileIntPred(P("false"), {"i"}, consts).value()(args));
}

// ---- flat postfix programs (src/exec/scalar_program.h) ------------------
//
// CompileScalarFn now lowers to a ScalarProgram when the expression fits
// the postfix instruction set; these pin the program evaluator against
// the closure-tree semantics above.

TEST(ScalarProgramTest, CompilesArithmeticToFlatProgram) {
  ConstEnv consts{{"gamma", 0.5}};
  auto p = ScalarProgram::Compile(P("a + gamma * (2.0*b - a)"), {"a", "b"},
                                  consts);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_GT(p.value().size(), 0u);
  const double args[2] = {4.0, 10.0};
  EXPECT_DOUBLE_EQ(p.value().Eval(args), 4.0 + 0.5 * (20.0 - 4.0));
}

TEST(ScalarProgramTest, BuiltinsAndConditional) {
  ConstEnv consts;
  double args[1] = {4.0};
  EXPECT_DOUBLE_EQ(
      ScalarProgram::Compile(P("sqrt(x) + abs(-x)"), {"x"}, consts)
          .value()
          .Eval(args),
      6.0);
  auto p = ScalarProgram::Compile(P("if (a > 0.0 && a < 10.0) a else 0.0 - a"),
                                  {"a"}, consts);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  args[0] = 3.0;
  EXPECT_DOUBLE_EQ(p.value().Eval(args), 3.0);
  args[0] = -3.0;
  EXPECT_DOUBLE_EQ(p.value().Eval(args), 3.0);
  args[0] = 30.0;
  EXPECT_DOUBLE_EQ(p.value().Eval(args), -30.0);
}

TEST(ScalarProgramTest, MatchesReferenceEvaluatorOnFig4cUpdate) {
  // The factorization update shape from fig4c: p + gamma*g with bound
  // scalar coefficients, composed with a clamp.
  ConstEnv consts{{"__gl", 0.002}, {"__tg", -0.004}};
  const auto src = "max(min(__gl*p + __tg*g, 5.0), 0.0 - 5.0)";
  auto fn = CompileScalarFn(P(src), {"p", "g"}, consts);
  ASSERT_TRUE(fn.ok()) << fn.status().ToString();
  for (double pv : {-3.0, 0.0, 1.5, 4000.0}) {
    for (double gv : {-2.0, 0.25, 100.0}) {
      comp::Evaluator ref;
      for (const auto& [name, v] : consts) {
        ref.Bind(name, runtime::Value::Double(v));
      }
      ref.Bind("p", runtime::Value::Double(pv));
      ref.Bind("g", runtime::Value::Double(gv));
      auto want = ref.Eval(P(src));
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      const double args[2] = {pv, gv};
      EXPECT_DOUBLE_EQ(fn.value()(args), want.value().AsDouble());
    }
  }
}

TEST(ScalarProgramTest, RejectsUnboundVarAndComprehension) {
  ConstEnv consts;
  EXPECT_FALSE(ScalarProgram::Compile(P("a + nope"), {"a"}, consts).ok());
  EXPECT_FALSE(
      ScalarProgram::Compile(P("[ x | x <- a ]"), {"a"}, consts).ok());
}

TEST(ScalarProgramTest, DeepNestingHitsStackGuardNotUb) {
  // Build an expression whose postfix evaluation needs more slots than
  // the inline stack: right-nested additions a + (a + (a + ...)) push one
  // operand per level.
  std::string src = "a";
  for (int i = 0; i < ScalarProgram::kInlineStack + 8; ++i) {
    src = "a + (" + src + ")";
  }
  ConstEnv consts;
  auto p = ScalarProgram::Compile(P(src), {"a"}, consts);
  // The program records the depth it needs and Eval sizes its stack to
  // it, so a deep program compiles and never overruns the stack.
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_GT(p.value().max_depth(), ScalarProgram::kInlineStack);
  EXPECT_LE(p.value().size(), 4096u);
  {
    const double args[1] = {1.0};
    EXPECT_DOUBLE_EQ(p.value().Eval(args),
                     static_cast<double>(ScalarProgram::kInlineStack + 9));
  }
  // The public entry point compiles it the same way.
  auto f = CompileScalarFn(P(src), {"a"}, consts);
  ASSERT_TRUE(f.ok());
  const double args[1] = {1.0};
  EXPECT_DOUBLE_EQ(f.value()(args),
                   static_cast<double>(ScalarProgram::kInlineStack + 9));
}

}  // namespace
}  // namespace sac::exec
