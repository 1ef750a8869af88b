// Tests for the symbolic shape pass and the shape and byte model
// (src/analysis/shape.h, cost.h): source shapes from bindings, the Union
// / scalar edge cases of the abstract domain, whole-plan estimates, the
// analysis.json round-trip, and the compile-time shuffle predictions
// recorded across EvalLoop rebinds.
#include "src/analysis/cost.h"

#include <gtest/gtest.h>

#include "src/analysis/analysis.h"
#include "src/analysis/shape.h"
#include "src/api/sac.h"
#include "src/common/json.h"
#include "src/planner/plan.h"

namespace sac::analysis {
namespace {

using planner::Binding;
using planner::Bindings;
using planner::PlanBuilder;
using planner::PlanNode;
using planner::PlanNodePtr;

Binding Matrix(int64_t rows, int64_t cols, int64_t block = 64) {
  return Binding::Tiled(storage::TiledMatrix{rows, cols, block, nullptr});
}

Bindings SquareMatmulBinds(int64_t n, int64_t block = 64) {
  Bindings binds;
  binds.emplace("A", Matrix(n, n, block));
  binds.emplace("B", Matrix(n, n, block));
  binds.emplace("n", Binding::Scalar(runtime::Value::Int(n)));
  binds.emplace("m", Binding::Scalar(runtime::Value::Int(n)));
  return binds;
}

constexpr const char* kMatmul =
    "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, "
    "kk == k, let v = a*b, group by (i,j) ]";

// ---------------------------------------------------------------------------
// Shape inference
// ---------------------------------------------------------------------------

TEST(ShapeInference, SourceShapeFromTiledBinding) {
  Bindings binds;
  binds.emplace("A", Matrix(512, 256, 64));
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanGraph g{src, pb.TakeNodes(), &binds, 0};
  const ShapeMap shapes = InferShapes(g);
  const SymbolicShape& s = shapes.at(src.get());
  ASSERT_TRUE(s.known);
  EXPECT_EQ(s.grid_rows, 8);
  EXPECT_EQ(s.grid_cols, 4);
  EXPECT_DOUBLE_EQ(s.records, 32.0);
  // One 64x64 tile of doubles plus the per-record framing overhead.
  EXPECT_DOUBLE_EQ(s.bytes_per_record, 64 * 64 * 8 + kRecordOverheadBytes);
}

TEST(ShapeInference, WithoutBindingsEveryShapeIsTop) {
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr mid = pb.Narrow(PlanNode::Op::kMap, "scale", src, 2);
  PlanGraph g{mid, pb.TakeNodes()};
  const ShapeMap shapes = InferShapes(g);
  EXPECT_FALSE(shapes.at(src.get()).known);
  EXPECT_FALSE(shapes.at(mid.get()).known);
}

TEST(ShapeInference, UnionMergesMatchingGridsAndTopsMismatched) {
  // Matching tile grids concatenate; mismatched block sizes merge to top
  // instead of silently mixing incompatible grids.
  Bindings binds;
  binds.emplace("A", Matrix(256, 256, 64));
  binds.emplace("B", Matrix(128, 256, 64));
  binds.emplace("C", Matrix(256, 256, 32));
  PlanBuilder pb;
  PlanNodePtr a = pb.Source("A", 2);
  PlanNodePtr b = pb.Source("B", 2);
  PlanNodePtr c = pb.Source("C", 2);
  auto mk_union = [](PlanNodePtr x, PlanNodePtr y) {
    auto u = std::make_shared<PlanNode>();
    u->op = PlanNode::Op::kUnion;
    u->label = "union";
    u->inputs = {std::move(x), std::move(y)};
    return u;
  };
  PlanNodePtr ok = mk_union(a, b);
  PlanNodePtr bad = mk_union(a, c);
  std::vector<PlanNodePtr> nodes = pb.TakeNodes();
  nodes.push_back(ok);
  nodes.push_back(bad);
  PlanGraph g{bad, nodes, &binds, 0};
  const ShapeMap shapes = InferShapes(g);

  const SymbolicShape& merged = shapes.at(ok.get());
  ASSERT_TRUE(merged.known);
  EXPECT_EQ(merged.grid_rows, 4 + 2);
  EXPECT_EQ(merged.grid_cols, 4);
  EXPECT_DOUBLE_EQ(merged.records, 16.0 + 8.0);

  EXPECT_FALSE(shapes.at(bad.get()).known);  // 64 vs 32 blocks: top
}

TEST(ShapeInference, ScalarSourceIsTopAndEstimateDegrades) {
  // A source over a scalar binding has no distributed shape; the cost
  // model must degrade to a partial (non-exact) estimate, not crash.
  Bindings binds;
  binds.emplace("s", Binding::Scalar(runtime::Value::Int(7)));
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("s", 0);
  PlanNodePtr mid = pb.Narrow(PlanNode::Op::kMap, "scale", src, 0);
  PlanGraph g{mid, pb.TakeNodes(), &binds, 0};
  const ShapeMap shapes = InferShapes(g);
  EXPECT_FALSE(shapes.at(src.get()).known);
  const CostEstimate est = EstimateCost(g);
  EXPECT_FALSE(est.exact);
  EXPECT_NE(RenderCostTable(est).find("extents unresolved"),
            std::string::npos);
}

TEST(ShapeInference, ScalarOperandsKeepMatmulShapesExact) {
  // Scalars broadcast into closures, not into the dataflow: their
  // presence must not poison exactness of the tiled plan.
  Bindings binds = SquareMatmulBinds(256);
  binds.emplace("alpha", Binding::Scalar(runtime::Value::Double(0.5)));
  auto report = AnalyzeQuery(
      "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, "
      "kk == k, let v = a*b*alpha, group by (i,j) ]",
      binds);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report.value().has_cost);
  EXPECT_TRUE(report.value().cost_exact);
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(CostModel, EngineShuffleLabelsMatchEngineStages) {
  EXPECT_STREQ(EngineShuffleLabel(PlanNode::Op::kJoin), "join");
  EXPECT_STREQ(EngineShuffleLabel(PlanNode::Op::kCoGroup), "cogroup");
  EXPECT_STREQ(EngineShuffleLabel(PlanNode::Op::kReduceByKey),
               "reduceByKey");
  EXPECT_STREQ(EngineShuffleLabel(PlanNode::Op::kGroupByKey), "groupByKey");
  EXPECT_STREQ(EngineShuffleLabel(PlanNode::Op::kPartitionBy),
               "partitionBy");
  EXPECT_EQ(EngineShuffleLabel(PlanNode::Op::kMap), nullptr);
}

TEST(CostModel, MatmulEstimateIsExactAndPredictsShuffles) {
  auto report = AnalyzeQuery(kMatmul, SquareMatmulBinds(256));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const AnalysisReport& r = report.value();
  ASSERT_TRUE(r.has_cost);
  EXPECT_TRUE(r.cost_exact);
  EXPECT_GT(r.shuffle_bytes, 0);
  EXPECT_GE(r.shuffle_bytes, r.cross_bytes);
  EXPECT_GT(r.tasks, 0);
  EXPECT_GT(r.flops, 0);
  ASSERT_FALSE(r.predicted_shuffle_by_label.empty());
  for (const auto& [label, bytes] : r.predicted_shuffle_by_label) {
    EXPECT_FALSE(label.empty());
    EXPECT_GT(bytes, 0) << label;
  }
  EXPECT_NE(r.cost_table.find("cost:"), std::string::npos);
  EXPECT_NE(r.cost_table.find("totals:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// analysis.json round-trip
// ---------------------------------------------------------------------------

TEST(AnalysisJson, RoundTripsThroughJsonParse) {
  auto report = AnalyzeQuery(kMatmul, SquareMatmulBinds(256));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const AnalysisReport& r = report.value();
  const std::string text = RenderAnalysisJson(r, "q.sac");

  json::Value v;
  ASSERT_TRUE(json::Parse(text, &v).ok()) << text;
  EXPECT_EQ(v.GetInt("analysis_version"), 2);
  EXPECT_EQ(v.GetStr("file"), "q.sac");
  EXPECT_EQ(v.GetStr("strategy"), r.strategy);
  ASSERT_TRUE(v.At("diagnostics").is_array());
  EXPECT_EQ(v.At("diagnostics").array.size(), r.diagnostics.size());
  ASSERT_TRUE(v.At("cost").is_object());
  const json::Value& cost = v.At("cost");
  EXPECT_EQ(cost.At("exact").boolean, r.cost_exact);
  EXPECT_DOUBLE_EQ(cost.GetNum("shuffle_bytes"), r.shuffle_bytes);
  EXPECT_FALSE(cost.Has("est_ms"));
  ASSERT_TRUE(cost.At("nodes").is_array());
  EXPECT_EQ(cost.At("nodes").array.size(), r.cost_rows.size());
  ASSERT_FALSE(cost.At("nodes").array.empty());
  const json::Value& row = cost.At("nodes").array[0];
  EXPECT_EQ(row.GetStr("node"), r.cost_rows[0].node);
  EXPECT_DOUBLE_EQ(row.GetNum("records"), r.cost_rows[0].records);
  ASSERT_TRUE(cost.At("predicted_shuffle_by_label").is_object());
  EXPECT_EQ(cost.At("predicted_shuffle_by_label").object.size(),
            r.predicted_shuffle_by_label.size());
}

TEST(AnalysisJson, DiagnosticsCarryEstimatedBytes) {
  // Two 512^2 operands are 2 MiB each, and the multiply plan materializes
  // several times that against a 1 MiB budget: a quantified SAC-W06 whose
  // estimated_bytes (the resident-set estimate) lands in the JSON.
  auto report = AnalyzeQuery(kMatmul, SquareMatmulBinds(512),
                             planner::PlannerOptions(), 1 << 20);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string text = RenderAnalysisJson(report.value(), "w06.sac");
  json::Value v;
  ASSERT_TRUE(json::Parse(text, &v).ok()) << text;
  ASSERT_EQ(v.At("diagnostics").array.size(), 1u) << text;
  const json::Value& d = v.At("diagnostics").array[0];
  EXPECT_EQ(d.GetStr("code"), "SAC-W06");
  EXPECT_GT(d.GetNum("estimated_bytes"), 4 << 20);
  EXPECT_EQ(d.GetNum("estimated_bytes"),
            report.value().diagnostics[0].estimated_bytes);
}

// ---------------------------------------------------------------------------
// Compile-time shuffle predictions across Eval / EvalLoop rebinds
// ---------------------------------------------------------------------------

TEST(Predictions, EvalRecordsPerLabelShuffleBytes) {
  Sac ctx;
  ctx.Bind("A", ctx.RandomMatrix(32, 32, 8, 1).value());
  ctx.Bind("B", ctx.RandomMatrix(32, 32, 8, 2).value());
  ctx.BindScalar("n", int64_t{32});
  ctx.BindScalar("m", int64_t{32});
  ASSERT_TRUE(ctx.Eval(kMatmul).ok());
  ASSERT_FALSE(ctx.predicted_shuffle_bytes().empty());
  for (const auto& [label, bytes] : ctx.predicted_shuffle_bytes()) {
    EXPECT_GT(bytes, 0) << label;
  }
  ctx.ResetStats();
  EXPECT_TRUE(ctx.predicted_shuffle_bytes().empty());
}

TEST(Predictions, EvalLoopRebindsAccumulatePredictions) {
  // Loop-carried rebinds: the second EvalLoop runs the cached plan
  // against the rebound target C; shapes stay resolved and predictions
  // accumulate monotonically across the two updates.
  Sac ctx(runtime::ClusterConfig{2, 2, 4});
  ctx.Bind("A", ctx.RandomMatrix(16, 16, 8, 1).value());
  ctx.Bind("B", ctx.RandomMatrix(16, 16, 8, 2).value());
  ctx.Bind("C", ctx.RandomMatrix(16, 16, 8, 3, 0.0, 0.0).value());
  ctx.BindScalar("n", int64_t{16});
  const char* program =
      "for i = 0, n-1 do for k = 0, n-1 do for j = 0, n-1 do"
      "  C[i,j] += A[i,k] * B[k,j];";
  ASSERT_TRUE(ctx.EvalLoop(program).ok());
  const std::map<std::string, double> once = ctx.predicted_shuffle_bytes();
  ASSERT_FALSE(once.empty());
  ASSERT_TRUE(ctx.EvalLoop(program).ok());
  const std::map<std::string, double>& twice = ctx.predicted_shuffle_bytes();
  ASSERT_EQ(twice.size(), once.size());
  for (const auto& [label, bytes] : once) {
    EXPECT_NEAR(twice.at(label), 2 * bytes, 1e-6) << label;
  }
}

}  // namespace
}  // namespace sac::analysis
