// Tests for the static analyzer (src/analysis/): golden located
// diagnostics from the comprehension checker, each plan-lint rule firing
// and staying silent, the DAG invariant verifier catching hand-corrupted
// plans, and lineage verification in the engine.
#include "src/analysis/analysis.h"

#include <gtest/gtest.h>

#include "src/api/sac.h"
#include "src/planner/plan.h"
#include "src/runtime/engine.h"

namespace sac::analysis {
namespace {

using planner::Binding;
using planner::Bindings;
using planner::PlanBuilder;
using planner::PlanNode;
using planner::PlanNodePtr;

/// Metadata-only bindings (null datasets): AnalyzeQuery never runs the
/// plan, so shapes are all it needs -- same trick the sac_lint CLI uses.
Binding Matrix(int64_t rows, int64_t cols, int64_t block = 64) {
  return Binding::Tiled(storage::TiledMatrix{rows, cols, block, nullptr});
}
Binding Vector(int64_t size, int64_t block = 64) {
  return Binding::Vector(storage::BlockVector{size, block, nullptr});
}

Bindings MatmulBinds(int64_t b_rows) {
  Bindings binds;
  binds.emplace("A", Matrix(256, 192));
  binds.emplace("B", Matrix(b_rows, 128));
  binds.emplace("n", Binding::Scalar(runtime::Value::Int(256)));
  binds.emplace("m", Binding::Scalar(runtime::Value::Int(128)));
  return binds;
}

AnalysisReport Analyze(const std::string& src, const Bindings& binds) {
  auto report = AnalyzeQuery(src, binds);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? report.value() : AnalysisReport{};
}

std::string Rendered(const AnalysisReport& r) {
  return RenderAll(r.diagnostics, "q.sac");
}

// ---------------------------------------------------------------------------
// Comprehension checker: golden file:line:col diagnostics
// ---------------------------------------------------------------------------

TEST(AnalysisCheck, CleanMatmulHasNoDiagnostics) {
  AnalysisReport r = Analyze(
      "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, "
      "kk == k, let v = a*b, group by (i,j) ]",
      MatmulBinds(192));
  EXPECT_TRUE(r.diagnostics.empty()) << Rendered(r);
  EXPECT_FALSE(r.strategy.empty());
  EXPECT_FALSE(r.plan_tree.empty());
}

TEST(AnalysisCheck, InnerDimensionMismatchIsLocatedE004) {
  // B has 200 rows but A has 192 columns; `kk == k` (line 2, col 13 of
  // the query text) equates them.
  AnalysisReport r = Analyze(
      "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,\n"
      "            kk == k, let v = a*b, group by (i,j) ]",
      MatmulBinds(200));
  ASSERT_TRUE(r.has_errors());
  EXPECT_EQ(Rendered(r),
            "q.sac:2:13: error [SAC-E004] dimension mismatch: 'kk' ranges "
            "over the 200 rows of 'B' but 'k' ranges over the 192 columns "
            "of 'A'\n");
  // Planning is skipped after checker errors.
  EXPECT_TRUE(r.strategy.empty());
}

TEST(AnalysisCheck, UnboundVariableIsLocatedE001) {
  AnalysisReport r = Analyze(
      "tiled(n,n)[ ((i,j), a + c) | ((i,j),a) <- A ]",
      MatmulBinds(192));
  ASSERT_EQ(r.diagnostics.size(), 1u) << Rendered(r);
  EXPECT_EQ(r.diagnostics[0].code, "SAC-E001");
  EXPECT_EQ(Rendered(r),
            "q.sac:1:25: error [SAC-E001] unbound variable 'c'\n");
}

TEST(AnalysisCheck, GeneratorOverScalarIsE002) {
  AnalysisReport r = Analyze(
      "tiled(n,n)[ ((i,j), x) | ((i,j),x) <- n ]", MatmulBinds(192));
  ASSERT_EQ(r.diagnostics.size(), 1u) << Rendered(r);
  EXPECT_EQ(r.diagnostics[0].code, "SAC-E002");
  EXPECT_EQ(r.diagnostics[0].span.begin.line, 1);
}

TEST(AnalysisCheck, IndexArityMismatchIsE003) {
  // A matrix generator destructuring its (row, column) index into three
  // components.
  Bindings binds = MatmulBinds(192);
  AnalysisReport r = Analyze(
      "tiled(n,n)[ ((i,j), v) | ((i,j,l),v) <- A ]", binds);
  ASSERT_FALSE(r.diagnostics.empty()) << Rendered(r);
  EXPECT_EQ(r.diagnostics[0].code, "SAC-E003");

  // Subscript side: a matrix indexed with one subscript.
  AnalysisReport r2 = Analyze(
      "vector(n)[ (i, A[i]) | (i,v) <- x ]",
      [] {
        Bindings b = MatmulBinds(192);
        b.emplace("x", Vector(256));
        return b;
      }());
  ASSERT_FALSE(r2.diagnostics.empty()) << Rendered(r2);
  EXPECT_EQ(r2.diagnostics[0].code, "SAC-E003");
}

TEST(AnalysisCheck, MatrixUsedAsScalarIsE005) {
  AnalysisReport r = Analyze(
      "tiled(n,n)[ ((i,j), A + a) | ((i,j),a) <- A ]", MatmulBinds(192));
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_EQ(r.diagnostics[0].code, "SAC-E005");
  EXPECT_NE(r.diagnostics[0].message.find("'A'"), std::string::npos);
}

TEST(AnalysisCheck, ParseErrorIsLocatedE000) {
  AnalysisReport r = Analyze("tiled(n,n)[ ((i,j), a ", MatmulBinds(192));
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].code, "SAC-E000");
  EXPECT_TRUE(r.diagnostics[0].span.IsSet());
}

TEST(AnalysisCheck, DiagnosticsSortByPositionErrorsFirst) {
  std::vector<Diagnostic> ds;
  ds.push_back(Warning("SAC-W01", "later", comp::Span{{2, 1}, {2, 2}}));
  ds.push_back(Error("SAC-E001", "earlier", comp::Span{{1, 5}, {1, 6}}));
  ds.push_back(Warning("SAC-W02", "unpositioned", comp::Span{}));
  SortDiagnostics(&ds);
  EXPECT_EQ(ds[0].code, "SAC-E001");
  EXPECT_EQ(ds[1].code, "SAC-W01");
  EXPECT_EQ(ds[2].code, "SAC-W02");
  EXPECT_EQ(ds[2].Render("f"), "f: warning [SAC-W02] unpositioned");
}

// ---------------------------------------------------------------------------
// Plan lint rules: each fires on a hand-built graph and stays silent on
// the corrected one
// ---------------------------------------------------------------------------

std::vector<std::string> Codes(const std::vector<Diagnostic>& ds) {
  std::vector<std::string> out;
  for (const auto& d : ds) out.push_back(d.code);
  return out;
}

TEST(PlanLint, W01FiresOnFoldedGroupByKey) {
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr grouped =
      pb.Shuffle(PlanNode::Op::kGroupByKey, "groupTiles", {src}, 2);
  PlanNodePtr fold = pb.Narrow(PlanNode::Op::kMap, "sumGroups", grouped, 2);
  fold->folds_group = true;
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{fold, pb.TakeNodes()}, &ds);
  EXPECT_EQ(Codes(ds), std::vector<std::string>{"SAC-W01"});
}

TEST(PlanLint, W01SilentWhenGroupsAreNotFolds) {
  // Structural consumers (e.g. tile assembly in 5.2) are fine.
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr grouped =
      pb.Shuffle(PlanNode::Op::kGroupByKey, "groupTiles", {src}, 2);
  PlanNodePtr assemble =
      pb.Narrow(PlanNode::Op::kMap, "assembleTiles", grouped, 2);
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{assemble, pb.TakeNodes()}, &ds);
  EXPECT_TRUE(ds.empty()) << RenderAll(ds, "plan");
}

TEST(PlanLint, W02FiresOnUncachedReuseInLoop) {
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr mid = pb.Narrow(PlanNode::Op::kMap, "normalize", src, 2);
  PlanNodePtr c1 = pb.Narrow(PlanNode::Op::kMap, "left", mid, 2);
  PlanNodePtr c2 = pb.Narrow(PlanNode::Op::kMap, "right", mid, 2);
  PlanNodePtr root = pb.Collect({c1, c2});
  for (const PlanNodePtr& n : pb.nodes()) n->in_loop = true;
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{root, pb.TakeNodes()}, &ds);
  EXPECT_EQ(Codes(ds), std::vector<std::string>{"SAC-W02"});
}

TEST(PlanLint, W02SilentOutsideLoopsOrWhenCached) {
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr mid = pb.Narrow(PlanNode::Op::kMap, "normalize", src, 2);
  PlanNodePtr c1 = pb.Narrow(PlanNode::Op::kMap, "left", mid, 2);
  PlanNodePtr c2 = pb.Narrow(PlanNode::Op::kMap, "right", mid, 2);
  PlanNodePtr root = pb.Collect({c1, c2});
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{root, pb.nodes()}, &ds);  // not in a loop
  EXPECT_TRUE(ds.empty()) << RenderAll(ds, "plan");

  for (const PlanNodePtr& n : pb.nodes()) n->in_loop = true;
  mid->cached = true;  // cached: recompute is free, W02 stays silent
  ds.clear();
  LintPlan(PlanGraph{root, pb.TakeNodes()}, &ds);
  EXPECT_TRUE(ds.empty()) << RenderAll(ds, "plan");
}

TEST(PlanLint, W02QuantifiesRecomputeBytesFromBindings) {
  // With bindings the shape pass sizes the reused dataset: a 512x512
  // matrix (64 tiles, ~2 MiB serialized) rebuilt once per extra consumer.
  Bindings binds;
  binds.emplace("A", Matrix(512, 512));
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr mid = pb.Narrow(PlanNode::Op::kMap, "normalize", src, 2);
  PlanNodePtr c1 = pb.Narrow(PlanNode::Op::kMap, "left", mid, 2);
  PlanNodePtr c2 = pb.Narrow(PlanNode::Op::kMap, "right", mid, 2);
  PlanNodePtr root = pb.Collect({c1, c2});
  for (const PlanNodePtr& n : pb.nodes()) n->in_loop = true;
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{root, pb.TakeNodes(), &binds, 0}, &ds);
  ASSERT_EQ(Codes(ds), std::vector<std::string>{"SAC-W02"});
  EXPECT_GT(ds[0].estimated_bytes, 1 << 20);
  EXPECT_NE(ds[0].message.find("MiB per iteration"), std::string::npos)
      << ds[0].message;
}

TEST(PlanLint, W02SilentWhenSizedRecomputeIsImmaterial) {
  // Same pattern but the dataset is one 32 KiB tile: sized and below the
  // materiality threshold, so the finding is suppressed.
  Bindings binds;
  binds.emplace("A", Matrix(64, 64));
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr mid = pb.Narrow(PlanNode::Op::kMap, "normalize", src, 2);
  PlanNodePtr c1 = pb.Narrow(PlanNode::Op::kMap, "left", mid, 2);
  PlanNodePtr c2 = pb.Narrow(PlanNode::Op::kMap, "right", mid, 2);
  PlanNodePtr root = pb.Collect({c1, c2});
  for (const PlanNodePtr& n : pb.nodes()) n->in_loop = true;
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{root, pb.TakeNodes(), &binds, 0}, &ds);
  EXPECT_TRUE(ds.empty()) << RenderAll(ds, "plan");
}

TEST(PlanLint, W03FiresOnRedundantRepartition) {
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr reduced =
      pb.Shuffle(PlanNode::Op::kReduceByKey, "reduceTiles", {src}, 2, 8);
  PlanNodePtr again =
      pb.Shuffle(PlanNode::Op::kPartitionBy, "repartition", {reduced}, 2, 8);
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{again, pb.TakeNodes()}, &ds);
  EXPECT_EQ(Codes(ds), std::vector<std::string>{"SAC-W03"});
}

TEST(PlanLint, W03SilentWhenPartitioningActuallyChanges) {
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr reduced =
      pb.Shuffle(PlanNode::Op::kReduceByKey, "reduceTiles", {src}, 2, 8);
  // Different partition count: the shuffle does real work.
  PlanNodePtr widen =
      pb.Shuffle(PlanNode::Op::kPartitionBy, "repartition", {reduced}, 2, 16);
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{widen, pb.TakeNodes()}, &ds);
  EXPECT_TRUE(ds.empty()) << RenderAll(ds, "plan");
}

TEST(PlanLint, W03FiresWhenDefaultCountResolvesToProducerCount) {
  // hash(8) -> hash(default) is redundant when the engine default is 8:
  // the resolved counts compare equal (the false positive the resolved
  // comparison fixes -- with Matches() the -1 never equalled 8).
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr reduced =
      pb.Shuffle(PlanNode::Op::kReduceByKey, "reduceTiles", {src}, 2, 8);
  PlanNodePtr again =
      pb.Shuffle(PlanNode::Op::kPartitionBy, "repartition", {reduced}, 2);
  PlanGraph g{again, pb.TakeNodes()};
  g.default_parallelism = 8;
  std::vector<Diagnostic> ds;
  LintPlan(g, &ds);
  EXPECT_EQ(Codes(ds), std::vector<std::string>{"SAC-W03"});

  // Same plan on a cluster whose default is 16: the repartition is real.
  g.default_parallelism = 16;
  ds.clear();
  LintPlan(g, &ds);
  EXPECT_TRUE(ds.empty()) << RenderAll(ds, "plan");
}

TEST(PlanLint, W04FiresOnDeadDataset) {
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr live = pb.Narrow(PlanNode::Op::kMap, "live", src, 2);
  PlanNodePtr dead = pb.Narrow(PlanNode::Op::kMap, "dead", src, 2);
  (void)dead;
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{live, pb.TakeNodes()}, &ds);
  ASSERT_EQ(Codes(ds), std::vector<std::string>{"SAC-W04"});
  EXPECT_NE(ds[0].message.find("dead"), std::string::npos);
}

TEST(PlanLint, W04SilentWhenEverythingIsReachable) {
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr live = pb.Narrow(PlanNode::Op::kMap, "live", src, 2);
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{live, pb.TakeNodes()}, &ds);
  EXPECT_TRUE(ds.empty()) << RenderAll(ds, "plan");
}

TEST(PlanLint, W05FiresOnChainedLoopShuffles) {
  // shuffle -> map -> shuffle, all re-run every iteration, nothing cached:
  // losing a partition of the second shuffle replays the first one too.
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr first =
      pb.Shuffle(PlanNode::Op::kReduceByKey, "partial", {src}, 2, 8);
  PlanNodePtr mid = pb.Narrow(PlanNode::Op::kMap, "scale", first, 2);
  PlanNodePtr second =
      pb.Shuffle(PlanNode::Op::kReduceByKey, "combine", {mid}, 2, 16);
  for (const PlanNodePtr& n : pb.nodes()) n->in_loop = true;
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{second, pb.TakeNodes()}, &ds);
  ASSERT_EQ(Codes(ds), std::vector<std::string>{"SAC-W05"});
  EXPECT_NE(ds[0].message.find("checkpoint"), std::string::npos);
}

TEST(PlanLint, W05SilentOutsideLoopsOrWhenChainIsCut) {
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr first =
      pb.Shuffle(PlanNode::Op::kReduceByKey, "partial", {src}, 2, 8);
  PlanNodePtr mid = pb.Narrow(PlanNode::Op::kMap, "scale", first, 2);
  PlanNodePtr second =
      pb.Shuffle(PlanNode::Op::kReduceByKey, "combine", {mid}, 2, 16);
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{second, pb.nodes()}, &ds);  // not in a loop
  EXPECT_TRUE(ds.empty()) << RenderAll(ds, "plan");

  for (const PlanNodePtr& n : pb.nodes()) n->in_loop = true;
  mid->cached = true;  // materialized intermediate cuts the replay chain
  ds.clear();
  LintPlan(PlanGraph{second, pb.TakeNodes()}, &ds);
  EXPECT_TRUE(ds.empty()) << RenderAll(ds, "plan");
}

TEST(PlanLint, W05QuantifiesReplayBytesFromBindings) {
  // With bindings the first shuffle is sized (~2 MiB of 512x512 tiles
  // re-moved per replay) and the figure lands in the message.
  Bindings binds;
  binds.emplace("A", Matrix(512, 512));
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr first =
      pb.Shuffle(PlanNode::Op::kReduceByKey, "partial", {src}, 2, 8);
  PlanNodePtr mid = pb.Narrow(PlanNode::Op::kMap, "scale", first, 2);
  PlanNodePtr second =
      pb.Shuffle(PlanNode::Op::kReduceByKey, "combine", {mid}, 2, 16);
  for (const PlanNodePtr& n : pb.nodes()) n->in_loop = true;
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{second, pb.TakeNodes(), &binds, 0}, &ds);
  ASSERT_EQ(Codes(ds), std::vector<std::string>{"SAC-W05"});
  EXPECT_GT(ds[0].estimated_bytes, 1 << 20);
  EXPECT_NE(ds[0].message.find("re-shuffled per replay"), std::string::npos)
      << ds[0].message;
}

TEST(PlanLint, W05SilentWhenSizedReplayIsImmaterial) {
  // Nine tiles (~300 KiB) through the chain: sized, below materiality,
  // silent -- the unsized variant of this exact plan fires (test above).
  Bindings binds;
  binds.emplace("A", Matrix(192, 192));
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr first =
      pb.Shuffle(PlanNode::Op::kReduceByKey, "partial", {src}, 2, 8);
  PlanNodePtr mid = pb.Narrow(PlanNode::Op::kMap, "scale", first, 2);
  PlanNodePtr second =
      pb.Shuffle(PlanNode::Op::kReduceByKey, "combine", {mid}, 2, 16);
  for (const PlanNodePtr& n : pb.nodes()) n->in_loop = true;
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{second, pb.TakeNodes(), &binds, 0}, &ds);
  EXPECT_TRUE(ds.empty()) << RenderAll(ds, "plan");
}

TEST(PlanLint, W06FiresWhenResidentSetExceedsBudget) {
  // A 512x512 dense source is 2 MiB; source + two derived nodes estimate
  // ~6 MiB resident, far over a 1 MiB budget, and nothing is cached.
  Bindings binds;
  binds.emplace("A", Matrix(512, 512));
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr mid = pb.Narrow(PlanNode::Op::kMap, "scale", src, 2);
  PlanNodePtr root = pb.Narrow(PlanNode::Op::kMap, "shift", mid, 2);
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{root, pb.TakeNodes(), &binds, 1 << 20}, &ds);
  ASSERT_EQ(Codes(ds), std::vector<std::string>{"SAC-W06"});
  EXPECT_NE(ds[0].message.find("memory budget"), std::string::npos);
  EXPECT_GT(ds[0].estimated_bytes, 1 << 20);  // the estimated resident set
}

TEST(PlanLint, W06SilentWhenOvershootIsImmaterial) {
  // 64x64 source: ~96 KiB resident against a 64 KiB budget. Over budget,
  // but the overshoot is far below the materiality threshold.
  Bindings binds;
  binds.emplace("A", Matrix(64, 64));
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr mid = pb.Narrow(PlanNode::Op::kMap, "scale", src, 2);
  PlanNodePtr root = pb.Narrow(PlanNode::Op::kMap, "shift", mid, 2);
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{root, pb.TakeNodes(), &binds, 64 << 10}, &ds);
  EXPECT_TRUE(ds.empty()) << RenderAll(ds, "plan");
}

TEST(PlanLint, W06SilentWithoutBudgetOrWithACacheCut) {
  Bindings binds;
  binds.emplace("A", Matrix(512, 512));
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr mid = pb.Narrow(PlanNode::Op::kMap, "scale", src, 2);
  PlanNodePtr root = pb.Narrow(PlanNode::Op::kMap, "shift", mid, 2);

  std::vector<Diagnostic> ds;
  // No budget configured: out-of-core analysis is off.
  LintPlan(PlanGraph{root, pb.nodes(), &binds, 0}, &ds);
  EXPECT_TRUE(ds.empty()) << RenderAll(ds, "plan");

  // Roomy budget: the estimate fits.
  LintPlan(PlanGraph{root, pb.nodes(), &binds, 64 << 20}, &ds);
  EXPECT_TRUE(ds.empty()) << RenderAll(ds, "plan");

  // Tight budget but a cached intermediate cuts the resident set.
  mid->cached = true;
  LintPlan(PlanGraph{root, pb.TakeNodes(), &binds, 1 << 20}, &ds);
  EXPECT_TRUE(ds.empty()) << RenderAll(ds, "plan");
}

TEST(PlanLint, W08FiresOnMostlyEmptyPartitions) {
  // 4 output tiles reduced into 64 partitions: ~60 stay empty.
  Bindings binds;
  binds.emplace("A", Matrix(128, 128));
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr reduced =
      pb.Shuffle(PlanNode::Op::kReduceByKey, "reduceTiles", {src}, 2, 64);
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{reduced, pb.TakeNodes(), &binds, 0}, &ds);
  ASSERT_EQ(Codes(ds), std::vector<std::string>{"SAC-W08"});
  EXPECT_NE(ds[0].message.find("stay empty"), std::string::npos)
      << ds[0].message;
}

TEST(PlanLint, W08FiresWhenCoresOutnumberPartitions) {
  // 1024 tiles squeezed into 2 partitions on a default 4-core cluster.
  Bindings binds;
  binds.emplace("A", Matrix(2048, 2048));
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr reduced =
      pb.Shuffle(PlanNode::Op::kReduceByKey, "reduceTiles", {src}, 2, 2);
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{reduced, pb.TakeNodes(), &binds, 0}, &ds);
  ASSERT_EQ(Codes(ds), std::vector<std::string>{"SAC-W08"});
  EXPECT_NE(ds[0].message.find("idle"), std::string::npos) << ds[0].message;
}

TEST(PlanLint, W08SilentWhenPartitionCountIsReasonable) {
  Bindings binds;
  binds.emplace("A", Matrix(128, 128));
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr reduced =
      pb.Shuffle(PlanNode::Op::kReduceByKey, "reduceTiles", {src}, 2, 8);
  std::vector<Diagnostic> ds;
  LintPlan(PlanGraph{reduced, pb.TakeNodes(), &binds, 0}, &ds);
  EXPECT_TRUE(ds.empty()) << RenderAll(ds, "plan");
}

TEST(PlanLint, RegistryHasAllSevenRules) {
  std::vector<std::string> codes;
  for (const LintRule* r : LintRules()) codes.push_back(r->code());
  EXPECT_EQ(codes.size(), 7u);
  for (const char* want : {"SAC-W01", "SAC-W02", "SAC-W03", "SAC-W04",
                           "SAC-W05", "SAC-W06", "SAC-W08"}) {
    EXPECT_NE(std::find(codes.begin(), codes.end(), want), codes.end())
        << want << " not registered";
  }
  // W07 (the retired multiply-strategy advice) is not reused.
  EXPECT_EQ(std::find(codes.begin(), codes.end(), std::string("SAC-W07")),
            codes.end());
}

TEST(PlanLint, RealCompiledPlansAreLintClean) {
  // Every strategy's emitted plan must verify and produce zero warnings.
  Bindings binds = MatmulBinds(192);
  binds.emplace("x", Vector(192));
  binds.emplace("A2", Matrix(256, 128));
  binds.emplace("B2", Matrix(256, 128));
  const char* queries[] = {
      // 5.4 / 5.3 matmul
      "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, "
      "kk == k, let v = a*b, group by (i,j) ]",
      // 5.3 with a vector side
      "vector(n)[ (i, +/v) | ((i,k),a) <- A, (kk,b) <- x, kk == k, "
      "let v = a*b, group by i ]",
      // 5.1 tiling preserving
      "tiled(n,m)[ ((i,j), a+b) | ((i,j),a) <- A2, ((i,j),b) <- B2 ]",
      // total aggregation
      "+/[ v | ((i,j),v) <- A ]",
  };
  for (const char* q : queries) {
    AnalysisReport r = Analyze(q, binds);
    EXPECT_TRUE(r.diagnostics.empty())
        << q << "\n" << Rendered(r) << r.plan_tree;
    EXPECT_FALSE(r.strategy.empty()) << q;
  }
}

// ---------------------------------------------------------------------------
// DAG invariant verifier on hand-corrupted plans
// ---------------------------------------------------------------------------

TEST(PlanVerify, EmptyGraphIsOk) {
  EXPECT_TRUE(VerifyPlan(PlanGraph{}).ok());
}

TEST(PlanVerify, NodesWithoutRootFail) {
  PlanBuilder pb;
  pb.Source("A", 2);
  EXPECT_FALSE(VerifyPlan(PlanGraph{nullptr, pb.TakeNodes()}).ok());
}

TEST(PlanVerify, WellFormedPlanPasses) {
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr mapped = pb.Narrow(PlanNode::Op::kMap, "m", src, 2);
  PlanNodePtr red =
      pb.Shuffle(PlanNode::Op::kReduceByKey, "r", {mapped}, 2);
  EXPECT_TRUE(VerifyPlan(PlanGraph{red, pb.TakeNodes()}).ok());
}

TEST(PlanVerify, CatchesCycle) {
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr a = pb.Narrow(PlanNode::Op::kMap, "a", src, 2);
  PlanNodePtr b = pb.Narrow(PlanNode::Op::kMap, "b", a, 2);
  a->inputs[0] = b;  // corrupt: a <-> b
  Status s = VerifyPlan(PlanGraph{b, pb.TakeNodes()});
  a->inputs.clear();  // break the shared_ptr cycle so the nodes free
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("cycle"), std::string::npos) << s.ToString();
}

TEST(PlanVerify, CatchesJoinWithOneInput) {
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr join = pb.Shuffle(PlanNode::Op::kJoin, "j", {src}, 2);
  EXPECT_FALSE(VerifyPlan(PlanGraph{join, pb.TakeNodes()}).ok());
}

TEST(PlanVerify, CatchesKeyArityMismatchAcrossShuffle) {
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 1);
  PlanNodePtr red = pb.Shuffle(PlanNode::Op::kReduceByKey, "r", {src}, 2);
  Status s = VerifyPlan(PlanGraph{red, pb.TakeNodes()});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("key"), std::string::npos) << s.ToString();
}

TEST(PlanVerify, CatchesReachableNodeMissingFromRecord) {
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr mapped = pb.Narrow(PlanNode::Op::kMap, "m", src, 2);
  std::vector<PlanNodePtr> record = pb.TakeNodes();
  record.erase(record.begin());  // drop the source from the record
  EXPECT_FALSE(VerifyPlan(PlanGraph{mapped, record}).ok());
}

TEST(PlanVerify, CatchesPreservesPartitioningOnShuffle) {
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr red = pb.Shuffle(PlanNode::Op::kReduceByKey, "r", {src}, 2);
  red->preserves_partitioning = true;  // nonsense: shuffles re-key
  EXPECT_FALSE(VerifyPlan(PlanGraph{red, pb.TakeNodes()}).ok());
}

TEST(PlanVerify, CatchesFoldsGroupWithoutGroupInput) {
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("A", 2);
  PlanNodePtr fold = pb.Narrow(PlanNode::Op::kMap, "fold", src, 2);
  fold->folds_group = true;  // no groupByKey/cogroup upstream
  EXPECT_FALSE(VerifyPlan(PlanGraph{fold, pb.TakeNodes()}).ok());
}

TEST(PlanVerify, CatchesSourceWithoutName) {
  PlanBuilder pb;
  PlanNodePtr src = pb.Source("", 2);
  EXPECT_FALSE(VerifyPlan(PlanGraph{src, pb.TakeNodes()}).ok());
}

// ---------------------------------------------------------------------------
// API integration + engine lineage verification
// ---------------------------------------------------------------------------

TEST(AnalysisApi, ExplainRendersDiagnosticsAndPlan) {
  Sac ctx;
  auto a = ctx.RandomMatrix(96, 96, 32, 1);
  ASSERT_TRUE(a.ok());
  ctx.Bind("A", a.value());
  ctx.Bind("B", ctx.RandomMatrix(96, 96, 32, 2).value());
  ctx.BindScalar("n", int64_t{96});

  auto clean = ctx.Explain(
      "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, "
      "kk == k, let v = a*b, group by (i,j) ]");
  ASSERT_TRUE(clean.ok());
  EXPECT_NE(clean.value().find("strategy:"), std::string::npos);
  EXPECT_NE(clean.value().find("plan:"), std::string::npos);

  auto bad = ctx.Analyze("tiled(n,n)[ ((i,j), q) | ((i,j),a) <- A ]");
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(bad.value().has_errors());
  EXPECT_EQ(bad.value().diagnostics[0].code, "SAC-E001");
}

TEST(AnalysisApi, EvalStillWorksWithVerificationOn) {
  // Eval now runs VerifyPlan before and VerifyLineage after execution;
  // a real query must still go through unchanged.
  Sac ctx;
  ctx.Bind("A", ctx.RandomMatrix(64, 64, 32, 1).value());
  ctx.Bind("B", ctx.RandomMatrix(64, 64, 32, 2).value());
  ctx.BindScalar("n", int64_t{64});
  auto c = ctx.EvalTiled(
      "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, "
      "kk == k, let v = a*b, group by (i,j) ]");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c.value().rows, 64);
}

TEST(EngineLineage, VerifiesHealthyPipelinesAndRejectsNull) {
  runtime::Engine eng(runtime::ClusterConfig{2, 2, 4});
  EXPECT_FALSE(eng.VerifyLineage(nullptr).ok());

  runtime::ValueVec rows;
  for (int64_t i = 0; i < 8; ++i) {
    rows.push_back(runtime::VPair(runtime::VInt(i % 3), runtime::VInt(i)));
  }
  runtime::Dataset src = eng.Parallelize(std::move(rows), 4);
  EXPECT_TRUE(eng.VerifyLineage(src).ok());

  auto mapped = eng.Map(src, [](const runtime::Value& v) { return v; });
  ASSERT_TRUE(mapped.ok());
  auto reduced = eng.ReduceByKey(
      mapped.value(),
      [](const runtime::Value& a, const runtime::Value& b) {
        return runtime::VInt(a.AsInt() + b.AsInt());
      });
  ASSERT_TRUE(reduced.ok());
  EXPECT_TRUE(eng.VerifyLineage(reduced.value()).ok());
}

}  // namespace
}  // namespace sac::analysis
