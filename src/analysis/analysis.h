// The pass framework: AnalyzeQuery runs the whole static front half of
// the pipeline -- parse, comprehension check, normalize, plan, DAG
// verification, plan lint -- without executing anything, and returns every
// diagnostic plus the chosen strategy and a rendering of the symbolic
// plan. Both the `sac_lint` CLI and Sac::Analyze/Explain are thin
// wrappers over this.
#ifndef SAC_ANALYSIS_ANALYSIS_H_
#define SAC_ANALYSIS_ANALYSIS_H_

#include <map>
#include <string>
#include <vector>

#include "src/analysis/check.h"
#include "src/analysis/cost.h"
#include "src/analysis/diagnostic.h"
#include "src/analysis/lint.h"
#include "src/analysis/verify.h"
#include "src/common/status.h"
#include "src/planner/plan.h"
#include "src/planner/planner.h"

namespace sac::analysis {

struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;  // sorted by position
  std::string strategy;     // StrategyName, "" when planning was skipped
  std::string explanation;  // the planner's one-line rationale
  std::string plan_tree;    // PlanToString of the symbolic DAG ("" if none)

  /// Cost-model output (docs/COST_MODEL.md), copied out of the compiled
  /// plan's CostEstimate into plain data so the report owns no plan-node
  /// pointers. `has_cost` is false when planning was skipped or produced
  /// no symbolic plan.
  struct CostRow {
    std::string node;  // "join joinTiles", "source A", ...
    bool known = false;
    double records = 0;
    double output_bytes = 0;
    double local_bytes = 0;   // shuffle bytes moved same-executor
    double cross_bytes = 0;   // shuffle bytes moved cross-executor
    double tasks = 0;
    double flops = 0;
    int num_partitions = 0;
  };
  bool has_cost = false;
  bool cost_exact = false;  // every node's extents resolved from bindings
  double resident_bytes = 0;
  double shuffle_bytes = 0;
  double cross_bytes = 0;
  double tasks = 0;
  double flops = 0;
  std::vector<CostRow> cost_rows;
  /// Predicted shuffle bytes per ENGINE stage label ("join", "cogroup",
  /// ...), the figures `sac_prof predcheck` compares against measured.
  std::map<std::string, double> predicted_shuffle_by_label;
  std::string cost_table;  // RenderCostTable output ("" when no cost)

  bool has_errors() const { return HasErrors(diagnostics); }

  /// Diagnostics (one per line, `file:line:col: ...`) followed by an
  /// EXPLAIN block when a plan was produced.
  std::string Render(const std::string& file) const;
};

/// Machine-readable rendering of one report: diagnostics (code, severity,
/// line/col, message, estimated_bytes), strategy, and the cost block.
/// Parses back with json::Parse (see the analysis.json round-trip test).
std::string RenderAnalysisJson(const AnalysisReport& report,
                               const std::string& file);

/// Statically analyzes `src` against `binds`. Phases:
///   1. parse       -- failures become SAC-E000 diagnostics
///   2. check       -- comprehension checker (SAC-E001..E005) on the
///                     parsed tree, where spans are still intact
///   3. normalize + plan -- skipped when phase 2 errored; planner
///                     rejection becomes SAC-E006
///   4. verify      -- DAG invariants (violations become SAC-E007)
///   5. lint        -- registered plan rules (SAC-W..)
/// The Result is only an error Status for internal failures; user-level
/// problems always land in the report's diagnostics.
///
/// `memory_budget_bytes` feeds the SAC-W06 resident-set rule (0 =
/// unlimited, rule off); the SAC_MEM_BUDGET env var overrides it, exactly
/// as it overrides the engine's runtime budget.
Result<AnalysisReport> AnalyzeQuery(
    const std::string& src, const planner::Bindings& binds,
    const planner::PlannerOptions& opts = planner::PlannerOptions(),
    uint64_t memory_budget_bytes = 0);

}  // namespace sac::analysis

#endif  // SAC_ANALYSIS_ANALYSIS_H_
