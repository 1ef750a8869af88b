// The calibrated cost model: evaluates per-node and whole-plan costs --
// shuffle bytes split local/cross-executor with the PR3 accounting model,
// peak resident bytes, task counts, flops, and an estimated wall time --
// over the symbolic shapes of shape.h. The constants are fitted from the
// committed BENCH_*.baseline.json reports (tools/sac_lint --calibrate
// re-derives them); docs/COST_MODEL.md documents the formulas and the
// 2x predicted-vs-measured gate that keeps the model honest.
//
// Clients: the planner's cost-based strategy choice (PlannerOptions::
// auto_strategy), the quantified lint rules (SAC-W02/W05..W08),
// sac_lint --cost / Sac::Explain cost columns, and the per-stage
// shuffle-byte predictions checked by `sac_prof predcheck`.
#ifndef SAC_ANALYSIS_COST_H_
#define SAC_ANALYSIS_COST_H_

#include <map>
#include <string>
#include <vector>

#include "src/analysis/lint.h"
#include "src/analysis/shape.h"
#include "src/planner/plan.h"

namespace sac::analysis {

/// Linear-model constants: est_ms = cross*a + local*b + tasks*c + flops*d
/// (unit conversions inside). Defaults were fitted with `sac_lint
/// --calibrate` over the per-stage counters and wall times of small-scale
/// fig4a/fig4b reports (docs/COST_MODEL.md section 4).
struct CostModel {
  double ns_per_cross_byte = 0.46;  // serialize + route + deserialize
  // Same-executor records move as Values sharing their tile payload: no
  // per-byte cost the fit can see (their per-record work is in tasks).
  double ns_per_local_byte = 0.0;
  double us_per_task = 110.0;       // scheduling + dispatch overhead
  double ns_per_flop = 0.15;        // generic blocked tile kernels
  /// Per-backend flop rates (docs/KERNELS.md): the packed microkernel
  /// retires register-tiled FMAs, the jvmlike baseline pays a virtual
  /// call per element access. Measured with bench_abl_backend.
  double ns_per_flop_packed = 0.10;
  double ns_per_flop_jvmlike = 1.1;
};

/// The cost model with ns_per_flop substituted for the named kernel
/// backend ("generic" / "packed" / "jvmlike"; unknown or empty names keep
/// the generic rate). The planner passes ClusterConfig::kernel_backend so
/// strategy choice reflects the flop rate the plan will actually run at.
[[nodiscard]] CostModel CostModelForBackend(const std::string& backend_name);

/// Per-node cost components. Shuffle bytes are attributed to the shuffle
/// node that moves them; flops to the node whose closure computes.
struct NodeCost {
  double shuffle_bytes = 0;  // total moved through this node's shuffle
  double cross_bytes = 0;    // of which cross-executor
  double local_bytes = 0;    // of which same-executor
  double tasks = 0;
  double flops = 0;
  double output_bytes = 0;  // materialized output of the node
};

struct CostEstimate {
  struct Item {
    const planner::PlanNode* node = nullptr;
    SymbolicShape shape;
    NodeCost cost;
  };
  std::vector<Item> items;  // creation order, one per plan node
  NodeCost totals;
  /// Sum of every node's materialized output (the engine evaluates
  /// eagerly), the figure SAC-W06 compares against the memory budget.
  double resident_bytes = 0;
  double est_ms = 0;
  /// Predicted total shuffle bytes keyed by the ENGINE stage label the
  /// shuffle will run under ("join", "cogroup", "reduceByKey", ...) --
  /// comparable against the measured per-stage counters in BENCH reports.
  std::map<std::string, double> shuffle_by_engine_label;
  /// True when every node's shape resolved from the bindings.
  bool exact = false;
};

/// The engine stage label a shuffle plan-node executes under (plan labels
/// like "reduceTiles" differ from the engine's hardcoded stage labels).
[[nodiscard]] const char* EngineShuffleLabel(planner::PlanNode::Op op);

/// Evaluates the cost model over `g` (runs InferShapes internally).
[[nodiscard]] CostEstimate EstimateCost(const PlanGraph& g,
                                        const CostModel& model = CostModel());

/// Strategy advice for the 5.3-vs-5.4 multiply choice: detects a
/// two-operand tiled multiply in `g`, synthesizes the alternative
/// translation's symbolic plan over the same sources, and costs both.
/// `applicable` is false when the plan is not a two-matrix multiply or
/// the extents are unknown.
struct MultiplyAdvice {
  bool applicable = false;
  bool chosen_is_gbj = false;
  double chosen_ms = 0;
  double alternative_ms = 0;
  /// Shuffle bytes the cheaper plan saves over the chosen one (0 when the
  /// chosen plan is already the cheaper one).
  double bytes_saved = 0;
};
[[nodiscard]] MultiplyAdvice AdviseMultiply(
    const PlanGraph& g, const CostModel& model = CostModel());

/// Renders the per-node cost table ("cost:" block of sac_lint --cost and
/// Sac::Explain): one row per node with records, output MiB, shuffle
/// local/cross MiB, tasks and flops, then the totals/est_ms footer.
[[nodiscard]] std::string RenderCostTable(const CostEstimate& est);

}  // namespace sac::analysis

#endif  // SAC_ANALYSIS_COST_H_
