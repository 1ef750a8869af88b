// The shape and byte model: evaluates per-node and whole-plan costs --
// shuffle bytes split local/cross-executor with the PR3 accounting model,
// peak resident bytes, task counts and flops -- over the symbolic shapes
// of shape.h. It estimates no wall time; docs/COST_MODEL.md documents the
// formulas and the 2x predicted-vs-measured shuffle-byte gate that keeps
// the model honest.
//
// Clients: the quantified lint rules (SAC-W02/W05/W06/W08), sac_lint
// --cost / Sac::Explain cost columns, and the per-stage shuffle-byte
// predictions checked by `sac_prof predcheck`.
#ifndef SAC_ANALYSIS_COST_H_
#define SAC_ANALYSIS_COST_H_

#include <map>
#include <string>
#include <vector>

#include "src/analysis/lint.h"
#include "src/analysis/shape.h"
#include "src/planner/plan.h"

namespace sac::analysis {

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
[[nodiscard]] CostEstimate EstimateCost(const PlanGraph& g);

/// Renders the per-node cost table ("cost:" block of sac_lint --cost and
/// Sac::Explain): one row per node with records, output MiB, shuffle
/// local/cross MiB, tasks and flops, then the totals footer.
[[nodiscard]] std::string RenderCostTable(const CostEstimate& est);

}  // namespace sac::analysis

#endif  // SAC_ANALYSIS_COST_H_
