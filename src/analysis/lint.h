// The plan linter: pattern-based warnings over the symbolic physical plan
// (planner::PlanNode DAG) that every translation strategy emits next to
// its executable closure. Rules self-register at static-init time via
// SAC_REGISTER_LINT_RULE, so adding a rule is a single .cc edit.
//
// Rule catalog (warnings):
//   SAC-W01  groupByKey whose groups are folded with an associative
//            combine -- reduceByKey would combine map-side
//   SAC-W02  dataset re-read by several consumers inside an iterative
//            loop without caching
//   SAC-W03  shuffle whose target partitioning already matches its
//            producer's (redundant repartition)
//   SAC-W04  dataset computed but never used (dead plan node)
//   SAC-W05  chained in-loop shuffles with nothing cutting the lineage
//   SAC-W06  estimated resident set exceeds the configured memory budget
//            with no cache/checkpoint cut; expect eviction thrash
//   SAC-W08  shuffle partition count badly sized for the estimated
//            record count / cluster cores
//
// W07 is retired (it compared estimated milliseconds); do not reuse the
// code for another rule.
//
// W02/W05/W06/W08 are quantified: when the symbolic shape pass
// (shape.h) can size the plan from the bindings they report estimated
// bytes and stay silent below a materiality threshold; without bindings
// they fall back to the pattern-match behaviour. See docs/COST_MODEL.md.
#ifndef SAC_ANALYSIS_LINT_H_
#define SAC_ANALYSIS_LINT_H_

#include <cstdint>
#include <vector>

#include "src/analysis/diagnostic.h"
#include "src/planner/plan.h"

namespace sac::analysis {

/// A plan DAG plus the full creation record (plan_nodes may contain nodes
/// unreachable from root -- exactly what SAC-W04 looks for). Bindings,
/// the memory budget and the cluster shape are optional context: rules
/// that need them (SAC-W06 sizes source nodes from their bound shapes,
/// the quantified rules run the shape/cost pass) skip or degrade to
/// pattern matching when they are absent.
struct PlanGraph {
  planner::PlanNodePtr root;
  std::vector<planner::PlanNodePtr> nodes;
  const planner::Bindings* binds = nullptr;
  uint64_t memory_budget_bytes = 0;  // 0 = unlimited (SAC-W06 is off)
  // Cluster shape for the cost model; 0 = unknown (model defaults apply:
  // the ClusterConfig defaults of 4 executors x 1 core, parallelism 8).
  int num_executors = 0;
  int cores_per_executor = 0;
  int default_parallelism = 0;

  static PlanGraph FromQuery(const planner::CompiledQuery& q) {
    return PlanGraph{q.plan, q.plan_nodes};
  }
  static PlanGraph FromQuery(const planner::CompiledQuery& q,
                             const planner::Bindings* binds,
                             uint64_t memory_budget_bytes) {
    return PlanGraph{q.plan, q.plan_nodes, binds, memory_budget_bytes};
  }
  static PlanGraph FromQuery(const planner::CompiledQuery& q,
                             const planner::Bindings* binds,
                             uint64_t memory_budget_bytes,
                             const runtime::ClusterConfig& cluster) {
    return PlanGraph{q.plan,  q.plan_nodes,
                     binds,   memory_budget_bytes,
                     cluster.num_executors, cluster.cores_per_executor,
                     cluster.default_parallelism};
  }
};

class LintRule {
 public:
  virtual ~LintRule() = default;
  virtual const char* code() const = 0;     // "SAC-W01"
  virtual const char* summary() const = 0;  // one line for --list-rules
  virtual void Run(const PlanGraph& g,
                   std::vector<Diagnostic>* out) const = 0;
};

/// All linked-in rules, in registration order.
const std::vector<const LintRule*>& LintRules();

namespace internal {
struct LintRuleRegistrar {
  explicit LintRuleRegistrar(const LintRule* rule);
  /// The mutable registry behind LintRules() (function-local static, so
  /// registration order is safe across translation units).
  static std::vector<const LintRule*>* registry();
};
}  // namespace internal

/// Defines a static instance of `RuleClass` and registers it. Use at
/// namespace scope in a .cc file.
#define SAC_REGISTER_LINT_RULE(RuleClass)                               \
  static const RuleClass g_lint_rule_instance_##RuleClass;              \
  static const ::sac::analysis::internal::LintRuleRegistrar             \
      g_lint_rule_registrar_##RuleClass(&g_lint_rule_instance_##RuleClass)

/// Runs every registered rule over `g`, appending to `out`.
void LintPlan(const PlanGraph& g, std::vector<Diagnostic>* out);

}  // namespace sac::analysis

#endif  // SAC_ANALYSIS_LINT_H_
