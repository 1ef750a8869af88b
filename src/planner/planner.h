// Query compilation: turns a normalized comprehension plus bindings into
// an executable physical plan over the DISC engine, choosing among the
// paper's translation strategies:
//
//   5.4 group-by-join (SUMMA)        -- TryGroupByJoin
//   5.3 join + reduceByKey on tiles  -- TryReduceByKey
//   5.1 tiling-preserving tile join  -- TryTilingPreserving
//   5.2 replication sets I_f(K)      -- TryReplication
//   4   coordinate-format fallback   -- TryCoo
//   --  local fallback (collect + reference eval, small data)
//
// Each Try* returns PlanError when its pattern does not apply; CompileQuery
// tries them in the order above (a strategy that shuffles less is always
// preferred) and returns the first plan that matches.
#ifndef SAC_PLANNER_PLANNER_H_
#define SAC_PLANNER_PLANNER_H_

#include <string>

#include "src/common/status.h"
#include "src/comp/ast.h"
#include "src/planner/plan.h"
#include "src/planner/shape.h"

namespace sac::planner {

/// Compiles a query expression (already normalized by comp::Normalize).
/// The plan depends on the binding shapes and scalar values only: its run
/// closure reads every dataset from the bindings passed to `run`.
Result<CompiledQuery> CompileQuery(const comp::ExprPtr& query,
                                   const Bindings& binds,
                                   const PlannerOptions& opts);

// ---- individual strategies (exposed for unit tests) -----------------------

Result<CompiledQuery> TryGroupByJoin(const QueryShape& shape,
                                     const Bindings& binds,
                                     const PlannerOptions& opts);
Result<CompiledQuery> TryReduceByKey(const QueryShape& shape,
                                     const Bindings& binds,
                                     const PlannerOptions& opts);
Result<CompiledQuery> TryTilingPreserving(const QueryShape& shape,
                                          const Bindings& binds,
                                          const PlannerOptions& opts);
Result<CompiledQuery> TryReplication(const QueryShape& shape,
                                     const Bindings& binds,
                                     const PlannerOptions& opts);
Result<CompiledQuery> TryCoo(const QueryShape& shape, const Bindings& binds,
                             const PlannerOptions& opts);

/// Total aggregation `op/[ e | quals ]` over one distributed generator.
Result<CompiledQuery> TryTotalAggregate(const comp::ExprPtr& query,
                                        const Bindings& binds,
                                        const PlannerOptions& opts);

/// Collect-everything fallback; refuses when inputs exceed
/// opts.local_fallback_max_cells.
Result<CompiledQuery> LocalFallbackPlan(const comp::ExprPtr& query,
                                        const Bindings& binds,
                                        const PlannerOptions& opts);

// ---- shared helpers --------------------------------------------------------

/// Whether cost-based planning is active: PlannerOptions::auto_strategy
/// unless the SAC_AUTO_STRATEGY=off escape hatch overrides it.
bool AutoStrategyEnabled(const PlannerOptions& opts);

/// Partition count for a shuffle keyed by a grid of `cells` cells: the
/// engine parallelism (`parallelism`, <= 0 means the default 8), but no
/// more partitions than cells, since grid placement leaves any extra
/// partition empty.
int GridShufflePartitions(int64_t cells, int parallelism);

/// Evaluates a builder argument / scalar expression to an int64 using the
/// scalar bindings.
Result<int64_t> EvalScalarInt(const comp::ExprPtr& e, const Bindings& binds);

/// All numeric scalar bindings as an exec::ConstEnv.
void CollectScalarConsts(const Bindings& binds,
                         std::unordered_map<std::string, double>* out);

}  // namespace sac::planner

#endif  // SAC_PLANNER_PLANNER_H_
