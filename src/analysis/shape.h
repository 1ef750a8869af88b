// Symbolic shape inference: an abstract interpretation over the
// planner's PlanNode DAG that propagates dataset extents -- record
// counts, serialized bytes per record, tile-grid dimensions -- from the
// bound inputs through every operator, entirely statically (no engine
// operator runs). The result feeds the shape and byte model (cost.h),
// the quantified lint rules (SAC-W02/W05/W06/W08) and the predicted-vs-
// measured shuffle-byte gate. See docs/COST_MODEL.md for the abstract
// domain and the per-operator transfer functions.
#ifndef SAC_ANALYSIS_SHAPE_H_
#define SAC_ANALYSIS_SHAPE_H_

#include <cstdint>
#include <unordered_map>

#include "src/analysis/lint.h"
#include "src/planner/plan.h"

namespace sac::analysis {

/// The abstract value: what we statically know about one plan node's
/// output dataset. `known == false` is the domain's top -- extents could
/// not be resolved from the bindings (or were merged inconsistently, e.g.
/// a Union of mismatched tile grids) and every quantified client must
/// degrade gracefully.
struct SymbolicShape {
  bool known = false;
  /// Estimated number of rows (records) in the dataset.
  double records = 0;
  /// Serialized bytes per record, including the per-record framing
  /// overhead the shuffle meters (keys + tags, ~48 B next to the payload).
  double bytes_per_record = 0;
  /// Tile-grid view when the rows are matrix tiles / vector blocks
  /// (grid_cols == 1 for vectors); 0 when the rows are not a plain grid.
  int64_t grid_rows = 0;
  int64_t grid_cols = 0;
  int64_t block = 0;
  /// Estimated distinct key count of the rows (drives reduce-side
  /// consolidation and partition sizing); 0 = unknown.
  double distinct_keys = 0;
  /// Floating-point work performed AT this node (not cumulative).
  double flops = 0;
  /// Partition count of the dataset (resolved; engine default when the
  /// node does not pin one).
  int num_partitions = 0;

  [[nodiscard]] double total_bytes() const { return records * bytes_per_record; }
};

using ShapeMap = std::unordered_map<const planner::PlanNode*, SymbolicShape>;

/// Serialized per-record framing overhead next to the payload (key
/// values, type tags, length prefixes) -- fitted to the exact byte
/// counters of the committed BENCH reports (45..59 B depending on
/// the key structure).
inline constexpr double kRecordOverheadBytes = 48.0;

/// Walks through single-input nodes to the source underneath, or nullptr
/// (sizes the group-by-join replication, whose factor depends on the
/// *sibling* operand's grid, and locates multiply operands).
[[nodiscard]] const planner::PlanNode* SourceBelow(
    const planner::PlanNode* n);

/// Runs the abstract interpretation over every node of `g` (creation
/// order is topological). Without bindings every shape is top.
[[nodiscard]] ShapeMap InferShapes(const PlanGraph& g);

}  // namespace sac::analysis

#endif  // SAC_ANALYSIS_SHAPE_H_
