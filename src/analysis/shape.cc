#include "src/analysis/shape.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace sac::analysis {

using planner::Binding;
using planner::PlanNode;
using planner::PlanNodePtr;

namespace {

int64_t CeilDiv(const int64_t a, const int64_t b) {
  return b > 0 ? (a + b - 1) / b : 0;
}

double TileBytes(const int64_t block) {
  return static_cast<double>(block) * static_cast<double>(block) *
             static_cast<double>(sizeof(double)) +
         kRecordOverheadBytes;
}

/// Abstract value of a bound source array.
SymbolicShape SourceShape(const planner::Bindings* binds,
                          const std::string& name, const int parallelism) {
  SymbolicShape s;
  s.num_partitions = parallelism;
  if (binds == nullptr) return s;
  const auto it = binds->find(name);
  if (it == binds->end()) return s;
  const Binding& b = it->second;
  switch (b.kind) {
    case Binding::Kind::kTiled: {
      if (b.tiled.rows <= 0 || b.tiled.cols <= 0 || b.tiled.block <= 0) break;
      s.known = true;
      s.grid_rows = CeilDiv(b.tiled.rows, b.tiled.block);
      s.grid_cols = CeilDiv(b.tiled.cols, b.tiled.block);
      s.block = b.tiled.block;
      s.records = static_cast<double>(s.grid_rows) *
                  static_cast<double>(s.grid_cols);
      s.bytes_per_record = TileBytes(s.block);
      s.distinct_keys = s.records;
      break;
    }
    case Binding::Kind::kBlockVector: {
      if (b.vec.size <= 0 || b.vec.block <= 0) break;
      s.known = true;
      s.grid_rows = CeilDiv(b.vec.size, b.vec.block);
      s.grid_cols = 1;
      s.block = b.vec.block;
      s.records = static_cast<double>(s.grid_rows);
      s.bytes_per_record =
          static_cast<double>(b.vec.block) * sizeof(double) +
          kRecordOverheadBytes;
      s.distinct_keys = s.records;
      break;
    }
    case Binding::Kind::kCoo: {
      if (b.coo.rows <= 0 || b.coo.cols <= 0) break;
      // Dense-content COO: one ((i,j),v) record per element.
      s.known = true;
      s.records = static_cast<double>(b.coo.rows) *
                  static_cast<double>(b.coo.cols);
      s.bytes_per_record = 3 * sizeof(double) + kRecordOverheadBytes / 2;
      s.distinct_keys = s.records;
      break;
    }
    case Binding::Kind::kScalar:
    case Binding::Kind::kLocal:
      break;  // driver-side; never a distributed source node
  }
  return s;
}

const SymbolicShape& InputShape(const ShapeMap& m, const PlanNodePtr& in) {
  static const SymbolicShape kTop;
  if (in == nullptr) return kTop;
  const auto it = m.find(in.get());
  return it != m.end() ? it->second : kTop;
}

SymbolicShape NarrowShape(const PlanNode& n, const SymbolicShape& in) {
  SymbolicShape s = in;
  s.flops = 0;
  const std::string& label = n.label;
  if (label == "partialProducts") {
    // One partial output tile per joined pair; the multiply work of the
    // 5.3 plan happens here: 2*b^3 flops per pair.
    s.bytes_per_record = TileBytes(in.block);
    s.distinct_keys = static_cast<double>(in.grid_rows * in.grid_cols);
    s.flops = in.known ? in.records * 2.0 * std::pow(
                                                static_cast<double>(in.block),
                                                3.0)
                       : 0;
    return s;
  }
  if (label == "partialAggregates") {
    // Axis reduction: every tile folds into one block-sized partial.
    s.bytes_per_record =
        static_cast<double>(in.block) * sizeof(double) + kRecordOverheadBytes;
    s.distinct_keys =
        static_cast<double>(std::max(in.grid_rows, in.grid_cols));
    s.flops = in.known ? in.records * static_cast<double>(in.block) *
                             static_cast<double>(in.block)
                       : 0;
    return s;
  }
  if (label == "summaMultiply") {
    // cogroupPanels already shaped the groups as the output grid (and
    // carries the multiply flops); one output tile per group.
    s.bytes_per_record = TileBytes(in.block);
    s.distinct_keys = in.records;
    return s;
  }
  if (label == "replicateA" || label == "replicateB") {
    // Replication factor depends on the sibling operand; resolved by the
    // cogroupPanels transfer below, which rewrites this entry.
    s.known = false;
    return s;
  }
  // keyTiles / keyByJoinDim / finalize / zipTiles / mapTiles / filters /
  // anything unknown: record count and payload preserved (a conservative
  // identity -- filters could shrink, which only over-estimates).
  return s;
}

void ShuffleDefaults(const PlanNode& n, const SymbolicShape& in,
                     SymbolicShape* s) {
  s->num_partitions = n.partitioning.num_partitions > 0
                          ? n.partitioning.num_partitions
                          : in.num_partitions;
}

}  // namespace

const PlanNode* SourceBelow(const PlanNode* n) {
  while (n != nullptr && n->op != PlanNode::Op::kSource) {
    n = n->inputs.empty() ? nullptr : n->inputs[0].get();
  }
  return n;
}

ShapeMap InferShapes(const PlanGraph& g) {
  ShapeMap out;
  const int parallelism =
      g.default_parallelism > 0 ? g.default_parallelism : 8;
  for (const PlanNodePtr& node : g.nodes) {  // creation order = topological
    const PlanNode& n = *node;
    const SymbolicShape a =
        n.inputs.empty() ? SymbolicShape{} : InputShape(out, n.inputs[0]);
    const SymbolicShape b =
        n.inputs.size() > 1 ? InputShape(out, n.inputs[1]) : SymbolicShape{};
    SymbolicShape s;
    switch (n.op) {
      case PlanNode::Op::kSource:
        s = SourceShape(g.binds, n.source, parallelism);
        break;
      case PlanNode::Op::kMap:
      case PlanNode::Op::kFlatMap:
      case PlanNode::Op::kFilter:
      case PlanNode::Op::kMapPartitions:
        s = NarrowShape(n, a);
        break;
      case PlanNode::Op::kUnion: {
        s.known = a.known && b.known;
        s.records = a.records + b.records;
        s.bytes_per_record = std::max(a.bytes_per_record, b.bytes_per_record);
        s.num_partitions = a.num_partitions + b.num_partitions;
        if (s.known && a.block == b.block && a.grid_cols == b.grid_cols) {
          s.block = a.block;
          s.grid_rows = a.grid_rows + b.grid_rows;
          s.grid_cols = a.grid_cols;
          s.distinct_keys = a.distinct_keys + b.distinct_keys;
        } else {
          // Mismatched tile extents merge to top: downstream estimates
          // would silently mix incompatible grids.
          s.known = false;
        }
        break;
      }
      case PlanNode::Op::kJoin: {
        ShuffleDefaults(n, a, &s);
        s.num_partitions = n.partitioning.num_partitions > 0
                               ? n.partitioning.num_partitions
                               : std::max(a.num_partitions, b.num_partitions);
        s.known = a.known && b.known;
        s.block = std::max(a.block, b.block);
        if (n.label == "joinTiles" && s.known) {
          // 5.3 matmul join on the shared index: |A| * |B| / shared-dim
          // matches (g^3 for square grids), keyed by the shared-dim
          // block. The grid is the output coordinate space (A-rows x
          // B-cols) partialProducts re-keys the pairs to.
          const double shared = std::max(
              1.0, static_cast<double>(std::min(
                       a.grid_cols > 0 ? a.grid_cols : a.grid_rows,
                       b.grid_rows > 0 ? b.grid_rows : a.grid_cols)));
          s.records = a.records * b.records / shared;
          s.distinct_keys = shared;
          s.grid_rows = a.grid_rows;
          s.grid_cols = b.grid_cols > 1 ? b.grid_cols : 1;
        } else {
          // Co-partitioned zip joins (5.1): 1:1 matches.
          s.records = std::min(a.records, b.records);
          s.distinct_keys = s.records;
        }
        s.bytes_per_record =
            a.bytes_per_record + b.bytes_per_record - kRecordOverheadBytes;
        break;
      }
      case PlanNode::Op::kCoGroup: {
        ShuffleDefaults(n, a, &s);
        s.num_partitions = n.partitioning.num_partitions > 0
                               ? n.partitioning.num_partitions
                               : std::max(a.num_partitions, b.num_partitions);
        const PlanNode* src_a = nullptr;
        const PlanNode* src_b = nullptr;
        if (n.label == "cogroupPanels" && n.inputs.size() == 2) {
          src_a = SourceBelow(n.inputs[0].get());
          src_b = SourceBelow(n.inputs[1].get());
        }
        const SymbolicShape sa =
            src_a != nullptr ? out[src_a] : SymbolicShape{};
        const SymbolicShape sb =
            src_b != nullptr ? out[src_b] : SymbolicShape{};
        if (sa.known && sb.known && sa.block == sb.block) {
          // 5.4 SUMMA group-by-join: A replicated across B's column
          // panels, B across A's row panels; one group per output tile.
          const double out_gr = static_cast<double>(sa.grid_rows);
          const double out_gc = static_cast<double>(sb.grid_cols);
          SymbolicShape ra = sa;
          ra.records = sa.records * out_gc;
          SymbolicShape rb = sb;
          rb.records = sb.records * out_gr;
          out[n.inputs[0].get()] = ra;
          out[n.inputs[1].get()] = rb;
          s.known = true;
          s.block = sa.block;
          s.grid_rows = sa.grid_rows;
          s.grid_cols = sb.grid_cols;
          s.records = out_gr * out_gc;
          s.distinct_keys = s.records;
          s.bytes_per_record =
              (static_cast<double>(sa.grid_cols) +
               static_cast<double>(sb.grid_rows)) *
                  (TileBytes(sa.block) - kRecordOverheadBytes) +
              kRecordOverheadBytes;
          s.flops = out_gr * out_gc * static_cast<double>(sa.grid_cols) *
                    2.0 * std::pow(static_cast<double>(sa.block), 3.0);
        } else {
          // Generic cogroup: group count bounded by the inputs' records.
          s.known = a.known && b.known;
          s.records = a.records + b.records;
          s.bytes_per_record =
              std::max(a.bytes_per_record, b.bytes_per_record);
          s.block = std::max(a.block, b.block);
        }
        break;
      }
      case PlanNode::Op::kReduceByKey: {
        ShuffleDefaults(n, a, &s);
        s.known = a.known;
        const double d = a.distinct_keys > 0
                             ? std::min(a.distinct_keys, a.records)
                             : a.records;
        s.records = d;
        s.distinct_keys = d;
        s.bytes_per_record = a.bytes_per_record;
        s.block = a.block;
        break;
      }
      case PlanNode::Op::kGroupByKey: {
        ShuffleDefaults(n, a, &s);
        s.known = a.known;
        const double d = a.distinct_keys > 0
                             ? std::min(a.distinct_keys, a.records)
                             : a.records;
        s.records = d;
        s.distinct_keys = d;
        s.bytes_per_record =
            d > 0 ? a.total_bytes() / d + kRecordOverheadBytes : 0;
        s.block = a.block;
        break;
      }
      case PlanNode::Op::kPartitionBy:
        ShuffleDefaults(n, a, &s);
        s.known = a.known;
        s.records = a.records;
        s.distinct_keys = a.distinct_keys;
        s.bytes_per_record = a.bytes_per_record;
        s.block = a.block;
        s.grid_rows = a.grid_rows;
        s.grid_cols = a.grid_cols;
        break;
      case PlanNode::Op::kCollect: {
        s.known = true;
        for (const PlanNodePtr& in : n.inputs) {
          const SymbolicShape& is = InputShape(out, in);
          s.known = s.known && is.known;
          s.records += is.records;
          s.bytes_per_record =
              std::max(s.bytes_per_record, is.bytes_per_record);
          s.num_partitions += is.num_partitions;
        }
        break;
      }
    }
    out[node.get()] = s;
  }
  return out;
}

}  // namespace sac::analysis
