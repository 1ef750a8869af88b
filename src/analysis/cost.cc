#include "src/analysis/cost.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace sac::analysis {

using planner::PlanNode;
using planner::PlanNodePtr;

namespace {

bool IsNarrow(const PlanNode::Op op) {
  return op == PlanNode::Op::kMap || op == PlanNode::Op::kFlatMap ||
         op == PlanNode::Op::kFilter || op == PlanNode::Op::kMapPartitions;
}

/// Bytes one shuffle input contributes to the wire. ReduceByKey combines
/// map-side: each source partition emits at most one record per distinct
/// key. (The 5.3 plan's partial products are spread over the join's
/// partitions by their shared-dimension key, so each partition holds
/// every output key and little combines: the reduce moves ~g^3 tiles.)
double MovedBytes(const PlanNode& n, const SymbolicShape& in) {
  if (!in.known) return in.total_bytes();
  if (n.op == PlanNode::Op::kReduceByKey && in.distinct_keys > 0) {
    const double occupied = static_cast<double>(std::max(in.num_partitions, 1));
    const double records = std::min(in.records, in.distinct_keys * occupied);
    return records * in.bytes_per_record;
  }
  return in.total_bytes();
}

std::string HumanMiB(const double bytes) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << bytes / (1024.0 * 1024.0);
  return os.str();
}

std::string NodeName(const PlanNode& n) {
  std::string s = planner::PlanOpName(n.op);
  if (!n.source.empty()) return s + " " + n.source;
  if (!n.label.empty()) return s + " " + n.label;
  return s;
}

}  // namespace

const char* EngineShuffleLabel(const planner::PlanNode::Op op) {
  switch (op) {
    case PlanNode::Op::kJoin:
      return "join";
    case PlanNode::Op::kCoGroup:
      return "cogroup";
    case PlanNode::Op::kReduceByKey:
      return "reduceByKey";
    case PlanNode::Op::kGroupByKey:
      return "groupByKey";
    case PlanNode::Op::kPartitionBy:
      return "partitionBy";
    default:
      return nullptr;
  }
}

CostEstimate EstimateCost(const PlanGraph& g) {
  const ShapeMap shapes = InferShapes(g);
  const int executors = g.num_executors > 0 ? g.num_executors : 4;
  CostEstimate est;
  est.exact = !g.nodes.empty();
  for (const PlanNodePtr& node : g.nodes) {
    const PlanNode& n = *node;
    CostEstimate::Item item;
    item.node = node.get();
    const auto sit = shapes.find(node.get());
    if (sit != shapes.end()) item.shape = sit->second;
    const SymbolicShape& s = item.shape;
    if (!s.known) est.exact = false;
    NodeCost& c = item.cost;
    c.output_bytes = s.known ? s.total_bytes() : 0;
    c.flops = s.flops;
    if (IsNarrow(n.op) && !n.inputs.empty()) {
      const auto iit = shapes.find(n.inputs[0].get());
      c.tasks = iit != shapes.end() ? iit->second.num_partitions : 0;
    } else if (n.is_shuffle()) {
      double map_tasks = 0;
      for (const PlanNodePtr& in : n.inputs) {
        const auto iit = shapes.find(in.get());
        if (iit == shapes.end()) continue;
        const SymbolicShape& is = iit->second;
        c.shuffle_bytes += MovedBytes(n, is);
        map_tasks += is.num_partitions;
      }
      // Sources lie round-robin and every shuffle places its keys evenly,
      // so rows are spread uniformly over the executors and (E-1)/E of
      // the moved bytes cross executors.
      c.cross_bytes = c.shuffle_bytes * static_cast<double>(executors - 1) /
                      static_cast<double>(executors);
      c.local_bytes = c.shuffle_bytes - c.cross_bytes;
      c.tasks = map_tasks + s.num_partitions;
      if (const char* lbl = EngineShuffleLabel(n.op)) {
        est.shuffle_by_engine_label[lbl] += c.shuffle_bytes;
      }
    }
    est.totals.shuffle_bytes += c.shuffle_bytes;
    est.totals.cross_bytes += c.cross_bytes;
    est.totals.local_bytes += c.local_bytes;
    est.totals.tasks += c.tasks;
    est.totals.flops += c.flops;
    est.totals.output_bytes += c.output_bytes;
    est.resident_bytes += c.output_bytes;
    est.items.push_back(std::move(item));
  }
  return est;
}

std::string RenderCostTable(const CostEstimate& est) {
  std::ostringstream os;
  os << "cost:" << (est.exact ? "" : " (extents unresolved; partial)")
     << "\n";
  os << "  " << std::left << std::setw(28) << "node" << std::right
     << std::setw(10) << "records" << std::setw(10) << "out MiB"
     << std::setw(10) << "loc MiB" << std::setw(10) << "x-ex MiB"
     << std::setw(7) << "tasks" << std::setw(12) << "flops" << "\n";
  for (const CostEstimate::Item& item : est.items) {
    if (item.node == nullptr) continue;
    os << "  " << std::left << std::setw(28)
       << NodeName(*item.node).substr(0, 27) << std::right;
    if (item.shape.known) {
      os << std::setw(10) << static_cast<int64_t>(item.shape.records);
    } else {
      os << std::setw(10) << "?";
    }
    os << std::setw(10) << HumanMiB(item.cost.output_bytes) << std::setw(10)
       << HumanMiB(item.cost.local_bytes) << std::setw(10)
       << HumanMiB(item.cost.cross_bytes) << std::setw(7)
       << static_cast<int64_t>(item.cost.tasks) << std::setw(12)
       << std::scientific << std::setprecision(2) << item.cost.flops
       << std::defaultfloat << "\n";
  }
  os << "  totals: shuffle " << HumanMiB(est.totals.shuffle_bytes)
     << " MiB (cross " << HumanMiB(est.totals.cross_bytes) << "), resident "
     << HumanMiB(est.resident_bytes) << " MiB, "
     << static_cast<int64_t>(est.totals.tasks) << " tasks\n";
  return os.str();
}

}  // namespace sac::analysis
