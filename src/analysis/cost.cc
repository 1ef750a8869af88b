#include "src/analysis/cost.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "src/planner/planner.h"

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

/// Tiled matrix bound to `name` (IsTiledSource holds).
const storage::TiledMatrix& TiledOf(const PlanGraph& g,
                                    const std::string& name) {
  return g.binds->at(name).tiled;
}

/// Builds the 5.3 join + reduceByKey symbolic plan over two tiled sources,
/// placed and sized like the planner's cost-based plan (join by shared-
/// dimension block, reduce by output tile).
PlanGraph SynthesizeReduceByKeyPlan(const std::string& src_a,
                                    const std::string& src_b,
                                    const PlanGraph& g) {
  const storage::TiledMatrix& a = TiledOf(g, src_a);
  const storage::TiledMatrix& b = TiledOf(g, src_b);
  planner::PlanBuilder pb;
  PlanNodePtr sa = pb.Source(src_a, 2);
  PlanNodePtr ka = pb.Narrow(PlanNode::Op::kMap, "keyByJoinDim", sa, 1);
  PlanNodePtr sb = pb.Source(src_b, 2);
  PlanNodePtr kb = pb.Narrow(PlanNode::Op::kMap, "keyByJoinDim", sb, 1);
  PlanNodePtr joined = pb.Shuffle(
      PlanNode::Op::kJoin, "joinTiles", {ka, kb}, 1,
      planner::GridShufflePartitions(a.grid_cols(), g.default_parallelism),
      runtime::Partitioner::Grid({a.grid_cols()}));
  PlanNodePtr partials =
      pb.Narrow(PlanNode::Op::kMap, "partialProducts", joined, 2);
  PlanNodePtr reduced = pb.Shuffle(
      PlanNode::Op::kReduceByKey, "reduceTiles", {partials}, 2,
      planner::GridShufflePartitions(a.grid_rows() * b.grid_cols(),
                                     g.default_parallelism),
      runtime::Partitioner::Grid({a.grid_rows(), b.grid_cols()}));
  PlanNodePtr root = pb.Narrow(PlanNode::Op::kMap, "finalize", reduced, 2,
                               /*preserves_partitioning=*/true);
  PlanGraph out = g;
  out.root = root;
  out.nodes = pb.TakeNodes();
  return out;
}

/// Builds the 5.4 replicate + cogroup (SUMMA) symbolic plan.
PlanGraph SynthesizeGroupByJoinPlan(const std::string& src_a,
                                    const std::string& src_b,
                                    const PlanGraph& g) {
  const storage::TiledMatrix& a = TiledOf(g, src_a);
  const storage::TiledMatrix& b = TiledOf(g, src_b);
  planner::PlanBuilder pb;
  PlanNodePtr sa = pb.Source(src_a, 2);
  PlanNodePtr sb = pb.Source(src_b, 2);
  PlanNodePtr ra = pb.Narrow(PlanNode::Op::kFlatMap, "replicateA", sa, 2);
  PlanNodePtr rb = pb.Narrow(PlanNode::Op::kFlatMap, "replicateB", sb, 2);
  PlanNodePtr cg = pb.Shuffle(
      PlanNode::Op::kCoGroup, "cogroupPanels", {ra, rb}, 2,
      planner::GridShufflePartitions(a.grid_rows() * b.grid_cols(),
                                     g.default_parallelism),
      runtime::Partitioner::Grid({a.grid_rows(), b.grid_cols()}));
  PlanNodePtr root = pb.Narrow(PlanNode::Op::kFlatMap, "summaMultiply", cg, 2,
                               /*preserves_partitioning=*/true);
  PlanGraph out = g;
  out.root = root;
  out.nodes = pb.TakeNodes();
  return out;
}

/// True when `name` is bound to a tiled matrix with resolvable extents.
bool IsTiledSource(const PlanGraph& g, const std::string& name) {
  if (g.binds == nullptr) return false;
  const auto it = g.binds->find(name);
  return it != g.binds->end() &&
         it->second.kind == planner::Binding::Kind::kTiled &&
         it->second.tiled.rows > 0 && it->second.tiled.cols > 0 &&
         it->second.tiled.block > 0;
}

}  // namespace

CostModel CostModelForBackend(const std::string& backend_name) {
  CostModel m;
  if (backend_name == "jvmlike") m.ns_per_flop = m.ns_per_flop_jvmlike;
  return m;
}

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

CostEstimate EstimateCost(const PlanGraph& g, const CostModel& model) {
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
  est.est_ms = (est.totals.cross_bytes * model.ns_per_cross_byte +
                est.totals.local_bytes * model.ns_per_local_byte +
                est.totals.flops * model.ns_per_flop) /
                   1e6 +
               est.totals.tasks * model.us_per_task / 1e3;
  return est;
}

MultiplyAdvice AdviseMultiply(const PlanGraph& g, const CostModel& model) {
  MultiplyAdvice adv;
  // Recognize which multiply translation the plan executes and find the
  // two tiled operands underneath it.
  const PlanNode* wide = nullptr;
  bool chosen_is_gbj = false;
  for (const PlanNodePtr& node : g.nodes) {
    if (node->op == PlanNode::Op::kCoGroup &&
        node->label == "cogroupPanels" && node->inputs.size() == 2) {
      wide = node.get();
      chosen_is_gbj = true;
      break;
    }
    if (node->op == PlanNode::Op::kJoin && node->label == "joinTiles" &&
        node->inputs.size() == 2) {
      wide = node.get();
      chosen_is_gbj = false;
      break;
    }
  }
  if (wide == nullptr) return adv;
  const PlanNode* src_a = SourceBelow(wide->inputs[0].get());
  const PlanNode* src_b = SourceBelow(wide->inputs[1].get());
  if (src_a == nullptr || src_b == nullptr) return adv;
  // Both operands must be tiled matrices with known extents (the GBJ
  // translation does not apply to matrix-vector products).
  if (!IsTiledSource(g, src_a->source) || !IsTiledSource(g, src_b->source)) {
    return adv;
  }
  const PlanGraph rbk =
      SynthesizeReduceByKeyPlan(src_a->source, src_b->source, g);
  const PlanGraph gbj =
      SynthesizeGroupByJoinPlan(src_a->source, src_b->source, g);
  const CostEstimate rbk_est = EstimateCost(rbk, model);
  const CostEstimate gbj_est = EstimateCost(gbj, model);
  if (!rbk_est.exact || !gbj_est.exact) return adv;
  adv.applicable = true;
  adv.chosen_is_gbj = chosen_is_gbj;
  adv.chosen_ms = chosen_is_gbj ? gbj_est.est_ms : rbk_est.est_ms;
  adv.alternative_ms = chosen_is_gbj ? rbk_est.est_ms : gbj_est.est_ms;
  if (adv.alternative_ms < adv.chosen_ms) {
    const double chosen_shuffle = chosen_is_gbj
                                      ? gbj_est.totals.shuffle_bytes
                                      : rbk_est.totals.shuffle_bytes;
    const double alt_shuffle = chosen_is_gbj ? rbk_est.totals.shuffle_bytes
                                             : gbj_est.totals.shuffle_bytes;
    adv.bytes_saved = std::max(0.0, chosen_shuffle - alt_shuffle);
  }
  return adv;
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
     << static_cast<int64_t>(est.totals.tasks) << " tasks, est "
     << std::fixed << std::setprecision(3) << est.est_ms << " ms\n";
  return os.str();
}

}  // namespace sac::analysis
