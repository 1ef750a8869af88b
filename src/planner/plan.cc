#include "src/planner/plan.h"

#include <charconv>
#include <sstream>
#include <string_view>
#include <unordered_map>

namespace sac::planner {

std::string BindingShape(const Binding& b) {
  std::ostringstream os;
  switch (b.kind) {
    case Binding::Kind::kScalar:
      // Scalar values feed plan extents (loop bounds, dimensions) and are
      // compiled in as constants, so the exact value is the signature:
      // doubles print in shortest round-trip form, not ToString's six
      // digits.
      if (b.value.is_double()) {
        char buf[32];
        const auto r =
            std::to_chars(buf, buf + sizeof(buf), b.value.AsDouble());
        os << "d=" << std::string_view(buf, r.ptr - buf);
      } else {
        os << "s=" << b.value.ToString();
      }
      break;
    case Binding::Kind::kLocal:
      os << "local";
      break;
    case Binding::Kind::kTiled:
      os << "t=" << b.tiled.rows << 'x' << b.tiled.cols << '/'
         << b.tiled.block;
      break;
    case Binding::Kind::kBlockVector:
      os << "v=" << b.vec.size << '/' << b.vec.block;
      break;
    case Binding::Kind::kCoo:
      os << "c=" << b.coo.rows << 'x' << b.coo.cols;
      break;
  }
  return os.str();
}

Result<const Binding*> InputRef::Resolve(const Bindings& binds) const {
  auto it = binds.find(name);
  if (it == binds.end()) {
    return Status::PlanError("plan input '" + name + "' is not bound");
  }
  const std::string bound = BindingShape(it->second);
  if (bound != shape) {
    return Status::PlanError("plan input '" + name + "' was compiled for " +
                             shape + " but is bound to " + bound);
  }
  return &it->second;
}

Result<runtime::Dataset> InputRef::Data(const Bindings& binds) const {
  SAC_ASSIGN_OR_RETURN(const Binding* b, Resolve(binds));
  switch (b->kind) {
    case Binding::Kind::kTiled: return b->tiled.tiles;
    case Binding::Kind::kBlockVector: return b->vec.blocks;
    case Binding::Kind::kCoo: return b->coo.entries;
    default:
      return Status::PlanError("plan input '" + name +
                               "' is not a distributed array");
  }
}

const char* PlanOpName(PlanNode::Op op) {
  switch (op) {
    case PlanNode::Op::kSource: return "source";
    case PlanNode::Op::kMap: return "map";
    case PlanNode::Op::kFlatMap: return "flatMap";
    case PlanNode::Op::kFilter: return "filter";
    case PlanNode::Op::kMapPartitions: return "mapPartitions";
    case PlanNode::Op::kJoin: return "join";
    case PlanNode::Op::kCoGroup: return "cogroup";
    case PlanNode::Op::kReduceByKey: return "reduceByKey";
    case PlanNode::Op::kGroupByKey: return "groupByKey";
    case PlanNode::Op::kPartitionBy: return "partitionBy";
    case PlanNode::Op::kUnion: return "union";
    case PlanNode::Op::kCollect: return "collect";
  }
  return "?";
}

std::string Partitioning::ToString() const {
  if (kind == Kind::kNone) return "none";
  const std::string np =
      num_partitions < 0 ? "default" : std::to_string(num_partitions);
  if (placement.is_grid()) return placement.ToString() + "/" + np;
  return "hash(" + np + ")";
}

std::string PlanNode::ToString() const {
  std::ostringstream os;
  os << PlanOpName(op);
  if (op == Op::kSource) {
    os << "[" << source << "]";
  } else if (!label.empty()) {
    os << "[" << label << "]";
  }
  os << " part=" << partitioning.ToString() << " key=" << key_arity;
  if (preserves_partitioning) os << " preserves";
  if (folds_group) os << " folds-group";
  if (cached) os << " cached";
  if (in_loop) os << " in-loop";
  return os.str();
}

namespace {

void PrintTree(const PlanNodePtr& node, int depth,
               std::unordered_map<const PlanNode*, int>* seen,
               std::ostringstream* os) {
  for (int i = 0; i < depth; ++i) *os << "  ";
  auto it = seen->find(node.get());
  if (it != seen->end()) {
    *os << "(see #" << it->second << ")\n";
    return;
  }
  const int id = static_cast<int>(seen->size()) + 1;
  (*seen)[node.get()] = id;
  *os << "#" << id << " " << node->ToString() << "\n";
  for (const PlanNodePtr& in : node->inputs) {
    PrintTree(in, depth + 1, seen, os);
  }
}

}  // namespace

std::string PlanToString(const PlanNodePtr& root) {
  if (!root) return "(no plan)\n";
  std::ostringstream os;
  std::unordered_map<const PlanNode*, int> seen;
  PrintTree(root, 0, &seen, &os);
  return os.str();
}

PlanNodePtr PlanBuilder::Add(PlanNodePtr n) {
  if (!n->pos.IsSet()) n->pos = default_pos_;
  nodes_.push_back(n);
  return n;
}

PlanNodePtr PlanBuilder::Source(std::string name, int key_arity,
                                comp::Pos pos) {
  auto n = std::make_shared<PlanNode>();
  n->op = PlanNode::Op::kSource;
  n->source = std::move(name);
  n->key_arity = key_arity;
  n->cached = true;  // bound arrays are materialized
  n->pos = pos;
  return Add(std::move(n));
}

PlanNodePtr PlanBuilder::Narrow(PlanNode::Op op, std::string label,
                                PlanNodePtr in, int key_arity,
                                bool preserves_partitioning) {
  auto n = std::make_shared<PlanNode>();
  n->op = op;
  n->label = std::move(label);
  n->key_arity = key_arity;
  n->preserves_partitioning = preserves_partitioning;
  if (preserves_partitioning) n->partitioning = in->partitioning;
  n->inputs.push_back(std::move(in));
  return Add(std::move(n));
}

PlanNodePtr PlanBuilder::Shuffle(PlanNode::Op op, std::string label,
                                 std::vector<PlanNodePtr> ins, int key_arity,
                                 int num_partitions,
                                 runtime::Partitioner placement) {
  auto n = std::make_shared<PlanNode>();
  n->op = op;
  n->label = std::move(label);
  n->key_arity = key_arity;
  n->inputs = std::move(ins);
  n->partitioning = Partitioning{Partitioning::Kind::kHashKey, num_partitions,
                                 std::move(placement)};
  return Add(std::move(n));
}

PlanNodePtr PlanBuilder::Collect(std::vector<PlanNodePtr> ins) {
  auto n = std::make_shared<PlanNode>();
  n->op = PlanNode::Op::kCollect;
  n->label = "collect";
  n->inputs = std::move(ins);
  return Add(std::move(n));
}

}  // namespace sac::planner
