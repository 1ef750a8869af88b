#include "src/analysis/lint.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/analysis/cost.h"
#include "src/analysis/shape.h"

namespace sac::analysis {

using planner::PlanNode;
using planner::PlanNodePtr;

const std::vector<const LintRule*>& LintRules() {
  return *internal::LintRuleRegistrar::registry();
}

namespace internal {

std::vector<const LintRule*>* LintRuleRegistrar::registry() {
  static std::vector<const LintRule*> rules;
  return &rules;
}

LintRuleRegistrar::LintRuleRegistrar(const LintRule* rule) {
  registry()->push_back(rule);
}

}  // namespace internal

void LintPlan(const PlanGraph& g, std::vector<Diagnostic>* out) {
  for (const LintRule* rule : LintRules()) {
    rule->Run(g, out);
  }
}

namespace {

comp::Span SpanOf(const PlanNode& n) { return comp::Span{n.pos, n.pos}; }

/// Materiality threshold of the quantified rules: findings whose sized
/// impact is below this stay silent (pattern-only findings, where the
/// shape pass could not resolve extents, still fire).
constexpr double kMaterialityBytes = 1.0 * 1024 * 1024;

std::string HumanMiB(const double bytes) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << bytes / (1024.0 * 1024.0) << " MiB";
  return os.str();
}

std::string NodeDesc(const PlanNode& n) {
  std::string s = planner::PlanOpName(n.op);
  if (n.op == PlanNode::Op::kSource) return s + "[" + n.source + "]";
  if (!n.label.empty()) return s + "[" + n.label + "]";
  return s;
}

/// node -> nodes that read it (edges drawn from the creation record).
std::unordered_map<const PlanNode*, std::vector<const PlanNode*>>
Consumers(const PlanGraph& g) {
  std::unordered_map<const PlanNode*, std::vector<const PlanNode*>> out;
  for (const PlanNodePtr& n : g.nodes) {
    for (const PlanNodePtr& in : n->inputs) {
      out[in.get()].push_back(n.get());
    }
  }
  return out;
}

std::unordered_set<const PlanNode*> Reachable(const PlanNodePtr& root) {
  std::unordered_set<const PlanNode*> seen;
  std::vector<const PlanNode*> stack;
  if (root != nullptr) stack.push_back(root.get());
  while (!stack.empty()) {
    const PlanNode* n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second) continue;
    for (const PlanNodePtr& in : n->inputs) {
      if (in != nullptr) stack.push_back(in.get());
    }
  }
  return seen;
}

// ---------------------------------------------------------------------------
// SAC-W01: groupByKey where reduceByKey suffices
// ---------------------------------------------------------------------------

class GroupByKeyFoldRule : public LintRule {
 public:
  const char* code() const override { return "SAC-W01"; }
  const char* summary() const override {
    return "groupByKey whose groups are folded associatively; reduceByKey "
           "would combine map-side and shuffle less data";
  }
  void Run(const PlanGraph& g, std::vector<Diagnostic>* out) const override {
    const auto consumers = Consumers(g);
    for (const PlanNodePtr& n : g.nodes) {
      if (n->op != PlanNode::Op::kGroupByKey) continue;
      auto it = consumers.find(n.get());
      if (it == consumers.end()) continue;
      for (const PlanNode* c : it->second) {
        if (!c->folds_group) continue;
        out->push_back(Warning(
            code(),
            NodeDesc(*n) + " gathers whole groups that " + NodeDesc(*c) +
                " folds with an associative combine; use reduceByKey to "
                "combine on the map side",
            SpanOf(*n)));
      }
    }
  }
};
SAC_REGISTER_LINT_RULE(GroupByKeyFoldRule);

// ---------------------------------------------------------------------------
// SAC-W02: uncached dataset re-read inside an iterative loop
// ---------------------------------------------------------------------------

class UncachedLoopReuseRule : public LintRule {
 public:
  const char* code() const override { return "SAC-W02"; }
  const char* summary() const override {
    return "dataset with several consumers inside an iterative loop is not "
           "cached; every iteration recomputes it";
  }
  void Run(const PlanGraph& g, std::vector<Diagnostic>* out) const override {
    const auto consumers = Consumers(g);
    const ShapeMap shapes = InferShapes(g);
    for (const PlanNodePtr& n : g.nodes) {
      if (!n->in_loop || n->cached) continue;
      auto it = consumers.find(n.get());
      if (it == consumers.end() || it->second.size() < 2) continue;
      // Quantified when the shape pass sized the node: the uncached
      // dataset is rebuilt once per extra consumer, every iteration.
      const auto sit = shapes.find(n.get());
      const bool sized = sit != shapes.end() && sit->second.known;
      const double recompute =
          sized ? static_cast<double>(it->second.size() - 1) *
                      sit->second.total_bytes()
                : 0;
      if (sized && recompute < kMaterialityBytes) continue;
      std::string msg =
          NodeDesc(*n) + " is read by " + std::to_string(it->second.size()) +
          " operators inside an iterative loop but is not cached; "
          "each iteration recomputes it";
      if (sized) msg += " (~" + HumanMiB(recompute) + " per iteration)";
      Diagnostic d = Warning(code(), std::move(msg), SpanOf(*n));
      d.estimated_bytes = recompute;
      out->push_back(std::move(d));
    }
  }
};
SAC_REGISTER_LINT_RULE(UncachedLoopReuseRule);

// ---------------------------------------------------------------------------
// SAC-W03: shuffle whose partitioning already matches the producer
// ---------------------------------------------------------------------------

class RedundantShuffleRule : public LintRule {
 public:
  const char* code() const override { return "SAC-W03"; }
  const char* summary() const override {
    return "shuffle whose target partitioning matches the producer's "
           "partitioning and key; the repartition moves no row";
  }
  void Run(const PlanGraph& g, std::vector<Diagnostic>* out) const override {
    // Compare *resolved* partitionings: `-1` means the engine default,
    // so hash(8) -> hash(default) is redundant when the default is 8, and
    // hash(8) -> hash(16) or grid -> hash is a real repartition, never
    // flagged.
    const int default_np =
        g.default_parallelism > 0 ? g.default_parallelism : 8;
    for (const PlanNodePtr& n : g.nodes) {
      if (!n->is_shuffle() || n->inputs.empty()) continue;
      bool all_match = true;
      for (const PlanNodePtr& in : n->inputs) {
        if (in == nullptr ||
            !in->partitioning.MatchesResolved(n->partitioning, default_np) ||
            in->key_arity != n->key_arity) {
          all_match = false;
          break;
        }
      }
      if (!all_match) continue;
      out->push_back(Warning(
          code(),
          NodeDesc(*n) + " re-shuffles data already partitioned on "
                         "the same key (" +
              n->partitioning.ToString() +
              "); the producer's partitioning is preserved",
          SpanOf(*n)));
    }
  }
};
SAC_REGISTER_LINT_RULE(RedundantShuffleRule);

// ---------------------------------------------------------------------------
// SAC-W04: dataset computed but never used
// ---------------------------------------------------------------------------

class DeadDatasetRule : public LintRule {
 public:
  const char* code() const override { return "SAC-W04"; }
  const char* summary() const override {
    return "plan node unreachable from the query result; the dataset is "
           "computed and discarded";
  }
  void Run(const PlanGraph& g, std::vector<Diagnostic>* out) const override {
    if (g.root == nullptr) return;
    const auto live = Reachable(g.root);
    for (const PlanNodePtr& n : g.nodes) {
      if (n->op == PlanNode::Op::kSource) continue;  // inputs, not computed
      if (live.count(n.get()) > 0) continue;
      out->push_back(Warning(
          code(),
          NodeDesc(*n) +
              " is computed but never reaches the query result; remove it "
              "or use its output",
          SpanOf(*n)));
    }
  }
};
SAC_REGISTER_LINT_RULE(DeadDatasetRule);

// ---------------------------------------------------------------------------
// SAC-W05: chained in-loop shuffles with nothing cutting the lineage
// ---------------------------------------------------------------------------

class LoopShuffleChainRule : public LintRule {
 public:
  const char* code() const override { return "SAC-W05"; }
  const char* summary() const override {
    return "shuffle feeding another shuffle inside an iterative loop with "
           "no cache or checkpoint between them; lineage and recovery cost "
           "grow with every iteration";
  }
  void Run(const PlanGraph& g, std::vector<Diagnostic>* out) const override {
    const auto consumers = Consumers(g);
    const CostEstimate est = EstimateCost(g);
    std::unordered_map<const PlanNode*, const CostEstimate::Item*> items;
    for (const CostEstimate::Item& item : est.items) {
      items[item.node] = &item;
    }
    for (const PlanNodePtr& n : g.nodes) {
      if (!n->in_loop || !n->is_shuffle() || n->cached) continue;
      // Walk downstream through uncached nodes; a cached node cuts the
      // recompute chain, another in-loop shuffle means a lost partition
      // there replays this shuffle too -- every iteration, since nothing
      // between them materializes durably.
      std::unordered_set<const PlanNode*> seen;
      std::vector<const PlanNode*> stack;
      auto push_consumers = [&](const PlanNode* p) {
        auto it = consumers.find(p);
        if (it == consumers.end()) return;
        for (const PlanNode* c : it->second) stack.push_back(c);
      };
      push_consumers(n.get());
      const PlanNode* hit = nullptr;
      while (!stack.empty() && hit == nullptr) {
        const PlanNode* c = stack.back();
        stack.pop_back();
        if (!seen.insert(c).second) continue;
        if (c->cached) continue;
        if (c->in_loop && c->is_shuffle()) {
          hit = c;
          break;
        }
        push_consumers(c);
      }
      if (hit == nullptr) continue;
      // Quantified when the shape pass resolved this shuffle: a replay
      // re-moves its shuffled bytes, so immaterial chains stay silent.
      const auto iit = items.find(n.get());
      const bool sized = iit != items.end() && iit->second->shape.known &&
                         iit->second->cost.shuffle_bytes > 0;
      const double replay = sized ? iit->second->cost.shuffle_bytes : 0;
      if (sized && replay < kMaterialityBytes) continue;
      std::string msg =
          NodeDesc(*n) + " feeds " + NodeDesc(*hit) +
          " inside an iterative loop with nothing cutting the lineage "
          "between them; cache the intermediate or checkpoint the loop "
          "target (ClusterConfig::checkpoint_interval) so recovery "
          "does not replay the whole chain";
      if (sized) msg += " (~" + HumanMiB(replay) + " re-shuffled per replay)";
      Diagnostic d = Warning(code(), std::move(msg), SpanOf(*n));
      d.estimated_bytes = replay;
      out->push_back(std::move(d));
    }
  }
};
SAC_REGISTER_LINT_RULE(LoopShuffleChainRule);

// ---------------------------------------------------------------------------
// SAC-W06: estimated resident set exceeds the memory budget, no cut
// ---------------------------------------------------------------------------

class ResidentSetOverBudgetRule : public LintRule {
 public:
  const char* code() const override { return "SAC-W06"; }
  const char* summary() const override {
    return "estimated resident set of the plan exceeds the configured "
           "memory budget and no intermediate is cached or checkpointed; "
           "the run will thrash through spill eviction";
  }
  void Run(const PlanGraph& g, std::vector<Diagnostic>* out) const override {
    if (g.memory_budget_bytes == 0 || g.binds == nullptr) return;
    // The engine evaluates eagerly, so every plan node's output is
    // materialized at some point; the sum of per-node footprints is a
    // (crude, dense) estimate of the run's resident set. Sources are
    // sized from their bound shapes; a transformation's output is
    // approximated by the largest of its inputs (element-wise ops
    // preserve footprint; reductions shrink it, so this over-estimates
    // conservatively on the warning side).
    std::unordered_map<const PlanNode*, uint64_t> size;
    uint64_t total = 0;
    bool has_cut = false;
    for (const PlanNodePtr& n : g.nodes) {  // creation order = topological
      uint64_t bytes = 0;
      if (n->op == PlanNode::Op::kSource) {
        bytes = SourceBytes(*g.binds, n->source);
      } else {
        for (const PlanNodePtr& in : n->inputs) {
          auto it = size.find(in.get());
          if (it != size.end() && it->second > bytes) bytes = it->second;
        }
        if (n->cached) has_cut = true;
      }
      size[n.get()] = bytes;
      total += bytes;
    }
    if (total <= g.memory_budget_bytes || has_cut) return;
    // Materiality: a budget overshoot smaller than the threshold causes
    // negligible eviction traffic and stays silent.
    const double excess =
        static_cast<double>(total) -
        static_cast<double>(g.memory_budget_bytes);
    if (excess < kMaterialityBytes) return;
    Diagnostic d = Warning(
        code(),
        "plan materializes an estimated " + std::to_string(total >> 20) +
            " MiB against a memory budget of " +
            std::to_string(g.memory_budget_bytes >> 20) +
            " MiB with no cached or checkpointed intermediate; the run "
            "stays correct (cold partitions spill and reload) but will "
            "thrash -- cache a reused intermediate or checkpoint the loop "
            "target to cut the resident set",
        g.root != nullptr ? SpanOf(*g.root) : comp::Span{});
    d.estimated_bytes = static_cast<double>(total);
    out->push_back(std::move(d));
  }

 private:
  static uint64_t SourceBytes(const planner::Bindings& binds,
                              const std::string& name) {
    auto it = binds.find(name);
    if (it == binds.end()) return 0;
    const planner::Binding& b = it->second;
    switch (b.kind) {
      case planner::Binding::Kind::kTiled:
        return static_cast<uint64_t>(b.tiled.rows) *
               static_cast<uint64_t>(b.tiled.cols) * sizeof(double);
      case planner::Binding::Kind::kBlockVector:
        return static_cast<uint64_t>(b.vec.size) * sizeof(double);
      case planner::Binding::Kind::kCoo:
        // Dense-content COO: one ((i,j),v) record per element.
        return static_cast<uint64_t>(b.coo.rows) *
               static_cast<uint64_t>(b.coo.cols) * 3 * sizeof(double);
      case planner::Binding::Kind::kScalar:
      case planner::Binding::Kind::kLocal:
        return 0;  // driver-side, not part of the distributed resident set
    }
    return 0;
  }
};
SAC_REGISTER_LINT_RULE(ResidentSetOverBudgetRule);

// ---------------------------------------------------------------------------
// SAC-W08: shuffle partition count badly sized for extents / cores
// ---------------------------------------------------------------------------

class PartitionSizingRule : public LintRule {
 public:
  const char* code() const override { return "SAC-W08"; }
  const char* summary() const override {
    return "shuffle partition count badly sized for the estimated record "
           "count / cluster cores: empty partitions waste dispatch, too "
           "few leave cores idle";
  }
  void Run(const PlanGraph& g, std::vector<Diagnostic>* out) const override {
    if (g.binds == nullptr) return;
    const int executors = g.num_executors > 0 ? g.num_executors : 4;
    const int cores =
        executors * (g.cores_per_executor > 0 ? g.cores_per_executor : 1);
    const ShapeMap shapes = InferShapes(g);
    for (const planner::PlanNodePtr& n : g.nodes) {
      if (!n->is_shuffle()) continue;
      const auto sit = shapes.find(n.get());
      if (sit == shapes.end() || !sit->second.known) continue;
      const SymbolicShape& s = sit->second;
      if (s.records <= 0 || s.num_partitions <= 0) continue;
      const double np = s.num_partitions;
      // A key never splits across partitions: only a shuffle with enough
      // distinct keys could use more of them.
      const double keys = s.distinct_keys > 0
                              ? std::min(s.records, s.distinct_keys)
                              : s.records;
      if (np > 4.0 * s.records) {
        const int64_t empty =
            static_cast<int64_t>(np - std::min(s.records, np));
        out->push_back(Warning(
            code(),
            NodeDesc(*n) + " reduces into " +
                std::to_string(s.num_partitions) +
                " partitions but the shape pass estimates only " +
                std::to_string(static_cast<int64_t>(s.records)) +
                " output records; ~" + std::to_string(empty) +
                " partitions stay empty and their task dispatch is wasted "
                "-- size num_partitions near the record count",
            SpanOf(*n)));
      } else if (np < cores && keys >= 2.0 * cores) {
        out->push_back(Warning(
            code(),
            NodeDesc(*n) + " squeezes an estimated " +
                std::to_string(static_cast<int64_t>(s.records)) +
                " records into " + std::to_string(s.num_partitions) +
                " partitions on a cluster with " + std::to_string(cores) +
                " cores; " + std::to_string(cores - s.num_partitions) +
                " cores stay idle through the reduce -- raise "
                "num_partitions to at least the core count",
            SpanOf(*n)));
      }
    }
  }
};
SAC_REGISTER_LINT_RULE(PartitionSizingRule);

}  // namespace

}  // namespace sac::analysis
