// Planner-facing types: bindings (what names in a query refer to), the
// compiled query (a physical plan over the DISC engine, run against the
// bindings it is handed), and planner options controlling which
// translation strategies are eligible.
#ifndef SAC_PLANNER_PLAN_H_
#define SAC_PLANNER_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/comp/ast.h"
#include "src/runtime/engine.h"
#include "src/storage/tiled.h"

namespace sac::planner {

/// What a free variable of a query denotes.
struct Binding {
  enum class Kind {
    kScalar,       // int / double / bool
    kLocal,        // local dense matrix (Value::TileVal) or list
    kTiled,        // distributed TiledMatrix
    kBlockVector,  // distributed BlockVector
    kCoo,          // distributed coordinate matrix
  };
  Kind kind = Kind::kScalar;
  runtime::Value value;  // kScalar / kLocal
  storage::TiledMatrix tiled;
  storage::BlockVector vec;
  storage::CooMatrix coo;

  static Binding Scalar(runtime::Value v) {
    Binding b;
    b.kind = Kind::kScalar;
    b.value = std::move(v);
    return b;
  }
  static Binding Local(runtime::Value v) {
    Binding b;
    b.kind = Kind::kLocal;
    b.value = std::move(v);
    return b;
  }
  static Binding Tiled(storage::TiledMatrix m) {
    Binding b;
    b.kind = Kind::kTiled;
    b.tiled = std::move(m);
    return b;
  }
  static Binding Vector(storage::BlockVector v) {
    Binding b;
    b.kind = Kind::kBlockVector;
    b.vec = std::move(v);
    return b;
  }
  static Binding Coo(storage::CooMatrix c) {
    Binding b;
    b.kind = Kind::kCoo;
    b.coo = std::move(c);
    return b;
  }

  bool is_distributed() const {
    return kind == Kind::kTiled || kind == Kind::kBlockVector ||
           kind == Kind::kCoo;
  }
};

using Bindings = std::unordered_map<std::string, Binding>;

/// A binding's shape signature: its kind plus extents and block size for
/// distributed arrays, its value for scalars ("local" for kLocal values,
/// which have no cheap signature). This is everything a compiled plan may
/// depend on and nothing that names a dataset: the plan-cache key is built
/// from it, and a plan checks its inputs against it at run time.
std::string BindingShape(const Binding& b);

/// A distributed input as a compiled plan sees it: the binding name and
/// the shape it was compiled for, never the dataset. Run closures capture
/// these and resolve them against the bindings passed to `run`, so one
/// plan serves every dataset of the compiled shape.
struct InputRef {
  std::string name;
  std::string shape;  // BindingShape at compile time

  InputRef(std::string name, const Binding& b)
      : name(std::move(name)), shape(BindingShape(b)) {}

  /// The binding `name` in `binds`; PlanError when it is missing or its
  /// kind, extents or block size differ from the compiled shape.
  Result<const Binding*> Resolve(const Bindings& binds) const;
  /// Resolve() narrowed to the dataset: tiles, blocks or entries.
  Result<runtime::Dataset> Data(const Bindings& binds) const;
};

/// The value a query evaluates to.
struct QueryResult {
  enum class Kind { kValue, kTiled, kBlockVector };
  Kind kind = Kind::kValue;
  runtime::Value value;  // scalars, lists, local matrices
  storage::TiledMatrix tiled;
  storage::BlockVector vec;
};

/// Which Section-5 translation the planner chose (reported for tests,
/// EXPLAIN output and the ablation benches).
enum class Strategy {
  kTilingPreserving,  // 5.1: join of tiles, no group-by shuffle
  kReplication,       // 5.2: I_f(K) replication + groupByKey
  kReduceByKey,       // 5.3: join + reduceByKey with a tile monoid
  kGroupByJoin,       // 5.4: SUMMA-style replicate + cogroup
  kCoo,               // Section 4: element-level coordinate format
  kLocalFallback,     // collect + reference evaluation (small data)
  kLocal,             // purely local inputs, reference evaluation
};
const char* StrategyName(Strategy s);

struct PlannerOptions {
  /// Enables the Section 5.4 group-by-join (SUMMA) rule. The Figure 4.B
  /// "SAC" series disables it to get the plain join + group-by plan.
  bool enable_group_by_join = true;
  /// Forces the Section 4 coordinate-format translation (DIABLO-style),
  /// used by the COO-vs-tiled ablation.
  bool force_coo = false;
  /// Largest total input cell count the local fallback will collect.
  int64_t local_fallback_max_cells = 1 << 22;
  /// Fuse a transpose feeding an elementwise op into one blocked pass
  /// (src/la/fused.h): same values, one fewer tile allocation per stage.
  /// An engine on the jvmlike backend ignores this and keeps the
  /// materialized two-pass form. bench_abl_backend's fusion gate flips
  /// it off for the unfused arm.
  bool fuse_elementwise = true;
  /// Cost-based planning (docs/COST_MODEL.md): when both the 5.3
  /// reduceByKey and the 5.4 group-by-join translation apply, pick the one
  /// the calibrated cost model estimates cheaper for the bound extents
  /// (fig4b shows the right choice flips with n), and size reduce-side
  /// partition counts from the distinct-key estimate instead of the
  /// engine default. `SAC_AUTO_STRATEGY=off` overrides to disabled; the
  /// forced bench series pin this off so their plans stay comparable.
  bool auto_strategy = true;
  /// Cluster shape the cost model evaluates against (executor count
  /// drives the local/cross shuffle split, parallelism the task counts).
  /// Sac's constructor copies its engine config here.
  runtime::ClusterConfig cluster;
};

// ---------------------------------------------------------------------------
// Symbolic physical plan
// ---------------------------------------------------------------------------
//
// Each translation strategy emits, next to its executable closure, a small
// symbolic DAG describing the engine operators the closure will run. The
// static analyzer (src/analysis/) lints and verifies this DAG before any
// tile is materialized: partitioning metadata feeds the shuffle rules
// (SAC-W03), consumer counts feed the dead-dataset and cache rules
// (SAC-W02/W04), and VerifyPlan() checks the structural invariants.

/// How a plan node's output is distributed over partitions. `kHashKey`
/// means rows are placed by key with `placement`, the runtime::Partitioner
/// the shuffle runs with: a coordinate key inside its grid extents lives
/// on partition `row-major index % num_partitions`, any other key on
/// `hash(key) % num_partitions`. Two nodes with an unchanged key
/// are co-partitioned only when placement and partition count agree.
struct Partitioning {
  enum class Kind { kNone, kHashKey };
  Kind kind = Kind::kNone;
  int num_partitions = -1;  // -1 = engine default parallelism
  runtime::Partitioner placement;  // grid extents, when the planner knows

  bool Matches(const Partitioning& other) const {
    return kind == Kind::kHashKey && other.kind == Kind::kHashKey &&
           placement == other.placement &&
           num_partitions == other.num_partitions;
  }
  /// Matches() with `-1` on either side resolved to the engine default
  /// parallelism first, so `hash(8)` and `hash(default)` compare equal
  /// when the engine would create 8 partitions for both. This is the
  /// comparison the redundant-shuffle lint (SAC-W03) wants: two
  /// partitionings with different placements or *resolved* counts put
  /// rows in different partitions and the repartition is real, not
  /// redundant.
  bool MatchesResolved(const Partitioning& other, int default_np) const {
    if (kind != Kind::kHashKey || other.kind != Kind::kHashKey ||
        placement != other.placement) {
      return false;
    }
    const int a = num_partitions > 0 ? num_partitions : default_np;
    const int b = other.num_partitions > 0 ? other.num_partitions : default_np;
    return a == b;
  }
  std::string ToString() const;
};

struct PlanNode;
using PlanNodePtr = std::shared_ptr<PlanNode>;

/// One symbolic operator in the physical plan.
struct PlanNode {
  enum class Op {
    kSource,         // a bound distributed array (already materialized)
    kMap, kFlatMap, kFilter, kMapPartitions,   // narrow (1 input)
    kJoin, kCoGroup,                           // wide, 2 inputs
    kReduceByKey, kGroupByKey, kPartitionBy,   // wide, 1 input
    kUnion,                                    // 2 inputs, narrow
    kCollect,                                  // action (n inputs)
  };

  Op op = Op::kSource;
  std::string label;   // engine stage label, e.g. "zipTiles"
  std::string source;  // kSource only: the binding name
  std::vector<PlanNodePtr> inputs;

  /// Output placement; shuffles set it, narrow ops inherit it only
  /// when `preserves_partitioning` (they leave the key untouched).
  Partitioning partitioning;
  /// Number of components in the record key (0 = rows are not keyed).
  int key_arity = 0;
  /// Narrow op leaves row keys (and hence co-partitioning) intact.
  bool preserves_partitioning = false;
  /// This node folds each group of its groupByKey/cogroup input with an
  /// associative combine -- the signature SAC-W01 looks for.
  bool folds_group = false;
  /// Output is materialized and reusable without recompute (sources are;
  /// the engine evaluates eagerly, so its intermediates are too, but a
  /// loop body re-runs and rebuilds them every iteration).
  bool cached = false;
  /// Node is compiled inside an iterative-loop body (DIABLO front end).
  bool in_loop = false;
  /// Source position that motivated this operator (comprehension /
  /// generator position), for diagnostics.
  comp::Pos pos;

  bool is_shuffle() const {
    return op == Op::kJoin || op == Op::kCoGroup || op == Op::kReduceByKey ||
           op == Op::kGroupByKey || op == Op::kPartitionBy;
  }
  /// "join(2 in, hash(8), key=2)"-style one-liner.
  std::string ToString() const;
};

const char* PlanOpName(PlanNode::Op op);

/// Indented tree rendering of the DAG rooted at `root` (shared nodes are
/// printed once and referenced by label afterwards).
std::string PlanToString(const PlanNodePtr& root);

/// Builds symbolic plan nodes, recording every node created -- including
/// ones that end up unreachable from the root, which is exactly what the
/// dead-dataset lint (SAC-W04) needs to see.
class PlanBuilder {
 public:
  explicit PlanBuilder(comp::Pos default_pos = {}) : default_pos_(default_pos) {}

  PlanNodePtr Source(std::string name, int key_arity, comp::Pos pos = {});
  PlanNodePtr Narrow(PlanNode::Op op, std::string label, PlanNodePtr in,
                     int key_arity, bool preserves_partitioning = false);
  /// A shuffle placed by `placement` (the same Partitioner the run
  /// closure hands the engine, so plan metadata and execution agree).
  PlanNodePtr Shuffle(PlanNode::Op op, std::string label,
                      std::vector<PlanNodePtr> ins, int key_arity,
                      int num_partitions = -1,
                      runtime::Partitioner placement = {});
  PlanNodePtr Collect(std::vector<PlanNodePtr> ins);

  const std::vector<PlanNodePtr>& nodes() const { return nodes_; }
  std::vector<PlanNodePtr> TakeNodes() { return std::move(nodes_); }

 private:
  PlanNodePtr Add(PlanNodePtr n);
  comp::Pos default_pos_;
  std::vector<PlanNodePtr> nodes_;
};

/// A compiled, executable query plan: a function of the query text, the
/// planner options and the binding shapes only. It holds no dataset;
/// `run` reads its inputs from the bindings it is handed, and scalar
/// bindings are compiled in as constants.
struct CompiledQuery {
  Strategy strategy = Strategy::kLocal;
  std::string explanation;  // one line: rule fired and why
  std::function<Result<QueryResult>(runtime::Engine*, const Bindings&)> run;

  /// Symbolic DAG of the engine operators `run` will execute; nullptr for
  /// purely local evaluation (kLocal), which runs no engine operators.
  PlanNodePtr plan;
  /// Every symbolic node the strategy built (plan_nodes ⊇ reachable(plan)).
  std::vector<PlanNodePtr> plan_nodes;
};

}  // namespace sac::planner

#endif  // SAC_PLANNER_PLAN_H_
