// Translation of group-by comprehensions over block arrays:
//   Section 5.3 -- join + reduceByKey with tile monoids
//   Section 5.4 -- group-by-join (SUMMA): replicate + cogroup
#include <algorithm>
#include <array>
#include <limits>
#include <unordered_map>

#include "src/comp/eval.h"
#include "src/exec/scalar_fn.h"
#include "src/la/backend.h"
#include "src/la/kernels.h"
#include "src/planner/planner.h"

namespace sac::planner {

using comp::Expr;
using comp::ExprPtr;
using comp::ReduceOp;
using exec::ConstEnv;
using exec::ScalarFn;
using runtime::Dataset;
using runtime::Engine;
using runtime::Partitioner;
using runtime::Value;
using runtime::ValueVec;
using runtime::VInt;
using runtime::VPair;
using storage::TiledMatrix;

namespace {

Status NotApplicable(const std::string& rule, const std::string& why) {
  return Status::PlanError(rule + " does not apply: " + why);
}

// ---- monoid helpers --------------------------------------------------------

double MonoidIdentity(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
    case ReduceOp::kCount:
      return 0.0;
    case ReduceOp::kProd:
      return 1.0;
    case ReduceOp::kMin:
      return std::numeric_limits<double>::infinity();
    case ReduceOp::kMax:
      return -std::numeric_limits<double>::infinity();
    default:
      return 0.0;
  }
}

inline void MonoidAccum(ReduceOp op, double* acc, double v) {
  switch (op) {
    case ReduceOp::kSum:
    case ReduceOp::kCount:
      *acc += v;
      break;
    case ReduceOp::kProd:
      *acc *= v;
      break;
    case ReduceOp::kMin:
      *acc = std::min(*acc, v);
      break;
    case ReduceOp::kMax:
      *acc = std::max(*acc, v);
      break;
    default:
      break;
  }
}

/// acc ⊕= t elementwise: the tile monoid of Section 5.3.
void TileMonoidAccum(ReduceOp op, la::Tile* acc, const la::Tile& t) {
  if (op == ReduceOp::kSum || op == ReduceOp::kCount) {
    la::AddInPlace(acc, t);
    return;
  }
  double* pa = acc->data();
  const double* pt = t.data();
  const int64_t n = acc->size();
  for (int64_t i = 0; i < n; ++i) MonoidAccum(op, &pa[i], pt[i]);
}

la::Tile FilledTile(int64_t r, int64_t c, double v) {
  la::Tile t(r, c);
  if (v != 0.0) std::fill(t.data(), t.data() + t.size(), v);
  return t;
}

// ---- aggregation extraction (Section 3 / 5.3 decomposition) ---------------

struct AggInfo {
  ReduceOp op;      // sum / prod / min / max (count becomes sum of 1)
  ExprPtr g;        // per-element term, over generator element variables
};

/// Decomposes the (let-inlined) head value into
/// f($agg0, ..., $aggm) with aggregates ⊕i/gi (rule 12 / 5.3). kCount
/// becomes sum of 1; kAvg becomes sum/count.
struct AggDecomposition {
  std::vector<AggInfo> aggs;
  ExprPtr finalize;  // over variables $agg0...$aggm
};

Result<ExprPtr> ExtractAggsRec(const ExprPtr& e,
                               std::vector<AggInfo>* aggs) {
  if (e->kind == Expr::Kind::kReduce) {
    const ExprPtr& operand = e->children[0];
    // Nested reductions inside an aggregate are not supported here.
    for (const auto& fv : comp::FreeVars(operand)) {
      (void)fv;
    }
    switch (e->reduce_op) {
      case ReduceOp::kSum:
      case ReduceOp::kProd:
      case ReduceOp::kMin:
      case ReduceOp::kMax: {
        const size_t k = aggs->size();
        aggs->push_back(AggInfo{e->reduce_op, operand});
        return Expr::Var("$agg" + std::to_string(k), e->pos);
      }
      case ReduceOp::kCount: {
        const size_t k = aggs->size();
        aggs->push_back(AggInfo{ReduceOp::kSum, Expr::Int(1, e->pos)});
        return Expr::Var("$agg" + std::to_string(k), e->pos);
      }
      case ReduceOp::kAvg: {
        const size_t k = aggs->size();
        aggs->push_back(AggInfo{ReduceOp::kSum, operand});
        aggs->push_back(AggInfo{ReduceOp::kSum, Expr::Int(1, e->pos)});
        return Expr::Binary(comp::BinOp::kDiv,
                            Expr::Var("$agg" + std::to_string(k), e->pos),
                            Expr::Var("$agg" + std::to_string(k + 1), e->pos),
                            e->pos);
      }
      default:
        return Status::PlanError("unsupported aggregation monoid");
    }
  }
  if (e->children.empty()) return e;
  auto copy = std::make_shared<Expr>(*e);
  for (auto& c : copy->children) {
    SAC_ASSIGN_OR_RETURN(c, ExtractAggsRec(c, aggs));
  }
  return ExprPtr(copy);
}

Result<AggDecomposition> ExtractAggs(const ExprPtr& head_val_inlined) {
  AggDecomposition d;
  SAC_ASSIGN_OR_RETURN(d.finalize,
                       ExtractAggsRec(head_val_inlined, &d.aggs));
  if (d.aggs.empty()) {
    return Status::PlanError("group-by head has no aggregation");
  }
  for (const AggInfo& a : d.aggs) {
    // The per-element terms must themselves be aggregate-free.
    bool nested = false;
    std::function<void(const ExprPtr&)> scan = [&](const ExprPtr& e) {
      if (e->kind == Expr::Kind::kReduce) nested = true;
      for (const auto& c : e->children) scan(c);
    };
    scan(a.g);
    if (nested) return Status::PlanError("nested aggregations");
  }
  return d;
}

/// Combine function for (key, (tile0, ..., tilem)) rows: pairwise tile
/// monoid application per aggregation.
runtime::CombineFn TupleTileCombine(std::vector<ReduceOp> ops) {
  return [ops](const Value& a, const Value& b) {
    ValueVec out;
    out.reserve(ops.size());
    for (size_t k = 0; k < ops.size(); ++k) {
      Value acc = a.At(k);
      TileMonoidAccum(ops[k], acc.MutableTile(), b.At(k).AsTile());
      out.push_back(std::move(acc));
    }
    return runtime::VTuple(std::move(out));
  };
}

/// Per-cell finalize over the aggregation tiles.
Result<la::Tile> FinalizeTiles(const ScalarFn& f, const ValueVec& agg_tiles) {
  const la::Tile& first = agg_tiles[0].AsTile();
  la::Tile out(first.rows(), first.cols());
  const size_t m = agg_tiles.size();
  std::vector<const double*> ptrs(m);
  for (size_t k = 0; k < m; ++k) {
    const la::Tile& t = agg_tiles[k].AsTile();
    if (t.rows() != first.rows() || t.cols() != first.cols()) {
      return Status::RuntimeError("aggregation tile shape mismatch");
    }
    ptrs[k] = t.data();
  }
  std::vector<double> args(m);
  for (int64_t i = 0; i < out.size(); ++i) {
    for (size_t k = 0; k < m; ++k) args[k] = ptrs[k][i];
    out.data()[i] = f(args.data());
  }
  return out;
}

bool FinalizeIsIdentity(const AggDecomposition& d) {
  return d.aggs.size() == 1 && d.finalize->kind == Expr::Kind::kVar &&
         d.finalize->str_val == "$agg0";
}

/// Returns `t` itself, or its transpose written into the caller-owned
/// `scratch` when `transpose`: a tile is copied only when it must turn.
const la::Tile& Oriented(const la::Tile& t, bool transpose,
                         la::Tile* scratch) {
  if (!transpose) return t;
  la::Transpose(t, scratch);
  return *scratch;
}

// ---- the shared matmul-shaped analysis (5.3 two-generator / 5.4) ----------

bool IsMulOfVars(const ExprPtr& e, const std::string& a,
                 const std::string& b) {
  return e->kind == Expr::Kind::kBinary && e->bin_op == comp::BinOp::kMul &&
         e->children[0]->kind == Expr::Kind::kVar &&
         e->children[1]->kind == Expr::Kind::kVar &&
         e->children[0]->str_val == a && e->children[1]->str_val == b;
}

struct JoinShape {
  // Roles: gen A supplies output rows, gen B output columns (or B is a
  // vector for matrix-vector products).
  size_t gen_a = 0, gen_b = 1;
  size_t a_out_pos = 0;   // position of the output-row index inside A
  size_t a_join_pos = 1;  // position of the join index inside A
  size_t b_out_pos = 1;   // inside B (unused when B is a vector)
  size_t b_join_pos = 0;
  bool b_is_vector = false;
  AggDecomposition aggs;
  // Compiled per-element terms over (a_val, b_val).
  std::vector<ScalarFn> g_fns;
  ScalarFn finalize;       // over the aggregate slots
  bool finalize_identity = false;
  bool gemm_fast_path = false;  // single sum of a*b
};

Result<JoinShape> AnalyzeJoinShape(const QueryShape& shape,
                                   const Bindings& binds,
                                   const std::vector<std::string>& key_vars,
                                   const char* rule) {
  if (shape.gens.size() != 2) {
    return NotApplicable(rule, "needs exactly two generators");
  }
  if (!shape.guards.empty()) {
    return NotApplicable(rule, "extra guards present");
  }
  if (shape.index_eqs.size() != 1) {
    return NotApplicable(rule, "needs exactly one join equality");
  }
  JoinShape js;
  // Locate the join variable pair.
  const auto& [ea, eb] = shape.index_eqs[0];
  auto find_in = [&](size_t gen, const std::string& v) -> std::optional<size_t> {
    for (size_t p = 0; p < shape.gens[gen].idx.size(); ++p) {
      if (shape.gens[gen].idx[p] == v) return p;
    }
    return std::nullopt;
  };
  std::optional<size_t> a0 = find_in(0, ea), b1 = find_in(1, eb);
  std::optional<size_t> a1 = find_in(0, eb), b0 = find_in(1, ea);
  size_t join_pos_0, join_pos_1;
  if (a0 && b1) {
    join_pos_0 = *a0;
    join_pos_1 = *b1;
  } else if (a1 && b0) {
    join_pos_0 = *a1;
    join_pos_1 = *b0;
  } else {
    return NotApplicable(rule, "equality does not join the two generators");
  }

  // Output key variables pick the non-join indices.
  if (key_vars.size() == 2) {
    auto ka0 = find_in(0, key_vars[0]);
    auto kb1 = find_in(1, key_vars[1]);
    auto ka1 = find_in(0, key_vars[1]);
    auto kb0 = find_in(1, key_vars[0]);
    if (ka0 && kb1) {
      js.gen_a = 0;
      js.gen_b = 1;
      js.a_out_pos = *ka0;
      js.b_out_pos = *kb1;
      js.a_join_pos = join_pos_0;
      js.b_join_pos = join_pos_1;
    } else if (ka1 && kb0) {
      // Key order is (B index, A index): swap roles.
      js.gen_a = 1;
      js.gen_b = 0;
      js.a_out_pos = *kb0;
      js.b_out_pos = *ka1;
      js.a_join_pos = join_pos_1;
      js.b_join_pos = join_pos_0;
    } else {
      return NotApplicable(rule, "key does not split across the generators");
    }
    if (shape.gens[js.gen_a].idx.size() != 2 ||
        shape.gens[js.gen_b].idx.size() != 2) {
      return NotApplicable(rule, "matrix output needs two matrix inputs");
    }
  } else if (key_vars.size() == 1) {
    // Matrix-vector product: the vector generator has only the join index.
    size_t vec_gen;
    if (shape.gens[0].idx.size() == 1) {
      vec_gen = 0;
    } else if (shape.gens[1].idx.size() == 1) {
      vec_gen = 1;
    } else {
      return NotApplicable(rule, "vector output needs one vector input");
    }
    const size_t mat_gen = 1 - vec_gen;
    auto kpos = find_in(mat_gen, key_vars[0]);
    if (!kpos) return NotApplicable(rule, "key not a matrix index");
    js.gen_a = mat_gen;
    js.gen_b = vec_gen;
    js.a_out_pos = *kpos;
    js.a_join_pos = mat_gen == 0 ? join_pos_0 : join_pos_1;
    js.b_join_pos = 0;
    js.b_is_vector = true;
    if (js.a_out_pos == js.a_join_pos) {
      return NotApplicable(rule, "degenerate matrix-vector indices");
    }
  } else {
    return NotApplicable(rule, "unsupported key arity");
  }

  // Aggregations over the two element values.
  SAC_ASSIGN_OR_RETURN(js.aggs,
                       ExtractAggs(shape.InlineLets(shape.head_val)));
  ConstEnv consts;
  CollectScalarConsts(binds, &consts);
  const std::string& va = shape.gens[js.gen_a].val;
  const std::string& vb = shape.gens[js.gen_b].val;
  if (va.empty() || vb.empty()) {
    return NotApplicable(rule, "wildcard element values");
  }
  for (const AggInfo& a : js.aggs.aggs) {
    SAC_ASSIGN_OR_RETURN(ScalarFn g,
                         exec::CompileScalarFn(a.g, {va, vb}, consts));
    js.g_fns.push_back(std::move(g));
  }
  std::vector<std::string> agg_args;
  for (size_t k = 0; k < js.aggs.aggs.size(); ++k) {
    agg_args.push_back("$agg" + std::to_string(k));
  }
  SAC_ASSIGN_OR_RETURN(js.finalize, exec::CompileScalarFn(js.aggs.finalize,
                                                          agg_args, consts));
  js.finalize_identity = FinalizeIsIdentity(js.aggs);
  js.gemm_fast_path =
      js.aggs.aggs.size() == 1 && js.aggs.aggs[0].op == ReduceOp::kSum &&
      (IsMulOfVars(js.aggs.aggs[0].g, va, vb) ||
       IsMulOfVars(js.aggs.aggs[0].g, vb, va));
  return js;
}

/// Accumulates the product-shaped partial for one tile pair into `accs`
/// (one accumulator tile per aggregation). `a` is oriented (out x join),
/// `b` oriented (join x out) -- or (1 x join) when B is a vector. The
/// sum-of-products fast path dispatches through the kernel backend `kb`
/// and meters its flops; the closure-driven semiring loops charge a
/// 2-flop/MAC approximation (one g eval + one monoid step).
void AccumulatePair(const JoinShape& js, const la::Tile& a, const la::Tile& b,
                    bool b_is_vector, const la::KernelBackend* kb,
                    std::vector<la::Tile>* accs) {
  if (b_is_vector) {
    // out(0, i) ⊕= g(a(i,k), b(0,k))
    for (size_t m = 0; m < js.g_fns.size(); ++m) {
      la::Tile& am = (*accs)[m];
      const ReduceOp op = js.aggs.aggs[m].op;
      for (int64_t i = 0; i < a.rows(); ++i) {
        double cell = am.At(0, i);
        for (int64_t k = 0; k < a.cols(); ++k) {
          const double args[2] = {a.At(i, k), b.At(0, k)};
          MonoidAccum(op, &cell, js.g_fns[m](args));
        }
        am.Set(0, i, cell);
      }
    }
    la::MeterFlops(kb->kind(),
                   js.g_fns.size() * 2 * static_cast<uint64_t>(a.size()));
    return;
  }
  if (js.gemm_fast_path) {
    kb->GemmAccum(a, b, &(*accs)[0]);
    la::MeterFlops(kb->kind(), la::GemmFlops(a, b));
    return;
  }
  // Generic semiring triple loop (supports e.g. min-plus).
  for (size_t m = 0; m < js.g_fns.size(); ++m) {
    la::Tile& am = (*accs)[m];
    const ReduceOp op = js.aggs.aggs[m].op;
    for (int64_t i = 0; i < a.rows(); ++i) {
      for (int64_t j = 0; j < b.cols(); ++j) {
        double cell = am.At(i, j);
        for (int64_t k = 0; k < a.cols(); ++k) {
          const double args[2] = {a.At(i, k), b.At(k, j)};
          MonoidAccum(op, &cell, js.g_fns[m](args));
        }
        am.Set(i, j, cell);
      }
    }
  }
  la::MeterFlops(kb->kind(),
                 js.g_fns.size() * 2 * static_cast<uint64_t>(a.rows()) *
                     static_cast<uint64_t>(b.cols()) *
                     static_cast<uint64_t>(a.cols()));
}

}  // namespace

// ===========================================================================
// Section 5.3: group-by comprehensions via reduceByKey
// ===========================================================================

Result<CompiledQuery> TryReduceByKey(const QueryShape& shape,
                                     const Bindings& binds,
                                     const PlannerOptions& opts) {
  static const char* kRule = "reduce-by-key (5.3)";
  if (!shape.has_group_by) return NotApplicable(kRule, "no group-by");
  SAC_ASSIGN_OR_RETURN(std::vector<std::string> key_vars, [&]() {
    std::vector<std::string> out;
    const ExprPtr& k = shape.head_key;
    if (k->kind == Expr::Kind::kVar) {
      out.push_back(k->str_val);
    } else if (k->kind == Expr::Kind::kTuple) {
      for (const auto& c : k->children) {
        if (c->kind != Expr::Kind::kVar) return Result<std::vector<std::string>>(
            NotApplicable(kRule, "non-variable head key"));
        out.push_back(c->str_val);
      }
    } else {
      return Result<std::vector<std::string>>(
          NotApplicable(kRule, "head key is not a variable tuple"));
    }
    return Result<std::vector<std::string>>(out);
  }());
  if (key_vars != shape.group_key_vars) {
    return NotApplicable(kRule, "head key differs from group-by key");
  }
  // Dims/block.
  auto dims_r = [&]() -> Result<std::pair<bool, std::pair<int64_t, int64_t>>> {
    if (shape.builder != "tiled") {
      return NotApplicable(kRule, "builder is not tiled");
    }
    if (shape.builder_args.size() == 1) {
      SAC_ASSIGN_OR_RETURN(int64_t n,
                           EvalScalarInt(shape.builder_args[0], binds));
      return std::make_pair(true, std::make_pair(n, int64_t{1}));
    }
    if (shape.builder_args.size() == 2) {
      SAC_ASSIGN_OR_RETURN(int64_t n,
                           EvalScalarInt(shape.builder_args[0], binds));
      SAC_ASSIGN_OR_RETURN(int64_t m,
                           EvalScalarInt(shape.builder_args[1], binds));
      return std::make_pair(false, std::make_pair(n, m));
    }
    return NotApplicable(kRule, "bad builder arity");
  }();
  SAC_RETURN_NOT_OK(dims_r.status());
  const bool out_is_vector = dims_r.value().first;
  const int64_t out_rows = dims_r.value().second.first;
  const int64_t out_cols = dims_r.value().second.second;
  SAC_ASSIGN_OR_RETURN(int64_t block, [&]() -> Result<int64_t> {
    int64_t b = -1;
    for (const GenInfo& g : shape.gens) {
      auto it = binds.find(g.source);
      if (it == binds.end()) return NotApplicable(kRule, "unbound source");
      int64_t tb;
      if (it->second.kind == Binding::Kind::kTiled) {
        tb = it->second.tiled.block;
      } else if (it->second.kind == Binding::Kind::kBlockVector) {
        tb = it->second.vec.block;
      } else {
        return NotApplicable(kRule, "source is not a block array");
      }
      if (b != -1 && b != tb) return NotApplicable(kRule, "block mismatch");
      b = tb;
    }
    if (b <= 0) return NotApplicable(kRule, "no block inputs");
    return b;
  }());

  // ---- two-generator matmul-shaped case -----------------------------------
  if (shape.gens.size() == 2) {
    SAC_ASSIGN_OR_RETURN(JoinShape js,
                         AnalyzeJoinShape(shape, binds, key_vars, kRule));
    const Binding& ba = binds.at(shape.gens[js.gen_a].source);
    const Binding& bb = binds.at(shape.gens[js.gen_b].source);
    if (ba.kind != Binding::Kind::kTiled) {
      return NotApplicable(kRule, "left input is not tiled");
    }
    if (js.b_is_vector ? bb.kind != Binding::Kind::kBlockVector
                       : bb.kind != Binding::Kind::kTiled) {
      return NotApplicable(kRule, "right input kind mismatch");
    }
    std::vector<ReduceOp> ops;
    for (const auto& a : js.aggs.aggs) ops.push_back(a.op);
    const InputRef in_a(shape.gens[js.gen_a].source, ba);
    const InputRef in_b(shape.gens[js.gen_b].source, bb);
    // The join is keyed by the shared-dimension block, the reduce by the
    // output tile (a block index for vector outputs).
    const int64_t join_blocks =
        js.a_join_pos == 0 ? ba.tiled.grid_rows() : ba.tiled.grid_cols();
    const int64_t out_tiles =
        storage::CeilDiv(out_rows, block) *
        (out_is_vector ? 1 : storage::CeilDiv(out_cols, block));
    const Partitioner join_grid = Partitioner::Grid({join_blocks});
    const Partitioner out_grid =
        out_is_vector ? Partitioner::Grid({storage::CeilDiv(out_rows, block)})
                      : Partitioner::Grid({storage::CeilDiv(out_rows, block),
                                           storage::CeilDiv(out_cols, block)});
    // One join partition per shared-dimension block and one reduce
    // partition per output tile, capped at the engine parallelism
    // (docs/COST_MODEL.md).
    const int par = opts.cluster.default_parallelism;
    const int join_np = GridShufflePartitions(join_blocks, par);
    const int reduce_np = GridShufflePartitions(out_tiles, par);

    CompiledQuery q;
    q.strategy = Strategy::kReduceByKey;
    q.explanation = "5.3 tile join on the shared index, per-pair partial "
                    "products, reduceByKey with a tile monoid";
    {
      PlanBuilder pb(shape.pos);
      PlanNodePtr sa = pb.Source(shape.gens[js.gen_a].source, 2,
                                 shape.gens[js.gen_a].pos);
      PlanNodePtr ka = pb.Narrow(PlanNode::Op::kMap, "keyByJoinDim", sa, 1);
      PlanNodePtr sb =
          pb.Source(shape.gens[js.gen_b].source, js.b_is_vector ? 1 : 2,
                    shape.gens[js.gen_b].pos);
      PlanNodePtr kb2 = js.b_is_vector
                            ? sb
                            : pb.Narrow(PlanNode::Op::kMap, "keyByJoinDim",
                                        sb, 1);
      PlanNodePtr joined =
          pb.Shuffle(PlanNode::Op::kJoin, "joinTiles", {ka, kb2}, 1, join_np,
                     join_grid);
      const int out_key = js.b_is_vector ? 1 : 2;
      PlanNodePtr partials =
          pb.Narrow(PlanNode::Op::kMap, "partialProducts", joined, out_key);
      PlanNodePtr reduced =
          pb.Shuffle(PlanNode::Op::kReduceByKey, "reduceTiles", {partials},
                     out_key, reduce_np, out_grid);
      q.plan = pb.Narrow(PlanNode::Op::kMap, "finalize", reduced, out_key,
                         /*preserves_partitioning=*/true);
      q.plan_nodes = pb.TakeNodes();
    }
    q.run = [=](Engine* eng, const Bindings& binds) -> Result<QueryResult> {
      const la::KernelBackend* kbk = eng->kernel_backend();
      SAC_ASSIGN_OR_RETURN(Dataset a_tiles, in_a.Data(binds));
      SAC_ASSIGN_OR_RETURN(Dataset kb, in_b.Data(binds));
      // Key A tiles by join coordinate.
      SAC_ASSIGN_OR_RETURN(
          Dataset ka,
          eng->Map(
              a_tiles,
              [js](const Value& row) {
                const ValueVec& c = row.At(0).AsTuple();
                return VPair(c[js.a_join_pos],
                             VPair(c[js.a_out_pos], row.At(1)));
              },
              "keyByJoinDim"));
      if (!js.b_is_vector) {
        SAC_ASSIGN_OR_RETURN(
            kb, eng->Map(
                    kb,
                    [js](const Value& row) {
                      const ValueVec& c = row.At(0).AsTuple();
                      return VPair(c[js.b_join_pos],
                                   VPair(c[js.b_out_pos], row.At(1)));
                    },
                    "keyByJoinDim"));
      }
      SAC_ASSIGN_OR_RETURN(Dataset joined,
                           eng->Join(ka, kb, join_np, join_grid));
      // Per joined pair: partial aggregate tiles keyed by output coord.
      const bool a_swap = (js.a_out_pos == 1);  // stored (k, i): transpose
      const bool b_swap = !js.b_is_vector && (js.b_join_pos == 1);
      SAC_ASSIGN_OR_RETURN(
          Dataset partials,
          eng->Map(
              joined,
              [=](const Value& row) -> Value {
                const Value& av = row.At(1).At(0);
                const Value& bv = row.At(1).At(1);
                la::Tile a_turned, b_turned;
                const la::Tile& a =
                    Oriented(av.At(1).AsTile(), a_swap, &a_turned);
                Value out_key;
                ValueVec accs_v;
                if (js.b_is_vector) {
                  const la::Tile& b = bv.AsTile();
                  out_key = av.At(0);
                  std::vector<la::Tile> accs;
                  for (ReduceOp op : ops) {
                    accs.push_back(
                        FilledTile(1, a.rows(), MonoidIdentity(op)));
                  }
                  AccumulatePair(js, a, b, true, kbk, &accs);
                  for (auto& t : accs) {
                    accs_v.push_back(Value::TileVal(std::move(t)));
                  }
                } else {
                  const la::Tile& b =
                      Oriented(bv.At(1).AsTile(), b_swap, &b_turned);
                  out_key = runtime::VTuple({av.At(0), bv.At(0)});
                  std::vector<la::Tile> accs;
                  for (ReduceOp op : ops) {
                    accs.push_back(
                        FilledTile(a.rows(), b.cols(), MonoidIdentity(op)));
                  }
                  AccumulatePair(js, a, b, false, kbk, &accs);
                  for (auto& t : accs) {
                    accs_v.push_back(Value::TileVal(std::move(t)));
                  }
                }
                return VPair(out_key, runtime::VTuple(std::move(accs_v)));
              },
              "partialProducts"));
      SAC_ASSIGN_OR_RETURN(Dataset reduced,
                           eng->ReduceByKey(partials, TupleTileCombine(ops),
                                            reduce_np, out_grid));
      // Finalize.
      const ScalarFn fin = js.finalize;
      const bool identity = js.finalize_identity;
      SAC_ASSIGN_OR_RETURN(
          Dataset out,
          eng->Map(
              reduced,
              [fin, identity](const Value& row) -> Value {
                if (identity) return VPair(row.At(0), row.At(1).At(0));
                auto t = FinalizeTiles(fin, row.At(1).AsTuple());
                return VPair(row.At(0),
                             Value::TileVal(std::move(t).value()));
              },
              "finalize"));
      QueryResult r;
      if (out_is_vector) {
        r.kind = QueryResult::Kind::kBlockVector;
        r.vec = storage::BlockVector{out_rows, block, out};
      } else {
        r.kind = QueryResult::Kind::kTiled;
        r.tiled = TiledMatrix{out_rows, out_cols, block, out};
      }
      return r;
    };
    return q;
  }

  // ---- single-generator case (axis reductions etc.) ------------------------
  if (shape.gens.size() == 1) {
    const GenInfo& gen = shape.gens[0];
    const Binding& bsrc = binds.at(gen.source);
    if (bsrc.kind != Binding::Kind::kTiled) {
      return NotApplicable(kRule, "single-generator case needs a matrix");
    }
    if (!shape.index_eqs.empty()) {
      return NotApplicable(kRule, "index equalities unsupported here");
    }
    // Key var positions within the generator.
    std::vector<size_t> key_pos;
    for (const auto& kv : key_vars) {
      bool found = false;
      for (size_t p = 0; p < gen.idx.size(); ++p) {
        if (gen.idx[p] == kv) {
          key_pos.push_back(p);
          found = true;
        }
      }
      if (!found) return NotApplicable(kRule, "key is not an input index");
    }
    SAC_ASSIGN_OR_RETURN(AggDecomposition aggs,
                         ExtractAggs(shape.InlineLets(shape.head_val)));
    ConstEnv consts;
    CollectScalarConsts(binds, &consts);
    // Per-element terms over (i, j, v) as doubles.
    std::vector<std::string> dargs = gen.idx;
    if (gen.val.empty()) return NotApplicable(kRule, "wildcard value");
    dargs.push_back(gen.val);
    std::vector<ScalarFn> g_fns;
    for (const AggInfo& a : aggs.aggs) {
      SAC_ASSIGN_OR_RETURN(ScalarFn g,
                           exec::CompileScalarFn(a.g, dargs, consts));
      g_fns.push_back(std::move(g));
    }
    std::vector<exec::PredFn> preds;
    for (const auto& g : shape.guards) {
      SAC_ASSIGN_OR_RETURN(
          exec::PredFn p,
          exec::CompileIntPred(shape.InlineLets(g), gen.idx, consts));
      preds.push_back(std::move(p));
    }
    std::vector<std::string> agg_args;
    for (size_t k = 0; k < aggs.aggs.size(); ++k) {
      agg_args.push_back("$agg" + std::to_string(k));
    }
    SAC_ASSIGN_OR_RETURN(ScalarFn fin, exec::CompileScalarFn(aggs.finalize,
                                                             agg_args,
                                                             consts));
    const bool identity = FinalizeIsIdentity(aggs);
    std::vector<ReduceOp> ops;
    for (const auto& a : aggs.aggs) ops.push_back(a.op);
    // Fast path: full-row / full-column sums with g == v.
    const bool g_is_val = aggs.aggs.size() == 1 &&
                          aggs.aggs[0].op == ReduceOp::kSum &&
                          aggs.aggs[0].g->kind == Expr::Kind::kVar &&
                          aggs.aggs[0].g->str_val == gen.val &&
                          preds.empty();
    const bool row_sums = g_is_val && out_is_vector && key_pos[0] == 0;
    const bool col_sums = g_is_val && out_is_vector && key_pos[0] == 1;

    const InputRef in_a(gen.source, bsrc);
    const bool vec_out = out_is_vector;
    const std::vector<size_t> kpos = key_pos;
    const int64_t orows = out_rows, ocols = out_cols, N = block;
    const Partitioner out_grid =
        vec_out ? Partitioner::Grid({storage::CeilDiv(orows, N)})
                : Partitioner::Grid(
                      {storage::CeilDiv(orows, N), storage::CeilDiv(ocols, N)});

    const int64_t out_tiles = storage::CeilDiv(orows, N) *
                              (vec_out ? 1 : storage::CeilDiv(ocols, N));
    const int reduce_np =
        GridShufflePartitions(out_tiles, opts.cluster.default_parallelism);

    CompiledQuery q;
    q.strategy = Strategy::kReduceByKey;
    q.explanation = row_sums || col_sums
                        ? "5.3 per-tile axis reduction + reduceByKey"
                        : "5.3 per-tile partial aggregation + reduceByKey";
    {
      PlanBuilder pb(shape.pos);
      PlanNodePtr src_n = pb.Source(gen.source, 2, gen.pos);
      const int out_key = vec_out ? 1 : 2;
      PlanNodePtr partials = pb.Narrow(PlanNode::Op::kFlatMap,
                                       "partialAggregates", src_n, out_key);
      PlanNodePtr reduced =
          pb.Shuffle(PlanNode::Op::kReduceByKey, "reduceTiles", {partials},
                     out_key, reduce_np, out_grid);
      q.plan = pb.Narrow(PlanNode::Op::kMap, "finalize", reduced, out_key,
                         /*preserves_partitioning=*/true);
      q.plan_nodes = pb.TakeNodes();
    }
    q.run = [=](Engine* eng, const Bindings& binds) -> Result<QueryResult> {
      const la::KernelBackend* kbk = eng->kernel_backend();
      SAC_ASSIGN_OR_RETURN(Dataset tiles, in_a.Data(binds));
      SAC_ASSIGN_OR_RETURN(
          Dataset partials,
          eng->FlatMap(
              tiles,
              [=](const Value& row, ValueVec* out) {
                const int64_t bi = row.At(0).At(0).AsInt();
                const int64_t bj = row.At(0).At(1).AsInt();
                const la::Tile& t = row.At(1).AsTile();
                if (row_sums || col_sums) {
                  const int64_t len = row_sums ? t.rows() : t.cols();
                  la::Tile part(1, len);
                  if (row_sums) {
                    kbk->RowSums(t, part.data());
                  } else {
                    kbk->ColSums(t, part.data());
                  }
                  la::MeterFlops(kbk->kind(),
                                 static_cast<uint64_t>(t.size()));
                  out->push_back(
                      VPair(VInt(row_sums ? bi : bj),
                            runtime::VTuple(
                                {Value::TileVal(std::move(part))})));
                  return;
                }
                // Generic: bucket per output block.
                struct Acc {
                  std::vector<la::Tile> tiles;
                };
                std::unordered_map<Value, Acc, runtime::ValueHash,
                                   runtime::ValueEq>
                    buckets;
                for (int64_t i = 0; i < t.rows(); ++i) {
                  for (int64_t j = 0; j < t.cols(); ++j) {
                    int64_t iargs[2] = {bi * N + i, bj * N + j};
                    bool pass = true;
                    for (const auto& p : preds) {
                      if (!p(iargs)) {
                        pass = false;
                        break;
                      }
                    }
                    if (!pass) continue;
                    double dargs_v[3] = {static_cast<double>(iargs[0]),
                                         static_cast<double>(iargs[1]),
                                         t.At(i, j)};
                    // Output coordinates from the key positions.
                    int64_t o0 = iargs[kpos[0]];
                    int64_t o1 = kpos.size() > 1 ? iargs[kpos[1]] : 0;
                    if (o0 < 0 || o0 >= orows || o1 < 0 || o1 >= ocols) {
                      continue;
                    }
                    Value bkey = vec_out
                                     ? VInt(o0 / N)
                                     : runtime::VIdx2(o0 / N, o1 / N);
                    auto [it, inserted] = buckets.try_emplace(bkey);
                    if (inserted) {
                      const int64_t br = vec_out
                                             ? 1
                                             : std::min(N, orows -
                                                               (o0 / N) * N);
                      const int64_t bc =
                          vec_out ? std::min(N, orows - (o0 / N) * N)
                                  : std::min(N, ocols - (o1 / N) * N);
                      for (ReduceOp op : ops) {
                        it->second.tiles.push_back(
                            FilledTile(br, bc, MonoidIdentity(op)));
                      }
                    }
                    for (size_t m = 0; m < g_fns.size(); ++m) {
                      la::Tile& acc = it->second.tiles[m];
                      double* cell =
                          vec_out ? &acc.data()[o0 % N]
                                  : &acc.data()[(o0 % N) * acc.cols() +
                                                (o1 % N)];
                      MonoidAccum(ops[m], cell, g_fns[m](dargs_v));
                    }
                  }
                }
                for (auto& [bkey, acc] : buckets) {
                  ValueVec tiles_v;
                  for (auto& tt : acc.tiles) {
                    tiles_v.push_back(Value::TileVal(std::move(tt)));
                  }
                  out->push_back(
                      VPair(bkey, runtime::VTuple(std::move(tiles_v))));
                }
              },
              "partialAggregates"));
      SAC_ASSIGN_OR_RETURN(Dataset reduced,
                           eng->ReduceByKey(partials, TupleTileCombine(ops),
                                            reduce_np, out_grid));
      SAC_ASSIGN_OR_RETURN(
          Dataset out,
          eng->Map(
              reduced,
              [fin, identity](const Value& row) -> Value {
                if (identity) return VPair(row.At(0), row.At(1).At(0));
                auto t = FinalizeTiles(fin, row.At(1).AsTuple());
                return VPair(row.At(0),
                             Value::TileVal(std::move(t).value()));
              },
              "finalize"));
      QueryResult r;
      if (vec_out) {
        r.kind = QueryResult::Kind::kBlockVector;
        r.vec = storage::BlockVector{orows, N, out};
      } else {
        r.kind = QueryResult::Kind::kTiled;
        r.tiled = TiledMatrix{orows, ocols, N, out};
      }
      return r;
    };
    return q;
  }

  return NotApplicable(kRule, "unsupported generator count");
}

// ===========================================================================
// Section 5.4: the group-by-join (SUMMA)
// ===========================================================================

Result<CompiledQuery> TryGroupByJoin(const QueryShape& shape,
                                     const Bindings& binds,
                                     const PlannerOptions& opts) {
  static const char* kRule = "group-by-join (5.4)";
  if (!shape.has_group_by) return NotApplicable(kRule, "no group-by");
  if (shape.gens.size() != 2) {
    return NotApplicable(kRule, "needs exactly two generators");
  }
  if (shape.builder != "tiled" || shape.builder_args.size() != 2) {
    return NotApplicable(kRule, "needs a tiled matrix output");
  }
  std::vector<std::string> key_vars;
  if (shape.head_key->kind == Expr::Kind::kTuple &&
      shape.head_key->children.size() == 2 &&
      shape.head_key->children[0]->kind == Expr::Kind::kVar &&
      shape.head_key->children[1]->kind == Expr::Kind::kVar) {
    key_vars = {shape.head_key->children[0]->str_val,
                shape.head_key->children[1]->str_val};
  } else {
    return NotApplicable(kRule, "head key is not a variable pair");
  }
  if (key_vars != shape.group_key_vars) {
    return NotApplicable(kRule, "head key differs from group-by key");
  }
  SAC_ASSIGN_OR_RETURN(JoinShape js,
                       AnalyzeJoinShape(shape, binds, key_vars, kRule));
  if (js.b_is_vector) {
    return NotApplicable(kRule, "matrix-vector handled by 5.3");
  }
  const Binding& ba = binds.at(shape.gens[js.gen_a].source);
  const Binding& bb = binds.at(shape.gens[js.gen_b].source);
  if (ba.kind != Binding::Kind::kTiled || bb.kind != Binding::Kind::kTiled) {
    return NotApplicable(kRule, "inputs are not tiled matrices");
  }
  if (ba.tiled.block != bb.tiled.block) {
    return NotApplicable(kRule, "block size mismatch");
  }
  SAC_ASSIGN_OR_RETURN(int64_t out_rows,
                       EvalScalarInt(shape.builder_args[0], binds));
  SAC_ASSIGN_OR_RETURN(int64_t out_cols,
                       EvalScalarInt(shape.builder_args[1], binds));
  const int64_t block = ba.tiled.block;
  const int64_t out_gr = storage::CeilDiv(out_rows, block);
  const int64_t out_gc = storage::CeilDiv(out_cols, block);
  // Panels are keyed by output tile: place them by grid coordinates.
  const Partitioner out_grid = Partitioner::Grid({out_gr, out_gc});

  std::vector<ReduceOp> ops;
  for (const auto& a : js.aggs.aggs) ops.push_back(a.op);
  const InputRef in_a(shape.gens[js.gen_a].source, ba);
  const InputRef in_b(shape.gens[js.gen_b].source, bb);
  const int cogroup_np =
      GridShufflePartitions(out_gr * out_gc, opts.cluster.default_parallelism);

  CompiledQuery q;
  q.strategy = Strategy::kGroupByJoin;
  q.explanation =
      "5.4 group-by-join: replicate row/column tile panels and cogroup "
      "(SUMMA); " +
      std::to_string(out_gc) + "x replication of " +
      shape.gens[js.gen_a].source + ", " + std::to_string(out_gr) + "x of " +
      shape.gens[js.gen_b].source;
  {
    PlanBuilder pb(shape.pos);
    PlanNodePtr sa = pb.Source(shape.gens[js.gen_a].source, 2,
                               shape.gens[js.gen_a].pos);
    PlanNodePtr sb = pb.Source(shape.gens[js.gen_b].source, 2,
                               shape.gens[js.gen_b].pos);
    PlanNodePtr ra = pb.Narrow(PlanNode::Op::kFlatMap, "replicateA", sa, 2);
    PlanNodePtr rb = pb.Narrow(PlanNode::Op::kFlatMap, "replicateB", sb, 2);
    PlanNodePtr cg =
        pb.Shuffle(PlanNode::Op::kCoGroup, "cogroupPanels", {ra, rb}, 2,
                   cogroup_np, out_grid);
    q.plan = pb.Narrow(PlanNode::Op::kFlatMap, "summaMultiply", cg, 2,
                       /*preserves_partitioning=*/true);
    q.plan_nodes = pb.TakeNodes();
  }
  q.run = [=](Engine* eng, const Bindings& binds) -> Result<QueryResult> {
    const la::KernelBackend* kbk = eng->kernel_backend();
    const bool a_swap = (js.a_out_pos == 1);
    const bool b_swap = (js.b_join_pos == 1);
    SAC_ASSIGN_OR_RETURN(Dataset a_tiles, in_a.Data(binds));
    SAC_ASSIGN_OR_RETURN(Dataset b_tiles, in_b.Data(binds));
    // As: every A tile goes to every output column panel.
    SAC_ASSIGN_OR_RETURN(
        Dataset as,
        eng->FlatMap(
            a_tiles,
            [=](const Value& row, ValueVec* out) {
              const ValueVec& c = row.At(0).AsTuple();
              const Value i = c[js.a_out_pos];
              const Value k = c[js.a_join_pos];
              for (int64_t q2 = 0; q2 < out_gc; ++q2) {
                out->push_back(VPair(runtime::VTuple({i, VInt(q2)}),
                                     VPair(k, row.At(1))));
              }
            },
            "replicateA"));
    SAC_ASSIGN_OR_RETURN(
        Dataset bs,
        eng->FlatMap(
            b_tiles,
            [=](const Value& row, ValueVec* out) {
              const ValueVec& c = row.At(0).AsTuple();
              const Value j = c[js.b_out_pos];
              const Value k = c[js.b_join_pos];
              for (int64_t q2 = 0; q2 < out_gr; ++q2) {
                out->push_back(VPair(runtime::VTuple({VInt(q2), j}),
                                     VPair(k, row.At(1))));
              }
            },
            "replicateB"));
    SAC_ASSIGN_OR_RETURN(Dataset cg,
                         eng->CoGroup(as, bs, cogroup_np, out_grid));
    const ScalarFn fin = js.finalize;
    const bool identity = js.finalize_identity;
    SAC_ASSIGN_OR_RETURN(
        Dataset out,
        eng->FlatMap(
            cg,
            [=](const Value& row, ValueVec* outv) {
              const ValueVec& a_list = row.At(1).At(0).AsList();
              const ValueVec& b_list = row.At(1).At(1).AsList();
              if (a_list.empty() || b_list.empty()) return;
              // Index B panel tiles by join coordinate.
              std::unordered_map<int64_t, std::vector<const Value*>> b_by_k;
              for (const Value& bv : b_list) {
                b_by_k[bv.At(0).AsInt()].push_back(&bv);
              }
              const int64_t K1 = row.At(0).At(0).AsInt();
              const int64_t K2 = row.At(0).At(1).AsInt();
              const int64_t r = std::min(block, out_rows - K1 * block);
              const int64_t ccols = std::min(block, out_cols - K2 * block);
              if (r <= 0 || ccols <= 0) return;
              std::vector<la::Tile> accs;
              for (ReduceOp op : ops) {
                accs.push_back(FilledTile(r, ccols, MonoidIdentity(op)));
              }
              // Sum over k ascending: a_list arrives in map-partition
              // order, so summing as it comes would make each cell's
              // rounding depend on the partition count.
              std::vector<const Value*> a_by_k;
              a_by_k.reserve(a_list.size());
              for (const Value& av : a_list) a_by_k.push_back(&av);
              std::stable_sort(a_by_k.begin(), a_by_k.end(),
                               [](const Value* x, const Value* y) {
                                 return x->At(0).AsInt() < y->At(0).AsInt();
                               });
              bool any = false;
              la::Tile a_turned, b_turned;
              for (const Value* av : a_by_k) {
                auto it = b_by_k.find(av->At(0).AsInt());
                if (it == b_by_k.end()) continue;
                const la::Tile& a =
                    Oriented(av->At(1).AsTile(), a_swap, &a_turned);
                for (const Value* bv : it->second) {
                  const la::Tile& b =
                      Oriented(bv->At(1).AsTile(), b_swap, &b_turned);
                  AccumulatePair(js, a, b, false, kbk, &accs);
                  any = true;
                }
              }
              if (!any) return;
              Value out_tile;
              if (identity) {
                out_tile = Value::TileVal(std::move(accs[0]));
              } else {
                ValueVec tiles_v;
                for (auto& t : accs) {
                  tiles_v.push_back(Value::TileVal(std::move(t)));
                }
                auto t = FinalizeTiles(fin, tiles_v);
                if (!t.ok()) return;
                out_tile = Value::TileVal(std::move(t).value());
              }
              outv->push_back(VPair(row.At(0), std::move(out_tile)));
            },
            "summaMultiply"));
    QueryResult res;
    res.kind = QueryResult::Kind::kTiled;
    res.tiled = TiledMatrix{out_rows, out_cols, block, out};
    return res;
  };
  return q;
}

}  // namespace sac::planner
