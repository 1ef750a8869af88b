// General translation strategies:
//   Section 5.2 -- queries that do not preserve tiling: replication sets
//                  I_f(K) + groupByKey over shuffled tiles
//   Section 4   -- coordinate-format (element-level) translation, also the
//                  DIABLO-style baseline used by the COO ablation
//   local fallback -- collect + reference evaluation for small inputs
#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/comp/eval.h"
#include "src/exec/scalar_fn.h"
#include "src/la/kernels.h"
#include "src/planner/planner.h"

namespace sac::planner {

using comp::Expr;
using comp::ExprPtr;
using comp::ReduceOp;
using exec::ConstEnv;
using exec::IntFn;
using exec::PredFn;
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

}  // namespace

// ===========================================================================
// Section 5.2: queries that do not preserve tiling
// ===========================================================================

Result<CompiledQuery> TryReplication(const QueryShape& shape,
                                     const Bindings& binds,
                                     const PlannerOptions& opts) {
  static const char* kRule = "replication (5.2)";
  if (shape.has_group_by) return NotApplicable(kRule, "query has group-by");
  if (shape.gens.size() != 1) {
    return NotApplicable(kRule, "needs exactly one generator");
  }
  if (!shape.index_eqs.empty()) {
    return NotApplicable(kRule, "index equalities present");
  }
  const GenInfo& gen = shape.gens[0];
  if (gen.idx.size() != 2 || gen.val.empty()) {
    return NotApplicable(kRule, "needs a matrix generator");
  }
  auto it = binds.find(gen.source);
  if (it == binds.end() || it->second.kind != Binding::Kind::kTiled) {
    return NotApplicable(kRule, "source is not a tiled matrix");
  }
  if (shape.builder != "tiled" || shape.builder_args.size() != 2) {
    return NotApplicable(kRule, "needs a tiled matrix output");
  }
  if (shape.head_key->kind != Expr::Kind::kTuple ||
      shape.head_key->children.size() != 2) {
    return NotApplicable(kRule, "head key is not an index pair");
  }

  ConstEnv consts;
  CollectScalarConsts(binds, &consts);
  // Output index functions f1, f2 over the input indices (integer
  // arithmetic, so % and / behave like the paper's examples).
  SAC_ASSIGN_OR_RETURN(
      IntFn f1, exec::CompileIntFn(
                    shape.InlineLets(shape.head_key->children[0]), gen.idx,
                    consts));
  SAC_ASSIGN_OR_RETURN(
      IntFn f2, exec::CompileIntFn(
                    shape.InlineLets(shape.head_key->children[1]), gen.idx,
                    consts));
  std::vector<PredFn> preds;
  for (const auto& g : shape.guards) {
    SAC_ASSIGN_OR_RETURN(PredFn p, exec::CompileIntPred(shape.InlineLets(g),
                                                        gen.idx, consts));
    preds.push_back(std::move(p));
  }
  // Element value function over (i, j, v).
  std::vector<std::string> vargs = gen.idx;
  vargs.push_back(gen.val);
  SAC_ASSIGN_OR_RETURN(ScalarFn fv,
                       exec::CompileScalarFn(shape.InlineLets(shape.head_val),
                                             vargs, consts));

  SAC_ASSIGN_OR_RETURN(int64_t out_rows,
                       EvalScalarInt(shape.builder_args[0], binds));
  SAC_ASSIGN_OR_RETURN(int64_t out_cols,
                       EvalScalarInt(shape.builder_args[1], binds));
  const InputRef in_a(gen.source, it->second);
  const int64_t N = it->second.tiled.block;
  const Partitioner out_grid = Partitioner::Grid(
      {storage::CeilDiv(out_rows, N), storage::CeilDiv(out_cols, N)});

  CompiledQuery q;
  q.strategy = Strategy::kReplication;
  q.explanation =
      "5.2 replication: each tile is shuffled to the output tiles in its "
      "index image I_f(K), then grouped";
  {
    PlanBuilder pb(shape.pos);
    PlanNodePtr src_n = pb.Source(gen.source, 2, gen.pos);
    PlanNodePtr rep = pb.Narrow(PlanNode::Op::kFlatMap, "replicateToImage",
                                src_n, 2);
    PlanNodePtr grouped =
        pb.Shuffle(PlanNode::Op::kGroupByKey, "groupByDestTile", {rep}, 2,
                   -1, out_grid);
    // Assembly places each gathered element structurally -- not an
    // associative fold, so SAC-W01 must not suggest reduceByKey here.
    q.plan = pb.Narrow(PlanNode::Op::kMap, "assembleShiftedTiles", grouped, 2,
                       /*preserves_partitioning=*/true);
    q.plan_nodes = pb.TakeNodes();
  }
  q.run = [=](Engine* eng, const Bindings& binds) -> Result<QueryResult> {
    // Map side: compute each tile's destination set I_f(K) by evaluating
    // the index functions over the tile's elements (the paper's set
    // comprehension), then replicate the tile to those destinations.
    SAC_ASSIGN_OR_RETURN(Dataset tiles, in_a.Data(binds));
    SAC_ASSIGN_OR_RETURN(
        Dataset replicated,
        eng->FlatMap(
            tiles,
            [=](const Value& row, ValueVec* out) {
              const int64_t bi = row.At(0).At(0).AsInt();
              const int64_t bj = row.At(0).At(1).AsInt();
              const la::Tile& t = row.At(1).AsTile();
              std::unordered_set<Value, runtime::ValueHash,
                                 runtime::ValueEq>
                  dests;
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
                  const int64_t o1 = f1(iargs), o2 = f2(iargs);
                  if (o1 < 0 || o1 >= out_rows || o2 < 0 || o2 >= out_cols) {
                    continue;
                  }
                  dests.insert(runtime::VIdx2(o1 / N, o2 / N));
                }
              }
              for (const Value& d : dests) {
                out->push_back(VPair(d, VPair(row.At(0), row.At(1))));
              }
            },
            "replicateToImage"));
    SAC_ASSIGN_OR_RETURN(Dataset grouped,
                         eng->GroupByKey(replicated, -1, out_grid));
    // Reduce side: assemble each output tile from the gathered inputs.
    SAC_ASSIGN_OR_RETURN(
        Dataset out,
        eng->Map(
            grouped,
            [=](const Value& row) {
              const int64_t K1 = row.At(0).At(0).AsInt();
              const int64_t K2 = row.At(0).At(1).AsInt();
              la::Tile ot(std::min(N, out_rows - K1 * N),
                          std::min(N, out_cols - K2 * N));
              for (const Value& src : row.At(1).AsList()) {
                const int64_t bi = src.At(0).At(0).AsInt();
                const int64_t bj = src.At(0).At(1).AsInt();
                const la::Tile& t = src.At(1).AsTile();
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
                    const int64_t o1 = f1(iargs), o2 = f2(iargs);
                    if (o1 / N != K1 || o2 / N != K2) continue;
                    if (o1 < 0 || o1 >= out_rows || o2 < 0 ||
                        o2 >= out_cols) {
                      continue;
                    }
                    const double dv[3] = {static_cast<double>(iargs[0]),
                                          static_cast<double>(iargs[1]),
                                          t.At(i, j)};
                    ot.Set(o1 % N, o2 % N, fv(dv));
                  }
                }
              }
              return VPair(row.At(0), Value::TileVal(std::move(ot)));
            },
            "assembleShiftedTiles"));
    QueryResult r;
    r.kind = QueryResult::Kind::kTiled;
    r.tiled = TiledMatrix{out_rows, out_cols, N, out};
    return r;
  };
  return q;
}

// ===========================================================================
// Section 4: coordinate-format translation
// ===========================================================================

namespace {

/// Element-level view of a bound array: rows ((i,j),v) or (i,v).
Result<Dataset> Elements(Engine* eng, const Binding& b) {
  switch (b.kind) {
    case Binding::Kind::kTiled: {
      SAC_ASSIGN_OR_RETURN(storage::CooMatrix coo,
                           storage::ToCoo(eng, b.tiled));
      return coo.entries;
    }
    case Binding::Kind::kCoo:
      return b.coo.entries;
    case Binding::Kind::kBlockVector: {
      const int64_t block = b.vec.block;
      return eng->FlatMap(
          b.vec.blocks,
          [block](const Value& row, ValueVec* out) {
            const int64_t bi = row.At(0).AsInt();
            const la::Tile& t = row.At(1).AsTile();
            for (int64_t j = 0; j < t.cols(); ++j) {
              out->push_back(
                  VPair(VInt(bi * block + j), Value::Double(t.At(0, j))));
            }
          },
          "sparsifyVector");
    }
    default:
      return Status::PlanError("binding has no element view");
  }
}

double ScalarMonoidApply(ReduceOp op, double a, double b) {
  switch (op) {
    case ReduceOp::kProd:
      return a * b;
    case ReduceOp::kMin:
      return std::min(a, b);
    case ReduceOp::kMax:
      return std::max(a, b);
    default:
      return a + b;
  }
}

}  // namespace

Result<CompiledQuery> TryCoo(const QueryShape& shape, const Bindings& binds,
                             const PlannerOptions& opts) {
  static const char* kRule = "coordinate translation (4)";
  if (shape.gens.empty() || shape.gens.size() > 2) {
    return NotApplicable(kRule, "needs one or two generators");
  }
  if (shape.builder != "tiled" && shape.builder != "rdd") {
    return NotApplicable(kRule, "unsupported builder");
  }
  const bool out_is_rdd = shape.builder == "rdd";
  const bool out_is_vector =
      !out_is_rdd && shape.builder_args.size() == 1;
  int64_t out_rows = 0, out_cols = 1;
  if (!out_is_rdd) {
    SAC_ASSIGN_OR_RETURN(out_rows, EvalScalarInt(shape.builder_args[0],
                                                 binds));
    if (!out_is_vector) {
      SAC_ASSIGN_OR_RETURN(out_cols, EvalScalarInt(shape.builder_args[1],
                                                   binds));
    }
  }

  // Common block size for the output (defaults to 64 for pure-COO inputs).
  int64_t block = 64;
  for (const GenInfo& g : shape.gens) {
    auto it = binds.find(g.source);
    if (it == binds.end()) return NotApplicable(kRule, "unbound source");
    if (!it->second.is_distributed()) {
      return NotApplicable(kRule, "source is not distributed");
    }
    if (it->second.kind == Binding::Kind::kTiled) {
      block = it->second.tiled.block;
    } else if (it->second.kind == Binding::Kind::kBlockVector) {
      block = it->second.vec.block;
    }
  }

  ConstEnv consts;
  CollectScalarConsts(binds, &consts);

  // Element variables of all generators (indices then value, per gen).
  std::vector<std::string> all_vars;
  for (const GenInfo& g : shape.gens) {
    for (const auto& v : g.idx) all_vars.push_back(v);
    if (g.val.empty()) return NotApplicable(kRule, "wildcard value");
    all_vars.push_back(g.val);
  }

  // Key expressions (integers over all element vars -- the value vars are
  // not allowed in keys, which CompileIntFn enforces by failing).
  std::vector<ExprPtr> key_exprs;
  if (shape.head_key->kind == Expr::Kind::kTuple) {
    for (const auto& c : shape.head_key->children) {
      key_exprs.push_back(shape.InlineLets(c));
    }
  } else {
    key_exprs.push_back(shape.InlineLets(shape.head_key));
  }
  if (!out_is_rdd && key_exprs.size() != (out_is_vector ? 1u : 2u)) {
    return NotApplicable(kRule, "key arity mismatch");
  }
  std::vector<std::string> int_vars;
  for (const GenInfo& g : shape.gens) {
    for (const auto& v : g.idx) int_vars.push_back(v);
  }
  std::vector<IntFn> key_fns;
  for (const auto& ke : key_exprs) {
    SAC_ASSIGN_OR_RETURN(IntFn f,
                         exec::CompileIntFn(ke, int_vars, consts));
    key_fns.push_back(std::move(f));
  }
  std::vector<PredFn> preds;
  for (const auto& g : shape.guards) {
    SAC_ASSIGN_OR_RETURN(PredFn p, exec::CompileIntPred(shape.InlineLets(g),
                                                        int_vars, consts));
    preds.push_back(std::move(p));
  }

  // Aggregations (if grouped) or a plain value function.
  struct CooAgg {
    ReduceOp op;
    ScalarFn g;
  };
  std::vector<CooAgg> aggs;
  ScalarFn finalize_fn;
  bool finalize_identity = true;
  ScalarFn value_fn;
  if (shape.has_group_by) {
    // The head key must equal the group-by key vars.
    std::vector<std::string> key_vars;
    for (const auto& ke : key_exprs) {
      if (ke->kind != Expr::Kind::kVar) {
        return NotApplicable(kRule, "grouped key must be variables");
      }
      key_vars.push_back(ke->str_val);
    }
    if (key_vars != shape.group_key_vars) {
      return NotApplicable(kRule, "head key differs from group key");
    }
    // Decompose aggregates (same analysis as 5.3, at scalar level).
    ExprPtr hv = shape.InlineLets(shape.head_val);
    std::function<Result<ExprPtr>(const ExprPtr&)> extract =
        [&](const ExprPtr& e) -> Result<ExprPtr> {
      if (e->kind == Expr::Kind::kReduce) {
        ReduceOp op = e->reduce_op;
        ExprPtr operand = e->children[0];
        if (op == ReduceOp::kCount) {
          op = ReduceOp::kSum;
          operand = Expr::Int(1, e->pos);
        }
        if (op != ReduceOp::kSum && op != ReduceOp::kProd &&
            op != ReduceOp::kMin && op != ReduceOp::kMax) {
          return Status::PlanError("unsupported monoid in COO plan");
        }
        SAC_ASSIGN_OR_RETURN(ScalarFn g, exec::CompileScalarFn(
                                             operand, all_vars, consts));
        const size_t k = aggs.size();
        aggs.push_back(CooAgg{op, std::move(g)});
        return Expr::Var("$agg" + std::to_string(k), e->pos);
      }
      if (e->children.empty()) return e;
      auto copy = std::make_shared<Expr>(*e);
      for (auto& c : copy->children) {
        SAC_ASSIGN_OR_RETURN(c, extract(c));
      }
      return ExprPtr(copy);
    };
    SAC_ASSIGN_OR_RETURN(ExprPtr fin_expr, extract(hv));
    if (aggs.empty()) return NotApplicable(kRule, "group-by without aggregate");
    std::vector<std::string> agg_args;
    for (size_t k = 0; k < aggs.size(); ++k) {
      agg_args.push_back("$agg" + std::to_string(k));
    }
    SAC_ASSIGN_OR_RETURN(finalize_fn, exec::CompileScalarFn(fin_expr,
                                                            agg_args,
                                                            consts));
    finalize_identity = aggs.size() == 1 &&
                        fin_expr->kind == Expr::Kind::kVar &&
                        fin_expr->str_val == "$agg0";
  } else {
    SAC_ASSIGN_OR_RETURN(value_fn, exec::CompileScalarFn(
                                       shape.InlineLets(shape.head_val),
                                       all_vars, consts));
  }

  // Join analysis for two generators: every cross-generator equality
  // becomes one component of a composite join key (rule 14 generalized).
  std::vector<std::pair<size_t, size_t>> join_pos;  // (pos in A, pos in B)
  if (shape.gens.size() == 2) {
    auto pos_in = [&](size_t g, const std::string& v) -> int {
      for (size_t p = 0; p < shape.gens[g].idx.size(); ++p) {
        if (shape.gens[g].idx[p] == v) return static_cast<int>(p);
      }
      return -1;
    };
    for (const auto& [ea, eb] : shape.index_eqs) {
      int a0 = pos_in(0, ea), b1 = pos_in(1, eb);
      int a1 = pos_in(0, eb), b0 = pos_in(1, ea);
      if (a0 >= 0 && b1 >= 0) {
        join_pos.emplace_back(a0, b1);
      } else if (a1 >= 0 && b0 >= 0) {
        join_pos.emplace_back(a1, b0);
      } else {
        return NotApplicable(kRule, "equality does not join the generators");
      }
    }
    if (join_pos.empty()) {
      return NotApplicable(kRule, "no join equality between the generators");
    }
  } else if (!shape.index_eqs.empty()) {
    // Single-generator equalities become guards.
    for (const auto& [a, b] : shape.index_eqs) {
      SAC_ASSIGN_OR_RETURN(
          PredFn p,
          exec::CompileIntPred(
              Expr::Binary(comp::BinOp::kEq, Expr::Var(a), Expr::Var(b),
                           shape.pos),
              int_vars, consts));
      preds.push_back(std::move(p));
    }
  }

  // Block / tile placement of the re-tiling shuffle (TiledFromCoo places
  // by the same grid).
  const Partitioner block_grid =
      out_is_vector ? Partitioner::Grid({storage::CeilDiv(out_rows, block)})
                    : Partitioner::Grid({storage::CeilDiv(out_rows, block),
                                         storage::CeilDiv(out_cols, block)});

  const QueryShape sh = shape;  // captured copies
  std::vector<InputRef> ins;
  for (const GenInfo& g : shape.gens) {
    ins.emplace_back(g.source, binds.at(g.source));
  }
  const std::vector<CooAgg> aggs_c = aggs;
  const std::vector<IntFn> key_fns_c = key_fns;
  const std::vector<PredFn> preds_c = preds;
  const std::vector<std::pair<size_t, size_t>> jpos = join_pos;
  const ScalarFn value_fn_c = value_fn;
  const ScalarFn finalize_c = finalize_fn;
  const bool fin_id = finalize_identity;

  CompiledQuery q;
  q.strategy = Strategy::kCoo;
  q.explanation =
      "Section 4 coordinate format: element-level " +
      std::string(shape.gens.size() == 2 ? "join" : "map") +
      (shape.has_group_by ? " + reduceByKey" : "") + ", then re-tile";
  {
    PlanBuilder pb(shape.pos);
    auto elem = [&](size_t g) {
      return pb.Source(shape.gens[g].source,
                       shape.gens[g].idx.size() == 1 ? 1 : 2,
                       shape.gens[g].pos);
    };
    PlanNodePtr env_rows;
    if (shape.gens.size() == 1) {
      env_rows = pb.Narrow(PlanNode::Op::kMap, "elementEnv", elem(0), 0);
    } else {
      PlanNodePtr ka = pb.Narrow(PlanNode::Op::kMap, "keyByJoinIndex",
                                 elem(0), 1);
      PlanNodePtr kb = pb.Narrow(PlanNode::Op::kMap, "keyByJoinIndex",
                                 elem(1), 1);
      PlanNodePtr joined =
          pb.Shuffle(PlanNode::Op::kJoin, "joinElements", {ka, kb}, 1);
      env_rows = pb.Narrow(PlanNode::Op::kMap, "joinedEnv", joined, 0);
    }
    const int out_key = static_cast<int>(key_exprs.size());
    PlanNodePtr result = pb.Narrow(PlanNode::Op::kFlatMap, "computeElements",
                                   env_rows, out_key);
    if (shape.has_group_by) {
      PlanNodePtr reduced = pb.Shuffle(PlanNode::Op::kReduceByKey,
                                       "reduceElements", {result}, out_key);
      result = pb.Narrow(PlanNode::Op::kMap, "finalizeElements", reduced,
                         out_key, /*preserves_partitioning=*/true);
    }
    if (out_is_rdd) {
      q.plan = pb.Collect({result});
    } else if (out_is_vector) {
      PlanNodePtr kblk = pb.Narrow(PlanNode::Op::kMap, "keyByBlock",
                                   result, 1);
      PlanNodePtr gp =
          pb.Shuffle(PlanNode::Op::kGroupByKey, "groupByBlock", {kblk}, 1,
                     -1, block_grid);
      q.plan = pb.Narrow(PlanNode::Op::kMap, "buildBlocks", gp, 1,
                         /*preserves_partitioning=*/true);
    } else {
      PlanNodePtr kt = pb.Narrow(PlanNode::Op::kMap, "keyByTile", result, 2);
      PlanNodePtr gp =
          pb.Shuffle(PlanNode::Op::kGroupByKey, "groupByTile", {kt}, 2, -1,
                     block_grid);
      q.plan = pb.Narrow(PlanNode::Op::kMap, "buildTiles", gp, 2,
                         /*preserves_partitioning=*/true);
    }
    q.plan_nodes = pb.TakeNodes();
  }
  q.run = [=](Engine* eng, const Bindings& binds) -> Result<QueryResult> {
    // Build the element-record dataset with rows mapping to a flat tuple
    // (idx..., val, idx..., val) environment.
    auto flatten1 = [](const Value& row, size_t nidx, ValueVec* env) {
      if (nidx == 1) {
        env->push_back(row.At(0));
      } else {
        env->push_back(row.At(0).At(0));
        env->push_back(row.At(0).At(1));
      }
      env->push_back(row.At(1));
    };
    Dataset env_rows;
    const size_t nidx0 = sh.gens[0].idx.size();
    SAC_ASSIGN_OR_RETURN(const Binding* b0, ins[0].Resolve(binds));
    SAC_ASSIGN_OR_RETURN(Dataset e0, Elements(eng, *b0));
    if (sh.gens.size() == 1) {
      SAC_ASSIGN_OR_RETURN(
          env_rows,
          eng->Map(
              e0,
              [flatten1, nidx0](const Value& row) {
                ValueVec env;
                flatten1(row, nidx0, &env);
                return runtime::VTuple(std::move(env));
              },
              "elementEnv"));
    } else {
      const size_t nidx1 = sh.gens[1].idx.size();
      SAC_ASSIGN_OR_RETURN(const Binding* b1, ins[1].Resolve(binds));
      SAC_ASSIGN_OR_RETURN(Dataset e1, Elements(eng, *b1));
      // Rule (14): key both sides by the (composite) join index, then join.
      auto key_by = [&](Dataset d, size_t nidx, bool left) -> Result<Dataset> {
        std::vector<size_t> positions;
        for (const auto& [pa, pb] : jpos) {
          positions.push_back(left ? pa : pb);
        }
        return eng->Map(
            d,
            [nidx, positions](const Value& row) {
              ValueVec key;
              for (size_t p : positions) {
                key.push_back(nidx == 1 ? row.At(0)
                                        : row.At(0).AsTuple()[p]);
              }
              Value k = key.size() == 1 ? key[0]
                                        : runtime::VTuple(std::move(key));
              return VPair(std::move(k), row);
            },
            "keyByJoinIndex");
      };
      SAC_ASSIGN_OR_RETURN(Dataset ka, key_by(e0, nidx0, true));
      SAC_ASSIGN_OR_RETURN(Dataset kb, key_by(e1, nidx1, false));
      SAC_ASSIGN_OR_RETURN(Dataset joined, eng->Join(ka, kb));
      SAC_ASSIGN_OR_RETURN(
          env_rows,
          eng->Map(
              joined,
              [flatten1, nidx0, nidx1](const Value& row) {
                ValueVec env;
                flatten1(row.At(1).At(0), nidx0, &env);
                flatten1(row.At(1).At(1), nidx1, &env);
                return runtime::VTuple(std::move(env));
              },
              "joinedEnv"));
    }

    // Map each environment row to (outkey, value-or-partials).
    const size_t num_int = int_vars.size();
    const bool grouped = sh.has_group_by;
    SAC_ASSIGN_OR_RETURN(
        Dataset keyed,
        eng->FlatMap(
            env_rows,
            [=](const Value& row, ValueVec* out) {
              const ValueVec& env = row.AsTuple();
              // Integer args: indices per generator order; double args:
              // everything.
              int64_t iargs[4];
              double dargs[6];
              size_t ii = 0;
              for (size_t g = 0, e = 0; g < sh.gens.size(); ++g) {
                for (size_t p = 0; p < sh.gens[g].idx.size(); ++p, ++e) {
                  iargs[ii++] = env[e + g].AsInt();
                }
              }
              for (size_t e = 0; e < env.size(); ++e) {
                dargs[e] = env[e].AsDouble();
              }
              (void)num_int;
              for (const auto& p : preds_c) {
                if (!p(iargs)) return;
              }
              ValueVec key;
              for (const auto& f : key_fns_c) {
                key.push_back(VInt(f(iargs)));
              }
              Value key_v = key.size() == 1 ? key[0]
                                            : runtime::VTuple(std::move(key));
              if (grouped) {
                ValueVec partials;
                for (const auto& a : aggs_c) {
                  partials.push_back(runtime::VDouble(a.g(dargs)));
                }
                out->push_back(
                    VPair(key_v, runtime::VTuple(std::move(partials))));
              } else {
                out->push_back(
                    VPair(key_v, runtime::VDouble(value_fn_c(dargs))));
              }
            },
            "computeElements"));

    Dataset result_elems = keyed;
    if (grouped) {
      SAC_ASSIGN_OR_RETURN(
          Dataset reduced,
          eng->ReduceByKey(keyed, [aggs_c](const Value& a, const Value& b) {
            ValueVec out;
            for (size_t k = 0; k < aggs_c.size(); ++k) {
              out.push_back(runtime::VDouble(
                  ScalarMonoidApply(aggs_c[k].op, a.At(k).AsDouble(),
                                    b.At(k).AsDouble())));
            }
            return runtime::VTuple(std::move(out));
          }));
      SAC_ASSIGN_OR_RETURN(
          result_elems,
          eng->Map(
              reduced,
              [finalize_c, fin_id](const Value& row) {
                if (fin_id) return VPair(row.At(0), row.At(1).At(0));
                std::vector<double> args;
                for (const Value& v : row.At(1).AsTuple()) {
                  args.push_back(v.AsDouble());
                }
                return VPair(row.At(0),
                             runtime::VDouble(finalize_c(args.data())));
              },
              "finalizeElements"));
    }

    QueryResult r;
    if (out_is_rdd) {
      SAC_ASSIGN_OR_RETURN(ValueVec rows, eng->Collect(result_elems));
      r.kind = QueryResult::Kind::kValue;
      r.value = Value::List(std::move(rows));
      return r;
    }
    if (out_is_vector) {
      // Assemble blocks: (i, v) -> (i/N, offsets) via groupByKey.
      const int64_t N = block, size = out_rows;
      SAC_ASSIGN_OR_RETURN(
          Dataset keyed_blocks,
          eng->Map(
              result_elems,
              [N](const Value& row) {
                const int64_t i = row.At(0).AsInt();
                return VPair(VInt(i / N),
                             VPair(VInt(i % N), row.At(1)));
              },
              "keyByBlock"));
      SAC_ASSIGN_OR_RETURN(Dataset grouped_b,
                           eng->GroupByKey(keyed_blocks, -1, block_grid));
      SAC_ASSIGN_OR_RETURN(
          Dataset blocks,
          eng->Map(
              grouped_b,
              [N, size](const Value& row) {
                const int64_t bi = row.At(0).AsInt();
                la::Tile t(1, std::min(N, size - bi * N));
                for (const Value& kv : row.At(1).AsList()) {
                  const int64_t off = kv.At(0).AsInt();
                  if (off >= 0 && off < t.cols()) {
                    t.Set(0, off, kv.At(1).AsDouble());
                  }
                }
                return VPair(row.At(0), Value::TileVal(std::move(t)));
              },
              "buildBlocks"));
      r.kind = QueryResult::Kind::kBlockVector;
      r.vec = storage::BlockVector{out_rows, block, blocks};
      return r;
    }
    storage::CooMatrix coo{out_rows, out_cols, result_elems};
    SAC_ASSIGN_OR_RETURN(TiledMatrix m,
                         storage::TiledFromCoo(eng, coo, block));
    r.kind = QueryResult::Kind::kTiled;
    r.tiled = std::move(m);
    return r;
  };
  return q;
}

// ===========================================================================
// Local fallback
// ===========================================================================

Result<CompiledQuery> LocalFallbackPlan(const comp::ExprPtr& query,
                                        const Bindings& binds) {
  // The query's free variables are all the plan reads: the distributed
  // ones are collected at run time, so the cell guard bounds exactly what
  // gets collected.
  const std::vector<std::string> free_vars = comp::FreeVars(query);
  std::vector<InputRef> ins;
  int64_t cells = 0;
  int64_t block = 64;  // the result's block size: its last block input's
  for (const std::string& v : free_vars) {
    auto it = binds.find(v);
    if (it == binds.end() || !it->second.is_distributed()) continue;
    const Binding& b = it->second;
    switch (b.kind) {
      case Binding::Kind::kTiled:
        cells += b.tiled.rows * b.tiled.cols;
        block = b.tiled.block;
        break;
      case Binding::Kind::kBlockVector:
        cells += b.vec.size;
        block = b.vec.block;
        break;
      case Binding::Kind::kCoo:
        cells += b.coo.rows * b.coo.cols;
        break;
      default:
        break;
    }
    ins.emplace_back(v, b);
  }
  if (cells > kLocalFallbackMaxCells) {
    return Status::PlanError(
        "local fallback refused: inputs have " + std::to_string(cells) +
        " cells (limit " + std::to_string(kLocalFallbackMaxCells) + ")");
  }

  CompiledQuery q;
  q.strategy = Strategy::kLocalFallback;
  q.explanation = "collected distributed inputs and ran the reference "
                  "evaluator (inputs small enough)";
  if (!ins.empty()) {
    PlanBuilder pb(query->pos);
    std::vector<PlanNodePtr> srcs;
    for (const InputRef& in : ins) {
      const int key =
          binds.at(in.name).kind == Binding::Kind::kBlockVector ? 1 : 2;
      srcs.push_back(pb.Source(in.name, key, query->pos));
    }
    q.plan = pb.Collect(std::move(srcs));
    q.plan_nodes = pb.TakeNodes();
  }
  q.run = [query, free_vars, ins, block](
              Engine* eng, const Bindings& binds) -> Result<QueryResult> {
    comp::Evaluator ev;
    for (const std::string& v : free_vars) {
      auto it = binds.find(v);
      if (it != binds.end() && !it->second.is_distributed()) {
        ev.Bind(v, it->second.value);
      }
    }
    for (const InputRef& in : ins) {
      SAC_ASSIGN_OR_RETURN(const Binding* b, in.Resolve(binds));
      ValueVec rows;
      switch (b->kind) {
        case Binding::Kind::kTiled: {
          SAC_ASSIGN_OR_RETURN(rows, storage::SparsifyLocal(eng, b->tiled));
          break;
        }
        case Binding::Kind::kBlockVector: {
          SAC_ASSIGN_OR_RETURN(std::vector<double> vec,
                               storage::ToLocalVector(eng, b->vec));
          for (size_t i = 0; i < vec.size(); ++i) {
            rows.push_back(VPair(VInt(static_cast<int64_t>(i)),
                                 runtime::VDouble(vec[i])));
          }
          break;
        }
        case Binding::Kind::kCoo: {
          SAC_ASSIGN_OR_RETURN(rows, eng->Collect(b->coo.entries));
          break;
        }
        default:
          break;
      }
      ev.Bind(in.name, Value::List(std::move(rows)));
    }
    SAC_ASSIGN_OR_RETURN(Value v, ev.Eval(query));
    QueryResult r;
    // Re-distribute tiled results so callers see the declared storage.
    if (query->kind == Expr::Kind::kBuild && query->str_val == "tiled") {
      if (v.is_tile()) {
        SAC_ASSIGN_OR_RETURN(TiledMatrix m,
                             storage::FromLocal(eng, v.AsTile(), block));
        r.kind = QueryResult::Kind::kTiled;
        r.tiled = std::move(m);
        return r;
      }
      if (v.is_list()) {
        std::vector<double> dense(v.AsList().size());
        for (size_t i = 0; i < dense.size(); ++i) {
          dense[i] = v.AsList()[i].At(1).AsDouble();
        }
        SAC_ASSIGN_OR_RETURN(storage::BlockVector bv,
                             storage::VectorFromLocal(eng, dense, block));
        r.kind = QueryResult::Kind::kBlockVector;
        r.vec = std::move(bv);
        return r;
      }
    }
    r.kind = QueryResult::Kind::kValue;
    r.value = std::move(v);
    return r;
  };
  return q;
}

}  // namespace sac::planner
