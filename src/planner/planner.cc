#include "src/planner/planner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

#include "src/analysis/cost.h"
#include "src/common/logging.h"
#include "src/comp/eval.h"
#include "src/exec/scalar_fn.h"
#include "src/la/backend.h"
#include "src/la/fused.h"
#include "src/la/kernels.h"
#include "src/planner/fusion.h"

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

std::string FmtMs(const double ms) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << ms;
  return os.str();
}

}  // namespace

bool AutoStrategyEnabled(const PlannerOptions& opts) {
  const char* env = std::getenv("SAC_AUTO_STRATEGY");
  if (env != nullptr && std::strcmp(env, "off") == 0) return false;
  return opts.auto_strategy;
}

int GridShufflePartitions(int64_t cells, int parallelism) {
  return static_cast<int>(
      std::clamp<int64_t>(cells, 1, parallelism > 0 ? parallelism : 8));
}

Result<int64_t> EvalScalarInt(const ExprPtr& e, const Bindings& binds) {
  comp::Evaluator ev;
  for (const auto& [name, b] : binds) {
    if (b.kind == Binding::Kind::kScalar) ev.Bind(name, b.value);
  }
  SAC_ASSIGN_OR_RETURN(Value v, ev.Eval(e));
  if (!v.is_numeric()) {
    return Status::PlanError("expected integer scalar, got " + v.ToString());
  }
  return v.AsInt();
}

void CollectScalarConsts(const Bindings& binds, ConstEnv* out) {
  for (const auto& [name, b] : binds) {
    if (b.kind == Binding::Kind::kScalar && b.value.is_numeric()) {
      (*out)[name] = b.value.AsDouble();
    }
  }
}

namespace {

Result<const Binding*> GetBinding(const Bindings& binds,
                                  const std::string& name, comp::Pos pos) {
  auto it = binds.find(name);
  if (it == binds.end()) {
    return Status::PlanError("unbound array '" + name + "' at " +
                             pos.ToString());
  }
  return &it->second;
}

/// Output dimensions from `tiled(...)` builder arguments.
struct OutDims {
  bool is_vector = false;
  int64_t rows = 0;
  int64_t cols = 0;  // 1 for vectors
};

Result<OutDims> EvalOutDims(const QueryShape& shape, const Bindings& binds) {
  if (shape.builder != "tiled") {
    return NotApplicable("block translation",
                         "builder is '" + shape.builder + "', not 'tiled'");
  }
  OutDims d;
  if (shape.builder_args.size() == 1) {
    d.is_vector = true;
    SAC_ASSIGN_OR_RETURN(d.rows, EvalScalarInt(shape.builder_args[0], binds));
    d.cols = 1;
  } else if (shape.builder_args.size() == 2) {
    SAC_ASSIGN_OR_RETURN(d.rows, EvalScalarInt(shape.builder_args[0], binds));
    SAC_ASSIGN_OR_RETURN(d.cols, EvalScalarInt(shape.builder_args[1], binds));
  } else {
    return NotApplicable("block translation", "tiled() needs 1 or 2 dims");
  }
  if (d.rows <= 0 || d.cols <= 0) {
    return Status::PlanError("non-positive output dimensions");
  }
  return d;
}

/// Common block size across the distributed inputs of a shape.
Result<int64_t> CommonBlockSize(const QueryShape& shape,
                                const Bindings& binds) {
  int64_t block = -1;
  for (const GenInfo& g : shape.gens) {
    SAC_ASSIGN_OR_RETURN(const Binding* b,
                         GetBinding(binds, g.source, g.pos));
    int64_t this_block;
    if (b->kind == Binding::Kind::kTiled) {
      this_block = b->tiled.block;
    } else if (b->kind == Binding::Kind::kBlockVector) {
      this_block = b->vec.block;
    } else {
      return NotApplicable("block translation",
                           "'" + g.source + "' is not a block array");
    }
    if (block == -1) {
      block = this_block;
    } else if (block != this_block) {
      return Status::PlanError("mismatched block sizes across inputs");
    }
  }
  if (block <= 0) return NotApplicable("block translation", "no inputs");
  return block;
}

/// The head-key variables, in order; fails if the key is not a tuple of
/// plain variables.
Result<std::vector<std::string>> HeadKeyVars(const QueryShape& shape) {
  std::vector<std::string> out;
  const ExprPtr& k = shape.head_key;
  if (k->kind == Expr::Kind::kVar) {
    out.push_back(k->str_val);
    return out;
  }
  if (k->kind == Expr::Kind::kTuple) {
    for (const auto& c : k->children) {
      if (c->kind != Expr::Kind::kVar) {
        return NotApplicable("key analysis", "non-variable key component");
      }
      out.push_back(c->str_val);
    }
    return out;
  }
  return NotApplicable("key analysis", "head key is not a variable tuple");
}

/// Finds the position of output variable `v` within generator `g`'s index
/// list, directly or through one index-equality hop.
std::optional<size_t> VarPosInGen(const QueryShape& shape, const GenInfo& g,
                                  const std::string& v) {
  for (size_t p = 0; p < g.idx.size(); ++p) {
    if (g.idx[p] == v) return p;
  }
  for (const auto& [a, b] : shape.index_eqs) {
    const std::string* other = nullptr;
    if (a == v) other = &b;
    if (b == v) other = &a;
    if (!other) continue;
    for (size_t p = 0; p < g.idx.size(); ++p) {
      if (g.idx[p] == *other) return p;
    }
  }
  return std::nullopt;
}

/// One output or temporary tile allocated by an elementwise stage,
/// charged to the running task's stage.
void CountTileAlloc() { MeterSink::Current().Add(Counter::kTileAllocs, 1); }

/// The jvmlike backend models MLlib, which materializes every
/// intermediate: it never takes the fused single-pass pipelines.
bool Fusable(const la::KernelBackend* kb) {
  return kb->kind() != la::BackendKind::kJvmlike;
}

la::ZipOp ToZipOp(const ZipPattern& pat) {
  switch (pat.kind) {
    case ZipPattern::Kind::kAdd: return la::ZipOp::kAdd;
    case ZipPattern::Kind::kSub: return la::ZipOp::kSub;
    case ZipPattern::Kind::kMul: return la::ZipOp::kMul;
    default: return la::ZipOp::kAxpby;
  }
}

/// Dispatches a matched zip pattern through the backend's kernels.
void RunZipPattern(const la::KernelBackend* kb, const ZipPattern& pat,
                   const la::Tile& a, const la::Tile& b, la::Tile* out) {
  switch (pat.kind) {
    case ZipPattern::Kind::kAdd: kb->Add(a, b, out); return;
    case ZipPattern::Kind::kSub: kb->Sub(a, b, out); return;
    case ZipPattern::Kind::kMul: kb->Mul(a, b, out); return;
    case ZipPattern::Kind::kAxpby:
      kb->Axpby(pat.alpha, a, pat.beta, b, out);
      return;
    case ZipPattern::Kind::kGeneric: break;
  }
}

}  // namespace

// ===========================================================================
// Section 5.1: queries that preserve tiling
// ===========================================================================

Result<CompiledQuery> TryTilingPreserving(const QueryShape& shape,
                                          const Bindings& binds,
                                          const PlannerOptions& opts) {
  static const char* kRule = "tiling-preserving (5.1)";
  if (shape.has_group_by) {
    return NotApplicable(kRule, "query has a group-by");
  }
  if (!shape.guards.empty()) {
    return NotApplicable(kRule, "query has non-equality guards");
  }
  SAC_ASSIGN_OR_RETURN(OutDims dims, EvalOutDims(shape, binds));
  SAC_ASSIGN_OR_RETURN(int64_t block, CommonBlockSize(shape, binds));
  SAC_ASSIGN_OR_RETURN(std::vector<std::string> key_vars, HeadKeyVars(shape));
  if (dims.is_vector != (key_vars.size() == 1)) {
    return NotApplicable(kRule, "key arity does not match output dims");
  }

  const ExprPtr hv = shape.InlineLets(shape.head_val);
  ConstEnv consts;
  CollectScalarConsts(binds, &consts);

  // ---- two matrix generators: aligned elementwise zip --------------------
  if (shape.gens.size() == 2 && !dims.is_vector &&
      shape.gens[0].idx.size() == 2 && shape.gens[1].idx.size() == 2) {
    SAC_ASSIGN_OR_RETURN(const Binding* ba,
                         GetBinding(binds, shape.gens[0].source,
                                    shape.gens[0].pos));
    SAC_ASSIGN_OR_RETURN(const Binding* bb,
                         GetBinding(binds, shape.gens[1].source,
                                    shape.gens[1].pos));
    if (ba->kind != Binding::Kind::kTiled ||
        bb->kind != Binding::Kind::kTiled) {
      return NotApplicable(kRule, "generators are not both tiled matrices");
    }
    // Per generator: position of each output key component.
    std::array<std::array<size_t, 2>, 2> gmap{};
    for (size_t g = 0; g < 2; ++g) {
      for (size_t o = 0; o < 2; ++o) {
        auto p = VarPosInGen(shape, shape.gens[g], key_vars[o]);
        if (!p) {
          return NotApplicable(kRule, "output index '" + key_vars[o] +
                                          "' unreachable from generator " +
                                          shape.gens[g].source);
        }
        gmap[g][o] = *p;
      }
      if (gmap[g][0] == gmap[g][1]) {
        return NotApplicable(kRule, "degenerate index mapping");
      }
    }
    std::vector<std::string> val_args = {shape.gens[0].val,
                                         shape.gens[1].val};
    if (val_args[0].empty() || val_args[1].empty()) {
      return NotApplicable(kRule, "generator value is unused wildcard");
    }
    SAC_ASSIGN_OR_RETURN(ScalarFn f,
                         exec::CompileScalarFn(hv, val_args, consts));
    // Pattern dispatch (docs/KERNELS.md): a+b / a-b / a*b / alpha*a+beta*b
    // heads run through dedicated kernels; only unmatched heads evaluate
    // the compiled scalar program per element.
    const ZipPattern pat =
        MatchZipPattern(hv, val_args[0], val_args[1], consts);

    const InputRef in_a(shape.gens[0].source, *ba);
    const InputRef in_b(shape.gens[1].source, *bb);
    const auto ma = gmap[0], mb = gmap[1];
    const bool fuse = opts.fuse_elementwise;
    // Both sides are keyed by output tile coordinates.
    const int64_t out_gr = storage::CeilDiv(dims.rows, block);
    const int64_t out_gc = storage::CeilDiv(dims.cols, block);
    const Partitioner out_grid = Partitioner::Grid({out_gr, out_gc});
    const int join_np = GridShufflePartitions(
        out_gr * out_gc, opts.cluster.default_parallelism);

    CompiledQuery q;
    q.strategy = Strategy::kTilingPreserving;
    q.explanation =
        "5.1 tile join of " + shape.gens[0].source + " and " +
        shape.gens[1].source + " (no group-by shuffle)";
    {
      PlanBuilder pb(shape.pos);
      PlanNodePtr sa = pb.Source(shape.gens[0].source, 2, shape.gens[0].pos);
      PlanNodePtr sb = pb.Source(shape.gens[1].source, 2, shape.gens[1].pos);
      PlanNodePtr ka =
          pb.Narrow(PlanNode::Op::kMap, "keyTiles", sa, 2);
      PlanNodePtr kb =
          pb.Narrow(PlanNode::Op::kMap, "keyTiles", sb, 2);
      PlanNodePtr joined =
          pb.Shuffle(PlanNode::Op::kJoin, "join", {ka, kb}, 2, join_np,
                     out_grid);
      q.plan = pb.Narrow(PlanNode::Op::kMap, "zipTiles", joined, 2,
                         /*preserves_partitioning=*/true);
      q.plan_nodes = pb.TakeNodes();
    }
    q.run = [=](Engine* eng, const Bindings& binds) -> Result<QueryResult> {
      auto key_by = [&](const InputRef& in,
                        const std::array<size_t, 2>& mp) -> Result<Dataset> {
        SAC_ASSIGN_OR_RETURN(Dataset tiles, in.Data(binds));
        return eng->Map(
            tiles,
            [mp](const Value& row) {
              const ValueVec& c = row.At(0).AsTuple();
              return VPair(runtime::VTuple({c[mp[0]], c[mp[1]]}), row.At(1));
            },
            "keyTiles");
      };
      SAC_ASSIGN_OR_RETURN(Dataset ka, key_by(in_a, ma));
      SAC_ASSIGN_OR_RETURN(Dataset kb, key_by(in_b, mb));
      SAC_ASSIGN_OR_RETURN(Dataset joined,
                           eng->Join(ka, kb, join_np, out_grid));
      const bool ta_swap = (ma[0] == 1);
      const bool tb_swap = (mb[0] == 1);
      const la::KernelBackend* kbk = eng->kernel_backend();
      SAC_ASSIGN_OR_RETURN(
          Dataset out,
          eng->Map(
              joined,
              [=](const Value& row) {
                la::Tile a = row.At(1).At(0).AsTile();
                la::Tile b = row.At(1).At(1).AsTile();
                la::Tile v;
                const bool patterned =
                    pat.kind != ZipPattern::Kind::kGeneric;
                auto zip_fn = [&f](double x, double y) {
                  const double args[2] = {x, y};
                  return f(args);
                };
                if (fuse && Fusable(kbk) && (ta_swap || tb_swap)) {
                  // Fused pipeline: the transposed reads fold into the
                  // zip pass -- no transposed temporaries.
                  if (patterned) {
                    la::FusedZip(ToZipOp(pat), pat.alpha, pat.beta, a,
                                 ta_swap, b, tb_swap, &v);
                  } else {
                    la::FusedZipFn(zip_fn, a, ta_swap, b, tb_swap, &v);
                  }
                  CountTileAlloc();
                } else {
                  if (ta_swap) {
                    la::Tile t;
                    kbk->Transpose(a, &t);
                    a = std::move(t);
                    CountTileAlloc();
                  }
                  if (tb_swap) {
                    la::Tile t;
                    kbk->Transpose(b, &t);
                    b = std::move(t);
                    CountTileAlloc();
                  }
                  if (patterned) {
                    RunZipPattern(kbk, pat, a, b, &v);
                  } else {
                    la::ZipElements(a, b, zip_fn, &v);
                  }
                  CountTileAlloc();
                }
                la::MeterFlops(kbk->kind(),
                               static_cast<uint64_t>(v.size()) *
                                   pat.flops_per_element);
                return VPair(row.At(0), Value::TileVal(std::move(v)));
              },
              "zipTiles"));
      QueryResult r;
      r.kind = QueryResult::Kind::kTiled;
      r.tiled = TiledMatrix{dims.rows, dims.cols, block, out};
      return r;
    };
    return q;
  }

  // ---- one matrix generator -> matrix (map / transpose) -------------------
  if (shape.gens.size() == 1 && !dims.is_vector &&
      shape.gens[0].idx.size() == 2) {
    SAC_ASSIGN_OR_RETURN(const Binding* ba,
                         GetBinding(binds, shape.gens[0].source,
                                    shape.gens[0].pos));
    if (ba->kind != Binding::Kind::kTiled) {
      return NotApplicable(kRule, "generator is not a tiled matrix");
    }
    std::array<size_t, 2> m{};
    for (size_t o = 0; o < 2; ++o) {
      auto p = VarPosInGen(shape, shape.gens[0], key_vars[o]);
      if (!p) return NotApplicable(kRule, "output index not a tile index");
      m[o] = *p;
    }
    if (m[0] == m[1]) return NotApplicable(kRule, "degenerate mapping");
    const bool is_transpose = (m[0] == 1);
    if (shape.gens[0].val.empty()) {
      return NotApplicable(kRule, "wildcard element value");
    }
    const std::vector<std::string> val_args = {shape.gens[0].val};
    SAC_ASSIGN_OR_RETURN(ScalarFn f,
                         exec::CompileScalarFn(hv, val_args, consts));
    const MapPattern mpat = MatchMapPattern(hv, val_args[0], consts);
    const bool identity = mpat.kind == MapPattern::Kind::kIdentity;
    const bool fuse = opts.fuse_elementwise;
    const InputRef in_a(shape.gens[0].source, *ba);
    CompiledQuery q;
    q.strategy = Strategy::kTilingPreserving;
    q.explanation = std::string("5.1 per-tile ") +
                    (is_transpose ? "transpose" : "map") + " of " +
                    shape.gens[0].source;
    {
      PlanBuilder pb(shape.pos);
      PlanNodePtr src = pb.Source(shape.gens[0].source, 2, shape.gens[0].pos);
      q.plan = pb.Narrow(PlanNode::Op::kMap,
                         is_transpose ? "transposeTiles" : "mapTiles", src, 2,
                         /*preserves_partitioning=*/!is_transpose);
      q.plan_nodes = pb.TakeNodes();
    }
    q.run = [=](Engine* eng, const Bindings& binds) -> Result<QueryResult> {
      const la::KernelBackend* kbk = eng->kernel_backend();
      SAC_ASSIGN_OR_RETURN(Dataset tiles, in_a.Data(binds));
      SAC_ASSIGN_OR_RETURN(
          Dataset out,
          eng->Map(
              tiles,
              [=](const Value& row) {
                const ValueVec& c = row.At(0).AsTuple();
                Value key = is_transpose
                                ? runtime::VTuple({c[1], c[0]})
                                : row.At(0);
                if (identity && !is_transpose) return VPair(key, row.At(1));
                const la::Tile& t0 = row.At(1).AsTile();
                auto map_fn = [&f](double x) {
                  const double args[1] = {x};
                  return f(args);
                };
                la::Tile t;
                if (fuse && Fusable(kbk)) {
                  // Fused pipeline: transpose read + map in one pass (a
                  // pure transpose is already a single pass).
                  if (identity) {
                    kbk->Transpose(t0, &t);
                  } else if (mpat.kind == MapPattern::Kind::kScale) {
                    la::FusedScale(mpat.alpha, t0, is_transpose, &t);
                  } else {
                    la::FusedMapFn(map_fn, t0, is_transpose, &t);
                  }
                  CountTileAlloc();
                } else {
                  t = t0;
                  if (is_transpose) {
                    la::Tile tt;
                    kbk->Transpose(t, &tt);
                    t = std::move(tt);
                    CountTileAlloc();
                  }
                  if (!identity) {
                    la::Tile v;
                    if (mpat.kind == MapPattern::Kind::kScale) {
                      kbk->Scale(mpat.alpha, t, &v);
                    } else {
                      la::MapElements(t, map_fn, &v);
                    }
                    t = std::move(v);
                    CountTileAlloc();
                  }
                }
                la::MeterFlops(kbk->kind(),
                               static_cast<uint64_t>(t.size()) *
                                   mpat.flops_per_element);
                return VPair(key, Value::TileVal(std::move(t)));
              },
              is_transpose ? "transposeTiles" : "mapTiles"));
      QueryResult r;
      r.kind = QueryResult::Kind::kTiled;
      r.tiled = TiledMatrix{dims.rows, dims.cols, block, out};
      return r;
    };
    return q;
  }

  // ---- one matrix generator -> vector (diagonal) ---------------------------
  if (shape.gens.size() == 1 && dims.is_vector &&
      shape.gens[0].idx.size() == 2) {
    SAC_ASSIGN_OR_RETURN(const Binding* ba,
                         GetBinding(binds, shape.gens[0].source,
                                    shape.gens[0].pos));
    if (ba->kind != Binding::Kind::kTiled) {
      return NotApplicable(kRule, "generator is not a tiled matrix");
    }
    // Requires i == j between the generator's own indices.
    const std::string &i = shape.gens[0].idx[0], &j = shape.gens[0].idx[1];
    bool diag = false;
    for (const auto& [a, b] : shape.index_eqs) {
      if ((a == i && b == j) || (a == j && b == i)) diag = true;
    }
    if (!diag || (key_vars[0] != i && key_vars[0] != j)) {
      return NotApplicable(kRule, "not a diagonal extraction");
    }
    if (shape.gens[0].val.empty()) {
      return NotApplicable(kRule, "wildcard element value");
    }
    const std::vector<std::string> val_args = {shape.gens[0].val};
    SAC_ASSIGN_OR_RETURN(ScalarFn f,
                         exec::CompileScalarFn(hv, val_args, consts));
    const InputRef in_a(shape.gens[0].source, *ba);
    CompiledQuery q;
    q.strategy = Strategy::kTilingPreserving;
    q.explanation = "5.1 diagonal extraction from " + shape.gens[0].source;
    {
      PlanBuilder pb(shape.pos);
      PlanNodePtr src = pb.Source(shape.gens[0].source, 2, shape.gens[0].pos);
      PlanNodePtr flt = pb.Narrow(PlanNode::Op::kFilter, "filterDiagonal",
                                  src, 2, /*preserves_partitioning=*/true);
      q.plan = pb.Narrow(PlanNode::Op::kMap, "extractDiagonal", flt, 1);
      q.plan_nodes = pb.TakeNodes();
    }
    q.run = [=](Engine* eng, const Bindings& binds) -> Result<QueryResult> {
      SAC_ASSIGN_OR_RETURN(Dataset tiles, in_a.Data(binds));
      SAC_ASSIGN_OR_RETURN(
          Dataset diag_tiles,
          eng->Filter(
              tiles,
              [](const Value& row) {
                return row.At(0).At(0).AsInt() == row.At(0).At(1).AsInt();
              },
              "filterDiagonal"));
      SAC_ASSIGN_OR_RETURN(
          Dataset out,
          eng->Map(
              diag_tiles,
              [f](const Value& row) {
                const la::Tile& t = row.At(1).AsTile();
                const int64_t len = std::min(t.rows(), t.cols());
                la::Tile d(1, len);
                for (int64_t k = 0; k < len; ++k) {
                  const double args[1] = {t.At(k, k)};
                  d.Set(0, k, f(args));
                }
                return VPair(row.At(0).At(0), Value::TileVal(std::move(d)));
              },
              "extractDiagonal"));
      QueryResult r;
      r.kind = QueryResult::Kind::kBlockVector;
      r.vec = storage::BlockVector{dims.rows, block, out};
      return r;
    };
    return q;
  }

  // ---- vector generators -> vector ----------------------------------------
  if (dims.is_vector && !shape.gens.empty() && shape.gens[0].idx.size() == 1) {
    for (const GenInfo& g : shape.gens) {
      if (g.idx.size() != 1 || g.val.empty()) {
        return NotApplicable(kRule, "unsupported vector generator");
      }
      SAC_ASSIGN_OR_RETURN(const Binding* b, GetBinding(binds, g.source,
                                                        g.pos));
      if (b->kind != Binding::Kind::kBlockVector) {
        return NotApplicable(kRule, "generator is not a block vector");
      }
    }
    // Every generator's index must be the key var (directly or via eqs).
    for (const GenInfo& g : shape.gens) {
      if (!VarPosInGen(shape, g, key_vars[0]).has_value()) {
        return NotApplicable(kRule, "vector indices not aligned");
      }
    }
    std::vector<std::string> val_args;
    for (const GenInfo& g : shape.gens) val_args.push_back(g.val);
    SAC_ASSIGN_OR_RETURN(ScalarFn f,
                         exec::CompileScalarFn(hv, val_args, consts));
    if (shape.gens.size() == 1) {
      const InputRef in_v(shape.gens[0].source,
                          binds.at(shape.gens[0].source));
      const MapPattern mpat = MatchMapPattern(hv, val_args[0], consts);
      CompiledQuery q;
      q.strategy = Strategy::kTilingPreserving;
      q.explanation = "5.1 per-block map of " + shape.gens[0].source;
      {
        PlanBuilder pb(shape.pos);
        PlanNodePtr src =
            pb.Source(shape.gens[0].source, 1, shape.gens[0].pos);
        q.plan = pb.Narrow(PlanNode::Op::kMap, "mapBlocks", src, 1,
                           /*preserves_partitioning=*/true);
        q.plan_nodes = pb.TakeNodes();
      }
      q.run = [=](Engine* eng, const Bindings& binds) -> Result<QueryResult> {
        const la::KernelBackend* kbk = eng->kernel_backend();
        SAC_ASSIGN_OR_RETURN(Dataset blocks, in_v.Data(binds));
        SAC_ASSIGN_OR_RETURN(
            Dataset out,
            eng->Map(
                blocks,
                [=](const Value& row) {
                  la::Tile v;
                  if (mpat.kind == MapPattern::Kind::kScale) {
                    kbk->Scale(mpat.alpha, row.At(1).AsTile(), &v);
                  } else {
                    la::MapElements(
                        row.At(1).AsTile(),
                        [&f](double x) {
                          const double args[1] = {x};
                          return f(args);
                        },
                        &v);
                  }
                  CountTileAlloc();
                  la::MeterFlops(kbk->kind(),
                                 static_cast<uint64_t>(v.size()) *
                                     mpat.flops_per_element);
                  return VPair(row.At(0), Value::TileVal(std::move(v)));
                },
                "mapBlocks"));
        QueryResult r;
        r.kind = QueryResult::Kind::kBlockVector;
        r.vec = storage::BlockVector{dims.rows, block, out};
        return r;
      };
      return q;
    }
    if (shape.gens.size() == 2) {
      const InputRef in_a(shape.gens[0].source,
                          binds.at(shape.gens[0].source));
      const InputRef in_b(shape.gens[1].source,
                          binds.at(shape.gens[1].source));
      const int64_t out_blocks = storage::CeilDiv(dims.rows, block);
      const Partitioner out_grid = Partitioner::Grid({out_blocks});
      const int join_np =
          GridShufflePartitions(out_blocks, opts.cluster.default_parallelism);
      const ZipPattern pat =
          MatchZipPattern(hv, val_args[0], val_args[1], consts);
      CompiledQuery q;
      q.strategy = Strategy::kTilingPreserving;
      q.explanation = "5.1 block join of " + shape.gens[0].source + " and " +
                      shape.gens[1].source;
      {
        PlanBuilder pb(shape.pos);
        PlanNodePtr sa =
            pb.Source(shape.gens[0].source, 1, shape.gens[0].pos);
        PlanNodePtr sb =
            pb.Source(shape.gens[1].source, 1, shape.gens[1].pos);
        PlanNodePtr joined =
            pb.Shuffle(PlanNode::Op::kJoin, "join", {sa, sb}, 1, join_np,
                       out_grid);
        q.plan = pb.Narrow(PlanNode::Op::kMap, "zipBlocks", joined, 1,
                           /*preserves_partitioning=*/true);
        q.plan_nodes = pb.TakeNodes();
      }
      q.run = [=](Engine* eng, const Bindings& binds) -> Result<QueryResult> {
        const la::KernelBackend* kbk = eng->kernel_backend();
        SAC_ASSIGN_OR_RETURN(Dataset va, in_a.Data(binds));
        SAC_ASSIGN_OR_RETURN(Dataset vb, in_b.Data(binds));
        SAC_ASSIGN_OR_RETURN(Dataset joined,
                             eng->Join(va, vb, join_np, out_grid));
        SAC_ASSIGN_OR_RETURN(
            Dataset out,
            eng->Map(
                joined,
                [=](const Value& row) {
                  la::Tile v;
                  if (pat.kind != ZipPattern::Kind::kGeneric) {
                    RunZipPattern(kbk, pat, row.At(1).At(0).AsTile(),
                                  row.At(1).At(1).AsTile(), &v);
                  } else {
                    la::ZipElements(
                        row.At(1).At(0).AsTile(), row.At(1).At(1).AsTile(),
                        [&f](double x, double y) {
                          const double args[2] = {x, y};
                          return f(args);
                        },
                        &v);
                  }
                  CountTileAlloc();
                  la::MeterFlops(kbk->kind(),
                                 static_cast<uint64_t>(v.size()) *
                                     pat.flops_per_element);
                  return VPair(row.At(0), Value::TileVal(std::move(v)));
                },
                "zipBlocks"));
        QueryResult r;
        r.kind = QueryResult::Kind::kBlockVector;
        r.vec = storage::BlockVector{dims.rows, block, out};
        return r;
      };
      return q;
    }
  }

  return NotApplicable(kRule, "no tiling-preserving pattern matched");
}

// ===========================================================================
// Total aggregation over a distributed array
// ===========================================================================

Result<CompiledQuery> TryTotalAggregate(const ExprPtr& query,
                                        const Bindings& binds,
                                        const PlannerOptions& opts) {
  static const char* kRule = "total aggregation";
  if (query->kind != Expr::Kind::kReduce) {
    return NotApplicable(kRule, "not a reduction");
  }
  const ExprPtr& comp_e = query->children[0];
  if (comp_e->kind != Expr::Kind::kComprehension) {
    return NotApplicable(kRule, "operand is not a comprehension");
  }
  const ReduceOp op = query->reduce_op;
  if (op != ReduceOp::kSum && op != ReduceOp::kMin && op != ReduceOp::kMax &&
      op != ReduceOp::kProd && op != ReduceOp::kCount &&
      op != ReduceOp::kAvg) {
    return NotApplicable(kRule, "unsupported monoid");
  }

  // One generator over a distributed array; lets; integer guards.
  GenInfo gen;
  bool have_gen = false;
  std::vector<LetInfo> lets;
  std::vector<ExprPtr> guards;
  for (const auto& q : comp_e->quals) {
    switch (q.kind) {
      case comp::Qualifier::Kind::kGenerator: {
        if (have_gen) return NotApplicable(kRule, "multiple generators");
        QueryShape tmp;
        SAC_ASSIGN_OR_RETURN(gen, [&]() -> Result<GenInfo> {
          GenInfo g;
          g.pos = q.pos;
          if (q.expr->kind != Expr::Kind::kVar) {
            return NotApplicable(kRule, "generator source not a name");
          }
          g.source = q.expr->str_val;
          const auto& p = q.pattern;
          if (p->kind != comp::Pattern::Kind::kTuple || p->elems.size() != 2) {
            return NotApplicable(kRule, "bad generator pattern");
          }
          if (p->elems[1]->kind != comp::Pattern::Kind::kVar) {
            return NotApplicable(kRule, "bad value pattern");
          }
          g.val = p->elems[1]->var;
          if (p->elems[0]->kind == comp::Pattern::Kind::kVar) {
            g.idx.push_back(p->elems[0]->var);
          } else if (p->elems[0]->kind == comp::Pattern::Kind::kTuple) {
            for (const auto& ip : p->elems[0]->elems) {
              if (ip->kind != comp::Pattern::Kind::kVar) {
                return NotApplicable(kRule, "bad index pattern");
              }
              g.idx.push_back(ip->var);
            }
          }
          return g;
        }());
        have_gen = true;
        break;
      }
      case comp::Qualifier::Kind::kLet:
        if (q.pattern->kind != comp::Pattern::Kind::kVar) {
          return NotApplicable(kRule, "bad let pattern");
        }
        lets.push_back(LetInfo{q.pattern->var, q.expr});
        break;
      case comp::Qualifier::Kind::kGuard:
        guards.push_back(q.expr);
        break;
      case comp::Qualifier::Kind::kGroupBy:
        return NotApplicable(kRule, "group-by inside total aggregate");
    }
  }
  if (!have_gen) return NotApplicable(kRule, "no generator");
  SAC_ASSIGN_OR_RETURN(const Binding* b, GetBinding(binds, gen.source,
                                                    gen.pos));
  if (!b->is_distributed() || b->kind == Binding::Kind::kCoo) {
    return NotApplicable(kRule, "source is not a block array");
  }

  // Inline lets into head and guards; compile over (idx..., val).
  auto inline_lets = [&](ExprPtr e) {
    for (auto it = lets.rbegin(); it != lets.rend(); ++it) {
      e = comp::SubstituteVar(e, it->var, it->expr);
    }
    return e;
  };
  ConstEnv consts;
  CollectScalarConsts(binds, &consts);
  std::vector<std::string> dargs = gen.idx;
  dargs.push_back(gen.val);
  // Head as a scalar over doubles: indices are passed as doubles too (the
  // guard fragment below keeps true integer arithmetic separate).
  SAC_ASSIGN_OR_RETURN(
      ScalarFn fv, exec::CompileScalarFn(inline_lets(comp_e->children[0]),
                                         dargs, consts));
  std::vector<exec::PredFn> preds;
  for (const auto& g : guards) {
    SAC_ASSIGN_OR_RETURN(exec::PredFn p,
                         exec::CompileIntPred(inline_lets(g), gen.idx,
                                              consts));
    preds.push_back(std::move(p));
  }

  const bool is_matrix = b->kind == Binding::Kind::kTiled;
  const int64_t block = is_matrix ? b->tiled.block : b->vec.block;
  const InputRef in(gen.source, *b);
  if (is_matrix != (gen.idx.size() == 2)) {
    return NotApplicable(kRule, "index arity mismatch");
  }

  CompiledQuery q;
  q.strategy = Strategy::kReduceByKey;
  q.explanation = "per-tile partial aggregation + driver-side fold";
  {
    PlanBuilder pb(query->pos);
    PlanNodePtr tiles_node =
        pb.Source(gen.source, is_matrix ? 2 : 1, gen.pos);
    PlanNodePtr partials =
        pb.Narrow(PlanNode::Op::kMap, "partialAggregate", tiles_node, 0);
    q.plan = pb.Collect({partials});
    q.plan_nodes = pb.TakeNodes();
  }
  q.run = [=](Engine* eng, const Bindings& binds) -> Result<QueryResult> {
    SAC_ASSIGN_OR_RETURN(Dataset tiles, in.Data(binds));
    SAC_ASSIGN_OR_RETURN(
        Dataset partials,
        eng->Map(
            tiles,
            [=](const Value& row) {
              int64_t bi = 0, bj = 0;
              if (is_matrix) {
                bi = row.At(0).At(0).AsInt();
                bj = row.At(0).At(1).AsInt();
              } else {
                bj = row.At(0).AsInt();
              }
              const la::Tile& t = row.At(1).AsTile();
              double sum = 0.0, prod = 1.0;
              double mn = std::numeric_limits<double>::infinity();
              double mx = -std::numeric_limits<double>::infinity();
              int64_t count = 0;
              for (int64_t i = 0; i < t.rows(); ++i) {
                for (int64_t j = 0; j < t.cols(); ++j) {
                  int64_t iargs[2];
                  double dval[3];
                  if (is_matrix) {
                    iargs[0] = bi * block + i;
                    iargs[1] = bj * block + j;
                    dval[0] = static_cast<double>(iargs[0]);
                    dval[1] = static_cast<double>(iargs[1]);
                    dval[2] = t.At(i, j);
                  } else {
                    iargs[0] = bj * block + j;
                    dval[0] = static_cast<double>(iargs[0]);
                    dval[1] = t.At(i, j);
                  }
                  bool pass = true;
                  for (const auto& p : preds) {
                    if (!p(iargs)) {
                      pass = false;
                      break;
                    }
                  }
                  if (!pass) continue;
                  const double v = fv(dval);
                  sum += v;
                  prod *= v;
                  mn = std::min(mn, v);
                  mx = std::max(mx, v);
                  ++count;
                }
              }
              return runtime::VTuple(
                  {runtime::VDouble(sum), runtime::VDouble(prod),
                   runtime::VDouble(mn), runtime::VDouble(mx),
                   VInt(count)});
            },
            "partialAggregate"));
    SAC_ASSIGN_OR_RETURN(ValueVec rows, eng->Collect(partials));
    double sum = 0.0, prod = 1.0;
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    int64_t count = 0;
    for (const Value& r : rows) {
      sum += r.At(0).AsDouble();
      prod *= r.At(1).AsDouble();
      mn = std::min(mn, r.At(2).AsDouble());
      mx = std::max(mx, r.At(3).AsDouble());
      count += r.At(4).AsInt();
    }
    QueryResult out;
    out.kind = QueryResult::Kind::kValue;
    switch (op) {
      case ReduceOp::kSum:
        out.value = runtime::VDouble(sum);
        break;
      case ReduceOp::kProd:
        out.value = runtime::VDouble(prod);
        break;
      case ReduceOp::kMin:
        if (count == 0) return Status::RuntimeError("min of empty");
        out.value = runtime::VDouble(mn);
        break;
      case ReduceOp::kMax:
        if (count == 0) return Status::RuntimeError("max of empty");
        out.value = runtime::VDouble(mx);
        break;
      case ReduceOp::kCount:
        out.value = VInt(count);
        break;
      case ReduceOp::kAvg:
        if (count == 0) return Status::RuntimeError("avg of empty");
        out.value = runtime::VDouble(sum / static_cast<double>(count));
        break;
      default:
        return Status::PlanError("bad monoid");
    }
    return out;
  };
  return q;
}

// ===========================================================================
// Entry point
// ===========================================================================

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kTilingPreserving:
      return "TilingPreserving(5.1)";
    case Strategy::kReplication:
      return "Replication(5.2)";
    case Strategy::kReduceByKey:
      return "ReduceByKey(5.3)";
    case Strategy::kGroupByJoin:
      return "GroupByJoin(5.4)";
    case Strategy::kCoo:
      return "Coordinate(4)";
    case Strategy::kLocalFallback:
      return "LocalFallback";
    case Strategy::kLocal:
      return "Local";
  }
  return "?";
}

namespace {

/// Drops guards that are provably true from the array dimensions: an
/// array index is always >= 0 and < its dimension, so `v >= 0` and
/// `v < n` vanish when n is at least the dimension of the generator that
/// binds v. (The paper performs the same simplification when merging
/// index ranges in Section 2.)
void PruneProvableBoundsGuards(QueryShape* shape, const Bindings& binds) {
  auto dim_of = [&](const std::string& v) -> int64_t {
    auto ref = shape->FindIndexVar(v);
    if (!ref) return -1;
    auto it = binds.find(shape->gens[ref->gen].source);
    if (it == binds.end()) return -1;
    if (it->second.kind == Binding::Kind::kTiled) {
      return ref->pos == 0 ? it->second.tiled.rows : it->second.tiled.cols;
    }
    if (it->second.kind == Binding::Kind::kBlockVector) {
      return it->second.vec.size;
    }
    return -1;
  };
  std::vector<ExprPtr> kept;
  for (const ExprPtr& g : shape->guards) {
    bool provable = false;
    if (g->kind == Expr::Kind::kBinary) {
      const ExprPtr& l = g->children[0];
      const ExprPtr& r = g->children[1];
      // v >= 0  /  0 <= v
      if (g->bin_op == comp::BinOp::kGe && l->kind == Expr::Kind::kVar &&
          r->kind == Expr::Kind::kIntLit && r->int_val <= 0 &&
          dim_of(l->str_val) > 0) {
        provable = true;
      }
      if (g->bin_op == comp::BinOp::kLe && r->kind == Expr::Kind::kVar &&
          l->kind == Expr::Kind::kIntLit && l->int_val <= 0 &&
          dim_of(r->str_val) > 0) {
        provable = true;
      }
      // v < n  with n >= dim(v)
      if (g->bin_op == comp::BinOp::kLt && l->kind == Expr::Kind::kVar) {
        const int64_t dim = dim_of(l->str_val);
        if (dim > 0) {
          auto bound = EvalScalarInt(r, binds);
          if (bound.ok() && bound.value() >= dim) provable = true;
        }
      }
      if (g->bin_op == comp::BinOp::kGt && r->kind == Expr::Kind::kVar) {
        const int64_t dim = dim_of(r->str_val);
        if (dim > 0) {
          auto bound = EvalScalarInt(l, binds);
          if (bound.ok() && bound.value() >= dim) provable = true;
        }
      }
    }
    if (!provable) kept.push_back(g);
  }
  shape->guards = std::move(kept);
}

}  // namespace

Result<CompiledQuery> CompileQuery(const ExprPtr& query,
                                   const Bindings& binds,
                                   const PlannerOptions& opts) {
  // Queries with no distributed inputs evaluate locally.
  bool any_distributed = false;
  for (const std::string& v : comp::FreeVars(query)) {
    auto it = binds.find(v);
    if (it != binds.end() && it->second.is_distributed()) {
      any_distributed = true;
    }
  }
  if (!any_distributed) {
    CompiledQuery q;
    q.strategy = Strategy::kLocal;
    q.explanation = "no distributed inputs; reference evaluation";
    q.run = [query](Engine*, const Bindings& binds) -> Result<QueryResult> {
      comp::Evaluator ev;
      for (const auto& [name, b] : binds) {
        if (b.kind == Binding::Kind::kScalar ||
            b.kind == Binding::Kind::kLocal) {
          ev.Bind(name, b.value);
        }
      }
      SAC_ASSIGN_OR_RETURN(Value v, ev.Eval(query));
      QueryResult r;
      r.kind = QueryResult::Kind::kValue;
      r.value = std::move(v);
      return r;
    };
    return q;
  }

  // Total aggregations have their own translation.
  if (query->kind == Expr::Kind::kReduce) {
    auto agg = TryTotalAggregate(query, binds, opts);
    if (agg.ok()) return agg;
    return LocalFallbackPlan(query, binds, opts);
  }

  auto shape_r = AnalyzeShape(query);
  std::vector<std::string> reasons;
  if (shape_r.ok()) {
    QueryShape& shape = shape_r.value();
    PruneProvableBoundsGuards(&shape, binds);
    if (opts.force_coo) {
      auto coo = TryCoo(shape, binds, opts);
      if (coo.ok()) return coo;
      reasons.push_back(coo.status().message());
    } else {
      if (opts.enable_group_by_join) {
        auto gbj = TryGroupByJoin(shape, binds, opts);
        if (gbj.ok()) {
          // Cost-based strategy choice (docs/COST_MODEL.md): when the 5.3
          // translation also applies and the bound extents resolve, take
          // whichever plan the calibrated model estimates cheaper --
          // fig4b shows the right 5.3/5.4 choice flips with n.
          if (AutoStrategyEnabled(opts)) {
            auto rbk = TryReduceByKey(shape, binds, opts);
            if (rbk.ok()) {
              // Flop rate follows the backend the plan will run on: the
              // engine-resolved ClusterConfig::kernel_backend.
              const analysis::CostModel cm = analysis::CostModelForBackend(
                  opts.cluster.kernel_backend);
              const analysis::CostEstimate gc = analysis::EstimateCost(
                  analysis::PlanGraph::FromQuery(gbj.value(), &binds, 0,
                                                 opts.cluster),
                  cm);
              const analysis::CostEstimate rc = analysis::EstimateCost(
                  analysis::PlanGraph::FromQuery(rbk.value(), &binds, 0,
                                                 opts.cluster),
                  cm);
              if (gc.exact && rc.exact) {
                const std::string note =
                    " [auto: cost model 5.4=" + FmtMs(gc.est_ms) +
                    "ms vs 5.3=" + FmtMs(rc.est_ms) + "ms]";
                if (rc.est_ms < gc.est_ms) {
                  rbk.value().explanation += note;
                  return rbk;
                }
                gbj.value().explanation += note;
              }
            }
          }
          return gbj;
        }
        reasons.push_back(gbj.status().message());
      }
      auto rbk = TryReduceByKey(shape, binds, opts);
      if (rbk.ok()) return rbk;
      reasons.push_back(rbk.status().message());
      auto tp = TryTilingPreserving(shape, binds, opts);
      if (tp.ok()) return tp;
      reasons.push_back(tp.status().message());
      auto rep = TryReplication(shape, binds, opts);
      if (rep.ok()) return rep;
      reasons.push_back(rep.status().message());
      auto coo = TryCoo(shape, binds, opts);
      if (coo.ok()) return coo;
      reasons.push_back(coo.status().message());
    }
  } else {
    reasons.push_back(shape_r.status().message());
  }

  auto fb = LocalFallbackPlan(query, binds, opts);
  if (fb.ok()) return fb;
  reasons.push_back(fb.status().message());
  std::string all = "no translation strategy applies:";
  for (const auto& r : reasons) all += "\n  - " + r;
  return Status::PlanError(all);
}

}  // namespace sac::planner
