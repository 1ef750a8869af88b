#include "src/api/sac.h"

#include <cassert>

#include "src/comp/eval.h"
#include "src/comp/loops.h"
#include "src/comp/parser.h"
#include "src/comp/rewrite.h"

namespace sac {

using planner::Binding;
using planner::CompiledQuery;
using planner::QueryResult;
using runtime::Value;
using runtime::ValueVec;

Sac::Sac(runtime::ClusterConfig config, planner::PlannerOptions options)
    : engine_(std::make_unique<runtime::Engine>(config)),
      options_(options) {
  // The cost model plans against the engine's actual cluster shape --
  // engine_->config(), not the caller's `config`, so env-resolved fields
  // (memory budget, kernel backend) reach the planner too.
  options_.cluster = engine_->config();
}

void Sac::RecordPredictions(const CompiledQuery& q,
                            const planner::Bindings& binds,
                            std::map<std::string, double>* predicted) {
  if (q.plan == nullptr) return;
  const analysis::CostEstimate est = analysis::EstimateCost(
      analysis::PlanGraph::FromQuery(q, &binds, 0, engine_->config()));
  // Partial estimates under-count (unknown shapes predict 0 bytes), which
  // would trip the 2x gate spuriously -- record exact plans only.
  if (!est.exact) return;
  for (const auto& [label, bytes] : est.shuffle_by_engine_label) {
    (*predicted)[label] += bytes;
  }
}

Result<storage::TiledMatrix> Sac::RandomMatrix(int64_t rows, int64_t cols,
                                               int64_t block, uint64_t seed,
                                               double lo, double hi) {
  return storage::RandomTiled(engine_.get(), rows, cols, block, seed, lo, hi);
}

Result<storage::TiledMatrix> Sac::RandomSparseMatrix(int64_t rows,
                                                     int64_t cols,
                                                     int64_t block,
                                                     uint64_t seed,
                                                     double density, int hi) {
  return storage::RandomSparseTiled(engine_.get(), rows, cols, block, seed,
                                    density, hi);
}

Result<storage::BlockVector> Sac::RandomVector(int64_t size, int64_t block,
                                               uint64_t seed, double lo,
                                               double hi) {
  return storage::RandomBlockVector(engine_.get(), size, block, seed, lo, hi);
}

Result<storage::TiledMatrix> Sac::MatrixFromLocal(const la::Tile& local,
                                                  int64_t block) {
  return storage::FromLocal(engine_.get(), local, block);
}

Result<la::Tile> Sac::ToLocal(const storage::TiledMatrix& m) {
  return storage::ToLocal(engine_.get(), m);
}

Result<std::vector<double>> Sac::ToLocal(const storage::BlockVector& v) {
  return storage::ToLocalVector(engine_.get(), v);
}

void Sac::Bind(const std::string& name, storage::TiledMatrix m) {
  binds_[name] = Binding::Tiled(std::move(m));
}
void Sac::Bind(const std::string& name, storage::BlockVector v) {
  binds_[name] = Binding::Vector(std::move(v));
}
void Sac::Bind(const std::string& name, storage::CooMatrix c) {
  binds_[name] = Binding::Coo(std::move(c));
}
void Sac::BindScalar(const std::string& name, double v) {
  binds_[name] = Binding::Scalar(Value::Double(v));
}
void Sac::BindScalar(const std::string& name, int64_t v) {
  binds_[name] = Binding::Scalar(Value::Int(v));
}
void Sac::BindLocal(const std::string& name, Value v) {
  binds_[name] = Binding::Local(std::move(v));
}
void Sac::Unbind(const std::string& name) { binds_.erase(name); }

namespace {

Result<comp::ExprPtr> NormalizeWith(const comp::ExprPtr& e,
                                    const planner::Bindings& binds) {
  return comp::Normalize(e, [&binds](const std::string& name) {
    auto it = binds.find(name);
    return it != binds.end() && it->second.kind != Binding::Kind::kScalar;
  });
}

}  // namespace

Result<comp::ExprPtr> Sac::ParseAndNormalize(const std::string& src) {
  SAC_ASSIGN_OR_RETURN(comp::ExprPtr e, comp::Parse(src));
  return NormalizeWith(e, binds_);
}

Result<CompiledQuery> Sac::Compile(const std::string& src) {
  SAC_ASSIGN_OR_RETURN(comp::ExprPtr e, ParseAndNormalize(src));
  return planner::CompileQuery(e, binds_, options_);
}

Result<std::shared_ptr<const CompiledQuery>> Sac::CompileCachedWith(
    const std::string& text, const comp::ExprPtr& parsed,
    const planner::Bindings& binds, Metrics* session_metrics) {
  // Key construction is cheap (no parse); skip it entirely when the
  // cache is disabled so the off-arm of the ablation measures the pure
  // compile path.
  const std::string key = plan_cache_.capacity() > 0
                              ? planner::PlanCacheKey(text, binds, options_)
                              : std::string();
  const MeterSink sink(&engine_->metrics(), nullptr, session_metrics);
  if (!key.empty()) {
    if (std::shared_ptr<const CompiledQuery> hit = plan_cache_.Lookup(key)) {
      sink.Add(Counter::kPlanCacheHits, 1);
      return hit;
    }
  }
  // Traced as a root span so the profiler's critical path accounts for
  // planner time, not just engine stages.
  Result<CompiledQuery> compiled = [&]() -> Result<CompiledQuery> {
    trace::ScopedSpan span(&engine_->tracer(), "compile", "compile");
    comp::ExprPtr e = parsed;
    if (e == nullptr) {
      SAC_ASSIGN_OR_RETURN(e, comp::Parse(text));
    }
    SAC_ASSIGN_OR_RETURN(comp::ExprPtr norm, NormalizeWith(e, binds));
    return planner::CompileQuery(norm, binds, options_);
  }();
  SAC_RETURN_NOT_OK(compiled.status());
  auto q = std::make_shared<CompiledQuery>(std::move(compiled).value());
  // Catch planner bugs before any tile is materialized: the symbolic DAG
  // must satisfy the structural invariants (debug builds additionally
  // assert, but the check is cheap enough to keep on everywhere).
  // Cached plans were verified at insert time, so hits skip this.
  const Status plan_ok =
      analysis::VerifyPlan(analysis::PlanGraph::FromQuery(*q));
  assert(plan_ok.ok() && "compiled plan failed invariant verification");
  SAC_RETURN_NOT_OK(plan_ok);
  if (!key.empty()) {
    sink.Add(Counter::kPlanCacheEvictions, plan_cache_.Insert(key, q));
    sink.Add(Counter::kPlanCacheMisses, 1);
  }
  return std::shared_ptr<const CompiledQuery>(std::move(q));
}

Result<std::shared_ptr<const CompiledQuery>> Sac::CompileCached(
    const std::string& src) {
  return CompileCachedWith(src, nullptr, binds_, nullptr);
}

Result<analysis::AnalysisReport> Sac::Analyze(const std::string& src) {
  return analysis::AnalyzeQuery(src, binds_, options_,
                                engine_->config().memory_budget_bytes);
}

Result<std::string> Sac::Explain(const std::string& src) {
  SAC_ASSIGN_OR_RETURN(analysis::AnalysisReport report, Analyze(src));
  return report.Render("<query>");
}

Result<QueryResult> Sac::CompileAndRun(
    const std::string& text, const comp::ExprPtr& parsed,
    const planner::Bindings& binds, std::map<std::string, double>* predicted,
    Metrics* session_metrics, std::shared_ptr<const CompiledQuery>* plan) {
  SAC_ASSIGN_OR_RETURN(
      std::shared_ptr<const CompiledQuery> q,
      CompileCachedWith(text, parsed, binds, session_metrics));
  RecordPredictions(*q, binds, predicted);
  SAC_ASSIGN_OR_RETURN(QueryResult r, q->run(engine_.get(), binds));
  // Post-run: the result's lineage and stage attributions must line up.
  switch (r.kind) {
    case QueryResult::Kind::kTiled:
      SAC_RETURN_NOT_OK(engine_->VerifyLineage(r.tiled.tiles));
      break;
    case QueryResult::Kind::kBlockVector:
      SAC_RETURN_NOT_OK(engine_->VerifyLineage(r.vec.blocks));
      break;
    case QueryResult::Kind::kValue:
      break;
  }
  if (plan != nullptr) *plan = std::move(q);
  return r;
}

Result<QueryResult> Sac::EvalImpl(
    const std::string& src, const planner::Bindings& binds,
    std::map<std::string, double>* predicted,
    const std::shared_ptr<runtime::Session>& session) {
  Metrics* session_metrics = session ? &session->metrics() : nullptr;
  // Admission first: blocks until a concurrency slot frees up. The
  // ticket covers compile + run, so live_queries() is an honest gauge of
  // everything between admission and result.
  runtime::AdmissionGate::Ticket ticket = engine_->AdmitQuery(session_metrics);
  // Datasets materialized below attribute to this session (metrics,
  // memory slice, task queue) via the thread-local current session.
  runtime::Session::Scope scope(session);
  return CompileAndRun(src, nullptr, binds, predicted, session_metrics);
}

Result<QueryResult> Sac::Eval(const std::string& src) {
  return EvalImpl(src, binds_, &predicted_shuffle_bytes_, nullptr);
}

Result<storage::TiledMatrix> Sac::EvalTiled(const std::string& src) {
  SAC_ASSIGN_OR_RETURN(QueryResult r, Eval(src));
  if (r.kind != QueryResult::Kind::kTiled) {
    return Status::InvalidArgument("query did not produce a tiled matrix");
  }
  return r.tiled;
}

Result<storage::BlockVector> Sac::EvalVector(const std::string& src) {
  SAC_ASSIGN_OR_RETURN(QueryResult r, Eval(src));
  if (r.kind != QueryResult::Kind::kBlockVector) {
    return Status::InvalidArgument("query did not produce a block vector");
  }
  return r.vec;
}

Result<double> Sac::EvalScalar(const std::string& src) {
  SAC_ASSIGN_OR_RETURN(QueryResult r, Eval(src));
  if (r.kind != QueryResult::Kind::kValue || !r.value.is_numeric()) {
    return Status::InvalidArgument("query did not produce a scalar");
  }
  return r.value.AsDouble();
}

Result<std::vector<std::string>> Sac::EvalLoop(const std::string& src) {
  // One admission ticket covers the whole loop program: each update
  // rebinds the target the next update reads, so interleaving another
  // query between updates buys nothing.
  runtime::AdmissionGate::Ticket ticket = engine_->AdmitQuery();
  SAC_ASSIGN_OR_RETURN(comp::LoopStmtPtr prog, comp::ParseLoopProgram(src));
  SAC_ASSIGN_OR_RETURN(
      std::vector<comp::TranslatedUpdate> updates,
      comp::TranslateLoops(prog, [this](const std::string& name)
                               -> Result<std::vector<comp::ExprPtr>> {
        auto it = binds_.find(name);
        if (it == binds_.end()) {
          return Status::PlanError("loop target '" + name +
                                   "' is not bound (bind a matrix or "
                                   "vector of the output shape first)");
        }
        std::vector<comp::ExprPtr> dims;
        if (it->second.kind == planner::Binding::Kind::kTiled) {
          dims.push_back(comp::Expr::Int(it->second.tiled.rows));
          dims.push_back(comp::Expr::Int(it->second.tiled.cols));
        } else if (it->second.kind ==
                   planner::Binding::Kind::kBlockVector) {
          dims.push_back(comp::Expr::Int(it->second.vec.size));
        } else {
          return Status::PlanError("loop target '" + name +
                                   "' is not a distributed array");
        }
        return dims;
      }));
  std::vector<std::string> report;
  for (const comp::TranslatedUpdate& u : updates) {
    // Compile (cached, keyed on the translated comprehension) + run, then
    // rebind the target. A rebound target keeps its shape, so every
    // iteration after the first reuses the cached plan. The "<loop>"
    // prefix never parses, so no Eval text can share these keys.
    std::shared_ptr<const CompiledQuery> q;
    SAC_ASSIGN_OR_RETURN(
        QueryResult r,
        CompileAndRun("<loop> " + u.query->ToString(), u.query, binds_,
                      &predicted_shuffle_bytes_, nullptr, &q));
    switch (r.kind) {
      case QueryResult::Kind::kTiled:
        Bind(u.target, std::move(r.tiled));
        break;
      case QueryResult::Kind::kBlockVector:
        Bind(u.target, std::move(r.vec));
        break;
      default:
        return Status::RuntimeError("loop assignment produced a scalar");
    }
    if (u.in_loop) {
      // The rebound loop target is read again next iteration no matter
      // what: give its blocks admission priority so a tight memory
      // budget evicts one-shot intermediates before the loop state.
      auto bound = binds_.find(u.target);
      if (bound != binds_.end()) {
        const planner::Binding& b = bound->second;
        if (b.kind == planner::Binding::Kind::kTiled && b.tiled.tiles) {
          engine_->block_store().SetPriority(b.tiled.tiles.get(), true);
        } else if (b.kind == planner::Binding::Kind::kBlockVector &&
                   b.vec.blocks) {
          engine_->block_store().SetPriority(b.vec.blocks.get(), true);
        }
      }
    }
    // Auto-checkpoint: each rebind of an in-loop target stacks another
    // layer of lineage on top of the previous binding; every K-th rebind
    // we cut the chain (Spark's checkpoint() discipline for iterative
    // jobs). Counters persist across EvalLoop calls, so driver-level
    // iteration (EvalLoopIterated, the fig4c pattern) is covered too.
    const int interval = engine_->config().checkpoint_interval;
    if (interval > 0 && u.in_loop) {
      const int count = ++loop_update_counts_[u.target];
      if (count % interval == 0) {
        SAC_RETURN_NOT_OK(Checkpoint(u.target));
      }
    }
    report.push_back(u.target + " <- " +
                     planner::StrategyName(q->strategy) + ": " +
                     q->explanation);
  }
  return report;
}

Result<std::vector<std::string>> Sac::EvalLoopIterated(const std::string& src,
                                                       int iterations) {
  if (iterations < 1) {
    return Status::InvalidArgument("EvalLoopIterated needs iterations >= 1");
  }
  std::vector<std::string> report;
  for (int it = 0; it < iterations; ++it) {
    SAC_ASSIGN_OR_RETURN(std::vector<std::string> one, EvalLoop(src));
    if (it == 0) report = std::move(one);
  }
  return report;
}

Status Sac::Checkpoint(const std::string& name) {
  auto it = binds_.find(name);
  if (it == binds_.end()) {
    return Status::InvalidArgument("Checkpoint: '" + name + "' is not bound");
  }
  switch (it->second.kind) {
    case Binding::Kind::kTiled:
      return engine_->Checkpoint(it->second.tiled.tiles);
    case Binding::Kind::kBlockVector:
      return engine_->Checkpoint(it->second.vec.blocks);
    default:
      return Status::InvalidArgument("Checkpoint: '" + name +
                                     "' is not a distributed array");
  }
}

Result<Value> Sac::ReferenceEval(const std::string& src) {
  SAC_ASSIGN_OR_RETURN(comp::ExprPtr e, comp::Parse(src));
  comp::Evaluator ev;
  for (const auto& [name, b] : binds_) {
    switch (b.kind) {
      case Binding::Kind::kScalar:
      case Binding::Kind::kLocal:
        ev.Bind(name, b.value);
        break;
      case Binding::Kind::kTiled: {
        SAC_ASSIGN_OR_RETURN(ValueVec rows,
                             storage::SparsifyLocal(engine_.get(), b.tiled));
        ev.Bind(name, Value::List(std::move(rows)));
        break;
      }
      case Binding::Kind::kBlockVector: {
        SAC_ASSIGN_OR_RETURN(std::vector<double> vec,
                             storage::ToLocalVector(engine_.get(), b.vec));
        ValueVec rows;
        for (size_t i = 0; i < vec.size(); ++i) {
          rows.push_back(runtime::VPair(Value::Int(static_cast<int64_t>(i)),
                                        Value::Double(vec[i])));
        }
        ev.Bind(name, Value::List(std::move(rows)));
        break;
      }
      case Binding::Kind::kCoo: {
        SAC_ASSIGN_OR_RETURN(ValueVec rows,
                             engine_->Collect(b.coo.entries));
        ev.Bind(name, Value::List(std::move(rows)));
        break;
      }
    }
  }
  return ev.Eval(e);
}

// ---- sessions (docs/SERVICE.md) --------------------------------------------

std::unique_ptr<Session> Sac::OpenSession(const std::string& name,
                                          uint64_t memory_budget_bytes) {
  return std::unique_ptr<Session>(
      new Session(this, engine_->OpenSession(name, memory_budget_bytes)));
}

std::unique_ptr<Session> Sac::OpenSession(const std::string& name) {
  return OpenSession(name,
                     engine_->config().session_memory_budget_bytes);
}

Session::~Session() {
  // Retire this session's fair-scheduling queue; anything still pending
  // migrates to the default queue. The runtime::Session object itself
  // may outlive us -- datasets hold shared_ptr references to it.
  owner_->engine_->pool().CloseQueue(state_->queue());
}

Result<storage::TiledMatrix> Session::RandomMatrix(int64_t rows, int64_t cols,
                                                   int64_t block,
                                                   uint64_t seed, double lo,
                                                   double hi) {
  runtime::Session::Scope scope(state_);
  return owner_->RandomMatrix(rows, cols, block, seed, lo, hi);
}

Result<storage::TiledMatrix> Session::RandomSparseMatrix(
    int64_t rows, int64_t cols, int64_t block, uint64_t seed, double density,
    int hi) {
  runtime::Session::Scope scope(state_);
  return owner_->RandomSparseMatrix(rows, cols, block, seed, density, hi);
}

Result<storage::BlockVector> Session::RandomVector(int64_t size,
                                                   int64_t block,
                                                   uint64_t seed, double lo,
                                                   double hi) {
  runtime::Session::Scope scope(state_);
  return owner_->RandomVector(size, block, seed, lo, hi);
}

Result<storage::TiledMatrix> Session::MatrixFromLocal(const la::Tile& local,
                                                      int64_t block) {
  runtime::Session::Scope scope(state_);
  return owner_->MatrixFromLocal(local, block);
}

Result<la::Tile> Session::ToLocal(const storage::TiledMatrix& m) {
  runtime::Session::Scope scope(state_);
  return owner_->ToLocal(m);
}

Result<std::vector<double>> Session::ToLocal(const storage::BlockVector& v) {
  runtime::Session::Scope scope(state_);
  return owner_->ToLocal(v);
}

void Session::Bind(const std::string& name, storage::TiledMatrix m) {
  binds_[name] = Binding::Tiled(std::move(m));
}
void Session::Bind(const std::string& name, storage::BlockVector v) {
  binds_[name] = Binding::Vector(std::move(v));
}
void Session::Bind(const std::string& name, storage::CooMatrix c) {
  binds_[name] = Binding::Coo(std::move(c));
}
void Session::BindScalar(const std::string& name, double v) {
  binds_[name] = Binding::Scalar(Value::Double(v));
}
void Session::BindScalar(const std::string& name, int64_t v) {
  binds_[name] = Binding::Scalar(Value::Int(v));
}
void Session::BindLocal(const std::string& name, Value v) {
  binds_[name] = Binding::Local(std::move(v));
}
void Session::Unbind(const std::string& name) { binds_.erase(name); }

Result<QueryResult> Session::Eval(const std::string& src) {
  return owner_->EvalImpl(src, binds_, &predicted_shuffle_bytes_, state_);
}

Result<storage::TiledMatrix> Session::EvalTiled(const std::string& src) {
  SAC_ASSIGN_OR_RETURN(QueryResult r, Eval(src));
  if (r.kind != QueryResult::Kind::kTiled) {
    return Status::InvalidArgument("query did not produce a tiled matrix");
  }
  return r.tiled;
}

Result<storage::BlockVector> Session::EvalVector(const std::string& src) {
  SAC_ASSIGN_OR_RETURN(QueryResult r, Eval(src));
  if (r.kind != QueryResult::Kind::kBlockVector) {
    return Status::InvalidArgument("query did not produce a block vector");
  }
  return r.vec;
}

Result<double> Session::EvalScalar(const std::string& src) {
  SAC_ASSIGN_OR_RETURN(QueryResult r, Eval(src));
  if (r.kind != QueryResult::Kind::kValue || !r.value.is_numeric()) {
    return Status::InvalidArgument("query did not produce a scalar");
  }
  return r.value.AsDouble();
}

}  // namespace sac
