// sac::Sac -- the public entry point of the library.
//
// Usage:
//   sac::Sac ctx;                                   // default cluster
//   auto A = ctx.RandomMatrix(2048, 2048, 256, 1);  // tiled, seeded
//   ctx.Bind("A", A);
//   ctx.Bind("B", ctx.RandomMatrix(2048, 2048, 256, 2));
//   ctx.BindScalar("n", 2048);
//   auto C = ctx.EvalTiled(
//       "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
//       "  kk == k, let v = a*b, group by (i,j) ]");
//
// Eval() parses, normalizes (Sections 2-3 rewrites), plans (Sections 4-5
// translation rules) and runs the query on the embedded DISC engine.
//
// Multi-tenant service (docs/SERVICE.md): Sac::OpenSession hands out
// sac::Session handles, each with its own bindings, metrics attribution
// and memory-budget slice. Queries from any number of sessions may run
// concurrently -- admission is gated by ClusterConfig::
// max_concurrent_queries and stage tasks are fair-scheduled across live
// queries. The Sac object itself and each individual Session are
// single-threaded surfaces (one client thread per handle); it is the
// *set* of sessions that may be driven from different threads at once.
#ifndef SAC_API_SAC_H_
#define SAC_API_SAC_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/analysis/analysis.h"
#include "src/common/status.h"
#include "src/planner/plan.h"
#include "src/planner/plan_cache.h"
#include "src/planner/planner.h"
#include "src/runtime/engine.h"
#include "src/storage/tiled.h"

namespace sac {

class Session;

class Sac {
 public:
  explicit Sac(runtime::ClusterConfig config = runtime::ClusterConfig(),
               planner::PlannerOptions options = planner::PlannerOptions());

  runtime::Engine& engine() { return *engine_; }
  planner::PlannerOptions& options() { return options_; }
  Metrics& metrics() { return engine_->metrics(); }
  StageRegistry& stages() { return engine_->stages(); }
  trace::Tracer& tracer() { return engine_->tracer(); }
  /// The compiled-plan cache shared by every session (set_capacity(0)
  /// disables it; the ablation benches use exactly that).
  planner::PlanCache& plan_cache() { return plan_cache_; }

  // ---- sessions (docs/SERVICE.md) ------------------------------------------
  /// Opens a client session: its own bindings namespace, its own Metrics
  /// sink (stage stats double-report into it), a fair-scheduled task
  /// queue on the shared pool, and a resident-byte slice enforced by the
  /// block store. The handle is single-threaded; different sessions may
  /// be driven from different threads concurrently. Destroying the
  /// handle closes its task queue (pending work migrates to the default
  /// queue); datasets it produced stay valid as long as someone holds
  /// them. `memory_budget_bytes` 0 = unlimited slice.
  std::unique_ptr<Session> OpenSession(const std::string& name,
                                       uint64_t memory_budget_bytes);
  /// Same, with the slice defaulted from ClusterConfig::
  /// session_memory_budget_bytes (env SAC_SESSION_MEM_BUDGET).
  std::unique_ptr<Session> OpenSession(const std::string& name);

  // ---- observability -------------------------------------------------------
  /// Clears totals, per-stage stats, trace buffers and accumulated shuffle
  /// predictions between measured runs.
  void ResetStats() {
    engine_->ResetStats();
    predicted_shuffle_bytes_.clear();
  }
  /// Predicted total shuffle bytes per ENGINE stage label ("join",
  /// "cogroup", "reduceByKey", ...), accumulated at compile time for every
  /// Eval/EvalLoop update whose extents the shape pass fully resolved.
  /// Comparable against the measured per-stage byte counters -- the
  /// `sac_prof predcheck` gate (docs/COST_MODEL.md) holds them within 2x.
  const std::map<std::string, double>& predicted_shuffle_bytes() const {
    return predicted_shuffle_bytes_;
  }
  /// Per-stage metrics table (see Engine::ReportString).
  std::string ReportString() const { return engine_->ReportString(); }
  /// Chrome trace-event JSON of everything traced so far.
  std::string ChromeTraceJson() const { return engine_->ChromeTraceJson(); }
  Status WriteChromeTrace(const std::string& path) const {
    return engine_->WriteChromeTrace(path);
  }
  /// Versioned profile JSON built from everything traced so far: stage
  /// tree with self/total/task time, critical-path attribution, joined
  /// per-stage counters and sampler time series (docs/PROFILING.md).
  /// `wall_ms_hint` anchors wall-clock percentages to an externally
  /// measured duration (0 = use the trace extent); `query` is echoed
  /// into the profile for identification.
  std::string ProfileJson(double wall_ms_hint = 0,
                          const std::string& query = "") const {
    return engine_->ProfileJson(wall_ms_hint, query);
  }
  Status WriteProfile(const std::string& path, double wall_ms_hint = 0,
                      const std::string& query = "") const {
    return engine_->WriteProfile(path, wall_ms_hint, query);
  }

  // ---- data ---------------------------------------------------------------
  /// Dense random tiled matrix, uniform in [lo, hi), deterministic per seed.
  Result<storage::TiledMatrix> RandomMatrix(int64_t rows, int64_t cols,
                                            int64_t block, uint64_t seed,
                                            double lo = 0.0, double hi = 10.0);
  /// Sparse random matrix (integer ratings), stored as dense tiles.
  Result<storage::TiledMatrix> RandomSparseMatrix(int64_t rows, int64_t cols,
                                                  int64_t block, uint64_t seed,
                                                  double density, int hi);
  Result<storage::BlockVector> RandomVector(int64_t size, int64_t block,
                                            uint64_t seed, double lo = 0.0,
                                            double hi = 1.0);
  Result<storage::TiledMatrix> MatrixFromLocal(const la::Tile& local,
                                               int64_t block);
  Result<la::Tile> ToLocal(const storage::TiledMatrix& m);
  Result<std::vector<double>> ToLocal(const storage::BlockVector& v);

  // ---- bindings -----------------------------------------------------------
  void Bind(const std::string& name, storage::TiledMatrix m);
  void Bind(const std::string& name, storage::BlockVector v);
  void Bind(const std::string& name, storage::CooMatrix c);
  void BindScalar(const std::string& name, double v);
  void BindScalar(const std::string& name, int64_t v);
  void BindLocal(const std::string& name, runtime::Value v);
  void Unbind(const std::string& name);
  const planner::Bindings& bindings() const { return binds_; }

  // ---- compile & run --------------------------------------------------------
  /// Parses and normalizes a query (exposed for inspection/tests).
  Result<comp::ExprPtr> ParseAndNormalize(const std::string& src);

  /// Compiles without running; inspect .strategy / .explanation.
  /// Always a fresh compile -- never consults the plan cache.
  Result<planner::CompiledQuery> Compile(const std::string& src);

  /// Compiles through the plan cache: a repeat of the same normalized
  /// source against the same binding shapes returns the cached plan
  /// without parsing or planning, whatever datasets are bound. Meters
  /// plan_cache_hits / _misses / _evictions on the engine Metrics. This
  /// is the compile path Eval uses; exposed for the service ablation
  /// bench and tests.
  Result<std::shared_ptr<const planner::CompiledQuery>> CompileCached(
      const std::string& src);

  /// Statically analyzes a query against the current bindings without
  /// running it: comprehension checks, plan verification and lint rules
  /// (see src/analysis/). Never executes engine operators.
  Result<analysis::AnalysisReport> Analyze(const std::string& src);

  /// Analyze() rendered as text: diagnostics (file:line:col format, the
  /// file labelled `<query>`) followed by strategy and symbolic plan.
  Result<std::string> Explain(const std::string& src);

  /// Compiles and runs. The symbolic plan is verified (analysis::
  /// VerifyPlan) before any engine operator executes, and the result's
  /// lineage is verified after -- both guard against planner/engine bugs,
  /// not user errors.
  Result<planner::QueryResult> Eval(const std::string& src);

  /// Eval expecting a tiled-matrix result.
  Result<storage::TiledMatrix> EvalTiled(const std::string& src);
  /// Eval expecting a block-vector result.
  Result<storage::BlockVector> EvalVector(const std::string& src);
  /// Eval expecting a scalar double (total aggregations).
  Result<double> EvalScalar(const std::string& src);

  /// DIABLO front end (see comp/loops.h): parses an imperative loop
  /// program, translates each loop nest to a comprehension, compiles and
  /// runs them in order, rebinding each target array. Targets must
  /// already be bound (their dimensions come from the binding). Returns
  /// one "target <- strategy" line per translated assignment.
  Result<std::vector<std::string>> EvalLoop(const std::string& src);

  /// Runs the loop program `iterations` times (the driver-level iteration
  /// of gradient-descent workloads like Figure 4c). Between runs the
  /// targets stay rebound, so lineage would grow linearly with the
  /// iteration count -- the auto-checkpointing below bounds it.
  Result<std::vector<std::string>> EvalLoopIterated(const std::string& src,
                                                    int iterations);

  // ---- fault tolerance ----------------------------------------------------
  /// Materializes the array to spill files and truncates its lineage
  /// (Engine::Checkpoint): recovery of a dropped partition then reads the
  /// spill file instead of recomputing the upstream chain. EvalLoop calls
  /// this automatically on in-loop targets every
  /// ClusterConfig::checkpoint_interval rebinds (0 disables).
  Status Checkpoint(const storage::TiledMatrix& m) {
    return engine_->Checkpoint(m.tiles);
  }
  Status Checkpoint(const storage::BlockVector& v) {
    return engine_->Checkpoint(v.blocks);
  }
  /// Checkpoints a bound tiled matrix or block vector by name.
  Status Checkpoint(const std::string& name);

  /// Runs the same query through the reference evaluator on collected
  /// inputs -- the oracle used by tests (small inputs only).
  Result<runtime::Value> ReferenceEval(const std::string& src);

 private:
  friend class Session;

  /// Folds the cost model's per-label shuffle prediction for a freshly
  /// compiled (or cache-hit) plan into `*predicted` (exact shapes only).
  void RecordPredictions(const planner::CompiledQuery& q,
                         const planner::Bindings& binds,
                         std::map<std::string, double>* predicted);

  /// The one compile path: plan-cache key -> lookup -> on miss, parse
  /// + normalize + plan + VerifyPlan + insert. `text` keys the cache;
  /// `parsed`, when non-null, is the comprehension `text` stands for and
  /// is compiled on a miss instead of parsing `text`. Hit/miss/eviction
  /// counters are metered on the engine Metrics and, when non-null, on
  /// `session_metrics` too.
  Result<std::shared_ptr<const planner::CompiledQuery>> CompileCachedWith(
      const std::string& text, const comp::ExprPtr& parsed,
      const planner::Bindings& binds, Metrics* session_metrics);

  /// The one compile-and-run path, taken after admission by Eval,
  /// Session::Eval and each EvalLoop update: cached compile -> shuffle
  /// predictions -> run against `binds` -> lineage verification. The plan
  /// that ran is stored in `*plan` when non-null.
  Result<planner::QueryResult> CompileAndRun(
      const std::string& text, const comp::ExprPtr& parsed,
      const planner::Bindings& binds, std::map<std::string, double>* predicted,
      Metrics* session_metrics,
      std::shared_ptr<const planner::CompiledQuery>* plan = nullptr);

  /// The shared eval path behind Sac::Eval and Session::Eval: admission
  /// ticket -> Session::Scope -> CompileAndRun.
  Result<planner::QueryResult> EvalImpl(
      const std::string& src, const planner::Bindings& binds,
      std::map<std::string, double>* predicted,
      const std::shared_ptr<runtime::Session>& session);

  std::unique_ptr<runtime::Engine> engine_;
  planner::PlannerOptions options_;
  planner::Bindings binds_;
  planner::PlanCache plan_cache_;
  std::map<std::string, double> predicted_shuffle_bytes_;
  // Rebind count per in-loop target, driving auto-checkpointing across
  // EvalLoop calls (driver iterations).
  std::unordered_map<std::string, int> loop_update_counts_;
};

/// One client's handle on a shared Sac service (docs/SERVICE.md): its
/// own bindings namespace and shuffle predictions, per-session metrics
/// attribution, a fair-scheduled task queue and a resident-byte slice.
/// NOT thread-safe -- one Session per client thread; concurrency comes
/// from driving *different* sessions from different threads. The handle
/// must not outlive the Sac that opened it, but datasets it returned
/// may (they hold shared_ptr state).
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint64_t id() const { return state_->id(); }
  const std::string& name() const { return state_->name(); }
  /// This session's metrics sink: every stage its queries ran, plus its
  /// admission and plan-cache events, double-report here.
  Metrics& metrics() { return state_->metrics(); }
  /// Bytes currently resident against this session's memory slice.
  uint64_t resident_bytes() const { return state_->memory().resident_bytes(); }
  uint64_t memory_budget_bytes() const { return state_->memory().budget(); }
  /// The underlying runtime session (tests / advanced embedding).
  const std::shared_ptr<runtime::Session>& state() const { return state_; }

  // ---- data (attributed to this session) -----------------------------------
  Result<storage::TiledMatrix> RandomMatrix(int64_t rows, int64_t cols,
                                            int64_t block, uint64_t seed,
                                            double lo = 0.0, double hi = 10.0);
  Result<storage::TiledMatrix> RandomSparseMatrix(int64_t rows, int64_t cols,
                                                  int64_t block, uint64_t seed,
                                                  double density, int hi);
  Result<storage::BlockVector> RandomVector(int64_t size, int64_t block,
                                            uint64_t seed, double lo = 0.0,
                                            double hi = 1.0);
  Result<storage::TiledMatrix> MatrixFromLocal(const la::Tile& local,
                                               int64_t block);
  Result<la::Tile> ToLocal(const storage::TiledMatrix& m);
  Result<std::vector<double>> ToLocal(const storage::BlockVector& v);

  // ---- bindings (this session's namespace only) ----------------------------
  void Bind(const std::string& name, storage::TiledMatrix m);
  void Bind(const std::string& name, storage::BlockVector v);
  void Bind(const std::string& name, storage::CooMatrix c);
  void BindScalar(const std::string& name, double v);
  void BindScalar(const std::string& name, int64_t v);
  void BindLocal(const std::string& name, runtime::Value v);
  void Unbind(const std::string& name);
  const planner::Bindings& bindings() const { return binds_; }

  // ---- compile & run -------------------------------------------------------
  /// Same contract as Sac::Eval, against this session's bindings, under
  /// this session's admission ticket, attribution and task queue.
  Result<planner::QueryResult> Eval(const std::string& src);
  Result<storage::TiledMatrix> EvalTiled(const std::string& src);
  Result<storage::BlockVector> EvalVector(const std::string& src);
  Result<double> EvalScalar(const std::string& src);

  /// Predicted shuffle bytes for queries evaluated through this session.
  const std::map<std::string, double>& predicted_shuffle_bytes() const {
    return predicted_shuffle_bytes_;
  }

 private:
  friend class Sac;
  Session(Sac* owner, std::shared_ptr<runtime::Session> state)
      : owner_(owner), state_(std::move(state)) {}

  Sac* owner_;
  std::shared_ptr<runtime::Session> state_;
  planner::Bindings binds_;
  std::map<std::string, double> predicted_shuffle_bytes_;
};

}  // namespace sac

#endif  // SAC_API_SAC_H_
