// The DISC (Data-Intensive Scalable Computing) engine: a multi-threaded,
// shared-nothing-style dataflow runtime with the Spark RDD operator set the
// paper's translator targets -- map/flatMap/filter/mapPartitions (narrow),
// reduceByKey/groupByKey/join/cogroup/partitionBy (wide, with a real
// serialize-route-deserialize hash shuffle), plus parallelize/collect.
//
// Fidelity notes (see DESIGN.md):
//  * Wide operators route every record to a destination partition. Records
//    bound for a partition on a *different* executor are serialized into
//    per-destination byte buffers and deserialized on the "reduce side",
//    so cross-executor volume costs real work and is metered exactly.
//    Records bound for a partition on the *same* executor are moved as
//    Values (volume metered via SerializedSize into local_shuffle_bytes)
//    -- on a real cluster those records never touch the wire either
//    (DESIGN.md section 8).
//  * reduceByKey performs map-side combining before the shuffle, exactly
//    the property Section 4 of the paper relies on when preferring it over
//    groupByKey.
//  * Datasets are evaluated eagerly but record their lineage. Recovery is
//    a real subsystem (DESIGN.md section 9, docs/FAULT_MODEL.md): a seeded
//    FaultPlan (SAC_FAULT_PLAN) can kill any task attempt at named points;
//    killed attempts are retried with bounded exponential backoff
//    (ClusterConfig::max_task_attempts / retry_*_delay_us); a lost
//    partition is recomputed from its parents recursively; and
//    Checkpoint() materializes a dataset to spill files and truncates its
//    lineage so iterative loops don't grow unbounded recompute chains.
//  * Reduce-side folds iterate buckets in source-partition order, so
//    results are deterministic regardless of thread scheduling.
//  * Materialized partitions live in a budgeted block store
//    (src/runtime/memory.h, docs/MEMORY_MODEL.md): each registers its
//    serialized footprint against ClusterConfig::memory_budget_bytes /
//    SAC_MEM_BUDGET; under pressure cold partitions spill to disk (LRU)
//    and reload transparently on next access, so working sets larger
//    than the budget run out-of-core with byte-identical results. Task
//    reads hold pins so in-flight partitions are never evicted.
//  * The engine is a multi-tenant query service (docs/SERVICE.md):
//    clients open Sessions (per-session metrics attribution, memory
//    slice, and fair-scheduled task queue), and up to
//    ClusterConfig::max_concurrent_queries queries execute concurrently
//    under a ticket-based admission gate. Because reduce-side folds are
//    deterministic and partitions publish atomically, concurrent queries
//    produce byte-identical results to serial runs.
#ifndef SAC_RUNTIME_ENGINE_H_
#define SAC_RUNTIME_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/pool.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/common/trace.h"
#include "src/runtime/memory.h"
#include "src/runtime/partitioner.h"
#include "src/runtime/recovery.h"
#include "src/runtime/session.h"
#include "src/runtime/value.h"

namespace sac::la {
class KernelBackend;
}  // namespace sac::la

namespace sac::net {
class TcpServer;
}  // namespace sac::net

namespace sac::dist {
class Coordinator;
class WorkerState;
}  // namespace sac::dist

namespace sac::runtime {

/// Shape of the simulated cluster. Executors matter only for shuffle
/// accounting (records moving between partitions owned by different
/// executors count as network traffic); cores size the thread pool.
struct ClusterConfig {
  int num_executors = 4;
  int cores_per_executor = 1;
  int default_parallelism = 8;  // partitions created by Parallelize

  // ---- Fault tolerance (DESIGN.md section 9, docs/FAULT_MODEL.md) ----
  // Attempts per task including the first; injected faults (kCancelled)
  // are retried up to this bound, real task errors are not retried.
  int max_task_attempts = 3;
  // Backoff slept before attempt k+1 is base * 2^(k-1), capped at max.
  int retry_base_delay_us = 200;
  int retry_max_delay_us = 20000;
  // Auto-checkpoint every K-th rebinding of a loop target in
  // Sac::EvalLoop (0 = never). See Engine::Checkpoint.
  int checkpoint_interval = 0;
  // Directory for checkpoint spill files; "" = the system temp dir.
  std::string checkpoint_dir = "";

  // ---- Memory / out-of-core (DESIGN.md section 10, MEMORY_MODEL.md) ---
  // Cap on resident materialized-partition bytes, engine-wide, metered
  // via Value::SerializedSize. 0 = unlimited. Under pressure the block
  // store trims the shuffle buffer pools, then evicts least-recently-
  // used unpinned partitions to spill files; they reload transparently
  // on next access (or recompute from lineage if the spill is lost).
  // The SAC_MEM_BUDGET env var ("256M", "1G", plain bytes) overrides
  // this at engine construction.
  uint64_t memory_budget_bytes = 0;
  // Base directory under which this engine creates its private spill
  // directory (eviction + default-located checkpoint files, removed on
  // engine destruction); "" = checkpoint_dir, then the system temp dir.
  std::string spill_dir = "";

  // ---- Profiling (docs/PROFILING.md) ----------------------------------
  // Time-series sampler period in microseconds; 0 (default) = off. When
  // set, a background thread records resident/spilled/pool bytes,
  // in-flight tasks and cumulative evictions/shuffle bytes as trace
  // counter events every interval, so memory behavior lands on the same
  // Perfetto timeline as the spans. The SAC_SAMPLE_INTERVAL_US env var
  // overrides this at engine construction.
  int sample_interval_us = 0;

  // ---- Query service (docs/SERVICE.md) --------------------------------
  // Queries holding a live admission ticket at once; later queries block
  // in Engine::AdmitQuery until a slot frees. 1 restores the old
  // serialized one-query-at-a-time behavior. The SAC_MAX_CONCURRENT env
  // var overrides this at engine construction (clamped to >= 1).
  int max_concurrent_queries = 4;
  // Default per-session resident-byte slice handed to OpenSession when
  // the caller does not pass one (0 = unlimited). Enforced by the block
  // store on top of memory_budget_bytes: a session over its slice evicts
  // its own LRU partitions, never another session's. The
  // SAC_SESSION_MEM_BUDGET env var ("256M", "1G", plain bytes) overrides
  // this at engine construction.
  uint64_t session_memory_budget_bytes = 0;

  // ---- Kernel backend (docs/KERNELS.md) -------------------------------
  // Tile kernel implementation the planner dispatches through: "packed"
  // (the native path: blocked restrict'd loops and the register-tiled
  // panel-packing GEMM) or "jvmlike" (virtual-dispatch MLlib model).
  // "" = the default ("packed"); unknown names log a warning and fall
  // back to the default. After construction config().kernel_backend
  // holds the effective name.
  std::string kernel_backend = "";

  // ---- Distributed runtime (docs/DISTRIBUTED.md) ----------------------
  // Transport carrying shuffle buckets between the driver and workers:
  // "loopback" (in-process, full frame-codec round trip, the default) or
  // "tcp" (framed stream sockets). Ignored unless `workers` is set. The
  // SAC_TRANSPORT env var overrides this at engine construction; after
  // construction the field holds the effective name.
  std::string transport = "";
  // Worker set hosting shuffle buckets. "" (default) = no distributed
  // runtime: the engine is the single process it always was, bit for
  // bit. "N" (a count) = N in-process workers behind the configured
  // transport (tcp binds one 127.0.0.1 ephemeral-port server each).
  // "host:port,host:port,..." = external sac_worker processes (implies
  // tcp). The SAC_WORKERS env var overrides this at construction.
  std::string workers = "";
  // Worker liveness: the coordinator pings every worker each
  // heartbeat_interval_ms; heartbeat_timeout_ms of silence marks it
  // dead (workers_lost), re-placing its executors onto survivors.
  // interval <= 0 disables the background heartbeat thread.
  int heartbeat_interval_ms = 100;
  int heartbeat_timeout_ms = 1000;

  int TotalCores() const { return num_executors * cores_per_executor; }
};

using Partition = ValueVec;

class Engine;

/// One node in the lineage DAG. Created only through Engine operators.
class DatasetImpl {
 public:
  enum class OpKind {
    kSource,
    kNarrow,    // per-partition function of the single parent partition
    kShuffle,   // keyed shuffle of one parent (reduceByKey/groupByKey/partitionBy)
    kCoShuffle, // keyed shuffle of two parents (join/cogroup)
    kUnion,
  };

  int num_partitions() const { return static_cast<int>(parts_.size()); }
  const std::string& label() const { return label_; }
  /// Where a shuffle placed this node's rows (the hash partitioner for
  /// non-shuffle nodes).
  const Partitioner& partitioner() const { return partitioner_; }
  /// Index of this node's stage in Engine::stages() (see StageRegistry).
  int stage_id() const { return stage_.id; }

  /// Drop the materialized data of one partition (tests / coarse fault
  /// injection; mid-task failures go through the engine's FaultPlan).
  /// Also discards the partition's block-store registration and any
  /// eviction spill, so recovery really recomputes from lineage.
  void InvalidatePartition(int i);
  bool IsAvailable(int i) const { return available_[i] != 0; }

  /// True once Engine::Checkpoint truncated this node's lineage: it is a
  /// source whose partitions restore from spill files, not from parents.
  bool checkpointed() const { return checkpointed_; }

  // Unregisters from the block store (dropping eviction spills) and
  // removes this node's checkpoint spill files.
  ~DatasetImpl();

 private:
  friend class Engine;
  OpKind kind_ = OpKind::kSource;
  std::string label_;
  StageRef stage_;  // per-stage metrics attribution (generation-tagged)
  // Shuffle placement, fixed at creation so lineage recompute, single-
  // partition recovery and the distributed re-push route rows alike.
  Partitioner partitioner_;
  std::vector<std::shared_ptr<DatasetImpl>> parents_;
  std::vector<Partition> parts_;
  // uint8_t, not bool: reduce tasks mark distinct partitions available from
  // pool threads in parallel, and vector<bool> packs bits into shared words.
  std::vector<uint8_t> available_;

  // Recompute closures (captured at operator creation) by kind:
  // narrow: output partition i from parent partition i.
  std::function<Status(const Partition& in, Partition* out)> narrow_fn_;
  // shuffle: output partition i from *all* parent partitions.
  std::function<Status(Engine* eng, DatasetImpl* self, int out_part)>
      wide_fn_;

  // Checkpoint state (Engine::Checkpoint): when checkpointed_, wide_fn_
  // reloads partition i from spill_paths_[i] instead of recomputing.
  bool checkpointed_ = false;
  std::vector<std::string> spill_paths_;

  // The owning engine's block store (shared so teardown order between
  // engine and datasets is a non-issue); every materialized partition is
  // registered here against the memory budget.
  std::shared_ptr<memory::BlockStore> store_;

  // The session this dataset was created under (Session::Current() at
  // NewDataset time; nullptr outside any session). Shared so the
  // session's metrics sink and memory slice outlive the facade while any
  // of its datasets remain; worker-side publishes and queue routing read
  // it instead of thread-local state.
  std::shared_ptr<Session> session_;
};

using Dataset = std::shared_ptr<DatasetImpl>;

/// Row-level functions used by narrow operators. They must be thread-safe
/// (they run concurrently on different partitions).
using MapFn = std::function<Value(const Value&)>;
using FlatMapFn = std::function<void(const Value&, ValueVec*)>;
using PredFn = std::function<bool(const Value&)>;
using CombineFn = std::function<Value(const Value&, const Value&)>;
using PartitionFn = std::function<Status(const Partition&, Partition*)>;

class Engine {
 public:
  /// ClusterConfig carries the retry/checkpoint policy too; `Config` is
  /// the conventional name at the engine API boundary.
  using Config = ClusterConfig;

  explicit Engine(ClusterConfig config = ClusterConfig());

  /// Shuts the block store down (SAC_CHECKing that no partition is still
  /// pinned) and removes this engine's spill directory -- eviction
  /// spills, default-located checkpoint spills, and the directory itself.
  ~Engine();

  const ClusterConfig& config() const { return config_; }
  Metrics& metrics() { return metrics_; }
  StageRegistry& stages() { return stages_; }
  trace::Tracer& tracer() { return tracer_; }
  ThreadPool& pool() { return pool_; }

  /// Kernel backend resolved at construction from config.kernel_backend
  /// (never null; see docs/KERNELS.md).
  const la::KernelBackend* kernel_backend() const { return kernel_backend_; }

  /// The memory manager + block store enforcing
  /// config().memory_budget_bytes over every materialized partition
  /// (docs/MEMORY_MODEL.md). Exposed for admission-priority hints
  /// (Sac::EvalLoop), tests, and reports.
  memory::BlockStore& block_store() { return *store_; }

  // ---- Distributed runtime (docs/DISTRIBUTED.md) ----------------------
  /// True when config().workers is set: shuffle buckets live on worker
  /// processes behind a transport instead of in driver memory.
  bool distributed() const { return coord_ != nullptr; }
  /// The placement/liveness/RPC brain; nullptr unless distributed().
  dist::Coordinator* coordinator() { return coord_.get(); }
  /// In-process worker `i` when config().workers was a count ("3");
  /// nullptr otherwise. Tests use this to inject worker faults
  /// (WorkerState::FailAfter) without separate processes.
  dist::WorkerState* local_worker(int i) {
    return i >= 0 && i < static_cast<int>(local_workers_.size())
               ? local_workers_[i].get()
               : nullptr;
  }

  // ---- Query service (docs/SERVICE.md) --------------------------------
  /// Opens a runtime session: a per-session metrics sink, a memory-slice
  /// budget (`memory_budget_bytes`; the overload without it uses
  /// config().session_memory_budget_bytes; 0 = unlimited), and a
  /// fair-scheduled pool queue. Install it with Session::Scope around
  /// data creation and query execution so NewDataset attributes to it.
  /// Sessions are typically opened through Sac::OpenSession, which adds
  /// the bindings/Eval surface on top.
  std::shared_ptr<Session> OpenSession(const std::string& name,
                                       uint64_t memory_budget_bytes);
  std::shared_ptr<Session> OpenSession(const std::string& name) {
    return OpenSession(name, config_.session_memory_budget_bytes);
  }

  /// Blocks until an admission slot (config().max_concurrent_queries) is
  /// free and returns the live RAII ticket. Metered as queries_admitted /
  /// queries_queued on the engine Metrics plus `session` when given.
  AdmissionGate::Ticket AdmitQuery(Metrics* session = nullptr) {
    return admission_->Admit(MeterSink(&metrics_, nullptr, session));
  }

  /// Queries holding a live admission ticket right now (includes the
  /// compile phase, unlike in_flight() which counts executing operators).
  int live_queries() const { return admission_->live(); }

  // ---- Shuffle hot path ----------------------------------------------
  /// Pools backing the shuffle: per-destination serialization buffers and
  /// zero-copy row scratch, checked out per map-side task and returned
  /// when the stage's buckets are consumed (RAII -- error paths return
  /// them too). Exposed for tests and reports.
  VectorPool<uint8_t>& shuffle_buffer_pool() { return byte_pool_; }
  VectorPool<Value>& row_scratch_pool() { return row_pool_; }

  /// Number of currently executing engine operators; 0 whenever the
  /// engine is quiescent. Under concurrent admission several operators
  /// (from different queries) may be in flight at once; ResetStats()
  /// checks this AND live_queries() to fail loudly on the documented
  /// "never concurrently with a query" contract.
  int64_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }

  // ---- Observability --------------------------------------------------
  /// Clears totals, per-stage stats and the trace buffer in one step
  /// (call between measured runs; never concurrently with a query --
  /// violating that aborts with a CHECK failure instead of silently
  /// corrupting per-stage stats). "Concurrently with a query" means any
  /// executing operator (in_flight() > 0) or any live admission ticket
  /// (live_queries() > 0) -- a ticket held during the compile phase
  /// counts, since its run phase would otherwise race the reset.
  void ResetStats();

  /// Human-readable per-stage metrics table (one row per operator run),
  /// plus a trailing truncation notice when the trace span buffers
  /// overflowed (so a silently clipped trace never masquerades as a
  /// complete one).
  std::string ReportString() const {
    std::string s = stages_.ReportString();
    if (const uint64_t d = tracer_.dropped_events(); d > 0) {
      s += "trace: dropped_events=" + std::to_string(d) +
           " (per-thread span buffer cap reached; raise "
           "Tracer::set_buffer_capacity)\n";
    }
    return s;
  }

  /// Prints the lineage DAG of `ds` with the observed per-node metrics
  /// (shuffle bytes, records, tasks, recomputes) inline.
  std::string ExplainWithStats(const Dataset& ds);

  /// Chrome trace-event JSON of everything traced so far (load in
  /// chrome://tracing or Perfetto). Does not clear the buffer.
  std::string ChromeTraceJson() const {
    return trace::Tracer::ToChromeJson(tracer_.Snapshot(),
                                       tracer_.dropped_events());
  }
  /// Writes ChromeTraceJson() to `path`.
  Status WriteChromeTrace(const std::string& path) const;

  /// Versioned machine-readable profile (docs/PROFILING.md) of
  /// everything traced so far: stage tree, critical path, per-stage
  /// counters, sampler time-series. `wall_ms_hint` is the externally
  /// measured wall-clock the coverage is reported against (0 = trace
  /// extent); `query` tags the document. Does not clear the buffer.
  std::string ProfileJson(double wall_ms_hint = 0,
                          const std::string& query = "") const;
  /// Writes ProfileJson() to `path`.
  Status WriteProfile(const std::string& path, double wall_ms_hint = 0,
                      const std::string& query = "") const;

  // ---- Sources ------------------------------------------------------
  /// Distributes `rows` round-robin over `num_partitions` partitions
  /// (<=0 means config().default_parallelism).
  Dataset Parallelize(ValueVec rows, int num_partitions = -1);

  /// Builds each partition from a generator function (parallel).
  Result<Dataset> GeneratePartitions(
      int num_partitions,
      const std::function<Status(int, Partition*)>& gen,
      const std::string& label = "generate");

  // ---- Narrow transformations ---------------------------------------
  Result<Dataset> Map(const Dataset& in, MapFn fn,
                      const std::string& label = "map");
  Result<Dataset> FlatMap(const Dataset& in, FlatMapFn fn,
                          const std::string& label = "flatMap");
  Result<Dataset> Filter(const Dataset& in, PredFn pred,
                         const std::string& label = "filter");
  Result<Dataset> MapPartitions(const Dataset& in, PartitionFn fn,
                                const std::string& label = "mapPartitions");
  Result<Dataset> Union(const Dataset& a, const Dataset& b);

  // ---- Wide (shuffling) transformations ------------------------------
  // All of these expect rows shaped as pairs (key, value). `part` places
  // each key (partitioner.h): grid coordinates when the caller knows the
  // key grid, the value hash otherwise. `num_partitions` <= 0 takes the
  // inputs' partition count.

  /// Spark's reduceByKey(combine): map-side combine per partition,
  /// shuffle of the partial aggregates, reduce-side fold in deterministic
  /// order. `combine` must be associative.
  Result<Dataset> ReduceByKey(const Dataset& in, CombineFn combine,
                              int num_partitions = -1,
                              const Partitioner& part = Partitioner());

  /// Spark's groupByKey: shuffles every record; output rows are
  /// (key, List[v]) with values in (source partition, row) order.
  Result<Dataset> GroupByKey(const Dataset& in, int num_partitions = -1,
                             const Partitioner& part = Partitioner());

  /// Inner join: output rows (key, (v, w)) for every matching pair.
  Result<Dataset> Join(const Dataset& a, const Dataset& b,
                       int num_partitions = -1,
                       const Partitioner& part = Partitioner());

  /// CoGroup: output rows (key, (List[v], List[w])) for keys present in
  /// either input.
  Result<Dataset> CoGroup(const Dataset& a, const Dataset& b,
                          int num_partitions = -1,
                          const Partitioner& part = Partitioner());

  /// Repartition by key without aggregation.
  Result<Dataset> PartitionBy(const Dataset& in, int num_partitions = -1,
                              const Partitioner& part = Partitioner());

  // ---- Actions --------------------------------------------------------
  /// Gathers all rows (recovering lost partitions first). Order is
  /// partition-major and deterministic.
  Result<ValueVec> Collect(const Dataset& in);
  Result<int64_t> Count(const Dataset& in);

  /// Recomputes any invalidated partitions from lineage (recursively).
  Status Recover(const Dataset& ds);

  // ---- Fault tolerance ------------------------------------------------
  /// The active fault-injection plan, parsed from SAC_FAULT_PLAN at
  /// construction (recovery::FaultPlan grammar, docs/FAULT_MODEL.md).
  /// Replace programmatically for tests; never while a query is running.
  recovery::FaultPlan& fault_plan() { return fault_plan_; }
  void set_fault_plan(recovery::FaultPlan plan) {
    fault_plan_ = std::move(plan);
  }

  /// Materializes `ds` (recovering lost partitions first) to one spill
  /// file per partition under `dir` (default: config().checkpoint_dir,
  /// falling back to the system temp dir) and truncates its lineage: the
  /// node becomes a checkpointed source whose partitions restore from
  /// disk, and its parents are released. Idempotent on a checkpointed
  /// dataset. Spill I/O is metered (checkpoint_bytes /
  /// checkpoint_restore_bytes) and traced as a "checkpoint" stage phase.
  Status Checkpoint(const Dataset& ds, const std::string& dir = "");

  /// Structural verification of `ds`'s lineage DAG: parent arity per
  /// operator kind, partition-count agreement for narrow/union nodes,
  /// availability bookkeeping, and stage-registry consistency (a stage
  /// ref from the current generation must resolve). Violations are
  /// engine bugs and come back as RuntimeError naming the node.
  Status VerifyLineage(const Dataset& ds);

 private:
  // Map-side transform applied per source partition before routing (e.g.
  // the local combine of reduceByKey); the int selects the parent (0/1).
  using MapSideFn = std::function<Result<Partition>(const Partition&, int)>;
  // Builds one output partition from the deserialized rows of each parent,
  // concatenated in source-partition order (rows_b empty for one parent).
  using ReduceSideFn =
      std::function<Status(ValueVec rows_a, ValueVec rows_b, Partition* out)>;

  Dataset NewDataset(DatasetImpl::OpKind kind, std::string label,
                     std::vector<Dataset> parents, int num_partitions);

  /// Where `ds`'s metering lands: the engine totals, its stage (absent
  /// when a StageRegistry::Reset() postdates the dataset) and its session.
  MeterSink SinkFor(const DatasetImpl* ds) {
    return MeterSink(&metrics_, stages_.Get(ds->stage_),
                     ds->session_ ? &ds->session_->metrics() : nullptr);
  }

  /// Context threaded through ParallelParts so each partition task is
  /// attributed (metrics) and traced (span) against the right stage.
  struct TaskContext {
    MeterSink sink;                 // where the tasks' counters land
    uint64_t parent_span = 0;       // stage span enclosing the tasks
    std::string label;              // stage label, prefixes task names
    const char* phase = "task";     // "task" | "shuffle-write" | ...
    // Fair-scheduling queue the stage's tasks land on: the owning
    // session's queue, or the default queue for sessionless work.
    ThreadPool::QueueId queue = ThreadPool::kDefaultQueue;
  };
  TaskContext ContextFor(DatasetImpl* ds, uint64_t parent_span,
                         const char* phase = "task") {
    return TaskContext{SinkFor(ds), parent_span, ds->label_, phase,
                       ds->session_ ? ds->session_->queue()
                                    : ThreadPool::kDefaultQueue};
  }

  /// Creates, executes and wires up a wide (shuffling) operator.
  Result<Dataset> ShuffleOp(DatasetImpl::OpKind kind, const std::string& label,
                            std::vector<Dataset> parents, int num_partitions,
                            const Partitioner& part, MapSideFn map_side,
                            ReduceSideFn reduce_side);

  /// Runs the shuffle for `ds`; only_dest >= 0 restricts to one output
  /// partition (lineage recovery), -1 computes all of them.
  Status ExecuteShuffle(DatasetImpl* ds, const MapSideFn& map_side,
                        const ReduceSideFn& reduce_side, int only_dest);

  /// One attempt of a partition task. `attempt` is 1-based; the body must
  /// be idempotent across attempts (publish no state before succeeding).
  using TaskAttemptFn = std::function<Status(int part, int attempt)>;

  /// Runs fn over partitions in parallel; collects the first error.
  /// Each task gets a span (parented to ctx.parent_span), charges its
  /// duration to the ctx.sink stage, and runs under the retry policy (see
  /// RunTaskWithRetry) -- fn may be attempted several times.
  Status ParallelParts(const TaskContext& ctx, int n,
                       const TaskAttemptFn& fn);

  /// The retry/backoff policy around one task: consult the fault plan at
  /// kPreRun, run fn, and on an *injected* failure (kCancelled) sleep
  /// base*2^(k-1) (capped) and try again, up to
  /// config().max_task_attempts. Retries and backoff time are metered
  /// (tasks_retried, retry_wait_us) and traced as "retry:<label>"
  /// instants; exhausting the budget surfaces a RuntimeError naming the
  /// task. Real task errors pass through untouched on the first attempt.
  /// ctx.sink is the thread's current MeterSink while fn runs, so kernel
  /// counters metered inside run closures land on the task's stage.
  Status RunTaskWithRetry(const TaskContext& ctx, int part,
                          const TaskAttemptFn& fn);

  /// Consults the fault plan at `point` for (ctx.label, part, attempt),
  /// metering an injected fault into ctx.sink.
  Status CheckFault(recovery::FaultPoint point, const TaskContext& ctx,
                    int part, int attempt);

  Status RecomputePartition(DatasetImpl* ds, int i);

  // ---- Memory / out-of-core (docs/MEMORY_MODEL.md) --------------------
  /// RAII pin on one partition's rows: while alive, the block store will
  /// not evict them. Obtained only through PinPartition, which also
  /// reloads evicted partitions (or recomputes them when their spill is
  /// unreadable) before pinning.
  class PartitionPin {
   public:
    PartitionPin() = default;
    PartitionPin(memory::BlockStore* store, DatasetImpl* ds, int part,
                 const Partition* rows)
        : store_(store), ds_(ds), part_(part), rows_(rows) {}
    ~PartitionPin() {
      if (store_) store_->Unpin(ds_, part_);
    }
    PartitionPin(PartitionPin&& o) noexcept
        : store_(o.store_), ds_(o.ds_), part_(o.part_), rows_(o.rows_) {
      o.store_ = nullptr;
    }
    PartitionPin& operator=(PartitionPin&& o) noexcept {
      if (this != &o) {
        if (store_) store_->Unpin(ds_, part_);
        store_ = o.store_;
        ds_ = o.ds_;
        part_ = o.part_;
        rows_ = o.rows_;
        o.store_ = nullptr;
      }
      return *this;
    }
    PartitionPin(const PartitionPin&) = delete;
    PartitionPin& operator=(const PartitionPin&) = delete;

    const Partition& rows() const { return *rows_; }

   private:
    memory::BlockStore* store_ = nullptr;
    DatasetImpl* ds_ = nullptr;
    int part_ = -1;
    const Partition* rows_ = nullptr;
  };

  /// The only sanctioned read access to a materialized partition:
  /// recomputes it if unavailable, reloads it if evicted (falling back
  /// to lineage recomputation when the spill file is unreadable), and
  /// pins it for the lifetime of the returned handle.
  Result<PartitionPin> PinPartition(DatasetImpl* ds, int i);

  /// The only sanctioned write: installs `rows` as partition `i` of
  /// `ds`, marks it available, and registers its footprint with the
  /// block store (which may evict cold partitions to stay on budget).
  Status PublishPartition(DatasetImpl* ds, int i, Partition rows);

  /// Block-store event sink: attributes evictions/reloads to the owning
  /// stage's metrics and emits "evict:"/"reload:" trace instants.
  void MeterBlockEvent(const memory::BlockEvent& ev);

  /// Mirrors the store's resident-bytes high-water mark into Metrics
  /// (called after publish/pin, the only points residency grows).
  void SyncPeakResident() {
    metrics_.Add(Counter::kPeakResidentBytes, store_->peak_resident_bytes());
  }

  // Map-side shuffle helper: routes `rows` of source partition src_part
  // into per-destination buckets, accounting metrics. Destinations on the
  // same executor receive the Values themselves (zero-copy, volume
  // metered via SerializedSize into local_shuffle_bytes); remote
  // destinations receive serialized bytes (metered into shuffle_bytes /
  // cross_executor_bytes). For a given (src, dest) pair all rows take the
  // same route. Buckets hold pooled buffers; destroying them returns the
  // buffers.
  struct ShuffleBuckets {
    std::vector<PooledVec<uint8_t>> remote_by_dest;  // serialized records
    std::vector<PooledVec<Value>> local_by_dest;     // zero-copy records
    uint64_t records = 0;
    // Per-destination record and (serialized) byte counts: the stage's
    // partition balance (StageStats::AddPartitionCounts).
    std::vector<uint64_t> dest_records;
    std::vector<uint64_t> dest_bytes;
  };
  // The ctx + attempt let the row loop consult the fault plan at
  // kShuffleSerialize mid-serialization (before any metering, so a killed
  // attempt leaves the counters untouched).
  Result<ShuffleBuckets> BucketRows(const TaskContext& ctx, Partition rows,
                                    int src_part, int num_dest,
                                    const Partitioner& part, int attempt);

  /// RAII marker for a running operator; makes ResetStats() misuse loud.
  /// This counts *operators*, not queries -- several may be live at once
  /// under concurrent admission (the AdmissionGate bounds queries).
  struct InFlightScope {
    explicit InFlightScope(Engine* e) : eng(e) {
      eng->in_flight_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~InFlightScope() {
      eng->in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    }
    InFlightScope(const InFlightScope&) = delete;
    InFlightScope& operator=(const InFlightScope&) = delete;
    Engine* eng;
  };

  int ExecutorOf(int partition) const {
    return partition % config_.num_executors;
  }

  // ---- Distributed runtime (docs/DISTRIBUTED.md) ----------------------
  /// Builds the worker set + transport + coordinator from
  /// config().workers / config().transport (after env resolution); no-op
  /// when workers is empty. Fails fast if any worker is unreachable.
  Status SetupDistributed();
  /// Pushes every remote bucket of `bs` (src partition `src` of parent
  /// `p`) to the worker hosting its destination executor, then releases
  /// the driver-side buffer -- in distributed mode remote bucket bytes
  /// live on workers, so every cross-executor byte crosses the
  /// transport. Local (same-executor) buckets stay in driver memory.
  Status PushShuffleBuckets(const MeterSink& sink, uint64_t shuffle_id,
                            int p, int src, ShuffleBuckets* bs);

  // ---- Time-series sampler (ClusterConfig::sample_interval_us) --------
  /// Starts the sampler thread when the configured interval is > 0.
  void StartSampler();
  /// Stops and joins the sampler thread (idempotent; called first in
  /// ~Engine so no sample races member teardown).
  void StopSampler();
  void SamplerLoop();
  /// Records one "engine" counter event (resident/spilled/pool bytes,
  /// in-flight tasks, cumulative evictions + shuffle bytes). All reads
  /// are lock-free gauges or short-critical-section accessors.
  void SampleOnce();

  ClusterConfig config_;
  ThreadPool pool_;
  Metrics metrics_;
  StageRegistry stages_;
  trace::Tracer tracer_;
  VectorPool<uint8_t> byte_pool_;
  VectorPool<Value> row_pool_;
  std::atomic<int64_t> in_flight_{0};
  // Created in the constructor after SAC_MAX_CONCURRENT is resolved.
  std::unique_ptr<AdmissionGate> admission_;
  std::atomic<uint64_t> next_session_id_{1};
  const la::KernelBackend* kernel_backend_ = nullptr;
  recovery::FaultPlan fault_plan_;
  // Shared with every DatasetImpl so dataset teardown can unregister in
  // any destruction order; ~Engine shuts it down.
  std::shared_ptr<memory::BlockStore> store_;
  std::string spill_dir_;  // this engine's private spill directory

  // ---- Distributed runtime (docs/DISTRIBUTED.md) ----------------------
  // ~Engine tears these down coordinator-first (stop RPCs and the
  // heartbeat), then the in-process servers (join service threads), then
  // the worker states the servers' handlers point at.
  std::vector<std::unique_ptr<dist::WorkerState>> local_workers_;
  std::vector<std::unique_ptr<net::TcpServer>> local_servers_;
  std::unique_ptr<dist::Coordinator> coord_;

  // SAC_TRACE destination (Chrome trace auto-written at teardown);
  // subsequent engines in one process get a numbered suffix so they
  // don't clobber each other. Empty = disabled.
  std::string auto_trace_path_;
  std::thread sampler_;
  std::mutex sampler_mu_;
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;  // guarded by sampler_mu_
};

}  // namespace sac::runtime

#endif  // SAC_RUNTIME_ENGINE_H_
