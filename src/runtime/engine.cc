#include "src/runtime/engine.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "src/common/logging.h"
#include "src/common/profile.h"
#include "src/common/serialize.h"
#include "src/dist/coordinator.h"
#include "src/dist/protocol.h"
#include "src/dist/worker.h"
#include "src/la/backend.h"
#include "src/net/loopback.h"
#include "src/net/tcp.h"
#include "src/storage/spill.h"

namespace sac::runtime {

namespace {

const char* KindName(DatasetImpl::OpKind kind) {
  switch (kind) {
    case DatasetImpl::OpKind::kSource:
      return "source";
    case DatasetImpl::OpKind::kNarrow:
      return "narrow";
    case DatasetImpl::OpKind::kShuffle:
      return "shuffle";
    case DatasetImpl::OpKind::kCoShuffle:
      return "coshuffle";
    case DatasetImpl::OpKind::kUnion:
      return "union";
  }
  return "?";
}

/// Insertion-ordered key index: maps keys to dense slots so reduce-side
/// folds produce rows in first-seen order (deterministic output).
class KeySlots {
 public:
  size_t SlotFor(const Value& key) {
    auto it = index_.find(key);
    if (it != index_.end()) return it->second;
    const size_t slot = keys_.size();
    index_.emplace(key, slot);
    keys_.push_back(key);
    return slot;
  }
  const std::vector<Value>& keys() const { return keys_; }
  size_t size() const { return keys_.size(); }

 private:
  std::unordered_map<Value, size_t, ValueHash, ValueEq> index_;
  std::vector<Value> keys_;
};

Status ExpectPair(const Value& row) {
  if (!row.is_pair()) {
    return Status::RuntimeError(
        "wide operator expects (key, value) rows, got " + row.ToString());
  }
  return Status::OK();
}

/// Base directory for spill files when neither the call nor the config
/// names one.
std::string DefaultSpillDir() {
  const char* t = std::getenv("TMPDIR");
  return (t != nullptr && *t != '\0') ? std::string(t) : std::string("/tmp");
}

/// SAC_SAMPLE_INTERVAL_US: non-negative integer microseconds overriding
/// ClusterConfig::sample_interval_us (0 = sampler off). Unset or
/// unparseable keeps the config value.
int SampleIntervalFromEnv(int fallback) {
  const char* v = std::getenv("SAC_SAMPLE_INTERVAL_US");
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || parsed < 0) return fallback;
  return static_cast<int>(parsed);
}

/// SAC_MAX_CONCURRENT: positive integer overriding
/// ClusterConfig::max_concurrent_queries (1 = serialized admission).
/// Unset or unparseable keeps the config value; everything is clamped
/// to >= 1.
int MaxConcurrentFromEnv(int fallback) {
  const char* v = std::getenv("SAC_MAX_CONCURRENT");
  int result = fallback;
  if (v != nullptr && *v != '\0') {
    char* end = nullptr;
    const long parsed = std::strtol(v, &end, 10);
    if (end != v && *end == '\0' && parsed > 0) {
      result = static_cast<int>(parsed);
    } else {
      SAC_LOG(Warn) << "ignoring unparseable SAC_MAX_CONCURRENT='" << v
                    << "'";
    }
  }
  return result < 1 ? 1 : result;
}

/// SAC_KERNEL_BACKEND ("generic" | "packed" | "jvmlike") wins over the
/// config field; empty/unset falls through to the config, then to the
/// "packed" default. Unknown names warn and take the default rather than
/// failing the run.
const la::KernelBackend* KernelBackendFromEnv(const std::string& config_name) {
  const char* env = std::getenv("SAC_KERNEL_BACKEND");
  const std::string name =
      (env != nullptr && *env != '\0') ? std::string(env) : config_name;
  if (name.empty()) return la::GetBackend(la::BackendKind::kPacked);
  const la::KernelBackend* kb = la::FindBackend(name);
  if (kb == nullptr) {
    SAC_LOG(Warn) << "unknown kernel backend '" << name
                  << "' (expected generic|packed|jvmlike); using packed";
    return la::GetBackend(la::BackendKind::kPacked);
  }
  return kb;
}

/// SAC_TRANSPORT ("loopback" | "tcp") wins over the config field; empty
/// or unset falls through to the config, then to "loopback". Unknown
/// names warn and take the default rather than failing the run.
std::string TransportFromEnv(const std::string& config_name) {
  const char* env = std::getenv("SAC_TRANSPORT");
  std::string name =
      (env != nullptr && *env != '\0') ? std::string(env) : config_name;
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  if (name.empty()) return "loopback";
  if (name != "loopback" && name != "tcp") {
    SAC_LOG(Warn) << "unknown transport '" << name
                  << "' (expected loopback|tcp); using loopback";
    return "loopback";
  }
  return name;
}

/// SAC_WORKERS wins over the config field: "" = no distributed runtime,
/// "N" = N in-process workers, "host:port,..." = external workers.
std::string WorkersFromEnv(const std::string& config_value) {
  const char* env = std::getenv("SAC_WORKERS");
  return env != nullptr ? std::string(env) : config_value;
}

/// True when `spec` is a plain worker count ("3") rather than an
/// address list.
bool IsWorkerCount(const std::string& spec) {
  if (spec.empty()) return false;
  for (char c : spec) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

std::vector<std::string> SplitAddrs(const std::string& spec) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : spec) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// SAC_TRACE=<path>: auto-write the Chrome trace at engine teardown.
/// Each engine after the first in one process gets "<path>.<k>" so
/// multi-engine runs (benches, tests) keep every trace.
std::string TracePathFromEnv() {
  const char* v = std::getenv("SAC_TRACE");
  if (v == nullptr || *v == '\0') return "";
  static std::atomic<uint64_t> seq{0};
  const uint64_t k = seq.fetch_add(1, std::memory_order_relaxed);
  return k == 0 ? std::string(v)
                : std::string(v) + "." + std::to_string(k);
}

}  // namespace

DatasetImpl::~DatasetImpl() {
  if (store_) store_->Unregister(this);
  for (const std::string& p : spill_paths_) storage::RemoveSpill(p);
}

void DatasetImpl::InvalidatePartition(int i) {
  available_[i] = 0;
  // Drop the block registration (and any eviction spill) too: a spilled
  // copy of an "invalidated" partition would defeat the point of forcing
  // lineage recovery.
  if (store_) store_->Discard(this, i);
}

Engine::Engine(ClusterConfig config)
    : config_(config), pool_(static_cast<size_t>(config.TotalCores())) {
  SAC_CHECK_GE(config_.num_executors, 1);
  SAC_CHECK_GE(config_.cores_per_executor, 1);
  SAC_CHECK_GE(config_.default_parallelism, 1);
  SAC_CHECK_GE(config_.max_task_attempts, 1);
  SAC_CHECK_GE(config_.retry_base_delay_us, 0);
  SAC_CHECK_GE(config_.retry_max_delay_us, 0);
  SAC_CHECK_GE(config_.checkpoint_interval, 0);
  SetLogLevelFromEnv();
  fault_plan_ = recovery::FaultPlan::FromEnv();
  config_.sample_interval_us =
      SampleIntervalFromEnv(config_.sample_interval_us);
  auto_trace_path_ = TracePathFromEnv();
  // Effective backend: env > config > default; the config reflects the
  // effective name so planner/cost-model consumers see what actually runs.
  kernel_backend_ = KernelBackendFromEnv(config_.kernel_backend);
  config_.kernel_backend = std::string(kernel_backend_->name());

  // Effective budget: SAC_MEM_BUDGET wins over the config field; the
  // config reflects the effective value so callers (and SAC-W06) see it.
  config_.memory_budget_bytes =
      memory::BudgetFromEnv(config_.memory_budget_bytes);
  // Query service knobs resolve the same way: env > config, and the
  // config reflects the effective values.
  config_.max_concurrent_queries =
      MaxConcurrentFromEnv(config_.max_concurrent_queries);
  config_.session_memory_budget_bytes = memory::BudgetFromEnv(
      "SAC_SESSION_MEM_BUDGET", config_.session_memory_budget_bytes);
  admission_ =
      std::make_unique<AdmissionGate>(config_.max_concurrent_queries);
  const std::string base = !config_.spill_dir.empty() ? config_.spill_dir
                           : !config_.checkpoint_dir.empty()
                               ? config_.checkpoint_dir
                               : DefaultSpillDir();
  // Unique per process + engine so concurrent engines (tests) never
  // collide, and ~Engine can reclaim the whole directory.
  static std::atomic<uint64_t> next_engine{0};
  spill_dir_ = base + "/sac-spill-" + std::to_string(::getpid()) + "-" +
               std::to_string(
                   next_engine.fetch_add(1, std::memory_order_relaxed));
  memory::BlockStore::Options store_opts;
  store_opts.budget_bytes = config_.memory_budget_bytes;
  store_opts.spill_dir = spill_dir_;
  store_ = std::make_shared<memory::BlockStore>(std::move(store_opts));
  store_->set_event_sink(
      [this](const memory::BlockEvent& ev) { MeterBlockEvent(ev); });
  // The shuffle buffer pools return their freelist bytes to the same
  // budget: under pressure they are trimmed before any partition spills.
  store_->set_reclaimable(
      [this] {
        return static_cast<uint64_t>(byte_pool_.free_bytes()) +
               static_cast<uint64_t>(row_pool_.free_bytes());
      },
      [this] {
        byte_pool_.Trim();
        row_pool_.Trim();
      });
  // Distributed runtime (docs/DISTRIBUTED.md): env > config, and the
  // config reflects the effective values. A misconfigured cluster (an
  // unreachable worker) fails engine construction loudly rather than
  // failing the first shuffle obscurely.
  const Status dist_st = SetupDistributed();
  if (!dist_st.ok()) {
    SAC_LOG(Error) << "distributed setup failed: " << dist_st.ToString();
  }
  SAC_CHECK(dist_st.ok());
  StartSampler();
}

Engine::~Engine() {
  // Sampler first: nothing may touch the store/pools/tracer mid-teardown.
  StopSampler();
  // Distributed teardown, coordinator-first: stop the heartbeat and
  // drop the transport (closing pooled connections), then stop the
  // in-process servers (joining their service threads), then free the
  // worker states the handlers point at. External sac_worker processes
  // are left running -- their lifecycle belongs to whoever spawned them.
  coord_.reset();
  local_servers_.clear();
  local_workers_.clear();
  if (!auto_trace_path_.empty()) {
    Status st = WriteChromeTrace(auto_trace_path_);
    if (!st.ok()) {
      SAC_LOG(Warn) << "SAC_TRACE: " << st.ToString();
    } else {
      SAC_LOG(Info) << "SAC_TRACE: wrote " << auto_trace_path_;
    }
  }
  store_->Shutdown();
  // Checkpoints written without an explicit dir land in spill_dir_ too,
  // so this reclaims every file the engine ever spilled.
  storage::RemoveSpillDir(spill_dir_);
}

Status Engine::SetupDistributed() {
  // env > config, and the config reflects the effective values.
  config_.workers = WorkersFromEnv(config_.workers);
  config_.transport = TransportFromEnv(config_.transport);
  const std::string& spec = config_.workers;
  if (spec.empty()) return Status::OK();

  std::unique_ptr<net::Transport> transport;
  if (IsWorkerCount(spec)) {
    const int n = static_cast<int>(std::strtol(spec.c_str(), nullptr, 10));
    if (n < 1) {
      return Status::InvalidArgument("worker count must be >= 1, got '" +
                                     spec + "'");
    }
    for (int i = 0; i < n; ++i) {
      local_workers_.push_back(std::make_unique<dist::WorkerState>());
    }
    if (config_.transport == "tcp") {
      // Real sockets served in-process: each worker binds its own
      // 127.0.0.1 ephemeral port, so every bucket byte crosses the
      // loopback interface through the frame codec.
      std::vector<std::string> addrs;
      for (int i = 0; i < n; ++i) {
        dist::WorkerState* w = local_workers_[static_cast<size_t>(i)].get();
        auto server = std::make_unique<net::TcpServer>(
            [w](net::Frame f) { return w->Handle(std::move(f)); });
        SAC_RETURN_NOT_OK(server->Start(0));
        addrs.push_back("127.0.0.1:" + std::to_string(server->port()));
        local_servers_.push_back(std::move(server));
      }
      transport = std::make_unique<net::TcpTransport>(std::move(addrs));
    } else {
      auto loopback = std::make_unique<net::LoopbackTransport>();
      for (int i = 0; i < n; ++i) {
        dist::WorkerState* w = local_workers_[static_cast<size_t>(i)].get();
        loopback->AddPeer(
            [w](net::Frame f) { return w->Handle(std::move(f)); });
      }
      transport = std::move(loopback);
    }
  } else {
    // Address list = external sac_worker processes, necessarily TCP.
    if (config_.transport != "tcp") {
      SAC_LOG(Info)
          << "workers is an address list; forcing the tcp transport";
      config_.transport = "tcp";
    }
    std::vector<std::string> addrs = SplitAddrs(spec);
    if (addrs.empty()) {
      return Status::InvalidArgument("no worker addresses in '" + spec +
                                     "'");
    }
    transport = std::make_unique<net::TcpTransport>(std::move(addrs));
  }

  dist::CoordinatorOptions copts;
  copts.num_executors = config_.num_executors;
  // Enough attempts to walk past every possible death: each Unavailable
  // answer marks one worker dead and re-places, so num_workers + 1
  // attempts always reaches a survivor (or "all workers lost").
  copts.max_attempts =
      std::max(config_.max_task_attempts, transport->num_peers() + 1);
  copts.retry_base_delay_us = config_.retry_base_delay_us;
  copts.retry_max_delay_us = config_.retry_max_delay_us;
  copts.heartbeat_interval_ms = config_.heartbeat_interval_ms;
  copts.heartbeat_timeout_ms = config_.heartbeat_timeout_ms;
  coord_ = std::make_unique<dist::Coordinator>(std::move(transport), copts,
                                               &metrics_, &tracer_);
  SAC_RETURN_NOT_OK(coord_->ConnectAll());
  coord_->StartHeartbeat();
  SAC_LOG(Info) << "distributed runtime up: " << coord_->num_workers()
                << " workers over " << coord_->transport().name();
  return Status::OK();
}

Status Engine::PushShuffleBuckets(const MeterSink& sink, uint64_t shuffle_id,
                                  int p, int src, ShuffleBuckets* bs) {
  const int num_dest = static_cast<int>(bs->remote_by_dest.size());
  std::vector<dist::Coordinator::OutgoingBucket> out;
  for (int d = 0; d < num_dest; ++d) {
    if (bs->local_by_dest[d]) continue;  // zero-copy, stays in the driver
    // Empty buckets are pushed too: a missing bucket on the reduce side
    // then always means loss, never "nothing was sent".
    out.push_back({ExecutorOf(d),
                   {dist::BucketId{shuffle_id, p, src, d},
                    &*bs->remote_by_dest[d]}});
  }
  if (out.empty()) return Status::OK();
  SAC_RETURN_NOT_OK(coord_->PushBuckets(sink, out));
  // Release the driver-side buffers; the workers' copies are now the
  // only ones, so the reduce side must fetch them over the transport
  // (and their loss with a dead worker is real loss, recovered from
  // lineage).
  for (const dist::Coordinator::OutgoingBucket& b : out) {
    bs->remote_by_dest[b.bucket.id.dest] = PooledVec<uint8_t>();
  }
  return Status::OK();
}

void Engine::StartSampler() {
  if (config_.sample_interval_us <= 0) return;
  sampler_ = std::thread([this] { SamplerLoop(); });
}

void Engine::StopSampler() {
  {
    std::lock_guard<std::mutex> lock(sampler_mu_);
    sampler_stop_ = true;
  }
  sampler_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

void Engine::SamplerLoop() {
  const auto interval =
      std::chrono::microseconds(config_.sample_interval_us);
  std::unique_lock<std::mutex> lock(sampler_mu_);
  while (!sampler_stop_) {
    if (sampler_cv_.wait_for(lock, interval,
                             [this] { return sampler_stop_; })) {
      break;
    }
    lock.unlock();
    SampleOnce();
    lock.lock();
  }
}

void Engine::SampleOnce() {
  tracer_.Counter(
      "engine",
      {{"resident_bytes", static_cast<int64_t>(store_->resident_bytes())},
       {"spilled_bytes", static_cast<int64_t>(store_->spilled_bytes())},
       {"pool_bytes",
        static_cast<int64_t>(byte_pool_.free_bytes() +
                             row_pool_.free_bytes())},
       {"in_flight_tasks", static_cast<int64_t>(pool_.in_flight())},
       {"live_queries", static_cast<int64_t>(live_queries())},
       {"evictions", static_cast<int64_t>(metrics_.Get(Counter::kEvictions))},
       {"shuffle_bytes",
        static_cast<int64_t>(metrics_.Get(Counter::kShuffleBytes) +
                             metrics_.Get(Counter::kLocalShuffleBytes))}});
}

void Engine::MeterBlockEvent(const memory::BlockEvent& ev) {
  // Every block the engine publishes is owned by a dataset.
  const MeterSink sink = SinkFor(static_cast<const DatasetImpl*>(ev.owner));
  switch (ev.kind) {
    case memory::BlockEvent::Kind::kEvict:
      sink.Add(Counter::kEvictions, 1);
      sink.Add(Counter::kBytesEvicted, ev.bytes);
      tracer_.Instant("evict:" + ev.label, "memory", 0,
                      {{"partition", ev.part},
                       {"bytes", static_cast<int64_t>(ev.bytes)}});
      break;
    case memory::BlockEvent::Kind::kReload:
      sink.Add(Counter::kBytesReloaded, ev.bytes);
      tracer_.Instant("reload:" + ev.label, "memory", 0,
                      {{"partition", ev.part},
                       {"bytes", static_cast<int64_t>(ev.bytes)}});
      break;
    case memory::BlockEvent::Kind::kReloadRecompute:
      sink.Add(Counter::kReloadRecomputes, 1);
      tracer_.Instant("reload:" + ev.label, "memory", 0,
                      {{"partition", ev.part}, {"recompute", 1}});
      break;
  }
}

Result<Engine::PartitionPin> Engine::PinPartition(DatasetImpl* ds, int i) {
  // Up to three rounds: a missing partition recomputes (round 1), an
  // unreadable eviction spill drops the block and recomputes (round 2),
  // and the freshly published block might -- under extreme concurrent
  // pressure -- be evicted again before we re-pin (round 3, reloading
  // from its now-valid spill).
  for (int round = 0; round < 3; ++round) {
    if (!ds->IsAvailable(i)) SAC_RETURN_NOT_OK(RecomputePartition(ds, i));
    SAC_ASSIGN_OR_RETURN(memory::PinOutcome outcome, store_->Pin(ds, i));
    if (outcome != memory::PinOutcome::kNeedsRecompute) {
      SyncPeakResident();
      return PartitionPin(store_.get(), ds, i, &ds->parts_[i]);
    }
    // The store dropped the block (spill unreadable, metered as a
    // reload_recompute); treat it as a lost partition.
    ds->available_[i] = 0;
  }
  return Status::RuntimeError("partition " + std::to_string(i) + " of '" +
                              ds->label_ +
                              "' could not be pinned: spill reloads kept "
                              "failing after recomputation");
}

Status Engine::PublishPartition(DatasetImpl* ds, int i, Partition rows) {
  ds->parts_[i] = std::move(rows);
  ds->available_[i] = 1;
  const uint64_t bytes = SerializedSizeOf(ds->parts_[i]);
  Status st = store_->Publish(ds, i, &ds->parts_[i], bytes, ds->label_,
                              ds->session_ ? &ds->session_->memory()
                                           : nullptr);
  SyncPeakResident();
  return st;
}

void Engine::ResetStats() {
  // Resetting while an operator runs would tear per-stage counters and
  // leave task spans pointing at dropped stages; fail loudly instead.
  SAC_CHECK_EQ(in_flight(), 0)
      << "Engine::ResetStats called while a query is executing";
  // An admitted query that is still compiling has in_flight() == 0 but
  // will execute operators any moment; under concurrent admission that
  // window is routinely occupied, so check the ticket count too.
  SAC_CHECK_EQ(live_queries(), 0)
      << "Engine::ResetStats called while a query holds an admission "
         "ticket";
  metrics_.Reset();
  stages_.Reset();
  tracer_.Reset();
  // Blocks resident before the reset are still resident; restart the
  // high-water mark from there instead of from zero.
  store_->RearmPeak();
  SyncPeakResident();
}

Status Engine::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::RuntimeError("cannot open trace output file '" + path +
                                "'");
  }
  out << ChromeTraceJson();
  out.close();
  if (!out) {
    return Status::RuntimeError("failed writing trace to '" + path + "'");
  }
  return Status::OK();
}

std::string Engine::ProfileJson(double wall_ms_hint,
                                const std::string& query) const {
  profile::ProfileInputs in;
  in.spans = tracer_.Snapshot();
  in.stage_stats = stages_.Snapshot();
  in.totals = metrics_.Snapshot();
  in.wall_ms_hint = wall_ms_hint;
  in.dropped_trace_events = tracer_.dropped_events();
  in.query = query;
  return profile::BuildProfile(std::move(in)).ToJson();
}

Status Engine::WriteProfile(const std::string& path, double wall_ms_hint,
                            const std::string& query) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::RuntimeError("cannot open profile output file '" + path +
                                "'");
  }
  out << ProfileJson(wall_ms_hint, query);
  out.close();
  if (!out) {
    return Status::RuntimeError("failed writing profile to '" + path + "'");
  }
  return Status::OK();
}

std::string Engine::ExplainWithStats(const Dataset& ds) {
  std::ostringstream os;
  std::unordered_set<const DatasetImpl*> visited;
  const std::function<void(const DatasetImpl*, int)> walk =
      [&](const DatasetImpl* d, int depth) {
        os << std::string(static_cast<size_t>(depth) * 2, ' ') << "#"
           << d->stage_.id << " " << d->label_ << " [" << KindName(d->kind_)
           << "] parts=" << d->num_partitions();
        if (!visited.insert(d).second) {
          os << " (shown above)\n";
          return;
        }
        if (StageStats* s = stages_.Get(d->stage_)) {
          const StageStatsSnapshot snap = s->Snapshot();
          os << " tasks=" << snap.counters.tasks_run
             << " records_in=" << snap.counters.records_processed
             << " shuffle_bytes=" << snap.counters.shuffle_bytes
             << " cross_bytes=" << snap.counters.cross_executor_bytes
             << " local_bytes=" << snap.counters.local_shuffle_bytes
             << " recomputed=" << snap.counters.tasks_recomputed;
          if (snap.task_us.count > 0) {
            os << " task_us{" << snap.task_us.ToString() << "}";
          }
        }
        os << "\n";
        for (const auto& p : d->parents_) walk(p.get(), depth + 1);
      };
  walk(ds.get(), 0);
  return os.str();
}

std::shared_ptr<Session> Engine::OpenSession(const std::string& name,
                                             uint64_t memory_budget_bytes) {
  const uint64_t id =
      next_session_id_.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<Session>(id, name, memory_budget_bytes,
                                   pool_.OpenQueue());
}

Dataset Engine::NewDataset(DatasetImpl::OpKind kind, std::string label,
                           std::vector<Dataset> parents, int num_partitions) {
  auto ds = std::make_shared<DatasetImpl>();
  ds->kind_ = kind;
  ds->label_ = std::move(label);
  ds->parents_ = std::move(parents);
  ds->parts_.resize(num_partitions);
  ds->available_.assign(num_partitions, false);
  // Datasets created under a Session::Scope belong to that session: its
  // metering sinks charge the session's metrics, publishes charge its
  // memory slice, and its tasks land on its fair-scheduled queue.
  ds->session_ = Session::Current();
  ds->stage_ = stages_.NewStage(ds->label_, KindName(kind));
  ds->store_ = store_;
  return ds;
}

Status Engine::ParallelParts(const TaskContext& ctx, int n,
                             const TaskAttemptFn& fn) {
  InFlightScope running(this);
  std::mutex mu;
  Status first_error;
  pool_.ParallelFor(static_cast<size_t>(n), [&](size_t i) {
    trace::ScopedSpan span(&tracer_,
                           ctx.label + ":" + ctx.phase + "[" +
                               std::to_string(i) + "]",
                           "task", ctx.parent_span);
    const trace::ParentScope under_task(span.id());
    Stopwatch sw;
    ctx.sink.Add(Counter::kTasksRun, 1);
    Status st = RunTaskWithRetry(ctx, static_cast<int>(i), fn);
    if (StageStats* stage = ctx.sink.stage()) {
      stage->RecordTaskMicros(sw.ElapsedMicros());
    }
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      if (first_error.ok()) first_error = st;
    }
  }, /*chunk=*/0, ctx.queue);
  return first_error;
}

Status Engine::CheckFault(recovery::FaultPoint point, const TaskContext& ctx,
                          int part, int attempt) {
  if (fault_plan_.empty()) return Status::OK();
  Status st = fault_plan_.Check(point, ctx.label, part, attempt);
  if (!st.ok()) {
    ctx.sink.Add(Counter::kFaultsInjected, 1);
    tracer_.Instant("fault:" + ctx.label, "fault", ctx.parent_span,
                    {{"partition", part}, {"attempt", attempt}});
    SAC_LOG(Info) << st.message();
  }
  return st;
}

Status Engine::RunTaskWithRetry(const TaskContext& ctx, int part,
                                const TaskAttemptFn& fn) {
  const int max_attempts = config_.max_task_attempts;
  const MeterSink::Scope metering(ctx.sink);
  Status last;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      // Backoff before attempt k+1 is base * 2^(k-1), capped. On a real
      // cluster this is the window in which a flaky executor recovers; it
      // is metered so ReportString shows what recovery cost.
      uint64_t delay_us =
          static_cast<uint64_t>(config_.retry_base_delay_us);
      for (int k = 2; k < attempt; ++k) delay_us *= 2;
      delay_us = std::min(
          delay_us, static_cast<uint64_t>(config_.retry_max_delay_us));
      if (delay_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      }
      ctx.sink.Add(Counter::kTasksRetried, 1);
      ctx.sink.Add(Counter::kRetryWaitUs, delay_us);
      tracer_.Instant("retry:" + ctx.label, "retry", ctx.parent_span,
                      {{"partition", part},
                       {"attempt", attempt},
                       {"backoff_us", static_cast<int>(delay_us)}});
    }
    Status st = CheckFault(recovery::FaultPoint::kPreRun, ctx, part, attempt);
    if (st.ok()) st = fn(part, attempt);
    if (st.ok()) return st;
    // Only injected failures (kCancelled) are transient; anything else is
    // a real error the attempt loop must not mask or replay.
    if (st.code() != StatusCode::kCancelled) return st;
    last = st;
  }
  return Status::RuntimeError("task '" + ctx.label + "[" +
                              std::to_string(part) + "]' failed after " +
                              std::to_string(max_attempts) +
                              " attempts: " + last.message());
}

Dataset Engine::Parallelize(ValueVec rows, int num_partitions) {
  if (num_partitions <= 0) num_partitions = config_.default_parallelism;
  Dataset ds = NewDataset(DatasetImpl::OpKind::kSource, "parallelize", {},
                          num_partitions);
  trace::ScopedSpan span(&tracer_, ds->label_, "stage");
  span.AddArg("stage", static_cast<int64_t>(ds->stage_.id));
  Stopwatch sw;
  for (size_t i = 0; i < rows.size(); ++i) {
    ds->parts_[i % num_partitions].push_back(std::move(rows[i]));
  }
  ds->available_.assign(num_partitions, true);
  for (int i = 0; i < num_partitions; ++i) {
    // Budget registration; an eviction spill-write failure here leaves
    // the data resident (over budget) rather than losing it -- sources
    // created from caller rows have no lineage to recompute from.
    Status st =
        store_->Publish(ds.get(), i, &ds->parts_[i],
                        SerializedSizeOf(ds->parts_[i]), ds->label_,
                        ds->session_ ? &ds->session_->memory() : nullptr);
    if (!st.ok()) SAC_LOG(Warn) << "parallelize: " << st.ToString();
  }
  SyncPeakResident();
  if (StageStats* stage = stages_.Get(ds->stage_)) {
    stage->AddWallMicros(sw.ElapsedMicros());
  }
  return ds;
}

Result<Dataset> Engine::GeneratePartitions(
    int num_partitions, const std::function<Status(int, Partition*)>& gen,
    const std::string& label) {
  if (num_partitions <= 0) num_partitions = config_.default_parallelism;
  Dataset ds =
      NewDataset(DatasetImpl::OpKind::kSource, label, {}, num_partitions);
  // Sources regenerate themselves on recovery.
  ds->wide_fn_ = [gen](Engine* eng, DatasetImpl* self,
                       int out_part) -> Status {
    Partition tmp;
    SAC_RETURN_NOT_OK(gen(out_part, &tmp));
    return eng->PublishPartition(self, out_part, std::move(tmp));
  };
  trace::ScopedSpan span(&tracer_, ds->label_, "stage");
  span.AddArg("stage", static_cast<int64_t>(ds->stage_.id));
  Stopwatch sw;
  const TaskContext ctx = ContextFor(ds.get(), span.id());
  SAC_RETURN_NOT_OK(ParallelParts(
      ctx, num_partitions, [&](int i, int attempt) -> Status {
        // Generate into a scratch partition and publish only on success,
        // so a killed attempt leaves nothing for the retry to trip over.
        Partition tmp;
        SAC_RETURN_NOT_OK(gen(i, &tmp));
        SAC_RETURN_NOT_OK(
            CheckFault(recovery::FaultPoint::kMidMap, ctx, i, attempt));
        return PublishPartition(ds.get(), i, std::move(tmp));
      }));
  if (StageStats* stage = ctx.sink.stage()) {
    stage->AddWallMicros(sw.ElapsedMicros());
  }
  return ds;
}

Result<Dataset> Engine::Map(const Dataset& in, MapFn fn,
                            const std::string& label) {
  return MapPartitions(
      in,
      [fn](const Partition& src, Partition* out) {
        out->reserve(src.size());
        for (const Value& row : src) out->push_back(fn(row));
        return Status::OK();
      },
      label);
}

Result<Dataset> Engine::FlatMap(const Dataset& in, FlatMapFn fn,
                                const std::string& label) {
  return MapPartitions(
      in,
      [fn](const Partition& src, Partition* out) {
        for (const Value& row : src) fn(row, out);
        return Status::OK();
      },
      label);
}

Result<Dataset> Engine::Filter(const Dataset& in, PredFn pred,
                               const std::string& label) {
  return MapPartitions(
      in,
      [pred](const Partition& src, Partition* out) {
        for (const Value& row : src) {
          if (pred(row)) out->push_back(row);
        }
        return Status::OK();
      },
      label);
}

Result<Dataset> Engine::MapPartitions(const Dataset& in, PartitionFn fn,
                                      const std::string& label) {
  SAC_RETURN_NOT_OK(Recover(in));
  Dataset ds = NewDataset(DatasetImpl::OpKind::kNarrow, label, {in},
                          in->num_partitions());
  ds->narrow_fn_ = fn;
  trace::ScopedSpan span(&tracer_, ds->label_, "stage");
  span.AddArg("stage", static_cast<int64_t>(ds->stage_.id));
  Stopwatch sw;
  const TaskContext ctx = ContextFor(ds.get(), span.id());
  SAC_RETURN_NOT_OK(ParallelParts(
      ctx, ds->num_partitions(), [&](int i, int attempt) -> Status {
        // Map into a scratch partition; publish (and meter records_in)
        // only once the attempt survived its mid-map fault check, so a
        // retried task neither sees partial output nor double-counts.
        // The pin keeps the input resident for the whole attempt.
        SAC_ASSIGN_OR_RETURN(PartitionPin pin, PinPartition(in.get(), i));
        Partition tmp;
        SAC_RETURN_NOT_OK(fn(pin.rows(), &tmp));
        SAC_RETURN_NOT_OK(
            CheckFault(recovery::FaultPoint::kMidMap, ctx, i, attempt));
        ctx.sink.Add(Counter::kRecordsProcessed, pin.rows().size());
        return PublishPartition(ds.get(), i, std::move(tmp));
      }));
  if (StageStats* stage = ctx.sink.stage()) {
    stage->AddWallMicros(sw.ElapsedMicros());
    span.AddArg("records_in", static_cast<int64_t>(stage->counters().Get(
                                  Counter::kRecordsProcessed)));
  }
  return ds;
}

Result<Dataset> Engine::Union(const Dataset& a, const Dataset& b) {
  SAC_RETURN_NOT_OK(Recover(a));
  SAC_RETURN_NOT_OK(Recover(b));
  const int n = a->num_partitions() + b->num_partitions();
  Dataset ds = NewDataset(DatasetImpl::OpKind::kUnion, "union", {a, b}, n);
  trace::ScopedSpan span(&tracer_, ds->label_, "stage");
  span.AddArg("stage", static_cast<int64_t>(ds->stage_.id));
  const int na = a->num_partitions();
  for (int i = 0; i < n; ++i) {
    DatasetImpl* parent = i < na ? a.get() : b.get();
    const int src = i < na ? i : i - na;
    SAC_ASSIGN_OR_RETURN(PartitionPin pin, PinPartition(parent, src));
    SAC_RETURN_NOT_OK(PublishPartition(ds.get(), i, Partition(pin.rows())));
  }
  ds->wide_fn_ = [na](Engine* eng, DatasetImpl* self, int out) -> Status {
    DatasetImpl* parent =
        out < na ? self->parents_[0].get() : self->parents_[1].get();
    const int src = out < na ? out : out - na;
    SAC_ASSIGN_OR_RETURN(PartitionPin pin, eng->PinPartition(parent, src));
    return eng->PublishPartition(self, out, Partition(pin.rows()));
  };
  return ds;
}

Result<Engine::ShuffleBuckets> Engine::BucketRows(const TaskContext& ctx,
                                                  Partition rows,
                                                  int src_part, int num_dest,
                                                  const Partitioner& part,
                                                  int attempt) {
  ShuffleBuckets buckets;
  buckets.remote_by_dest.resize(num_dest);
  buckets.local_by_dest.resize(num_dest);
  buckets.dest_records.assign(num_dest, 0);
  buckets.dest_bytes.assign(num_dest, 0);
  const int src_exec = ExecutorOf(src_part);

  // A (src, dest) pair is entirely local or entirely remote, so each
  // bucket checks out exactly one pooled container.
  std::vector<uint8_t> local_dest(num_dest, 0);
  std::vector<ByteWriter> writers;
  writers.reserve(num_dest);
  for (int d = 0; d < num_dest; ++d) {
    local_dest[d] = ExecutorOf(d) == src_exec;
    if (local_dest[d]) {
      buckets.local_by_dest[d] = AcquirePooled(&row_pool_);
      writers.emplace_back();  // placeholder, never written
    } else {
      buckets.remote_by_dest[d] = AcquirePooled(&byte_pool_);
      writers.emplace_back(&buckets.remote_by_dest[d].get());
    }
  }

  // The shuffle-serialize fault point fires mid-row-loop -- after some
  // records are already bucketed/serialized but before anything is
  // metered or published, so a killed attempt drops its pooled buffers
  // (RAII) and the retry re-buckets from scratch. Empty partitions check
  // once up front so plans can target them too.
  const size_t fault_idx = rows.size() / 2;
  if (rows.empty()) {
    SAC_RETURN_NOT_OK(CheckFault(recovery::FaultPoint::kShuffleSerialize,
                                 ctx, src_part, attempt));
  }
  size_t row_idx = 0;
  for (Value& row : rows) {
    if (row_idx++ == fault_idx) {
      SAC_RETURN_NOT_OK(CheckFault(recovery::FaultPoint::kShuffleSerialize,
                                   ctx, src_part, attempt));
    }
    SAC_RETURN_NOT_OK(ExpectPair(row));
    const int dest = part.Of(row.At(0), num_dest);
    if (local_dest[dest]) {
      // Zero-copy route: the Value moves as-is; meter what it would have
      // cost on the wire (SerializedSize is exact, see value.h).
      buckets.dest_bytes[dest] += row.SerializedSize();
      buckets.local_by_dest[dest]->push_back(std::move(row));
    } else {
      row.Serialize(&writers[dest]);
    }
    ++buckets.dest_records[dest];
    ++buckets.records;
  }

  const MeterSink& sink = ctx.sink;
  for (int d = 0; d < num_dest; ++d) {
    if (local_dest[d]) {
      sink.Add(Counter::kLocalShuffleBytes, buckets.dest_bytes[d]);
      continue;
    }
    // Remote buckets are exactly the other executors' destinations.
    const uint64_t bytes = buckets.remote_by_dest[d]->size();
    buckets.dest_bytes[d] = bytes;
    sink.Add(Counter::kShuffleBytes, bytes);
    sink.Add(Counter::kCrossExecutorBytes, bytes);
  }
  sink.Add(Counter::kShuffleRecords, buckets.records);
  return buckets;
}

Result<Dataset> Engine::ShuffleOp(DatasetImpl::OpKind kind,
                                  const std::string& label,
                                  std::vector<Dataset> parents,
                                  int num_partitions, const Partitioner& part,
                                  MapSideFn map_side,
                                  ReduceSideFn reduce_side) {
  for (const Dataset& p : parents) SAC_RETURN_NOT_OK(Recover(p));
  Dataset ds = NewDataset(kind, label, std::move(parents), num_partitions);
  ds->partitioner_ = part;
  ds->wide_fn_ = [map_side, reduce_side](Engine* eng, DatasetImpl* self,
                                         int out) {
    return eng->ExecuteShuffle(self, map_side, reduce_side, out);
  };
  SAC_RETURN_NOT_OK(ExecuteShuffle(ds.get(), map_side, reduce_side, -1));
  return ds;
}

Status Engine::ExecuteShuffle(DatasetImpl* ds, const MapSideFn& map_side,
                              const ReduceSideFn& reduce_side,
                              int only_dest) {
  const int num_dest = ds->num_partitions();
  const int num_parents = static_cast<int>(ds->parents_.size());
  trace::ScopedSpan stage_span(
      &tracer_, only_dest < 0 ? ds->label_ : ds->label_ + ":recover",
      "stage");
  stage_span.AddArg("stage", static_cast<int64_t>(ds->stage_.id));
  Stopwatch stage_sw;

  InFlightScope running(this);

  // Distributed mode (docs/DISTRIBUTED.md): a fresh engine-wide shuffle
  // id keys this stage's buckets on the workers.
  const uint64_t sid = coord_ ? coord_->NextShuffleId() : 0;

  // Map side: bucket every parent partition (parallel across partitions).
  // buckets[parent][src] holds per-destination pooled buffers: serialized
  // bytes for remote destinations, moved Values for executor-local ones.
  // In distributed mode each remote bucket is pushed to the worker
  // hosting its destination executor and released here, so cross-executor
  // bytes genuinely cross the transport.
  std::vector<std::vector<ShuffleBuckets>> buckets(num_parents);
  const TaskContext write_ctx = ContextFor(ds, stage_span.id(),
                                           "shuffle-write");
  const MeterSink& sink = write_ctx.sink;
  for (int p = 0; p < num_parents; ++p) {
    SAC_RETURN_NOT_OK(Recover(ds->parents_[p]));
    DatasetImpl* parent = ds->parents_[p].get();
    const int num_src = parent->num_partitions();
    buckets[p].resize(num_src);
    SAC_RETURN_NOT_OK(ParallelParts(
        write_ctx, num_src, [&](int s, int attempt) -> Status {
          // Each attempt re-runs the map-side combine from the pinned
          // parent partition, so a kill inside BucketRows replays
          // cleanly; records_in and the buckets publish only on success.
          SAC_ASSIGN_OR_RETURN(PartitionPin pin, PinPartition(parent, s));
          SAC_ASSIGN_OR_RETURN(Partition combined, map_side(pin.rows(), p));
          SAC_ASSIGN_OR_RETURN(ShuffleBuckets bs,
                               BucketRows(write_ctx, std::move(combined), s,
                                          num_dest, ds->partitioner_,
                                          attempt));
          if (coord_) {
            SAC_RETURN_NOT_OK(PushShuffleBuckets(sink, sid, p, s, &bs));
          }
          sink.Add(Counter::kRecordsProcessed, pin.rows().size());
          buckets[p][s] = std::move(bs);
          return Status::OK();
        }));
  }

  // Partition balance of this run: per-destination records and bytes
  // summed over every source bucket.
  if (StageStats* stage = sink.stage()) {
    std::vector<uint64_t> records(num_dest, 0), bytes(num_dest, 0);
    for (const std::vector<ShuffleBuckets>& per_src : buckets) {
      for (const ShuffleBuckets& bs : per_src) {
        for (int d = 0; d < num_dest; ++d) {
          records[d] += bs.dest_records[d];
          bytes[d] += bs.dest_bytes[d];
        }
      }
    }
    stage->AddPartitionCounts(records, bytes);
  }

  // Lineage re-execution (distributed only): a fetch that comes back
  // DataLoss lost its bucket with a dead worker. Rebuild the map side of
  // that (parent, src) from the still-resident parent partition and
  // re-push its remote buckets to the re-placed owners. Deduped by
  // placement epoch: concurrent reduce tasks missing buckets of the same
  // source re-execute it once per placement, while a later death (epoch
  // bump) allows re-execution again.
  std::mutex reexec_mu;
  std::map<std::pair<int, int>, uint64_t> reexec_epoch;
  auto reexecute_map_side = [&](int p, int s) -> Status {
    std::lock_guard<std::mutex> lock(reexec_mu);
    const uint64_t epoch = coord_->placement_epoch();
    const auto key = std::make_pair(p, s);
    auto it = reexec_epoch.find(key);
    if (it != reexec_epoch.end() && it->second >= epoch) {
      return Status::OK();  // already re-pushed under this placement
    }
    DatasetImpl* parent = ds->parents_[p].get();
    SAC_ASSIGN_OR_RETURN(PartitionPin pin, PinPartition(parent, s));
    SAC_ASSIGN_OR_RETURN(Partition combined, map_side(pin.rows(), p));
    SAC_ASSIGN_OR_RETURN(ShuffleBuckets fresh,
                         BucketRows(write_ctx, std::move(combined), s,
                                    num_dest, ds->partitioner_,
                                    /*attempt=*/1));
    // Only the remote buckets were lost; the local buckets' originals
    // never left driver memory, so the fresh copies are discarded with
    // `fresh` (the map side is deterministic -- identical bytes either
    // way).
    SAC_RETURN_NOT_OK(PushShuffleBuckets(sink, sid, p, s, &fresh));
    sink.Add(Counter::kPartitionsReexecuted, 1);
    tracer_.Instant("reexec:" + ds->label_, "dist", stage_span.id(),
                    {{"parent", p}, {"src", s}});
    reexec_epoch[key] = epoch;
    return Status::OK();
  };
  // Gathers destination d's buckets that live on workers: one batched
  // fetch (per kMaxBatchBytes), then lineage re-execution of exactly the
  // (parent, src) pairs whose buckets came back missing, and a fetch of
  // just those. The fetched bytes stay in `payloads`; `fetched` points
  // into them.
  using Fetched =
      std::map<std::pair<int, int>, std::pair<const uint8_t*, size_t>>;
  auto fetch_remote = [&](int d, std::vector<std::vector<uint8_t>>* payloads,
                          Fetched* fetched) -> Status {
    std::vector<dist::BucketId> want;
    for (int p = 0; p < num_parents; ++p) {
      for (int s = 0; s < static_cast<int>(buckets[p].size()); ++s) {
        const ShuffleBuckets& bs = buckets[p][s];
        if (!bs.local_by_dest[d] && !bs.remote_by_dest[d]) {
          want.push_back(dist::BucketId{sid, p, s, d});
        }
      }
    }
    if (want.empty()) return Status::OK();
    const int max_rounds =
        std::max(config_.max_task_attempts, coord_->num_workers() + 1);
    // The map side recorded every bucket's size, so a batch that would
    // outgrow one frame splits before it is sent.
    const auto bytes_of = [&](const dist::BucketId& id) {
      return buckets[id.parent][id.src].dest_bytes[d];
    };
    for (int round = 0; round < max_rounds && !want.empty(); ++round) {
      std::vector<dist::BucketId> missing;
      for (const auto& run : dist::SplitBatches(want, bytes_of)) {
        SAC_ASSIGN_OR_RETURN(dist::Coordinator::FetchedBuckets got,
                             coord_->FetchBuckets(sink, ExecutorOf(d), run));
        for (size_t i = 0; i < run.size(); ++i) {
          const std::optional<dist::Slice>& slice = got.buckets[i];
          if (!slice) {
            missing.push_back(run[i]);
            continue;
          }
          // Moving the payload below keeps its heap buffer, so this
          // pointer stays valid.
          (*fetched)[{run[i].parent, run[i].src}] = {
              got.payload.data() + slice->offset, slice->size};
        }
        payloads->push_back(std::move(got.payload));
      }
      for (const dist::BucketId& id : missing) {
        SAC_RETURN_NOT_OK(reexecute_map_side(id.parent, id.src));
      }
      want = std::move(missing);
    }
    if (!want.empty()) {
      return Status::DataLoss(want.front().ToString() +
                              " still missing after lineage re-execution");
    }
    return Status::OK();
  };

  // Reduce side: drain this destination's buckets in deterministic
  // (parent, source-partition) order, then fold. Local buckets hand over
  // their Values by move; in-memory remote buckets are deserialized;
  // released remote buckets (distributed mode pushed them) are fetched
  // from their worker first, in one batch. A (src, dest) bucket is
  // entirely one route, and fetched bytes are the exact bytes the map
  // side serialized, so the concatenation order -- and the result -- is
  // identical on every path.
  const TaskContext reduce_ctx = ContextFor(ds, stage_span.id(), "reduce");
  auto reduce_one = [&](int d, int attempt) -> Status {
    // The post-shuffle fault point fires at the very top of the reduce
    // task: the shuffle output exists but nothing has been drained yet,
    // so a retry re-reads intact buckets. (All retryable failures of this
    // task -- pre-run and post-shuffle -- precede the fetch and the
    // destructive drain below; real errors there are not retried.)
    SAC_RETURN_NOT_OK(CheckFault(recovery::FaultPoint::kPostShuffle,
                                 reduce_ctx, d, attempt));
    std::vector<std::vector<uint8_t>> payloads;
    Fetched fetched;
    SAC_RETURN_NOT_OK(fetch_remote(d, &payloads, &fetched));
    auto drain_bytes = [](const uint8_t* data, size_t size,
                          ValueVec* rows) -> Status {
      ByteReader reader(data, size);
      while (!reader.AtEnd()) {
        SAC_ASSIGN_OR_RETURN(Value v, Value::Deserialize(&reader));
        rows->push_back(std::move(v));
      }
      return Status::OK();
    };
    ValueVec rows_a, rows_b;
    for (int p = 0; p < num_parents; ++p) {
      ValueVec& rows = (p == 0) ? rows_a : rows_b;
      const int num_src = static_cast<int>(buckets[p].size());
      for (int s = 0; s < num_src; ++s) {
        ShuffleBuckets& bs = buckets[p][s];
        if (bs.local_by_dest[d]) {
          ValueVec& local = *bs.local_by_dest[d];
          for (Value& v : local) rows.push_back(std::move(v));
        } else if (bs.remote_by_dest[d]) {
          const std::vector<uint8_t>& bytes = *bs.remote_by_dest[d];
          SAC_RETURN_NOT_OK(drain_bytes(bytes.data(), bytes.size(), &rows));
        } else {
          const auto& [data, size] = fetched.at({p, s});
          SAC_RETURN_NOT_OK(drain_bytes(data, size, &rows));
        }
      }
    }
    // Drained: free the fetched bytes before the fold allocates its
    // output.
    payloads = {};
    Partition out;
    SAC_RETURN_NOT_OK(reduce_side(std::move(rows_a), std::move(rows_b), &out));
    return PublishPartition(ds, d, std::move(out));
  };

  Status st;
  if (only_dest >= 0) {
    // Lineage recovery of a single destination: still under the retry
    // policy (ParallelParts is bypassed, so wrap explicitly), and its
    // wire spans hang off this stage.
    const trace::ParentScope under_stage(stage_span.id());
    st = RunTaskWithRetry(reduce_ctx, only_dest, reduce_one);
  } else {
    st = ParallelParts(reduce_ctx, num_dest, reduce_one);
  }
  // The stage is folded; free its buckets on the workers (best-effort --
  // a dead worker's buckets died with it).
  if (coord_) coord_->DropShuffle(sid);
  if (StageStats* stage = sink.stage()) {
    stage->AddWallMicros(stage_sw.ElapsedMicros());
    const MetricsSnapshot c = stage->counters().Snapshot();
    stage_span.AddArg("shuffle_bytes",
                      static_cast<int64_t>(c.shuffle_bytes));
    stage_span.AddArg("shuffle_records",
                      static_cast<int64_t>(c.shuffle_records));
    stage_span.AddArg("cross_executor_bytes",
                      static_cast<int64_t>(c.cross_executor_bytes));
    stage_span.AddArg("local_shuffle_bytes",
                      static_cast<int64_t>(c.local_shuffle_bytes));
    if (coord_) {
      stage_span.AddArg("dist_bytes_sent",
                        static_cast<int64_t>(c.dist_bytes_sent));
      stage_span.AddArg("dist_bytes_received",
                        static_cast<int64_t>(c.dist_bytes_received));
      stage_span.AddArg("dist_rpcs", static_cast<int64_t>(c.dist_rpcs));
    }
    SAC_LOG(Debug) << "stage #" << ds->stage_.id << " " << ds->label()
                   << (only_dest >= 0 ? " (recover)" : "") << ": "
                   << c.shuffle_records << " records, " << c.shuffle_bytes
                   << " shuffle bytes in " << stage_sw.ElapsedMicros() / 1000.0
                   << " ms";
  }
  return st;
}

Result<Dataset> Engine::ReduceByKey(const Dataset& in, CombineFn combine,
                                    int num_partitions,
                                    const Partitioner& part) {
  if (num_partitions <= 0) num_partitions = in->num_partitions();
  auto fold = [combine](ValueVec rows, Partition* out) -> Status {
    KeySlots slots;
    std::vector<Value> acc;
    for (Value& row : rows) {
      SAC_RETURN_NOT_OK(ExpectPair(row));
      const size_t slot = slots.SlotFor(row.At(0));
      if (slot == acc.size()) {
        acc.push_back(row.At(1));
      } else {
        acc[slot] = combine(acc[slot], row.At(1));
      }
    }
    out->reserve(acc.size());
    for (size_t s = 0; s < acc.size(); ++s) {
      out->push_back(VPair(slots.keys()[s], std::move(acc[s])));
    }
    return Status::OK();
  };
  MapSideFn map_side = [fold](const Partition& src, int) -> Result<Partition> {
    Partition combined;
    SAC_RETURN_NOT_OK(fold(src, &combined));  // map-side combine
    return combined;
  };
  ReduceSideFn reduce_side = [fold](ValueVec rows_a, ValueVec,
                                    Partition* out) {
    return fold(std::move(rows_a), out);
  };
  return ShuffleOp(DatasetImpl::OpKind::kShuffle, "reduceByKey", {in},
                   num_partitions, part, std::move(map_side),
                   std::move(reduce_side));
}

Result<Dataset> Engine::GroupByKey(const Dataset& in, int num_partitions,
                                   const Partitioner& part) {
  if (num_partitions <= 0) num_partitions = in->num_partitions();
  MapSideFn map_side = [](const Partition& src, int) -> Result<Partition> {
    for (const Value& row : src) SAC_RETURN_NOT_OK(ExpectPair(row));
    return src;  // every record is shuffled (no combining)
  };
  ReduceSideFn reduce_side = [](ValueVec rows_a, ValueVec, Partition* out) {
    KeySlots slots;
    std::vector<ValueVec> groups;
    for (Value& row : rows_a) {
      const size_t slot = slots.SlotFor(row.At(0));
      if (slot == groups.size()) groups.emplace_back();
      groups[slot].push_back(row.At(1));
    }
    out->reserve(groups.size());
    for (size_t s = 0; s < groups.size(); ++s) {
      out->push_back(
          VPair(slots.keys()[s], Value::List(std::move(groups[s]))));
    }
    return Status::OK();
  };
  return ShuffleOp(DatasetImpl::OpKind::kShuffle, "groupByKey", {in},
                   num_partitions, part, std::move(map_side),
                   std::move(reduce_side));
}

Result<Dataset> Engine::PartitionBy(const Dataset& in, int num_partitions,
                                    const Partitioner& part) {
  if (num_partitions <= 0) num_partitions = in->num_partitions();
  MapSideFn map_side = [](const Partition& src, int) -> Result<Partition> {
    for (const Value& row : src) SAC_RETURN_NOT_OK(ExpectPair(row));
    return src;
  };
  ReduceSideFn reduce_side = [](ValueVec rows_a, ValueVec, Partition* out) {
    *out = std::move(rows_a);
    return Status::OK();
  };
  return ShuffleOp(DatasetImpl::OpKind::kShuffle, "partitionBy", {in},
                   num_partitions, part, std::move(map_side),
                   std::move(reduce_side));
}

Result<Dataset> Engine::Join(const Dataset& a, const Dataset& b,
                             int num_partitions, const Partitioner& part) {
  if (num_partitions <= 0) {
    num_partitions = std::max(a->num_partitions(), b->num_partitions());
  }
  MapSideFn map_side = [](const Partition& src, int) -> Result<Partition> {
    for (const Value& row : src) SAC_RETURN_NOT_OK(ExpectPair(row));
    return src;
  };
  ReduceSideFn reduce_side = [](ValueVec rows_a, ValueVec rows_b,
                                Partition* out) {
    // Build hash of B values per key (insertion order), then stream A.
    std::unordered_map<Value, ValueVec, ValueHash, ValueEq> b_index;
    for (Value& row : rows_b) b_index[row.At(0)].push_back(row.At(1));
    for (Value& row : rows_a) {
      auto it = b_index.find(row.At(0));
      if (it == b_index.end()) continue;
      for (const Value& w : it->second) {
        out->push_back(VPair(row.At(0), VTuple({row.At(1), w})));
      }
    }
    return Status::OK();
  };
  return ShuffleOp(DatasetImpl::OpKind::kCoShuffle, "join", {a, b},
                   num_partitions, part, std::move(map_side),
                   std::move(reduce_side));
}

Result<Dataset> Engine::CoGroup(const Dataset& a, const Dataset& b,
                                int num_partitions, const Partitioner& part) {
  if (num_partitions <= 0) {
    num_partitions = std::max(a->num_partitions(), b->num_partitions());
  }
  MapSideFn map_side = [](const Partition& src, int) -> Result<Partition> {
    for (const Value& row : src) SAC_RETURN_NOT_OK(ExpectPair(row));
    return src;
  };
  ReduceSideFn reduce_side = [](ValueVec rows_a, ValueVec rows_b,
                                Partition* out) {
    KeySlots slots;
    std::vector<ValueVec> ga, gb;
    auto add = [&](ValueVec& rows, bool left) {
      for (Value& row : rows) {
        const size_t slot = slots.SlotFor(row.At(0));
        if (slot == ga.size()) {
          ga.emplace_back();
          gb.emplace_back();
        }
        (left ? ga : gb)[slot].push_back(row.At(1));
      }
    };
    add(rows_a, true);
    add(rows_b, false);
    out->reserve(slots.size());
    for (size_t s = 0; s < slots.size(); ++s) {
      out->push_back(VPair(slots.keys()[s],
                           VTuple({Value::List(std::move(ga[s])),
                                   Value::List(std::move(gb[s]))})));
    }
    return Status::OK();
  };
  return ShuffleOp(DatasetImpl::OpKind::kCoShuffle, "cogroup", {a, b},
                   num_partitions, part, std::move(map_side),
                   std::move(reduce_side));
}

Result<ValueVec> Engine::Collect(const Dataset& in) {
  trace::ScopedSpan span(&tracer_, "collect:" + in->label_, "action");
  SAC_RETURN_NOT_OK(Recover(in));
  ValueVec out;
  // One partition pinned at a time: under a tight budget, collecting a
  // dataset larger than RAM streams partitions through memory (each
  // reload may evict an already-copied one) instead of requiring the
  // whole dataset resident at once.
  for (int i = 0; i < in->num_partitions(); ++i) {
    SAC_ASSIGN_OR_RETURN(PartitionPin pin, PinPartition(in.get(), i));
    out.insert(out.end(), pin.rows().begin(), pin.rows().end());
  }
  return out;
}

Result<int64_t> Engine::Count(const Dataset& in) {
  SAC_RETURN_NOT_OK(Recover(in));
  int64_t total = 0;
  for (int i = 0; i < in->num_partitions(); ++i) {
    SAC_ASSIGN_OR_RETURN(PartitionPin pin, PinPartition(in.get(), i));
    total += static_cast<int64_t>(pin.rows().size());
  }
  return total;
}

Status Engine::Recover(const Dataset& ds) {
  for (int i = 0; i < ds->num_partitions(); ++i) {
    if (!ds->available_[i]) {
      SAC_RETURN_NOT_OK(RecomputePartition(ds.get(), i));
    }
  }
  return Status::OK();
}

Status Engine::Checkpoint(const Dataset& ds, const std::string& dir) {
  if (ds == nullptr) {
    return Status::InvalidArgument("Checkpoint on a null dataset");
  }
  if (ds->checkpointed_) return Status::OK();  // idempotent
  SAC_RETURN_NOT_OK(Recover(ds));

  // Checkpoints without an explicit dir land in the engine's own spill
  // directory, so engine teardown reclaims them together with eviction
  // spills (one cleanup path for all engine-written files).
  const std::string base = !dir.empty() ? dir : spill_dir_;
  SAC_RETURN_NOT_OK(storage::EnsureSpillDir(base));

  // Unique per process + checkpoint so concurrent engines (tests) never
  // collide on spill paths.
  static std::atomic<uint64_t> next_ckpt{0};
  const uint64_t ckpt_id = next_ckpt.fetch_add(1, std::memory_order_relaxed);
  const int n = ds->num_partitions();
  std::vector<std::string> paths(n);
  for (int i = 0; i < n; ++i) {
    paths[i] = base + "/sac-ckpt-" + std::to_string(::getpid()) + "-" +
               std::to_string(ckpt_id) + "-p" + std::to_string(i) + ".spill";
  }

  trace::ScopedSpan span(&tracer_, ds->label_ + ":checkpoint", "stage");
  span.AddArg("stage", static_cast<int64_t>(ds->stage_.id));
  Stopwatch sw;
  const TaskContext ctx = ContextFor(ds.get(), span.id(), "checkpoint");
  std::atomic<uint64_t> total_bytes{0};
  Status st =
      ParallelParts(ctx, n, [&](int i, int) -> Status {
        SAC_ASSIGN_OR_RETURN(PartitionPin pin, PinPartition(ds.get(), i));
        SAC_ASSIGN_OR_RETURN(uint64_t bytes,
                             storage::WriteSpill(paths[i], pin.rows()));
        total_bytes.fetch_add(bytes, std::memory_order_relaxed);
        ctx.sink.Add(Counter::kCheckpointBytes, bytes);
        return Status::OK();
      });
  if (!st.ok()) {
    for (const std::string& p : paths) storage::RemoveSpill(p);
    return st.WithContext("checkpoint of '" + ds->label_ + "'");
  }

  // Truncate lineage: the node becomes a source whose recompute closure
  // restores from disk; parents are released (their reference counts may
  // free whole upstream chains).
  ds->parents_.clear();
  ds->kind_ = DatasetImpl::OpKind::kSource;
  ds->narrow_fn_ = nullptr;
  ds->checkpointed_ = true;
  ds->spill_paths_ = paths;
  // A checkpointed node is a lineage cut for everything downstream:
  // give its blocks admission priority so the budget evicts ordinary
  // intermediates first (restoring it costs a disk read regardless, but
  // losing it costs every downstream recompute).
  store_->SetPriority(ds.get(), true);
  ds->wide_fn_ = [paths](Engine* eng, DatasetImpl* self,
                         int out) -> Status {
    uint64_t bytes = 0;
    SAC_ASSIGN_OR_RETURN(ValueVec rows,
                         storage::ReadSpill(paths[out], &bytes));
    eng->SinkFor(self).Add(Counter::kCheckpointRestoreBytes, bytes);
    return eng->PublishPartition(self, out, std::move(rows));
  };
  if (StageStats* stage = ctx.sink.stage()) {
    stage->AddWallMicros(sw.ElapsedMicros());
  }
  span.AddArg("checkpoint_bytes",
              static_cast<int64_t>(total_bytes.load(std::memory_order_relaxed)));
  SAC_LOG(Debug) << "checkpointed '" << ds->label_ << "' (" << n
                 << " partitions, "
                 << total_bytes.load(std::memory_order_relaxed)
                 << " bytes) to " << base;
  return Status::OK();
}

Status Engine::VerifyLineage(const Dataset& ds) {
  if (ds == nullptr) {
    return Status::RuntimeError("lineage verification on a null dataset");
  }
  const uint64_t current_gen = stages_.generation();
  std::unordered_set<const DatasetImpl*> seen;
  std::vector<DatasetImpl*> stack{ds.get()};
  while (!stack.empty()) {
    DatasetImpl* d = stack.back();
    stack.pop_back();
    if (!seen.insert(d).second) continue;
    const std::string where = "dataset '" + d->label_ + "'";

    size_t want_parents = 0;
    switch (d->kind_) {
      case DatasetImpl::OpKind::kSource: want_parents = 0; break;
      case DatasetImpl::OpKind::kNarrow:
      case DatasetImpl::OpKind::kShuffle: want_parents = 1; break;
      case DatasetImpl::OpKind::kCoShuffle:
      case DatasetImpl::OpKind::kUnion: want_parents = 2; break;
    }
    if (d->parents_.size() != want_parents) {
      return Status::RuntimeError(
          where + ": expected " + std::to_string(want_parents) +
          " lineage parent(s), has " + std::to_string(d->parents_.size()));
    }
    for (const auto& p : d->parents_) {
      if (p == nullptr) {
        return Status::RuntimeError(where + ": null lineage parent");
      }
      stack.push_back(p.get());
    }
    if (d->parts_.empty()) {
      return Status::RuntimeError(where + ": no partitions");
    }
    if (d->available_.size() != d->parts_.size()) {
      return Status::RuntimeError(
          where + ": availability bitmap tracks " +
          std::to_string(d->available_.size()) + " partitions, data has " +
          std::to_string(d->parts_.size()));
    }
    if (d->kind_ == DatasetImpl::OpKind::kNarrow &&
        d->parts_.size() != d->parents_[0]->parts_.size()) {
      return Status::RuntimeError(
          where + ": narrow op with " + std::to_string(d->parts_.size()) +
          " partitions over a parent with " +
          std::to_string(d->parents_[0]->parts_.size()));
    }
    if (d->kind_ == DatasetImpl::OpKind::kUnion &&
        d->parts_.size() != d->parents_[0]->parts_.size() +
                                d->parents_[1]->parts_.size()) {
      return Status::RuntimeError(where +
                                  ": union partition count is not the sum "
                                  "of its parents'");
    }
    // Stage-registry consistency: refs minted in the current generation
    // must resolve; refs from before a Reset() are expected to be stale.
    if (d->stage_.gen == current_gen && stages_.Get(d->stage_) == nullptr) {
      return Status::RuntimeError(
          where + ": current-generation stage ref (stage " +
          std::to_string(d->stage_.id) + ") does not resolve");
    }
    // Checkpoint truncation invariants: a checkpointed node must be a
    // parentless source that can restore every partition from its spill
    // files (Engine::Checkpoint upholds these; a violation means the
    // truncation was torn).
    if (d->checkpointed_) {
      if (d->kind_ != DatasetImpl::OpKind::kSource || !d->parents_.empty()) {
        return Status::RuntimeError(
            where + ": checkpointed dataset still carries lineage");
      }
      if (!d->wide_fn_) {
        return Status::RuntimeError(
            where + ": checkpointed dataset has no restore closure");
      }
      if (d->spill_paths_.size() != d->parts_.size()) {
        return Status::RuntimeError(
            where + ": checkpointed dataset has " +
            std::to_string(d->spill_paths_.size()) + " spill file(s) for " +
            std::to_string(d->parts_.size()) + " partitions");
      }
    }
  }
  return Status::OK();
}

Status Engine::RecomputePartition(DatasetImpl* ds, int i) {
  const MeterSink sink = SinkFor(ds);
  sink.Add(Counter::kTasksRecomputed, 1);
  tracer_.Instant("recompute:" + ds->label_, "recompute", 0,
                  {{"partition", i}, {"stage", ds->stage_.id}});
  switch (ds->kind_) {
    case DatasetImpl::OpKind::kSource: {
      if (!ds->wide_fn_) {
        return Status::RuntimeError(
            "lost partition of non-regenerable source '" + ds->label_ + "'");
      }
      // Regeneration (and checkpoint restore) runs under the retry policy.
      const TaskContext ctx{sink, 0, ds->label_, "recompute"};
      return RunTaskWithRetry(
          ctx, i, [&](int part, int) { return ds->wide_fn_(this, ds, part); });
    }
    case DatasetImpl::OpKind::kNarrow: {
      DatasetImpl* parent = ds->parents_[0].get();
      const TaskContext ctx{sink, 0, ds->label_, "recompute"};
      return RunTaskWithRetry(
          ctx, i, [&](int part, int attempt) -> Status {
            // PinPartition recomputes the parent if it is unavailable
            // and reloads it if it was evicted.
            SAC_ASSIGN_OR_RETURN(PartitionPin pin,
                                 PinPartition(parent, part));
            Partition tmp;
            SAC_RETURN_NOT_OK(ds->narrow_fn_(pin.rows(), &tmp));
            SAC_RETURN_NOT_OK(CheckFault(recovery::FaultPoint::kMidMap, ctx,
                                         part, attempt));
            return PublishPartition(ds, part, std::move(tmp));
          });
    }
    case DatasetImpl::OpKind::kShuffle:
    case DatasetImpl::OpKind::kCoShuffle:
    case DatasetImpl::OpKind::kUnion:
      // Wide recomputes re-enter ExecuteShuffle (or the union closure over
      // its parents), whose own task paths already apply the retry policy
      // -- wrapping here again would square the attempt budget.
      return ds->wide_fn_(this, ds, i);
  }
  return Status::RuntimeError("unknown dataset kind");
}

}  // namespace sac::runtime
