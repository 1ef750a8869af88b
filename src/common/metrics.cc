#include "src/common/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/common/logging.h"

namespace sac {

namespace {
/// Small dense per-thread id used to spread threads over metric shards.
/// Process-wide so every Metrics instance shards the same way.
uint32_t ThreadShardSeed() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

constexpr const char* kCounterNames[] = {
#define SAC_METRICS_NAME(field, id, scope) #field,
    SAC_METRICS_FOR_EACH_COUNTER(SAC_METRICS_NAME)
#undef SAC_METRICS_NAME
};

thread_local const MeterSink* tls_current_sink = nullptr;
}  // namespace

const char* CounterName(Counter c) {
  return kCounterNames[static_cast<size_t>(c)];
}

void Metrics::Add(Counter c, uint64_t n) {
  // Threads may share a shard; the relaxed atomics keep that correct.
  std::atomic<uint64_t>& a =
      shards_[ThreadShardSeed() & (kShards - 1)].v[static_cast<size_t>(c)];
  if (ScopeOf(c) != CounterScope::kGauge) {
    a.fetch_add(n, std::memory_order_relaxed);
    return;
  }
  uint64_t prev = a.load(std::memory_order_relaxed);
  while (prev < n &&
         !a.compare_exchange_weak(prev, n, std::memory_order_relaxed)) {
  }
}

void Metrics::Reset() {
  for (Shard& s : shards_) {
    for (std::atomic<uint64_t>& a : s.v) a.store(0, std::memory_order_relaxed);
  }
}

uint64_t Metrics::Get(Counter c) const {
  const size_t i = static_cast<size_t>(c);
  const bool gauge = ScopeOf(c) == CounterScope::kGauge;
  uint64_t folded = 0;
  for (const Shard& s : shards_) {
    const uint64_t v = s.v[i].load(std::memory_order_relaxed);
    folded = gauge ? std::max(folded, v) : folded + v;
  }
  return folded;
}

MetricsSnapshot Metrics::Snapshot() const {
  MetricsSnapshot s;
  for (size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    s.Ref(c) = Get(c);
  }
  return s;
}

uint64_t MetricsSnapshot::Get(Counter c) const {
  return const_cast<MetricsSnapshot*>(this)->Ref(c);
}

uint64_t& MetricsSnapshot::Ref(Counter c) {
  switch (c) {
#define SAC_METRICS_CASE(field, id, scope) \
  case Counter::id:                        \
    return field;
    SAC_METRICS_FOR_EACH_COUNTER(SAC_METRICS_CASE)
#undef SAC_METRICS_CASE
  }
  SAC_CHECK(false) << "bad counter " << static_cast<int>(c);
  return shuffle_bytes;
}

void MetricsSnapshot::Accumulate(const MetricsSnapshot& other) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    uint64_t& mine = Ref(c);
    mine = ScopeOf(c) == CounterScope::kGauge ? std::max(mine, other.Get(c))
                                              : mine + other.Get(c);
  }
}

void AppendCounterFields(std::string* out, const MetricsSnapshot& c,
                         bool stage_row) {
  bool first = true;
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (stage_row && kCounterScopes[i] != CounterScope::kStage) continue;
    if (!first) *out += ',';
    first = false;
    *out += '"';
    *out += CounterName(static_cast<Counter>(i));
    *out += "\":";
    *out += std::to_string(c.Get(static_cast<Counter>(i)));
  }
}

const MeterSink& MeterSink::Current() {
  static const MeterSink kDropping;
  return tls_current_sink != nullptr ? *tls_current_sink : kDropping;
}

MeterSink::Scope::Scope(const MeterSink& sink) : prev_(tls_current_sink) {
  tls_current_sink = &sink;
}

MeterSink::Scope::~Scope() { tls_current_sink = prev_; }

std::string MetricsSnapshot::ToString() const {
  std::ostringstream os;
  os << "shuffle=" << shuffle_bytes / (1024.0 * 1024.0) << "MB"
     << " records=" << shuffle_records
     << " cross_exec=" << cross_executor_bytes / (1024.0 * 1024.0) << "MB"
     << " local=" << local_shuffle_bytes / (1024.0 * 1024.0) << "MB"
     << " tasks=" << tasks_run << " recomputed=" << tasks_recomputed;
  if (tasks_retried > 0 || faults_injected > 0) {
    os << " retried=" << tasks_retried << " faults=" << faults_injected
       << " backoff=" << retry_wait_us / 1000.0 << "ms";
  }
  if (checkpoint_bytes > 0 || checkpoint_restore_bytes > 0) {
    os << " ckpt_out=" << checkpoint_bytes / (1024.0 * 1024.0) << "MB"
       << " ckpt_in=" << checkpoint_restore_bytes / (1024.0 * 1024.0)
       << "MB";
  }
  if (evictions > 0 || bytes_reloaded > 0 || reload_recomputes > 0) {
    os << " evictions=" << evictions
       << " evicted=" << bytes_evicted / (1024.0 * 1024.0) << "MB"
       << " reloaded=" << bytes_reloaded / (1024.0 * 1024.0) << "MB"
       << " reload_recomputes=" << reload_recomputes;
  }
  if (peak_resident_bytes > 0) {
    os << " peak_resident=" << peak_resident_bytes / (1024.0 * 1024.0)
       << "MB";
  }
  if (flops_packed > 0 || flops_jvmlike > 0) {
    os << " mflops_packed=" << flops_packed / 1e6
       << " mflops_jvmlike=" << flops_jvmlike / 1e6;
  }
  if (tile_allocs > 0) os << " tile_allocs=" << tile_allocs;
  if (queries_admitted > 0) {
    os << " queries_admitted=" << queries_admitted
       << " queries_queued=" << queries_queued;
  }
  if (plan_cache_hits > 0 || plan_cache_misses > 0) {
    os << " plan_cache_hits=" << plan_cache_hits
       << " plan_cache_misses=" << plan_cache_misses
       << " plan_cache_evictions=" << plan_cache_evictions;
  }
  if (dist_bytes_sent > 0 || dist_bytes_received > 0 || workers_lost > 0) {
    os << " dist_tx=" << dist_bytes_sent / (1024.0 * 1024.0) << "MB"
       << " dist_rx=" << dist_bytes_received / (1024.0 * 1024.0) << "MB"
       << " dist_rpcs=" << dist_rpcs
       << " workers_lost=" << workers_lost
       << " reexecuted=" << partitions_reexecuted;
  }
  return os.str();
}

std::string Metrics::ToString() const { return Snapshot().ToString(); }

std::string StageStatsSnapshot::ToString() const {
  std::ostringstream os;
  os << "#" << id << " " << label << " [" << kind << "]"
     << " tasks=" << counters.tasks_run
     << " records_in=" << counters.records_processed
     << " shuffle=" << counters.shuffle_bytes / (1024.0 * 1024.0) << "MB"
     << " cross=" << counters.cross_executor_bytes / (1024.0 * 1024.0)
     << "MB local=" << counters.local_shuffle_bytes / (1024.0 * 1024.0)
     << "MB recomputed=" << counters.tasks_recomputed;
  if (counters.tasks_retried > 0) {
    os << " retried=" << counters.tasks_retried
       << " backoff=" << counters.retry_wait_us / 1000.0 << "ms";
  }
  return os.str();
}

namespace {
/// max / mean of `v`; 0 when empty or all zero.
double Skew(const std::vector<uint64_t>& v) {
  uint64_t sum = 0, max = 0;
  for (const uint64_t x : v) {
    sum += x;
    max = std::max(max, x);
  }
  return sum == 0 ? 0.0
                  : static_cast<double>(max) * static_cast<double>(v.size()) /
                        static_cast<double>(sum);
}
}  // namespace

void StageStats::AddPartitionCounts(const std::vector<uint64_t>& records,
                                    const std::vector<uint64_t>& bytes) {
  std::lock_guard<std::mutex> lock(partition_mu_);
  partition_records_.resize(std::max(partition_records_.size(),
                                     records.size()));
  partition_bytes_.resize(std::max(partition_bytes_.size(), bytes.size()));
  for (size_t d = 0; d < records.size(); ++d) {
    partition_records_[d] += records[d];
  }
  for (size_t d = 0; d < bytes.size(); ++d) partition_bytes_[d] += bytes[d];
}

StageStatsSnapshot StageStats::Snapshot() const {
  StageStatsSnapshot s;
  s.id = id_;
  s.label = label_;
  s.kind = kind_;
  s.counters = local_.Snapshot();
  s.wall_ms = wall_us_.load(std::memory_order_relaxed) / 1000.0;
  s.task_us = task_us_.Snapshot();
  std::lock_guard<std::mutex> lock(partition_mu_);
  s.partition_skew = Skew(partition_records_);
  s.partition_bytes_skew = Skew(partition_bytes_);
  return s;
}

StageRef StageRegistry::NewStage(const std::string& label,
                                 const std::string& kind) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(stages_.size());
  stages_.emplace_back(id, label, kind);
  return StageRef{gen_, id};
}

StageStats* StageRegistry::Get(const StageRef& ref) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ref.gen != gen_ || ref.id < 0 ||
      ref.id >= static_cast<int>(stages_.size())) {
    return nullptr;
  }
  return &stages_[ref.id];
}

std::vector<StageStatsSnapshot> StageRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StageStatsSnapshot> out;
  out.reserve(stages_.size());
  for (const StageStats& s : stages_) out.push_back(s.Snapshot());
  return out;
}

void StageRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  stages_.clear();
  ++gen_;
}

size_t StageRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stages_.size();
}

std::string StageRegistry::ReportString() const {
  const std::vector<StageStatsSnapshot> stages = Snapshot();
  std::ostringstream os;
  char line[512];
  std::snprintf(line, sizeof(line),
                "%-5s %-24s %-9s %6s %12s %12s %10s %10s %7s %7s %6s %10s "
                "%8s %8s %9s %10s %10s %6s %9s %12s %5s %5s\n",
                "stage", "label", "kind", "tasks", "records_in",
                "shuffle_KB", "cross_KB", "local_KB", "recomp", "retries",
                "faults", "backoff_ms", "ckpt_KB", "evict_KB", "reload_KB",
                "dist_tx_KB", "dist_rx_KB", "reexec", "wall_ms",
                "task_p95_us", "skew", "bskew");
  os << line;
  for (const StageStatsSnapshot& s : stages) {
    std::snprintf(
        line, sizeof(line),
        "%-5d %-24s %-9s %6llu %12llu %12.1f %10.1f %10.1f %7llu %7llu "
        "%6llu %10.1f %8.1f %8.1f %9.1f %10.1f %10.1f %6llu %9.2f %12llu "
        "%5.2f %5.2f\n",
        s.id, s.label.substr(0, 24).c_str(), s.kind.c_str(),
        static_cast<unsigned long long>(s.counters.tasks_run),
        static_cast<unsigned long long>(s.counters.records_processed),
        s.counters.shuffle_bytes / 1024.0,
        s.counters.cross_executor_bytes / 1024.0,
        s.counters.local_shuffle_bytes / 1024.0,
        static_cast<unsigned long long>(s.counters.tasks_recomputed),
        static_cast<unsigned long long>(s.counters.tasks_retried),
        static_cast<unsigned long long>(s.counters.faults_injected),
        s.counters.retry_wait_us / 1000.0,
        (s.counters.checkpoint_bytes + s.counters.checkpoint_restore_bytes) /
            1024.0,
        s.counters.bytes_evicted / 1024.0,
        s.counters.bytes_reloaded / 1024.0,
        s.counters.dist_bytes_sent / 1024.0,
        s.counters.dist_bytes_received / 1024.0,
        static_cast<unsigned long long>(s.counters.partitions_reexecuted),
        s.wall_ms,
        static_cast<unsigned long long>(s.task_us.Percentile(0.95)),
        s.partition_skew, s.partition_bytes_skew);
    os << line;
  }
  return os.str();
}

}  // namespace sac
