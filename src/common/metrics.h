// Runtime metrics, reported next to wall time so the causal story behind
// a speedup ("SUMMA shuffles 8x fewer bytes") is auditable. Every counter
// is named once, in SAC_METRICS_FOR_EACH_COUNTER; enum, snapshot fields,
// shards, fold and JSON writer are generated from it. Metrics holds
// engine (or session) totals, StageStats one plan stage (one operator
// run), and MeterSink is the one way to meter (see there). Tasks install
// their sink as the thread's current one, so kernel counters metered
// inside run closures reach their stage too: a stage-scope counter summed
// over all stages equals the total. Writers hit a per-thread padded shard
// (relaxed atomics); reads fold the shards, exact when no query runs.
#ifndef SAC_COMMON_METRICS_H_
#define SAC_COMMON_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/stopwatch.h"
#include "src/common/trace.h"

namespace sac {

/// X(field, Enumerator, scope), in report order; the field is the
/// serialized name (bench JSON, profile.json, the docs glossary check).
/// kStage: metered per stage, rolled up into the totals. kEngine:
/// engine-wide only. kGauge: engine-wide high-water mark (Add raises it,
/// folds take the max). Groups are documented in docs/OPERATIONS.md.
#define SAC_METRICS_FOR_EACH_COUNTER(X)                        \
  X(shuffle_bytes, kShuffleBytes, kStage)                      \
  X(shuffle_records, kShuffleRecords, kStage)                  \
  X(cross_executor_bytes, kCrossExecutorBytes, kStage)         \
  X(local_shuffle_bytes, kLocalShuffleBytes, kStage)           \
  X(tasks_run, kTasksRun, kStage)                              \
  X(tasks_recomputed, kTasksRecomputed, kStage)                \
  X(records_processed, kRecordsProcessed, kStage)              \
  X(tasks_retried, kTasksRetried, kStage)                      \
  X(retry_wait_us, kRetryWaitUs, kStage)                       \
  X(faults_injected, kFaultsInjected, kStage)                  \
  X(checkpoint_bytes, kCheckpointBytes, kStage)                \
  X(checkpoint_restore_bytes, kCheckpointRestoreBytes, kStage) \
  X(evictions, kEvictions, kStage)                             \
  X(bytes_evicted, kBytesEvicted, kStage)                      \
  X(bytes_reloaded, kBytesReloaded, kStage)                    \
  X(reload_recomputes, kReloadRecomputes, kStage)              \
  X(peak_resident_bytes, kPeakResidentBytes, kGauge)           \
  X(flops_generic, kFlopsGeneric, kStage)                      \
  X(flops_packed, kFlopsPacked, kStage)                        \
  X(flops_jvmlike, kFlopsJvmlike, kStage)                      \
  X(tile_allocs, kTileAllocs, kStage)                          \
  X(queries_admitted, kQueriesAdmitted, kEngine)               \
  X(queries_queued, kQueriesQueued, kEngine)                   \
  X(plan_cache_hits, kPlanCacheHits, kEngine)                  \
  X(plan_cache_misses, kPlanCacheMisses, kEngine)              \
  X(plan_cache_evictions, kPlanCacheEvictions, kEngine)        \
  X(dist_bytes_sent, kDistBytesSent, kStage)                   \
  X(dist_bytes_received, kDistBytesReceived, kStage)           \
  X(dist_rpcs, kDistRpcs, kStage)                              \
  X(workers_lost, kWorkersLost, kEngine)                       \
  X(partitions_reexecuted, kPartitionsReexecuted, kStage)

enum class CounterScope : uint8_t { kStage, kEngine, kGauge };

enum class Counter : uint8_t {
#define SAC_METRICS_ENUM(field, id, scope) id,
  SAC_METRICS_FOR_EACH_COUNTER(SAC_METRICS_ENUM)
#undef SAC_METRICS_ENUM
};

inline constexpr CounterScope kCounterScopes[] = {
#define SAC_METRICS_SCOPE(field, id, scope) CounterScope::scope,
    SAC_METRICS_FOR_EACH_COUNTER(SAC_METRICS_SCOPE)
#undef SAC_METRICS_SCOPE
};
inline constexpr size_t kNumCounters = std::size(kCounterScopes);

constexpr CounterScope ScopeOf(Counter c) {
  return kCounterScopes[static_cast<size_t>(c)];
}
/// Serialized name of `c` (its snapshot field name).
const char* CounterName(Counter c);

/// Plain, copyable view of the counters, folded once across shards.
struct MetricsSnapshot {
#define SAC_METRICS_FIELD(field, id, scope) uint64_t field = 0;
  SAC_METRICS_FOR_EACH_COUNTER(SAC_METRICS_FIELD)
#undef SAC_METRICS_FIELD

  /// fn(name, value) per counter in list order (mutable: by reference).
#define SAC_METRICS_APPLY(field, id, scope) fn(#field, field);
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    SAC_METRICS_FOR_EACH_COUNTER(SAC_METRICS_APPLY)
  }
  template <typename Fn>
  void ForEachCounter(Fn&& fn) {
    SAC_METRICS_FOR_EACH_COUNTER(SAC_METRICS_APPLY)
  }
#undef SAC_METRICS_APPLY

  uint64_t Get(Counter c) const;
  uint64_t& Ref(Counter c);
  /// Folds `other` in: sums counters, keeps the max of gauges.
  void Accumulate(const MetricsSnapshot& other);
  std::string ToString() const;
};

/// Appends `"name":value` pairs (comma-separated, no braces); a
/// `stage_row` leaves out the engine-wide-only counters.
void AppendCounterFields(std::string* out, const MetricsSnapshot& c,
                         bool stage_row);

/// Cumulative counters of one engine, session or stage. Reset() between
/// measured runs, never during a query (Engine::ResetStats enforces it).
class Metrics {
 public:
  void Reset();
  /// Adds `n` to counter `c` (raises it to at least `n` for a gauge).
  void Add(Counter c, uint64_t n);
  /// Folded value of one counter (sum over shards; max for a gauge).
  uint64_t Get(Counter c) const;
  MetricsSnapshot Snapshot() const;
  std::string ToString() const;

 private:
  static constexpr size_t kShards = 16;  // power of two: a mask picks one
  struct alignas(64) Shard {
    std::atomic<uint64_t> v[kNumCounters] = {};
  };
  Shard shards_[kShards];
};

struct StageStatsSnapshot {  // copyable view of one StageStats
  int id = -1;
  std::string label;
  std::string kind;  // "source" | "narrow" | "shuffle" | "coshuffle" | ...
  MetricsSnapshot counters;
  double wall_ms = 0;
  trace::HistogramSnapshot task_us;  // per-task duration histogram
  // Shuffle stages only (0 elsewhere): max / mean over destination
  // partitions of the records (bytes) the shuffle routed to each.
  double partition_skew = 0;
  double partition_bytes_skew = 0;

  std::string ToString() const;
};

/// Counters and timings of one plan stage; counters arrive through a
/// MeterSink, which charges the totals and the session alongside.
class StageStats {
 public:
  StageStats(int id, std::string label, std::string kind)
      : id_(id), label_(std::move(label)), kind_(std::move(kind)) {}
  StageStats(const StageStats&) = delete;
  StageStats& operator=(const StageStats&) = delete;

  int id() const { return id_; }
  const std::string& label() const { return label_; }
  const std::string& kind() const { return kind_; }
  const Metrics& counters() const { return local_; }

  void Add(Counter c, uint64_t n) { local_.Add(c, n); }
  void RecordTaskMicros(uint64_t us) { task_us_.Record(us); }
  void AddWallMicros(uint64_t us) {
    wall_us_.fetch_add(us, std::memory_order_relaxed);
  }
  /// Adds one shuffle run's per-destination record and byte counts.
  void AddPartitionCounts(const std::vector<uint64_t>& records,
                          const std::vector<uint64_t>& bytes);
  StageStatsSnapshot Snapshot() const;

 private:
  const int id_;
  const std::string label_;
  const std::string kind_;
  Metrics local_;
  trace::Histogram task_us_;
  std::atomic<uint64_t> wall_us_{0};
  mutable std::mutex partition_mu_;
  std::vector<uint64_t> partition_records_;  // per destination partition
  std::vector<uint64_t> partition_bytes_;
};

/// Where metering lands: Add() charges the totals once, plus the stage
/// and the session when present. "No stage" (a dataset whose stage
/// predates the last ResetStats) is a null pointer here, not a branch at
/// each call site. A default-constructed sink drops everything.
class MeterSink {
 public:
  MeterSink() = default;
  MeterSink(Metrics* totals, StageStats* stage, Metrics* session)
      : totals_(totals), stage_(stage), session_(session) {}

  void Add(Counter c, uint64_t n) const {
    if (totals_) totals_->Add(c, n);
    if (stage_) stage_->Add(c, n);
    if (session_) session_->Add(c, n);
  }
  StageStats* stage() const { return stage_; }

  /// The running task's sink (see Scope); the dropping one outside tasks.
  static const MeterSink& Current();

  /// RAII: makes `sink` (which must outlive the scope) the thread's
  /// current sink, restoring the previous one on destruction.
  class Scope {
   public:
    explicit Scope(const MeterSink& sink);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    const MeterSink* prev_;
  };

 private:
  Metrics* totals_ = nullptr;
  StageStats* stage_ = nullptr;
  Metrics* session_ = nullptr;
};

/// Reference to a stage that stays valid across StageRegistry::Reset():
/// stale references resolve to nullptr instead of aliasing a new stage.
struct StageRef {
  uint64_t gen = 0;
  int id = -1;
};

/// Owns the per-stage stats of one engine. Stage addresses are stable
/// until Reset(), which must not race with query execution.
class StageRegistry {
 public:
  StageRef NewStage(const std::string& label, const std::string& kind);
  /// nullptr when the ref predates the last Reset() (or was never set).
  StageStats* Get(const StageRef& ref);
  /// Bumped by Reset(); a ref of this generation must resolve.
  uint64_t generation() const {
    std::lock_guard<std::mutex> lock(mu_);
    return gen_;
  }
  std::vector<StageStatsSnapshot> Snapshot() const;
  /// Drops all stages (totals are reset separately).
  void Reset();
  size_t size() const;
  /// Human-readable table, one row per stage.
  std::string ReportString() const;

 private:
  mutable std::mutex mu_;
  uint64_t gen_ = 1;
  std::deque<StageStats> stages_;  // deque: stable addresses on growth
};

}  // namespace sac

#endif  // SAC_COMMON_METRICS_H_
