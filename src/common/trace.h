// Execution tracing: spans (stage/task/action), instant events, and
// log-scale histograms, recorded lock-cheaply into per-thread buffers and
// exportable as Chrome trace-event JSON (load in chrome://tracing or
// https://ui.perfetto.dev).
//
// The design mirrors what Spark's listener bus / Thrill's JSON profiles
// give their engines: every operator in the DISC engine opens a *stage*
// span, every partition task opens a *task* span parented to it, and
// recomputations surface as instant events -- so "plan X shuffles less"
// is auditable span-by-span instead of from one global counter.
//
// Concurrency: each thread writes completed spans to its own buffer
// (one uncontended mutex acquisition per record; the registry mutex is
// taken only the first time a thread touches a given tracer). Draining
// merges all buffers. Histogram counters are plain atomics.
#ifndef SAC_COMMON_TRACE_H_
#define SAC_COMMON_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sac::trace {

/// Microseconds since a process-wide steady-clock epoch (first use).
/// All tracers share this epoch so events from several engines merge
/// onto one timeline.
uint64_t NowMicros();

/// Escapes a string for embedding in a JSON string literal (quotes not
/// included).
std::string JsonEscape(const std::string& s);

// ---------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------

struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  // buckets[i] counts values v with 2^(i-1) <= v < 2^i (bucket 0: v == 0).
  std::array<uint64_t, 64> buckets{};

  double Mean() const { return count ? static_cast<double>(sum) / count : 0; }
  /// Upper bound of the bucket holding the p-quantile (p in [0,1]).
  uint64_t Percentile(double p) const;
  std::string ToString() const;  // e.g. "count=16 mean=120us p50<=128 max=400"
};

/// Thread-safe log2-bucketed histogram of non-negative integers
/// (microseconds, bytes, ...). Recording is a couple of relaxed atomic
/// adds; min/max use CAS loops.
class Histogram {
 public:
  void Record(uint64_t v);
  void Reset();
  HistogramSnapshot Snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, 64> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct SpanArg {
  std::string key;
  int64_t value = 0;
};

/// One completed span (or instant event when dur_us == 0 and
/// instant == true).
struct SpanRecord {
  uint64_t id = 0;      // unique per tracer, never 0
  uint64_t parent = 0;  // 0 = no parent
  std::string name;
  std::string category;  // "stage" | "task" | "action" | "recompute" | ...
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
  uint32_t tid = 0;  // small dense thread id (process-wide)
  bool instant = false;
  bool counter = false;  // time-series sample; args are the series values
  std::vector<SpanArg> args;
};

/// Collects spans from many threads. Each thread gets its own buffer on
/// first use (registry lock once per thread per tracer); subsequent
/// records take only that buffer's uncontended mutex.
class Tracer {
 public:
  Tracer();
  ~Tracer() = default;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Appends a completed span to the calling thread's buffer. No-op when
  /// disabled.
  void Record(SpanRecord rec);

  /// Records a span whose interval the caller stamped (NowMicros()
  /// values) and returns its id, so children can be recorded under it.
  /// Returns 0 and records nothing when disabled.
  uint64_t Complete(std::string name, std::string category, uint64_t parent,
                    uint64_t start_us, uint64_t end_us,
                    std::vector<SpanArg> args = {});

  /// Records a zero-duration instant event.
  void Instant(std::string name, std::string category, uint64_t parent,
               std::vector<SpanArg> args = {});

  /// Records a counter sample ("C" phase in the Chrome export): each arg
  /// becomes one series on a timeline track named `name`.
  void Counter(std::string name, std::vector<SpanArg> args);

  /// Moves out every recorded span (merged across threads, sorted by
  /// start time). Buffers stay registered; recording continues.
  std::vector<SpanRecord> Drain();

  /// Copies every recorded span without clearing.
  std::vector<SpanRecord> Snapshot() const;

  void Reset();

  size_t size() const;

  /// Per-thread span buffer capacity. Once a thread's buffer is full,
  /// further records on that thread are dropped (counted in
  /// dropped_events()) instead of growing trace memory without bound.
  /// Drain()/Reset() free the space again.
  static constexpr size_t kDefaultBufferCapacity = 1u << 18;
  void set_buffer_capacity(size_t cap) {
    buffer_capacity_.store(cap, std::memory_order_relaxed);
  }
  size_t buffer_capacity() const {
    return buffer_capacity_.load(std::memory_order_relaxed);
  }
  uint64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Renders spans as a Chrome trace-event JSON document ("X" complete
  /// events; instants as "i"; counter samples as "C"). Parent ids are
  /// carried in args.parent. A nonzero dropped_events count is exported
  /// as a trailing "trace:dropped_events" counter so truncation is
  /// visible on the timeline rather than silent.
  static std::string ToChromeJson(const std::vector<SpanRecord>& spans,
                                  uint64_t dropped_events = 0);

 private:
  struct Buffer {
    mutable std::mutex mu;
    std::vector<SpanRecord> records;
  };
  Buffer* ThreadBuffer();

  const uint64_t uid_;  // process-unique, never reused (thread cache key)
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> next_id_{0};
  std::atomic<size_t> buffer_capacity_{kDefaultBufferCapacity};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;  // guards buffers_ growth
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span: records [construction, destruction) into the tracer's
/// calling-thread buffer. Null tracer or disabled tracer => no-op and
/// id() == 0.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string category,
             uint64_t parent = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return rec_.id; }
  void AddArg(std::string key, int64_t value);

 private:
  Tracer* tracer_;
  SpanRecord rec_;
};

/// The span that work on the calling thread runs under (0 = none).
/// Engine tasks set it (ParentScope), so layers below the engine -- the
/// dist coordinator's wire spans -- parent their spans under the running
/// task without an id threaded through every call.
uint64_t CurrentParent();

/// RAII: makes `span` the thread's CurrentParent(), restoring the
/// previous one on destruction.
class ParentScope {
 public:
  explicit ParentScope(uint64_t span);
  ~ParentScope();

  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  uint64_t prev_;
};

}  // namespace sac::trace

#endif  // SAC_COMMON_TRACE_H_
