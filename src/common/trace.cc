#include "src/common/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <unordered_map>

namespace sac::trace {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point ProcessEpoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

/// Small dense thread ids (stable per thread, process-wide).
uint32_t CurrentTid() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t tid = next.fetch_add(1) + 1;
  return tid;
}

std::atomic<uint64_t> g_tracer_uid{0};

thread_local uint64_t tls_parent_span = 0;

}  // namespace

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            ProcessEpoch())
          .count());
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

namespace {
/// Bucket 0 holds v == 0; bucket i >= 1 holds 2^(i-1) <= v < 2^i.
/// Values >= 2^63 saturate into bucket 63 (64 - clz would index past
/// the array).
int BucketOf(uint64_t v) {
  if (v == 0) return 0;
  const int b = 64 - __builtin_clzll(v);
  return b > 63 ? 63 : b;
}
}  // namespace

void Histogram::Record(uint64_t v) {
  buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur && !min_.compare_exchange_weak(cur, v)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v)) {
  }
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  const uint64_t mn = min_.load(std::memory_order_relaxed);
  s.min = (s.count == 0) ? 0 : mn;
  for (size_t i = 0; i < s.buckets.size(); ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

uint64_t HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const uint64_t rank = static_cast<uint64_t>(p * (count - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      if (i == 0) return 0;
      // Bucket upper bound, clamped to the observed max: tighter for the
      // bucket the max lives in, and the top bucket holds saturated
      // values >= 2^63 whose nominal bound would overflow the shift.
      const uint64_t bound = i >= 63 ? max : (uint64_t{1} << i) - 1;
      return std::min(bound, max);
    }
  }
  return max;
}

std::string HistogramSnapshot::ToString() const {
  std::ostringstream os;
  os << "count=" << count << " mean=" << static_cast<uint64_t>(Mean())
     << " p50<=" << Percentile(0.5) << " p95<=" << Percentile(0.95)
     << " max=" << max;
  return os.str();
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

Tracer::Tracer() : uid_(g_tracer_uid.fetch_add(1) + 1) {}

Tracer::Buffer* Tracer::ThreadBuffer() {
  // Per-thread cache keyed by tracer uid. Uids are never reused, so a
  // stale entry for a destroyed tracer can never be looked up again.
  thread_local std::unordered_map<uint64_t, Buffer*> cache;
  auto it = cache.find(uid_);
  if (it != cache.end()) return it->second;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  Buffer* buf = buffers_.back().get();
  cache.emplace(uid_, buf);
  return buf;
}

void Tracer::Record(SpanRecord rec) {
  if (!enabled()) return;
  Buffer* buf = ThreadBuffer();
  const size_t cap = buffer_capacity_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(buf->mu);
  if (buf->records.size() >= cap) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf->records.push_back(std::move(rec));
}

void Tracer::Instant(std::string name, std::string category, uint64_t parent,
                     std::vector<SpanArg> args) {
  if (!enabled()) return;
  SpanRecord rec;
  rec.id = NextId();
  rec.parent = parent;
  rec.name = std::move(name);
  rec.category = std::move(category);
  rec.start_us = NowMicros();
  rec.dur_us = 0;
  rec.tid = CurrentTid();
  rec.instant = true;
  rec.args = std::move(args);
  Record(std::move(rec));
}

uint64_t Tracer::Complete(std::string name, std::string category,
                          uint64_t parent, uint64_t start_us, uint64_t end_us,
                          std::vector<SpanArg> args) {
  if (!enabled()) return 0;
  SpanRecord rec;
  rec.id = NextId();
  rec.parent = parent;
  rec.name = std::move(name);
  rec.category = std::move(category);
  rec.start_us = start_us;
  rec.dur_us = end_us > start_us ? end_us - start_us : 0;
  rec.tid = CurrentTid();
  rec.args = std::move(args);
  const uint64_t id = rec.id;
  Record(std::move(rec));
  return id;
}

void Tracer::Counter(std::string name, std::vector<SpanArg> args) {
  if (!enabled()) return;
  SpanRecord rec;
  rec.id = NextId();
  rec.name = std::move(name);
  rec.category = "counter";
  rec.start_us = NowMicros();
  rec.tid = CurrentTid();
  rec.counter = true;
  rec.args = std::move(args);
  Record(std::move(rec));
}

std::vector<SpanRecord> Tracer::Drain() {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& buf : buffers_) {
      std::lock_guard<std::mutex> blk(buf->mu);
      out.insert(out.end(), std::make_move_iterator(buf->records.begin()),
                 std::make_move_iterator(buf->records.end()));
      buf->records.clear();
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_us != b.start_us ? a.start_us < b.start_us
                                              : a.id < b.id;
            });
  return out;
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      std::lock_guard<std::mutex> blk(buf->mu);
      out.insert(out.end(), buf->records.begin(), buf->records.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_us != b.start_us ? a.start_us < b.start_us
                                              : a.id < b.id;
            });
  return out;
}

void Tracer::Reset() {
  (void)Drain();
  dropped_.store(0, std::memory_order_relaxed);
}

size_t Tracer::size() const {
  size_t n = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> blk(buf->mu);
    n += buf->records.size();
  }
  return n;
}

std::string Tracer::ToChromeJson(const std::vector<SpanRecord>& spans,
                                 uint64_t dropped_events) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) os << ",";
    first = false;
    const char* ph = s.counter ? "C" : (s.instant ? "i" : "X");
    os << "\n{\"name\":\"" << JsonEscape(s.name) << "\",\"cat\":\""
       << JsonEscape(s.category) << "\",\"ph\":\"" << ph
       << "\",\"ts\":" << s.start_us;
    if (!s.instant && !s.counter) os << ",\"dur\":" << s.dur_us;
    if (s.instant) os << ",\"s\":\"t\"";  // thread-scoped instant
    os << ",\"pid\":1,\"tid\":" << s.tid << ",\"args\":{";
    bool first_arg = true;
    if (!s.counter) {
      // Counter tracks render every arg as a series; id/parent would
      // pollute the plot, so they are span/instant-only.
      os << "\"id\":" << s.id;
      if (s.parent != 0) os << ",\"parent\":" << s.parent;
      first_arg = false;
    }
    for (const SpanArg& a : s.args) {
      if (!first_arg) os << ",";
      first_arg = false;
      os << "\"" << JsonEscape(a.key) << "\":" << a.value;
    }
    os << "}}";
  }
  if (dropped_events > 0) {
    if (!first) os << ",";
    os << "\n{\"name\":\"trace:dropped_events\",\"cat\":\"meta\",\"ph\":\"C\""
       << ",\"ts\":" << NowMicros() << ",\"pid\":1,\"tid\":0"
       << ",\"args\":{\"dropped_events\":" << dropped_events << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

// ---------------------------------------------------------------------
// ScopedSpan
// ---------------------------------------------------------------------

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, std::string category,
                       uint64_t parent)
    : tracer_(tracer && tracer->enabled() ? tracer : nullptr) {
  if (!tracer_) return;
  rec_.id = tracer_->NextId();
  rec_.parent = parent;
  rec_.name = std::move(name);
  rec_.category = std::move(category);
  rec_.start_us = NowMicros();
  rec_.tid = CurrentTid();
}

ScopedSpan::~ScopedSpan() {
  if (!tracer_) return;
  rec_.dur_us = NowMicros() - rec_.start_us;
  tracer_->Record(std::move(rec_));
}

void ScopedSpan::AddArg(std::string key, int64_t value) {
  if (!tracer_) return;
  rec_.args.push_back(SpanArg{std::move(key), value});
}

// ---------------------------------------------------------------------
// ParentScope
// ---------------------------------------------------------------------

uint64_t CurrentParent() { return tls_parent_span; }

ParentScope::ParentScope(uint64_t span) : prev_(tls_parent_span) {
  tls_parent_span = span;
}

ParentScope::~ParentScope() { tls_parent_span = prev_; }

}  // namespace sac::trace
