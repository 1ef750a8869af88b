// Shared helpers for the figure-reproduction benches. Each bench binary
// prints one row per (series, size) point in a fixed column format:
//
//   figure  series  n  elements  time_ms  shuffle_MB
//
// matching the series of the paper's Figure 4 plots (x = number of matrix
// elements, y = total time). SAC_BENCH_REPS (default 2) controls how many
// timed repetitions are averaged; SAC_BENCH_SCALE in {tiny,small,full}
// controls the size sweep so `ctest`-adjacent runs stay fast.
//
// Besides the stdout table, every bench writes a machine-readable
// BENCH_<name>.json (override path with --out <file>) carrying wall time
// plus the per-stage metrics snapshot (shuffle bytes/records per
// operator), so the perf trajectory is auditable across PRs. Pass
// `--trace <file>` to also dump a Chrome trace-event JSON of every
// timed run (open in chrome://tracing or https://ui.perfetto.dev), and
// `--profile <file>` to write the profiler's profile.json for the last
// captured query (summarize/diff it with tools/sac_prof; see
// docs/PROFILING.md).
#ifndef SAC_BENCH_BENCH_COMMON_H_
#define SAC_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/api/sac.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace sac::bench {

inline int Reps() {
  const char* r = std::getenv("SAC_BENCH_REPS");
  return r ? std::max(1, atoi(r)) : 2;
}

inline std::string Scale() {
  const char* s = std::getenv("SAC_BENCH_SCALE");
  return s ? s : "small";
}

/// CPUs available to this process, stamped into every report so
/// sac_prof diff only hard-gates wall-clock against a baseline taken on
/// the same machine shape (counters are shape-independent and always
/// gate). Containerized runners resize CPU allocations between runs, and
/// a 4-executor simulated cluster on 1 CPU times nothing like on 8.
inline int HostCpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// The benchmark cluster shape: 4 simulated executors. (The paper used 8
/// executors of 11 cores; shuffle accounting scales the same way.)
inline runtime::ClusterConfig BenchCluster() {
  runtime::ClusterConfig c;
  c.num_executors = 4;
  c.cores_per_executor = 2;
  c.default_parallelism = 8;
  return c;
}

struct Row {
  std::string figure;
  std::string series;
  int64_t n = 0;
  int64_t elements = 0;
  double time_ms = 0;
  double shuffle_mb = 0;
  // Filled by TimeQuery: engine-wide totals and the per-stage breakdown
  // of the last timed repetition.
  MetricsSnapshot totals;
  std::vector<StageStatsSnapshot> stages;
  // Cost-model predictions for the same repetition: total shuffle bytes
  // per engine stage label, recorded at compile time (Sac::
  // predicted_shuffle_bytes). `sac_prof predcheck` holds these within 2x
  // of the measured per-label counters (docs/COST_MODEL.md).
  std::map<std::string, double> predicted;
};

inline void PrintHeader(const char* title) {
  std::printf("# %s\n", title);
  std::printf("%-8s %-12s %8s %12s %12s %12s\n", "figure", "series", "n",
              "elements", "time_ms", "shuffle_MB");
}

inline void PrintRow(const Row& r) {
  std::printf("%-8s %-12s %8lld %12lld %12.1f %12.2f\n", r.figure.c_str(),
              r.series.c_str(), static_cast<long long>(r.n),
              static_cast<long long>(r.elements), r.time_ms, r.shuffle_mb);
  std::fflush(stdout);
}

/// Times `fn` Reps() times (after a full stats reset), returning mean
/// wall milliseconds plus the last run's totals and per-stage snapshot.
template <typename Fn>
Row TimeQuery(sac::Sac* ctx, const std::string& figure,
              const std::string& series, int64_t n, int64_t elements,
              Fn&& fn) {
  double total_ms = 0;
  const int reps = Reps();
  Row row{};
  row.figure = figure;
  row.series = series;
  row.n = n;
  row.elements = elements;
  for (int rep = 0; rep < reps; ++rep) {
    // Keep the trace of the last rep only: earlier reps are warmup noise.
    ctx->ResetStats();
    Stopwatch sw;
    fn();
    total_ms += sw.ElapsedMillis();
  }
  row.time_ms = total_ms / reps;
  row.totals = ctx->metrics().Snapshot();
  row.stages = ctx->stages().Snapshot();
  // ResetStats cleared earlier reps' predictions, so this is exactly the
  // last repetition's compile-time estimate — same window as the stage
  // snapshot above.
  row.predicted = ctx->predicted_shuffle_bytes();
  row.shuffle_mb =
      static_cast<double>(row.totals.shuffle_bytes) / (1024.0 * 1024.0);
  return row;
}

/// Accumulates rows and trace spans, prints the stdout table rows, and on
/// destruction writes BENCH_<name>.json (plus the Chrome trace if
/// --trace was given).
class BenchReporter {
 public:
  BenchReporter(std::string name, int argc, char** argv)
      : name_(std::move(name)), out_path_("BENCH_" + name_ + ".json") {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&](const char* flag) -> const char* {
        const size_t len = std::strlen(flag);
        if (arg.compare(0, len, flag) == 0 && arg.size() > len &&
            arg[len] == '=') {
          return argv[i] + len + 1;
        }
        if (arg == flag && i + 1 < argc) return argv[++i];
        return nullptr;
      };
      if (const char* v = value("--trace")) {
        trace_path_ = v;
      } else if (const char* v = value("--profile")) {
        profile_path_ = v;
      } else if (const char* v = value("--out")) {
        out_path_ = v;
      }
    }
  }

  ~BenchReporter() { Write(); }

  bool tracing() const { return !trace_path_.empty(); }
  bool profiling() const { return !profile_path_.empty(); }

  /// Prints the stdout row and records it for the JSON report.
  void Report(const Row& row) {
    PrintRow(row);
    rows_.push_back(row);
  }

  /// Builds the profiler's profile.json from `ctx`'s current trace and
  /// stage stats, anchored to `row`'s measured wall time. Call BEFORE
  /// CaptureTrace (which drains the span buffers); the last capture
  /// wins. Cheap no-op when --profile was not given.
  void CaptureProfile(sac::Sac* ctx, const Row& row) {
    if (!profiling()) return;
    profile_json_ = ctx->ProfileJson(
        row.time_ms,
        row.figure + ":" + row.series + ":n=" + std::to_string(row.n));
  }

  /// Moves the spans traced so far out of `ctx` into the bench trace
  /// (call once per context, after its timed queries). Cheap no-op when
  /// --trace was not given.
  void CaptureTrace(sac::Sac* ctx) {
    if (!tracing()) return;
    std::vector<trace::SpanRecord> spans = ctx->tracer().Drain();
    spans_.insert(spans_.end(), std::make_move_iterator(spans.begin()),
                  std::make_move_iterator(spans.end()));
  }

  void Write() {
    if (written_) return;
    written_ = true;
    WriteJsonReport();
    if (tracing()) {
      std::ofstream out(trace_path_, std::ios::binary | std::ios::trunc);
      out << trace::Tracer::ToChromeJson(spans_);
      std::fprintf(stderr, "trace written to %s (%zu spans)\n",
                   trace_path_.c_str(), spans_.size());
    }
    if (profiling() && !profile_json_.empty()) {
      std::ofstream out(profile_path_, std::ios::binary | std::ios::trunc);
      out << profile_json_;
      std::fprintf(stderr, "profile written to %s\n", profile_path_.c_str());
    }
  }

 private:
  void WriteJsonReport() const {
    std::string j = "{\n";
    j += "\"bench\":\"" + trace::JsonEscape(name_) + "\",";
    j += "\"scale\":\"" + trace::JsonEscape(Scale()) + "\",";
    j += "\"reps\":" + std::to_string(Reps()) + ",";
    j += "\"host_cpus\":" + std::to_string(HostCpus()) + ",\n";
    j += "\"rows\":[";
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      j += (i ? ",\n" : "\n");
      j += "{\"figure\":\"" + trace::JsonEscape(r.figure) + "\",";
      j += "\"series\":\"" + trace::JsonEscape(r.series) + "\",";
      j += "\"n\":" + std::to_string(r.n) + ",";
      j += "\"elements\":" + std::to_string(r.elements) + ",";
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3f", r.time_ms);
      j += std::string("\"time_ms\":") + buf + ",";
      j += "\"totals\":{";
      AppendCounterFields(&j, r.totals, /*stage_row=*/false);
      j += "},\"stages\":[";
      for (size_t s = 0; s < r.stages.size(); ++s) {
        const StageStatsSnapshot& st = r.stages[s];
        j += (s ? "," : "");
        j += "{\"id\":" + std::to_string(st.id) + ",\"label\":\"" +
             trace::JsonEscape(st.label) + "\",\"kind\":\"" +
             trace::JsonEscape(st.kind) + "\",";
        AppendCounterFields(&j, st.counters, /*stage_row=*/true);
        std::snprintf(buf, sizeof(buf), "%.3f", st.wall_ms);
        j += std::string(",\"wall_ms\":") + buf;
        if (st.kind == "shuffle" || st.kind == "coshuffle") {
          std::snprintf(buf, sizeof(buf),
                        ",\"partition_skew\":%.3f,"
                        "\"partition_bytes_skew\":%.3f",
                        st.partition_skew, st.partition_bytes_skew);
          j += buf;
        }
        j += ",\"task_us\":{\"count\":" + std::to_string(st.task_us.count) +
             ",\"mean\":" + std::to_string(static_cast<uint64_t>(
                                st.task_us.Mean())) +
             ",\"p50\":" + std::to_string(st.task_us.Percentile(0.5)) +
             ",\"p95\":" + std::to_string(st.task_us.Percentile(0.95)) +
             ",\"max\":" + std::to_string(st.task_us.max) + "}}";
      }
      j += "],\"predicted\":{";
      bool first_pred = true;
      for (const auto& [label, bytes] : r.predicted) {
        if (!first_pred) j += ',';
        first_pred = false;
        std::snprintf(buf, sizeof(buf), "%.0f", bytes);
        j += "\"" + trace::JsonEscape(label) + "\":" + buf;
      }
      j += "}}";
    }
    j += "\n]}\n";
    std::ofstream out(out_path_, std::ios::binary | std::ios::trunc);
    out << j;
    std::fprintf(stderr, "report written to %s (%zu rows)\n",
                 out_path_.c_str(), rows_.size());
  }

  std::string name_;
  std::string out_path_;
  std::string trace_path_;
  std::string profile_path_;
  std::string profile_json_;
  std::vector<Row> rows_;
  std::vector<trace::SpanRecord> spans_;
  bool written_ = false;
};

#define SAC_BENCH_CHECK(expr)                                           \
  do {                                                                  \
    auto _st = (expr);                                                  \
    if (!_st.ok()) {                                                    \
      std::fprintf(stderr, "bench failure: %s\n",                       \
                   _st.status().ToString().c_str());                    \
      std::exit(1);                                                     \
    }                                                                   \
  } while (false)

}  // namespace sac::bench

#endif  // SAC_BENCH_BENCH_COMMON_H_
