// sac_prof: CLI over the query profiler (src/common/profile.h).
//
//   sac_prof [summary] <profile.json>
//       Human-readable summary: critical path with per-stage wall-clock
//       attribution, top stages (total/self/task/exclusive time, task
//       percentiles), phase breakdowns, joined counters, the wire time
//       of distributed shuffles (encode / call / decode), sampler stats.
//
//   sac_prof check <profile.json> [--min-coverage <pct>]
//       Gate mode for CI: exits non-zero unless the critical path is
//       non-empty, covers at least --min-coverage (default 80) percent
//       of measured wall-clock, and the per-stage exclusive times sum to
//       no more than the wall time (within tolerance).
//
//   sac_prof diff <base.json> <current.json> [threshold flags]
//       Noise-aware regression diff. Inputs may be two profile.json
//       documents or two BENCH_*.json bench reports (auto-detected;
//       bench rows are matched on (figure, series, n)). A metric
//       regresses only when it worsens by BOTH the relative and the
//       absolute threshold. Exits non-zero when any regression is found.
//       Flags: --time-pct --time-abs-ms --bytes-pct --bytes-abs
//              --count-pct --count-abs
//
//   sac_prof predcheck <BENCH.json> [--max-ratio R]
//       Cost-model accuracy gate: for every bench row carrying a
//       "predicted" object (compile-time shuffle bytes per engine stage
//       label), compares against the measured per-label stage counters
//       (shuffle_bytes + local_shuffle_bytes) and fails when prediction
//       and measurement disagree by more than --max-ratio (default 2.0)
//       in either direction. Labels where both sides are under 64 KiB
//       are skipped as noise. Exits non-zero on any violation, or when
//       the report contains no predictions at all (a vacuous pass would
//       hide a plumbing break). See docs/COST_MODEL.md.
//
//   sac_prof skewcheck <BENCH.json>
//       Partition-balance gate: every shuffle stage row's
//       partition_skew (max / mean records per destination partition)
//       must be at most 1.5. Fails on a violation, and when the report
//       has no shuffle stage rows at all.
//
// See docs/PROFILING.md for the profile schema and semantics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/profile.h"
#include "src/common/status.h"

namespace sac {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: sac_prof [summary] <profile.json>\n"
      "       sac_prof check <profile.json> [--min-coverage <pct>]\n"
      "       sac_prof diff <base.json> <current.json>\n"
      "           [--time-pct P] [--time-abs-ms MS] [--bytes-pct P]\n"
      "           [--bytes-abs B] [--count-pct P] [--count-abs C]\n"
      "       sac_prof predcheck <BENCH.json> [--max-ratio R]\n"
      "       sac_prof skewcheck <BENCH.json>\n");
  return 2;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::RuntimeError("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::RuntimeError("failed reading '" + path + "'");
  }
  return os.str();
}

double Ms(uint64_t us) { return static_cast<double>(us) / 1000.0; }

// ---------------------------------------------------------------------
// summary
// ---------------------------------------------------------------------

void PrintSummary(const profile::Profile& p) {
  std::printf("profile%s%s\n", p.query.empty() ? "" : ": ",
              p.query.c_str());
  std::printf("  wall          %10.3f ms\n", p.wall_ms);
  std::printf("  trace extent  %10.3f ms\n", p.trace_extent_ms);
  std::printf("  coverage      %9.1f %% of wall explained by the "
              "critical path\n",
              p.coverage_pct);
  if (p.dropped_trace_events > 0) {
    std::printf("  WARNING: %llu trace events dropped (span buffer cap); "
                "times underestimate\n",
                static_cast<unsigned long long>(p.dropped_trace_events));
  }

  std::printf("\ncritical path (exclusive wall-clock attribution):\n");
  if (p.critical_path.empty()) {
    std::printf("  (empty -- no spans covered the measured interval)\n");
  }
  for (int idx : p.critical_path) {
    const profile::StageProfile& s = p.stages[static_cast<size_t>(idx)];
    std::printf("  %6.1f%%  %10.3f ms  %s (%s)\n", s.wall_pct,
                Ms(s.exclusive_us), s.name.c_str(), s.category.c_str());
  }

  std::printf("\ntop stages by total time:\n");
  std::printf("  %-28s %-8s %5s %10s %10s %10s %10s %8s %8s %8s\n",
              "stage", "category", "count", "total_ms", "self_ms",
              "task_ms", "excl_ms", "p50_us", "p95_us", "max_us");
  size_t shown = 0;
  for (const profile::StageProfile& s : p.stages) {
    if (shown++ >= 15) break;
    std::printf(
        "  %-28s %-8s %5llu %10.3f %10.3f %10.3f %10.3f %8llu %8llu "
        "%8llu\n",
        s.name.c_str(), s.category.c_str(),
        static_cast<unsigned long long>(s.count), Ms(s.total_us),
        Ms(s.self_us), Ms(s.task_time_us), Ms(s.exclusive_us),
        static_cast<unsigned long long>(s.task_p50_us),
        static_cast<unsigned long long>(s.task_p95_us),
        static_cast<unsigned long long>(s.longest_task_us));
    for (const profile::PhaseProfile& ph : s.phases) {
      std::printf("      phase %-12s tasks=%-6llu busy=%.3fms "
                  "task_time=%.3fms longest=%.3fms\n",
                  ph.phase.c_str(),
                  static_cast<unsigned long long>(ph.task_count),
                  Ms(ph.busy_us), Ms(ph.task_time_us),
                  Ms(ph.longest_task_us));
    }
  }
  if (p.stages.size() > shown) {
    std::printf("  ... %zu more stages\n", p.stages.size() - shown);
  }

  std::printf("\ntotals: shuffle %.2f MB (%llu records), cross-executor "
              "%.2f MB, tasks %llu, evictions %llu (%.2f MB)\n",
              static_cast<double>(p.totals.shuffle_bytes +
                                  p.totals.local_shuffle_bytes) /
                  (1024.0 * 1024.0),
              static_cast<unsigned long long>(p.totals.shuffle_records),
              static_cast<double>(p.totals.cross_executor_bytes) /
                  (1024.0 * 1024.0),
              static_cast<unsigned long long>(p.totals.tasks_run),
              static_cast<unsigned long long>(p.totals.evictions),
              static_cast<double>(p.totals.bytes_evicted) /
                  (1024.0 * 1024.0));

  // Wire time of distributed shuffles, summed over stages: how much of
  // the shuffle the RPCs took, and which part of them.
  std::map<std::string, uint64_t> wire_busy_us;
  for (const profile::StageProfile& s : p.stages) {
    for (const profile::PhaseProfile& ph : s.phases) {
      if (ph.phase.rfind("wire", 0) == 0) {
        wire_busy_us[ph.phase] += ph.busy_us;
      }
    }
  }
  if (p.totals.dist_rpcs > 0 || !wire_busy_us.empty()) {
    std::printf("wire: %llu RPCs, %.2f MB sent, %.2f MB received; busy "
                "%.3f ms (encode %.3f, call %.3f, decode %.3f ms)\n",
                static_cast<unsigned long long>(p.totals.dist_rpcs),
                static_cast<double>(p.totals.dist_bytes_sent) /
                    (1024.0 * 1024.0),
                static_cast<double>(p.totals.dist_bytes_received) /
                    (1024.0 * 1024.0),
                Ms(wire_busy_us["wire"]), Ms(wire_busy_us["wire:encode"]),
                Ms(wire_busy_us["wire:call"]),
                Ms(wire_busy_us["wire:decode"]));
  }

  if (!p.samples.empty()) {
    // Per-key min/max over the sampler time series.
    std::printf("\nsampler: %zu samples over %.3f ms\n", p.samples.size(),
                Ms(p.samples.back().t_us - p.samples.front().t_us));
    std::vector<std::string> keys;
    for (const trace::SpanArg& a : p.samples.front().values) {
      keys.push_back(a.key);
    }
    for (const std::string& key : keys) {
      int64_t lo = 0, hi = 0;
      bool seen = false;
      for (const profile::Sample& s : p.samples) {
        for (const trace::SpanArg& a : s.values) {
          if (a.key != key) continue;
          if (!seen) {
            lo = hi = a.value;
            seen = true;
          } else {
            lo = std::min(lo, a.value);
            hi = std::max(hi, a.value);
          }
        }
      }
      if (seen) {
        std::printf("  %-18s min=%lld max=%lld\n", key.c_str(),
                    static_cast<long long>(lo), static_cast<long long>(hi));
      }
    }
  }
}

// ---------------------------------------------------------------------
// check
// ---------------------------------------------------------------------

int RunCheck(const profile::Profile& p, double min_coverage) {
  int failures = 0;
  if (p.critical_path.empty()) {
    std::fprintf(stderr, "FAIL: critical path is empty\n");
    ++failures;
  }
  if (p.coverage_pct < min_coverage) {
    std::fprintf(stderr,
                 "FAIL: critical path covers %.1f%% of wall-clock, "
                 "need >= %.1f%%\n",
                 p.coverage_pct, min_coverage);
    ++failures;
  }
  uint64_t exclusive_sum = 0;
  for (const profile::StageProfile& s : p.stages) {
    exclusive_sum += s.exclusive_us;
  }
  // The sweep is exclusive, so the sum can never legitimately exceed the
  // measured wall; 1% tolerance absorbs clock granularity.
  if (Ms(exclusive_sum) > p.wall_ms * 1.01 + 0.5) {
    std::fprintf(stderr,
                 "FAIL: exclusive times sum to %.3f ms, more than the "
                 "%.3f ms wall\n",
                 Ms(exclusive_sum), p.wall_ms);
    ++failures;
  }
  if (failures == 0) {
    std::printf("OK: critical path %zu stage(s), coverage %.1f%% "
                "(>= %.1f%%), exclusive sum %.3f / %.3f ms wall\n",
                p.critical_path.size(), p.coverage_pct, min_coverage,
                Ms(exclusive_sum), p.wall_ms);
  }
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------

/// Bench-report diff: rows matched on (figure, series, n).
int DiffBenchReports(const json::Value& base, const json::Value& cur,
                     const profile::DiffThresholds& t) {
  struct Key {
    std::string figure, series;
    int64_t n;
  };
  auto key_of = [](const json::Value& row) {
    return Key{row.GetStr("figure"), row.GetStr("series"),
               row.GetInt("n")};
  };
  auto shuffle_of = [](const json::Value& row) {
    const json::Value& tot = row.At("totals");
    return static_cast<double>(tot.GetUInt("shuffle_bytes") +
                               tot.GetUInt("local_shuffle_bytes"));
  };

  // Wall-clock only gates against a baseline from the same machine shape:
  // reports stamp host_cpus (bench_common.h), and a 4-executor run on 1
  // CPU is not comparable to the same run on 8. Counters (shuffle bytes /
  // records) are shape-independent and always gate. Unstamped baselines
  // (pre-host_cpus schema) count as unknown shape.
  const int64_t base_cpus = base.GetInt("host_cpus", 0);
  const int64_t cur_cpus = cur.GetInt("host_cpus", 0);
  const bool same_shape = base_cpus > 0 && base_cpus == cur_cpus;
  if (!same_shape) {
    std::printf(
        "note: host shapes differ or are unstamped (base %lld cpus, "
        "current %lld); time_ms deltas are informational, counters still "
        "gate\n",
        static_cast<long long>(base_cpus), static_cast<long long>(cur_cpus));
  }

  int regressions = 0;
  int matched = 0;
  std::printf("%-34s %-20s %14s %14s %9s\n", "row", "metric", "base",
              "current", "delta");
  for (const json::Value& brow : base.At("rows").array) {
    const Key k = key_of(brow);
    const json::Value* crow = nullptr;
    for (const json::Value& c : cur.At("rows").array) {
      const Key ck = key_of(c);
      if (ck.figure == k.figure && ck.series == k.series && ck.n == k.n) {
        crow = &c;
        break;
      }
    }
    const std::string row_name =
        k.figure + "/" + k.series + "/n=" + std::to_string(k.n);
    if (crow == nullptr) {
      std::printf("%-34s missing from current report\n", row_name.c_str());
      continue;
    }
    ++matched;
    struct M {
      const char* name;
      double b, c, rel, abs;
    };
    const json::Value& btot = brow.At("totals");
    const json::Value& ctot = crow->At("totals");
    const M metrics[] = {
        {"time_ms", brow.GetNum("time_ms"), crow->GetNum("time_ms"),
         t.time_pct, t.time_abs_ms},
        {"shuffle_bytes", shuffle_of(brow), shuffle_of(*crow), t.bytes_pct,
         t.bytes_abs},
        {"cross_executor_bytes",
         static_cast<double>(btot.GetUInt("cross_executor_bytes")),
         static_cast<double>(ctot.GetUInt("cross_executor_bytes")),
         t.bytes_pct, t.bytes_abs},
        {"shuffle_records",
         static_cast<double>(btot.GetUInt("shuffle_records")),
         static_cast<double>(ctot.GetUInt("shuffle_records")), t.count_pct,
         t.count_abs},
    };
    for (const M& m : metrics) {
      const bool worse = profile::IsRegression(m.b, m.c, m.rel, m.abs);
      const bool is_time = std::strcmp(m.name, "time_ms") == 0;
      const bool reg = worse && (same_shape || !is_time);
      const double pct = m.b > 0 ? (m.c - m.b) / m.b * 100.0 : 0.0;
      std::printf("%-34s %-20s %14.3f %14.3f %+8.1f%%%s\n",
                  row_name.c_str(), m.name, m.b, m.c, pct,
                  reg ? "  REGRESSION"
                      : (worse ? "  worse (not gated: host shape)" : ""));
      if (reg) ++regressions;
    }
  }
  if (matched == 0) {
    std::fprintf(stderr, "diff: no matching rows between the reports\n");
    return 1;
  }
  std::printf("%s\n", regressions == 0
                          ? "no regressions"
                          : (std::to_string(regressions) + " regression(s)")
                                .c_str());
  return regressions == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// predcheck
// ---------------------------------------------------------------------

/// Compares each row's compile-time shuffle predictions against the
/// measured per-label stage counters. Both sides are TOTAL moved bytes
/// (executor-local + cross-executor); the local/cross split is a model
/// assumption we deliberately do not gate on.
int RunPredcheck(const std::string& text, double max_ratio) {
  json::Value report;
  Status st = json::Parse(text, &report);
  if (!st.ok()) {
    std::fprintf(stderr, "predcheck: %s\n", st.ToString().c_str());
    return 2;
  }
  if (!report.Has("rows")) {
    std::fprintf(stderr,
                 "predcheck: input is not a bench report (no \"rows\")\n");
    return 2;
  }
  // Below this, serialization overheads and per-partition headers dominate
  // and the ratio is meaningless noise.
  constexpr double kFloorBytes = 64.0 * 1024.0;

  int checked = 0, skipped = 0, failures = 0;
  std::printf("%-34s %-14s %12s %12s %7s\n", "row", "label",
              "predicted", "measured", "ratio");
  for (const json::Value& row : report.At("rows").array) {
    const std::string row_name = row.GetStr("figure") + "/" +
                                 row.GetStr("series") + "/n=" +
                                 std::to_string(row.GetInt("n"));
    if (!row.Has("predicted") || row.At("predicted").object.empty()) {
      continue;
    }
    for (const auto& [label, pred_val] : row.At("predicted").object) {
      const double predicted = pred_val.number;
      double measured = 0;
      if (row.Has("stages")) {
        for (const json::Value& stage : row.At("stages").array) {
          if (stage.GetStr("label") != label) continue;
          measured += static_cast<double>(stage.GetUInt("shuffle_bytes") +
                                          stage.GetUInt("local_shuffle_bytes"));
        }
      }
      if (predicted < kFloorBytes && measured < kFloorBytes) {
        ++skipped;
        continue;
      }
      ++checked;
      const double hi = std::max(predicted, measured);
      const double lo = std::min(predicted, measured);
      const double ratio = lo > 0 ? hi / lo : std::numeric_limits<double>::infinity();
      const bool bad = ratio > max_ratio;
      std::printf("%-34s %-14s %12.0f %12.0f %6.2fx%s\n", row_name.c_str(),
                  label.c_str(), predicted, measured, ratio,
                  bad ? "  FAIL" : "");
      if (bad) ++failures;
    }
  }
  if (checked == 0) {
    std::fprintf(stderr,
                 "predcheck: no predictions above the %0.f KiB floor in "
                 "this report (%d below-floor labels skipped) -- "
                 "refusing a vacuous pass\n",
                 kFloorBytes / 1024.0, skipped);
    return 1;
  }
  std::printf("%d label(s) checked, %d below noise floor, %d violation(s) "
              "of the %.1fx bound\n",
              checked, skipped, failures, max_ratio);
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// skewcheck
// ---------------------------------------------------------------------

/// Bound of the partition-balance gate: the busiest destination may hold
/// at most half again the mean record count.
constexpr double kMaxPartitionSkew = 1.5;

/// Holds every shuffle stage of every row to partition_skew <=
/// kMaxPartitionSkew.
int RunSkewcheck(const std::string& text) {
  json::Value report;
  Status st = json::Parse(text, &report);
  if (!st.ok() || !report.Has("rows")) {
    std::fprintf(stderr, "skewcheck: not a bench report: %s\n",
                 st.ok() ? "no \"rows\"" : st.ToString().c_str());
    return 2;
  }
  int checked = 0, failures = 0;
  double worst = 0;
  for (const json::Value& row : report.At("rows").array) {
    if (!row.Has("stages")) continue;
    for (const json::Value& stage : row.At("stages").array) {
      if (!stage.Has("partition_skew")) continue;
      ++checked;
      const double skew = stage.GetNum("partition_skew");
      worst = std::max(worst, skew);
      if (skew <= kMaxPartitionSkew) continue;
      ++failures;
      std::printf("FAIL %s/%s/n=%lld stage #%lld %s: partition_skew %.3f "
                  "(bytes %.3f) > %.2f\n",
                  row.GetStr("figure").c_str(), row.GetStr("series").c_str(),
                  static_cast<long long>(row.GetInt("n")),
                  static_cast<long long>(stage.GetInt("id")),
                  stage.GetStr("label").c_str(), skew,
                  stage.GetNum("partition_bytes_skew"), kMaxPartitionSkew);
    }
  }
  if (checked == 0) {
    std::fprintf(stderr, "skewcheck: no shuffle stage rows -- refusing a "
                         "vacuous pass\n");
    return 1;
  }
  std::printf("%d shuffle stage(s) checked, worst partition_skew %.3f, %d "
              "above %.2f\n",
              checked, worst, failures, kMaxPartitionSkew);
  return failures == 0 ? 0 : 1;
}

int RunDiff(const std::string& base_text, const std::string& cur_text,
            const profile::DiffThresholds& t) {
  json::Value base, cur;
  Status bs = json::Parse(base_text, &base);
  Status cs = json::Parse(cur_text, &cur);
  if (!bs.ok() || !cs.ok()) {
    std::fprintf(stderr, "diff: %s\n",
                 (!bs.ok() ? bs : cs).ToString().c_str());
    return 2;
  }
  const bool base_is_profile = base.Has("profile_version");
  const bool cur_is_profile = cur.Has("profile_version");
  if (base_is_profile != cur_is_profile) {
    std::fprintf(stderr,
                 "diff: cannot compare a profile with a bench report\n");
    return 2;
  }
  if (!base_is_profile) {
    if (!base.Has("rows") || !cur.Has("rows")) {
      std::fprintf(stderr, "diff: inputs are neither profiles "
                           "(profile_version) nor bench reports (rows)\n");
      return 2;
    }
    return DiffBenchReports(base, cur, t);
  }
  Result<profile::Profile> bp = profile::ParseProfile(base_text);
  Result<profile::Profile> cp = profile::ParseProfile(cur_text);
  if (!bp.ok() || !cp.ok()) {
    std::fprintf(stderr, "diff: %s\n",
                 (!bp.ok() ? bp.status() : cp.status()).ToString().c_str());
    return 2;
  }
  const profile::DiffResult d =
      profile::DiffProfiles(bp.value(), cp.value(), t);
  std::printf("%s", d.ToString().c_str());
  return d.regressions == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return Usage();

  std::string cmd = "summary";
  size_t i = 0;
  if (args[0] == "summary" || args[0] == "check" || args[0] == "diff" ||
      args[0] == "predcheck" || args[0] == "skewcheck") {
    cmd = args[0];
    i = 1;
  }

  // Positional paths + flags.
  std::vector<std::string> paths;
  double min_coverage = 80.0;
  double max_ratio = 2.0;
  profile::DiffThresholds t;
  for (; i < args.size(); ++i) {
    auto flag_val = [&](const char* name, double* out) {
      if (args[i] != name) return false;
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "%s needs a value\n", name);
        std::exit(2);
      }
      *out = std::atof(args[++i].c_str());
      return true;
    };
    if (flag_val("--min-coverage", &min_coverage)) continue;
    if (flag_val("--max-ratio", &max_ratio)) continue;
    if (flag_val("--time-pct", &t.time_pct)) continue;
    if (flag_val("--time-abs-ms", &t.time_abs_ms)) continue;
    if (flag_val("--bytes-pct", &t.bytes_pct)) continue;
    if (flag_val("--bytes-abs", &t.bytes_abs)) continue;
    if (flag_val("--count-pct", &t.count_pct)) continue;
    if (flag_val("--count-abs", &t.count_abs)) continue;
    if (args[i].rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", args[i].c_str());
      return Usage();
    }
    paths.push_back(args[i]);
  }

  if (cmd == "diff") {
    if (paths.size() != 2) return Usage();
    Result<std::string> base = ReadFile(paths[0]);
    Result<std::string> cur = ReadFile(paths[1]);
    if (!base.ok() || !cur.ok()) {
      std::fprintf(
          stderr, "sac_prof: %s\n",
          (!base.ok() ? base.status() : cur.status()).ToString().c_str());
      return 2;
    }
    return RunDiff(base.value(), cur.value(), t);
  }

  if (paths.size() != 1) return Usage();
  Result<std::string> text = ReadFile(paths[0]);
  if (!text.ok()) {
    std::fprintf(stderr, "sac_prof: %s\n",
                 text.status().ToString().c_str());
    return 2;
  }
  if (cmd == "predcheck") return RunPredcheck(text.value(), max_ratio);
  if (cmd == "skewcheck") return RunSkewcheck(text.value());
  Result<profile::Profile> p = profile::ParseProfile(text.value());
  if (!p.ok()) {
    std::fprintf(stderr, "sac_prof: %s: %s\n", paths[0].c_str(),
                 p.status().ToString().c_str());
    return 2;
  }
  if (cmd == "check") return RunCheck(p.value(), min_coverage);
  PrintSummary(p.value());
  return 0;
}

}  // namespace
}  // namespace sac

int main(int argc, char** argv) { return sac::Main(argc, argv); }
