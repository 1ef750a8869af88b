// Compares two directories of bench_suite results (K runs each, e.g. the
// parent commit and a change) metric by metric:
//
//   bench_compare BASE_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
//
// For each workload x metric it prints both sides' median and quartiles
// (Python's statistics.quantiles(n=4) method), the change in the median,
// the metric's bound from BENCHMARK.json and a verdict:
//
//   unresolved      either side's quartile spread exceeds the bound (or a
//                   side has fewer than two runs)
//   worse           the median moved the wrong way by more than the bound
//   better          it moved the right way by more than the base's spread
//   within bound    anything else
//
// Per-layer metrics have no bound; they read better / worse / same by the
// larger of the two spreads and never fail the comparison. Exits 1 when
// an end-to-end metric is worse on any workload, 2 on bad input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"

namespace {

namespace fs = std::filesystem;
using sac::json::Value;

bool ReadJson(const std::string& path, Value* out) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return in && sac::json::Parse(text.str(), out).ok();
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// workload -> metric -> one value per run
using Runs = std::map<std::string, std::map<std::string, std::vector<double>>>;

bool LoadRuns(const std::string& dir, Runs* runs) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    std::fprintf(stderr, "bench_compare: cannot list %s\n", dir.c_str());
    return false;
  }
  for (const fs::directory_entry& e : it) {
    const std::string path = e.path().string();
    if (!EndsWith(path, ".json") || EndsWith(path, ".trace.json") ||
        EndsWith(path, ".profile.json")) {
      continue;
    }
    Value doc;
    if (!ReadJson(path, &doc) || doc.GetStr("suite") != "sacbench") continue;
    for (const auto& [name, m] : doc.At("metrics").object) {
      (*runs)[doc.GetStr("workload")][name].push_back(m.GetNum("value"));
    }
  }
  return true;
}

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

/// statistics.quantiles(v, n=4), method "exclusive". Needs 2+ values.
Quartiles Quantiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const int len = static_cast<int>(v.size());
  double q[3];
  for (int i = 1; i <= 3; ++i) {
    int j = i * (len + 1) / 4;
    j = std::clamp(j, 1, len - 1);
    const int delta = i * (len + 1) - j * 4;
    q[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  }
  return {q[0], q[1], q[2]};
}

struct MetricDef {
  std::string name;
  bool higher_is_better = false;
  double bound = -1;  // < 0: per-layer, no bound
};

double Spread(const Quartiles& q) {
  return q.median != 0 ? (q.q3 - q.q1) / std::fabs(q.median) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> dirs;
  std::string def_path = "BENCHMARK.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--benchmark" && i + 1 < argc) {
      def_path = argv[++i];
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_compare BASE_DIR CHANGE_DIR "
                 "[--benchmark BENCHMARK.json]\n");
    return 2;
  }
  Value def;
  if (!ReadJson(def_path, &def)) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", def_path.c_str());
    return 2;
  }
  std::vector<MetricDef> metrics;
  for (const char* section : {"end_to_end", "per_layer"}) {
    for (const Value& m : def.At(section).array) {
      metrics.push_back({m.GetStr("name"), m.GetStr("better") == "higher",
                         m.Has("bound") ? m.GetNum("bound") : -1});
    }
  }
  Runs base, change;
  if (!LoadRuns(dirs[0], &base) || !LoadRuns(dirs[1], &change)) return 2;

  int worse = 0;
  std::printf("%-14s %-30s %5s %12s %12s %12s %12s %8s %7s  %s\n", "workload",
              "metric", "runs", "base_med", "base_iqr", "change_med",
              "change_iqr", "delta%", "bound%", "verdict");
  for (const auto& [workload, base_metrics] : base) {
    for (const MetricDef& m : metrics) {
      auto b = base_metrics.find(m.name);
      if (b == base_metrics.end()) continue;
      const std::vector<double> none;
      const std::vector<double>& a = b->second;
      const std::vector<double>& c =
          change.count(workload) && change[workload].count(m.name)
              ? change[workload][m.name]
              : none;
      const bool enough = a.size() >= 2 && c.size() >= 2;
      const Quartiles qa = enough ? Quantiles(a) : Quartiles{};
      const Quartiles qc = enough ? Quantiles(c) : Quartiles{};
      // Positive = moved the wrong way.
      const double delta = qa.median != 0
                               ? (qc.median - qa.median) / std::fabs(qa.median)
                               : 0;
      const double worse_by = m.higher_is_better ? -delta : delta;
      std::string verdict;
      if (!enough) {
        verdict = "unresolved";
      } else if (m.bound >= 0) {
        if (std::max(Spread(qa), Spread(qc)) > m.bound) {
          verdict = "unresolved";
        } else if (worse_by > m.bound) {
          verdict = "worse";
          ++worse;
        } else if (worse_by < 0 &&
                   std::fabs(qc.median - qa.median) > qa.q3 - qa.q1) {
          verdict = "better";
        } else {
          verdict = "within bound";
        }
      } else {
        const double noise = std::max(qa.q3 - qa.q1, qc.q3 - qc.q1);
        verdict = std::fabs(qc.median - qa.median) <= noise ? "same"
                  : worse_by > 0                            ? "worse"
                                                            : "better";
      }
      char bound[16] = "-";
      if (m.bound >= 0) {
        std::snprintf(bound, sizeof(bound), "%.0f", m.bound * 100);
      }
      std::printf("%-14s %-30s %2zu/%-2zu %12.5g %12.5g %12.5g %12.5g %8.2f "
                  "%7s  %s\n",
                  workload.c_str(), m.name.c_str(), a.size(), c.size(),
                  qa.median, qa.q3 - qa.q1, qc.median, qc.q3 - qc.q1,
                  delta * 100, bound, verdict.c_str());
    }
  }
  if (worse > 0) {
    std::printf("%d end-to-end metric(s) worse than their bound\n", worse);
    return 1;
  }
  return 0;
}
