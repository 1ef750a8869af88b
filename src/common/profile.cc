#include "src/common/profile.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/common/json.h"

namespace sac::profile {

namespace {

using trace::SpanRecord;

/// Total length covered by a set of intervals, overlap collapsed.
uint64_t UnionCoverage(std::vector<std::pair<uint64_t, uint64_t>>* ivals) {
  if (ivals->empty()) return 0;
  std::sort(ivals->begin(), ivals->end());
  uint64_t covered = 0;
  uint64_t cur_lo = (*ivals)[0].first;
  uint64_t cur_hi = (*ivals)[0].second;
  for (size_t i = 1; i < ivals->size(); ++i) {
    const auto& [lo, hi] = (*ivals)[i];
    if (lo > cur_hi) {
      covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  return covered + (cur_hi - cur_lo);
}

/// Task spans are named "label:phase[i]" (Engine::ParallelParts); pulls
/// out the phase, falling back to the span category.
std::string PhaseOf(const SpanRecord& task) {
  const size_t bracket = task.name.rfind('[');
  if (bracket == std::string::npos) return task.category;
  const size_t colon = task.name.rfind(':', bracket);
  if (colon == std::string::npos || colon + 1 >= bracket) {
    return task.category;
  }
  return task.name.substr(colon + 1, bracket - colon - 1);
}

void AppendF(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  *out += buf;
}

}  // namespace

Profile BuildProfile(ProfileInputs in) {
  Profile p;
  p.query = std::move(in.query);
  p.dropped_trace_events = in.dropped_trace_events;
  p.totals = in.totals;

  // Split the event stream: counter samples ride along as the
  // time-series, instants (recompute/evict/retry markers) carry no
  // duration, real spans feed the tree.
  std::vector<const SpanRecord*> spans;
  spans.reserve(in.spans.size());
  for (const SpanRecord& s : in.spans) {
    if (s.counter) {
      p.samples.push_back(Sample{s.start_us, s.args});
      continue;
    }
    if (s.instant) continue;
    spans.push_back(&s);
  }
  if (spans.empty()) {
    p.wall_ms = in.wall_ms_hint;
    return p;
  }

  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  by_id.reserve(spans.size());
  for (const SpanRecord* s : spans) by_id.emplace(s->id, s);

  // Roots = spans with no surviving parent (parent 0, or the parent was
  // drained before this snapshot). Everything else hangs off one.
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  std::vector<const SpanRecord*> roots;
  for (const SpanRecord* s : spans) {
    if (s->parent != 0 && by_id.count(s->parent) > 0) {
      children[s->parent].push_back(s);
    } else {
      roots.push_back(s);
    }
  }

  uint64_t t0 = UINT64_MAX, t1 = 0;
  for (const SpanRecord* s : spans) {
    t0 = std::min(t0, s->start_us);
    t1 = std::max(t1, s->start_us + s->dur_us);
  }
  p.trace_extent_ms = static_cast<double>(t1 - t0) / 1000.0;
  p.wall_ms = in.wall_ms_hint > 0 ? in.wall_ms_hint : p.trace_extent_ms;

  struct PhaseAgg {
    uint64_t count = 0;
    uint64_t task_time = 0;
    uint64_t longest = 0;
    std::vector<std::pair<uint64_t, uint64_t>> ivals;
  };
  struct Agg {
    StageProfile sp;
    trace::Histogram task_us;
    std::map<std::string, PhaseAgg> phases;
  };
  // Ordered map: aggregation (and thus JSON output) is deterministic.
  std::map<std::pair<std::string, std::string>, Agg> aggs;
  auto agg_for = [&aggs](const SpanRecord* root) -> Agg& {
    Agg& a = aggs[{root->name, root->category}];
    if (a.sp.count == 0) {
      a.sp.name = root->name;
      a.sp.category = root->category;
    }
    return a;
  };

  for (const SpanRecord* root : roots) {
    Agg& a = agg_for(root);
    a.sp.count += 1;
    a.sp.total_us += root->dur_us;
    if (a.sp.stage_id < 0) {
      for (const trace::SpanArg& arg : root->args) {
        if (arg.key == "stage") {
          a.sp.stage_id = static_cast<int>(arg.value);
          break;
        }
      }
    }

    // Self time: the root's duration not covered by its direct children
    // (clipped to the root's interval).
    const uint64_t root_end = root->start_us + root->dur_us;
    std::vector<std::pair<uint64_t, uint64_t>> child_ivals;
    auto cit = children.find(root->id);
    if (cit != children.end()) {
      for (const SpanRecord* c : cit->second) {
        const uint64_t lo = std::max(c->start_us, root->start_us);
        const uint64_t hi =
            std::min(c->start_us + c->dur_us, root_end);
        if (hi > lo) child_ivals.emplace_back(lo, hi);
      }
    }
    const uint64_t covered = UnionCoverage(&child_ivals);
    a.sp.self_us += root->dur_us > covered ? root->dur_us - covered : 0;

    // Task rollup over the whole subtree (in practice tasks are direct
    // children, but recovery can nest one level deeper).
    std::vector<const SpanRecord*> stack{root};
    while (!stack.empty()) {
      const SpanRecord* cur = stack.back();
      stack.pop_back();
      auto it = children.find(cur->id);
      if (it != children.end()) {
        for (const SpanRecord* c : it->second) stack.push_back(c);
      }
      if (cur == root) continue;
      auto add_to_phase = [cur](PhaseAgg* ph) {
        ph->count += 1;
        ph->task_time += cur->dur_us;
        ph->longest = std::max(ph->longest, cur->dur_us);
        ph->ivals.emplace_back(cur->start_us, cur->start_us + cur->dur_us);
      };
      if (cur->category == "wire") {
        // Dist RPCs under the stage's tasks: "wire" phases count RPCs,
        // by span name ("wire" whole exchanges; "wire:encode",
        // "wire:call", "wire:decode" their parts). Not tasks.
        add_to_phase(&a.phases[cur->name]);
        continue;
      }
      if (cur->category != "task") continue;
      a.sp.task_time_us += cur->dur_us;
      a.sp.longest_task_us = std::max(a.sp.longest_task_us, cur->dur_us);
      a.task_us.Record(cur->dur_us);
      add_to_phase(&a.phases[PhaseOf(*cur)]);
    }
  }

  // Critical path: the driver runs root spans sequentially, so sweep the
  // roots in start order and credit each only with the time it is the
  // earliest-started span to cover -- overlap (concurrent roots, nested
  // recovers surfacing as roots) is never double counted, and the sum
  // can't exceed the trace extent.
  std::sort(roots.begin(), roots.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->start_us != b->start_us ? a->start_us < b->start_us
                                                : a->id < b->id;
            });
  uint64_t cursor = t0;
  uint64_t exclusive_total = 0;
  for (const SpanRecord* root : roots) {
    const uint64_t end = root->start_us + root->dur_us;
    if (end > cursor) {
      const uint64_t excl = end - std::max(root->start_us, cursor);
      agg_for(root).sp.exclusive_us += excl;
      exclusive_total += excl;
      cursor = end;
    }
  }
  p.coverage_pct = p.wall_ms > 0 ? static_cast<double>(exclusive_total) /
                                       1000.0 / p.wall_ms * 100.0
                                 : 0;

  // Join per-stage counters from the registry by label. Each registry
  // stage's label equals its stage span's name, so every stage lands in
  // exactly one aggregate (":recover"/":checkpoint" span variants and
  // action spans match no label and carry no counters).
  for (auto& [key, agg] : aggs) {
    for (const StageStatsSnapshot& ss : in.stage_stats) {
      if (ss.label != agg.sp.name) continue;
      agg.sp.counters.Accumulate(ss.counters);
      agg.sp.has_counters = true;
      agg.sp.partition_skew =
          std::max(agg.sp.partition_skew, ss.partition_skew);
      agg.sp.partition_bytes_skew =
          std::max(agg.sp.partition_bytes_skew, ss.partition_bytes_skew);
    }
  }

  for (auto& [key, agg] : aggs) {
    StageProfile& sp = agg.sp;
    sp.wall_pct = p.wall_ms > 0 ? static_cast<double>(sp.exclusive_us) /
                                      1000.0 / p.wall_ms * 100.0
                                : 0;
    const trace::HistogramSnapshot h = agg.task_us.Snapshot();
    sp.task_p50_us = h.Percentile(0.5);
    sp.task_p95_us = h.Percentile(0.95);
    for (auto& [phase, pa] : agg.phases) {
      PhaseProfile pp;
      pp.phase = phase;
      pp.task_count = pa.count;
      pp.task_time_us = pa.task_time;
      pp.longest_task_us = pa.longest;
      pp.busy_us = UnionCoverage(&pa.ivals);
      sp.phases.push_back(std::move(pp));
    }
    std::sort(sp.phases.begin(), sp.phases.end(),
              [](const PhaseProfile& a, const PhaseProfile& b) {
                return a.task_time_us != b.task_time_us
                           ? a.task_time_us > b.task_time_us
                           : a.phase < b.phase;
              });
    p.stages.push_back(std::move(sp));
  }
  std::sort(p.stages.begin(), p.stages.end(),
            [](const StageProfile& a, const StageProfile& b) {
              return a.total_us != b.total_us ? a.total_us > b.total_us
                                              : a.name < b.name;
            });
  for (int i = 0; i < static_cast<int>(p.stages.size()); ++i) {
    if (p.stages[i].exclusive_us > 0) p.critical_path.push_back(i);
  }
  std::sort(p.critical_path.begin(), p.critical_path.end(),
            [&p](int a, int b) {
              return p.stages[a].exclusive_us != p.stages[b].exclusive_us
                         ? p.stages[a].exclusive_us > p.stages[b].exclusive_us
                         : p.stages[a].name < p.stages[b].name;
            });
  return p;
}

std::string Profile::ToJson() const {
  std::string out;
  out.reserve(4096);
  out += "{\"profile_version\":" + std::to_string(version);
  out += ",\"query\":\"" + trace::JsonEscape(query) + "\"";
  out += ",\"wall_ms\":";
  AppendF(&out, wall_ms);
  out += ",\"trace_extent_ms\":";
  AppendF(&out, trace_extent_ms);
  out += ",\"coverage_pct\":";
  AppendF(&out, coverage_pct);
  out += ",\"dropped_trace_events\":" + std::to_string(dropped_trace_events);
  out += ",\"totals\":{";
  AppendCounterFields(&out, totals, /*stage_row=*/false);
  out += "}";
  out += ",\"stages\":[";
  for (size_t i = 0; i < stages.size(); ++i) {
    const StageProfile& s = stages[i];
    if (i > 0) out += ",";
    out += "\n{\"name\":\"" + trace::JsonEscape(s.name) + "\"";
    out += ",\"category\":\"" + trace::JsonEscape(s.category) + "\"";
    if (s.stage_id >= 0) {
      out += ",\"stage_id\":" + std::to_string(s.stage_id);
    }
    out += ",\"count\":" + std::to_string(s.count);
    out += ",\"total_us\":" + std::to_string(s.total_us);
    out += ",\"self_us\":" + std::to_string(s.self_us);
    out += ",\"task_time_us\":" + std::to_string(s.task_time_us);
    out += ",\"exclusive_us\":" + std::to_string(s.exclusive_us);
    out += ",\"wall_pct\":";
    AppendF(&out, s.wall_pct);
    out += ",\"task_p50_us\":" + std::to_string(s.task_p50_us);
    out += ",\"task_p95_us\":" + std::to_string(s.task_p95_us);
    out += ",\"longest_task_us\":" + std::to_string(s.longest_task_us);
    if (s.has_counters) {
      out += ",\"counters\":{";
      AppendCounterFields(&out, s.counters, /*stage_row=*/true);
      out += "}";
    }
    if (s.partition_skew > 0) {
      out += ",\"partition_skew\":";
      AppendF(&out, s.partition_skew);
      out += ",\"partition_bytes_skew\":";
      AppendF(&out, s.partition_bytes_skew);
    }
    out += ",\"phases\":[";
    for (size_t j = 0; j < s.phases.size(); ++j) {
      const PhaseProfile& ph = s.phases[j];
      if (j > 0) out += ",";
      out += "{\"phase\":\"" + trace::JsonEscape(ph.phase) + "\"";
      out += ",\"task_count\":" + std::to_string(ph.task_count);
      out += ",\"busy_us\":" + std::to_string(ph.busy_us);
      out += ",\"task_time_us\":" + std::to_string(ph.task_time_us);
      out += ",\"longest_task_us\":" + std::to_string(ph.longest_task_us);
      out += "}";
    }
    out += "]}";
  }
  out += "],\"critical_path\":[";
  for (size_t i = 0; i < critical_path.size(); ++i) {
    const StageProfile& s = stages[static_cast<size_t>(critical_path[i])];
    if (i > 0) out += ",";
    out += "\n{\"stage\":\"" + trace::JsonEscape(s.name) + "\"";
    out += ",\"category\":\"" + trace::JsonEscape(s.category) + "\"";
    out += ",\"exclusive_us\":" + std::to_string(s.exclusive_us);
    out += ",\"wall_pct\":";
    AppendF(&out, s.wall_pct);
    out += "}";
  }
  out += "],\"samples\":[";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    if (i > 0) out += ",";
    out += "\n{\"t_us\":" + std::to_string(s.t_us) + ",\"values\":{";
    for (size_t j = 0; j < s.values.size(); ++j) {
      if (j > 0) out += ",";
      out += "\"" + trace::JsonEscape(s.values[j].key) +
             "\":" + std::to_string(s.values[j].value);
    }
    out += "}}";
  }
  out += "]}\n";
  return out;
}

Result<Profile> ParseProfile(const std::string& json_text) {
  json::Value doc;
  SAC_RETURN_NOT_OK(json::Parse(json_text, &doc));
  if (!doc.is_object() || !doc.Has("profile_version")) {
    return Status::InvalidArgument(
        "not a profile.json document (missing profile_version)");
  }
  Profile p;
  p.version = static_cast<int>(doc.GetInt("profile_version"));
  if (p.version > kProfileVersion) {
    return Status::InvalidArgument(
        "profile version " + std::to_string(p.version) +
        " is newer than this reader (" + std::to_string(kProfileVersion) +
        ")");
  }
  p.query = doc.GetStr("query");
  p.wall_ms = doc.GetNum("wall_ms");
  p.trace_extent_ms = doc.GetNum("trace_extent_ms");
  p.coverage_pct = doc.GetNum("coverage_pct");
  p.dropped_trace_events = doc.GetUInt("dropped_trace_events");
  const auto parse_counters = [](const json::Value& v, MetricsSnapshot* c) {
    c->ForEachCounter([&v](const char* name, uint64_t& field) {
      field = v.GetUInt(name);
    });
  };
  parse_counters(doc.At("totals"), &p.totals);

  for (const json::Value& sv : doc.At("stages").array) {
    StageProfile s;
    s.name = sv.GetStr("name");
    s.category = sv.GetStr("category");
    s.stage_id = static_cast<int>(sv.GetInt("stage_id", -1));
    s.count = sv.GetUInt("count");
    s.total_us = sv.GetUInt("total_us");
    s.self_us = sv.GetUInt("self_us");
    s.task_time_us = sv.GetUInt("task_time_us");
    s.exclusive_us = sv.GetUInt("exclusive_us");
    s.wall_pct = sv.GetNum("wall_pct");
    s.task_p50_us = sv.GetUInt("task_p50_us");
    s.task_p95_us = sv.GetUInt("task_p95_us");
    s.longest_task_us = sv.GetUInt("longest_task_us");
    if (sv.Has("counters")) {
      s.has_counters = true;
      parse_counters(sv.At("counters"), &s.counters);
    }
    s.partition_skew = sv.GetNum("partition_skew");
    s.partition_bytes_skew = sv.GetNum("partition_bytes_skew");
    for (const json::Value& pv : sv.At("phases").array) {
      PhaseProfile ph;
      ph.phase = pv.GetStr("phase");
      ph.task_count = pv.GetUInt("task_count");
      ph.busy_us = pv.GetUInt("busy_us");
      ph.task_time_us = pv.GetUInt("task_time_us");
      ph.longest_task_us = pv.GetUInt("longest_task_us");
      s.phases.push_back(std::move(ph));
    }
    p.stages.push_back(std::move(s));
  }

  // Rebuild critical-path indices from the serialized entries; (name,
  // category) is the aggregation key, so the match is unique.
  for (const json::Value& cv : doc.At("critical_path").array) {
    const std::string name = cv.GetStr("stage");
    const std::string category = cv.GetStr("category");
    for (int i = 0; i < static_cast<int>(p.stages.size()); ++i) {
      if (p.stages[i].name == name && p.stages[i].category == category) {
        p.critical_path.push_back(i);
        break;
      }
    }
  }

  for (const json::Value& sv : doc.At("samples").array) {
    Sample s;
    s.t_us = sv.GetUInt("t_us");
    for (const auto& [k, v] : sv.At("values").object) {
      s.values.push_back(trace::SpanArg{k, v.Int()});
    }
    p.samples.push_back(std::move(s));
  }
  return p;
}

// ---------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------

bool IsRegression(double base, double cur, double rel_pct, double abs_floor) {
  const double delta = cur - base;
  if (delta <= 0 || delta < abs_floor) return false;
  if (base <= 0) return true;  // something appeared out of nothing
  return delta / base * 100.0 >= rel_pct;
}

DiffResult DiffProfiles(const Profile& base, const Profile& cur,
                        const DiffThresholds& t) {
  DiffResult r;
  const auto add = [&r](const std::string& metric, double b, double c,
                        double rel_pct, double abs_floor) {
    DiffEntry e;
    e.metric = metric;
    e.base = b;
    e.cur = c;
    e.delta_pct = b > 0 ? (c - b) / b * 100.0 : (c > 0 ? 100.0 : 0.0);
    e.regression = IsRegression(b, c, rel_pct, abs_floor);
    if (e.regression) ++r.regressions;
    r.entries.push_back(std::move(e));
  };

  add("wall_ms", base.wall_ms, cur.wall_ms, t.time_pct, t.time_abs_ms);
  // Total shuffle volume (local + remote) is route-independent; the
  // cross-executor subset is the "network" cost the paper's plans
  // optimize for. Both are deterministic per plan, as are task counts
  // and eviction traffic under a fixed budget.
  add("shuffle_bytes_total",
      static_cast<double>(base.totals.shuffle_bytes +
                          base.totals.local_shuffle_bytes),
      static_cast<double>(cur.totals.shuffle_bytes +
                          cur.totals.local_shuffle_bytes),
      t.bytes_pct, t.bytes_abs);
  add("cross_executor_bytes",
      static_cast<double>(base.totals.cross_executor_bytes),
      static_cast<double>(cur.totals.cross_executor_bytes), t.bytes_pct,
      t.bytes_abs);
  add("shuffle_records", static_cast<double>(base.totals.shuffle_records),
      static_cast<double>(cur.totals.shuffle_records), t.count_pct,
      t.count_abs);
  add("tasks_run", static_cast<double>(base.totals.tasks_run),
      static_cast<double>(cur.totals.tasks_run), t.count_pct, t.count_abs);
  add("bytes_evicted", static_cast<double>(base.totals.bytes_evicted),
      static_cast<double>(cur.totals.bytes_evicted), t.bytes_pct,
      t.bytes_abs);
  return r;
}

std::string DiffResult::ToString() const {
  std::ostringstream os;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-22s %14s %14s %9s\n", "metric", "base",
                "current", "delta");
  os << buf;
  for (const DiffEntry& e : entries) {
    std::snprintf(buf, sizeof(buf), "%-22s %14.3f %14.3f %+8.1f%%%s\n",
                  e.metric.c_str(), e.base, e.cur, e.delta_pct,
                  e.regression ? "  REGRESSION" : "");
    os << buf;
  }
  os << (regressions == 0
             ? "no regressions\n"
             : std::to_string(regressions) + " regression(s)\n");
  return os.str();
}

}  // namespace sac::profile
