// Query profiler: turns drained trace spans + the StageRegistry into an
// actionable per-query profile (the layer Thrill's JSON profiles and
// Spark's stage pages provide on top of raw events).
//
// What it computes:
//  * Stage tree -- root spans (stages, actions, compile) aggregated by
//    (name, category) with total time (sum of span durations), self time
//    (duration not covered by child spans), and task time (sum of the
//    per-partition task-span durations underneath, i.e. cpu-ish work).
//  * Critical path -- the driver executes root spans sequentially, so
//    wall-clock attribution is exclusive first-arrival sweep coverage:
//    roots sorted by start time, each credited only with the interval it
//    is the earliest-started span to cover. Summed per stage this says
//    which stages actually bound wall-clock, as a % of measured wall
//    time (coverage_pct reports how much of the wall the trace explains;
//    gaps are untraced driver work).
//  * Phase breakdown -- task spans are named "label:phase[i]"; per stage
//    each phase ("task", "shuffle-write", "reduce", "checkpoint",
//    "recompute") reports task count, busy time (union of task
//    intervals, i.e. time at least one task of that phase ran) and the
//    longest single task (the straggler bound). Distributed shuffles add
//    "wire" phases from the coordinator's wire spans under their tasks:
//    "wire" (one per batched RPC) and its parts "wire:encode",
//    "wire:call" and "wire:decode"; their task_count is the RPC count.
//  * Counters -- per-stage MetricsSnapshot joined from the StageRegistry
//    by label, plus engine-wide totals; time-series counter samples
//    (Engine sampler) ride along untouched.
//
// Profiles serialize to a versioned JSON document (profile.json, schema
// in docs/PROFILING.md), parse back, and diff with noise-aware
// thresholds (a regression needs to clear BOTH a relative and an
// absolute bar, so micro-benchmark jitter on tiny values never trips the
// gate). tools/sac_prof is the CLI over all of this.
#ifndef SAC_COMMON_PROFILE_H_
#define SAC_COMMON_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/trace.h"

namespace sac::profile {

inline constexpr int kProfileVersion = 1;

/// Rollup of one task phase under one stage ("task", "shuffle-write",
/// "reduce", "checkpoint", "recompute", "wire", ...).
struct PhaseProfile {
  std::string phase;
  uint64_t task_count = 0;
  uint64_t busy_us = 0;       // union of task intervals (overlap collapsed)
  uint64_t task_time_us = 0;  // sum of task durations
  uint64_t longest_task_us = 0;
};

/// One aggregated stage: every root span sharing (name, category).
struct StageProfile {
  std::string name;
  std::string category;  // "stage" | "action" | "compile" | ...
  int stage_id = -1;     // first StageRegistry id seen in span args
  uint64_t count = 0;    // root spans aggregated
  uint64_t total_us = 0;
  uint64_t self_us = 0;
  uint64_t task_time_us = 0;
  uint64_t exclusive_us = 0;  // critical-path share
  double wall_pct = 0;        // exclusive_us as % of wall_ms
  uint64_t task_p50_us = 0;
  uint64_t task_p95_us = 0;
  uint64_t longest_task_us = 0;
  bool has_counters = false;  // joined from the StageRegistry by label
  MetricsSnapshot counters;
  // Worst partition balance among the joined shuffle stages (max / mean
  // records and bytes per destination partition); 0 = not a shuffle.
  double partition_skew = 0;
  double partition_bytes_skew = 0;
  std::vector<PhaseProfile> phases;  // by task_time_us desc
};

/// One time-series sample (Engine sampler counter event).
struct Sample {
  uint64_t t_us = 0;  // trace timestamp
  std::vector<trace::SpanArg> values;
};

struct Profile {
  int version = kProfileVersion;
  std::string query;           // caller-supplied tag ("fig4c:SAC GBJ:n=384")
  double wall_ms = 0;          // measured wall (hint) or trace extent
  double trace_extent_ms = 0;  // first span start .. last span end
  double coverage_pct = 0;     // critical-path sum as % of wall_ms
  uint64_t dropped_trace_events = 0;
  MetricsSnapshot totals;
  std::vector<StageProfile> stages;  // by total_us desc
  // Indices into `stages` with exclusive_us > 0, by exclusive_us desc:
  // the critical path, most-blaming stage first.
  std::vector<int> critical_path;
  std::vector<Sample> samples;

  std::string ToJson() const;
};

struct ProfileInputs {
  std::vector<trace::SpanRecord> spans;
  std::vector<StageStatsSnapshot> stage_stats;
  MetricsSnapshot totals;
  // Measured wall-clock of the profiled query in ms; 0 = use the trace
  // extent. Coverage is reported against this.
  double wall_ms_hint = 0;
  uint64_t dropped_trace_events = 0;
  std::string query;
};

Profile BuildProfile(ProfileInputs in);

/// Parses a profile.json document produced by Profile::ToJson (any
/// version <= kProfileVersion).
Result<Profile> ParseProfile(const std::string& json_text);

// ---------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------

/// A metric regresses only when it worsens by BOTH the relative and the
/// absolute threshold -- small absolute wobble on fast queries and small
/// relative wobble on big byte counts both stay quiet.
struct DiffThresholds {
  double time_pct = 25.0;
  double time_abs_ms = 5.0;
  double bytes_pct = 10.0;
  double bytes_abs = 64.0 * 1024;
  double count_pct = 10.0;
  double count_abs = 8.0;
};

struct DiffEntry {
  std::string metric;
  double base = 0;
  double cur = 0;
  double delta_pct = 0;  // +worse / -better, relative to base
  bool regression = false;
};

struct DiffResult {
  std::vector<DiffEntry> entries;
  int regressions = 0;

  std::string ToString() const;
};

/// Compares deterministic volume counters (shuffle/cross-executor bytes,
/// task counts, evicted bytes) and wall time between two profiles of the
/// same query. Identical inputs produce zero regressions.
DiffResult DiffProfiles(const Profile& base, const Profile& cur,
                        const DiffThresholds& t = DiffThresholds());

/// Shared threshold predicate (also used by sac_prof's bench-report
/// diff): worse-by-both-bars on a higher-is-worse metric.
bool IsRegression(double base, double cur, double rel_pct, double abs_floor);

}  // namespace sac::profile

#endif  // SAC_COMMON_PROFILE_H_
