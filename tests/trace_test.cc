// Unit tests for the sac::trace layer: histograms, per-thread span
// buffers and their merge, Chrome trace-event JSON export, the wire spans
// of distributed shuffles, plus the Metrics::Snapshot and SAC_LOG_LEVEL
// satellites.
#include "src/common/trace.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/profile.h"
#include "src/runtime/engine.h"
#include "tests/test_json.h"

namespace sac::trace {
namespace {

TEST(HistogramTest, CountsSumsAndPercentiles) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 5050u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_DOUBLE_EQ(s.Mean(), 50.5);
  // Bucket upper bounds are powers of two minus one.
  EXPECT_GE(s.Percentile(0.5), 50u);
  EXPECT_LE(s.Percentile(0.5), 63u);
  EXPECT_GE(s.Percentile(1.0), 100u);
  EXPECT_EQ(s.Percentile(0.0), 1u);

  h.Reset();
  s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.Percentile(0.5), 0u);
}

TEST(HistogramTest, ZeroGoesToBucketZero) {
  Histogram h;
  h.Record(0);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.Percentile(0.99), 0u);
}

TEST(HistogramTest, PercentileEdgeCases) {
  // Empty histogram: every percentile is 0.
  Histogram empty;
  EXPECT_EQ(empty.Snapshot().Percentile(0.0), 0u);
  EXPECT_EQ(empty.Snapshot().Percentile(0.5), 0u);
  EXPECT_EQ(empty.Snapshot().Percentile(1.0), 0u);

  // Single value: the bucket bound clamps to the observed max, so every
  // percentile reports the value exactly (p outside [0,1] clamps too).
  Histogram one;
  one.Record(37);
  const HistogramSnapshot s = one.Snapshot();
  EXPECT_EQ(s.Percentile(0.0), 37u);
  EXPECT_EQ(s.Percentile(0.5), 37u);
  EXPECT_EQ(s.Percentile(1.0), 37u);
  EXPECT_EQ(s.Percentile(-1.0), 37u);
  EXPECT_EQ(s.Percentile(2.0), 37u);

  // v == 0 lands in bucket 0 and reports 0 at every percentile.
  Histogram zero;
  zero.Record(0);
  EXPECT_EQ(zero.Snapshot().Percentile(0.0), 0u);
  EXPECT_EQ(zero.Snapshot().Percentile(1.0), 0u);
}

TEST(HistogramTest, MaxBucketSaturation) {
  // Values >= 2^63 saturate into the top bucket instead of indexing past
  // the array, and percentiles clamp to the observed max instead of
  // computing the top bucket's (overflowing) nominal bound.
  Histogram h;
  h.Record(UINT64_MAX);
  h.Record(uint64_t{1} << 63);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.buckets[63], 2u);
  EXPECT_EQ(s.min, uint64_t{1} << 63);
  EXPECT_EQ(s.max, UINT64_MAX);
  EXPECT_EQ(s.Percentile(0.0), UINT64_MAX);  // both live in bucket 63
  EXPECT_EQ(s.Percentile(1.0), UINT64_MAX);

  // A large-but-not-saturating value still gets a finite bucket bound.
  Histogram big;
  big.Record((uint64_t{1} << 62) + 1);
  EXPECT_EQ(big.Snapshot().Percentile(1.0), (uint64_t{1} << 62) + 1);
}

TEST(HistogramTest, ConcurrentRecordsAllLand) {
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 1000; ++i) h.Record(7);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Snapshot().count, 8000u);
  EXPECT_EQ(h.Snapshot().sum, 56000u);
}

TEST(TracerTest, ScopedSpanRecordsOnDestruction) {
  Tracer tracer;
  {
    ScopedSpan span(&tracer, "outer", "stage");
    EXPECT_NE(span.id(), 0u);
    EXPECT_EQ(tracer.size(), 0u);  // not recorded until close
  }
  EXPECT_EQ(tracer.size(), 1u);
  std::vector<SpanRecord> spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].category, "stage");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(tracer.size(), 0u);  // drained
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  {
    ScopedSpan span(&tracer, "ignored", "stage");
    EXPECT_EQ(span.id(), 0u);
  }
  tracer.Instant("also-ignored", "recompute", 0);
  EXPECT_EQ(tracer.size(), 0u);
  // Null tracer is a no-op too.
  ScopedSpan null_span(nullptr, "x", "y");
  EXPECT_EQ(null_span.id(), 0u);
}

TEST(TracerTest, ParentLinkAndNesting) {
  Tracer tracer;
  uint64_t outer_id = 0;
  {
    ScopedSpan outer(&tracer, "outer", "stage");
    outer_id = outer.id();
    { ScopedSpan inner(&tracer, "inner", "task", outer.id()); }
    { ScopedSpan inner2(&tracer, "inner2", "task", outer.id()); }
  }
  std::vector<SpanRecord> spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 3u);
  std::map<uint64_t, SpanRecord> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = s;
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) continue;
    ASSERT_TRUE(by_id.count(s.parent)) << "dangling parent of " << s.name;
    const SpanRecord& p = by_id[s.parent];
    EXPECT_EQ(p.id, outer_id);
    // Child interval inside parent interval.
    EXPECT_GE(s.start_us, p.start_us);
    EXPECT_LE(s.start_us + s.dur_us, p.start_us + p.dur_us);
  }
}

TEST(TracerTest, MergesPerThreadBuffersAcrossThreads) {
  Tracer tracer;
  constexpr int kThreads = 6;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span(&tracer, "t" + std::to_string(t), "task");
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<SpanRecord> spans = tracer.Drain();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads * kSpansPerThread));
  // Ids are unique across threads; tids distinguish the writers.
  std::map<uint64_t, int> id_count;
  std::map<uint32_t, int> per_tid;
  for (const SpanRecord& s : spans) {
    ++id_count[s.id];
    ++per_tid[s.tid];
  }
  EXPECT_EQ(id_count.size(), spans.size());
  EXPECT_EQ(per_tid.size(), static_cast<size_t>(kThreads));
  for (const auto& [tid, n] : per_tid) EXPECT_EQ(n, kSpansPerThread);
  // Drain sorted by start time.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].start_us, spans[i].start_us);
  }
}

TEST(TracerTest, InstantEventsCarryArgs) {
  Tracer tracer;
  tracer.Instant("recompute:join", "recompute", 0,
                 {{"partition", 3}, {"stage", 7}});
  std::vector<SpanRecord> spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].instant);
  ASSERT_EQ(spans[0].args.size(), 2u);
  EXPECT_EQ(spans[0].args[0].key, "partition");
  EXPECT_EQ(spans[0].args[0].value, 3);
}

TEST(TracerTest, ChromeJsonParsesAndRoundTripsSpans) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "stage \"quoted\\name\"\n", "stage");
    outer.AddArg("shuffle_bytes", 12345);
    ScopedSpan inner(&tracer, "task", "task", outer.id());
  }
  tracer.Instant("recompute:x", "recompute", 0, {{"partition", 1}});
  const std::string json = Tracer::ToChromeJson(tracer.Drain());

  testjson::JsonValue doc;
  ASSERT_TRUE(testjson::ParseJson(json, &doc)) << json;
  ASSERT_TRUE(doc.Has("traceEvents"));
  const auto& events = doc.At("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.array.size(), 3u);
  bool saw_escaped = false, saw_instant = false, saw_arg = false;
  for (const auto& e : events.array) {
    ASSERT_TRUE(e.Has("name"));
    ASSERT_TRUE(e.Has("ph"));
    ASSERT_TRUE(e.Has("ts"));
    ASSERT_TRUE(e.Has("pid"));
    ASSERT_TRUE(e.Has("tid"));
    ASSERT_TRUE(e.Has("args"));
    const std::string ph = e.At("ph").str;
    ASSERT_TRUE(ph == "X" || ph == "i");
    if (ph == "X") {
      ASSERT_TRUE(e.Has("dur"));
    }
    if (ph == "i") saw_instant = true;
    if (e.At("name").str == "stage \"quoted\\name\"\n") saw_escaped = true;
    if (e.At("args").Has("shuffle_bytes")) {
      EXPECT_EQ(e.At("args").At("shuffle_bytes").Int(), 12345);
      saw_arg = true;
    }
  }
  EXPECT_TRUE(saw_escaped);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_arg);
}

TEST(TracerTest, BoundedBuffersDropAndCount) {
  Tracer tracer;
  tracer.set_buffer_capacity(4);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span(&tracer, "s" + std::to_string(i), "stage");
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped_events(), 6u);

  // The drop count is exported as a trailing Chrome counter event so
  // truncation is visible on the timeline.
  const std::string json =
      Tracer::ToChromeJson(tracer.Snapshot(), tracer.dropped_events());
  testjson::JsonValue doc;
  ASSERT_TRUE(testjson::ParseJson(json, &doc)) << json;
  const auto& events = doc.At("traceEvents").array;
  ASSERT_FALSE(events.empty());
  const auto& last = events.back();
  EXPECT_EQ(last.At("name").str, "trace:dropped_events");
  EXPECT_EQ(last.At("ph").str, "C");
  EXPECT_EQ(last.At("args").At("dropped_events").Int(), 6);

  // Draining frees buffer space; Reset also clears the drop counter.
  (void)tracer.Drain();
  { ScopedSpan span(&tracer, "fits-again", "stage"); }
  EXPECT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.dropped_events(), 6u);
  tracer.Reset();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
}

TEST(TracerTest, CounterEventsExportAsChromeCounterPhase) {
  Tracer tracer;
  tracer.Counter("engine", {{"resident_bytes", 123}, {"in_flight_tasks", 4}});
  std::vector<SpanRecord> spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].counter);
  EXPECT_EQ(spans[0].category, "counter");
  ASSERT_EQ(spans[0].args.size(), 2u);

  const std::string json = Tracer::ToChromeJson(spans);
  testjson::JsonValue doc;
  ASSERT_TRUE(testjson::ParseJson(json, &doc)) << json;
  const auto& events = doc.At("traceEvents").array;
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].At("ph").str, "C");
  EXPECT_EQ(events[0].At("name").str, "engine");
  EXPECT_FALSE(events[0].Has("dur"));
  // Counter args are the series values only -- no id/parent bookkeeping.
  EXPECT_EQ(events[0].At("args").At("resident_bytes").Int(), 123);
  EXPECT_EQ(events[0].At("args").At("in_flight_tasks").Int(), 4);
  EXPECT_FALSE(events[0].At("args").Has("id"));
  EXPECT_FALSE(events[0].At("args").Has("parent"));
}

TEST(TracerTest, CompleteRecordsCallerStampedInterval) {
  Tracer t;
  const uint64_t outer = t.Complete("outer", "wire", 0, 100, 250,
                                    {{"bytes", 7}});
  ASSERT_NE(outer, 0u);
  EXPECT_NE(t.Complete("inner", "wire", outer, 120, 180), 0u);
  std::vector<SpanRecord> spans = t.Drain();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].id, outer);
  EXPECT_EQ(spans[0].start_us, 100u);
  EXPECT_EQ(spans[0].dur_us, 150u);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].value, 7);
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[1].dur_us, 60u);

  t.set_enabled(false);
  EXPECT_EQ(t.Complete("off", "wire", 0, 1, 2), 0u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(TracerTest, ParentScopeNestsAndRestores) {
  EXPECT_EQ(CurrentParent(), 0u);
  {
    ParentScope a(11);
    EXPECT_EQ(CurrentParent(), 11u);
    {
      ParentScope b(22);
      EXPECT_EQ(CurrentParent(), 22u);
    }
    EXPECT_EQ(CurrentParent(), 11u);
  }
  EXPECT_EQ(CurrentParent(), 0u);
}

/// Spans of one GroupByKey over 3 executors; `workers` as in
/// ClusterConfig::workers ("" = single process, "3" = 3 loopback
/// workers). The stage's counters land in `*stage`.
std::vector<SpanRecord> GroupBySpans(const std::string& workers,
                                     MetricsSnapshot* stage,
                                     profile::Profile* prof) {
  runtime::ClusterConfig cfg;
  cfg.num_executors = 3;
  cfg.cores_per_executor = 2;
  cfg.default_parallelism = 6;
  cfg.workers = workers;
  cfg.transport = "loopback";
  cfg.heartbeat_interval_ms = 0;
  runtime::Engine eng(cfg);
  runtime::ValueVec rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back(runtime::VPair(runtime::VInt(i % 11), runtime::VInt(i)));
  }
  auto out = eng.GroupByKey(eng.Parallelize(std::move(rows), 6));
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  for (const StageStatsSnapshot& s : eng.stages().Snapshot()) {
    stage->Accumulate(s.counters);
  }
  auto parsed = profile::ParseProfile(eng.ProfileJson());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (parsed.ok()) *prof = std::move(parsed).value();
  return eng.tracer().Drain();
}

TEST(WireSpanTest, PresentOnLoopbackShuffleAbsentSingleProcess) {
  MetricsSnapshot solo_stage;
  profile::Profile solo_prof;
  for (const SpanRecord& s : GroupBySpans("", &solo_stage, &solo_prof)) {
    EXPECT_NE(s.category, "wire") << s.name;
  }
  for (const profile::StageProfile& st : solo_prof.stages) {
    for (const profile::PhaseProfile& ph : st.phases) {
      EXPECT_NE(ph.phase.rfind("wire", 0), 0u) << ph.phase;
    }
  }

  MetricsSnapshot stage;
  profile::Profile prof;
  const std::vector<SpanRecord> spans = GroupBySpans("3", &stage, &prof);
  std::map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  std::map<uint64_t, std::vector<std::string>> parts;
  uint64_t rpcs = 0, wire_bytes = 0;
  for (const SpanRecord& s : spans) {
    if (s.category != "wire") continue;
    ASSERT_TRUE(by_id.count(s.parent)) << s.name << " has no parent";
    const SpanRecord& parent = *by_id[s.parent];
    if (s.name != "wire") {
      // A part: inside its exchange.
      EXPECT_EQ(parent.name, "wire");
      EXPECT_GE(s.start_us, parent.start_us);
      EXPECT_LE(s.start_us + s.dur_us, parent.start_us + parent.dur_us);
      parts[s.parent].push_back(s.name);
      continue;
    }
    // A whole exchange: under a shuffle-write or reduce task, carrying
    // its bytes and bucket count.
    ++rpcs;
    EXPECT_EQ(parent.category, "task");
    EXPECT_TRUE(parent.name.find(":shuffle-write[") != std::string::npos ||
                parent.name.find(":reduce[") != std::string::npos)
        << parent.name;
    std::map<std::string, int64_t> args;
    for (const SpanArg& a : s.args) args[a.key] = a.value;
    EXPECT_GT(args["bytes"], 0);
    EXPECT_GT(args["buckets"], 0);
    wire_bytes += static_cast<uint64_t>(args["bytes"]);
  }
  EXPECT_GT(rpcs, 0u);
  EXPECT_EQ(rpcs, stage.dist_rpcs);
  EXPECT_EQ(wire_bytes, stage.dist_bytes_sent + stage.dist_bytes_received);
  ASSERT_EQ(parts.size(), rpcs);
  for (auto& [id, names] : parts) {
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"wire:call", "wire:decode",
                                               "wire:encode"}));
  }

  // The profile rolls them up as the shuffle stage's wire phases.
  uint64_t wire_phase_rpcs = 0;
  std::set<std::string> wire_phases;
  for (const profile::StageProfile& st : prof.stages) {
    for (const profile::PhaseProfile& ph : st.phases) {
      if (ph.phase.rfind("wire", 0) != 0) continue;
      wire_phases.insert(ph.phase);
      if (ph.phase == "wire") wire_phase_rpcs += ph.task_count;
    }
  }
  EXPECT_EQ(wire_phase_rpcs, rpcs);
  EXPECT_EQ(wire_phases, (std::set<std::string>{"wire", "wire:call",
                                                "wire:decode",
                                                "wire:encode"}));
}

TEST(StageRegistryTest, ReportStringGoldenLayout) {
  // Pins the report's column layout: operators grep these headers, and
  // Engine::ReportString is documented in docs/OPERATIONS.md. Update the
  // golden string AND the docs together, deliberately.
  StageRegistry registry;
  const std::string report = registry.ReportString();
  const std::string expected_header =
      "stage label                    kind       tasks   records_in "
      "  shuffle_KB   cross_KB   local_KB  recomp retries faults "
      "backoff_ms  ckpt_KB evict_KB reload_KB dist_tx_KB dist_rx_KB "
      "reexec   wall_ms  task_p95_us  skew bskew\n";
  ASSERT_EQ(report.substr(0, expected_header.size()), expected_header);

  // One populated row keeps the value formatting pinned too.
  StageRef ref = registry.NewStage("golden", "shuffle");
  StageStats* stats = registry.Get(ref);
  ASSERT_NE(stats, nullptr);
  stats->Add(Counter::kTasksRun, 1);
  stats->Add(Counter::kShuffleBytes, 2048);
  stats->Add(Counter::kShuffleRecords, 4);
  stats->Add(Counter::kCrossExecutorBytes, 2048);
  stats->AddPartitionCounts({3, 1}, {1536, 512});
  const std::string row = registry.ReportString().substr(
      expected_header.size());
  EXPECT_EQ(row,
            "0     golden                   shuffle        1            0 "
            "         2.0        2.0        0.0       0       0      0 "
            "       0.0      0.0      0.0       0.0        0.0        0.0 "
            "     0      0.00            0  1.50  1.50\n");
}

TEST(MetricsSnapshotTest, PlainCopyMatchesAtomics) {
  Metrics m;
  m.Add(Counter::kShuffleBytes, 1536);
  m.Add(Counter::kShuffleRecords, 15);
  m.Add(Counter::kCrossExecutorBytes, 1024);
  m.Add(Counter::kTasksRun, 2);
  m.Add(Counter::kTasksRecomputed, 1);
  m.Add(Counter::kRecordsProcessed, 42);
  const MetricsSnapshot s = m.Snapshot();
  EXPECT_EQ(s.shuffle_bytes, 1536u);
  EXPECT_EQ(s.shuffle_records, 15u);
  EXPECT_EQ(s.cross_executor_bytes, 1024u);
  EXPECT_EQ(s.tasks_run, 2u);
  EXPECT_EQ(s.tasks_recomputed, 1u);
  EXPECT_EQ(s.records_processed, 42u);
  // Copyable plain struct; ToString goes through the snapshot.
  MetricsSnapshot copy = s;
  EXPECT_EQ(copy.ToString(), m.ToString());
}

TEST(LoggingTest, SetLogLevelFromEnvParsesNamesAndNumbers) {
  const LogLevel original = GetLogLevel();
  setenv("SAC_LOG_LEVEL", "debug", 1);
  SetLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  setenv("SAC_LOG_LEVEL", "ERROR", 1);
  SetLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  setenv("SAC_LOG_LEVEL", "1", 1);
  SetLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kInfo);
  // Unparsable and unset values keep the current level.
  setenv("SAC_LOG_LEVEL", "shout", 1);
  SetLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kInfo);
  unsetenv("SAC_LOG_LEVEL");
  SetLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kInfo);
  SetLogLevel(original);
}

}  // namespace
}  // namespace sac::trace
