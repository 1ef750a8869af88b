// Integration tests for the engine's observability layer: per-stage
// metric attribution (shuffle bytes land on the shuffle stage, not on
// narrow stages), roll-up consistency with the global Metrics, recompute
// events on the right lineage node, Chrome-trace validity, and the
// human-readable reports.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/engine.h"
#include "tests/test_json.h"

namespace sac::runtime {
namespace {

ValueVec KeyedRows(int n, int num_keys) {
  ValueVec rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(VPair(VInt(i % num_keys), VInt(i)));
  }
  return rows;
}

class ObservabilityTest : public ::testing::Test {
 protected:
  ObservabilityTest() : eng_(ClusterConfig{2, 2, 4}) {}

  StageStatsSnapshot StageOf(const Dataset& ds) {
    const std::vector<StageStatsSnapshot> stages = eng_.stages().Snapshot();
    EXPECT_GE(ds->stage_id(), 0);
    EXPECT_LT(ds->stage_id(), static_cast<int>(stages.size()));
    return stages[ds->stage_id()];
  }

  Engine eng_;
};

TEST_F(ObservabilityTest, ShuffleBytesLandOnTheShuffleStageOnly) {
  Dataset src = eng_.Parallelize(KeyedRows(200, 13), 4);
  auto mapped = eng_.Map(src, [](const Value& v) {
    return VPair(v.At(0), VInt(v.At(1).AsInt() * 2));
  });
  ASSERT_TRUE(mapped.ok());
  auto reduced =
      eng_.ReduceByKey(mapped.value(), [](const Value& a, const Value& b) {
        return VInt(a.AsInt() + b.AsInt());
      });
  ASSERT_TRUE(reduced.ok());

  const StageStatsSnapshot source_stage = StageOf(src);
  const StageStatsSnapshot map_stage = StageOf(mapped.value());
  const StageStatsSnapshot reduce_stage = StageOf(reduced.value());

  EXPECT_EQ(source_stage.kind, "source");
  EXPECT_EQ(map_stage.kind, "narrow");
  EXPECT_EQ(reduce_stage.kind, "shuffle");
  EXPECT_EQ(reduce_stage.label, "reduceByKey");

  // The shuffle stage carries all the bytes; narrow/source stages none.
  EXPECT_GT(reduce_stage.counters.shuffle_bytes, 0u);
  EXPECT_GT(reduce_stage.counters.shuffle_records, 0u);
  EXPECT_EQ(map_stage.counters.shuffle_bytes, 0u);
  EXPECT_EQ(source_stage.counters.shuffle_bytes, 0u);

  // Tasks ran on every stage that executes partition functions.
  EXPECT_EQ(map_stage.counters.tasks_run, 4u);
  EXPECT_EQ(map_stage.counters.records_processed, 200u);
  // Shuffle: 4 map-side (shuffle-write) + 4 reduce-side tasks.
  EXPECT_EQ(reduce_stage.counters.tasks_run, 8u);
  EXPECT_EQ(reduce_stage.task_us.count, 8u);
}

TEST_F(ObservabilityTest, StageCountersRollUpToGlobalMetrics) {
  Dataset src = eng_.Parallelize(KeyedRows(300, 17), 5);
  auto filtered = eng_.Filter(src, [](const Value& v) {
    return v.At(1).AsInt() % 3 != 0;
  });
  ASSERT_TRUE(filtered.ok());
  auto grouped = eng_.GroupByKey(filtered.value());
  ASSERT_TRUE(grouped.ok());
  auto joined = eng_.Join(filtered.value(), filtered.value());
  ASSERT_TRUE(joined.ok());

  const MetricsSnapshot totals = eng_.metrics().Snapshot();
  MetricsSnapshot summed;
  for (const StageStatsSnapshot& s : eng_.stages().Snapshot()) {
    summed.shuffle_bytes += s.counters.shuffle_bytes;
    summed.shuffle_records += s.counters.shuffle_records;
    summed.cross_executor_bytes += s.counters.cross_executor_bytes;
    summed.tasks_run += s.counters.tasks_run;
    summed.tasks_recomputed += s.counters.tasks_recomputed;
    summed.records_processed += s.counters.records_processed;
  }
  EXPECT_EQ(summed.shuffle_bytes, totals.shuffle_bytes);
  EXPECT_EQ(summed.shuffle_records, totals.shuffle_records);
  EXPECT_EQ(summed.cross_executor_bytes, totals.cross_executor_bytes);
  EXPECT_EQ(summed.tasks_run, totals.tasks_run);
  EXPECT_EQ(summed.tasks_recomputed, totals.tasks_recomputed);
  EXPECT_EQ(summed.records_processed, totals.records_processed);
  EXPECT_GT(totals.shuffle_bytes, 0u);
}

TEST_F(ObservabilityTest, RecomputeEventsLandOnTheInvalidatedNode) {
  Dataset src = eng_.Parallelize(KeyedRows(100, 7), 4);
  auto reduced = eng_.ReduceByKey(src, [](const Value& a, const Value& b) {
    return VInt(a.AsInt() + b.AsInt());
  });
  ASSERT_TRUE(reduced.ok());
  auto mapped = eng_.Map(reduced.value(), [](const Value& v) { return v; });
  ASSERT_TRUE(mapped.ok());

  eng_.tracer().Reset();  // keep only the recovery in the trace
  reduced.value()->InvalidatePartition(1);
  ASSERT_TRUE(eng_.Collect(reduced.value()).ok());

  // The recompute counter lands on the invalidated shuffle node, not on
  // its parent or consumer.
  EXPECT_GE(StageOf(reduced.value()).counters.tasks_recomputed, 1u);
  EXPECT_EQ(StageOf(src).counters.tasks_recomputed, 0u);
  EXPECT_EQ(StageOf(mapped.value()).counters.tasks_recomputed, 0u);

  // And the trace shows a recompute instant naming the node.
  bool saw_recompute = false;
  for (const trace::SpanRecord& s : eng_.tracer().Snapshot()) {
    if (s.category != "recompute") continue;
    EXPECT_EQ(s.name, "recompute:reduceByKey");
    EXPECT_TRUE(s.instant);
    ASSERT_EQ(s.args.size(), 2u);
    EXPECT_EQ(s.args[0].key, "partition");
    EXPECT_EQ(s.args[0].value, 1);
    EXPECT_EQ(s.args[1].key, "stage");
    EXPECT_EQ(s.args[1].value, reduced.value()->stage_id());
    saw_recompute = true;
  }
  EXPECT_TRUE(saw_recompute);
}

TEST_F(ObservabilityTest, ChromeTraceIsValidNestedAndMatchesMetrics) {
  Dataset src = eng_.Parallelize(KeyedRows(120, 11), 4);
  auto mapped = eng_.Map(src, [](const Value& v) { return v; });
  ASSERT_TRUE(mapped.ok());
  auto reduced =
      eng_.ReduceByKey(mapped.value(), [](const Value& a, const Value& b) {
        return VInt(a.AsInt() + b.AsInt());
      });
  ASSERT_TRUE(reduced.ok());

  testjson::JsonValue doc;
  ASSERT_TRUE(testjson::ParseJson(eng_.ChromeTraceJson(), &doc));
  const auto& events = doc.At("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.array.empty());

  // Index spans by id; count task spans; find stage shuffle args.
  std::map<int64_t, const testjson::JsonValue*> by_id;
  uint64_t task_spans = 0;
  uint64_t traced_shuffle_bytes = 0;
  for (const auto& e : events.array) {
    by_id[e.At("args").At("id").Int()] = &e;
    if (e.At("cat").str == "task") ++task_spans;
    if (e.At("cat").str == "stage" &&
        e.At("args").Has("shuffle_bytes")) {
      traced_shuffle_bytes +=
          static_cast<uint64_t>(e.At("args").At("shuffle_bytes").Int());
    }
  }
  const MetricsSnapshot totals = eng_.metrics().Snapshot();
  // Every executed task has a span, and the stage-span shuffle args sum
  // to the global roll-up.
  EXPECT_EQ(task_spans, totals.tasks_run);
  EXPECT_EQ(traced_shuffle_bytes, totals.shuffle_bytes);

  // Parent links resolve and children nest inside their parents.
  uint64_t children_checked = 0;
  for (const auto& e : events.array) {
    if (!e.At("args").Has("parent")) continue;
    const auto it = by_id.find(e.At("args").At("parent").Int());
    ASSERT_NE(it, by_id.end()) << "dangling parent";
    const auto& p = *it->second;
    EXPECT_GE(e.At("ts").number, p.At("ts").number);
    if (e.Has("dur") && p.Has("dur")) {
      EXPECT_LE(e.At("ts").number + e.At("dur").number,
                p.At("ts").number + p.At("dur").number);
    }
    ++children_checked;
  }
  EXPECT_EQ(children_checked, task_spans);
}

TEST_F(ObservabilityTest, ExplainWithStatsAnnotatesTheLineage) {
  Dataset src = eng_.Parallelize(KeyedRows(80, 5), 4);
  auto mapped = eng_.Map(src, [](const Value& v) { return v; }, "renamed");
  ASSERT_TRUE(mapped.ok());
  auto reduced =
      eng_.ReduceByKey(mapped.value(), [](const Value& a, const Value& b) {
        return VInt(a.AsInt() + b.AsInt());
      });
  ASSERT_TRUE(reduced.ok());

  const std::string explain = eng_.ExplainWithStats(reduced.value());
  EXPECT_NE(explain.find("reduceByKey [shuffle]"), std::string::npos);
  EXPECT_NE(explain.find("renamed [narrow]"), std::string::npos);
  EXPECT_NE(explain.find("parallelize [source]"), std::string::npos);
  EXPECT_NE(explain.find("shuffle_bytes="), std::string::npos);
  // The root line is the shuffle node; it reports nonzero bytes.
  const std::string root_line = explain.substr(0, explain.find('\n'));
  EXPECT_NE(root_line.find("reduceByKey"), std::string::npos);
  EXPECT_EQ(root_line.find("shuffle_bytes=0"), std::string::npos);

  // A diamond lineage prints shared parents once.
  auto joined = eng_.Join(mapped.value(), mapped.value());
  ASSERT_TRUE(joined.ok());
  const std::string diamond = eng_.ExplainWithStats(joined.value());
  EXPECT_NE(diamond.find("(shown above)"), std::string::npos);
}

TEST_F(ObservabilityTest, ReportStringListsStagesAndResetClears) {
  Dataset src = eng_.Parallelize(KeyedRows(60, 4), 3);
  auto grouped = eng_.GroupByKey(src);
  ASSERT_TRUE(grouped.ok());
  auto gen = eng_.GeneratePartitions(
      2,
      [](int i, Partition* out) {
        out->push_back(VPair(VInt(i), VInt(i)));
        return Status::OK();
      },
      "gen");
  ASSERT_TRUE(gen.ok());
  const std::string report = eng_.ReportString();
  EXPECT_NE(report.find("groupByKey"), std::string::npos);
  EXPECT_NE(report.find("parallelize"), std::string::npos);
  EXPECT_NE(report.find("shuffle_KB"), std::string::npos);

  eng_.ResetStats();
  EXPECT_EQ(eng_.stages().size(), 0u);
  EXPECT_EQ(eng_.metrics().Snapshot().tasks_run, 0u);
  EXPECT_EQ(eng_.tracer().size(), 0u);

  // Stale stage refs from before the reset don't alias fresh stages, and
  // recomputation on a pre-reset dataset still rolls into the totals.
  Dataset fresh = eng_.Parallelize(KeyedRows(10, 2), 2);
  ASSERT_GE(fresh->stage_id(), 0);
  gen.value()->InvalidatePartition(0);
  ASSERT_TRUE(eng_.Collect(gen.value()).ok());
  EXPECT_EQ(eng_.metrics().Snapshot().tasks_recomputed, 1u);
  for (const StageStatsSnapshot& s : eng_.stages().Snapshot()) {
    EXPECT_EQ(s.counters.tasks_recomputed, 0u);
  }
}

}  // namespace
}  // namespace sac::runtime
