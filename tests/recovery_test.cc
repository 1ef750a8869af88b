// Fault-tolerance subsystem tests: FaultPlan parsing and determinism,
// retry-until-success with metered backoff, retries-exhausted surfacing,
// checkpoint lineage truncation, and loop auto-checkpointing.
#include "src/runtime/recovery.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/sac.h"
#include "src/runtime/engine.h"

namespace sac::runtime {
namespace {

ValueVec Ints(std::initializer_list<int64_t> xs) {
  ValueVec out;
  for (int64_t x : xs) out.push_back(VInt(x));
  return out;
}

ValueVec Sorted(ValueVec v) {
  std::sort(v.begin(), v.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  return v;
}

recovery::FaultPlan Plan(const std::string& spec) {
  auto p = recovery::FaultPlan::Parse(spec);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return p.ok() ? std::move(p).value() : recovery::FaultPlan();
}

// ---------------------------------------------------------------------------
// FaultPlan grammar
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ParsesFullGrammar) {
  auto p = recovery::FaultPlan::Parse(
      "seed=7; mid-map@join:part=2:count=3:p=0.5; shuffle-serialize@*");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const std::string s = p.value().ToString();
  EXPECT_NE(s.find("mid-map@join"), std::string::npos) << s;
  EXPECT_NE(s.find("shuffle-serialize@*"), std::string::npos) << s;
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(recovery::FaultPlan::Parse("frobnicate@*").ok());
  EXPECT_FALSE(recovery::FaultPlan::Parse("mid-map").ok());
  EXPECT_FALSE(recovery::FaultPlan::Parse("mid-map@*:p=1.5").ok());
  EXPECT_FALSE(recovery::FaultPlan::Parse("mid-map@*:count=0").ok());
  EXPECT_FALSE(recovery::FaultPlan::Parse("mid-map@*:part=x").ok());
  EXPECT_FALSE(recovery::FaultPlan::Parse("seed=notanumber").ok());
}

TEST(FaultPlanTest, EmptyPlanNeverFires) {
  recovery::FaultPlan p;  // no rules
  for (int part = 0; part < 8; ++part) {
    EXPECT_TRUE(
        p.Check(recovery::FaultPoint::kMidMap, "map", part, 1).ok());
  }
  EXPECT_EQ(p.injected(), 0u);
}

TEST(FaultPlanTest, CountBoundsAttemptsAndStageSubstringMatches) {
  recovery::FaultPlan p = Plan("mid-map@square:part=0:count=2");
  // Attempts 1 and 2 of partition 0 fail; attempt 3 passes.
  EXPECT_EQ(p.Check(recovery::FaultPoint::kMidMap, "square", 0, 1).code(),
            StatusCode::kCancelled);
  EXPECT_EQ(p.Check(recovery::FaultPoint::kMidMap, "square", 0, 2).code(),
            StatusCode::kCancelled);
  EXPECT_TRUE(p.Check(recovery::FaultPoint::kMidMap, "square", 0, 3).ok());
  // Other partitions, stages and points are untouched.
  EXPECT_TRUE(p.Check(recovery::FaultPoint::kMidMap, "square", 1, 1).ok());
  EXPECT_TRUE(p.Check(recovery::FaultPoint::kMidMap, "other", 0, 1).ok());
  EXPECT_TRUE(p.Check(recovery::FaultPoint::kPreRun, "square", 0, 1).ok());
  EXPECT_EQ(p.injected(recovery::FaultPoint::kMidMap), 2u);
}

TEST(FaultPlanTest, ProbabilisticRulesAreDeterministicPerSeed) {
  auto fires = [](recovery::FaultPlan& plan) {
    std::vector<int> hit;
    for (int part = 0; part < 64; ++part) {
      if (!plan.Check(recovery::FaultPoint::kMidMap, "map", part, 1).ok()) {
        hit.push_back(part);
      }
    }
    return hit;
  };
  recovery::FaultPlan a = Plan("seed=42;mid-map@*:count=1000000:p=0.5");
  recovery::FaultPlan b = Plan("seed=42;mid-map@*:count=1000000:p=0.5");
  recovery::FaultPlan c = Plan("seed=43;mid-map@*:count=1000000:p=0.5");
  const std::vector<int> ha = fires(a);
  EXPECT_EQ(ha, fires(b));            // same seed => same firing pattern
  EXPECT_NE(ha, fires(c));            // different seed => different pattern
  EXPECT_GT(ha.size(), 10u);          // p=0.5 over 64 draws
  EXPECT_LT(ha.size(), 54u);
}

// ---------------------------------------------------------------------------
// Retry with backoff
// ---------------------------------------------------------------------------

TEST(RecoveryTest, MidTaskFailureRetriesToIdenticalResult) {
  auto run = [](recovery::FaultPlan plan) {
    Engine eng(ClusterConfig{2, 2, 4});
    eng.set_fault_plan(std::move(plan));
    Dataset ds = eng.Parallelize(Ints({1, 2, 3, 4, 5, 6}), 3);
    auto mapped = eng.Map(
        ds, [](const Value& v) { return VInt(v.AsInt() * v.AsInt()); },
        "square");
    EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
    auto rows = eng.Collect(mapped.value());
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return std::make_tuple(Sorted(rows.value()),
                           eng.metrics().Snapshot().faults_injected,
                           eng.metrics().Snapshot().tasks_retried,
                           eng.metrics().Snapshot().retry_wait_us);
  };
  auto [clean_rows, clean_faults, clean_retries, clean_wait] =
      run(recovery::FaultPlan());
  EXPECT_EQ(clean_faults, 0u);
  EXPECT_EQ(clean_retries, 0u);

  auto [rows, faults, retries, wait_us] =
      run(Plan("mid-map@square:part=0:count=1;mid-map@square:part=2:count=2"));
  EXPECT_EQ(rows, clean_rows);  // identical result despite 3 injected faults
  EXPECT_EQ(faults, 3u);
  EXPECT_EQ(retries, 3u);
  EXPECT_GT(wait_us, 0u);  // backoff time was metered
}

TEST(RecoveryTest, ExhaustedRetriesSurfaceRuntimeError) {
  Engine eng(ClusterConfig{2, 2, 4});
  eng.set_fault_plan(Plan("mid-map@square:part=1:count=1000"));
  Dataset ds = eng.Parallelize(Ints({1, 2, 3, 4}), 2);
  auto mapped = eng.Map(
      ds, [](const Value& v) { return VInt(v.AsInt() + 1); }, "square");
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kRuntimeError);
  EXPECT_NE(mapped.status().message().find("failed after"),
            std::string::npos)
      << mapped.status().ToString();
  EXPECT_EQ(eng.metrics().Snapshot().faults_injected,
            static_cast<uint64_t>(eng.config().max_task_attempts));
}

TEST(RecoveryTest, BackoffDelaysAreBoundedByConfig) {
  ClusterConfig cfg{2, 2, 4};
  cfg.max_task_attempts = 4;
  cfg.retry_base_delay_us = 100;
  cfg.retry_max_delay_us = 150;  // caps the exponential curve
  Engine eng(cfg);
  eng.set_fault_plan(Plan("pre-run@square:part=0:count=3"));
  Dataset ds = eng.Parallelize(Ints({1, 2}), 1);
  auto mapped =
      eng.Map(ds, [](const Value& v) { return v; }, "square");
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // Three retries, each waiting at most retry_max_delay_us.
  EXPECT_EQ(eng.metrics().Snapshot().tasks_retried, 3u);
  EXPECT_LE(eng.metrics().Snapshot().retry_wait_us, 3u * 150u);
  EXPECT_GE(eng.metrics().Snapshot().retry_wait_us, 100u);
}

TEST(RecoveryTest, ShuffleFaultsRecoverAcrossAllPoints) {
  auto run = [](const char* spec) {
    Engine eng(ClusterConfig{2, 2, 4});
    if (spec != nullptr) eng.set_fault_plan(Plan(spec));
    ValueVec rows;
    for (int64_t i = 0; i < 40; ++i) {
      rows.push_back(VPair(VInt(i % 5), VInt(i)));
    }
    Dataset ds = eng.Parallelize(std::move(rows), 4);
    auto red = eng.ReduceByKey(ds, [](const Value& a, const Value& b) {
      return VInt(a.AsInt() + b.AsInt());
    });
    EXPECT_TRUE(red.ok()) << red.status().ToString();
    auto out = eng.Collect(red.value());
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return Sorted(out.value());
  };
  const ValueVec clean = run(nullptr);
  // One fault at each named point, including mid-serialization of a
  // shuffle write and after the reduce-side fetch.
  const ValueVec chaotic = run(
      "pre-run@reduceByKey:part=0:count=1;"
      "shuffle-serialize@reduceByKey:part=1:count=1;"
      "post-shuffle@reduceByKey:part=2:count=1");
  EXPECT_EQ(chaotic, clean);
}

TEST(RecoveryTest, DeterministicReplayOfSeededProbabilisticPlan) {
  auto run = [] {
    // A generous attempt budget: with p=0.4 per draw the chance of any
    // task exhausting 8 attempts is negligible (and, being seeded, fixed).
    ClusterConfig cfg{2, 2, 4};
    cfg.max_task_attempts = 8;
    Engine eng(cfg);
    eng.set_fault_plan(
        Plan("seed=99;pre-run@*:count=1000000:p=0.4"));
    ValueVec rows;
    for (int64_t i = 0; i < 32; ++i) {
      rows.push_back(VPair(VInt(i % 4), VInt(i)));
    }
    Dataset ds = eng.Parallelize(std::move(rows), 4);
    auto red = eng.ReduceByKey(ds, [](const Value& a, const Value& b) {
      return VInt(a.AsInt() + b.AsInt());
    });
    EXPECT_TRUE(red.ok()) << red.status().ToString();
    auto out = eng.Collect(red.value());
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return std::make_pair(Sorted(out.value()),
                          eng.metrics().Snapshot().faults_injected);
  };
  auto [rows_a, faults_a] = run();
  auto [rows_b, faults_b] = run();
  EXPECT_EQ(rows_a, rows_b);
  EXPECT_EQ(faults_a, faults_b);  // replay injects the exact same faults
  EXPECT_GT(faults_a, 0u);
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

TEST(RecoveryTest, CheckpointTruncatesLineageAndRestoresFromSpill) {
  Engine eng(ClusterConfig{2, 2, 4});
  Dataset src = eng.Parallelize(Ints({1, 2, 3, 4, 5, 6, 7, 8}), 4);
  auto mapped = eng.Map(
      src, [](const Value& v) { return VInt(v.AsInt() * 3); }, "triple");
  ASSERT_TRUE(mapped.ok());
  Dataset ds = mapped.value();
  const ValueVec before = Sorted(eng.Collect(ds).value());

  ASSERT_TRUE(eng.Checkpoint(ds).ok());
  EXPECT_TRUE(ds->checkpointed());
  EXPECT_GT(eng.metrics().Snapshot().checkpoint_bytes, 0u);
  EXPECT_TRUE(eng.VerifyLineage(ds).ok());

  // Recovery now reads the spill files instead of recomputing parents:
  // invalidate everything, recover, and check no map task re-ran.
  const uint64_t recomputed_before = eng.metrics().Snapshot().tasks_recomputed;
  for (int i = 0; i < ds->num_partitions(); ++i) ds->InvalidatePartition(i);
  ASSERT_TRUE(eng.Recover(ds).ok());
  EXPECT_EQ(Sorted(eng.Collect(ds).value()), before);
  EXPECT_GT(eng.metrics().Snapshot().checkpoint_restore_bytes, 0u);
  EXPECT_EQ(eng.metrics().Snapshot().tasks_recomputed, recomputed_before + 4);

  // Idempotent: a second checkpoint is a no-op.
  EXPECT_TRUE(eng.Checkpoint(ds).ok());
}

TEST(RecoveryTest, CheckpointedRecoveryUnderInjectedFaults) {
  Engine eng(ClusterConfig{2, 2, 4});
  Dataset src = eng.Parallelize(Ints({10, 20, 30, 40}), 2);
  auto mapped = eng.Map(
      src, [](const Value& v) { return VInt(v.AsInt() + 1); }, "bump");
  ASSERT_TRUE(mapped.ok());
  Dataset ds = mapped.value();
  const ValueVec before = Sorted(eng.Collect(ds).value());
  ASSERT_TRUE(eng.Checkpoint(ds).ok());

  // The restore task itself fails once and is retried.
  eng.set_fault_plan(Plan("pre-run@bump:part=0:count=1"));
  for (int i = 0; i < ds->num_partitions(); ++i) ds->InvalidatePartition(i);
  ASSERT_TRUE(eng.Recover(ds).ok());
  EXPECT_EQ(Sorted(eng.Collect(ds).value()), before);
  EXPECT_GE(eng.metrics().Snapshot().faults_injected, 1u);
  EXPECT_GE(eng.metrics().Snapshot().tasks_retried, 1u);
}

TEST(RecoveryTest, SacCheckpointByNameValidatesBinding) {
  Sac ctx(ClusterConfig{2, 2, 4});
  ctx.Bind("A", ctx.RandomMatrix(16, 16, 8, 1).value());
  ctx.BindScalar("s", 2.0);
  EXPECT_TRUE(ctx.Checkpoint("A").ok());
  EXPECT_FALSE(ctx.Checkpoint("nope").ok());
  EXPECT_FALSE(ctx.Checkpoint("s").ok());
}

TEST(RecoveryTest, LoopAutoCheckpointBoundsLineageAndPreservesResult) {
  const char* program =
      "for i = 0, n-1 do for j = 0, n-1 do C[i,j] := C[i,j] + A[i,j];";
  auto run = [&](int interval) {
    ClusterConfig cfg{2, 2, 4};
    cfg.checkpoint_interval = interval;
    Sac ctx(cfg);
    ctx.Bind("A", ctx.RandomMatrix(16, 16, 8, 1).value());
    ctx.Bind("C", ctx.RandomMatrix(16, 16, 8, 2, 0.0, 0.0).value());
    ctx.BindScalar("n", int64_t{16});
    auto r = ctx.EvalLoopIterated(program, 5);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    auto local = ctx.ToLocal(ctx.bindings().at("C").tiled);
    EXPECT_TRUE(local.ok());
    return std::make_pair(local.value(),
                          ctx.metrics().Snapshot().checkpoint_bytes);
  };
  auto [plain, plain_ckpt] = run(0);
  auto [ckpt, ckpt_bytes] = run(2);
  EXPECT_EQ(plain_ckpt, 0u);
  EXPECT_GT(ckpt_bytes, 0u);  // every 2nd rebind of C was checkpointed
  ASSERT_EQ(plain.vec().size(), ckpt.vec().size());
  for (size_t i = 0; i < plain.vec().size(); ++i) {
    ASSERT_EQ(plain.vec()[i], ckpt.vec()[i]);  // bit-identical
  }
}

}  // namespace
}  // namespace sac::runtime
