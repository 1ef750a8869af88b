// The sharded Metrics must fold to exact totals under concurrent writers
// (the whole point of sharding is lock-free writes with no lost counts),
// and the MeterSink roll-up must hold end to end: per-stage counters sum
// to the engine totals, and a session's counters match the totals of a
// run it owns alone.
#include "src/common/metrics.h"

#include <gtest/gtest.h>

#include "src/api/algorithms.h"
#include "src/api/sac.h"
#include "src/common/thread_pool.h"

namespace sac {
namespace {

TEST(ShardedMetricsTest, ConcurrentWritersFoldExactly) {
  Metrics m;
  ThreadPool pool(8);
  constexpr size_t kOps = 20000;
  pool.ParallelFor(kOps, [&](size_t i) {
    m.Add(Counter::kShuffleBytes, 3);
    m.Add(Counter::kLocalShuffleBytes, 5);
    m.Add(Counter::kTasksRun, 1);
    if (i % 10 == 0) m.Add(Counter::kTasksRecomputed, 1);
    m.Add(Counter::kPeakResidentBytes, i);
  });
  const MetricsSnapshot s = m.Snapshot();
  EXPECT_EQ(s.shuffle_bytes, 3 * kOps);
  EXPECT_EQ(s.local_shuffle_bytes, 5 * kOps);
  EXPECT_EQ(s.tasks_run, kOps);
  EXPECT_EQ(s.tasks_recomputed, kOps / 10);
  // A gauge folds by max, not by sum.
  EXPECT_EQ(s.peak_resident_bytes, kOps - 1);
}

TEST(ShardedMetricsTest, GettersMatchSnapshot) {
  Metrics m;
  m.Add(Counter::kShuffleBytes, 10);
  m.Add(Counter::kLocalShuffleBytes, 7);
  m.Add(Counter::kFlopsPacked, 64);
  const MetricsSnapshot s = m.Snapshot();
  for (size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    EXPECT_EQ(m.Get(c), s.Get(c)) << CounterName(c);
  }
  EXPECT_EQ(s.flops_packed, 64u);
}

TEST(ShardedMetricsTest, ResetClearsEveryShard) {
  Metrics m;
  ThreadPool pool(8);
  // Writers spread across threads land on several shards; Reset must
  // clear them all, not just the caller's.
  pool.ParallelFor(1000, [&](size_t) {
    m.Add(Counter::kShuffleBytes, 1);
    m.Add(Counter::kTasksRun, 1);
    m.Add(Counter::kPeakResidentBytes, 9);
  });
  m.Reset();
  const MetricsSnapshot s = m.Snapshot();
  for (size_t i = 0; i < kNumCounters; ++i) {
    EXPECT_EQ(s.Get(static_cast<Counter>(i)), 0u);
  }
}

TEST(ShardedMetricsTest, StageStatsForwardLocalShuffleToTotals) {
  Metrics totals, session;
  StageStats stage(1, "s", "shuffle");
  const MeterSink sink(&totals, &stage, &session);
  sink.Add(Counter::kLocalShuffleBytes, 11);
  sink.Add(Counter::kShuffleBytes, 4);
  EXPECT_EQ(stage.counters().Get(Counter::kLocalShuffleBytes), 11u);
  EXPECT_EQ(totals.Get(Counter::kLocalShuffleBytes), 11u);
  EXPECT_EQ(session.Get(Counter::kLocalShuffleBytes), 11u);
  EXPECT_EQ(totals.Get(Counter::kShuffleBytes), 4u);

  // No stage is a null pointer in the sink: totals and session still
  // see every increment.
  const MeterSink stageless(&totals, nullptr, &session);
  stageless.Add(Counter::kTasksRecomputed, 1);
  EXPECT_EQ(totals.Get(Counter::kTasksRecomputed), 1u);
  EXPECT_EQ(session.Get(Counter::kTasksRecomputed), 1u);
  EXPECT_EQ(stage.counters().Get(Counter::kTasksRecomputed), 0u);
}

TEST(ShardedMetricsTest, CurrentSinkScopesNest) {
  Metrics totals;
  StageStats stage(0, "s", "narrow");
  const MeterSink sink(&totals, &stage, nullptr);
  MeterSink::Current().Add(Counter::kTileAllocs, 1);  // dropped
  {
    const MeterSink::Scope scope(sink);
    MeterSink::Current().Add(Counter::kTileAllocs, 2);
    {
      const MeterSink dropping;  // must outlive the scope that installs it
      const MeterSink::Scope inner(dropping);
      MeterSink::Current().Add(Counter::kTileAllocs, 4);  // dropped
    }
    MeterSink::Current().Add(Counter::kTileAllocs, 8);
  }
  MeterSink::Current().Add(Counter::kTileAllocs, 16);  // dropped
  EXPECT_EQ(totals.Get(Counter::kTileAllocs), 10u);
  EXPECT_EQ(stage.counters().Get(Counter::kTileAllocs), 10u);
}

// ---- roll-up invariant -----------------------------------------------------

runtime::ClusterConfig RollUpCluster() {
  runtime::ClusterConfig cfg;
  cfg.num_executors = 2;
  cfg.cores_per_executor = 2;
  cfg.default_parallelism = 4;
  return cfg;
}

/// Every stage-scope counter summed over the stages equals the engine
/// total; engine-wide-only counters are zero in every stage.
void ExpectStagesRollUp(Sac* ctx) {
  const MetricsSnapshot totals = ctx->metrics().Snapshot();
  MetricsSnapshot sum;
  for (const StageStatsSnapshot& s : ctx->stages().Snapshot()) {
    for (size_t i = 0; i < kNumCounters; ++i) {
      const Counter c = static_cast<Counter>(i);
      if (ScopeOf(c) == CounterScope::kStage) {
        sum.Ref(c) += s.counters.Get(c);
      } else {
        EXPECT_EQ(s.counters.Get(c), 0u)
            << CounterName(c) << " in stage #" << s.id << " " << s.label;
      }
    }
  }
  for (size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    if (ScopeOf(c) != CounterScope::kStage) continue;
    EXPECT_EQ(sum.Get(c), totals.Get(c)) << CounterName(c);
  }
}

uint64_t Flops(const MetricsSnapshot& s) {
  return s.flops_packed + s.flops_jvmlike;
}

TEST(ShardedMetricsTest, StagesRollUpToTotalsOnGroupByJoinMultiply) {
  Sac ctx(RollUpCluster());  // the defaults take the 5.4 group-by-join plan
  const int64_t n = 128, block = 32;
  auto a = ctx.RandomMatrix(n, n, block, 1).value();
  auto b = ctx.RandomMatrix(n, n, block, 2).value();
  ctx.ResetStats();
  ASSERT_TRUE(algo::Multiply(&ctx, a, b).ok());

  ExpectStagesRollUp(&ctx);
  EXPECT_EQ(Flops(ctx.metrics().Snapshot()), 2u * n * n * n);
  uint64_t summa_flops = 0;
  for (const StageStatsSnapshot& s : ctx.stages().Snapshot()) {
    if (s.label == "summaMultiply") summa_flops += Flops(s.counters);
  }
  EXPECT_EQ(summa_flops, 2u * n * n * n);
}

TEST(ShardedMetricsTest, StagesRollUpToTotalsOnFactorizationStep) {
  Sac ctx(RollUpCluster());
  const int64_t n = 48, k = 16, block = 16;
  auto r = ctx.RandomSparseMatrix(n, n, block, 31, 0.1, 5).value();
  algo::Factorization st{ctx.RandomMatrix(n, k, block, 32, 0.0, 1.0).value(),
                         ctx.RandomMatrix(n, k, block, 33, 0.0, 1.0).value()};
  ctx.ResetStats();
  ASSERT_TRUE(algo::FactorizationStep(&ctx, r, st, 0.002, 0.02).ok());

  ExpectStagesRollUp(&ctx);
  const MetricsSnapshot totals = ctx.metrics().Snapshot();
  EXPECT_GT(Flops(totals), 0u);
  EXPECT_GT(totals.tile_allocs, 0u);
}

TEST(ShardedMetricsTest, SoleSessionMatchesTotals) {
  Sac ctx(RollUpCluster());
  auto s = ctx.OpenSession("solo");
  s->Bind("A", s->RandomMatrix(64, 64, 16, 1).value());
  s->Bind("B", s->RandomMatrix(64, 64, 16, 2).value());
  s->BindScalar("n", int64_t{64});
  ASSERT_TRUE(s->EvalTiled("tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A,"
                           " ((kk,j),b) <- B, kk == k, let v = a*b,"
                           " group by (i,j) ]")
                  .ok());
  const MetricsSnapshot totals = ctx.metrics().Snapshot();
  const MetricsSnapshot mine = s->metrics().Snapshot();
  EXPECT_GT(Flops(totals), 0u);
  for (size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    if (ScopeOf(c) != CounterScope::kStage) continue;
    EXPECT_EQ(mine.Get(c), totals.Get(c)) << CounterName(c);
  }
}

TEST(ShardedMetricsTest, StaleStageStillChargesSession) {
  Sac ctx(RollUpCluster());
  // Datasets created before ResetStats keep their session but lose their
  // stage: recompute and reload must still reach both sinks.
  auto s = ctx.OpenSession("owner");
  auto tight = ctx.OpenSession("tight", /*memory_budget_bytes=*/16 << 10);
  auto m = s->RandomMatrix(64, 64, 16, 7).value();
  auto spilled = tight->RandomMatrix(96, 96, 16, 8).value();
  ASSERT_GT(tight->metrics().Snapshot().evictions, 0u);
  ctx.ResetStats();
  const MetricsSnapshot s0 = s->metrics().Snapshot();
  const MetricsSnapshot t0 = tight->metrics().Snapshot();

  m.tiles->InvalidatePartition(0);
  ASSERT_TRUE(s->ToLocal(m).ok());
  const MetricsSnapshot totals = ctx.metrics().Snapshot();
  EXPECT_EQ(totals.tasks_recomputed, 1u);
  EXPECT_EQ(s->metrics().Snapshot().tasks_recomputed - s0.tasks_recomputed,
            1u);

  ASSERT_TRUE(tight->ToLocal(spilled).ok());
  const uint64_t reloaded = ctx.metrics().Snapshot().bytes_reloaded;
  EXPECT_GT(reloaded, 0u);
  EXPECT_EQ(tight->metrics().Snapshot().bytes_reloaded - t0.bytes_reloaded,
            reloaded);
}

}  // namespace
}  // namespace sac
