// Tests for the multi-tenant query service (docs/SERVICE.md): session
// isolation (bindings, metrics attribution, memory slices), ticket-based
// concurrent admission, fair multi-queue scheduling on the thread pool,
// the compiled-plan cache, and the ResetStats/in-flight coherence rules
// under concurrent admission. The concurrency tests here are part of the
// tsan suite (scripts/check.sh keeps *Session* in the filter).
#include "src/runtime/session.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/algorithms.h"
#include "src/api/sac.h"
#include "src/common/thread_pool.h"
#include "src/runtime/engine.h"
#include "src/storage/tiled.h"

namespace sac {
namespace {

using runtime::AdmissionGate;
using runtime::ClusterConfig;

// The fig4a-shaped matrix product the paper's service would field from
// many clients at once.
constexpr const char* kMatmul =
    "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]";

ClusterConfig SmallCluster() {
  ClusterConfig cfg{2, 2, 4};
  return cfg;
}

// ---- end-to-end session isolation ------------------------------------------

TEST(SessionTest, InterleavedQueriesMatchSerial) {
  constexpr int kSessions = 4;
  constexpr int64_t kN = 48, kBlock = 16;

  // Serial reference: the same per-session inputs (same seeds), one
  // query at a time.
  std::vector<la::Tile> expected;
  {
    ClusterConfig cfg = SmallCluster();
    cfg.max_concurrent_queries = 1;
    Sac ctx(cfg);
    for (int i = 0; i < kSessions; ++i) {
      auto s = ctx.OpenSession("serial-" + std::to_string(i));
      s->Bind("A", s->RandomMatrix(kN, kN, kBlock, 2 * i + 1).value());
      s->Bind("B", s->RandomMatrix(kN, kN, kBlock, 2 * i + 2).value());
      s->BindScalar("n", int64_t{kN});
      auto c = s->EvalTiled(kMatmul);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      expected.push_back(s->ToLocal(c.value()).value());
    }
  }

  // Concurrent run: one thread per session, all admitted at once.
  ClusterConfig cfg = SmallCluster();
  cfg.max_concurrent_queries = kSessions;
  Sac ctx(cfg);
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(ctx.OpenSession("client-" + std::to_string(i)));
  }
  std::vector<la::Tile> got(kSessions);
  std::vector<Status> status(kSessions);
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      Session& s = *sessions[i];
      auto a = s.RandomMatrix(kN, kN, kBlock, 2 * i + 1);
      auto b = s.RandomMatrix(kN, kN, kBlock, 2 * i + 2);
      if (!a.ok() || !b.ok()) {
        status[i] = a.ok() ? b.status() : a.status();
        return;
      }
      s.Bind("A", a.value());
      s.Bind("B", b.value());
      s.BindScalar("n", int64_t{kN});
      auto c = s.EvalTiled(kMatmul);
      if (!c.ok()) {
        status[i] = c.status();
        return;
      }
      auto local = s.ToLocal(c.value());
      if (!local.ok()) {
        status[i] = local.status();
        return;
      }
      got[i] = std::move(local).value();
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(status[i].ok()) << "session " << i << ": "
                                << status[i].ToString();
    // Byte-identical, not approximately: reduce-side folds run in
    // deterministic source-partition order regardless of interleaving.
    ASSERT_TRUE(expected[i] == got[i]) << "session " << i;
  }
  const MetricsSnapshot snap = ctx.metrics().Snapshot();
  EXPECT_EQ(snap.queries_admitted, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(ctx.engine().live_queries(), 0);
  EXPECT_EQ(ctx.engine().in_flight(), 0);
}

TEST(SessionTest, SessionMetricsAttribution) {
  Sac ctx(SmallCluster());
  auto busy = ctx.OpenSession("busy");
  auto idle = ctx.OpenSession("idle");

  busy->Bind("A", busy->RandomMatrix(32, 32, 16, 1).value());
  busy->Bind("B", busy->RandomMatrix(32, 32, 16, 2).value());
  busy->BindScalar("n", int64_t{32});
  ASSERT_TRUE(busy->EvalTiled(kMatmul).ok());

  const MetricsSnapshot busy_snap = busy->metrics().Snapshot();
  EXPECT_GT(busy_snap.tasks_run, 0u);
  EXPECT_EQ(busy_snap.queries_admitted, 1u);
  // Engine totals cover the session's work too (one MeterSink charges
  // both).
  EXPECT_GE(ctx.metrics().Snapshot().tasks_run, busy_snap.tasks_run);

  const MetricsSnapshot idle_snap = idle->metrics().Snapshot();
  EXPECT_EQ(idle_snap.tasks_run, 0u);
  EXPECT_EQ(idle_snap.queries_admitted, 0u);
}

TEST(SessionTest, PerSessionBudgetEvictsOnlyThatSession) {
  // Global budget unlimited; only the "tight" session has a slice.
  Sac ctx(SmallCluster());
  auto roomy = ctx.OpenSession("roomy", /*memory_budget_bytes=*/0);
  auto tight = ctx.OpenSession("tight", /*memory_budget_bytes=*/16 << 10);

  auto roomy_m = roomy->RandomMatrix(64, 64, 16, 7).value();
  const la::Tile roomy_before = roomy->ToLocal(roomy_m).value();
  const uint64_t roomy_resident = roomy->resident_bytes();
  ASSERT_GT(roomy_resident, 0u);

  // 96x96 doubles ~ 73 KB >> the 16 KB slice: publishing must evict
  // earlier tiles of this session -- and nothing of the other one.
  auto tight_m = tight->RandomMatrix(96, 96, 16, 8).value();
  EXPECT_GT(tight->metrics().Snapshot().evictions, 0u);
  EXPECT_LE(tight->resident_bytes(), tight->memory_budget_bytes());

  EXPECT_EQ(roomy->metrics().Snapshot().evictions, 0u);
  EXPECT_EQ(roomy->resident_bytes(), roomy_resident);

  // Both datasets still read back exactly (evicted tiles reload).
  EXPECT_TRUE(roomy_before == roomy->ToLocal(roomy_m).value());
  auto tight_local = tight->ToLocal(tight_m);
  ASSERT_TRUE(tight_local.ok()) << tight_local.status().ToString();
}

// ---- plan cache ------------------------------------------------------------

TEST(SessionTest, PlanCacheHitPathIsEquivalent) {
  Sac ctx(SmallCluster());
  ctx.Bind("A", ctx.RandomMatrix(32, 32, 16, 1).value());
  ctx.Bind("B", ctx.RandomMatrix(32, 32, 16, 2).value());
  ctx.BindScalar("n", int64_t{32});

  auto first = ctx.EvalTiled(kMatmul);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  MetricsSnapshot snap = ctx.metrics().Snapshot();
  EXPECT_EQ(snap.plan_cache_misses, 1u);
  EXPECT_EQ(snap.plan_cache_hits, 0u);

  // Same source (modulo whitespace), same bindings: served from cache,
  // byte-identical result.
  const std::string reformatted = std::string("  ") + kMatmul + "\n";
  auto second = ctx.EvalTiled(reformatted);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  snap = ctx.metrics().Snapshot();
  EXPECT_EQ(snap.plan_cache_misses, 1u);
  EXPECT_EQ(snap.plan_cache_hits, 1u);
  EXPECT_TRUE(ctx.ToLocal(first.value()).value() ==
              ctx.ToLocal(second.value()).value());

  // Rebinding a name to a new matrix of the same shape keeps the key:
  // the cached plan reads A from the bindings it runs against, so the hit
  // computes the new product, byte-identical to a fresh compile-and-run.
  ctx.Bind("A", ctx.RandomMatrix(32, 32, 16, 3).value());
  auto rebound = ctx.EvalTiled(kMatmul);
  ASSERT_TRUE(rebound.ok()) << rebound.status().ToString();
  snap = ctx.metrics().Snapshot();
  EXPECT_EQ(snap.plan_cache_misses, 1u);
  EXPECT_EQ(snap.plan_cache_hits, 2u);
  auto fresh_plan = ctx.Compile(kMatmul);
  ASSERT_TRUE(fresh_plan.ok()) << fresh_plan.status().ToString();
  auto fresh = fresh_plan.value().run(&ctx.engine(), ctx.bindings());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  const la::Tile rebound_local = ctx.ToLocal(rebound.value()).value();
  EXPECT_TRUE(rebound_local == ctx.ToLocal(fresh.value().tiled).value());
  EXPECT_FALSE(rebound_local == ctx.ToLocal(first.value()).value());

  // Rebinding to a different shape (block size) changes the key: miss.
  ctx.Bind("A", ctx.RandomMatrix(32, 32, 8, 4).value());
  ctx.Bind("B", ctx.RandomMatrix(32, 32, 8, 5).value());
  ASSERT_TRUE(ctx.EvalTiled(kMatmul).ok());
  snap = ctx.metrics().Snapshot();
  EXPECT_EQ(snap.plan_cache_misses, 2u);
  EXPECT_EQ(snap.plan_cache_hits, 2u);
}

TEST(SessionTest, PlanRejectsBindingsOfAnotherShape) {
  Sac ctx(SmallCluster());
  ctx.Bind("A", ctx.RandomMatrix(32, 32, 16, 1).value());
  ctx.Bind("B", ctx.RandomMatrix(32, 32, 16, 2).value());
  ctx.BindScalar("n", int64_t{32});
  auto plan = ctx.Compile(kMatmul);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  planner::Bindings binds = ctx.bindings();
  binds.erase("B");
  auto missing = plan.value().run(&ctx.engine(), binds);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kPlanError);

  binds = ctx.bindings();
  binds["B"] = planner::Binding::Tiled(ctx.RandomMatrix(32, 32, 8, 3).value());
  auto reshaped = plan.value().run(&ctx.engine(), binds);
  ASSERT_FALSE(reshaped.ok());
  EXPECT_EQ(reshaped.status().code(), StatusCode::kPlanError);
}

TEST(SessionTest, CachedPlanDoesNotKeepDatasetAlive) {
  Sac ctx(SmallCluster());
  ctx.BindScalar("n", int64_t{32});
  ctx.BindScalar("c", 2.0);
  std::weak_ptr<runtime::DatasetImpl> tiles;
  {
    storage::TiledMatrix a = ctx.RandomMatrix(32, 32, 16, 1).value();
    tiles = a.tiles;
    ctx.Bind("A", std::move(a));
  }
  ASSERT_TRUE(
      ctx.EvalTiled("tiled(n,n)[ ((i,j), c*a) | ((i,j),a) <- A ]").ok());
  EXPECT_EQ(ctx.plan_cache().size(), 1u);
  EXPECT_FALSE(tiles.expired());
  ctx.Unbind("A");
  EXPECT_TRUE(tiles.expired());
  EXPECT_EQ(ctx.plan_cache().size(), 1u);
}

TEST(SessionTest, SessionsShareOnePlanOverTheirOwnData) {
  Sac ctx(SmallCluster());
  auto s1 = ctx.OpenSession("one");
  auto s2 = ctx.OpenSession("two");
  for (Session* s : {s1.get(), s2.get()}) {
    s->Bind("A", s->RandomMatrix(32, 32, 16, 10 * s->id() + 1).value());
    s->Bind("B", s->RandomMatrix(32, 32, 16, 10 * s->id() + 2).value());
    s->BindScalar("n", int64_t{32});
  }
  // Serial references; the second session already hits the first's entry.
  const la::Tile want1 = s1->ToLocal(s1->EvalTiled(kMatmul).value()).value();
  const la::Tile want2 = s2->ToLocal(s2->EvalTiled(kMatmul).value()).value();
  ASSERT_FALSE(want1 == want2);
  EXPECT_EQ(ctx.plan_cache().size(), 1u);

  constexpr int kRounds = 4;
  std::vector<la::Tile> got1(kRounds), got2(kRounds);
  Status st1, st2;
  auto client = [](Session* s, std::vector<la::Tile>* got, Status* st) {
    for (int r = 0; r < kRounds && st->ok(); ++r) {
      auto m = s->EvalTiled(kMatmul);
      if (!m.ok()) {
        *st = m.status();
        return;
      }
      auto local = s->ToLocal(m.value());
      if (!local.ok()) {
        *st = local.status();
        return;
      }
      (*got)[r] = std::move(local).value();
    }
  };
  std::thread t1(client, s1.get(), &got1, &st1);
  std::thread t2(client, s2.get(), &got2, &st2);
  t1.join();
  t2.join();
  ASSERT_TRUE(st1.ok()) << st1.ToString();
  ASSERT_TRUE(st2.ok()) << st2.ToString();
  for (int r = 0; r < kRounds; ++r) {
    EXPECT_TRUE(got1[r] == want1) << "round " << r;
    EXPECT_TRUE(got2[r] == want2) << "round " << r;
  }
  const MetricsSnapshot snap = ctx.metrics().Snapshot();
  EXPECT_EQ(snap.plan_cache_misses, 1u);
  EXPECT_EQ(snap.plan_cache_hits, 1u + 2u * kRounds);
}

TEST(SessionTest, IterativeFactorizationReusesItsPlans) {
  Sac ctx(SmallCluster());
  const storage::TiledMatrix r =
      ctx.RandomSparseMatrix(32, 24, 8, 1, 0.3, 5).value();
  algo::Factorization state{ctx.RandomMatrix(32, 8, 8, 2, 0, 1).value(),
                            ctx.RandomMatrix(24, 8, 8, 3, 0, 1).value()};
  for (int step = 0; step < 3; ++step) {
    auto next = algo::FactorizationStep(&ctx, r, state, 0.002, 0.02);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    state = std::move(next).value();
    const MetricsSnapshot snap = ctx.metrics().Snapshot();
    // The first step compiles its 6 comprehensions; later steps rebind
    // fresh factors of the same shapes and only hit.
    EXPECT_EQ(snap.plan_cache_misses, 6u) << "step " << step;
    EXPECT_EQ(snap.plan_cache_hits, 6u * step) << "step " << step;
  }
}

TEST(SessionTest, PlanCacheDisabledAndEvictions) {
  Sac ctx(SmallCluster());
  ctx.Bind("A", ctx.RandomMatrix(32, 32, 16, 1).value());
  ctx.BindScalar("n", int64_t{32});
  ctx.BindScalar("c", 2.0);
  const std::string scale = "tiled(n,n)[ ((i,j), c*a) | ((i,j),a) <- A ]";

  // Capacity 0 disables the cache entirely: no counters move.
  ctx.plan_cache().set_capacity(0);
  ASSERT_TRUE(ctx.EvalTiled(scale).ok());
  ASSERT_TRUE(ctx.EvalTiled(scale).ok());
  MetricsSnapshot snap = ctx.metrics().Snapshot();
  EXPECT_EQ(snap.plan_cache_hits, 0u);
  EXPECT_EQ(snap.plan_cache_misses, 0u);

  // Capacity 1: the second distinct query evicts the first.
  ctx.plan_cache().set_capacity(1);
  ASSERT_TRUE(ctx.EvalTiled(scale).ok());
  ASSERT_TRUE(
      ctx.EvalTiled("tiled(n,n)[ ((i,j), c+a) | ((i,j),a) <- A ]").ok());
  snap = ctx.metrics().Snapshot();
  EXPECT_EQ(snap.plan_cache_misses, 2u);
  EXPECT_EQ(snap.plan_cache_evictions, 1u);
  EXPECT_EQ(ctx.plan_cache().size(), 1u);
}

TEST(SessionTest, PlanCacheKeySemantics) {
  planner::PlannerOptions options;
  planner::Bindings binds;
  binds["n"] = planner::Binding::Scalar(runtime::Value::Int(32));

  // Whitespace-insensitive: reformatting does not split the cache.
  EXPECT_EQ(planner::PlanCacheKey("x  +\n y", binds, options),
            planner::PlanCacheKey("x + y", binds, options));
  EXPECT_NE(planner::PlanCacheKey("x + y", binds, options),
            planner::PlanCacheKey("x + z", binds, options));

  // A scalar rebind changes the key (scalars feed plan extents).
  planner::Bindings binds2 = binds;
  binds2["n"] = planner::Binding::Scalar(runtime::Value::Int(64));
  EXPECT_NE(planner::PlanCacheKey("x + y", binds, options),
            planner::PlanCacheKey("x + y", binds2, options));
  // Scalars are compiled in as constants, so the key holds their exact
  // value, not a rounded rendering.
  binds2["n"] = planner::Binding::Scalar(runtime::Value::Double(0.1));
  planner::Bindings binds3 = binds2;
  binds3["n"] = planner::Binding::Scalar(runtime::Value::Double(0.1000001));
  EXPECT_NE(planner::PlanCacheKey("x + y", binds2, options),
            planner::PlanCacheKey("x + y", binds3, options));

  // kLocal bindings make the query uncacheable: empty key.
  binds["v"] = planner::Binding::Local(runtime::Value::Double(2.0));
  EXPECT_EQ(planner::PlanCacheKey("x + y", binds, options), "");
}

// ---- admission gate --------------------------------------------------------

TEST(SessionTest, AdmissionGateBlocksAtCapacity) {
  Metrics metrics;
  const MeterSink sink(&metrics, nullptr, nullptr);
  AdmissionGate gate(/*max_concurrent=*/1);

  AdmissionGate::Ticket first = gate.Admit(sink);
  EXPECT_EQ(gate.live(), 1);

  std::atomic<bool> second_admitted{false};
  std::thread waiter([&] {
    AdmissionGate::Ticket t = gate.Admit(sink);
    second_admitted.store(true);
    t = AdmissionGate::Ticket();  // release
  });
  // The waiter must park: capacity is 1 and `first` is live.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_admitted.load());
  EXPECT_EQ(gate.live(), 1);

  first = AdmissionGate::Ticket();  // release the slot
  waiter.join();
  EXPECT_TRUE(second_admitted.load());
  EXPECT_EQ(gate.live(), 0);

  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.queries_admitted, 2u);
  EXPECT_EQ(snap.queries_queued, 1u);
}

TEST(SessionTest, SerializedAdmissionStillCorrect) {
  ClusterConfig cfg = SmallCluster();
  cfg.max_concurrent_queries = 1;
  Sac ctx(cfg);
  auto s1 = ctx.OpenSession("one");
  auto s2 = ctx.OpenSession("two");
  for (Session* s : {s1.get(), s2.get()}) {
    s->Bind("A", s->RandomMatrix(32, 32, 16, s->id()).value());
    s->BindScalar("n", int64_t{32});
  }
  const std::string scale = "tiled(n,n)[ ((i,j), a+a) | ((i,j),a) <- A ]";
  Status st1, st2;
  std::thread t1([&] { st1 = s1->EvalTiled(scale).status(); });
  std::thread t2([&] { st2 = s2->EvalTiled(scale).status(); });
  t1.join();
  t2.join();
  EXPECT_TRUE(st1.ok()) << st1.ToString();
  EXPECT_TRUE(st2.ok()) << st2.ToString();
  EXPECT_EQ(ctx.metrics().Snapshot().queries_admitted, 2u);
  EXPECT_EQ(ctx.engine().live_queries(), 0);
}

// ---- ResetStats coherence --------------------------------------------------

TEST(SessionTest, ResetStatsCoherentAfterConcurrentQueries) {
  Sac ctx(SmallCluster());
  auto s = ctx.OpenSession("client");
  s->Bind("A", s->RandomMatrix(32, 32, 16, 1).value());
  s->BindScalar("n", int64_t{32});
  ASSERT_TRUE(
      s->EvalTiled("tiled(n,n)[ ((i,j), a+a) | ((i,j),a) <- A ]").ok());
  // Both gauges the reset precondition checks must be quiescent the
  // moment Eval returns -- no ticket leaks, no stray pool tasks.
  EXPECT_EQ(ctx.engine().live_queries(), 0);
  EXPECT_EQ(ctx.engine().in_flight(), 0);
  ctx.ResetStats();  // must not abort
  EXPECT_EQ(ctx.metrics().Snapshot().queries_admitted, 0u);
}

// Named outside the *Session* tsan filter on purpose: death tests fork,
// which tsan dislikes; the plain-ASan suite covers it.
TEST(ResetStatsDeathTest, RefusesWhileQueryAdmitted) {
  Sac ctx(SmallCluster());
  AdmissionGate::Ticket ticket = ctx.engine().AdmitQuery();
  EXPECT_EQ(ctx.engine().live_queries(), 1);
  EXPECT_DEATH(ctx.engine().ResetStats(), "admission ticket");
}

// ---- fair multi-queue scheduling -------------------------------------------

// A one-worker pool whose worker is parked on a gate task, so tests can
// stage queue contents deterministically before anything runs.
struct GatedPool {
  GatedPool() : pool(1) {
    pool.Submit([this] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return open; });
    });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  ThreadPool pool;
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
};

TEST(SessionFairQueueTest, DrainsQueuesRoundRobin) {
  GatedPool gated;
  const ThreadPool::QueueId qa = gated.pool.OpenQueue();
  const ThreadPool::QueueId qb = gated.pool.OpenQueue();

  std::mutex order_mu;
  std::vector<char> order;
  auto record = [&](char tag) {
    return [&order_mu, &order, tag] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
    };
  };
  // Three tasks from session A stacked up before session B's arrive:
  // round-robin must still alternate rather than draining A first.
  for (int i = 0; i < 3; ++i) gated.pool.Submit(qa, record('a'));
  for (int i = 0; i < 3; ++i) gated.pool.Submit(qb, record('b'));

  gated.Open();
  gated.pool.Wait();
  EXPECT_EQ(std::string(order.begin(), order.end()), "ababab");
}

TEST(SessionFairQueueTest, CloseQueueMigratesPendingTasks) {
  GatedPool gated;
  const ThreadPool::QueueId q = gated.pool.OpenQueue();
  std::atomic<int> ran{0};
  gated.pool.Submit(q, [&] { ran.fetch_add(1); });
  gated.pool.Submit(q, [&] { ran.fetch_add(1); });
  gated.pool.CloseQueue(q);  // pending work survives the session
  // Submitting to the now-closed id falls back to the default queue.
  gated.pool.Submit(q, [&] { ran.fetch_add(1); });

  gated.Open();
  gated.pool.Wait();
  EXPECT_EQ(ran.load(), 3);
}

TEST(SessionFairQueueTest, ParallelForOnSessionQueueCoversRange) {
  ThreadPool pool(3);
  const ThreadPool::QueueId q = pool.OpenQueue();
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(hits.size(),
                   [&](size_t i) { hits[i].fetch_add(1); },
                   /*chunk=*/0, q);
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(pool.in_flight(), 0u);
}

}  // namespace
}  // namespace sac
