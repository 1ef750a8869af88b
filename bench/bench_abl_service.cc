// Multi-tenant service ablation / gate (docs/SERVICE.md): the same
// 4-client workload run under two admission policies --
//
//   serialized    max_concurrent_queries = 1 (the pre-service behavior:
//                 one query at a time; later clients park at the gate)
//   concurrent4   max_concurrent_queries = 4 (every client admitted)
//
// Each client is one session evaluating a fig4a-shaped matrix product
// whose tasks are stalled by an injected-fault retry plan
// (pre-run@*:count=2 + large retry backoff). The stalls model the
// wait-heavy phases of a real cluster query (network, stragglers,
// speculative retries): a worker sleeping in backoff holds no CPU, so
// overlapping queries reclaim that wall time even on a 1-CPU host.
//
// The gate FAILS (nonzero exit) unless: every product is byte-identical
// across the two arms, the stalls actually fired (faults/retries > 0),
// serialized admission queued at least one client, the concurrent batch
// is >= 2x faster than the serialized batch, and the plan cache shows
// measurable compile savings (K repeat compiles: 1 miss + K-1 hits, and
// the hit path beats the cold path), and rebinding a same-shape input
// before each compile still gives 1 miss + K-1 hits. `--smoke` shrinks
// sizes and stall delays for CI.
#include "bench/bench_common.h"

#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/runtime/recovery.h"

namespace {

constexpr const char* kMatmul =
    "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]";

bool SameTile(const sac::la::Tile& a, const sac::la::Tile& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.vec().data(), b.vec().data(),
                     a.vec().size() * sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sac;         // NOLINT
  using namespace sac::bench;  // NOLINT

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  constexpr int kClients = 4;
  const int64_t n = smoke ? 48 : 64;
  const int64_t block = 16;
  const int stall_base_us = smoke ? 6000 : 25000;

  PrintHeader(
      "Service ablation: 4 sessions, serialized vs concurrent admission, "
      "plan cache on/off");
  BenchReporter reporter("abl_service", argc, argv);

  int violations = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "SERVICE GATE VIOLATION: %s\n", what);
      ++violations;
    }
  };
  if (std::getenv("SAC_MAX_CONCURRENT") != nullptr) {
    std::fprintf(stderr,
                 "SERVICE GATE VIOLATION: SAC_MAX_CONCURRENT is set; it "
                 "would override both admission arms\n");
    return 1;
  }

  struct BatchResult {
    Row row;
    std::vector<la::Tile> products;
  };

  // One 4-client batch under the given admission limit. Inputs are
  // seeded identically in both arms; the stall plan is installed only
  // around the timed queries so data generation and verification read
  // at full speed.
  auto run_batch = [&](const std::string& series,
                       int max_concurrent) -> BatchResult {
    runtime::ClusterConfig cfg = BenchCluster();
    // Parallelism 2 on an 8-worker pool: a single query's stall tasks
    // occupy 2 workers, so the concurrent arm has room to overlap all
    // four clients while the serialized arm must take turns.
    cfg.default_parallelism = 2;
    cfg.max_concurrent_queries = max_concurrent;
    cfg.retry_base_delay_us = stall_base_us;
    cfg.retry_max_delay_us = 2 * stall_base_us;
    Sac ctx(cfg);

    std::vector<std::unique_ptr<Session>> sessions;
    for (int i = 0; i < kClients; ++i) {
      auto s = ctx.OpenSession("client-" + std::to_string(i));
      s->Bind("A", s->RandomMatrix(n, n, block, 301 + 2 * i).value());
      s->Bind("B", s->RandomMatrix(n, n, block, 302 + 2 * i).value());
      s->BindScalar("n", n);
      sessions.push_back(std::move(s));
    }

    // Every task attempt at every point fails twice before succeeding,
    // sleeping the retry backoff in between -- the stall.
    auto plan = runtime::recovery::FaultPlan::Parse("pre-run@*:count=2");
    SAC_BENCH_CHECK(plan);
    ctx.engine().set_fault_plan(std::move(plan).value());

    std::vector<storage::TiledMatrix> results(kClients);
    std::vector<Status> status(kClients);
    BatchResult out;
    out.row = TimeQuery(&ctx, "abl_service", series, n,
                        kClients * n * n, [&] {
      std::vector<std::thread> threads;
      for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
          auto r = sessions[i]->EvalTiled(kMatmul);
          status[i] = r.status();
          if (r.ok()) results[i] = std::move(r).value();
        });
      }
      for (auto& t : threads) t.join();
    });
    for (int i = 0; i < kClients; ++i) SAC_BENCH_CHECK(Result<int>(status[i]));

    // Verification reads run unstalled.
    ctx.engine().set_fault_plan(runtime::recovery::FaultPlan());
    for (int i = 0; i < kClients; ++i) {
      out.products.push_back(sessions[i]->ToLocal(results[i]).value());
    }
    reporter.Report(out.row);
    reporter.CaptureTrace(&ctx);
    return out;
  };

  const BatchResult serialized = run_batch("serialized", 1);
  const BatchResult concurrent = run_batch("concurrent4", kClients);

  for (int i = 0; i < kClients; ++i) {
    expect(SameTile(serialized.products[i], concurrent.products[i]),
           "concurrent product differs from the serialized run");
  }
  expect(serialized.row.totals.faults_injected > 0,
         "no faults fired; the stall plan never bit");
  expect(serialized.row.totals.tasks_retried > 0,
         "no task retried; the stall plan never bit");
  expect(serialized.row.totals.queries_admitted == kClients,
         "serialized arm admitted a wrong query count");
  expect(serialized.row.totals.queries_queued > 0,
         "serialized admission never queued a client");
  expect(concurrent.row.totals.queries_admitted == kClients,
         "concurrent arm admitted a wrong query count");
  // The headline gate: overlapping the stalls must reclaim at least
  // half the serialized batch's wall clock.
  expect(serialized.row.time_ms >= 2.0 * concurrent.row.time_ms,
         "concurrent admission is not >= 2x faster than serialized");

  // ---- plan cache: K repeat compiles, cold vs cached -----------------------
  const int kCompiles = smoke ? 50 : 200;
  double off_ms = 0, on_ms = 0;
  {
    Sac ctx(BenchCluster());
    ctx.Bind("A", ctx.RandomMatrix(n, n, block, 401).value());
    ctx.Bind("B", ctx.RandomMatrix(n, n, block, 402).value());
    ctx.BindScalar("n", n);

    ctx.plan_cache().set_capacity(0);  // cold path every time
    Stopwatch off;
    for (int i = 0; i < kCompiles; ++i) SAC_BENCH_CHECK(ctx.CompileCached(kMatmul));
    off_ms = off.ElapsedMillis();
    Row off_row{};
    off_row.figure = "abl_service";
    off_row.series = "cache_off";
    off_row.n = n;
    off_row.elements = kCompiles;
    off_row.time_ms = off_ms;
    off_row.totals = ctx.metrics().Snapshot();
    reporter.Report(off_row);

    ctx.ResetStats();
    ctx.plan_cache().set_capacity(planner::PlanCache::kDefaultCapacity);
    Stopwatch on;
    for (int i = 0; i < kCompiles; ++i) SAC_BENCH_CHECK(ctx.CompileCached(kMatmul));
    on_ms = on.ElapsedMillis();
    Row on_row{};
    on_row.figure = "abl_service";
    on_row.series = "cache_on";
    on_row.n = n;
    on_row.elements = kCompiles;
    on_row.time_ms = on_ms;
    on_row.totals = ctx.metrics().Snapshot();
    reporter.Report(on_row);

    expect(on_row.totals.plan_cache_misses == 1,
           "cached arm should compile exactly once");
    expect(on_row.totals.plan_cache_hits ==
               static_cast<uint64_t>(kCompiles - 1),
           "cached arm should hit on every repeat compile");
    expect(off_row.totals.plan_cache_hits == 0 &&
               off_row.totals.plan_cache_misses == 0,
           "disabled cache must not meter hits or misses");
    // The hit path skips parse -> normalize -> plan entirely; demand a
    // measurable saving, not parity.
    expect(on_ms < 0.8 * off_ms,
           "plan cache shows no measurable compile-time saving");

    // Rebind arm: a fresh same-shape A before each compile. A plan holds
    // no data and its key only the binding shapes, so this is still
    // 1 miss + K-1 hits.
    ctx.ResetStats();
    ctx.plan_cache().Clear();
    for (int i = 0; i < kCompiles; ++i) {
      ctx.Bind("A", ctx.RandomMatrix(n, n, block, 403 + i).value());
      SAC_BENCH_CHECK(ctx.CompileCached(kMatmul));
    }
    const MetricsSnapshot rebind = ctx.metrics().Snapshot();
    expect(rebind.plan_cache_misses == 1 &&
               rebind.plan_cache_hits == static_cast<uint64_t>(kCompiles - 1),
           "rebinding A to a same-shape matrix should hit the plan cache");
  }

  if (violations > 0) {
    std::fprintf(stderr, "service gate: %d violation(s)\n", violations);
    return 1;
  }
  std::printf(
      "service gate: ok (serialized %.1f ms, concurrent %.1f ms, %.2fx; "
      "compile %d reps: cold %.1f ms, cached %.1f ms)\n",
      serialized.row.time_ms, concurrent.row.time_ms,
      serialized.row.time_ms / concurrent.row.time_ms, kCompiles, off_ms,
      on_ms);
  return 0;
}
