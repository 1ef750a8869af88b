// Out-of-core ablation / memory gate: the Figure 4.B multiply run twice
// from identical seeds --
//
//   unlimited   no memory budget (the baseline); records the peak
//               resident footprint P of the whole run
//   budget-25%  a fresh context whose memory budget is P/4, forcing the
//               block store to spill and reload roughly three quarters
//               of the working set through LRU eviction
//
// The gate FAILS (nonzero exit) unless: the budgeted run's product is
// byte-identical to the unlimited run's, evictions and reloaded bytes
// are both nonzero (the budget actually bit), residency stayed within
// the working set, and the slowdown stays within a loose multiple of the
// unlimited run (spilling must not devolve into thrashing the same
// block in and out per access). `--smoke` shrinks the matrix for CI.
//
// NOTE: run with SAC_MEM_BUDGET unset -- the env var overrides both
// contexts' budgets, including the "unlimited" baseline.
#include "bench/bench_common.h"

#include <cstdlib>
#include <cstring>

#include "src/api/algorithms.h"

namespace {

/// Byte-exact product comparison: eviction/reload must round-trip the
/// exact bytes and lineage recomputation is deterministic, so any drift
/// is a block-store bug, not rounding.
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
  const int64_t n = smoke ? 128 : 256;
  const int64_t block = 64;

  PrintHeader(
      "Out-of-core ablation: fig4b multiply, unlimited vs 25% memory "
      "budget");
  BenchReporter reporter("abl_memory", argc, argv);

  int violations = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "MEMORY GATE VIOLATION: %s\n", what);
      ++violations;
    }
  };
  if (std::getenv("SAC_MEM_BUDGET") != nullptr) {
    std::fprintf(stderr,
                 "MEMORY GATE VIOLATION: SAC_MEM_BUDGET is set; it would "
                 "override the unlimited baseline\n");
    return 1;
  }

  struct RunResult {
    Row row;
    la::Tile product{0, 0};
    uint64_t peak = 0;
  };

  auto run = [&](const std::string& series, uint64_t budget) -> RunResult {
    runtime::ClusterConfig cfg = BenchCluster();
    cfg.memory_budget_bytes = budget;
    Sac ctx(cfg);
    auto a = ctx.RandomMatrix(n, n, block, 201, 0.0, 10.0).value();
    auto b = ctx.RandomMatrix(n, n, block, 202, 0.0, 10.0).value();
    RunResult out;
    storage::TiledMatrix c;
    out.row = TimeQuery(&ctx, "abl_memory", series, n, n * n, [&] {
      auto r = algo::Multiply(&ctx, a, b);
      SAC_BENCH_CHECK(r);
      c = std::move(r).value();
    });
    reporter.Report(out.row);
    reporter.CaptureTrace(&ctx);
    out.product = ctx.ToLocal(c).value();
    out.peak = ctx.engine().block_store().peak_resident_bytes();
    return out;
  };

  const RunResult unlimited = run("unlimited", 0);
  expect(unlimited.peak > 0, "unlimited run recorded no peak residency");
  expect(unlimited.row.totals.evictions == 0,
         "unlimited run evicted partitions");
  const uint64_t budget = unlimited.peak / 4;
  const RunResult budgeted = run("budget-25pct", budget);

  expect(SameTile(budgeted.product, unlimited.product),
         "budgeted product is not byte-identical to the unlimited run");
  expect(budgeted.row.totals.evictions > 0,
         "budgeted run evicted nothing; the budget never bit");
  expect(budgeted.row.totals.bytes_evicted > 0,
         "budgeted run metered no evicted bytes");
  expect(budgeted.row.totals.bytes_reloaded > 0,
         "budgeted run reloaded no spilled bytes");
  expect(budgeted.row.totals.peak_resident_bytes <= unlimited.peak,
         "budgeted peak residency exceeds the unlimited working set");
  // Loose overhead bound: eviction adds serialize + disk round-trips per
  // cold block, not per access; a pathological policy (evicting the hot
  // block every pin) would blow far past this.
  expect(budgeted.row.time_ms <= unlimited.row.time_ms * 10.0 + 2000.0,
         "budgeted slowdown exceeds 10x unlimited + 2s");

  if (violations > 0) {
    std::fprintf(stderr, "memory gate: %d violation(s)\n", violations);
    return 1;
  }
  std::printf(
      "memory gate: ok (peak %.1f MB, budget %.1f MB, %llu evictions, "
      "%.1f MB reloaded)\n",
      unlimited.peak / 1048576.0, budget / 1048576.0,
      static_cast<unsigned long long>(budgeted.row.totals.evictions),
      budgeted.row.totals.bytes_reloaded / 1048576.0);
  return 0;
}
