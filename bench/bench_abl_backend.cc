// Ablation 5 -- kernel backends (docs/KERNELS.md): the same distributed
// plans run under each registered tile-kernel backend (generic / packed /
// jvmlike), plus fused vs unfused elementwise pipelines.
//
// Like bench_abl_strategy this binary is a GATE, not just a report:
//   1. single-tile GEMM: the packed microkernel must beat the generic
//      blocked loop by >= 1.3x at n=64 (the planner's default block) and
//      at n=512 (the backend's reason to exist), and the two products
//      must match byte for byte;
//   2. backend identity: the fig4a-shaped add and fig4b-shaped multiply
//      must produce byte-identical results under all three backends --
//      switching backends changes time, never values;
//   3. fusion: the transpose-feeding-elementwise query with
//      fuse_elementwise on must match the unfused run byte for byte
//      while allocating strictly fewer tiles (the fused stage skips the
//      materialized transposed temporary).
// Any violation exits non-zero. scripts/bench.sh writes the full report;
// scripts/check.sh smoke-runs the gate at tiny scale.
#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/api/algorithms.h"
#include "src/common/rng.h"
#include "src/la/kernels.h"
#include "src/la/packed_gemm.h"

namespace {

using sac::la::Tile;

bool SameBits(const Tile& x, const Tile& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.size() == 0 ||
          std::memcmp(x.data(), y.data(),
                      sizeof(double) * static_cast<size_t>(x.size())) == 0);
}

/// Best-of-reps wall time: the min is the right statistic for a ratio
/// gate -- both sides see the same machine, the min strips scheduler
/// noise from each independently.
double BestMs(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sac;           // NOLINT
  using namespace sac::bench;    // NOLINT

  // The env var would force every context onto one backend and silently
  // turn the cross-backend series into three runs of the same thing --
  // refuse, like bench_abl_memory does for SAC_MEM_BUDGET.
  if (std::getenv("SAC_KERNEL_BACKEND") != nullptr) {
    std::fprintf(stderr,
                 "bench_abl_backend: unset SAC_KERNEL_BACKEND -- this bench "
                 "selects backends per context\n");
    return 1;
  }

  std::vector<int64_t> sizes;
  const int64_t block = 64;
  const std::string scale = Scale();
  if (scale == "tiny") {
    sizes = {128};
  } else if (scale == "full") {
    sizes = {256, 512};
  } else {
    sizes = {256};
  }

  PrintHeader(
      "Ablation 5: kernel backends -- generic vs packed vs jvmlike, "
      "fused vs unfused");
  BenchReporter reporter("abl_backend", argc, argv);

  int violations = 0;

  // ---- Gate 1: single-tile packed GEMM speedup at the gate shapes. ----
  // Regardless of scale: n=64 is the planner's default block, n=512 is
  // where the panels leave L2. Each timed rep runs (512/n)^2 products so
  // the small shape is not timer-bound. A host without a vector
  // microkernel never packs, so there is no speedup to gate (a scalar
  // packed kernel ran at ~0.6x generic there, docs/KERNELS.md section 2).
  const std::optional<la::MicroKernel> kernel = la::PackedMicroKernel();
  std::vector<int64_t> gemm_sizes = {64, 512};
  if (!kernel) {
    std::printf("gemm: no vector microkernel on this host, packed == "
                "generic; speedup gate skipped\n");
    gemm_sizes.clear();
  }
  for (const int64_t n : gemm_sizes) {
    const double kMinSpeedup = 1.3;
    const int calls = static_cast<int>((512 / n) * (512 / n));
    Rng rng(901);
    Tile a(n, n), b(n, n);
    a.FillRandom(&rng, 0.0, 1.0);
    b.FillRandom(&rng, 0.0, 1.0);
    Tile cg(n, n), cp(n, n);
    la::GemmAccum(a, b, &cg);        // warm both paths once, untimed
    la::PackedGemmAccum(a, b, &cp);
    if (!SameBits(cg, cp)) {
      std::fprintf(stderr,
                   "GATE FAIL: packed GEMM differs from generic bitwise at "
                   "n=%lld\n",
                   static_cast<long long>(n));
      ++violations;
    }
    const int reps = std::max(3, Reps());
    const double gen_ms = BestMs(reps, [&] {
      Tile c(n, n);
      for (int i = 0; i < calls; ++i) la::GemmAccum(a, b, &c);
    });
    const double pack_ms = BestMs(reps, [&] {
      Tile c(n, n);
      for (int i = 0; i < calls; ++i) la::PackedGemmAccum(a, b, &c);
    });
    const double speedup = gen_ms / pack_ms;
    std::printf(
        "gemm%lld x%d: generic %.1f ms, packed (%s) %.1f ms, speedup "
        "%.2fx\n",
        static_cast<long long>(n), calls, gen_ms,
        std::string(la::MicroKernelName(*kernel)).c_str(),
        pack_ms, speedup);
    if (speedup < kMinSpeedup) {
      std::fprintf(stderr,
                   "GATE FAIL: packed GEMM %.2fx over generic at n=%lld, "
                   "need >= %.2fx\n",
                   speedup, static_cast<long long>(n), kMinSpeedup);
      ++violations;
    }
  }

  // ---- Gate 2: backend byte-identity on distributed plans. ----
  const char* kBackends[] = {"generic", "packed", "jvmlike"};
  for (int64_t n : sizes) {
    Tile mul_ref, add_ref;
    for (const char* backend : kBackends) {
      runtime::ClusterConfig cfg = BenchCluster();
      cfg.kernel_backend = backend;

      // fig4b-shaped multiply (GEMM through the backend).
      {
        Sac ctx(cfg);
        auto a = ctx.RandomMatrix(n, n, block, 901, 0.0, 10.0).value();
        auto b = ctx.RandomMatrix(n, n, block, 902, 0.0, 10.0).value();
        Result<storage::TiledMatrix> prod = storage::TiledMatrix{};
        const Row row = TimeQuery(
            &ctx, "abl_backend", std::string("mul-") + backend, n, n * n,
            [&] {
              prod = algo::Multiply(&ctx, a, b);
              SAC_BENCH_CHECK(prod);
            });
        reporter.Report(row);
        reporter.CaptureProfile(&ctx, row);
        const Tile local = ctx.ToLocal(prod.value()).value();
        if (std::strcmp(backend, "generic") == 0) {
          mul_ref = local;
        } else if (!SameBits(local, mul_ref)) {
          std::fprintf(stderr,
                       "GATE FAIL: n=%lld multiply under %s differs from "
                       "generic bitwise\n",
                       static_cast<long long>(n), backend);
          ++violations;
        }
      }

      // fig4a-shaped add (elementwise zip through the backend).
      {
        Sac ctx(cfg);
        ctx.Bind("A", ctx.RandomMatrix(n, n, block, 903, 0.0, 10.0).value());
        ctx.Bind("B", ctx.RandomMatrix(n, n, block, 904, 0.0, 10.0).value());
        ctx.BindScalar("n", n);
        Result<storage::TiledMatrix> sum = storage::TiledMatrix{};
        const Row row = TimeQuery(
            &ctx, "abl_backend", std::string("add-") + backend, n, n * n,
            [&] {
              sum = ctx.EvalTiled(
                  "tiled(n,n)[ ((i,j),a+b) | ((i,j),a) <- A, "
                  "((ii,jj),b) <- B, ii == i, jj == j ]");
              SAC_BENCH_CHECK(sum);
            });
        reporter.Report(row);
        const Tile local = ctx.ToLocal(sum.value()).value();
        if (std::strcmp(backend, "generic") == 0) {
          add_ref = local;
        } else if (!SameBits(local, add_ref)) {
          std::fprintf(stderr,
                       "GATE FAIL: n=%lld add under %s differs from generic "
                       "bitwise\n",
                       static_cast<long long>(n), backend);
          ++violations;
        }
      }
    }
  }

  // ---- Gate 3: fusion -- same bytes, strictly fewer tile allocations. --
  for (int64_t n : sizes) {
    Tile results[2];
    uint64_t allocs[2] = {0, 0};
    for (int fused = 0; fused < 2; ++fused) {
      planner::PlannerOptions opts;
      opts.fuse_elementwise = fused == 1;
      Sac ctx(BenchCluster(), opts);
      ctx.Bind("A", ctx.RandomMatrix(n, n, block, 905, 0.0, 10.0).value());
      ctx.BindScalar("n", n);
      ctx.BindScalar("c", 2.5);
      Result<storage::TiledMatrix> out = storage::TiledMatrix{};
      const Row row = TimeQuery(
          &ctx, "abl_backend", fused ? "fused" : "unfused", n, n * n, [&] {
            out = ctx.EvalTiled("tiled(n,n)[ ((j,i), c*a) | ((i,j),a) <- A ]");
            SAC_BENCH_CHECK(out);
          });
      reporter.Report(row);
      results[fused] = ctx.ToLocal(out.value()).value();
      allocs[fused] = ctx.metrics().Snapshot().tile_allocs;
    }
    if (!SameBits(results[0], results[1])) {
      std::fprintf(stderr,
                   "GATE FAIL: n=%lld fused transpose+scale differs from "
                   "unfused bitwise\n",
                   static_cast<long long>(n));
      ++violations;
    }
    if (allocs[1] >= allocs[0]) {
      std::fprintf(stderr,
                   "GATE FAIL: n=%lld fusion did not reduce tile allocations "
                   "(fused %llu vs unfused %llu)\n",
                   static_cast<long long>(n),
                   static_cast<unsigned long long>(allocs[1]),
                   static_cast<unsigned long long>(allocs[0]));
      ++violations;
    }
  }

  if (violations == 0) {
    std::printf(
        "gate: packed >= 1.3x generic GEMM at 64 and 512, all backends "
        "byte-identical, fusion reduces tile allocations\n");
  }
  return violations == 0 ? 0 : 1;
}
