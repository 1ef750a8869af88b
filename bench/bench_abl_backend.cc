// Ablation 5 -- kernel backends (docs/KERNELS.md): the same distributed
// plans run under the native packed backend and the jvmlike MLlib model,
// whose elementwise pipelines are fused and materialized respectively.
//
// This binary is a GATE, not just a report:
//   1. single-tile GEMM: the packed microkernel must beat the la::GemmAccum
//      reference loop by >= 1.3x at n=64 (the planner's default block)
//      and at n=512 (the backend's reason to exist), and the two products
//      must match byte for byte;
//   2. backend identity: the fig4a-shaped add and fig4b-shaped multiply
//      must produce byte-identical results under both backends --
//      switching backends changes time, never values;
//   3. fusion: the transpose-feeding-elementwise query on packed (fused)
//      must match jvmlike (materialized) byte for byte while allocating
//      strictly fewer tiles (the fused stage skips the materialized
//      transposed temporary).
// Any violation exits non-zero. scripts/bench.sh writes the full report;
// scripts/check.sh smoke-runs the gate at tiny scale.
#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
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
      "Ablation 5: kernel backends -- packed vs reference GEMM, packed vs "
      "jvmlike");
  BenchReporter reporter("abl_backend", argc, argv);

  int violations = 0;

  // ---- Gate 1: single-tile packed GEMM speedup at the gate shapes. ----
  // Regardless of scale: n=64 is the planner's default block, n=512 is
  // where the panels leave L2. Each timed rep runs (512/n)^2 products so
  // the small shape is not timer-bound. A host without a vector
  // microkernel never packs, so there is no speedup to gate (a scalar
  // packed kernel ran at ~0.6x the reference there, docs/KERNELS.md
  // section 2).
  const std::optional<la::MicroKernel> kernel = la::PackedMicroKernel();
  std::vector<int64_t> gemm_sizes = {64, 512};
  if (!kernel) {
    std::printf("gemm: no vector microkernel on this host, packed == "
                "reference; speedup gate skipped\n");
    gemm_sizes.clear();
  }
  for (const int64_t n : gemm_sizes) {
    const double kMinSpeedup = 1.3;
    const int calls = static_cast<int>((512 / n) * (512 / n));
    Rng rng(901);
    Tile a(n, n), b(n, n);
    a.FillRandom(&rng, 0.0, 1.0);
    b.FillRandom(&rng, 0.0, 1.0);
    Tile cr(n, n), cp(n, n);
    la::GemmAccum(a, b, &cr);        // warm both paths once, untimed
    la::PackedGemmAccum(a, b, &cp);
    if (!SameBits(cr, cp)) {
      std::fprintf(stderr,
                   "GATE FAIL: packed GEMM differs from the reference "
                   "bitwise at n=%lld\n",
                   static_cast<long long>(n));
      ++violations;
    }
    const int reps = std::max(3, Reps());
    const double ref_ms = BestMs(reps, [&] {
      Tile c(n, n);
      for (int i = 0; i < calls; ++i) la::GemmAccum(a, b, &c);
    });
    const double pack_ms = BestMs(reps, [&] {
      Tile c(n, n);
      for (int i = 0; i < calls; ++i) la::PackedGemmAccum(a, b, &c);
    });
    const double speedup = ref_ms / pack_ms;
    std::printf(
        "gemm%lld x%d: reference %.1f ms, packed (%s) %.1f ms, speedup "
        "%.2fx\n",
        static_cast<long long>(n), calls, ref_ms,
        std::string(la::MicroKernelName(*kernel)).c_str(),
        pack_ms, speedup);
    if (speedup < kMinSpeedup) {
      std::fprintf(stderr,
                   "GATE FAIL: packed GEMM %.2fx over reference at n=%lld, "
                   "need >= %.2fx\n",
                   speedup, static_cast<long long>(n), kMinSpeedup);
      ++violations;
    }
  }

  // ---- Gate 2: backend byte-identity on distributed plans. ----
  const char* kBackends[] = {"packed", "jvmlike"};
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
        if (std::strcmp(backend, "packed") == 0) {
          mul_ref = local;
        } else if (!SameBits(local, mul_ref)) {
          std::fprintf(stderr,
                       "GATE FAIL: n=%lld multiply under %s differs from "
                       "packed bitwise\n",
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
        if (std::strcmp(backend, "packed") == 0) {
          add_ref = local;
        } else if (!SameBits(local, add_ref)) {
          std::fprintf(stderr,
                       "GATE FAIL: n=%lld add under %s differs from packed "
                       "bitwise\n",
                       static_cast<long long>(n), backend);
          ++violations;
        }
      }
    }
  }

  // ---- Gate 3: fusion -- packed fuses the transpose into the scale,
  // jvmlike materializes it: same bytes, strictly fewer tile allocations.
  for (int64_t n : sizes) {
    Tile results[2];
    uint64_t allocs[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
      runtime::ClusterConfig cfg = BenchCluster();
      cfg.kernel_backend = kBackends[i];
      Sac ctx(cfg);
      ctx.Bind("A", ctx.RandomMatrix(n, n, block, 905, 0.0, 10.0).value());
      ctx.BindScalar("n", n);
      ctx.BindScalar("c", 2.5);
      Result<storage::TiledMatrix> out = storage::TiledMatrix{};
      const Row row = TimeQuery(
          &ctx, "abl_backend", std::string("tscale-") + kBackends[i], n,
          n * n, [&] {
            out = ctx.EvalTiled("tiled(n,n)[ ((j,i), c*a) | ((i,j),a) <- A ]");
            SAC_BENCH_CHECK(out);
          });
      reporter.Report(row);
      results[i] = ctx.ToLocal(out.value()).value();
      allocs[i] = ctx.metrics().Snapshot().tile_allocs;
    }
    if (!SameBits(results[0], results[1])) {
      std::fprintf(stderr,
                   "GATE FAIL: n=%lld transpose+scale under jvmlike differs "
                   "from packed bitwise\n",
                   static_cast<long long>(n));
      ++violations;
    }
    if (allocs[0] >= allocs[1]) {
      std::fprintf(stderr,
                   "GATE FAIL: n=%lld fusion did not reduce tile allocations "
                   "(packed %llu vs jvmlike %llu)\n",
                   static_cast<long long>(n),
                   static_cast<unsigned long long>(allocs[0]),
                   static_cast<unsigned long long>(allocs[1]));
      ++violations;
    }
  }

  if (violations == 0) {
    std::printf(
        "gate: packed >= 1.3x reference GEMM at 64 and 512, packed and "
        "jvmlike byte-identical, fusion reduces tile allocations\n");
  }
  return violations == 0 ? 0 : 1;
}
