// Figure 4.C -- One gradient-descent iteration of matrix factorization
// (Koren et al.):
//   E = R - P Q^T;  P += gamma (2 E Q - lambda P);
//   Q += gamma (2 E^T P - lambda Q)
// with gamma = 0.002, lambda = 0.02, R an n x n sparse rating matrix (10%
// nonzero integers 0..5), and rank k (the paper used k = 1000 at
// n = 20000; we scale both down together).
//
// Series: MLlib (BlockMatrix algebra, jvm-like kernels) vs SAC GBJ (every
// step a comprehension compiled through Sections 5.1/5.3/5.4).
// Paper shape: SAC GBJ up to ~3x faster than MLlib.
#include "bench/bench_common.h"

#include "src/api/algorithms.h"
#include "src/baseline/block_matrix.h"

int main(int argc, char** argv) {
  using namespace sac;           // NOLINT
  using namespace sac::bench;    // NOLINT

  std::vector<int64_t> sizes;
  int64_t block = 64;
  int64_t k = 64;
  const std::string scale = Scale();
  if (scale == "tiny") {
    sizes = {128};
  } else if (scale == "full") {
    sizes = {128, 256, 384, 512, 640};
  } else {
    sizes = {128, 256, 384};
  }
  const double gamma = 0.002, lambda = 0.02;

  PrintHeader(
      "Figure 4.C: matrix factorization (1 GD iteration), MLlib vs SAC GBJ");
  BenchReporter reporter("fig4c", argc, argv);

  for (int64_t n : sizes) {
    {
      Sac ctx(BenchCluster());
      auto r = ctx.RandomSparseMatrix(n, n, block, 301, 0.1, 5).value();
      auto p = ctx.RandomMatrix(n, k, block, 302, 0.0, 1.0).value();
      auto q = ctx.RandomMatrix(n, k, block, 303, 0.0, 1.0).value();
      baseline::FactorizationState st{baseline::BlockMatrix::FromTiled(p),
                                      baseline::BlockMatrix::FromTiled(q)};
      auto ml_r = baseline::BlockMatrix::FromTiled(r);
      const Row row = TimeQuery(&ctx, "fig4c", "MLlib", n, n * n, [&] {
        SAC_BENCH_CHECK(
            baseline::FactorizationStep(&ctx.engine(), ml_r, st, gamma,
                                        lambda));
      });
      reporter.Report(row);
      reporter.CaptureProfile(&ctx, row);
      reporter.CaptureTrace(&ctx);
    }
    {
      Sac ctx(BenchCluster());
      auto r = ctx.RandomSparseMatrix(n, n, block, 301, 0.1, 5).value();
      auto p = ctx.RandomMatrix(n, k, block, 302, 0.0, 1.0).value();
      auto q = ctx.RandomMatrix(n, k, block, 303, 0.0, 1.0).value();
      algo::Factorization st{p, q};
      const Row row = TimeQuery(&ctx, "fig4c", "SAC GBJ", n, n * n, [&] {
        SAC_BENCH_CHECK(
            algo::FactorizationStep(&ctx, r, st, gamma, lambda));
      });
      reporter.Report(row);
      reporter.CaptureProfile(&ctx, row);
      reporter.CaptureTrace(&ctx);
    }
  }
  return 0;
}
