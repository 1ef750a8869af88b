// Figure 4.B -- Matrix multiplication: total time vs number of elements,
// three series:
//   MLlib    -- BlockMatrix.multiply (simulateMultiply replication +
//               cogroup) with pure-JVM-style kernels
//   SAC      -- the paper's plain translation: tile join on the shared
//               index + group-by (Section 5.3), i.e. GBJ disabled
//   SAC GBJ  -- the Section 5.4 group-by-join (SUMMA)
//
// Paper shape: SAC GBJ fastest; MLlib up to ~6x slower than SAC GBJ
// (kernel efficiency); plain SAC slowest on the cluster (it materializes
// and shuffles every partial product tile). See EXPERIMENTS.md for which
// parts of the shape transfer to this in-memory substrate.
#include "bench/bench_common.h"

#include "src/api/algorithms.h"
#include "src/baseline/block_matrix.h"

int main(int argc, char** argv) {
  using namespace sac;           // NOLINT
  using namespace sac::bench;    // NOLINT

  std::vector<int64_t> sizes;
  int64_t block = 64;
  const std::string scale = Scale();
  if (scale == "tiny") {
    sizes = {128, 192};
  } else if (scale == "full") {
    sizes = {128, 256, 384, 512, 640};
  } else {
    sizes = {128, 256, 384, 512};
  }

  PrintHeader(
      "Figure 4.B: matrix multiplication, MLlib vs SAC (join+group-by) vs "
      "SAC GBJ (5.4)");
  BenchReporter reporter("fig4b", argc, argv);

  // "SAC" disables the 5.4 group-by-join rule to get the 5.3 join +
  // reduceByKey plan; "SAC GBJ" runs the defaults, which take 5.4.
  planner::PlannerOptions no_gbj;
  no_gbj.enable_group_by_join = false;

  for (int64_t n : sizes) {
    // MLlib baseline.
    {
      Sac ctx(BenchCluster());
      auto a = ctx.RandomMatrix(n, n, block, 201, 0.0, 10.0).value();
      auto b = ctx.RandomMatrix(n, n, block, 202, 0.0, 10.0).value();
      auto ml_a = baseline::BlockMatrix::FromTiled(a);
      auto ml_b = baseline::BlockMatrix::FromTiled(b);
      const Row row = TimeQuery(&ctx, "fig4b", "MLlib", n, n * n, [&] {
        SAC_BENCH_CHECK(ml_a.Multiply(&ctx.engine(), ml_b));
      });
      reporter.Report(row);
      reporter.CaptureProfile(&ctx, row);
      reporter.CaptureTrace(&ctx);
    }
    // SAC without the group-by-join rule: join + group-by (5.3).
    {
      Sac ctx(BenchCluster(), no_gbj);
      auto a = ctx.RandomMatrix(n, n, block, 201, 0.0, 10.0).value();
      auto b = ctx.RandomMatrix(n, n, block, 202, 0.0, 10.0).value();
      const Row row = TimeQuery(&ctx, "fig4b", "SAC", n, n * n, [&] {
        SAC_BENCH_CHECK(algo::Multiply(&ctx, a, b));
      });
      reporter.Report(row);
      reporter.CaptureProfile(&ctx, row);
      reporter.CaptureTrace(&ctx);
    }
    // SAC with the group-by-join (SUMMA).
    {
      Sac ctx(BenchCluster());
      auto a = ctx.RandomMatrix(n, n, block, 201, 0.0, 10.0).value();
      auto b = ctx.RandomMatrix(n, n, block, 202, 0.0, 10.0).value();
      const Row row = TimeQuery(&ctx, "fig4b", "SAC GBJ", n, n * n, [&] {
        SAC_BENCH_CHECK(algo::Multiply(&ctx, a, b));
      });
      reporter.Report(row);
      reporter.CaptureProfile(&ctx, row);
      reporter.CaptureTrace(&ctx);
    }
  }
  return 0;
}
