// Ablation 4 -- kernel dispatch vs generic library kernels inside the
// *same* distributed plan: runs the SAC GBJ multiply once with the
// compiled fast kernels (the macro-generated-code stand-in) and once with
// the jvmlike backend (kernel_backend = "jvmlike"). The gap isolates how
// much of the Figure 4.B MLlib-vs-SAC difference is kernel efficiency
// rather than plan shape.
#include "bench/bench_common.h"

#include "src/api/algorithms.h"

int main() {
  using namespace sac;           // NOLINT
  using namespace sac::bench;    // NOLINT

  std::vector<int64_t> sizes = Scale() == "tiny"
                                   ? std::vector<int64_t>{128}
                                   : std::vector<int64_t>{256, 512};
  const int64_t block = 64;

  PrintHeader("Ablation 4: generated kernels vs jvm-like kernels (same plan)");
  for (int64_t n : sizes) {
    {
      Sac ctx(BenchCluster());
      auto a = ctx.RandomMatrix(n, n, block, 701).value();
      auto b = ctx.RandomMatrix(n, n, block, 702).value();
      PrintRow(TimeQuery(&ctx, "abl4", "generated", n, n * n, [&] {
        SAC_BENCH_CHECK(algo::Multiply(&ctx, a, b));
      }));
    }
    {
      runtime::ClusterConfig jvm = BenchCluster();
      jvm.kernel_backend = "jvmlike";
      Sac ctx(jvm);
      auto a = ctx.RandomMatrix(n, n, block, 701).value();
      auto b = ctx.RandomMatrix(n, n, block, 702).value();
      PrintRow(TimeQuery(&ctx, "abl4", "jvmlike", n, n * n, [&] {
        SAC_BENCH_CHECK(algo::Multiply(&ctx, a, b));
      }));
    }
  }
  return 0;
}
