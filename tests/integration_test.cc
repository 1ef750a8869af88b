// Integration tests: multi-query pipelines through the public API,
// iterative algorithms, error propagation, and cross-strategy agreement.
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "src/api/algorithms.h"
#include "src/api/sac.h"
#include "src/la/kernels.h"

namespace sac {
namespace {

using planner::Strategy;

TEST(IntegrationTest, PowerIterationConverges) {
  // Largest-eigenvalue power iteration on a symmetric positive matrix,
  // every step a comprehension: y = A x; x = y / ||y||.
  Sac ctx(runtime::ClusterConfig{2, 2, 4});
  const int64_t n = 32, blk = 8;
  // A = B^T B is symmetric PSD.
  auto b = ctx.RandomMatrix(n, n, blk, 51, 0.0, 1.0).value();
  auto a = algo::MultiplyAt(&ctx, b, b).value();
  ctx.Bind("A", a);
  ctx.BindScalar("n", n);

  auto x = storage::VectorFromLocal(&ctx.engine(),
                                    std::vector<double>(n, 1.0), blk)
               .value();
  double prev_lambda = 0, lambda = 0;
  for (int it = 0; it < 30; ++it) {
    ctx.Bind("X", x);
    auto y = ctx.EvalVector(
                    "tiled(n)[ (i, +/c) | ((i,k),m) <- A, (kk,v) <- X,"
                    " kk == k, let c = m*v, group by i ]")
                 .value();
    auto ly = ctx.ToLocal(y).value();
    double norm = std::sqrt(
        std::inner_product(ly.begin(), ly.end(), ly.begin(), 0.0));
    ASSERT_GT(norm, 0);
    prev_lambda = lambda;
    lambda = norm;
    for (auto& v : ly) v /= norm;
    x = storage::VectorFromLocal(&ctx.engine(), ly, blk).value();
  }
  // Converged: successive eigenvalue estimates agree.
  EXPECT_NEAR(lambda, prev_lambda, 1e-6 * lambda);
  // Rayleigh check against local arithmetic: ||A x|| ~ lambda.
  auto la_ = ctx.ToLocal(a).value();
  auto lx = ctx.ToLocal(x).value();
  std::vector<double> ax(n, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) ax[i] += la_.At(i, j) * lx[j];
  }
  const double ref = std::sqrt(
      std::inner_product(ax.begin(), ax.end(), ax.begin(), 0.0));
  EXPECT_NEAR(lambda, ref, 1e-6 * ref);
}

TEST(IntegrationTest, ChainedQueriesRebindIntermediates) {
  // D = (A + B)^T x A, three queries with rebinding between them.
  Sac ctx(runtime::ClusterConfig{2, 2, 4});
  const int64_t n = 24, blk = 8;
  auto a = ctx.RandomMatrix(n, n, blk, 61).value();
  auto b = ctx.RandomMatrix(n, n, blk, 62).value();
  auto sum = algo::Add(&ctx, a, b).value();
  auto sum_t = algo::Transpose(&ctx, sum).value();
  auto d = algo::Multiply(&ctx, sum_t, a).value();

  // Local oracle.
  auto la_ = ctx.ToLocal(a).value();
  auto lb = ctx.ToLocal(b).value();
  la::Tile s, st;
  la::Add(la_, lb, &s);
  la::Transpose(s, &st);
  la::Tile ref(n, n);
  la::GemmAccum(st, la_, &ref);
  auto ld = ctx.ToLocal(d).value();
  for (int64_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(ld.data()[i], ref.data()[i], 1e-8);
  }
}

TEST(IntegrationTest, SortednessCheckFromSection2) {
  // &&/[ v <= w | (i,v) <- V, (j,w) <- V, j == i+1 ] on a distributed
  // block vector (runs through the fallback; totality check).
  Sac ctx(runtime::ClusterConfig{2, 2, 4});
  std::vector<double> sorted(40);
  std::iota(sorted.begin(), sorted.end(), 0.0);
  ctx.Bind("V",
           storage::VectorFromLocal(&ctx.engine(), sorted, 8).value());
  auto r = ctx.Eval("&&/[ v <= w | (i,v) <- V, (j,w) <- V, j == i+1 ]");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().value.AsBool());

  std::swap(sorted[3], sorted[20]);
  ctx.Bind("V",
           storage::VectorFromLocal(&ctx.engine(), sorted, 8).value());
  auto r2 = ctx.Eval("&&/[ v <= w | (i,v) <- V, (j,w) <- V, j == i+1 ]");
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value().value.AsBool());
}

TEST(IntegrationTest, ParseErrorsSurfaceThroughApi) {
  Sac ctx;
  auto r = ctx.Eval("tiled(n)[ oops | ");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(IntegrationTest, WrongResultKindIsInvalidArgument) {
  Sac ctx;
  ctx.Bind("A", ctx.RandomMatrix(8, 8, 4, 71).value());
  ctx.BindScalar("n", int64_t{8});
  // A matrix query through EvalVector must fail cleanly.
  auto r = ctx.EvalVector("tiled(n,n)[ ((i,j),a) | ((i,j),a) <- A ]");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(IntegrationTest, AllMultiplyStrategiesAgree) {
  // GBJ, join+reduceByKey, coordinate format and the reference evaluator
  // must produce the same product.
  const int64_t n = 20, blk = 5;
  const std::string src =
      "tiled(n,n)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
      " kk == k, let v = a*b, group by (i,j) ]";
  std::vector<la::Tile> results;
  for (int mode = 0; mode < 3; ++mode) {
    planner::PlannerOptions opts;
    if (mode == 1) opts.enable_group_by_join = false;
    if (mode == 2) opts.force_coo = true;
    Sac ctx(runtime::ClusterConfig{2, 2, 4}, opts);
    ctx.Bind("A", ctx.RandomMatrix(n, n, blk, 81).value());
    ctx.Bind("B", ctx.RandomMatrix(n, n, blk, 82).value());
    ctx.BindScalar("n", n);
    auto r = ctx.EvalTiled(src);
    ASSERT_TRUE(r.ok()) << "mode " << mode << ": "
                        << r.status().ToString();
    results.push_back(ctx.ToLocal(r.value()).value());
  }
  for (size_t m = 1; m < results.size(); ++m) {
    for (int64_t i = 0; i < results[0].size(); ++i) {
      ASSERT_NEAR(results[0].data()[i], results[m].data()[i], 1e-8)
          << "strategy " << m;
    }
  }
}

TEST(IntegrationTest, ScalarBindingsParameterizeQueries) {
  Sac ctx;
  ctx.Bind("A", ctx.RandomMatrix(16, 16, 8, 91).value());
  ctx.BindScalar("n", int64_t{16});
  for (double alpha : {0.5, 2.0, -1.0}) {
    ctx.BindScalar("alpha", alpha);
    auto r = ctx.EvalTiled("tiled(n,n)[ ((i,j), alpha*a) | ((i,j),a) <- A ]");
    ASSERT_TRUE(r.ok());
    auto la_ = ctx.ToLocal(ctx.bindings().at("A").tiled).value();
    auto lr = ctx.ToLocal(r.value()).value();
    for (int64_t i = 0; i < lr.size(); ++i) {
      ASSERT_DOUBLE_EQ(lr.data()[i], alpha * la_.data()[i]);
    }
  }
}

TEST(IntegrationTest, DistributedResultsSurviveFaultInjection) {
  // Kill partitions of a computed result; lineage recovery must rebuild
  // the same tiles through the whole plan.
  Sac ctx(runtime::ClusterConfig{2, 2, 4});
  ctx.Bind("A", ctx.RandomMatrix(24, 24, 8, 95).value());
  ctx.Bind("B", ctx.RandomMatrix(24, 24, 8, 96).value());
  ctx.BindScalar("n", int64_t{24});
  auto c = ctx.EvalTiled(
                  "tiled(n,n)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
                  " kk == k, let v = a*b, group by (i,j) ]")
               .value();
  auto before = ctx.ToLocal(c).value();
  for (int p = 0; p < c.tiles->num_partitions(); p += 2) {
    c.tiles->InvalidatePartition(p);
  }
  auto after = ctx.ToLocal(c).value();
  EXPECT_TRUE(before == after);
  EXPECT_GT(ctx.metrics().Snapshot().tasks_recomputed, 0u);
}

}  // namespace
}  // namespace sac
