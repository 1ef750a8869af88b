// The repository benchmark (sacbench/README.md). One process runs one
// workload:
//
//   --trace 0  set-up kSetupRuns times (median reported), then a timed
//              phase of at least --seconds and kMinTimedQueries queries
//              with the engine tracer off; reports the end-to-end
//              metrics.
//   --trace 1  set-up once, a traced phase of at least kMinTracedQueries
//              queries between two untraced ones, then the layer probes;
//              reports the per-layer metrics and writes the Chrome trace
//              and the engine profile.
//
// Every client checks its first result and every kCheckEvery-th one,
// outside the latency window, against references computed here by plain
// dense loops (never by the library's kernels). The last stdout line is
// {"correct", "attempted", "failed", "metrics"}; a fuller record of the
// run lands in --out.
//
//   bench_suite --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   bench_suite --smoke [--out DIR] [--benchmark-json PATH]
//
// --smoke runs every workload at its real sizes for 3 timed queries and 1
// traced query plus the probes, and fails unless nothing failed and every
// metric the benchmark definition names was emitted.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/api/algorithms.h"
#include "src/api/sac.h"
#include "src/common/json.h"
#include "src/common/metrics.h"
#include "src/common/profile.h"
#include "src/common/serialize.h"
#include "src/common/trace.h"
#include "src/la/backend.h"
#include "src/net/frame.h"
#include "src/net/tcp.h"
#include "src/runtime/value.h"
#include "src/storage/tiled.h"

namespace sac::suite {
namespace {

using runtime::Value;
using storage::BlockVector;
using storage::TiledMatrix;

constexpr double kMiB = 1024.0 * 1024.0;
// 4 executors x 1 core: a 4-thread pool, and never more clients.
constexpr int kEngineCores = 4;
// Set-up is repeated and its median reported, so work moved into set-up
// shows without one slow start deciding the number.
constexpr int kSetupRuns = 5;
constexpr int kWarmupQueries = 3;
constexpr int kCheckEvery = 16;
// At least 10 samples lie beyond the reported p90.
constexpr int kMinTimedQueries = 100;
constexpr int kMinTracedQueries = 20;
// A partitioning change may legally reorder a sum, so results are checked
// normwise with room for rounding, never bit for bit.
constexpr double kRelTol = 1e-9;
// The engine keeps one StageStats per operator run until ResetStats. The
// untraced phases reset on this period so registry growth never reaches
// peak RSS (a faster engine would otherwise look fatter).
constexpr double kResetPeriodMs = 1000;
// Above this host steal the run's timings say more about the neighbours
// than about the engine (README.md, "Comparing two commits").
constexpr double kStealWarnPct = 5;
// Each of these silently changes the program being measured; SAC_TRACE
// would also trace the untraced phase.
constexpr const char* kForbiddenEnv[] = {
    "SAC_WORKERS",          "SAC_TRANSPORT",         "SAC_MEM_BUDGET",
    "SAC_SESSION_MEM_BUDGET", "SAC_KERNEL_BACKEND",  "SAC_AUTO_STRATEGY",
    "SAC_SHUFFLE_FAST_PATH", "SAC_MAX_CONCURRENT",   "SAC_FAULT_PLAN",
    "SAC_TRACE",            "SAC_SAMPLE_INTERVAL_US"};

// ---------------------------------------------------------------------------
// Inputs and references
// ---------------------------------------------------------------------------

/// splitmix64, owned by the suite so the inputs a seed produces never
/// change with the library.
class InputRng {
 public:
  InputRng(uint64_t seed, uint64_t stream)
      : s_(seed * 0x9E3779B97F4A7C15ULL ^
           (stream + 1) * 0xD1B54A32D192ED03ULL) {}

  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

 private:
  uint64_t s_;
};

la::Tile RandomDense(int64_t rows, int64_t cols, uint64_t seed,
                     uint64_t stream, double lo, double hi) {
  InputRng rng(seed, stream);
  la::Tile t(rows, cols);
  double* d = t.data();
  for (int64_t i = 0; i < rows * cols; ++i) d[i] = rng.Uniform(lo, hi);
  return t;
}

/// Rating matrix: each cell is nonzero with probability `density`, then an
/// integer in [1, hi].
la::Tile RandomRatings(int64_t n, uint64_t seed, uint64_t stream,
                       double density, int hi) {
  InputRng rng(seed, stream);
  la::Tile t(n, n);
  double* d = t.data();
  for (int64_t i = 0; i < n * n; ++i) {
    if (rng.Uniform(0, 1) < density) {
      d[i] = 1.0 + static_cast<double>(rng.Next() % static_cast<uint64_t>(hi));
    }
  }
  return t;
}

std::vector<double> RandomVec(int64_t n, uint64_t seed, uint64_t stream) {
  InputRng rng(seed, stream);
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) x = rng.Uniform(0, 1);
  return v;
}

std::vector<double> DenseMatVec(const la::Tile& a,
                                const std::vector<double>& x) {
  std::vector<double> y(static_cast<size_t>(a.rows()), 0.0);
  for (int64_t i = 0; i < a.rows(); ++i) {
    const double* row = a.data() + i * a.cols();
    double s = 0;
    for (int64_t j = 0; j < a.cols(); ++j) s += row[j] * x[j];
    y[i] = s;
  }
  return y;
}

/// Normwise check: max |got - want| <= kRelTol * max |want|.
Status ExpectClose(const std::string& what, const double* got,
                   const double* want, size_t n) {
  double err = 0, scale = 0;
  for (size_t i = 0; i < n; ++i) {
    const double d = std::fabs(got[i] - want[i]);
    if (!(d <= err)) err = d;  // keeps a NaN
    scale = std::max(scale, std::fabs(want[i]));
  }
  if (!(err <= kRelTol * scale)) {
    std::ostringstream os;
    os << what << ": max abs error " << err << " exceeds " << kRelTol
       << " x " << scale;
    return Status::RuntimeError(os.str());
  }
  return Status::OK();
}

Status ExpectClose(const std::string& what, const std::vector<double>& got,
                   const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return Status::RuntimeError(what + ": length " +
                                std::to_string(got.size()) + ", want " +
                                std::to_string(want.size()));
  }
  return ExpectClose(what, got.data(), want.data(), want.size());
}

Status ExpectClose(const std::string& what, const la::Tile& got,
                   const la::Tile& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return Status::RuntimeError(what + ": shape mismatch");
  }
  return ExpectClose(what, got.data(), want.data(),
                     static_cast<size_t>(want.size()));
}

runtime::ClusterConfig Cluster(const std::string& spill_dir) {
  runtime::ClusterConfig c;
  c.num_executors = kEngineCores;
  c.cores_per_executor = 1;
  c.default_parallelism = 8;
  c.spill_dir = spill_dir;
  c.checkpoint_dir = spill_dir;
  return c;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// A comprehension a workload's queries compile, with what it reads.
struct CompileCase {
  std::string src;
  std::function<void(Sac&)> bind;
};

/// One benchmark workload. Each client is a closed-loop caller on its own
/// thread and touches only its own slot.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual int clients() const { return 1; }
  virtual int warmup_queries() const { return kWarmupQueries; }
  /// Tile side of the workload's matrices (probe shapes).
  virtual int64_t tile() const = 0;
  /// Builds the local inputs from the seed (part of set-up).
  virtual void Generate(uint64_t seed) = 0;
  /// References by plain dense loops (not part of set-up).
  virtual void ComputeReference() = 0;
  /// Constructs the engine and loads the inputs (part of set-up).
  virtual Status Start(const std::string& spill_dir) = 0;
  /// Destroys the engine and every dataset the workload holds.
  virtual void Stop() = 0;
  /// Runs `client`'s `seq`-th query; when `keep`, holds its result for
  /// Check.
  virtual Status Query(int client, int64_t seq, bool keep) = 0;
  /// Checks and releases the result Query kept for `client`.
  virtual Status Check(int client) = 0;
  virtual Sac& sac() = 0;
  /// Every distinct comprehension a query compiles (compile probe).
  virtual std::vector<CompileCase> CompileCases() = 0;
};

constexpr const char* kMatmul =
    "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]";

/// C = A*B through the pinned SUMMA group-by-join plan, inputs bound once.
/// Checked by Freivalds: C*r against A*(B*r) for three seeded r.
class MultiplyWorkload : public Workload {
 public:
  MultiplyWorkload(int64_t n, int64_t block, std::string workers)
      : n_(n), block_(block), workers_(std::move(workers)) {}

  int64_t tile() const override { return block_; }

  void Generate(uint64_t seed) override {
    seed_ = seed;
    a_ = RandomDense(n_, n_, seed, 1, 0.0, 10.0);
    b_ = RandomDense(n_, n_, seed, 2, 0.0, 10.0);
  }

  void ComputeReference() override {
    for (int k = 0; k < 3; ++k) {
      r_[k] = RandomVec(n_, seed_, 10 + k);
      abr_[k] = DenseMatVec(a_, DenseMatVec(b_, r_[k]));
    }
  }

  Status Start(const std::string& spill_dir) override {
    runtime::ClusterConfig cfg = Cluster(spill_dir);
    if (!workers_.empty()) {
      cfg.workers = workers_;
      cfg.transport = "tcp";
      // No heartbeat: its pings would smear wire bytes over the exact
      // per-query dist counters.
      cfg.heartbeat_interval_ms = 0;
    }
    planner::PlannerOptions opts;
    opts.auto_strategy = false;
    sac_ = std::make_unique<Sac>(cfg, opts);
    sac_->tracer().set_enabled(false);
    SAC_ASSIGN_OR_RETURN(TiledMatrix a, sac_->MatrixFromLocal(a_, block_));
    SAC_ASSIGN_OR_RETURN(TiledMatrix b, sac_->MatrixFromLocal(b_, block_));
    sac_->Bind("A", std::move(a));
    sac_->Bind("B", std::move(b));
    sac_->BindScalar("n", n_);
    return Status::OK();
  }

  void Stop() override {
    kept_ = TiledMatrix();
    sac_.reset();
  }

  Status Query(int, int64_t, bool keep) override {
    SAC_ASSIGN_OR_RETURN(TiledMatrix c, sac_->EvalTiled(kMatmul));
    if (keep) kept_ = std::move(c);
    return Status::OK();
  }

  Status Check(int) override {
    const TiledMatrix c = std::exchange(kept_, TiledMatrix());
    SAC_ASSIGN_OR_RETURN(la::Tile local, sac_->ToLocal(c));
    for (int k = 0; k < 3; ++k) {
      SAC_RETURN_NOT_OK(ExpectClose("C*r vs A*(B*r)",
                                    DenseMatVec(local, r_[k]), abr_[k]));
    }
    return Status::OK();
  }

  Sac& sac() override { return *sac_; }

  std::vector<CompileCase> CompileCases() override {
    return {{kMatmul, [](Sac&) {}}};
  }

 private:
  const int64_t n_;
  const int64_t block_;
  const std::string workers_;
  uint64_t seed_ = 0;
  la::Tile a_, b_;
  std::vector<double> r_[3], abr_[3];
  std::unique_ptr<Sac> sac_;
  TiledMatrix kept_;
};

/// One gradient-descent step of matrix factorization (algo::
/// FactorizationStep) from a fixed (P0, Q0); the reference is the same
/// step by dense loops.
class FactorizeWorkload : public Workload {
 public:
  // Five of a step's six plans are fresh each step, and a cached plan
  // holds the datasets it was compiled against, so each early step pins
  // more memory until the plan cache is full: warm up past that.
  int warmup_queries() const override {
    return static_cast<int>(planner::PlanCache::kDefaultCapacity / 5 + 3);
  }
  int64_t tile() const override { return kBlock; }

  void Generate(uint64_t seed) override {
    r_ = RandomRatings(kN, seed, 1, 0.1, 5);
    p_ = RandomDense(kN, kK, seed, 2, 0.0, 1.0);
    q_ = RandomDense(kN, kK, seed, 3, 0.0, 1.0);
  }

  void ComputeReference() override {
    // E = R - P Q^T
    la::Tile e(kN, kN);
    for (int64_t i = 0; i < kN; ++i) {
      const double* pi = p_.data() + i * kK;
      for (int64_t j = 0; j < kN; ++j) {
        const double* qj = q_.data() + j * kK;
        double s = 0;
        for (int64_t l = 0; l < kK; ++l) s += pi[l] * qj[l];
        e.Set(i, j, r_.At(i, j) - s);
      }
    }
    // P' = gl P + tg (E Q);  Q' = gl Q + tg (E^T P)
    la::Tile eq(kN, kK), etp(kN, kK);
    for (int64_t i = 0; i < kN; ++i) {
      for (int64_t j = 0; j < kN; ++j) {
        const double eij = e.At(i, j);
        double* eq_i = eq.data() + i * kK;
        double* etp_j = etp.data() + j * kK;
        const double* qj = q_.data() + j * kK;
        const double* pi = p_.data() + i * kK;
        for (int64_t l = 0; l < kK; ++l) {
          eq_i[l] += eij * qj[l];
          etp_j[l] += eij * pi[l];
        }
      }
    }
    const double gl = 1.0 - kGamma * kLambda, tg = 2.0 * kGamma;
    ref_p_ = la::Tile(kN, kK);
    ref_q_ = la::Tile(kN, kK);
    for (int64_t x = 0; x < kN * kK; ++x) {
      ref_p_.data()[x] = gl * p_.data()[x] + tg * eq.data()[x];
      ref_q_.data()[x] = gl * q_.data()[x] + tg * etp.data()[x];
    }
  }

  Status Start(const std::string& spill_dir) override {
    planner::PlannerOptions opts;
    opts.auto_strategy = false;
    sac_ = std::make_unique<Sac>(Cluster(spill_dir), opts);
    sac_->tracer().set_enabled(false);
    SAC_ASSIGN_OR_RETURN(r_ds_, sac_->MatrixFromLocal(r_, kBlock));
    SAC_ASSIGN_OR_RETURN(state_.p, sac_->MatrixFromLocal(p_, kBlock));
    SAC_ASSIGN_OR_RETURN(state_.q, sac_->MatrixFromLocal(q_, kBlock));
    return Status::OK();
  }

  void Stop() override {
    kept_ = algo::Factorization();
    state_ = algo::Factorization();
    r_ds_ = TiledMatrix();
    sac_.reset();
  }

  Status Query(int, int64_t, bool keep) override {
    SAC_ASSIGN_OR_RETURN(
        algo::Factorization next,
        algo::FactorizationStep(sac_.get(), r_ds_, state_, kGamma, kLambda));
    if (keep) kept_ = std::move(next);
    return Status::OK();
  }

  Status Check(int) override {
    const algo::Factorization f =
        std::exchange(kept_, algo::Factorization());
    SAC_ASSIGN_OR_RETURN(la::Tile p, sac_->ToLocal(f.p));
    SAC_ASSIGN_OR_RETURN(la::Tile q, sac_->ToLocal(f.q));
    SAC_RETURN_NOT_OK(ExpectClose("P'", p, ref_p_));
    return ExpectClose("Q'", q, ref_q_);
  }

  Sac& sac() override { return *sac_; }

  /// The six comprehensions of algo::FactorizationStep, bound to
  /// stand-ins of the shapes the step binds.
  std::vector<CompileCase> CompileCases() override {
    const TiledMatrix r = r_ds_, p = state_.p, q = state_.q;
    auto mul = [=](const TiledMatrix& a, const TiledMatrix& b, int64_t m,
                   int64_t k) {
      return [=](Sac& s) {
        s.Bind("__a", a);
        s.Bind("__b", b);
        s.BindScalar("__n", m);
        s.BindScalar("__m", k);
      };
    };
    auto update = [=](Sac& s) {
      s.Bind("__p", p);
      s.Bind("__q", q);
      s.Bind("__eq", p);
      s.Bind("__etp", q);
      s.BindScalar("__n", kN);
      s.BindScalar("__m", kN);
      s.BindScalar("__k", kK);
      s.BindScalar("__gl", 1.0 - kGamma * kLambda);
      s.BindScalar("__tg", 2.0 * kGamma);
    };
    return {
        {"tiled(__n,__m)[ ((i,j),+/v) | ((i,k),x) <- __a, ((j,kk),y) <- "
         "__b, kk == k, let v = x*y, group by (i,j) ]",
         mul(p, q, kN, kN)},
        {"tiled(__n,__m)[ ((i,j),x-y) | ((i,j),x) <- __a, ((ii,jj),y) <- "
         "__b, ii == i, jj == j ]",
         mul(r, r, kN, kN)},
        {"tiled(__n,__m)[ ((i,j),+/v) | ((i,k),x) <- __a, ((kk,j),y) <- "
         "__b, kk == k, let v = x*y, group by (i,j) ]",
         mul(r, q, kN, kK)},
        {"tiled(__n,__k)[ ((i,j), __gl*p + __tg*g) | ((i,j),p) <- __p, "
         "((ii,jj),g) <- __eq, ii == i, jj == j ]",
         update},
        {"tiled(__n,__m)[ ((i,j),+/v) | ((k,i),x) <- __a, ((kk,j),y) <- "
         "__b, kk == k, let v = x*y, group by (i,j) ]",
         mul(r, p, kN, kK)},
        {"tiled(__m,__k)[ ((i,j), __gl*q + __tg*g) | ((i,j),q) <- __q, "
         "((ii,jj),g) <- __etp, ii == i, jj == j ]",
         update},
    };
  }

 private:
  static constexpr int64_t kN = 1024;
  static constexpr int64_t kK = 128;
  static constexpr int64_t kBlock = 128;
  static constexpr double kGamma = 0.002;
  static constexpr double kLambda = 0.02;

  la::Tile r_, p_, q_, ref_p_, ref_q_;
  std::unique_ptr<Sac> sac_;
  TiledMatrix r_ds_;
  algo::Factorization state_, kept_;
};

/// The service mix, one op per query, each client cycling from its own
/// offset so every op is in flight at any moment.
constexpr const char* kServiceOps[] = {
    // MatVec
    "tiled(n)[ (i, +/c) | ((i,k),m) <- A, (kk,v) <- X, kk == k,"
    " let c = m*v, group by i ]",
    // RowSums
    "tiled(n)[ (i, +/x) | ((i,j),x) <- A, group by i ]",
    // Add
    "tiled(n,n)[ ((i,j),x+y) | ((i,j),x) <- A, ((ii,jj),y) <- B,"
    " ii == i, jj == j ]",
    // Transpose
    "tiled(n,n)[ ((j,i),x) | ((i,j),x) <- A ]",
    // FrobeniusSquared
    "+/[ x*x | ((i,j),x) <- A ]",
};
constexpr int kServiceOpCount = 5;

/// Four sessions on one Sac under a 128 MiB block-store budget, twice the
/// bound inputs, so results written push out inputs the next query reads.
class ServiceWorkload : public Workload {
 public:
  int clients() const override { return kClients; }
  // Every client compiles every op before timing starts.
  int warmup_queries() const override {
    return std::max(kWarmupQueries, kServiceOpCount);
  }
  int64_t tile() const override { return kBlock; }

  void Generate(uint64_t seed) override {
    for (int c = 0; c < kClients; ++c) {
      Client& cl = clients_[c];
      cl.a = RandomDense(kN, kN, seed, 10 * c + 1, 0.0, 1.0);
      cl.b = RandomDense(kN, kN, seed, 10 * c + 2, 0.0, 1.0);
      cl.x = RandomVec(kN, seed, 10 * c + 3);
    }
  }

  void ComputeReference() override {
    for (Client& cl : clients_) {
      cl.ax = DenseMatVec(cl.a, cl.x);
      cl.rowsums = DenseMatVec(cl.a, std::vector<double>(kN, 1.0));
      cl.frob = 0;
      for (int64_t i = 0; i < kN * kN; ++i) {
        cl.frob += cl.a.data()[i] * cl.a.data()[i];
      }
    }
  }

  Status Start(const std::string& spill_dir) override {
    runtime::ClusterConfig cfg = Cluster(spill_dir);
    cfg.memory_budget_bytes = 128ull << 20;
    sac_ = std::make_unique<Sac>(cfg);
    sac_->tracer().set_enabled(false);
    for (int c = 0; c < kClients; ++c) {
      Client& cl = clients_[c];
      cl.session = sac_->OpenSession("client-" + std::to_string(c));
      SAC_ASSIGN_OR_RETURN(cl.a_ds, cl.session->MatrixFromLocal(cl.a, kBlock));
      SAC_ASSIGN_OR_RETURN(cl.b_ds, cl.session->MatrixFromLocal(cl.b, kBlock));
      {
        runtime::Session::Scope scope(cl.session->state());
        SAC_ASSIGN_OR_RETURN(
            cl.x_ds, storage::VectorFromLocal(&sac_->engine(), cl.x, kBlock));
      }
      cl.session->Bind("A", cl.a_ds);
      cl.session->Bind("B", cl.b_ds);
      cl.session->Bind("X", cl.x_ds);
      cl.session->BindScalar("n", kN);
    }
    return Status::OK();
  }

  void Stop() override {
    for (Client& cl : clients_) {
      cl.kept = Kept();
      cl.a_ds = TiledMatrix();
      cl.b_ds = TiledMatrix();
      cl.x_ds = BlockVector();
      cl.session.reset();
    }
    sac_.reset();
  }

  Status Query(int client, int64_t seq, bool keep) override {
    Client& cl = clients_[client];
    Kept k;
    k.op = static_cast<int>((client + seq) % kServiceOpCount);
    const char* src = kServiceOps[k.op];
    if (k.op <= 1) {
      SAC_ASSIGN_OR_RETURN(k.v, cl.session->EvalVector(src));
    } else if (k.op <= 3) {
      SAC_ASSIGN_OR_RETURN(k.m, cl.session->EvalTiled(src));
    } else {
      SAC_ASSIGN_OR_RETURN(k.s, cl.session->EvalScalar(src));
    }
    if (keep) cl.kept = std::move(k);
    return Status::OK();
  }

  Status Check(int client) override {
    Client& cl = clients_[client];
    const Kept k = std::exchange(cl.kept, Kept());
    switch (k.op) {
      case 0:
      case 1: {
        SAC_ASSIGN_OR_RETURN(std::vector<double> got, cl.session->ToLocal(k.v));
        return ExpectClose(k.op == 0 ? "A*x" : "rowsums(A)", got,
                           k.op == 0 ? cl.ax : cl.rowsums);
      }
      case 2:
      case 3: {
        SAC_ASSIGN_OR_RETURN(la::Tile got, cl.session->ToLocal(k.m));
        la::Tile want(kN, kN);
        for (int64_t i = 0; i < kN; ++i) {
          for (int64_t j = 0; j < kN; ++j) {
            if (k.op == 2) {
              want.Set(i, j, cl.a.At(i, j) + cl.b.At(i, j));
            } else {
              want.Set(j, i, cl.a.At(i, j));
            }
          }
        }
        return ExpectClose(k.op == 2 ? "A+B" : "A^T", got, want);
      }
      case 4:
        return ExpectClose("|A|^2", &k.s, &cl.frob, 1);
      default:
        return Status::RuntimeError("no kept result to check");
    }
  }

  Sac& sac() override { return *sac_; }

  std::vector<CompileCase> CompileCases() override {
    const Client& cl = clients_[0];
    auto bind = [a = cl.a_ds, b = cl.b_ds, x = cl.x_ds](Sac& s) {
      s.Bind("A", a);
      s.Bind("B", b);
      s.Bind("X", x);
      s.BindScalar("n", kN);
    };
    std::vector<CompileCase> cases;
    for (const char* src : kServiceOps) cases.push_back({src, bind});
    return cases;
  }

 private:
  static constexpr int kClients = kEngineCores;
  static constexpr int64_t kN = 1024;
  static constexpr int64_t kBlock = 256;

  struct Kept {
    int op = -1;
    TiledMatrix m;
    BlockVector v;
    double s = 0;
  };
  struct Client {
    la::Tile a, b;
    std::vector<double> x, ax, rowsums;
    double frob = 0;
    std::unique_ptr<Session> session;
    TiledMatrix a_ds, b_ds;
    BlockVector x_ds;
    Kept kept;
  };

  std::unique_ptr<Sac> sac_;
  Client clients_[kClients];
};

const char* const kWorkloads[] = {"multiply", "factorize", "multiply_wire",
                                  "service"};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "multiply") {
    return std::make_unique<MultiplyWorkload>(1024, 128, "");
  }
  if (name == "factorize") return std::make_unique<FactorizeWorkload>();
  if (name == "multiply_wire") {
    return std::make_unique<MultiplyWorkload>(512, 64, "3");
  }
  if (name == "service") return std::make_unique<ServiceWorkload>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

/// Lets an untraced phase call Sac::ResetStats, which must not overlap a
/// query: once per kResetPeriodMs the clients park between queries and
/// the last one to park resets.
class StatsResetter {
 public:
  StatsResetter(Sac* sac, int clients) : sac_(sac), active_(clients) {}

  StatsResetter(const StatsResetter&) = delete;
  StatsResetter& operator=(const StatsResetter&) = delete;

  void BetweenQueries() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!due_ && since_.ElapsedMillis() < kResetPeriodMs) return;
    due_ = true;
    if (++parked_ == active_) {
      ResetLocked();
      return;
    }
    const uint64_t gen = gen_;
    cv_.wait(lock, [&] { return gen_ != gen; });
  }

  /// The calling client runs no more queries.
  void Leave() {
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
    if (due_ && parked_ > 0 && parked_ == active_) ResetLocked();
  }

 private:
  void ResetLocked() {
    sac_->ResetStats();
    due_ = false;
    parked_ = 0;
    ++gen_;
    since_.Restart();
    cv_.notify_all();
  }

  Sac* const sac_;
  std::mutex mu_;
  std::condition_variable cv_;
  int active_;  // guarded by mu_, as are the fields below
  int parked_ = 0;
  bool due_ = false;
  uint64_t gen_ = 0;
  Stopwatch since_;
};

struct PhaseOptions {
  double seconds = 0;    // run at least this long
  int min_queries = 1;   // and at least this many queries per client
  bool check = true;     // check the first and every kCheckEvery-th result
  bool reset_stats = false;
  // Traced phase: the suite's own spans go here, and each query records
  // the stage ids its run created.
  trace::Tracer* spans = nullptr;
};

struct ClientLog {
  std::vector<double> latency_ms;  // successful queries only
  std::vector<std::pair<size_t, size_t>> stage_windows;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
};

struct Phase {
  std::vector<ClientLog> clients;
  double wall_ms = 0;

  int64_t attempted() const {
    int64_t n = 0;
    for (const ClientLog& c : clients) n += c.attempted;
    return n;
  }
  int64_t failed() const {
    int64_t n = 0;
    for (const ClientLog& c : clients) n += c.failed;
    return n;
  }
  std::vector<double> latencies() const {
    std::vector<double> all;
    for (const ClientLog& c : clients) {
      all.insert(all.end(), c.latency_ms.begin(), c.latency_ms.end());
    }
    return all;
  }
  /// Sum over clients of queries per second of time spent waiting on
  /// queries; checks and stats resets between queries are not counted.
  double throughput_qps() const {
    double qps = 0;
    for (const ClientLog& c : clients) {
      double busy_ms = 0;
      for (double ms : c.latency_ms) busy_ms += ms;
      if (busy_ms > 0) qps += c.latency_ms.size() * 1000.0 / busy_ms;
    }
    return qps;
  }
};

Phase RunPhase(Workload& w, const PhaseOptions& o) {
  Phase ph;
  ph.clients.resize(static_cast<size_t>(w.clients()));
  std::optional<StatsResetter> resetter;
  if (o.reset_stats) resetter.emplace(&w.sac(), w.clients());
  const Stopwatch wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients(); ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = ph.clients[c];
      auto fail = [&](int64_t seq, const char* what, const Status& st) {
        ++log.failed;
        if (log.errors.size() < 8) {
          log.errors.push_back("client " + std::to_string(c) + " query " +
                               std::to_string(seq) + " " + what + ": " +
                               st.ToString());
        }
      };
      for (int64_t seq = 0;
           seq < o.min_queries || wall.ElapsedMillis() < o.seconds * 1000;
           ++seq) {
        const bool check = o.check && seq % kCheckEvery == 0;
        const size_t first_stage = o.spans ? w.sac().stages().size() : 0;
        Status st;
        const Stopwatch sw;
        {
          trace::ScopedSpan span(o.spans, "bench:query", "bench");
          st = w.Query(c, seq, check);
        }
        const double ms = sw.ElapsedMillis();
        ++log.attempted;
        if (!st.ok()) {
          fail(seq, "failed", st);
        } else {
          log.latency_ms.push_back(ms);
          if (o.spans) {
            log.stage_windows.emplace_back(first_stage,
                                           w.sac().stages().size());
          }
          if (check) {
            trace::ScopedSpan span(o.spans, "bench:verify", "bench");
            const Status checked = w.Check(c);
            if (!checked.ok()) fail(seq, "check", checked);
          }
        }
        if (resetter) resetter->BetweenQueries();
      }
      if (resetter) resetter->Leave();
    });
  }
  for (std::thread& t : threads) t.join();
  ph.wall_ms = wall.ElapsedMillis();
  return ph;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// Share of CPU time the hypervisor gave to someone else ("steal" in
/// /proc/stat) between two samples; 0 where /proc/stat is unreadable.
struct CpuJiffies {
  double steal = 0;
  double total = 0;
};

CpuJiffies ReadCpuJiffies() {
  std::ifstream f("/proc/stat");
  std::string label;
  f >> label;  // "cpu": user nice system idle iowait irq softirq steal
  CpuJiffies j;
  for (int i = 0; i < 8; ++i) {
    double v = 0;
    if (!(f >> v)) return CpuJiffies();
    j.total += v;
    if (i == 7) j.steal = v;
  }
  return j;
}

double StealPct(const CpuJiffies& from, const CpuJiffies& to) {
  return Ratio(to.steal - from.steal, to.total - from.total) * 100.0;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Engine counters by their canonical names (MetricsSnapshot::
/// ForEachCounter), so the suite does not depend on the snapshot layout.
std::map<std::string, double> CountersByName(const MetricsSnapshot& s) {
  std::map<std::string, double> out;
  s.ForEachCounter([&](const char* name, uint64_t v) {
    out[name] = static_cast<double>(v);
  });
  return out;
}

/// Median duration in ms of one call of `fn`, over at least 5 calls and
/// 100 ms of calls.
template <typename Fn>
double MedianCallMs(Fn&& fn) {
  std::vector<double> ms;
  const Stopwatch total;
  while (ms.size() < 5 || total.ElapsedMillis() < 100) {
    const Stopwatch sw;
    fn();
    ms.push_back(sw.ElapsedMillis());
  }
  return Percentile(std::move(ms), 0.5);
}

/// Probe results: each times calls into one layer's public functions on
/// the workload's own shapes, one thread, engine idle.
struct Probes {
  double serialize_gbps = 0;
  double parse_ms = 0;
  double compile_ms = 0;
  double gemm_gflops = 0;
  double add_gbps = 0;
  double crc_mibps = 0;
  double encode_mibps = 0;
  double decode_mibps = 0;
  double tcp_rpc_us = 0;
};

// Results of probed calls land here so the optimizer keeps the calls.
volatile uint64_t g_sink = 0;

Status RunProbes(Workload& w, trace::Tracer* spans, Probes* out) {
  const int64_t t = w.tile();
  {
    trace::ScopedSpan span(spans, "bench:probe:runtime", "bench");
    const Value rec = runtime::VPair(
        runtime::VIdx2(0, 0),
        Value::TileVal(RandomDense(t, t, 7, 100, 0.0, 1.0)));
    std::vector<uint8_t> buf;
    bool ok = true;
    const double ms = MedianCallMs([&] {
      ByteWriter wr(&buf);
      rec.Serialize(&wr);
      ByteReader rd(buf);
      ok = ok && Value::Deserialize(&rd).ok();
    });
    if (!ok) return Status::RuntimeError("serialize probe: round trip failed");
    out->serialize_gbps = Ratio(static_cast<double>(rec.SerializedSize()),
                                ms * 1e6);
  }
  {
    Sac& s = w.sac();
    std::vector<std::string> bound;
    for (const auto& [name, b] : s.bindings()) bound.push_back(name);
    std::vector<double> parse, compile;
    Status failed;
    for (const CompileCase& cc : w.CompileCases()) {
      cc.bind(s);
      {
        trace::ScopedSpan span(spans, "bench:probe:comp", "bench");
        parse.push_back(MedianCallMs([&] {
          auto r = s.ParseAndNormalize(cc.src);
          if (!r.ok() && failed.ok()) failed = r.status();
        }));
      }
      trace::ScopedSpan span(spans, "bench:probe:planner", "bench");
      compile.push_back(MedianCallMs([&] {
        auto r = s.Compile(cc.src);
        if (!r.ok() && failed.ok()) failed = r.status();
      }));
    }
    std::vector<std::string> added;
    for (const auto& [name, b] : s.bindings()) {
      if (std::find(bound.begin(), bound.end(), name) == bound.end()) {
        added.push_back(name);
      }
    }
    for (const std::string& name : added) s.Unbind(name);
    SAC_RETURN_NOT_OK(failed.WithContext("compile probe"));
    for (double v : parse) out->parse_ms += v / parse.size();
    for (double v : compile) out->compile_ms += v / compile.size();
  }
  {
    trace::ScopedSpan span(spans, "bench:probe:la", "bench");
    const la::KernelBackend* packed = la::GetBackend(la::BackendKind::kPacked);
    const la::Tile a = RandomDense(t, t, 7, 101, 0.0, 1.0);
    const la::Tile b = RandomDense(t, t, 7, 102, 0.0, 1.0);
    la::Tile c(t, t);
    const double gemm_ms = MedianCallMs([&] { packed->GemmAccum(a, b, &c); });
    out->gemm_gflops = Ratio(2.0 * t * t * t, gemm_ms * 1e6);
    g_sink = g_sink + static_cast<uint64_t>(c.At(0, 0));
    constexpr int64_t kAddSide = 256;
    const la::Tile x = RandomDense(kAddSide, kAddSide, 7, 103, 0.0, 1.0);
    const la::Tile y = RandomDense(kAddSide, kAddSide, 7, 104, 0.0, 1.0);
    la::Tile z(kAddSide, kAddSide);
    const double add_ms = MedianCallMs([&] { packed->Add(x, y, &z); });
    out->add_gbps = Ratio(3.0 * kAddSide * kAddSide * sizeof(double),
                          add_ms * 1e6);
    g_sink = g_sink + static_cast<uint64_t>(z.At(1, 1));
  }
  {
    trace::ScopedSpan span(spans, "bench:probe:net", "bench");
    net::Frame frame;
    frame.type = 1;
    frame.payload.resize(1 << 20);
    InputRng rng(7, 105);
    for (uint8_t& byte : frame.payload) byte = static_cast<uint8_t>(rng.Next());
    const double mib = frame.payload.size() / kMiB;
    const double crc_ms = MedianCallMs([&] {
      g_sink = g_sink + net::Crc32(frame.payload.data(), frame.payload.size());
    });
    std::vector<uint8_t> wire;
    const double enc_ms = MedianCallMs([&] {
      wire.clear();
      net::EncodeFrame(frame, &wire);
    });
    bool decoded = true;
    const double dec_ms = MedianCallMs(
        [&] { decoded = decoded && net::DecodeFrame(wire).ok(); });
    if (!decoded) return Status::RuntimeError("frame probe: decode failed");
    out->crc_mibps = Ratio(mib, crc_ms / 1000);
    out->encode_mibps = Ratio(mib, enc_ms / 1000);
    out->decode_mibps = Ratio(mib, dec_ms / 1000);

    net::TcpServer server([](const net::Frame& req) { return req; });
    SAC_RETURN_NOT_OK(server.Start(0));
    net::TcpTransport transport({"127.0.0.1:" + std::to_string(server.port())});
    net::Frame req;
    req.type = 2;
    req.payload.assign(64 << 10, 0x5a);
    Status rpc;
    const double rpc_ms = MedianCallMs([&] {
      auto r = transport.Call(0, req);
      if (!r.ok() && rpc.ok()) rpc = r.status();
    });
    SAC_RETURN_NOT_OK(rpc.WithContext("tcp probe"));
    out->tcp_rpc_us = rpc_ms * 1000;
  }
  return Status::OK();
}

/// The per-layer metrics of a traced run (README.md, "Per-layer
/// metrics"). Per-query values divide by the traced queries.
MetricList LayerMetrics(double untraced_p50, const Phase& traced,
                        const std::map<std::string, double>& c,
                        const std::vector<StageStatsSnapshot>& stages,
                        const profile::Profile& prof, const Probes& pr) {
  const std::vector<double> latencies = traced.latencies();
  const double q = static_cast<double>(std::max<size_t>(1, latencies.size()));
  auto ctr = [&](const char* name) {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  double flops = 0;
  for (const auto& [name, v] : c) {
    if (name.rfind("flops_", 0) == 0) flops += v;
  }

  double shuffle_ms = 0, compute_ms = 0, task_ms = 0, stage_ms = 0;
  for (const StageStatsSnapshot& s : stages) {
    if (s.kind == "shuffle" || s.kind == "coshuffle") shuffle_ms += s.wall_ms;
    if (s.kind == "narrow") compute_ms += s.wall_ms;
    task_ms += static_cast<double>(s.task_us.sum) / 1000.0;
    stage_ms += s.wall_ms;
  }
  // Skew of each query's longest stage: its longest task over its mean.
  std::vector<double> skews;
  for (const ClientLog& log : traced.clients) {
    for (const auto& [lo, hi] : log.stage_windows) {
      const StageStatsSnapshot* longest = nullptr;
      for (size_t i = lo; i < std::min(hi, stages.size()); ++i) {
        const StageStatsSnapshot& s = stages[i];
        if (s.task_us.count == 0) continue;
        if (longest == nullptr || s.wall_ms > longest->wall_ms) longest = &s;
      }
      if (longest != nullptr) {
        skews.push_back(Ratio(static_cast<double>(longest->task_us.max),
                              longest->task_us.Mean()));
      }
    }
  }
  const auto [fewest, most] = std::minmax_element(
      traced.clients.begin(), traced.clients.end(),
      [](const ClientLog& a, const ClientLog& b) {
        return a.latency_ms.size() < b.latency_ms.size();
      });

  double compile_us = 0;
  std::map<std::string, double> phase_us;
  for (const profile::StageProfile& s : prof.stages) {
    if (s.category == "compile") compile_us += static_cast<double>(s.total_us);
    for (const profile::PhaseProfile& p : s.phases) {
      phase_us[p.phase] += static_cast<double>(p.busy_us);
    }
  }

  double query_ms = 0;
  for (double ms : latencies) query_ms += ms;
  const double routed = ctr("shuffle_bytes") + ctr("local_shuffle_bytes");
  return {
      {"runtime.task_skew", Percentile(skews, 0.5), "ratio"},
      {"runtime.parallelism", Ratio(task_ms, stage_ms), "ratio"},
      {"runtime.shuffle_stage_ms", shuffle_ms / q, "ms"},
      {"runtime.compute_stage_ms", compute_ms / q, "ms"},
      {"runtime.stages_per_query", stages.size() / q, "count"},
      {"runtime.tasks_per_query", ctr("tasks_run") / q, "count"},
      {"runtime.shuffle_mb_per_query", ctr("shuffle_bytes") / kMiB / q,
       "MiB"},
      {"runtime.cross_executor_ratio",
       Ratio(ctr("cross_executor_bytes"), routed), "ratio"},
      {"runtime.serialize_gbps", pr.serialize_gbps, "GB/s"},
      {"comp.parse_normalize_ms", pr.parse_ms, "ms"},
      {"planner.compile_ms", pr.compile_ms, "ms"},
      {"planner.plan_cache_hit_ratio",
       Ratio(ctr("plan_cache_hits"),
             ctr("plan_cache_hits") + ctr("plan_cache_misses")),
       "ratio"},
      {"la.gemm_gflops", pr.gemm_gflops, "GFLOP/s"},
      {"la.add_gbps", pr.add_gbps, "GB/s"},
      {"la.flops_per_query", flops / q, "flop"},
      {"la.achieved_gflops", Ratio(flops / q, compute_ms / q * 1e6),
       "GFLOP/s"},
      {"la.tile_allocs_per_query", ctr("tile_allocs") / q, "count"},
      {"memory.evictions_per_query", ctr("evictions") / q, "count"},
      {"memory.evicted_mb_per_query", ctr("bytes_evicted") / kMiB / q, "MiB"},
      {"memory.reloaded_mb_per_query", ctr("bytes_reloaded") / kMiB / q,
       "MiB"},
      {"memory.reload_ratio",
       Ratio(ctr("bytes_reloaded"), ctr("bytes_evicted")), "ratio"},
      {"memory.peak_resident_mb", ctr("peak_resident_bytes") / kMiB, "MiB"},
      {"memory.reload_recomputes", ctr("reload_recomputes"), "count"},
      {"session.admission_wait_ratio",
       Ratio(ctr("queries_queued"), ctr("queries_admitted")), "ratio"},
      {"session.share_spread",
       Ratio(static_cast<double>(most->latency_ms.size()),
             static_cast<double>(fewest->latency_ms.size())),
       "ratio"},
      {"net.crc32_mbps", pr.crc_mibps, "MiB/s"},
      {"net.frame_encode_mbps", pr.encode_mibps, "MiB/s"},
      {"net.frame_decode_mbps", pr.decode_mibps, "MiB/s"},
      {"net.tcp_rpc_us", pr.tcp_rpc_us, "us"},
      {"dist.sent_mb_per_query", ctr("dist_bytes_sent") / kMiB / q, "MiB"},
      {"dist.received_mb_per_query", ctr("dist_bytes_received") / kMiB / q,
       "MiB"},
      {"dist.wire_overhead_ratio",
       Ratio(ctr("dist_bytes_sent"), ctr("cross_executor_bytes")), "ratio"},
      {"dist.partitions_reexecuted", ctr("partitions_reexecuted"), "count"},
      {"dist.workers_lost", ctr("workers_lost"), "count"},
      {"profile.compile_pct", Ratio(compile_us / 1000.0, query_ms) * 100.0,
       "%"},
      {"profile.task_phase_ms", phase_us["task"] / 1000.0 / q, "ms"},
      {"profile.shuffle_write_ms", phase_us["shuffle-write"] / 1000.0 / q,
       "ms"},
      {"profile.reduce_ms", phase_us["reduce"] / 1000.0 / q, "ms"},
      {"profile.coverage_pct", prof.coverage_pct, "%"},
      {"trace.overhead_pct",
       (Ratio(Percentile(latencies, 0.5), untraced_p50) - 1.0) * 100.0, "%"},
  };
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool traced = false;
  std::string out_dir = "build/benchmark";
  int setup_runs = kSetupRuns;
  // Fewest queries, over all clients, of the timed and traced phases; the
  // phases run past --seconds when they need to.
  int min_timed = kMinTimedQueries;
  int min_traced = kMinTracedQueries;
};

struct RunOutcome {
  MetricList metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t samples = 0;
  double host_steal_pct = 0;  // over the measured phases
  std::vector<double> setup_runs_s;
  std::vector<std::string> errors;
};

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const MetricList& m) {
  std::string s = "{";
  for (size_t i = 0; i < m.size(); ++i) {
    s += (i ? "," : "");
    s += "\"" + m[i].name + "\":{\"value\":" + Num(m[i].value) +
         ",\"unit\":\"" + m[i].unit + "\"}";
  }
  return s + "}";
}

void Absorb(const Phase& ph, RunOutcome* out) {
  out->attempted += ph.attempted();
  out->failed += ph.failed();
  for (const ClientLog& c : ph.clients) {
    out->errors.insert(out->errors.end(), c.errors.begin(), c.errors.end());
  }
}

Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  f.close();
  if (!f) return Status::IoError("cannot write " + path);
  return Status::OK();
}

/// Set-up: local inputs, engine, input load, warm-up queries. Returns
/// seconds.
Result<double> SetUp(Workload& w, uint64_t seed, const std::string& spill) {
  const Stopwatch sw;
  w.Generate(seed);
  SAC_RETURN_NOT_OK(w.Start(spill));
  PhaseOptions warm;
  warm.min_queries = w.warmup_queries();
  warm.check = false;
  const Phase ph = RunPhase(w, warm);
  if (ph.failed() > 0) {
    for (const ClientLog& c : ph.clients) {
      if (!c.errors.empty()) {
        return Status::RuntimeError("warm-up: " + c.errors.front());
      }
    }
  }
  return sw.ElapsedMillis() / 1000.0;
}

Result<RunOutcome> RunWorkload(const RunOptions& o) {
  std::unique_ptr<Workload> w = MakeWorkload(o.workload);
  if (!w) return Status::InvalidArgument("unknown workload " + o.workload);
  const std::string spill = o.out_dir + "/spill";
  std::filesystem::create_directories(spill);
  const std::string tag = o.workload + "-seed" + std::to_string(o.seed) +
                          "-trace" + (o.traced ? "1" : "0") + "-" +
                          std::to_string(::getpid());

  RunOutcome out;
  w->Generate(o.seed);
  w->ComputeReference();
  const int setups = o.traced ? 1 : o.setup_runs;
  for (int k = 0; k < setups; ++k) {
    if (k > 0) w->Stop();
    SAC_ASSIGN_OR_RETURN(double s, SetUp(*w, o.seed, spill));
    out.setup_runs_s.push_back(s);
  }

  auto per_client = [&](int total) {
    return (total + w->clients() - 1) / w->clients();
  };
  PhaseOptions plain;
  plain.seconds = o.seconds;
  plain.min_queries = per_client(o.min_timed);
  plain.reset_stats = true;

  const CpuJiffies cpu_before = ReadCpuJiffies();
  if (!o.traced) {
    const Phase timed = RunPhase(*w, plain);
    out.host_steal_pct = StealPct(cpu_before, ReadCpuJiffies());
    Absorb(timed, &out);
    const std::vector<double> lat = timed.latencies();
    out.samples = static_cast<int64_t>(lat.size());
    out.metrics = {
        {"query_ms_p50", Percentile(lat, 0.5), "ms"},
        {"query_ms_p90", Percentile(lat, 0.9), "ms"},
        {"throughput_qps", timed.throughput_qps(), "1/s"},
        {"setup_s", Percentile(out.setup_runs_s, 0.5), "s"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
    };
    w->Stop();
    return out;
  }

  // Untraced quarters before and after the traced half, so drift over the
  // run cancels out of trace.overhead_pct.
  plain.seconds = o.seconds / 4;
  plain.min_queries = per_client(o.min_traced / 2);
  const Phase before = RunPhase(*w, plain);

  Sac& sac = w->sac();
  trace::Tracer bench_spans;
  sac.ResetStats();
  sac.tracer().set_enabled(true);
  PhaseOptions traced;
  traced.seconds = o.seconds / 2;
  traced.min_queries = per_client(o.min_traced);
  traced.spans = &bench_spans;
  const Phase tr = RunPhase(*w, traced);
  sac.tracer().set_enabled(false);
  out.samples = static_cast<int64_t>(tr.latencies().size());

  const MetricsSnapshot totals = sac.metrics().Snapshot();
  const std::vector<StageStatsSnapshot> stages = sac.stages().Snapshot();
  const std::string profile_json = sac.ProfileJson(tr.wall_ms, o.workload);
  std::vector<trace::SpanRecord> spans = sac.tracer().Snapshot();
  SAC_ASSIGN_OR_RETURN(profile::Profile prof,
                       profile::ParseProfile(profile_json));

  const Phase after = RunPhase(*w, plain);
  out.host_steal_pct = StealPct(cpu_before, ReadCpuJiffies());
  std::vector<double> untraced = before.latencies();
  for (double ms : after.latencies()) untraced.push_back(ms);
  for (const Phase* ph : {&before, &tr, &after}) Absorb(*ph, &out);

  Probes probes;
  ++out.attempted;
  const Status probed = RunProbes(*w, &bench_spans, &probes);
  if (!probed.ok()) {
    ++out.failed;
    out.errors.push_back(probed.ToString());
  }
  // The suite's spans join the engine's on one timeline; their ids move
  // to a range the engine's never reach.
  constexpr uint64_t kBenchIdBase = 1ull << 40;
  for (trace::SpanRecord& s : bench_spans.Drain()) {
    s.id += kBenchIdBase;
    if (s.parent != 0) s.parent += kBenchIdBase;
    spans.push_back(std::move(s));
  }
  SAC_RETURN_NOT_OK(WriteFile(o.out_dir + "/" + tag + ".trace.json",
                              trace::Tracer::ToChromeJson(spans)));
  SAC_RETURN_NOT_OK(
      WriteFile(o.out_dir + "/" + tag + ".profile.json", profile_json));

  out.metrics = LayerMetrics(Percentile(untraced, 0.5), tr,
                             CountersByName(totals), stages, prof, probes);
  w->Stop();
  return out;
}

std::string ResultJson(const RunOptions& o, const RunOutcome& r) {
  std::string s = "{\"suite\":\"sacbench\",\"workload\":\"" + o.workload +
                  "\",\"seed\":" + std::to_string(o.seed) +
                  ",\"seconds\":" + Num(o.seconds) +
                  ",\"trace\":" + (o.traced ? "1" : "0") +
                  ",\"host_cpus\":" + std::to_string(HostCpus()) +
                  ",\"correct\":" + (r.failed == 0 ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(r.attempted) +
                  ",\"failed\":" + std::to_string(r.failed) +
                  ",\"samples\":" + std::to_string(r.samples) +
                  ",\"host_steal_pct\":" + Num(r.host_steal_pct) +
                  ",\"setup_runs_s\":[";
  for (size_t i = 0; i < r.setup_runs_s.size(); ++i) {
    s += (i ? "," : "") + Num(r.setup_runs_s[i]);
  }
  s += "],\"errors\":[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    s += (i ? ",\"" : "\"") + trace::JsonEscape(r.errors[i]) + "\"";
  }
  return s + "],\"metrics\":" + MetricsJson(r.metrics) + "}";
}

void PrintOutcome(const RunOptions& o, const RunOutcome& r) {
  std::printf("# %s seed=%llu trace=%d host_cpus=%d samples=%lld "
              "attempted=%lld failed=%lld host_steal_pct=%.2f\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.traced ? 1 : 0, HostCpus(), static_cast<long long>(r.samples),
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), r.host_steal_pct);
  if (r.host_steal_pct > kStealWarnPct) {
    std::fprintf(stderr,
                 "bench_suite: warning: the hypervisor took %.1f%% of the "
                 "CPU during measurement; timings are not comparable\n",
                 r.host_steal_pct);
  }
  for (const Metric& m : r.metrics) {
    std::printf("%-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "error: %s\n", e.c_str());
  }
}

/// Runs one workload, records it under --out, and prints the metrics.
/// Returns the outcome, or an error when the run could not complete.
Result<RunOutcome> RunAndRecord(const RunOptions& o) {
  SAC_ASSIGN_OR_RETURN(RunOutcome r, RunWorkload(o));
  const std::string path = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.traced ? "1" : "0") + "-" +
                           std::to_string(::getpid()) + ".json";
  SAC_RETURN_NOT_OK(WriteFile(path, ResultJson(o, r) + "\n"));
  PrintOutcome(o, r);
  return r;
}

/// Every workload in both modes at smoke sizes; fails on any failure or
/// any metric `benchmark_json` names that a run did not emit.
int RunSmoke(const std::string& out_dir, const std::string& benchmark_json) {
  json::Value def;
  std::ifstream in(benchmark_json, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  const Status parsed = json::Parse(text.str(), &def);
  if (!in || !parsed.ok()) {
    std::fprintf(stderr, "smoke: cannot read %s: %s\n",
                 benchmark_json.c_str(), parsed.ToString().c_str());
    return 1;
  }
  int problems = 0;
  for (const char* name : kWorkloads) {
    for (const bool traced : {false, true}) {
      RunOptions o;
      o.workload = name;
      o.seconds = 0;
      o.traced = traced;
      o.out_dir = out_dir;
      o.setup_runs = 1;
      o.min_timed = 3;
      o.min_traced = 1;
      const Result<RunOutcome> r = RunAndRecord(o);
      if (!r.ok()) {
        std::fprintf(stderr, "smoke: %s: %s\n", name,
                     r.status().ToString().c_str());
        ++problems;
        continue;
      }
      if (r.value().failed > 0) {
        std::fprintf(stderr, "smoke: %s: %lld failed\n", name,
                     static_cast<long long>(r.value().failed));
        ++problems;
      }
      for (const json::Value& m :
           def.At(traced ? "per_layer" : "end_to_end").array) {
        const std::string want = m.GetStr("name");
        const bool found =
            std::any_of(r.value().metrics.begin(), r.value().metrics.end(),
                        [&](const Metric& x) { return x.name == want; });
        if (!found) {
          std::fprintf(stderr, "smoke: %s: metric %s missing\n", name,
                       want.c_str());
          ++problems;
        }
      }
    }
  }
  std::printf("smoke: %s\n", problems == 0 ? "ok" : "FAILED");
  return problems == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_suite --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n"
               "       bench_suite --smoke [--out DIR] "
               "[--benchmark-json PATH]\n"
               "workloads: multiply factorize multiply_wire service\n");
  return 2;
}

}  // namespace
}  // namespace sac::suite

int main(int argc, char** argv) {
  using namespace sac::suite;  // NOLINT

  // glibc gives a contending thread its own malloc arena, up to 8 per
  // core, and which threads win one differs from run to run, so peak RSS
  // jumped by whole arena heaps between runs (multiply_wire: 207-284 MiB
  // over 30 runs). One arena per engine core keeps it steady (196-203 MiB
  // over 10).
  mallopt(M_ARENA_MAX, kEngineCores);

  for (const char* var : kForbiddenEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "bench_suite: %s is set; it changes the program being "
                   "measured. Unset it and run again.\n",
                   var);
      return 2;
    }
  }

  RunOptions o;
  bool smoke = false;
  std::string benchmark_json = "BENCHMARK.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return Usage();
      o.traced = v == "1";
    } else if (arg == "--out" && has_value) {
      o.out_dir = argv[++i];
    } else if (arg == "--benchmark-json" && has_value) {
      benchmark_json = argv[++i];
    } else {
      return Usage();
    }
  }

  const int cpus = HostCpus();
  if (cpus < kEngineCores) {
    std::fprintf(stderr,
                 "bench_suite: warning: %d CPU(s) available; the workloads "
                 "assume %d (one per engine core and client)\n",
                 cpus, kEngineCores);
  }
  if (smoke) return RunSmoke(o.out_dir, benchmark_json);
  if (!MakeWorkload(o.workload) || !(o.seconds >= 0)) return Usage();

  const sac::Result<RunOutcome> r = RunAndRecord(o);
  if (!r.ok()) {
    std::fprintf(stderr, "bench_suite: %s: %s\n", o.workload.c_str(),
                 r.status().ToString().c_str());
    return 1;
  }
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":%s}\n",
              r.value().failed == 0 ? "true" : "false",
              static_cast<long long>(r.value().attempted),
              static_cast<long long>(r.value().failed),
              MetricsJson(r.value().metrics).c_str());
  return r.value().failed == 0 ? 0 : 1;
}
