#include "src/la/backend.h"

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/la/jvmlike.h"
#include "src/la/kernels.h"
#include "src/la/packed_gemm.h"

namespace sac::la {

namespace {

/// The native backend: the la:: blocked loops, with the matrix product
/// through the packed microkernel (panel packing pays off only where
/// O(n^3) dominates O(n^2)).
class PackedBackend : public KernelBackend {
 public:
  BackendKind kind() const override { return BackendKind::kPacked; }
  std::string_view name() const override { return "packed"; }

  void Add(const Tile& a, const Tile& b, Tile* out) const override {
    la::Add(a, b, out);
  }
  void Sub(const Tile& a, const Tile& b, Tile* out) const override {
    la::Sub(a, b, out);
  }
  void Mul(const Tile& a, const Tile& b, Tile* out) const override {
    la::Mul(a, b, out);
  }
  void Axpby(double alpha, const Tile& a, double beta, const Tile& b,
             Tile* out) const override {
    la::Axpby(alpha, a, beta, b, out);
  }
  void Scale(double alpha, const Tile& a, Tile* out) const override {
    la::Scale(alpha, a, out);
  }
  void AddInPlace(Tile* acc, const Tile& t) const override {
    la::AddInPlace(acc, t);
  }
  void GemmAccum(const Tile& a, const Tile& b, Tile* out) const override {
    PackedGemmAccum(a, b, out);
  }
  void Transpose(const Tile& a, Tile* out) const override {
    la::Transpose(a, out);
  }
  void RowSums(const Tile& a, double* out) const override {
    la::RowSums(a, out);
  }
  void ColSums(const Tile& a, double* out) const override {
    la::ColSums(a, out);
  }
  double TotalSum(const Tile& a) const override { return la::TotalSum(a); }
};

/// MLlib-model backend: every element access is a virtual call with a
/// bounds check (src/la/jvmlike.h). Ops jvmlike.cc has no wrapper for are
/// written here as the same generic-interface loops Breeze's zipMap /
/// reduce fallbacks compile to.
class JvmlikeBackend : public KernelBackend {
 public:
  BackendKind kind() const override { return BackendKind::kJvmlike; }
  std::string_view name() const override { return "jvmlike"; }

  void Add(const Tile& a, const Tile& b, Tile* out) const override {
    jvmlike::TileAdd(a, b, out);
  }
  void Sub(const Tile& a, const Tile& b, Tile* out) const override {
    jvmlike::TileAxpby(1.0, a, -1.0, b, out);
  }
  void Mul(const Tile& a, const Tile& b, Tile* out) const override {
    PrepareOut(a, out);
    auto ra = jvmlike::WrapConst(&a);
    auto rb = jvmlike::WrapConst(&b);
    auto ro = jvmlike::Wrap(out);
    for (int64_t i = 0; i < ra->rows(); ++i) {
      for (int64_t j = 0; j < ra->cols(); ++j) {
        ro->Set(i, j, ra->Get(i, j) * rb->Get(i, j));
      }
    }
  }
  void Axpby(double alpha, const Tile& a, double beta, const Tile& b,
             Tile* out) const override {
    jvmlike::TileAxpby(alpha, a, beta, b, out);
  }
  void Scale(double alpha, const Tile& a, Tile* out) const override {
    PrepareOut(a, out);
    auto ra = jvmlike::WrapConst(&a);
    auto ro = jvmlike::Wrap(out);
    for (int64_t i = 0; i < ra->rows(); ++i) {
      for (int64_t j = 0; j < ra->cols(); ++j) {
        ro->Set(i, j, alpha * ra->Get(i, j));
      }
    }
  }
  void AddInPlace(Tile* acc, const Tile& t) const override {
    auto ra = jvmlike::Wrap(acc);
    auto rt = jvmlike::WrapConst(&t);
    for (int64_t i = 0; i < ra->rows(); ++i) {
      for (int64_t j = 0; j < ra->cols(); ++j) {
        ra->Set(i, j, ra->Get(i, j) + rt->Get(i, j));
      }
    }
  }
  void GemmAccum(const Tile& a, const Tile& b, Tile* out) const override {
    jvmlike::TileGemmAccum(a, b, out);
  }
  void Transpose(const Tile& a, Tile* out) const override {
    jvmlike::TileTranspose(a, out);
  }
  void RowSums(const Tile& a, double* out) const override {
    auto ra = jvmlike::WrapConst(&a);
    for (int64_t i = 0; i < ra->rows(); ++i) {
      double s = 0.0;
      for (int64_t j = 0; j < ra->cols(); ++j) s += ra->Get(i, j);
      out[i] = s;
    }
  }
  void ColSums(const Tile& a, double* out) const override {
    auto ra = jvmlike::WrapConst(&a);
    for (int64_t j = 0; j < ra->cols(); ++j) out[j] = 0.0;
    for (int64_t i = 0; i < ra->rows(); ++i) {
      for (int64_t j = 0; j < ra->cols(); ++j) out[j] += ra->Get(i, j);
    }
  }
  double TotalSum(const Tile& a) const override {
    auto ra = jvmlike::WrapConst(&a);
    double s = 0.0;
    for (int64_t i = 0; i < ra->rows(); ++i) {
      for (int64_t j = 0; j < ra->cols(); ++j) s += ra->Get(i, j);
    }
    return s;
  }

 private:
  static void PrepareOut(const Tile& like, Tile* out) {
    if (out->rows() != like.rows() || out->cols() != like.cols()) {
      *out = Tile(like.rows(), like.cols());
    }
  }
};

}  // namespace

const KernelBackend* GetBackend(BackendKind kind) {
  static const PackedBackend packed;
  static const JvmlikeBackend jvm;
  switch (kind) {
    case BackendKind::kPacked:
      return &packed;
    case BackendKind::kJvmlike:
      return &jvm;
  }
  SAC_CHECK(false);
  return &packed;
}

const KernelBackend* FindBackend(std::string_view name) {
  if (name == "packed") return GetBackend(BackendKind::kPacked);
  if (name == "jvmlike") return GetBackend(BackendKind::kJvmlike);
  return nullptr;
}

uint64_t GemmFlops(const Tile& a, const Tile& b) {
  return 2ull * static_cast<uint64_t>(a.rows()) *
         static_cast<uint64_t>(a.cols()) * static_cast<uint64_t>(b.cols());
}

void MeterFlops(BackendKind kind, uint64_t flops) {
  if (flops == 0) return;
  const MeterSink& sink = MeterSink::Current();
  switch (kind) {
    case BackendKind::kPacked:
      sink.Add(Counter::kFlopsPacked, flops);
      break;
    case BackendKind::kJvmlike:
      sink.Add(Counter::kFlopsJvmlike, flops);
      break;
  }
}

}  // namespace sac::la
