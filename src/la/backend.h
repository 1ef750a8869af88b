// Pluggable kernel backends (ROADMAP: "pluggable HPC kernel backends").
// The planner's generated loop nests dispatch tile-level linear algebra
// through a KernelBackend so the native kernels and the MLlib model can
// be swapped per engine -- compare Alchemist's externally-linked MPI/BLAS
// workers (PAPERS.md) -- and A/B-benchmarked without recompiling queries:
//
//   * packed  -- the native path: the blocked, restrict'd loops in
//                src/la/kernels.cc, with GemmAccum routed through the
//                register-tiled panel-packing kernel at the host's widest
//                vector ISA for products of 32x32 and up
//                (src/la/packed_gemm.h).
//   * jvmlike -- virtual-dispatch bounds-checked access modelling MLlib's
//                non-native Breeze path (src/la/jvmlike.h).
//
// Selection: ClusterConfig::kernel_backend, resolved once at Engine
// construction (default "packed"). It is the only kernel switch:
// MLlib-shaped runs configure kernel_backend = "jvmlike".
//
// Numerics: both backends accumulate GEMM with the same per-element order
// as the la:: reference loops (accumulator loaded from C, k ascending, no
// k-blocking, no FMA), so results are bitwise identical across backends
// and microkernels; the backend-parameterized suite in
// tests/kernels_test.cc enforces this.
#ifndef SAC_LA_BACKEND_H_
#define SAC_LA_BACKEND_H_

#include <cstdint>
#include <string_view>

#include "src/la/tile.h"

namespace sac::la {

enum class BackendKind { kPacked, kJvmlike };

/// Tile-level kernel vtable. Implementations must be stateless and
/// thread-safe: one shared instance serves every engine and pool thread.
class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  virtual BackendKind kind() const = 0;
  virtual std::string_view name() const = 0;

  /// out = a + b elementwise.
  virtual void Add(const Tile& a, const Tile& b, Tile* out) const = 0;
  /// out = a - b elementwise.
  virtual void Sub(const Tile& a, const Tile& b, Tile* out) const = 0;
  /// out = a * b elementwise (Hadamard).
  virtual void Mul(const Tile& a, const Tile& b, Tile* out) const = 0;
  /// out = alpha*a + beta*b elementwise.
  virtual void Axpby(double alpha, const Tile& a, double beta, const Tile& b,
                     Tile* out) const = 0;
  /// out = alpha * a.
  virtual void Scale(double alpha, const Tile& a, Tile* out) const = 0;
  /// acc += t elementwise, in place.
  virtual void AddInPlace(Tile* acc, const Tile& t) const = 0;
  /// out += a * b (matrix product, la::GemmAccum contract).
  virtual void GemmAccum(const Tile& a, const Tile& b, Tile* out) const = 0;
  /// out = a^T.
  virtual void Transpose(const Tile& a, Tile* out) const = 0;
  /// out[i] = sum_j a(i,j); out must have a.rows() elements.
  virtual void RowSums(const Tile& a, double* out) const = 0;
  /// out[j] = sum_i a(i,j); out must have a.cols() elements.
  virtual void ColSums(const Tile& a, double* out) const = 0;
  /// Sum of all elements.
  virtual double TotalSum(const Tile& a) const = 0;
};

/// Shared immutable instance for a kind; never null.
const KernelBackend* GetBackend(BackendKind kind);

/// Case-sensitive lookup by registry name ("packed", "jvmlike"); nullptr
/// for unknown names so callers can log-and-default.
const KernelBackend* FindBackend(std::string_view name);

/// Flops of out += a*b: 2 * m * l * n (one mul + one add per term).
uint64_t GemmFlops(const Tile& a, const Tile& b);

/// Credits `flops` to the per-backend flop counter (flops_packed /
/// flops_jvmlike) through the calling thread's current MeterSink, i.e.
/// the stage of the task running the kernel.
void MeterFlops(BackendKind kind, uint64_t flops);

}  // namespace sac::la

#endif  // SAC_LA_BACKEND_H_
