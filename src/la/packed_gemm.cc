#include "src/la/packed_gemm.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>

#include "src/common/logging.h"
#include "src/la/kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SAC_PACKED_X86_DISPATCH 1
#endif

namespace sac::la {

namespace {

// Packing is only worth it once the O(m*l + l*n) copy cost is amortized
// over O(m*l*n) flops. bench_micro_kernels (BM_GemmFast vs
// BM_GemmPackedWith) puts the crossover below 16 for the AVX-512 kernel
// and between 16 and 32 for the AVX2 one (docs/KERNELS.md §2), so 32
// packs the planner's 64x64 tiles and most fringe tiles on either ISA.
constexpr int64_t kPackedMinDim = 32;
// Below this depth a microtile's C load and store outweigh its k sweep.
constexpr int64_t kPackedMinDepth = 8;

// Pack panels start on a cache line, so the vector loads of B rows and
// A slices never straddle two lines whatever state the allocator is in.
constexpr uintptr_t kPanelAlign = 64;

/// Storage for one pack panel, reused across calls without being
/// cleared: PackA and PackB write every element a kernel reads, pad
/// lanes included, so zero-filling it first would be wasted stores. It
/// grows to the largest panel it has held and never shrinks; each
/// thread owns one for B and one for A, shared by every geometry, so the
/// memory they pin is bounded by the largest product each thread has
/// packed.
class PanelBuffer {
 public:
  /// Storage for `n` doubles starting on a kPanelAlign boundary.
  double* Get(int64_t n) {
    constexpr int64_t kSlack = kPanelAlign / sizeof(double) - 1;
    const size_t need = static_cast<size_t>(n + kSlack);
    if (need > capacity_) {
      data_ = std::make_unique_for_overwrite<double[]>(need);
      capacity_ = need;
    }
    double* p = data_.get();
    const uintptr_t misalign = reinterpret_cast<uintptr_t>(p) % kPanelAlign;
    return misalign == 0 ? p : p + (kPanelAlign - misalign) / sizeof(double);
  }

 private:
  std::unique_ptr<double[]> data_;
  size_t capacity_ = 0;
};

thread_local PanelBuffer tls_b_panel;
thread_local PanelBuffer tls_a_panel;

/// Packs the A row-panel [i0, i0+mr) x [0, l) into k-major order:
/// apack[k * MR + r] = a(i0 + r, k), zero-padded to MR rows.
template <int64_t MR>
void PackA(const double* __restrict pa, int64_t l, int64_t i0, int64_t mr,
           double* __restrict apack) {
  for (int64_t k = 0; k < l; ++k) {
    double* __restrict dst = apack + k * MR;
    for (int64_t r = 0; r < mr; ++r) dst[r] = pa[(i0 + r) * l + k];
    for (int64_t r = mr; r < MR; ++r) dst[r] = 0.0;
  }
}

/// Packs all of B into NR-wide column panels, each k-major:
/// bpack[panel * (l * NR) + k * NR + c] = b(k, j0 + c), zero-padded to
/// NR columns per panel.
template <int64_t NR>
void PackB(const double* __restrict pb, int64_t l, int64_t n,
           double* __restrict bpack) {
  const int64_t panels = (n + NR - 1) / NR;
  for (int64_t p = 0; p < panels; ++p) {
    const int64_t j0 = p * NR;
    const int64_t nr = std::min(NR, n - j0);
    double* __restrict panel = bpack + p * l * NR;
    for (int64_t k = 0; k < l; ++k) {
      const double* __restrict src = pb + k * n + j0;
      double* __restrict dst = panel + k * NR;
      for (int64_t c = 0; c < nr; ++c) dst[c] = src[c];
      for (int64_t c = nr; c < NR; ++c) dst[c] = 0.0;
    }
  }
}

/// Fringe microtile (mr < MR or nr < NR) of an MR x NR geometry, portable
/// scalar form: acc is loaded from C, then every k term is added in
/// ascending order (no k-blocking), so each element's accumulation chain
/// matches the unpacked i-k-j loop bit for bit. Zeroed pad lanes are
/// never written back.
template <int64_t MR, int64_t NR>
void ScalarTile(const double* __restrict apack,
                const double* __restrict bpack, int64_t l,
                double* __restrict pc, int64_t ldc, int64_t mr, int64_t nr) {
  double acc[MR][NR];
  for (int64_t r = 0; r < MR; ++r) {
    for (int64_t c = 0; c < NR; ++c) {
      acc[r][c] = (r < mr && c < nr) ? pc[r * ldc + c] : 0.0;
    }
  }
  for (int64_t k = 0; k < l; ++k) {
    const double* __restrict ak = apack + k * MR;
    const double* __restrict bk = bpack + k * NR;
    for (int64_t r = 0; r < MR; ++r) {
      const double arv = ak[r];
      for (int64_t c = 0; c < NR; ++c) acc[r][c] += arv * bk[c];
    }
  }
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t c = 0; c < nr; ++c) pc[r * ldc + c] = acc[r][c];
  }
}

/// Full-tile signature: an MR x NR tile of C with leading dimension ldc.
using FullTileFn = void (*)(const double* __restrict apack,
                            const double* __restrict bpack, int64_t l,
                            double* __restrict pc, int64_t ldc);

#ifdef SAC_PACKED_X86_DISPATCH

/// Full MR x NR tile on vectors V of doubles: MR x (NR / lanes)
/// accumulators, NR / lanes B vectors and one A broadcast per k. Always
/// inlined into a target-attributed wrapper, which sets the ISA the
/// vector arithmetic compiles to; the rest of the binary keeps the
/// baseline ISA. Each lane multiplies, rounds, then adds -- the same two
/// IEEE roundings as ScalarTile, in the same ascending k -- which holds
/// only because the library builds with -ffp-contract=off
/// (src/CMakeLists.txt); contracted into FMA the chain would round once.
template <int64_t MR, int64_t NR, typename V>
[[gnu::always_inline]] inline void VectorTile(
    const double* __restrict apack, const double* __restrict bpack,
    int64_t l, double* __restrict pc, int64_t ldc) {
  constexpr int64_t kLanes = sizeof(V) / sizeof(double);
  constexpr int64_t kVecs = NR / kLanes;
  static_assert(NR % kLanes == 0, "NR must be a whole number of vectors");
  V acc[MR][kVecs];
#pragma GCC unroll 16
  for (int64_t r = 0; r < MR; ++r) {
#pragma GCC unroll 16
    for (int64_t v = 0; v < kVecs; ++v) {
      std::memcpy(&acc[r][v], pc + r * ldc + v * kLanes, sizeof(V));
    }
  }
  for (int64_t k = 0; k < l; ++k) {
    const double* __restrict ak = apack + k * MR;
    V b[kVecs];
#pragma GCC unroll 16
    for (int64_t v = 0; v < kVecs; ++v) {
      std::memcpy(&b[v], bpack + k * NR + v * kLanes, sizeof(V));
    }
#pragma GCC unroll 16
    for (int64_t r = 0; r < MR; ++r) {
      const double ar = ak[r];
#pragma GCC unroll 16
      for (int64_t v = 0; v < kVecs; ++v) acc[r][v] = acc[r][v] + ar * b[v];
    }
  }
#pragma GCC unroll 16
  for (int64_t r = 0; r < MR; ++r) {
#pragma GCC unroll 16
    for (int64_t v = 0; v < kVecs; ++v) {
      std::memcpy(pc + r * ldc + v * kLanes, &acc[r][v], sizeof(V));
    }
  }
}

typedef double Zmm __attribute__((vector_size(64)));
typedef double Ymm __attribute__((vector_size(32)));

/// AVX-512F 8x16: 16 zmm accumulators + 2 B vectors + 1 A broadcast = 19
/// of 32 registers, no spills.
__attribute__((target("avx512f"))) void Avx512Tile(
    const double* __restrict apack, const double* __restrict bpack,
    int64_t l, double* __restrict pc, int64_t ldc) {
  VectorTile<8, 16, Zmm>(apack, bpack, l, pc, ldc);
}

/// AVX2 6x8: 12 ymm accumulators + 2 B vectors + 1 A broadcast = 15 of
/// 16 registers, no spills.
__attribute__((target("avx2"))) void Avx2Tile(
    const double* __restrict apack, const double* __restrict bpack,
    int64_t l, double* __restrict pc, int64_t ldc) {
  VectorTile<6, 8, Ymm>(apack, bpack, l, pc, ldc);
}

#endif  // SAC_PACKED_X86_DISPATCH

/// The packed path for one kernel geometry: B is packed whole, then one C
/// row-strip at a time packs its A panel and sweeps every B panel over
/// it. Full tiles take `Full`; fringe tiles take ScalarTile, which sums
/// identically per element, so the split is invisible to results.
template <int64_t MR, int64_t NR, FullTileFn Full>
void RunPacked(const Tile& a, const Tile& b, Tile* out) {
  const int64_t m = a.rows(), l = a.cols(), n = b.cols();
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = out->data();

  const int64_t b_panels = (n + NR - 1) / NR;
  double* bpack = tls_b_panel.Get(b_panels * l * NR);
  PackB<NR>(pb, l, n, bpack);
  double* apack = tls_a_panel.Get(l * MR);

  for (int64_t i0 = 0; i0 < m; i0 += MR) {
    const int64_t mr = std::min(MR, m - i0);
    PackA<MR>(pa, l, i0, mr, apack);
    for (int64_t p = 0; p < b_panels; ++p) {
      const int64_t j0 = p * NR;
      const int64_t nr = std::min(NR, n - j0);
      const double* panel = bpack + p * l * NR;
      double* c = pc + i0 * n + j0;
      if (mr == MR && nr == NR) {
        Full(apack, panel, l, c, n);
      } else {
        ScalarTile<MR, NR>(apack, panel, l, c, n, mr, nr);
      }
    }
  }
}

void RunWith(MicroKernel kernel, const Tile& a, const Tile& b, Tile* out) {
  switch (kernel) {
#ifdef SAC_PACKED_X86_DISPATCH
    case MicroKernel::kAvx512:
      return RunPacked<8, 16, &Avx512Tile>(a, b, out);
    case MicroKernel::kAvx2:
      return RunPacked<6, 8, &Avx2Tile>(a, b, out);
#endif
    default:
      SAC_CHECK(false) << "microkernel not built for this target";
  }
}

/// Checks shapes and sizes a 0x0 `out` for out += a * b.
void PrepareOut(const Tile& a, const Tile& b, Tile* out) {
  SAC_CHECK_EQ(a.cols(), b.rows());
  if (out->rows() == 0 && out->cols() == 0) *out = Tile(a.rows(), b.cols());
  SAC_CHECK_EQ(out->rows(), a.rows());
  SAC_CHECK_EQ(out->cols(), b.cols());
}

}  // namespace

std::string_view MicroKernelName(MicroKernel kernel) {
  switch (kernel) {
    case MicroKernel::kAvx512:
      return "avx512";
    case MicroKernel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool MicroKernelSupported(MicroKernel kernel) {
  switch (kernel) {
#ifdef SAC_PACKED_X86_DISPATCH
    case MicroKernel::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
    case MicroKernel::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
#endif
    default:
      return false;
  }
}

std::optional<MicroKernel> PackedMicroKernel() {
  static const std::optional<MicroKernel> kernel =
      []() -> std::optional<MicroKernel> {
    for (MicroKernel k : {MicroKernel::kAvx512, MicroKernel::kAvx2}) {
      if (MicroKernelSupported(k)) return k;
    }
    return std::nullopt;
  }();
  return kernel;
}

int64_t PackedGemmThreshold() { return kPackedMinDim; }

bool PackedGemmWouldPack(int64_t m, int64_t l, int64_t n) {
  // Packing pays only with a vector microkernel: a scalar full-tile kernel
  // runs at about half the unpacked loop's speed from 64^3 to 512^3
  // (docs/KERNELS.md section 2), so a host without one never packs.
  return PackedMicroKernel().has_value() &&
         std::min(m, n) >= kPackedMinDim && l >= kPackedMinDepth;
}

void PackedGemmAccum(const Tile& a, const Tile& b, Tile* out) {
  PrepareOut(a, b, out);
  if (!PackedGemmWouldPack(a.rows(), a.cols(), b.cols())) {
    GemmAccum(a, b, out);
    return;
  }
  RunWith(*PackedMicroKernel(), a, b, out);
}

void PackedGemmAccumWith(MicroKernel kernel, const Tile& a, const Tile& b,
                         Tile* out) {
  SAC_CHECK(MicroKernelSupported(kernel));
  PrepareOut(a, b, out);
  RunWith(kernel, a, b, out);
}

}  // namespace sac::la
