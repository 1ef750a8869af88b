// Packed, register-tiled GEMM (the "packed" kernel backend). A/B operands
// are repacked into contiguous 64-byte-aligned panels sized for an
// MR x NR register microkernel, so the innermost loop streams both panels
// sequentially regardless of the tile's leading dimension. The
// microkernel is the widest the host runs, picked once per process:
// AVX-512F 8x16 or AVX2 6x8, with a portable scalar form for fringe
// microtiles. Below a size threshold the packing cost is not amortized and the
// call forwards to the unpacked blocked loop (la::GemmAccum); the
// planner's default 64x64 tiles pack. A host with neither vector ISA
// always forwards.
//
// Numerics: per output element the accumulation order is byte-identical
// to la::GemmAccum and jvmlike::TileGemmAccum -- the accumulator is
// loaded from the existing C value and every k term is multiplied, rounded
// and then added in ascending order, with no k-blocking and no FMA -- so
// every backend and every microkernel produces bitwise equal products
// (tests/kernels_test.cc asserts this).
#ifndef SAC_LA_PACKED_GEMM_H_
#define SAC_LA_PACKED_GEMM_H_

#include <optional>
#include <string_view>

#include "src/la/tile.h"

namespace sac::la {

/// out += a * b, same contract as la::GemmAccum (shapes m x l, l x n,
/// m x n; a 0x0 `out` is allocated to m x n zeros first).
void PackedGemmAccum(const Tile& a, const Tile& b, Tile* out);

/// Minimum min(m, n) at which PackedGemmAccum actually packs; smaller
/// products forward to la::GemmAccum. Chosen from bench_micro_kernels
/// (BM_GemmFast vs BM_GemmPackedWith crossover; see docs/KERNELS.md).
int64_t PackedGemmThreshold();

/// True when PackedGemmAccum would take the packed path for these shapes
/// on this host (exposed so tests and benches can pick shapes on either
/// side).
bool PackedGemmWouldPack(int64_t m, int64_t l, int64_t n);

/// The vector register microkernels the packed path can run.
enum class MicroKernel { kAvx512, kAvx2 };

/// "avx512" or "avx2".
std::string_view MicroKernelName(MicroKernel kernel);

/// True when this build and host can run `kernel`.
bool MicroKernelSupported(MicroKernel kernel);

/// The widest supported kernel, picked once per process; nullopt on a
/// host with neither, where PackedGemmAccum never packs.
std::optional<MicroKernel> PackedMicroKernel();

/// Test seam: the packed path on a named, supported microkernel, packing
/// every shape regardless of PackedGemmThreshold. Same contract and
/// results as PackedGemmAccum.
void PackedGemmAccumWith(MicroKernel kernel, const Tile& a, const Tile& b,
                         Tile* out);

}  // namespace sac::la

#endif  // SAC_LA_PACKED_GEMM_H_
