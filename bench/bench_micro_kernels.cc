// Micro-benchmarks (google-benchmark) for the primitive layers: dense
// kernels vs jvmlike kernels, Value serialization, the wire CRC, and one
// engine shuffle.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/la/jvmlike.h"
#include "src/la/kernels.h"
#include "src/la/packed_gemm.h"
#include "src/net/frame.h"
#include "src/runtime/engine.h"

namespace {

using sac::Rng;
using sac::la::Tile;

Tile RandomTile(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Tile t(n, n);
  t.FillRandom(&rng, 0.0, 1.0);
  return t;
}

void BM_GemmFast(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tile a = RandomTile(n, 1), b = RandomTile(n, 2), c(n, n);
  for (auto _ : state) {
    sac::la::GemmAccum(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmFast)
    ->Arg(16)->Arg(32)->Arg(48)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmPacked(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tile a = RandomTile(n, 1), b = RandomTile(n, 2), c(n, n);
  for (auto _ : state) {
    sac::la::PackedGemmAccum(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
// Below PackedGemmThreshold() (32) the call forwards to the unpacked loop;
// BM_GemmPackedWith shows what packing would cost there. 64 and 512 are
// the backend-ablation gate's shapes (docs/KERNELS.md).
BENCHMARK(BM_GemmPacked)
    ->Arg(16)->Arg(32)->Arg(48)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

/// The packed path forced onto one microkernel (0 avx512, 1 avx2) at
/// every size, threshold ignored: the per-ISA crossover
/// against BM_GemmFast.
void BM_GemmPackedWith(benchmark::State& state) {
  const auto kernel = static_cast<sac::la::MicroKernel>(state.range(0));
  if (!sac::la::MicroKernelSupported(kernel)) {
    state.SkipWithError("microkernel not supported on this host");
    return;
  }
  state.SetLabel(std::string(sac::la::MicroKernelName(kernel)));
  const int64_t n = state.range(1);
  Tile a = RandomTile(n, 1), b = RandomTile(n, 2), c(n, n);
  for (auto _ : state) {
    sac::la::PackedGemmAccumWith(kernel, a, b, &c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmPackedWith)
    ->ArgsProduct({{0, 1}, {16, 32, 48, 64, 128}});

void BM_GemmJvmlike(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tile a = RandomTile(n, 1), b = RandomTile(n, 2), c(n, n);
  for (auto _ : state) {
    sac::la::jvmlike::TileGemmAccum(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmJvmlike)->Arg(64)->Arg(128);

void BM_AddFast(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tile a = RandomTile(n, 3), b = RandomTile(n, 4), c;
  for (auto _ : state) {
    sac::la::Add(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_AddFast)->Arg(256);

void BM_AddJvmlike(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tile a = RandomTile(n, 3), b = RandomTile(n, 4), c;
  for (auto _ : state) {
    sac::la::jvmlike::TileAdd(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_AddJvmlike)->Arg(256);

void BM_Transpose(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tile a = RandomTile(n, 5), c;
  for (auto _ : state) {
    sac::la::Transpose(a, &c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_Transpose)->Arg(256);

void BM_ValueTileSerialize(benchmark::State& state) {
  using sac::runtime::Value;
  const int64_t n = state.range(0);
  Value v = Value::TileVal(RandomTile(n, 6));
  for (auto _ : state) {
    sac::ByteWriter w;
    v.Serialize(&w);
    sac::ByteReader r(w.buffer());
    auto back = Value::Deserialize(&r);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(state.iterations() * n * n * 8);
}
BENCHMARK(BM_ValueTileSerialize)->Arg(128)->Arg(256);

/// The frame CRC on one path (0 portable slicing-by-8, 1 CLMUL fold)
/// over a hot buffer: the fold's switch-over is where path 1 passes
/// path 0 (docs/DISTRIBUTED.md).
void BM_Crc32(benchmark::State& state) {
  const bool clmul = state.range(0) == 1;
  if (clmul && !sac::net::Crc32ClmulSupported()) {
    state.SkipWithError("PCLMULQDQ not supported on this host");
    return;
  }
  const auto extend =
      clmul ? &sac::net::Crc32ExtendClmul : &sac::net::Crc32ExtendPortable;
  const size_t n = static_cast<size_t>(state.range(1));
  std::vector<uint8_t> buf(n);
  Rng rng(7);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = extend(crc, buf.data(), n);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32)->ArgsProduct(
    {{0, 1}, {16, 64, 256, 4 << 10, 64 << 10, 1 << 20}});

void BM_EngineReduceByKey(benchmark::State& state) {
  using namespace sac::runtime;  // NOLINT
  Engine eng(ClusterConfig{4, 2, 8});
  ValueVec rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back(VPair(VInt(i % 100), VDouble(i)));
  }
  Dataset ds = eng.Parallelize(std::move(rows), 8);
  for (auto _ : state) {
    auto red = eng.ReduceByKey(ds, [](const Value& a, const Value& b) {
      return VDouble(a.AsDouble() + b.AsDouble());
    });
    benchmark::DoNotOptimize(red);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_EngineReduceByKey);

}  // namespace

BENCHMARK_MAIN();
