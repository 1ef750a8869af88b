#!/usr/bin/env bash
# Runs the figure-reproduction benches and the memory, sampler,
# strategy, backend, service and transport ablations, writing
# machine-readable reports at the repo root:
#   BENCH_fig4a.json  BENCH_fig4b.json  BENCH_fig4c.json
#   BENCH_abl_memory.json
#   BENCH_abl_sampler.json  BENCH_abl_strategy.json
#   BENCH_abl_backend.json  BENCH_abl_service.json
#   BENCH_abl_transport.json
# Each fig4 bench also emits a profiler artifact
# (BENCH_<name>.profile.json, summarize with tools/sac_prof; see
# docs/PROFILING.md). Reports are committed alongside code changes so
# the perf trajectory is auditable across PRs; scripts/bench_diff.sh
# gates them against the BENCH_*.baseline.json files.
#
# Usage: scripts/bench.sh [scale] [reps]
#   scale: tiny | small | full   (default: small)
#   reps:  timed repetitions     (default: 3)
set -euo pipefail
cd "$(dirname "$0")/.."

scale="${1:-small}"
reps="${2:-3}"
jobs="$(nproc 2>/dev/null || echo 4)"

cmake -B build -S . >/dev/null
cmake --build build -j "$jobs" --target \
  bench_fig4a_addition bench_fig4b_multiply bench_fig4c_factorization \
  bench_abl_memory bench_abl_sampler \
  bench_abl_strategy bench_abl_backend bench_abl_service \
  bench_abl_transport sac_prof

export SAC_BENCH_SCALE="$scale" SAC_BENCH_REPS="$reps"

echo "==> fig4a (addition), scale=$scale reps=$reps"
./build/bench/bench_fig4a_addition --out BENCH_fig4a.json \
  --profile BENCH_fig4a.profile.json

echo "==> fig4b (multiplication)"
./build/bench/bench_fig4b_multiply --out BENCH_fig4b.json \
  --profile BENCH_fig4b.profile.json

echo "==> fig4c (factorization)"
./build/bench/bench_fig4c_factorization --out BENCH_fig4c.json \
  --profile BENCH_fig4c.profile.json

echo "==> ablation: unlimited vs 25% memory budget (out-of-core)"
./build/bench/bench_abl_memory --out BENCH_abl_memory.json

echo "==> ablation: time-series sampler overhead"
./build/bench/bench_abl_sampler --out BENCH_abl_sampler.json

echo "==> ablation: cost-driven multiply strategy (self-gating)"
./build/bench/bench_abl_strategy --out BENCH_abl_strategy.json

echo "==> ablation: kernel backends + fusion (self-gating)"
./build/bench/bench_abl_backend --out BENCH_abl_backend.json

echo "==> ablation: multi-tenant service, admission + plan cache (self-gating)"
./build/bench/bench_abl_service --out BENCH_abl_service.json

echo "==> ablation: shuffle transport, loopback vs tcp (self-gating)"
# SAC_WORKERS/SAC_TRANSPORT would override the single-process arm; the
# bench refuses to run with either set.
env -u SAC_WORKERS -u SAC_TRANSPORT \
  ./build/bench/bench_abl_transport --out BENCH_abl_transport.json

echo "==> cost-model gate: predicted vs measured shuffle bytes (2x)"
./build/tools/sac_prof predcheck BENCH_fig4a.json
./build/tools/sac_prof predcheck BENCH_fig4b.json
./build/tools/sac_prof predcheck BENCH_fig4c.json

echo "==> partition-balance gate: skew <= 1.5 on every fig4 shuffle stage"
./build/tools/sac_prof skewcheck BENCH_fig4a.json
./build/tools/sac_prof skewcheck BENCH_fig4b.json
./build/tools/sac_prof skewcheck BENCH_fig4c.json

echo "==> regression gate: reports vs baselines"
scripts/bench_diff.sh

echo "==> reports written: BENCH_fig4a.json BENCH_fig4b.json BENCH_fig4c.json BENCH_abl_memory.json BENCH_abl_sampler.json BENCH_abl_strategy.json BENCH_abl_backend.json BENCH_abl_service.json BENCH_abl_transport.json (+ fig4 *.profile.json)"
