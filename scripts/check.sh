#!/usr/bin/env bash
# CI-style check:
#   1. tier-1: build (warnings-as-errors) + full ctest
#   2. sac_lint gate: the analyzer accepts every examples/lint/*_ok.sac
#      and rejects every *_err.sac with located diagnostics; the SARIF
#      renderer over all examples must emit parseable JSON
#      (--format=sarif), and --json analysis reports must round-trip
#   3. clang-tidy via scripts/lint.sh (skips when not installed)
#   4. flakes: the full ctest suite three more times in parallel
#      (--repeat until-fail:3); a test that fails only under load is a
#      bug, not noise
#   5. chaos: bench_abl_recovery --smoke (fig4c under a canned seeded
#      fault plan must produce byte-identical factors to the fault-free
#      run, with retries/backoff/checkpoints metered and overhead bounded)
#   6. out-of-core: bench_abl_memory --smoke (fig4b multiply under a
#      memory budget a quarter of its working set must evict, reload,
#      and still produce a byte-identical product with bounded slowdown)
#   7. profiler: fig4c at tiny scale with --profile; sac_prof check must
#      find a non-empty critical path covering >= 80% of wall-clock, and
#      sac_prof diff of the profile against itself must report zero
#      regressions
#   8. sampler: bench_abl_sampler --smoke (time-series sampler at the
#      1 ms interval must cost <= 3% vs sampler-off and actually sample)
#   8b. strategy: bench_abl_strategy at tiny scale (the multiply plan
#      the cost model picks must be within 5% of the best forced plan),
#      then sac_prof predcheck holds the compile-time shuffle-byte
#      predictions within 2x of the measured counters on fig4a/b/c
#      (docs/COST_MODEL.md)
#   8c. backends: bench_abl_backend at tiny scale (packed GEMM >= 1.3x
#      generic at n=64, the planner's default block, and at n=512; all
#      three kernel backends byte-identical on fig4-shaped queries,
#      fusion strictly reduces tile allocations; docs/KERNELS.md)
#   8d. service: bench_abl_service --smoke (4 concurrent sessions must be
#      >= 2x faster than serialized admission with byte-identical
#      products, and the plan cache must show 1 miss + K-1 hits with
#      measurable compile savings, also when a same-shape input is
#      rebound before each compile; docs/SERVICE.md)
#   8e. distributed: bench_abl_transport --smoke (fig4b multiply over 3
#      in-process workers: loopback and TCP products byte-identical to
#      single-process, identical wire-byte accounting, bounded TCP
#      overhead), then the external-cluster chaos gate: 3 sac_worker
#      processes on localhost, one kill -9'd mid-shuffle, the product
#      must still be byte-identical with workers_lost >= 1 and
#      partitions_reexecuted > 0 (docs/DISTRIBUTED.md); workers are
#      torn down via trap even when the gate fails
#   8f. partition balance: sac_prof skewcheck holds partition_skew
#      (max / mean records per destination partition) to <= 1.5 on
#      every shuffle stage of fresh fig4a/b/c reports (fig4b at small
#      scale: tiny's 3x3 grid cannot spread 9 keys over 8 partitions)
#   9. bench regression gate: scripts/bench_diff.sh (committed
#      BENCH_*.json vs BENCH_*.baseline.json via sac_prof diff)
#  10. docs: scripts/check_docs_links.sh (no *.md relative link may point
#      at a missing file) + scripts/check_metrics_glossary.sh (every
#      MetricsSnapshot counter documented in docs/OPERATIONS.md)
#  11. asan: AddressSanitizer+UBSan build, full test suite, then the
#      4-session concurrent service smoke under ASan
#  12. tsan: ThreadSanitizer build of the concurrency-sensitive tests
#      (engine, trace, thread pool, shuffle pools, sharded metrics, the
#      block store / memory budget, the recovery/retry path, the
#      sampler/profile machinery, the multi-tenant session/admission
#      layer, and the distributed transport/coordinator/worker stack --
#      heartbeat thread vs RPCs vs placement, and the wire spans its RPCs
#      record from pool threads), since the trace/metrics
#      buffers, fault counters, budget
#      accounting, sampler counters, and per-session attribution sinks
#      are written from pool/background threads; plus the same 4-session
#      concurrent service smoke under tsan
#
# Usage: scripts/check.sh [--tsan-only|--asan-only|--tier1-only]
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 4)"

if [[ "$mode" == "all" || "$mode" == "--tier1-only" ]]; then
  echo "==> tier-1: configure + build + ctest"
  cmake -B build -S . -DSAC_WERROR=ON
  cmake --build build -j "$jobs"
  (cd build && ctest --output-on-failure -j "$jobs")

  echo "==> sac_lint: examples/lint gate"
  for f in examples/lint/*_ok.sac; do
    ./build/tools/sac_lint --Werror "$f" || {
      echo "sac_lint rejected clean file $f"; exit 1;
    }
  done
  for f in examples/lint/*_err.sac; do
    if ./build/tools/sac_lint "$f"; then
      echo "sac_lint accepted erroneous file $f"; exit 1
    fi
  done

  echo "==> sac_lint: SARIF + analysis.json renderers"
  # The example set includes *_err.sac files, so the lint exit code is 1
  # by design; the gate is that both renderers emit parseable JSON.
  ./build/tools/sac_lint --format=sarif examples/lint/*.sac \
    > build/lint.sarif || true
  ./build/tools/sac_lint --json=build/lint.analysis.json \
    examples/lint/*.sac >/dev/null || true
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool build/lint.sarif >/dev/null \
      || { echo "sac_lint --format=sarif emitted invalid JSON"; exit 1; }
    python3 -m json.tool build/lint.analysis.json >/dev/null \
      || { echo "sac_lint --json emitted invalid JSON"; exit 1; }
    python3 - <<'EOF'
import json
sarif = json.load(open("build/lint.sarif"))
assert sarif["version"] == "2.1.0", "sarif version"
assert sarif["runs"][0]["results"], "sarif has no results"
analysis = json.load(open("build/lint.analysis.json"))
assert analysis["analysis_version"] == 1, "analysis_version"
assert len(analysis["files"]) >= 5, "expected >=5 analyzed files"
EOF
  else
    [[ -s build/lint.sarif && -s build/lint.analysis.json ]] \
      || { echo "sac_lint SARIF/json output missing"; exit 1; }
  fi

  scripts/lint.sh

  echo "==> flakes: ctest --repeat until-fail:3 under -j"
  (cd build && ctest --output-on-failure -j "$jobs" --repeat until-fail:3)

  echo "==> chaos: fig4c under a seeded fault plan (recovery gate)"
  SAC_BENCH_REPS=1 \
    ./build/bench/bench_abl_recovery --smoke \
    --out build/BENCH_abl_recovery.smoke.json

  echo "==> out-of-core: fig4b multiply under a 25% memory budget"
  # SAC_MEM_BUDGET must be unset: the bench sizes its own budget from the
  # unlimited run's peak, and the env var would override both contexts.
  SAC_BENCH_REPS=1 env -u SAC_MEM_BUDGET \
    ./build/bench/bench_abl_memory --smoke \
    --out build/BENCH_abl_memory.smoke.json

  echo "==> profiler: fig4c profile + critical-path gate"
  # One rep so the profiled trace and the reported wall time describe
  # the same run (TimeQuery keeps the last rep's trace, reports the mean).
  SAC_BENCH_SCALE=tiny SAC_BENCH_REPS=1 \
    ./build/bench/bench_fig4c_factorization \
    --out build/BENCH_fig4c.prof-smoke.json \
    --profile build/fig4c.profile.json
  ./build/tools/sac_prof build/fig4c.profile.json
  ./build/tools/sac_prof check build/fig4c.profile.json --min-coverage 80
  ./build/tools/sac_prof diff build/fig4c.profile.json build/fig4c.profile.json

  echo "==> sampler: overhead gate (<= 3% vs sampler-off)"
  SAC_BENCH_SCALE=tiny SAC_BENCH_REPS=2 \
    ./build/bench/bench_abl_sampler --smoke \
    --out build/BENCH_abl_sampler.smoke.json

  echo "==> strategy: auto vs forced multiply plans (cost-model gate)"
  SAC_BENCH_SCALE=tiny SAC_BENCH_REPS=3 \
    ./build/bench/bench_abl_strategy \
    --out build/BENCH_abl_strategy.smoke.json

  echo "==> backends: packed GEMM speedup + byte-identity + fusion gate"
  SAC_BENCH_SCALE=tiny SAC_BENCH_REPS=2 \
    ./build/bench/bench_abl_backend \
    --out build/BENCH_abl_backend.smoke.json

  echo "==> service: concurrent admission + plan cache gate"
  # SAC_MAX_CONCURRENT must be unset: the bench pins its own admission
  # limit per arm, and the env var would override both.
  SAC_BENCH_SCALE=tiny SAC_BENCH_REPS=1 env -u SAC_MAX_CONCURRENT \
    ./build/bench/bench_abl_service --smoke \
    --out build/BENCH_abl_service.smoke.json

  echo "==> distributed: transport ablation (single vs loopback vs tcp)"
  # SAC_WORKERS/SAC_TRANSPORT must be unset: they would override the
  # single-process baseline arm (the bench refuses to run otherwise).
  SAC_BENCH_REPS=1 env -u SAC_WORKERS -u SAC_TRANSPORT \
    ./build/bench/bench_abl_transport --smoke \
    --out build/BENCH_abl_transport.smoke.json

  echo "==> distributed: 3-worker TCP cluster + kill -9 chaos gate"
  worker_pids=()
  cleanup_workers() {
    for p in "${worker_pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
    worker_pids=()
  }
  # Tear the cluster down even when the gate (or any later stage) fails.
  trap cleanup_workers EXIT
  worker_addrs=""
  for i in 1 2 3; do
    rm -f "build/sac_worker.$i.log"
    # The per-put delay stretches the shuffle window so the bench's
    # kill -9 reliably lands mid-stream.
    SAC_WORKER_DELAY_US=2000 ./build/tools/sac_worker --port=0 \
      > "build/sac_worker.$i.log" 2>&1 &
    worker_pids+=($!)
  done
  for i in 1 2 3; do
    port=""
    for _ in $(seq 1 100); do
      port="$(sed -n 's/.*port=\([0-9]*\).*/\1/p' "build/sac_worker.$i.log")"
      [[ -n "$port" ]] && break
      sleep 0.1
    done
    [[ -n "$port" ]] || { echo "sac_worker $i never became ready"; exit 1; }
    worker_addrs+="${worker_addrs:+,}127.0.0.1:$port"
  done
  SAC_BENCH_REPS=1 SAC_WORKERS="$worker_addrs" \
    ./build/bench/bench_abl_transport --chaos --smoke \
    --out build/BENCH_abl_transport_chaos.smoke.json
  cleanup_workers

  echo "==> cost model: predicted vs measured shuffle bytes (2x gate)"
  SAC_BENCH_SCALE=tiny SAC_BENCH_REPS=1 \
    ./build/bench/bench_fig4a_addition \
    --out build/BENCH_fig4a.pred-smoke.json
  SAC_BENCH_SCALE=tiny SAC_BENCH_REPS=1 \
    ./build/bench/bench_fig4b_multiply \
    --out build/BENCH_fig4b.pred-smoke.json
  ./build/tools/sac_prof predcheck build/BENCH_fig4a.pred-smoke.json
  ./build/tools/sac_prof predcheck build/BENCH_fig4b.pred-smoke.json
  # fig4c was already run at tiny scale by the profiler stage above.
  ./build/tools/sac_prof predcheck build/BENCH_fig4c.prof-smoke.json

  echo "==> partition balance: skew <= 1.5 on every fig4 shuffle stage"
  # Tiny-scale fig4b includes n=192, a 3x3 tile grid: 9 keys over 8
  # partitions cannot get under 1.78, so fig4b is re-run at small scale.
  SAC_BENCH_SCALE=small SAC_BENCH_REPS=1 \
    ./build/bench/bench_fig4b_multiply \
    --out build/BENCH_fig4b.skew-smoke.json
  for report in build/BENCH_fig4a.pred-smoke.json \
      build/BENCH_fig4b.skew-smoke.json build/BENCH_fig4c.prof-smoke.json; do
    ./build/tools/sac_prof skewcheck "$report"
  done

  echo "==> bench regression gate: committed reports vs baselines"
  scripts/bench_diff.sh

  echo "==> docs: markdown relative-link check"
  scripts/check_docs_links.sh

  echo "==> docs: metrics glossary drift check"
  scripts/check_metrics_glossary.sh
fi

if [[ "$mode" == "all" || "$mode" == "--asan-only" ]]; then
  echo "==> asan+ubsan: full test suite"
  cmake -B build-asan -S . -DSAC_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$jobs" --target sac_tests bench_abl_service
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/sac_tests
  echo "==> asan: 4-session concurrent service smoke"
  SAC_BENCH_SCALE=tiny SAC_BENCH_REPS=1 env -u SAC_MAX_CONCURRENT \
    ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/bench/bench_abl_service --smoke \
    --out build-asan/BENCH_abl_service.smoke.json
fi

if [[ "$mode" == "all" || "$mode" == "--tsan-only" ]]; then
  echo "==> tsan: engine / trace / observability / thread-pool tests"
  cmake -B build-tsan -S . -DSAC_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$jobs" --target sac_tests bench_abl_service
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/sac_tests \
    --gtest_filter='Engine*:*Tracer*:*Histogram*:Observability*:ThreadPool*:*MetricsSnapshot*:*Pool*:*ShufflePath*:*ShardedMetrics*:*Recovery*:*FaultPlan*:*BlockStore*:*Memory*:*Sampler*:*Profile*:*Session*:*FrameCodec*:*Transport*:*DistWorker*:*Coordinator*:*DistShuffle*:*WireSpan*'
  echo "==> tsan: 4-session concurrent service smoke"
  SAC_BENCH_SCALE=tiny SAC_BENCH_REPS=1 env -u SAC_MAX_CONCURRENT \
    TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/bench/bench_abl_service --smoke \
    --out build-tsan/BENCH_abl_service.smoke.json
fi

echo "==> all checks passed"
