// Transport ablation / chaos gate: the Figure 4.B multiply run through
// the distributed runtime (docs/DISTRIBUTED.md) in three shapes --
//
//   single       no workers: the engine exactly as every other bench
//                runs it (the bit-for-bit default path)
//   loopback-3w  3 in-process workers behind the loopback transport
//                (full frame codec, no sockets)
//   tcp-3w       3 in-process workers behind real 127.0.0.1 sockets
//
// Single runs of a few-ms query are noisy, so each arm keeps its engine
// and runs kRounds times, the arms interleaved round by round; each
// reported time_ms is the arm's median, and the loopback/single and
// tcp/single ratios of the medians are printed.
//
// The gate FAILS (nonzero exit) unless: all three products are
// byte-identical, the distributed runs moved real wire bytes, loopback
// and TCP meter *identical* wire-byte counts (same buckets, same codec),
// shuffle-byte accounting is transport-independent, and the TCP overhead
// stays within a loose multiple of loopback.
//
// `--chaos` switches to the external-cluster kill test: it requires
// SAC_WORKERS to name running sac_worker processes (scripts/check.sh
// launches three), runs the same multiply over them, kill -9s one worker
// the moment wire bytes start flowing, and FAILS unless the final
// product is still byte-identical to the single-process run with
// workers_lost >= 1 and partitions_reexecuted > 0 -- the lineage
// re-execution path, exercised against a real process death.
#include "bench/bench_common.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/api/algorithms.h"
#include "src/dist/coordinator.h"

namespace {

/// Byte-exact product comparison: the transport must deliver the exact
/// bucket bytes the map side serialized (CRC-checked frames), and
/// lineage re-execution is deterministic, so any drift is a dist bug,
/// not rounding.
bool SameTile(const sac::la::Tile& a, const sac::la::Tile& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.vec().data(), b.vec().data(),
                     a.vec().size() * sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sac;         // NOLINT
  using namespace sac::bench;  // NOLINT

  bool smoke = false;
  bool chaos = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--chaos") == 0) chaos = true;
  }
  const int64_t n = smoke ? 96 : 160;
  const int64_t block = 32;

  int violations = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "TRANSPORT GATE VIOLATION: %s\n", what);
      ++violations;
    }
  };

  struct RunResult {
    Row row;
    la::Tile product{0, 0};
  };

  // One arm: an engine under one config with its inputs loaded, timed
  // the standard way (ResetStats per rep; totals are the last rep's, so
  // every series meters one identical run).
  struct Arm {
    std::string series;
    std::unique_ptr<Sac> ctx;
    storage::TiledMatrix a, b, c;
    std::vector<double> times_ms;
    RunResult result;
  };
  auto open_arm = [&](const std::string& series,
                      runtime::ClusterConfig cfg) {
    planner::PlannerOptions opts;
    opts.auto_strategy = false;  // pin the plan: this ablates the wire
    Arm arm;
    arm.series = series;
    arm.ctx = std::make_unique<Sac>(cfg, opts);
    arm.a = arm.ctx->RandomMatrix(n, n, block, 301, 0.0, 10.0).value();
    arm.b = arm.ctx->RandomMatrix(n, n, block, 302, 0.0, 10.0).value();
    return arm;
  };
  auto time_arm = [&](Arm* arm) {
    Sac* ctx = arm->ctx.get();
    arm->result.row =
        TimeQuery(ctx, "abl_transport", arm->series, n, n * n, [&] {
          auto r = algo::Multiply(ctx, arm->a, arm->b);
          SAC_BENCH_CHECK(r);
          arm->c = std::move(r).value();
        });
    arm->times_ms.push_back(arm->result.row.time_ms);
  };
  // Reports the arm with its median time, captures its trace and
  // fetches its product.
  auto close_arm = [&](BenchReporter* reporter, Arm* arm) {
    std::vector<double> t = arm->times_ms;
    std::sort(t.begin(), t.end());
    arm->result.row.time_ms = t[t.size() / 2];
    reporter->Report(arm->result.row);
    reporter->CaptureTrace(arm->ctx.get());
    arm->result.product = arm->ctx->ToLocal(arm->c).value();
  };
  auto run = [&](BenchReporter* reporter, const std::string& series,
                 runtime::ClusterConfig cfg) -> RunResult {
    Arm arm = open_arm(series, cfg);
    time_arm(&arm);
    close_arm(reporter, &arm);
    return arm.result;
  };

  if (!chaos) {
    // ---- ablation mode: single vs loopback vs TCP, in-process --------
    if (std::getenv("SAC_WORKERS") != nullptr ||
        std::getenv("SAC_TRANSPORT") != nullptr) {
      std::fprintf(stderr,
                   "TRANSPORT GATE VIOLATION: SAC_WORKERS/SAC_TRANSPORT "
                   "set; they would override the single-process "
                   "baseline (use --chaos for the external cluster)\n");
      return 1;
    }
    PrintHeader(
        "Transport ablation: fig4b multiply, single process vs 3 workers "
        "over loopback vs TCP");
    BenchReporter reporter("abl_transport", argc, argv);

    auto dist_cfg = [&](const char* transport) {
      runtime::ClusterConfig cfg = BenchCluster();
      cfg.workers = "3";
      cfg.transport = transport;
      // No background heartbeat: its pings would smear nondeterministic
      // wire bytes over the loopback-vs-TCP equality gate below.
      cfg.heartbeat_interval_ms = 0;
      return cfg;
    };
    constexpr int kRounds = 5;
    Arm arms[] = {open_arm("single", BenchCluster()),
                  open_arm("loopback-3w", dist_cfg("loopback")),
                  open_arm("tcp-3w", dist_cfg("tcp"))};
    for (int round = 0; round < kRounds; ++round) {
      for (Arm& arm : arms) time_arm(&arm);
    }
    for (Arm& arm : arms) close_arm(&reporter, &arm);
    const RunResult& single = arms[0].result;
    const RunResult& lo = arms[1].result;
    const RunResult& tcp = arms[2].result;

    expect(SameTile(single.product, lo.product),
           "loopback product differs from single-process");
    expect(SameTile(single.product, tcp.product),
           "tcp product differs from single-process");
    expect(single.row.totals.dist_bytes_sent == 0,
           "single-process run metered dist wire bytes");
    expect(lo.row.totals.dist_bytes_sent > 0,
           "loopback run moved no wire bytes; the transport never ran");
    expect(tcp.row.totals.dist_bytes_received > 0,
           "tcp run received no wire bytes");
    expect(lo.row.totals.dist_bytes_sent == tcp.row.totals.dist_bytes_sent &&
               lo.row.totals.dist_bytes_received ==
                   tcp.row.totals.dist_bytes_received,
           "loopback and tcp wire-byte accounting disagree (same buckets, "
           "same codec: they must be identical)");
    // Shuffle accounting: executor-local bytes (moved as Values) plus
    // serialized cross-executor bytes is transport-independent --
    // distribution changes where bucket bytes live, never how many there
    // are -- and every serialized byte crossed the wire.
    for (const RunResult* r : {&lo, &tcp}) {
      const MetricsSnapshot& s = single.row.totals;
      const MetricsSnapshot& d = r->row.totals;
      expect(d.local_shuffle_bytes == s.local_shuffle_bytes &&
                 d.shuffle_bytes == s.shuffle_bytes &&
                 d.shuffle_records == s.shuffle_records,
             "shuffle-byte accounting changed under distribution");
      expect(d.shuffle_bytes == d.cross_executor_bytes,
             "a serialized shuffle byte stayed on its executor");
      expect(d.dist_bytes_sent >= d.shuffle_bytes,
             "serialized shuffle bytes never crossed the transport");
    }
    expect(lo.row.totals.workers_lost == 0 &&
               tcp.row.totals.workers_lost == 0,
           "a healthy run lost workers");
    // Loose overhead bound: TCP adds syscalls and memcpy per RPC, not
    // algorithmic work; blowing far past loopback means a transport
    // pathology (per-call reconnects, lost parked connections).
    expect(tcp.row.time_ms <= lo.row.time_ms * 10.0 + 2000.0,
           "tcp overhead exceeds 10x loopback + 2s");

    if (violations > 0) {
      std::fprintf(stderr, "transport gate: %d violation(s)\n", violations);
      return 1;
    }
    std::printf(
        "transport gate: ok (dist wire %.2f MB each way in %llu RPCs; "
        "medians of %d interleaved runs: single %.1f ms, loopback %.1f ms "
        "(%.2fx single), tcp %.1f ms (%.2fx single))\n",
        tcp.row.totals.dist_bytes_sent / 1048576.0,
        static_cast<unsigned long long>(tcp.row.totals.dist_rpcs), kRounds,
        single.row.time_ms, lo.row.time_ms,
        lo.row.time_ms / single.row.time_ms, tcp.row.time_ms,
        tcp.row.time_ms / single.row.time_ms);
    return 0;
  }

  // ---- chaos mode: external cluster, kill -9 one worker mid-shuffle --
  const char* workers_env = std::getenv("SAC_WORKERS");
  if (workers_env == nullptr || *workers_env == '\0') {
    std::fprintf(stderr,
                 "chaos mode needs SAC_WORKERS=host:port,... naming "
                 "running sac_worker processes\n");
    return 2;
  }
  const std::string workers = workers_env;

  PrintHeader(
      "Transport chaos: fig4b multiply over external workers, one killed "
      "mid-shuffle");
  BenchReporter reporter("abl_transport_chaos", argc, argv);

  // Baseline first, with the env cleared so the engine stays
  // single-process (the env override wins over config by design).
  ::unsetenv("SAC_WORKERS");
  ::unsetenv("SAC_TRANSPORT");
  const RunResult baseline = run(&reporter, "single", BenchCluster());
  ::setenv("SAC_WORKERS", workers.c_str(), 1);

  planner::PlannerOptions popts;
  popts.auto_strategy = false;
  Sac ctx(BenchCluster(), popts);  // env routes it to the external cluster
  runtime::Engine& eng = ctx.engine();
  if (!eng.distributed()) {
    std::fprintf(stderr, "chaos: engine did not come up distributed\n");
    return 2;
  }
  const int victim = eng.coordinator()->num_workers() - 1;
  const uint64_t victim_pid = eng.coordinator()->WorkerPid(victim);
  expect(victim_pid > 0, "coordinator never learned the victim's pid");

  auto a = ctx.RandomMatrix(n, n, block, 301, 0.0, 10.0).value();
  auto b = ctx.RandomMatrix(n, n, block, 302, 0.0, 10.0).value();

  // The assassin: once half of the shuffle's cross-executor bytes are
  // on the wire (the push phase -- SAC_WORKER_DELAY_US on the workers
  // stretches it), the victim dies for real. Halfway, every worker
  // already holds buckets (pushes spread over all of them), so the kill
  // loses stored data and lineage must re-execute it. kill -9: no flush,
  // no goodbye, exactly the failure docs/FAULT_MODEL.md promises to
  // survive.
  const uint64_t kill_after_bytes =
      std::max<uint64_t>(8192, baseline.row.totals.shuffle_bytes / 2);
  std::atomic<bool> killed{false};
  std::atomic<bool> stop{false};
  std::thread assassin([&] {
    for (int i = 0; i < 30000 && !stop.load(); ++i) {
      if (eng.metrics().Snapshot().dist_bytes_sent > kill_after_bytes) {
        ::kill(static_cast<pid_t>(victim_pid), SIGKILL);
        killed.store(true);
        std::fprintf(stderr, "chaos: killed worker %d (pid %llu)\n", victim,
                     static_cast<unsigned long long>(victim_pid));
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // One run, timed by hand: TimeQuery's per-rep ResetStats would wipe
  // the workers_lost/reexecuted evidence the gate needs.
  ctx.ResetStats();
  Stopwatch sw;
  storage::TiledMatrix c;
  {
    auto r = algo::Multiply(&ctx, a, b);
    SAC_BENCH_CHECK(r);
    c = std::move(r).value();
  }
  Row row{};
  row.figure = "abl_transport";
  row.series = "tcp-chaos";
  row.n = n;
  row.elements = n * n;
  row.time_ms = sw.ElapsedMillis();
  row.totals = ctx.metrics().Snapshot();
  row.stages = ctx.stages().Snapshot();
  row.shuffle_mb = row.totals.shuffle_bytes / (1024.0 * 1024.0);
  reporter.Report(row);
  reporter.CaptureTrace(&ctx);
  stop.store(true);
  assassin.join();

  const la::Tile product = ctx.ToLocal(c).value();
  expect(killed.load(), "assassin never fired: no wire bytes flowed");
  expect(SameTile(baseline.product, product),
         "post-kill product is not byte-identical to single-process");
  expect(row.totals.workers_lost >= 1,
         "the kill was never detected (workers_lost == 0)");
  expect(row.totals.partitions_reexecuted > 0,
         "no lineage re-execution despite a dead worker");
  expect(row.totals.dist_bytes_sent > 0, "no wire bytes metered");

  if (violations > 0) {
    std::fprintf(stderr, "chaos gate: %d violation(s)\n", violations);
    return 1;
  }
  std::printf(
      "chaos gate: ok (killed pid %llu mid-shuffle; %llu worker(s) lost, "
      "%llu partition(s) re-executed, product byte-identical)\n",
      static_cast<unsigned long long>(victim_pid),
      static_cast<unsigned long long>(row.totals.workers_lost),
      static_cast<unsigned long long>(row.totals.partitions_reexecuted));
  return 0;
}
