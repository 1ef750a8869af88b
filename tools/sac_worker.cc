// sac_worker: one partition-hosting worker process. It owns nothing but
// a dist::WorkerState (the bucket store) and a net::TcpServer that feeds
// it frames; placement, liveness, and retries all live on the driver
// (src/dist/coordinator.h). scripts/check.sh launches three of these on
// localhost for the chaos gate, then kill -9s one mid-shuffle.
//
// Usage: sac_worker [--port=N]        (N=0 or absent: kernel-assigned)
//
// Environment:
//   SAC_WORKER_DELAY_US  sleep before storing each bucket of a batched
//                        PutBuckets -- per bucket, not per RPC, so
//                        batching does not shorten the window; stretches
//                        the shuffle so a chaos kill lands mid-stream
//                        (docs/DISTRIBUTED.md).
//
// Prints exactly one readiness line to stdout once the listener is live:
//   sac_worker ready port=<port> pid=<pid>
// Harnesses parse it for the bound port (ephemeral-port runs) and the
// kill target. Exits 0 on SIGTERM/SIGINT or a kShutdown frame.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "src/dist/worker.h"
#include "src/net/tcp.h"

namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int /*sig*/) { g_stop.store(true, std::memory_order_release); }

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--port=", 7) == 0) {
      port = std::atoi(argv[i] + 7);
    } else {
      std::fprintf(stderr, "usage: %s [--port=N]\n", argv[0]);
      return 2;
    }
  }

  sac::dist::WorkerState state;
  if (const char* delay = std::getenv("SAC_WORKER_DELAY_US")) {
    state.set_put_delay_us(std::atoll(delay));
  }

  sac::net::TcpServer server(
      [&state](sac::net::Frame f) { return state.Handle(std::move(f)); });
  const sac::Status st = server.Start(port);
  if (!st.ok()) {
    std::fprintf(stderr, "sac_worker: %s\n", st.ToString().c_str());
    return 1;
  }

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);

  std::printf("sac_worker ready port=%d pid=%d\n", server.port(),
              static_cast<int>(::getpid()));
  std::fflush(stdout);

  while (!g_stop.load(std::memory_order_acquire) &&
         !state.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  return 0;
}
