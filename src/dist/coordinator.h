// Coordinator: the driver-side brain of the distributed shuffle
// (docs/DISTRIBUTED.md). It owns the Transport and answers three
// questions for Engine::ExecuteShuffle:
//
//  * Placement -- which worker hosts executor e's shuffle buckets?
//    Round-robin over the *live* worker set, so a death automatically
//    re-places the dead worker's executors onto survivors (the placement
//    epoch bumps, which is how in-flight fetches learn the map moved).
//  * Liveness -- a heartbeat thread pings every worker; enough
//    consecutive missed pings (heartbeat_timeout_ms of silence) mark it
//    dead, metered as workers_lost and traced as a "worker-lost:"
//    instant. RPC-level connection failures mark the worker dead
//    immediately (the kill -9 case: the kernel answers RST long before
//    the heartbeat would time out).
//  * Bucket RPCs -- PushBuckets / FetchBuckets / DropShuffle with the
//    task retry/backoff shape (base * 2^(k-1), capped, bounded
//    attempts). A push sends one kPutBuckets per destination worker and
//    re-places a dead worker's share onto survivors, so it survives any
//    death as long as one worker lives; a fetch sends one kGetBuckets
//    and answers per bucket, and a bucket that died with its worker
//    comes back missing -- the engine's signal to re-execute that
//    bucket's map side from lineage (partitions_reexecuted).
//
// Wire traffic is metered into dist_bytes_sent / dist_bytes_received /
// dist_rpcs through the caller's MeterSink; RPCs no stage asked for
// (connect, heartbeat, drop) meter onto the engine totals only. With
// the tracer on, every batched push and fetch records a "wire" span
// under the running task, split into wire:encode (payload + header +
// CRC), wire:call (transport round trip, the response's CRC check
// included) and wire:decode (payload parse).
#ifndef SAC_DIST_COORDINATOR_H_
#define SAC_DIST_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/dist/protocol.h"
#include "src/net/transport.h"

namespace sac::dist {

struct CoordinatorOptions {
  int num_executors = 1;
  // Retry/backoff for bucket RPCs, same shape and defaults as the task
  // retry policy (ClusterConfig::max_task_attempts / retry_*_delay_us).
  int max_attempts = 3;
  int retry_base_delay_us = 200;
  int retry_max_delay_us = 20000;
  // Liveness: ping period, and how much silence equals death. <= 0
  // interval disables the background thread (tests drive SweepOnce()).
  int heartbeat_interval_ms = 100;
  int heartbeat_timeout_ms = 1000;
};

class Coordinator {
 public:
  /// `totals` receives dist metering not attributable to a stage
  /// (heartbeats) and the workers_lost counter; `tracer` may be null.
  Coordinator(std::unique_ptr<net::Transport> transport,
              CoordinatorOptions opts, Metrics* totals,
              trace::Tracer* tracer);
  ~Coordinator();  // stops the heartbeat thread

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Pings every worker once; fails if any is unreachable (engine
  /// construction fails fast on a misconfigured cluster). Caches pids.
  Status ConnectAll();

  void StartHeartbeat();
  void StopHeartbeat();

  // ---- identity / placement ------------------------------------------
  const net::Transport& transport() const { return *transport_; }
  int num_workers() const { return transport_->num_peers(); }
  int live_workers() const;
  /// Bumped by every MarkDead; a fetch that fails can compare epochs to
  /// tell "already re-pushed under this placement" from "placement moved
  /// again" (Engine::ExecuteShuffle's recovery loop).
  uint64_t placement_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }
  /// The live worker hosting executor `executor`'s buckets;
  /// Unavailable once every worker is dead.
  Result<int> WorkerOf(int executor) const;
  /// OS pid of `worker` from its last ping (0 if never seen) -- the
  /// chaos harness's kill target.
  uint64_t WorkerPid(int worker) const;

  /// Fresh engine-wide shuffle id (bucket keys never collide across
  /// stages or reruns).
  uint64_t NextShuffleId() {
    return next_shuffle_.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- bucket RPCs ----------------------------------------------------
  /// One bucket to push and the executor it is bound for (placement
  /// picks the worker).
  struct OutgoingBucket {
    int executor = 0;
    BucketBytes bucket;
  };

  /// Stores every bucket on the worker hosting its executor, one
  /// kPutBuckets RPC per worker (per kMaxBatchBytes of buckets). A
  /// worker that turns out dead is marked so, and its share is re-placed
  /// and retried with backoff; fails only when no worker is left or
  /// attempts run out.
  Status PushBuckets(const MeterSink& sink,
                     const std::vector<OutgoingBucket>& buckets);

  /// A batched fetch's answer: per requested id, in request order, the
  /// slice of `payload` holding its bytes, or nullopt when the worker
  /// does not host it (it died with a worker: re-execute its map side,
  /// re-push, and fetch it again).
  struct FetchedBuckets {
    std::vector<uint8_t> payload;
    std::vector<std::optional<Slice>> buckets;
  };

  /// Fetches `ids`, all bound for executor `executor`, in one
  /// kGetBuckets RPC to the worker hosting it (retried across deaths).
  /// The caller keeps a batch within kMaxBatchBytes (SplitBatches).
  Result<FetchedBuckets> FetchBuckets(const MeterSink& sink, int executor,
                                      const std::vector<BucketId>& ids);

  /// Frees shuffle `sid`'s buckets on every live worker. Best-effort:
  /// a dead worker's buckets died with it.
  void DropShuffle(uint64_t sid);

  /// Asks every live worker process to exit (sac_worker honors it;
  /// in-process workers just set a flag). Best-effort.
  void ShutdownWorkers();

  // ---- liveness -------------------------------------------------------
  /// One heartbeat pass over the live set (the background thread's body;
  /// exposed so tests can drive liveness deterministically).
  void SweepOnce();
  /// Marks `worker` dead: placement re-routes its executors, epoch
  /// bumps, workers_lost meters. Idempotent; false if already dead.
  bool MarkDead(int worker, const std::string& why);

 private:
  /// One raw RPC to a fixed worker, metering wire bytes and the RPC.
  /// The request's payload continues in `tail` (see net::Transport).
  /// kError frames decode into their carried Status. `stamps` (null
  /// unless tracing) receives the transport's timing.
  Result<net::Frame> CallWorker(const MeterSink& sink, int worker,
                                const net::Frame& req,
                                const std::vector<net::ByteView>& tail = {},
                                net::CallStamps* stamps = nullptr);
  /// The RPC retry loop: resolve the executor's worker, call, and on an
  /// Unavailable answer mark the worker dead, back off, re-place, and
  /// try again. Non-Unavailable errors return immediately.
  Result<net::Frame> CallExecutor(const MeterSink& sink, int executor,
                                  const net::Frame& req,
                                  net::CallStamps* stamps);
  /// One kPutBuckets RPC carrying `run` to `worker`, with its wire spans.
  Status PutBatch(const MeterSink& sink, int worker,
                  const std::vector<const OutgoingBucket*>& run);
  /// Sleeps out retry `attempt`'s backoff (none after the last).
  void Backoff(int attempt, int64_t* delay_us) const;
  void HeartbeatLoop();

  std::unique_ptr<net::Transport> transport_;
  const CoordinatorOptions opts_;
  const MeterSink totals_;  // the engine totals alone
  trace::Tracer* tracer_;

  mutable std::mutex mu_;  // guards alive_ / pids_ / missed_ms_
  std::vector<uint8_t> alive_;
  std::vector<uint64_t> pids_;
  std::vector<int> missed_ms_;  // consecutive heartbeat silence per worker

  std::atomic<uint64_t> epoch_{1};
  std::atomic<uint64_t> next_shuffle_{1};

  std::thread heartbeat_;
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;  // guarded by hb_mu_
};

}  // namespace sac::dist

#endif  // SAC_DIST_COORDINATOR_H_
