// WorkerState: the partition-hosting executor loop's brain. One instance
// serves one worker, whether that worker is an in-process loopback peer,
// an in-process TcpServer (the engine's SAC_TRANSPORT=tcp with a worker
// *count*), or a separate sac_worker process. It stores shuffle buckets
// keyed by BucketId and answers the dist protocol; everything else --
// placement, liveness, retries -- lives on the driver (coordinator).
// A batched put keeps the payload buffer it received and stores slices
// of it, and a batched fetch answers with those slices as its reply's
// tail, so hosting and serving a bucket copy no bytes.
//
// Handle() is the single entry point and is thread-safe (a TcpServer
// runs one service thread per connection). It never fails at the frame
// layer: protocol errors become kError response frames.
#ifndef SAC_DIST_WORKER_H_
#define SAC_DIST_WORKER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "src/dist/protocol.h"
#include "src/net/frame.h"

namespace sac::dist {

class WorkerState {
 public:
  /// Serves one request frame. Unknown types and malformed payloads come
  /// back as kError frames (never a crash: the peer may be hostile).
  net::Reply Handle(net::Frame req);

  // ---- vitals (also reported via kPing) -------------------------------
  uint64_t num_buckets() const;
  uint64_t hosted_bytes() const;
  /// Set once a kShutdown frame arrives; the sac_worker main loop polls
  /// this to exit cleanly.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  // ---- chaos hooks ----------------------------------------------------
  /// After `n` more successfully served requests, every request answers
  /// kError/Unavailable -- an in-process stand-in for kill -9 (the
  /// coordinator treats the worker as dead). UINT64_MAX disables.
  void FailAfter(uint64_t n) {
    budget_.store(n, std::memory_order_release);
  }
  /// Sleeps this long before storing each bucket of a kPutBuckets
  /// (sac_worker reads SAC_WORKER_DELAY_US into it): per bucket, not per
  /// RPC, so batching does not shorten the window. It stretches the
  /// shuffle so a chaos kill reliably lands mid-stream, and doubles as a
  /// crude slow-network simulation.
  void set_put_delay_us(int64_t us) {
    put_delay_us_.store(us, std::memory_order_release);
  }

 private:
  Result<net::Reply> Dispatch(net::Frame req);
  Result<net::Reply> PutBuckets(std::vector<uint8_t> payload);
  Result<net::Reply> GetBuckets(const std::vector<uint8_t>& payload);

  mutable std::mutex mu_;  // guards buckets_ / hosted_bytes_
  // Each bucket is a slice of the put payload that carried it. Ordered
  // by (shuffle_id, parent, src, dest): a shuffle's buckets are one key
  // range.
  std::map<BucketId, net::SharedSlice> buckets_;
  uint64_t hosted_bytes_ = 0;

  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> budget_{UINT64_MAX};
  std::atomic<int64_t> put_delay_us_{0};
};

}  // namespace sac::dist

#endif  // SAC_DIST_WORKER_H_
