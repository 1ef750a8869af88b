#include "src/dist/worker.h"

#include <unistd.h>

#include <chrono>
#include <limits>
#include <thread>
#include <utility>

namespace sac::dist {

namespace {

net::Reply OkReply(uint32_t type) {
  net::Frame f;
  f.type = type;
  return f;
}

/// The smallest key of shuffle `sid`: its buckets are [First(sid),
/// First(sid + 1)).
BucketId First(uint64_t sid) {
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  return BucketId{sid, kMin, kMin, kMin};
}

}  // namespace

net::Reply WorkerState::Handle(net::Frame req) {
  // Chaos budget: once spent, the worker answers Unavailable for
  // everything -- indistinguishable, to the coordinator, from a dead
  // process (tests/transport_test.cc uses this for in-process chaos).
  uint64_t b = budget_.load(std::memory_order_acquire);
  while (b != UINT64_MAX) {
    if (b == 0) {
      return MakeErrorFrame(
          Status::Unavailable("worker failed (induced fault budget spent)"));
    }
    if (budget_.compare_exchange_weak(b, b - 1,
                                      std::memory_order_acq_rel)) {
      break;
    }
  }
  Result<net::Reply> resp = Dispatch(std::move(req));
  if (!resp.ok()) return MakeErrorFrame(resp.status());
  return std::move(resp).value();
}

Result<net::Reply> WorkerState::Dispatch(net::Frame req) {
  switch (req.type) {
    case kPing: {
      PingInfo info;
      info.pid = static_cast<uint64_t>(::getpid());
      info.num_buckets = num_buckets();
      info.hosted_bytes = hosted_bytes();
      net::Reply reply = OkReply(kPingOk);
      reply.frame.payload.reserve(3 * sizeof(uint64_t));
      ByteWriter w(&reply.frame.payload);
      EncodePingInfo(info, &w);
      return reply;
    }
    case kPutBuckets:
      return PutBuckets(std::move(req.payload));
    case kGetBuckets:
      return GetBuckets(req.payload);
    case kDropShuffle: {
      ByteReader r(req.payload);
      SAC_ASSIGN_OR_RETURN(uint64_t sid, r.GetU64());
      uint64_t dropped = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        const auto lo = buckets_.lower_bound(First(sid));
        const auto hi = sid == UINT64_MAX
                            ? buckets_.end()
                            : buckets_.lower_bound(First(sid + 1));
        for (auto it = lo; it != hi; ++it) {
          hosted_bytes_ -= it->second.size;
          ++dropped;
        }
        buckets_.erase(lo, hi);
      }
      net::Reply reply = OkReply(kDropShuffleOk);
      reply.frame.payload.reserve(sizeof(uint64_t));
      ByteWriter w(&reply.frame.payload);
      w.PutU64(dropped);
      return reply;
    }
    case kShutdown: {
      shutdown_.store(true, std::memory_order_release);
      return OkReply(kShutdownOk);
    }
    default:
      return Status::InvalidArgument("unknown message type " +
                                     std::to_string(req.type));
  }
}

Result<net::Reply> WorkerState::PutBuckets(std::vector<uint8_t> payload) {
  SAC_ASSIGN_OR_RETURN(auto slices, DecodePutBuckets(payload));
  // The buckets stay where they arrived: each one is a slice of this
  // buffer, which lives until its last bucket is dropped or overwritten.
  auto buffer =
      std::make_shared<const std::vector<uint8_t>>(std::move(payload));
  const int64_t delay = put_delay_us_.load(std::memory_order_acquire);
  for (const auto& [id, slice] : slices) {
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
    }
    // Overwrite is legal and idempotent: lineage re-execution re-pushes
    // identical bytes (deterministic map side), and last-write-wins
    // keeps the store consistent either way.
    std::lock_guard<std::mutex> lock(mu_);
    net::SharedSlice& hosted = buckets_[id];
    hosted_bytes_ -= hosted.size;
    hosted = net::SharedSlice{buffer, slice.offset, slice.size};
    hosted_bytes_ += slice.size;
  }
  return OkReply(kPutBucketsOk);
}

Result<net::Reply> WorkerState::GetBuckets(
    const std::vector<uint8_t>& payload) {
  SAC_ASSIGN_OR_RETURN(const std::vector<BucketId> ids,
                       DecodeGetBuckets(payload));
  net::Reply reply = OkReply(kGetBucketsOk);
  reply.frame.payload.reserve(4 + ids.size() * 5);
  ByteWriter w(&reply.frame.payload);
  w.PutU32(static_cast<uint32_t>(ids.size()));
  std::lock_guard<std::mutex> lock(mu_);
  for (const BucketId& id : ids) {
    const auto it = buckets_.find(id);
    // A bucket missing here is the honest answer when a re-placed fetch
    // lands before a re-push: the original copy died with its worker.
    w.PutU8(it == buckets_.end() ? 0 : 1);
    if (it == buckets_.end()) continue;
    w.PutU32(static_cast<uint32_t>(it->second.size));
    // The bytes follow as the reply's tail, straight from the store.
    reply.tail.push_back(it->second);
  }
  return reply;
}

uint64_t WorkerState::num_buckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buckets_.size();
}

uint64_t WorkerState::hosted_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hosted_bytes_;
}

}  // namespace sac::dist
