// The coordinator <-> worker protocol (docs/DISTRIBUTED.md): five
// request/response pairs carried as net::Frame payloads. Workers host
// shuffle buckets -- the serialized per-destination byte buffers the
// map side produces -- keyed by (shuffle_id, parent, src, dest); the
// driver pushes them after the map phase and fetches them at reduce
// time, so in distributed mode every cross-executor shuffle byte
// genuinely crosses the transport. Bucket traffic is batched: a map
// task pushes all its buckets bound for one worker in one kPutBuckets,
// and a reduce task fetches all its buckets in one kGetBuckets.
//
// Error handling: a worker never fails a frame at the transport layer.
// Protocol-level failures come back as a kError frame whose payload is
// (status code, message); StatusFromFrame() rehydrates the Status on the
// driver. A batched fetch answers per bucket: a bucket the worker does
// not host comes back missing -- with its worker dead, the bytes are
// gone and the driver re-executes that bucket's map side from lineage
// (docs/FAULT_MODEL.md). Malformed batched payloads decode as DataLoss.
#ifndef SAC_DIST_PROTOCOL_H_
#define SAC_DIST_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/serialize.h"
#include "src/common/status.h"
#include "src/net/frame.h"

namespace sac::dist {

enum MsgType : uint32_t {
  kPing = 1,         // liveness probe; response carries worker vitals
  kPingOk = 2,
  kDropShuffle = 7,  // free every bucket of a finished shuffle
  kDropShuffleOk = 8,
  kShutdown = 9,     // ask the worker process to exit cleanly
  kShutdownOk = 10,
  kPutBuckets = 11,  // store a batch of buckets (idempotent overwrite)
  kPutBucketsOk = 12,
  kGetBuckets = 13,  // fetch a batch of buckets, answered per bucket
  kGetBucketsOk = 14,
  kError = 100,      // response-only: (status code, message)
};

/// Identity of one shuffle bucket: the serialized records of source
/// partition `src` of parent `parent` bound for destination partition
/// `dest`, within engine-wide shuffle `shuffle_id`.
struct BucketId {
  uint64_t shuffle_id = 0;
  int32_t parent = 0;
  int32_t src = 0;
  int32_t dest = 0;

  std::string ToString() const;
};

bool operator<(const BucketId& a, const BucketId& b);

/// Serialized size of a BucketId (u64 shuffle_id + 3x u32).
inline constexpr size_t kBucketIdBytes = 8 + 3 * 4;

void EncodeBucketId(const BucketId& id, ByteWriter* w);
Result<BucketId> DecodeBucketId(ByteReader* r);

/// Bucket bytes one batched RPC carries at most. A frame's payload is
/// capped at net::kMaxFramePayload, and a map task's buckets for one
/// worker (or a reduce task's buckets) can sum past it on a large
/// shuffle, so a batch that would exceed this splits.
inline constexpr size_t kMaxBatchBytes = 64u << 20;  // 64 MiB

/// Splits `items` into consecutive runs whose sizes (`size_of(item)`)
/// sum to at most `max_bytes`; an item larger than that runs alone. One
/// batched RPC per run, in order.
template <typename T, typename SizeFn>
std::vector<std::vector<T>> SplitBatches(const std::vector<T>& items,
                                         SizeFn size_of,
                                         size_t max_bytes = kMaxBatchBytes) {
  std::vector<std::vector<T>> runs;
  size_t run_bytes = 0;
  for (const T& item : items) {
    const size_t bytes = size_of(item);
    if (runs.empty() || run_bytes + bytes > max_bytes) {
      runs.emplace_back();
      run_bytes = 0;
    }
    runs.back().push_back(item);
    run_bytes += bytes;
  }
  return runs;
}

/// One bucket of a batched push: its id and its bytes, which the caller
/// keeps alive until the push returns.
struct BucketBytes {
  BucketId id;
  const std::vector<uint8_t>* bytes = nullptr;
};

/// Where one bucket's bytes sit inside a received payload.
struct Slice {
  size_t offset = 0;
  size_t size = 0;
};

/// kPutBuckets payload: u32 count, then per bucket its BucketId and a
/// u32 size; then the buckets' bytes back to back, in the same order
/// (the layout of a kGetBucketsOk answer). Encoding writes the table to
/// `head` and returns the bytes as views of the callers' buffers, to go
/// to the transport as the request's tail without being copied.
/// Decoding yields slices of the received payload, so a worker can keep
/// that buffer instead of copying each bucket out.
std::vector<net::ByteView> EncodePutBuckets(
    const std::vector<BucketBytes>& buckets, std::vector<uint8_t>* head);
Result<std::vector<std::pair<BucketId, Slice>>> DecodePutBuckets(
    const std::vector<uint8_t>& payload);

/// kGetBuckets payload: u32 count, then the BucketIds.
void EncodeGetBuckets(const std::vector<BucketId>& ids,
                      std::vector<uint8_t>* payload);
Result<std::vector<BucketId>> DecodeGetBuckets(
    const std::vector<uint8_t>& payload);

/// kGetBucketsOk payload: u32 count, then per requested id, in request
/// order, a u8 found flag and, when found, a u32 size; then the found
/// buckets' bytes back to back, in the same order (so a worker can send
/// them straight from its store as the reply's tail). Decoding checks
/// the count against the request and yields slices of `payload`; a
/// missing bucket is nullopt.
Result<std::vector<std::optional<Slice>>> DecodeGetBucketsReply(
    const std::vector<uint8_t>& payload, size_t expected);

/// Worker vitals carried by a kPingOk response. `pid` is how the chaos
/// harness finds its kill -9 target.
struct PingInfo {
  uint64_t pid = 0;
  uint64_t num_buckets = 0;
  uint64_t hosted_bytes = 0;
};

void EncodePingInfo(const PingInfo& info, ByteWriter* w);
Result<PingInfo> DecodePingInfo(ByteReader* r);

/// Builds a kError response frame carrying `st` (which must not be OK).
net::Frame MakeErrorFrame(const Status& st);

/// If `f` is a kError frame, the carried Status; OK otherwise. A
/// malformed error payload decodes as DataLoss.
Status StatusFromFrame(const net::Frame& f);

}  // namespace sac::dist

#endif  // SAC_DIST_PROTOCOL_H_
