// Transport: the request/response channel behind the distributed shuffle
// (docs/DISTRIBUTED.md). The coordinator speaks only this interface, so
// swapping loopback for TCP changes where the bytes go, not any shuffle
// logic. Two implementations:
//   * LoopbackTransport (src/net/loopback.h) -- in-process workers; every
//     call still round-trips through the frame codec so the two paths are
//     byte-for-byte symmetric.
//   * TcpTransport (src/net/tcp.h) -- length-prefixed framed streams with
//     per-peer connection reuse.
#ifndef SAC_NET_TRANSPORT_H_
#define SAC_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/net/frame.h"

namespace sac::net {

/// A peer's service function: one received request in (the callee owns
/// it, so a worker can keep the payload buffer it was handed), one reply
/// out (a plain Frame converts). Protocol-level errors travel inside the
/// reply (dist::MsgType::kError), never as exceptions.
using Handler = std::function<Reply(Frame)>;

/// Where one Call's time went, as trace::NowMicros() stamps. A caller
/// that traces passes one to Call; with none, the transport reads no
/// clock.
struct CallStamps {
  uint64_t encoded = 0;   // request header built, payload CRC computed
  uint64_t received = 0;  // response in hand, header and CRC checked
};

/// A peer is addressed by its dense index into the worker list (the
/// coordinator's placement maps executors onto these indices).
class Transport {
 public:
  virtual ~Transport() = default;

  /// "loopback" | "tcp" (reported in BENCH json and ReportString).
  virtual const char* name() const = 0;

  virtual int num_peers() const = 0;

  /// Sends `request` to `peer` and blocks for the matching response
  /// frame. Thread-safe; concurrent calls to the same peer are allowed.
  /// The transport assigns and verifies the frame sequence number, so
  /// callers leave `request.seq` as 0. Failure codes:
  ///   * Unavailable -- peer unreachable / connection lost mid-call (the
  ///     coordinator treats this as evidence of worker death)
  ///   * DataLoss / InvalidArgument -- corrupt or oversized frame
  /// The request's payload on the wire is `request.payload` followed by
  /// `tail`, which the caller keeps alive for the call. Neither side
  /// copies either into a wire buffer: the header is encoded apart and
  /// sent beside them.
  virtual Result<Frame> Call(int peer, const Frame& request,
                             const std::vector<ByteView>& tail,
                             CallStamps* stamps) = 0;
  Result<Frame> Call(int peer, const Frame& request,
                     CallStamps* stamps = nullptr) {
    return Call(peer, request, {}, stamps);
  }

  /// Cumulative wire bytes in each direction (headers + payloads),
  /// including failed calls' partial traffic where measurable.
  virtual uint64_t bytes_sent() const = 0;
  virtual uint64_t bytes_received() const = 0;
};

}  // namespace sac::net

#endif  // SAC_NET_TRANSPORT_H_
