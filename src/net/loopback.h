// In-process Transport: peers are handler closures (each wrapping a
// dist::WorkerState). Every Call still encodes and validates a frame
// header (magic, length, payload CRC) in both directions, as the TCP
// path does, so the two have identical framing, CRC checking and byte
// accounting and are interchangeable under tests (docs/DISTRIBUTED.md).
// Only the socket is missing: the request payload is copied once, into
// the frame the handler owns (the bytes a TCP worker would have read),
// and the reply moves back, its tail copied after its payload (the
// bytes the TCP driver would have read). This is the
// default transport: with no workers configured the engine never builds
// one, and with SAC_WORKERS=<n> it reproduces single-process results
// bit-for-bit while hosting shuffle buckets in worker objects.
#ifndef SAC_NET_LOOPBACK_H_
#define SAC_NET_LOOPBACK_H_

#include <atomic>
#include <mutex>
#include <vector>

#include "src/net/transport.h"

namespace sac::net {

class LoopbackTransport : public Transport {
 public:
  using Handler = net::Handler;

  /// Registers a peer; returns its index. Call before the first Call().
  int AddPeer(Handler handler);

  /// Simulates worker death: while down, Call(peer, ...) returns
  /// Unavailable without touching the handler (tests / chaos).
  void SetPeerDown(int peer, bool down);

  const char* name() const override { return "loopback"; }
  int num_peers() const override;
  using Transport::Call;
  Result<Frame> Call(int peer, const Frame& request,
                     const std::vector<ByteView>& tail,
                     CallStamps* stamps) override;
  uint64_t bytes_sent() const override {
    return sent_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_received() const override {
    return received_.load(std::memory_order_relaxed);
  }

 private:
  struct Peer {
    Handler handler;
    bool down = false;
  };

  mutable std::mutex mu_;  // guards peers_ membership + down flags
  std::vector<Peer> peers_;
  std::atomic<uint64_t> next_seq_{1};
  std::atomic<uint64_t> sent_{0};
  std::atomic<uint64_t> received_{0};
};

}  // namespace sac::net

#endif  // SAC_NET_LOOPBACK_H_
