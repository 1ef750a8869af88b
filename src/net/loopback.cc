#include "src/net/loopback.h"

#include <string>
#include <utility>

#include "src/common/trace.h"

namespace sac::net {

namespace {

/// The receiving end of a frame: validates `header` against `payload`
/// exactly as a stream reader would (magic, size cap, length, CRC).
Result<FrameHeader> Receive(const uint8_t* header,
                            const std::vector<uint8_t>& payload) {
  SAC_ASSIGN_OR_RETURN(FrameHeader h,
                       DecodeFrameHeader(header, kFrameHeaderBytes));
  if (h.payload_len != payload.size()) {
    return Status::DataLoss("loopback: header says " +
                            std::to_string(h.payload_len) +
                            " payload bytes, frame carries " +
                            std::to_string(payload.size()));
  }
  SAC_RETURN_NOT_OK(CheckPayloadCrc(h, payload.data()));
  return h;
}

}  // namespace

int LoopbackTransport::AddPeer(Handler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  peers_.push_back(Peer{std::move(handler), false});
  return static_cast<int>(peers_.size()) - 1;
}

void LoopbackTransport::SetPeerDown(int peer, bool down) {
  std::lock_guard<std::mutex> lock(mu_);
  if (peer >= 0 && peer < static_cast<int>(peers_.size())) {
    peers_[peer].down = down;
  }
}

int LoopbackTransport::num_peers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(peers_.size());
}

Result<Frame> LoopbackTransport::Call(int peer, const Frame& request,
                                      const std::vector<ByteView>& tail,
                                      CallStamps* stamps) {
  Handler handler;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (peer < 0 || peer >= static_cast<int>(peers_.size())) {
      return Status::InvalidArgument("loopback: no peer " +
                                     std::to_string(peer));
    }
    if (peers_[peer].down) {
      return Status::Unavailable("loopback: peer " + std::to_string(peer) +
                                 " is down");
    }
    handler = peers_[peer].handler;
  }

  // Request: header + CRC on the driver side, then the payload pieces
  // arrive back to back and are validated on the worker side, as on a
  // socket.
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<ByteView> pieces = PayloadPieces(request, tail);
  uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(request.type, seq, pieces, header);
  if (stamps) stamps->encoded = trace::NowMicros();
  Frame delivered;
  delivered.payload.reserve(PiecesSize(pieces));
  for (const ByteView& p : pieces) {
    delivered.payload.insert(delivered.payload.end(), p.data,
                             p.data + p.size);
  }
  sent_.fetch_add(kFrameHeaderBytes + delivered.payload.size(),
                  std::memory_order_relaxed);
  SAC_ASSIGN_OR_RETURN(const FrameHeader req_h,
                       Receive(header, delivered.payload));
  delivered.type = req_h.type;
  delivered.seq = req_h.seq;

  // Response: the same in the other direction. The reply's payload
  // moves, and its tail is copied after it, as a stream reader would
  // receive it.
  Reply reply = handler(std::move(delivered));
  EncodeFrameHeader(reply.frame.type, seq, PayloadPieces(reply), header);
  Frame response = Flatten(std::move(reply));
  received_.fetch_add(EncodedSize(response), std::memory_order_relaxed);
  SAC_ASSIGN_OR_RETURN(const FrameHeader resp_h,
                       Receive(header, response.payload));
  if (stamps) stamps->received = trace::NowMicros();
  response.type = resp_h.type;
  response.seq = resp_h.seq;
  return response;
}

}  // namespace sac::net
