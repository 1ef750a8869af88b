// Length-prefixed frame codec shared by every shuffle transport
// (docs/DISTRIBUTED.md). A frame is one request or response between the
// driver and a worker:
//
//   offset  size  field
//   0       4     magic        "SACF" (rejects a stray client instantly)
//   4       4     type         dist::MsgType (opaque to this layer)
//   8       8     seq          caller-assigned; responses echo it
//   16      4     payload_len  bytes following the header
//   20      4     crc32        IEEE CRC-32 of the payload bytes
//   24      ...   payload
//
// All integers little-endian. The codec is deliberately transport-
// agnostic: LoopbackTransport runs every call through it too, so the
// in-process path and the TCP path exercise identical framing, byte
// accounting, and corruption detection.
//
// Typed decode errors (tests/transport_test.cc pins these):
//   * truncated header or payload      -> DataLoss
//   * bad magic                        -> DataLoss
//   * payload_len over the size cap    -> InvalidArgument
//   * CRC mismatch                     -> DataLoss
#ifndef SAC_NET_FRAME_H_
#define SAC_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace sac::net {

/// One decoded message. `type` and `seq` travel in the header; `payload`
/// is an opaque byte blob (the dist layer encodes its protocol into it).
struct Frame {
  uint32_t type = 0;
  uint64_t seq = 0;
  std::vector<uint8_t> payload;
};

/// "SACF" read as a little-endian u32.
inline constexpr uint32_t kFrameMagic = 0x46434153u;
inline constexpr size_t kFrameHeaderBytes = 24;
/// Hard cap on a single frame's payload: a shuffle bucket is a slice of
/// one partition, far below this; anything larger is a corrupt length
/// field or a misbehaving peer, and pre-validating the cap keeps a bad
/// header from driving a multi-gigabyte allocation.
inline constexpr size_t kMaxFramePayload = 256u << 20;  // 256 MiB

/// IEEE CRC-32 (the zlib polynomial). On x86-64 hosts with PCLMULQDQ
/// (checked once per process) inputs of 64 bytes or more fold 16-byte
/// blocks by carry-less multiplication; elsewhere, and for short inputs
/// and the last < 16 bytes, it runs slicing-by-8: eight table lookups
/// per 8 input bytes, over three interleaved streams from 4 KiB up.
/// Both paths give the same values (docs/DISTRIBUTED.md).
uint32_t Crc32(const uint8_t* data, size_t n);
/// Continues a finished CRC-32 over `n` more bytes:
/// Crc32Extend(Crc32(a), b) == Crc32(a followed by b).
uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t n);

/// Test and benchmark seams: Crc32Extend on one path, whatever the host
/// would pick. The CLMUL path requires Crc32ClmulSupported().
uint32_t Crc32ExtendPortable(uint32_t crc, const uint8_t* data, size_t n);
uint32_t Crc32ExtendClmul(uint32_t crc, const uint8_t* data, size_t n);
bool Crc32ClmulSupported();

/// Bytes a sender keeps alive until the frame carrying them is sent.
struct ByteView {
  const uint8_t* data = nullptr;
  size_t size = 0;
};

/// Bytes inside a buffer whose ownership is shared: the slice keeps its
/// buffer alive.
struct SharedSlice {
  std::shared_ptr<const std::vector<uint8_t>> buffer;
  size_t offset = 0;
  size_t size = 0;

  const uint8_t* data() const { return buffer->data() + offset; }
  ByteView view() const { return {data(), size}; }
};

/// A handler's response. On the wire its payload is `frame.payload`
/// followed by the `tail` slices, so a worker answers a batched fetch
/// with its stored buckets as the tail and they go to the socket without
/// being copied into a reply buffer. Implicit from a Frame, so a handler
/// may simply return one.
struct Reply {
  Reply() = default;
  Reply(Frame f) : frame(std::move(f)) {}

  Frame frame;
  std::vector<SharedSlice> tail;
};

/// Bytes EncodeFrame will append for `f` (header + payload).
inline size_t EncodedSize(const Frame& f) {
  return kFrameHeaderBytes + f.payload.size();
}

/// A payload as the pieces it is sent from, in wire order: the frame's
/// own payload, then its tail. Either side of a call may carry a tail (a
/// batched push's buckets, a batched fetch's answer).
std::vector<ByteView> PayloadPieces(const Frame& f,
                                    const std::vector<ByteView>& tail);
std::vector<ByteView> PayloadPieces(const Reply& r);
/// Total bytes of `pieces`.
size_t PiecesSize(const std::vector<ByteView>& pieces);

/// Writes the kFrameHeaderBytes-byte header of a frame whose payload is
/// `pieces` back to back (the CRC runs over them here) to `out`.
/// Transports send this header and the pieces as they are, so a payload
/// is never copied into a contiguous wire buffer.
void EncodeFrameHeader(uint32_t type, uint64_t seq,
                       const std::vector<ByteView>& pieces, uint8_t* out);

/// Wire bytes of `r` (header + payload + tail).
size_t EncodedSize(const Reply& r);

/// `r` as one frame, the tail copied after the payload: what the
/// receiving end of a wire holds.
Frame Flatten(Reply r);

/// Appends the wire encoding of `f` (header + payload) to `*out`.
void EncodeFrame(const Frame& f, std::vector<uint8_t>* out);

/// The fixed-size header, validated but not yet paired with its payload.
/// Stream transports read exactly kFrameHeaderBytes, decode this, then
/// read `payload_len` more bytes and check them against `crc`.
struct FrameHeader {
  uint32_t type = 0;
  uint64_t seq = 0;
  uint32_t payload_len = 0;
  uint32_t crc = 0;
};

/// Decodes and validates a header from the first kFrameHeaderBytes of
/// `data` (magic + payload size cap; the CRC is checked later, against
/// the payload).
Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t size,
                                      size_t max_payload = kMaxFramePayload);

/// Verifies a payload whose CRC-32 is `crc` against the header's.
Status CheckCrc(const FrameHeader& h, uint32_t crc);
/// Verifies `payload` against the header's CRC.
Status CheckPayloadCrc(const FrameHeader& h, const uint8_t* payload);

/// Decodes one complete frame (header + payload) from `data`. `size`
/// must cover the whole frame; trailing bytes are an error (one buffer =
/// one frame in every caller).
Result<Frame> DecodeFrame(const uint8_t* data, size_t size,
                          size_t max_payload = kMaxFramePayload);
inline Result<Frame> DecodeFrame(const std::vector<uint8_t>& buf,
                                 size_t max_payload = kMaxFramePayload) {
  return DecodeFrame(buf.data(), buf.size(), max_payload);
}

}  // namespace sac::net

#endif  // SAC_NET_FRAME_H_
