#include "src/net/frame.h"

#include <cstring>
#include <string>

namespace sac::net {

namespace {

constexpr uint32_t kCrcPoly = 0xEDB88320u;  // IEEE, reflected

/// Slicing-by-8 tables for the reflected IEEE polynomial, computed once
/// per process. t[0] is the classic byte table; t[k][i] is the CRC of
/// byte i followed by k zero bytes, so one step folds 8 input bytes with
/// 8 independent lookups instead of 8 dependent ones. x2n[k] is
/// x^(2^k) mod P, for shifting a CRC past a run of zero bytes (64
/// entries cover any run shorter than 2^61 bytes).
struct CrcTables {
  uint32_t t[8][256];
  uint32_t x2n[64];
};

/// a * b mod P, both reflected (bit 31 is x^0).
uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t m = 1u << 31;
  uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) ? (b >> 1) ^ kCrcPoly : b >> 1;
  }
  return p;
}

const CrcTables& Tables() {
  static const CrcTables tables = [] {
    CrcTables x;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? kCrcPoly ^ (c >> 1) : c >> 1;
      }
      x.t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        x.t[k][i] = x.t[0][x.t[k - 1][i] & 0xFFu] ^ (x.t[k - 1][i] >> 8);
      }
    }
    uint32_t p = 1u << 30;  // x^1
    for (int k = 0; k < 64; ++k) {
      x.x2n[k] = p;
      p = MultModP(p, p);
    }
    return x;
  }();
  return tables;
}

/// x^(8n) mod P: multiplying a CRC register by it appends n zero bytes.
uint32_t ZeroBytesOp(const CrcTables& tables, size_t n) {
  uint32_t p = 1u << 31;  // x^0
  for (int k = 3; n > 0; n >>= 1, ++k) {
    if (n & 1u) p = MultModP(tables.x2n[k], p);
  }
  return p;
}

void PutU32(uint8_t* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
}

void PutU64(uint8_t* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t ReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

uint64_t ReadU64(const uint8_t* p) {
  return static_cast<uint64_t>(ReadU32(p)) |
         static_cast<uint64_t>(ReadU32(p + 4)) << 32;
}

void PutHeader(uint32_t type, uint64_t seq, size_t payload_len, uint32_t crc,
               uint8_t* out) {
  PutU32(out, kFrameMagic);
  PutU32(out + 4, type);
  PutU64(out + 8, seq);
  PutU32(out + 16, static_cast<uint32_t>(payload_len));
  PutU32(out + 20, crc);
}

/// One slicing-by-8 step: folds the 8 bytes at `p` into register `c`.
/// Bytes are read explicitly (ReadU32, byte indexing), so the result
/// does not depend on host endianness or alignment. Only the first four
/// bytes mix with the register; the last four index their tables
/// directly, which saves the shifts.
inline uint32_t Step8(const uint32_t (&t)[8][256], uint32_t c,
                      const uint8_t* p) {
  const uint32_t lo = c ^ ReadU32(p);
  return t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
         t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
         t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
}

/// Below this many bytes one stream is faster than three plus the two
/// combines (each a few dozen carry-less multiply steps).
constexpr size_t kInterleaveMinBytes = 4096;

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  return Crc32Extend(0, data, n);
}

uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t n) {
  const CrcTables& tables = Tables();
  const auto& t = tables.t;
  uint32_t c = ~crc;
  if (n >= kInterleaveMinBytes) {
    // Three streams over consecutive thirds, in lockstep: one stream's
    // step waits on its previous step's lookups, so a single stream
    // leaves the load ports idle. The second and third start from a
    // zero register (a raw CRC is linear) and are folded in by
    // shifting the running register past the bytes that follow it.
    const size_t third = (n / 3) & ~size_t{7};
    const uint8_t* b = data + third;
    const uint8_t* d = b + third;
    uint32_t cb = 0;
    uint32_t cd = 0;
    for (size_t i = 0; i < third; i += 8) {
      c = Step8(t, c, data + i);
      cb = Step8(t, cb, b + i);
      cd = Step8(t, cd, d + i);
    }
    const uint32_t shift = ZeroBytesOp(tables, third);
    c = MultModP(shift, MultModP(shift, c) ^ cb) ^ cd;
    data += 3 * third;
    n -= 3 * third;
  }
  for (; n >= 8; data += 8, n -= 8) c = Step8(t, c, data);
  for (; n > 0; ++data, --n) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

std::vector<ByteView> PayloadPieces(const Frame& f,
                                    const std::vector<ByteView>& tail) {
  std::vector<ByteView> pieces;
  pieces.reserve(1 + tail.size());
  pieces.push_back({f.payload.data(), f.payload.size()});
  pieces.insert(pieces.end(), tail.begin(), tail.end());
  return pieces;
}

std::vector<ByteView> PayloadPieces(const Reply& r) {
  std::vector<ByteView> pieces;
  pieces.reserve(1 + r.tail.size());
  pieces.push_back({r.frame.payload.data(), r.frame.payload.size()});
  for (const SharedSlice& s : r.tail) pieces.push_back(s.view());
  return pieces;
}

size_t PiecesSize(const std::vector<ByteView>& pieces) {
  size_t n = 0;
  for (const ByteView& p : pieces) n += p.size;
  return n;
}

void EncodeFrameHeader(uint32_t type, uint64_t seq,
                       const std::vector<ByteView>& pieces, uint8_t* out) {
  uint32_t crc = 0;
  for (const ByteView& p : pieces) crc = Crc32Extend(crc, p.data, p.size);
  PutHeader(type, seq, PiecesSize(pieces), crc, out);
}

size_t EncodedSize(const Reply& r) {
  size_t n = EncodedSize(r.frame);
  for (const SharedSlice& s : r.tail) n += s.size;
  return n;
}

Frame Flatten(Reply r) {
  const size_t payload_len = EncodedSize(r) - kFrameHeaderBytes;
  Frame f = std::move(r.frame);
  f.payload.reserve(payload_len);
  for (const SharedSlice& s : r.tail) {
    f.payload.insert(f.payload.end(), s.data(), s.data() + s.size);
  }
  return f;
}

void EncodeFrame(const Frame& f, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->reserve(at + EncodedSize(f));
  out->resize(at + kFrameHeaderBytes);
  EncodeFrameHeader(f.type, f.seq, {{f.payload.data(), f.payload.size()}},
                    out->data() + at);
  out->insert(out->end(), f.payload.begin(), f.payload.end());
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t size,
                                      size_t max_payload) {
  if (size < kFrameHeaderBytes) {
    return Status::DataLoss("truncated frame header: " +
                            std::to_string(size) + " of " +
                            std::to_string(kFrameHeaderBytes) + " bytes");
  }
  if (ReadU32(data) != kFrameMagic) {
    return Status::DataLoss("bad frame magic");
  }
  FrameHeader h;
  h.type = ReadU32(data + 4);
  h.seq = ReadU64(data + 8);
  h.payload_len = ReadU32(data + 16);
  h.crc = ReadU32(data + 20);
  if (h.payload_len > max_payload) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(h.payload_len) +
        " bytes exceeds the " + std::to_string(max_payload) + "-byte cap");
  }
  return h;
}

Status CheckCrc(const FrameHeader& h, uint32_t crc) {
  if (crc != h.crc) {
    return Status::DataLoss("frame CRC mismatch (header says " +
                            std::to_string(h.crc) + ", payload hashes to " +
                            std::to_string(crc) + ")");
  }
  return Status::OK();
}

Status CheckPayloadCrc(const FrameHeader& h, const uint8_t* payload) {
  return CheckCrc(h, Crc32(payload, h.payload_len));
}

Result<Frame> DecodeFrame(const uint8_t* data, size_t size,
                          size_t max_payload) {
  SAC_ASSIGN_OR_RETURN(FrameHeader h,
                       DecodeFrameHeader(data, size, max_payload));
  if (size < kFrameHeaderBytes + h.payload_len) {
    return Status::DataLoss(
        "truncated frame payload: " +
        std::to_string(size - kFrameHeaderBytes) + " of " +
        std::to_string(h.payload_len) + " bytes");
  }
  if (size > kFrameHeaderBytes + h.payload_len) {
    return Status::DataLoss("trailing bytes after frame payload");
  }
  SAC_RETURN_NOT_OK(CheckPayloadCrc(h, data + kFrameHeaderBytes));
  Frame f;
  f.type = h.type;
  f.seq = h.seq;
  f.payload.assign(data + kFrameHeaderBytes,
                   data + kFrameHeaderBytes + h.payload_len);
  return f;
}

}  // namespace sac::net
