#include "src/net/frame.h"

#include <cstring>
#include <string>

#include "src/common/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SAC_CRC_X86_DISPATCH 1
#include <immintrin.h>
#endif

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

/// The slicing-by-8 path in the register domain (~crc in, register out).
uint32_t PortableUpdate(uint32_t c, const uint8_t* data, size_t n) {
  const CrcTables& tables = Tables();
  const auto& t = tables.t;
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
  return c;
}

#ifdef SAC_CRC_X86_DISPATCH

inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// One fold step: the 128-bit remainder `a` carried forward by the
/// distance `k` encodes (low half times k's low constant, high half
/// times its high one), plus the block that sits there, `next`.
__attribute__((target("pclmul"))) inline __m128i Fold(__m128i a, __m128i k,
                                                      __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(a, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(a, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// The carry-less-multiply fold (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), as
/// zlib and Linux's crc32-pclmul run it for the reflected IEEE
/// polynomial. Register domain, like PortableUpdate; `n` is a multiple
/// of 16 and at least 64. Four 128-bit lanes each fold 64 bytes ahead
/// per step, the lanes fold into one, leftover 16-byte blocks fold into
/// it, and a Barrett reduction takes the 128-bit remainder to 32 bits.
/// Each constant is x^e mod P, bit-reflected and shifted left by one
/// (the reflected product of two 64-bit halves is one bit short). Only
/// PCLMULQDQ and SSE2 are used, so the target needs `pclmul` alone.
__attribute__((target("pclmul"))) uint32_t ClmulFold(uint32_t c,
                                                     const uint8_t* p,
                                                     size_t n) {
  // Low half x^(512+32), high x^(512-32): a lane 64 bytes ahead.
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  // Low half x^(128+32), high x^(128-32): 16 bytes ahead.
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);  // x^64
  // Barrett: low half P, high half mu = floor(x^64 / P).
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold(x1, k1k2, Load128(p));
    x2 = Fold(x2, k1k2, Load128(p + 16));
    x3 = Fold(x3, k1k2, Load128(p + 32));
    x4 = Fold(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold(x1, k3k4, Load128(p));

  // 128 -> 64 bits, then 64 -> 32 with the Barrett reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

#endif  // SAC_CRC_X86_DISPATCH

/// The fold needs four lanes' worth of input. bench_micro_kernels
/// (BM_Crc32) measures it ahead of slicing-by-8 from there up
/// (docs/DISTRIBUTED.md), so shorter inputs stay on the table path.
constexpr size_t kClmulMinBytes = 64;

/// The CLMUL path: the largest multiple of 16 bytes through the fold when
/// there are at least kClmulMinBytes, the rest through the tables.
uint32_t ClmulUpdate(uint32_t c, const uint8_t* data, size_t n) {
#ifdef SAC_CRC_X86_DISPATCH
  if (n >= kClmulMinBytes) {
    const size_t bulk = n & ~size_t{15};
    c = ClmulFold(c, data, bulk);
    data += bulk;
    n -= bulk;
  }
#endif
  return PortableUpdate(c, data, n);
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  return Crc32Extend(0, data, n);
}

uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t n) {
  static const bool clmul = Crc32ClmulSupported();
  return ~(clmul ? ClmulUpdate(~crc, data, n) : PortableUpdate(~crc, data, n));
}

uint32_t Crc32ExtendPortable(uint32_t crc, const uint8_t* data, size_t n) {
  return ~PortableUpdate(~crc, data, n);
}

bool Crc32ClmulSupported() {
#ifdef SAC_CRC_X86_DISPATCH
  return __builtin_cpu_supports("pclmul") != 0;
#else
  return false;
#endif
}

uint32_t Crc32ExtendClmul(uint32_t crc, const uint8_t* data, size_t n) {
  SAC_CHECK(Crc32ClmulSupported());
  return ~ClmulUpdate(~crc, data, n);
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
