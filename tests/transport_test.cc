// Distributed-runtime tests (docs/DISTRIBUTED.md): frame codec round
// trips and typed corruption errors (truncation fuzz, CRC flips, bad
// magic, oversized payloads), loopback/TCP transport equivalence and
// byte accounting, the worker bucket store, coordinator placement and
// liveness, and engine-level distributed shuffles -- including the
// byte-identity guarantee (single-process == loopback == TCP) and
// lineage re-execution after an induced worker death.
#include <climits>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/stopwatch.h"
#include "src/dist/coordinator.h"
#include "src/dist/protocol.h"
#include "src/dist/worker.h"
#include "src/net/frame.h"
#include "src/net/loopback.h"
#include "src/net/tcp.h"
#include "src/runtime/engine.h"

namespace sac::runtime {
namespace {

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

net::Frame TestFrame(uint32_t type, uint64_t seq, size_t payload_len) {
  net::Frame f;
  f.type = type;
  f.seq = seq;
  f.payload.reserve(payload_len);
  for (size_t i = 0; i < payload_len; ++i) {
    f.payload.push_back(static_cast<uint8_t>((i * 131 + 7) & 0xff));
  }
  return f;
}

TEST(FrameCodecTest, RoundTrip) {
  const net::Frame f = TestFrame(42, 9001, 257);
  std::vector<uint8_t> wire;
  net::EncodeFrame(f, &wire);
  ASSERT_EQ(wire.size(), net::EncodedSize(f));

  auto back = net::DecodeFrame(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().type, f.type);
  EXPECT_EQ(back.value().seq, f.seq);
  EXPECT_EQ(back.value().payload, f.payload);
}

TEST(FrameCodecTest, EmptyPayloadRoundTrip) {
  const net::Frame f = TestFrame(1, 1, 0);
  std::vector<uint8_t> wire;
  net::EncodeFrame(f, &wire);
  ASSERT_EQ(wire.size(), net::kFrameHeaderBytes);
  auto back = net::DecodeFrame(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value().payload.empty());
}

TEST(FrameCodecTest, EveryTruncationFails) {
  const net::Frame f = TestFrame(7, 3, 64);
  std::vector<uint8_t> wire;
  net::EncodeFrame(f, &wire);
  // Every strict prefix must fail typed -- never crash, never succeed.
  for (size_t n = 0; n < wire.size(); ++n) {
    auto r = net::DecodeFrame(wire.data(), n);
    ASSERT_FALSE(r.ok()) << "prefix of " << n << " bytes decoded";
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << "prefix " << n;
  }
  // Trailing garbage is an error too: one buffer = one frame.
  wire.push_back(0);
  EXPECT_FALSE(net::DecodeFrame(wire).ok());
}

TEST(FrameCodecTest, EveryPayloadCorruptionFails) {
  const net::Frame f = TestFrame(7, 3, 48);
  std::vector<uint8_t> wire;
  net::EncodeFrame(f, &wire);
  // Flip one bit in each payload byte: the CRC must catch all of them.
  for (size_t i = net::kFrameHeaderBytes; i < wire.size(); ++i) {
    std::vector<uint8_t> bad = wire;
    bad[i] ^= 0x40;
    auto r = net::DecodeFrame(bad);
    ASSERT_FALSE(r.ok()) << "corruption at byte " << i << " undetected";
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  }
}

TEST(FrameCodecTest, BadMagicIsDataLoss) {
  const net::Frame f = TestFrame(7, 3, 8);
  std::vector<uint8_t> wire;
  net::EncodeFrame(f, &wire);
  wire[0] ^= 0xff;
  auto r = net::DecodeFrame(wire);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST(FrameCodecTest, OversizedPayloadIsInvalidArgument) {
  const net::Frame f = TestFrame(7, 3, 100);
  std::vector<uint8_t> wire;
  net::EncodeFrame(f, &wire);
  // With a 64-byte cap, the honest 100-byte length field is rejected
  // before any payload allocation.
  auto r = net::DecodeFrame(wire.data(), wire.size(), /*max_payload=*/64);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  auto h = net::DecodeFrameHeader(wire.data(), wire.size(),
                                  /*max_payload=*/64);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameCodecTest, CrcMatchesKnownVector) {
  // The IEEE check value: CRC-32("123456789") = 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(net::Crc32(reinterpret_cast<const uint8_t*>(s), 9), 0xCBF43926u);
}

/// The CRC-32 definition, one bit at a time: the reference the sliced
/// table implementation must match.
uint32_t BitwiseCrc32(const uint8_t* data, size_t n) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return c ^ 0xFFFFFFFFu;
}

/// Every input the CRC paths are checked on against BitwiseCrc32, as
/// Crc32Extend(crc, data, n) -> expected.
struct CrcCase {
  uint32_t crc;
  const uint8_t* data;
  size_t n;
  uint32_t expected;
  std::string what;
};

std::vector<CrcCase> CrcCases(const std::vector<uint8_t>& buf) {
  std::vector<CrcCase> cases;
  const auto add = [&](size_t offset, size_t len) {
    cases.push_back({0, buf.data() + offset, len,
                     BitwiseCrc32(buf.data() + offset, len),
                     "offset " + std::to_string(offset) + " length " +
                         std::to_string(len)});
  };
  // Every length 0..300 at every start offset 0..7: the 8-byte sliced
  // loop, the byte tail, unaligned starts, and the fold's 64-byte
  // switch-over with every 16-byte remainder.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) add(offset, len);
  }
  // Across the table path's three-stream switch-over (4 KiB), and odd
  // lengths above it, so each third and the leftover tail take every
  // size modulo 8.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 4096 - 40; len <= 4096 + 40; ++len) add(offset, len);
    for (size_t len : {size_t{12345}, size_t{65537}, size_t{300007}}) {
      add(offset, len);
    }
  }
  add(0, buf.size());
  // Extending a finished CRC over the next bytes equals one pass over
  // both, at every split point (a reply's CRC runs over its pieces): the
  // fold starts from a nonzero register on either side of the 16- and
  // 64-byte edges.
  const uint32_t whole = BitwiseCrc32(buf.data(), 300);
  for (size_t split = 0; split <= 130; ++split) {
    cases.push_back({BitwiseCrc32(buf.data(), split), buf.data() + split,
                     300 - split, whole,
                     "split " + std::to_string(split) + " of 300"});
  }
  cases.push_back({BitwiseCrc32(buf.data(), 777), buf.data() + 777, 100000,
                   BitwiseCrc32(buf.data(), 100777), "split 777 of 100777"});
  return cases;
}

void ExpectCrcPath(const char* path,
                   uint32_t (*extend)(uint32_t, const uint8_t*, size_t),
                   const std::vector<CrcCase>& cases) {
  for (const CrcCase& c : cases) {
    ASSERT_EQ(extend(c.crc, c.data, c.n), c.expected) << path << ", " << c.what;
  }
}

TEST(FrameCodecTest, CrcMatchesBitwiseReference) {
  // The portable tables, the dispatched entry point and the CLMUL fold
  // all compute the same CRC; the fold is skipped where the host lacks
  // PCLMULQDQ.
  std::vector<uint8_t> buf(1 << 20);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint8_t& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
  const std::vector<CrcCase> cases = CrcCases(buf);
  ExpectCrcPath("portable", &net::Crc32ExtendPortable, cases);
  ExpectCrcPath("dispatched", &net::Crc32Extend, cases);
  for (const CrcCase& c : cases) {
    if (c.crc != 0) continue;
    ASSERT_EQ(net::Crc32(c.data, c.n), c.expected) << "Crc32, " << c.what;
  }
  if (!net::Crc32ClmulSupported()) {
    GTEST_SKIP() << "host lacks PCLMULQDQ: the CLMUL path is not checked";
  }
  ExpectCrcPath("clmul", &net::Crc32ExtendClmul, cases);
}

// ---------------------------------------------------------------------------
// Transports: loopback and TCP must be behaviorally interchangeable
// ---------------------------------------------------------------------------

net::Frame EchoHandler(net::Frame req) {
  net::Frame resp;
  resp.type = req.type + 1;
  resp.payload = std::move(req.payload);
  return resp;
}

TEST(TransportTest, LoopbackEchoAndCounters) {
  net::LoopbackTransport t;
  ASSERT_EQ(t.AddPeer(EchoHandler), 0);
  ASSERT_EQ(t.num_peers(), 1);

  const net::Frame req = TestFrame(10, 0, 300);
  auto resp = t.Call(0, req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().type, 11u);
  EXPECT_EQ(resp.value().payload, req.payload);
  // Both directions ran through the real codec, so the counters are
  // exact wire sizes.
  EXPECT_EQ(t.bytes_sent(), net::EncodedSize(req));
  EXPECT_EQ(t.bytes_received(), net::EncodedSize(resp.value()));
}

TEST(TransportTest, LoopbackPeerDownIsUnavailable) {
  net::LoopbackTransport t;
  t.AddPeer(EchoHandler);
  t.SetPeerDown(0, true);
  auto r = t.Call(0, TestFrame(1, 0, 4));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  t.SetPeerDown(0, false);
  EXPECT_TRUE(t.Call(0, TestFrame(1, 0, 4)).ok());
}

TEST(TransportTest, LoopbackUnknownPeerIsInvalidArgument) {
  net::LoopbackTransport t;
  t.AddPeer(EchoHandler);
  EXPECT_EQ(t.Call(5, TestFrame(1, 0, 0)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TransportTest, TcpEchoLargePayload) {
  net::TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start(0).ok());
  net::TcpTransport t({"127.0.0.1:" + std::to_string(server.port())});

  const net::Frame req = TestFrame(10, 0, 1 << 20);  // 1 MiB
  auto resp = t.Call(0, req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().type, 11u);
  EXPECT_EQ(resp.value().payload, req.payload);
  EXPECT_EQ(t.bytes_sent(), net::EncodedSize(req));
  EXPECT_EQ(t.bytes_received(), net::EncodedSize(resp.value()));
}

TEST(TransportTest, TcpReusesConnectionAcrossCalls) {
  net::TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start(0).ok());
  net::TcpTransport t({"127.0.0.1:" + std::to_string(server.port())});
  uint64_t total_sent = 0;
  for (int i = 0; i < 20; ++i) {
    const net::Frame req = TestFrame(2, 0, 100 + i);
    auto resp = t.Call(0, req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    total_sent += net::EncodedSize(req);
  }
  EXPECT_EQ(t.bytes_sent(), total_sent);
}

TEST(TransportTest, TcpConnectRefusedIsUnavailable) {
  // Bind-then-close to get a port nothing listens on.
  int port;
  {
    net::TcpServer probe(EchoHandler);
    ASSERT_TRUE(probe.Start(0).ok());
    port = probe.port();
  }
  net::TcpTransport t({"127.0.0.1:" + std::to_string(port)});
  auto r = t.Call(0, TestFrame(1, 0, 8));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TEST(TransportTest, LoopbackAndTcpAreByteIdentical) {
  // The headline transport contract: the same request through either
  // transport yields the same response payload and the same wire-byte
  // accounting (the loopback runs the full codec both ways on purpose).
  net::LoopbackTransport lo;
  lo.AddPeer(EchoHandler);
  net::TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start(0).ok());
  net::TcpTransport tcp({"127.0.0.1:" + std::to_string(server.port())});

  for (size_t len : {size_t{0}, size_t{1}, size_t{255}, size_t{4096}}) {
    const net::Frame req = TestFrame(20, 0, len);
    auto a = lo.Call(0, req);
    auto b = tcp.Call(0, req);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().payload, b.value().payload) << "len " << len;
  }
  EXPECT_EQ(lo.bytes_sent(), tcp.bytes_sent());
  EXPECT_EQ(lo.bytes_received(), tcp.bytes_received());
}

TEST(TransportTest, ReplyTailArrivesAfterPayloadOnBothTransports) {
  // A handler may answer with borrowed tail slices; both transports
  // deliver them as one payload, CRC-checked, with identical accounting.
  auto buffer = std::make_shared<const std::vector<uint8_t>>(
      std::vector<uint8_t>{10, 11, 12, 13, 14, 15});
  auto handler = [buffer](net::Frame req) {
    net::Reply reply;
    reply.frame.type = req.type + 1;
    reply.frame.payload = std::move(req.payload);
    reply.tail.push_back({buffer, 1, 3});
    reply.tail.push_back({buffer, 5, 0});
    reply.tail.push_back({buffer, 0, 2});
    return reply;
  };
  net::LoopbackTransport lo;
  lo.AddPeer(handler);
  net::TcpServer server(handler);
  ASSERT_TRUE(server.Start(0).ok());
  net::TcpTransport tcp({"127.0.0.1:" + std::to_string(server.port())});
  const std::vector<uint8_t> want = {1, 2, 11, 12, 13, 10, 11};
  for (net::Transport* t : std::vector<net::Transport*>{&lo, &tcp}) {
    net::Frame req;
    req.type = 30;
    req.payload = {1, 2};
    auto resp = t->Call(0, req);
    ASSERT_TRUE(resp.ok()) << t->name() << ": " << resp.status().ToString();
    EXPECT_EQ(resp.value().type, 31u);
    EXPECT_EQ(resp.value().payload, want) << t->name();
    EXPECT_EQ(t->bytes_received(), net::kFrameHeaderBytes + want.size());
  }
}

TEST(TransportTest, RequestTailArrivesAfterPayloadOnBothTransports) {
  // A caller may send borrowed bytes after the request payload (a
  // batched push's buckets); the handler receives one CRC-checked
  // payload, and both transports meter the same bytes.
  const std::vector<uint8_t> a = {10, 11, 12};
  const std::vector<uint8_t> b(5000, 7);  // past the CRC's 4 KiB switch
  const std::vector<net::ByteView> tail = {
      {a.data(), a.size()}, {nullptr, 0}, {b.data(), b.size()}};
  std::vector<uint8_t> want = {1, 2};
  want.insert(want.end(), a.begin(), a.end());
  want.insert(want.end(), b.begin(), b.end());
  net::LoopbackTransport lo;
  lo.AddPeer(EchoHandler);
  net::TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start(0).ok());
  net::TcpTransport tcp({"127.0.0.1:" + std::to_string(server.port())});
  for (net::Transport* t : std::vector<net::Transport*>{&lo, &tcp}) {
    net::Frame req;
    req.type = 30;
    req.payload = {1, 2};
    auto resp = t->Call(0, req, tail, nullptr);
    ASSERT_TRUE(resp.ok()) << t->name() << ": " << resp.status().ToString();
    EXPECT_EQ(resp.value().type, 31u);
    EXPECT_EQ(resp.value().payload, want) << t->name();
    EXPECT_EQ(t->bytes_sent(), net::kFrameHeaderBytes + want.size());
  }
}

// ---------------------------------------------------------------------------
// Worker bucket store (driven through the same frames the wire carries)
// ---------------------------------------------------------------------------

/// A worker's reply to `req` as the requesting side receives it.
net::Frame Serve(dist::WorkerState* w, net::Frame req) {
  return net::Flatten(w->Handle(std::move(req)));
}

net::Frame PutFrame(
    const std::vector<std::pair<dist::BucketId, std::string>>& buckets) {
  std::vector<std::vector<uint8_t>> bytes;
  std::vector<dist::BucketBytes> batch;
  bytes.reserve(buckets.size());
  for (const auto& [id, str] : buckets) {
    bytes.emplace_back(str.begin(), str.end());
    batch.push_back({id, &bytes.back()});
  }
  net::Frame f;
  f.type = dist::kPutBuckets;
  // What the worker receives: the table, then the buckets' bytes.
  for (const net::ByteView& b : dist::EncodePutBuckets(batch, &f.payload)) {
    f.payload.insert(f.payload.end(), b.data, b.data + b.size);
  }
  return f;
}

net::Frame PutFrame(const dist::BucketId& id, const std::string& bytes) {
  return PutFrame({{id, bytes}});
}

net::Frame GetFrame(const std::vector<dist::BucketId>& ids) {
  net::Frame f;
  f.type = dist::kGetBuckets;
  dist::EncodeGetBuckets(ids, &f.payload);
  return f;
}

/// A kGetBucketsOk reply as strings; nullopt for a missing bucket.
std::vector<std::optional<std::string>> Answers(const net::Frame& reply,
                                                size_t expected) {
  EXPECT_EQ(reply.type, dist::kGetBucketsOk);
  auto slices = dist::DecodeGetBucketsReply(reply.payload, expected);
  EXPECT_TRUE(slices.ok()) << slices.status().ToString();
  std::vector<std::optional<std::string>> out;
  if (!slices.ok()) return out;
  for (const std::optional<dist::Slice>& slice : slices.value()) {
    if (!slice) {
      out.push_back(std::nullopt);
      continue;
    }
    const auto* p = reply.payload.data() + slice->offset;
    out.emplace_back(std::string(p, p + slice->size));
  }
  return out;
}

std::optional<std::string> GetOne(dist::WorkerState* w,
                                  const dist::BucketId& id) {
  return Answers(Serve(w, GetFrame({id})), 1).at(0);
}

net::Frame DropFrame(uint64_t sid) {
  net::Frame drop;
  drop.type = dist::kDropShuffle;
  ByteWriter dw(&drop.payload);
  dw.PutU64(sid);
  return drop;
}

TEST(DistWorkerTest, PutGetOverwriteDrop) {
  dist::WorkerState w;
  const dist::BucketId id{7, 0, 1, 2};

  EXPECT_EQ(Serve(&w, PutFrame(id, "hello")).type, dist::kPutBucketsOk);
  EXPECT_EQ(w.num_buckets(), 1u);
  EXPECT_EQ(w.hosted_bytes(), 5u);
  EXPECT_EQ(GetOne(&w, id), "hello");

  // Overwrite is idempotent last-write-wins (lineage re-push case).
  EXPECT_EQ(Serve(&w, PutFrame(id, "goodbye!")).type, dist::kPutBucketsOk);
  EXPECT_EQ(w.num_buckets(), 1u);
  EXPECT_EQ(w.hosted_bytes(), 8u);
  EXPECT_EQ(GetOne(&w, id), "goodbye!");

  // Drop frees only the named shuffle.
  EXPECT_EQ(Serve(&w, PutFrame({8, 0, 1, 2}, "other")).type,
            dist::kPutBucketsOk);
  EXPECT_EQ(Serve(&w, DropFrame(7)).type, dist::kDropShuffleOk);
  EXPECT_EQ(w.num_buckets(), 1u);
  EXPECT_EQ(w.hosted_bytes(), 5u);
}

TEST(DistWorkerTest, BatchedRoundTripWithEmptyBucketsAndOverwrite) {
  dist::WorkerState w;
  const dist::BucketId a{3, 0, 0, 1}, empty{3, 0, 1, 1}, b{3, 1, 0, 1};
  ASSERT_EQ(Serve(&w, PutFrame({{a, "alpha"}, {empty, ""}, {b, "beta"}}))
                .type,
            dist::kPutBucketsOk);
  EXPECT_EQ(w.num_buckets(), 3u);
  EXPECT_EQ(w.hosted_bytes(), 9u);
  // An empty bucket is hosted (found, zero bytes), not missing.
  std::vector<std::optional<std::string>> got =
      Answers(Serve(&w, GetFrame({b, empty, a})), 3);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "beta");
  EXPECT_EQ(got[1], "");
  EXPECT_EQ(got[2], "alpha");

  // A second batch overwrites one bucket of the first and adds one; the
  // untouched bucket still reads from the first batch's buffer.
  const dist::BucketId c{3, 1, 1, 1};
  ASSERT_EQ(Serve(&w, PutFrame({{a, "ALPHA!"}, {c, "gamma"}})).type,
            dist::kPutBucketsOk);
  EXPECT_EQ(w.num_buckets(), 4u);
  EXPECT_EQ(w.hosted_bytes(), 6u + 0u + 4u + 5u);
  got = Answers(Serve(&w, GetFrame({a, empty, b, c})), 4);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], "ALPHA!");
  EXPECT_EQ(got[1], "");
  EXPECT_EQ(got[2], "beta");
  EXPECT_EQ(got[3], "gamma");
}

TEST(DistWorkerTest, MissingBucketsAreAnsweredPerId) {
  dist::WorkerState w;
  ASSERT_EQ(Serve(&w, PutFrame({99, 0, 1, 0}, "here")).type,
            dist::kPutBucketsOk);
  // Not an error frame: the batch answers every id, and only the ones
  // this worker does not host come back missing.
  net::Frame resp =
      Serve(&w, GetFrame({{99, 0, 0, 0}, {99, 0, 1, 0}, {98, 0, 1, 0}}));
  ASSERT_EQ(resp.type, dist::kGetBucketsOk);
  std::vector<std::optional<std::string>> got = Answers(resp, 3);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_FALSE(got[0].has_value());
  EXPECT_EQ(got[1], "here");
  EXPECT_FALSE(got[2].has_value());
}

TEST(DistWorkerTest, DropErasesExactlyItsShuffleRange) {
  dist::WorkerState w;
  // Neighbouring shuffle ids, and extreme parent/src/dest values at the
  // edges of the dropped range.
  ASSERT_EQ(Serve(&w, PutFrame({{{6, INT32_MAX, INT32_MAX, INT32_MAX}, "a"},
                               {{7, INT32_MIN, 0, 0}, "bb"},
                               {{7, 0, 0, 0}, "cc"},
                               {{7, INT32_MAX, INT32_MAX, INT32_MAX}, "dd"},
                               {{8, INT32_MIN, INT32_MIN, INT32_MIN}, "e"}}))
                .type,
            dist::kPutBucketsOk);
  net::Frame resp = Serve(&w, DropFrame(7));
  ASSERT_EQ(resp.type, dist::kDropShuffleOk);
  ByteReader r(resp.payload);
  EXPECT_EQ(r.GetU64().value(), 3u);
  EXPECT_EQ(w.num_buckets(), 2u);
  EXPECT_EQ(w.hosted_bytes(), 2u);
  EXPECT_EQ(GetOne(&w, {6, INT32_MAX, INT32_MAX, INT32_MAX}), "a");
  EXPECT_EQ(GetOne(&w, {8, INT32_MIN, INT32_MIN, INT32_MIN}), "e");
  EXPECT_FALSE(GetOne(&w, {7, 0, 0, 0}).has_value());
}

TEST(DistWorkerTest, PutDelaySleepsPerBucket) {
  // The chaos window must not shrink with batching: a 4-bucket batch
  // sleeps 4x the per-bucket delay.
  dist::WorkerState w;
  w.set_put_delay_us(5000);
  Stopwatch sw;
  ASSERT_EQ(Serve(&w, PutFrame({{{1, 0, 0, 1}, "a"},
                               {{1, 0, 0, 2}, "b"},
                               {{1, 0, 0, 3}, "c"},
                               {{1, 0, 0, 4}, "d"}}))
                .type,
            dist::kPutBucketsOk);
  EXPECT_GE(sw.ElapsedMicros(), 4 * 5000u);
}

TEST(DistProtocolTest, SplitBatchesKeepsOrderUnderTheCap) {
  const std::vector<int> sizes = {4, 3, 3, 12, 1, 9, 0, 10};
  const auto runs =
      dist::SplitBatches(sizes, [](int n) { return size_t(n); }, 10);
  // Consecutive runs, in order, each within 10 unless a single item is
  // larger than the cap.
  const std::vector<std::vector<int>> want = {
      {4, 3, 3}, {12}, {1, 9, 0}, {10}};
  EXPECT_EQ(runs, want);
  EXPECT_TRUE(dist::SplitBatches(std::vector<int>{},
                                 [](int n) { return size_t(n); })
                  .empty());
}

TEST(DistProtocolTest, BatchedFramesFailTypedOnTruncationAndCorruption) {
  const net::Frame put = PutFrame({{{5, 0, 1, 2}, "some bucket bytes"},
                                   {{5, 1, 0, 2}, ""},
                                   {{5, 1, 1, 2}, "more"}});
  dist::WorkerState w;
  Serve(&w, PutFrame({{{5, 0, 1, 2}, "xyz"}}));
  net::Frame reply = Serve(&w, GetFrame({{5, 0, 1, 2}, {5, 9, 9, 9}}));
  ASSERT_EQ(reply.type, dist::kGetBucketsOk);
  reply.seq = 4;
  const std::vector<const net::Frame*> frames = {&put, &reply};
  for (const net::Frame* f : frames) {
    std::vector<uint8_t> wire;
    net::EncodeFrame(*f, &wire);
    // Every strict prefix of the frame, and every single-byte flip of its
    // payload, is DataLoss at the codec.
    for (size_t n = 0; n < wire.size(); ++n) {
      auto r = net::DecodeFrame(wire.data(), n);
      ASSERT_FALSE(r.ok()) << "prefix of " << n << " bytes decoded";
      EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << "prefix " << n;
    }
    for (size_t i = net::kFrameHeaderBytes; i < wire.size(); ++i) {
      std::vector<uint8_t> bad = wire;
      bad[i] ^= 0x01;
      auto r = net::DecodeFrame(bad);
      ASSERT_FALSE(r.ok()) << "corruption at byte " << i << " undetected";
      EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
    }
  }
  // Past the CRC, a truncated batch payload is DataLoss too, never a
  // crash or a short read.
  for (size_t n = 0; n < put.payload.size(); ++n) {
    const std::vector<uint8_t> cut(put.payload.begin(),
                                   put.payload.begin() + n);
    auto r = dist::DecodePutBuckets(cut);
    ASSERT_FALSE(r.ok()) << "put prefix of " << n << " bytes decoded";
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  }
  for (size_t n = 0; n < reply.payload.size(); ++n) {
    const std::vector<uint8_t> cut(reply.payload.begin(),
                                   reply.payload.begin() + n);
    auto r = dist::DecodeGetBucketsReply(cut, 2);
    ASSERT_FALSE(r.ok()) << "reply prefix of " << n << " bytes decoded";
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  }
  const net::Frame get = GetFrame({{5, 0, 1, 2}, {5, 1, 1, 2}});
  for (size_t n = 0; n < get.payload.size(); ++n) {
    const std::vector<uint8_t> cut(get.payload.begin(),
                                   get.payload.begin() + n);
    auto r = dist::DecodeGetBuckets(cut);
    ASSERT_FALSE(r.ok()) << "get prefix of " << n << " bytes decoded";
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  }
  // A reply answering a different number of buckets than asked for.
  EXPECT_EQ(dist::DecodeGetBucketsReply(reply.payload, 3).status().code(),
            StatusCode::kDataLoss);
}

TEST(DistWorkerTest, PingReportsVitals) {
  dist::WorkerState w;
  Serve(&w, PutFrame({1, 0, 0, 0}, "abc"));
  net::Frame ping;
  ping.type = dist::kPing;
  net::Frame resp = Serve(&w, ping);
  ASSERT_EQ(resp.type, dist::kPingOk);
  ByteReader r(resp.payload);
  auto info = dist::DecodePingInfo(&r);
  ASSERT_TRUE(info.ok());
  EXPECT_GT(info.value().pid, 0u);
  EXPECT_EQ(info.value().num_buckets, 1u);
  EXPECT_EQ(info.value().hosted_bytes, 3u);
}

TEST(DistWorkerTest, FailAfterBudgetTurnsUnavailable) {
  dist::WorkerState w;
  w.FailAfter(2);
  EXPECT_EQ(Serve(&w, PutFrame({1, 0, 0, 0}, "a")).type,
            dist::kPutBucketsOk);
  EXPECT_EQ(Serve(&w, PutFrame({1, 0, 0, 1}, "b")).type,
            dist::kPutBucketsOk);
  net::Frame resp = Serve(&w, GetFrame({{1, 0, 0, 0}}));
  ASSERT_EQ(resp.type, static_cast<uint32_t>(dist::kError));
  EXPECT_EQ(dist::StatusFromFrame(resp).code(), StatusCode::kUnavailable);
  // Dead is dead: every later request fails too.
  EXPECT_EQ(Serve(&w, GetFrame({{1, 0, 0, 1}})).type,
            static_cast<uint32_t>(dist::kError));
}

TEST(DistWorkerTest, UnknownTypeIsError) {
  dist::WorkerState w;
  net::Frame junk;
  junk.type = 777;
  net::Frame resp = Serve(&w, junk);
  ASSERT_EQ(resp.type, static_cast<uint32_t>(dist::kError));
  EXPECT_EQ(dist::StatusFromFrame(resp).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Coordinator: placement, liveness, bucket RPC recovery
// ---------------------------------------------------------------------------

struct Cluster {
  std::vector<std::unique_ptr<dist::WorkerState>> workers;
  net::LoopbackTransport* transport = nullptr;  // owned by coord
  std::unique_ptr<Metrics> totals = std::make_unique<Metrics>();
  std::unique_ptr<dist::Coordinator> coord;
  MeterSink totals_only() const { return {totals.get(), nullptr, nullptr}; }
};

Cluster MakeCluster(int n, dist::CoordinatorOptions opts) {
  Cluster c;
  auto t = std::make_unique<net::LoopbackTransport>();
  c.transport = t.get();
  for (int i = 0; i < n; ++i) {
    c.workers.push_back(std::make_unique<dist::WorkerState>());
    dist::WorkerState* w = c.workers.back().get();
    t->AddPeer([w](net::Frame f) { return w->Handle(std::move(f)); });
  }
  opts.retry_base_delay_us = 0;  // keep tests fast
  c.coord = std::make_unique<dist::Coordinator>(std::move(t), opts,
                                                c.totals.get(), nullptr);
  EXPECT_TRUE(c.coord->ConnectAll().ok());
  return c;
}

TEST(CoordinatorTest, PlacementReroutesOnDeath) {
  dist::CoordinatorOptions opts;
  opts.num_executors = 6;
  opts.heartbeat_interval_ms = 0;
  Cluster c = MakeCluster(3, opts);

  EXPECT_EQ(c.coord->live_workers(), 3);
  EXPECT_EQ(c.coord->WorkerOf(0).value(), 0);
  EXPECT_EQ(c.coord->WorkerOf(1).value(), 1);
  EXPECT_EQ(c.coord->WorkerOf(2).value(), 2);
  EXPECT_EQ(c.coord->WorkerOf(3).value(), 0);

  const uint64_t epoch0 = c.coord->placement_epoch();
  EXPECT_TRUE(c.coord->MarkDead(1, "test"));
  EXPECT_FALSE(c.coord->MarkDead(1, "test"));  // idempotent
  EXPECT_EQ(c.coord->live_workers(), 2);
  EXPECT_GT(c.coord->placement_epoch(), epoch0);
  EXPECT_EQ(c.totals->Snapshot().workers_lost, 1u);

  // Every executor still maps to a live worker.
  for (int e = 0; e < 6; ++e) {
    int w = c.coord->WorkerOf(e).value();
    EXPECT_TRUE(w == 0 || w == 2) << "executor " << e << " -> " << w;
  }

  c.coord->MarkDead(0, "test");
  c.coord->MarkDead(2, "test");
  EXPECT_EQ(c.coord->WorkerOf(0).status().code(),
            StatusCode::kUnavailable);
}

TEST(CoordinatorTest, SweepDetectsSilentWorker) {
  dist::CoordinatorOptions opts;
  opts.num_executors = 3;
  opts.heartbeat_interval_ms = 0;  // no background thread: tests drive it
  opts.heartbeat_timeout_ms = 3;
  opts.max_attempts = 1;  // a sweep probe must not itself mark-dead-retry
  Cluster c = MakeCluster(3, opts);

  c.transport->SetPeerDown(2, true);
  // interval=0 sweeps accumulate at least 1ms of silence each; three
  // misses cross the 3ms timeout.
  c.coord->SweepOnce();
  EXPECT_EQ(c.coord->live_workers(), 3);  // silent, not yet dead
  c.coord->SweepOnce();
  c.coord->SweepOnce();
  EXPECT_EQ(c.coord->live_workers(), 2);
  EXPECT_EQ(c.totals->Snapshot().workers_lost, 1u);

  // A recovered-but-already-declared-dead worker stays dead (placement
  // stability; lineage already re-executed around it).
  c.transport->SetPeerDown(2, false);
  c.coord->SweepOnce();
  EXPECT_EQ(c.coord->live_workers(), 2);
}

TEST(CoordinatorTest, MissedPingsResetOnRecovery) {
  dist::CoordinatorOptions opts;
  opts.num_executors = 3;
  opts.heartbeat_interval_ms = 0;
  opts.heartbeat_timeout_ms = 3;
  opts.max_attempts = 1;
  Cluster c = MakeCluster(2, opts);

  c.transport->SetPeerDown(1, true);
  c.coord->SweepOnce();
  c.coord->SweepOnce();
  c.transport->SetPeerDown(1, false);  // back before the timeout
  c.coord->SweepOnce();                // successful ping resets silence
  c.transport->SetPeerDown(1, true);
  c.coord->SweepOnce();
  c.coord->SweepOnce();
  EXPECT_EQ(c.coord->live_workers(), 2) << "silence should have reset";
  c.coord->SweepOnce();
  EXPECT_EQ(c.coord->live_workers(), 1);
}

/// The bytes of fetched bucket `i`, or nullopt when it came back missing.
std::optional<std::vector<uint8_t>> BytesOf(
    const dist::Coordinator::FetchedBuckets& got, size_t i) {
  const std::optional<dist::Slice>& slice = got.buckets.at(i);
  if (!slice) return std::nullopt;
  const uint8_t* p = got.payload.data() + slice->offset;
  return std::vector<uint8_t>(p, p + slice->size);
}

TEST(CoordinatorTest, PushFetchDropRoundTrip) {
  dist::CoordinatorOptions opts;
  opts.num_executors = 4;
  opts.heartbeat_interval_ms = 0;
  Cluster c = MakeCluster(2, opts);
  const uint64_t pings = c.totals->Snapshot().dist_rpcs;
  EXPECT_EQ(pings, 2u);  // ConnectAll

  // Executors 1 and 3 live on worker 1, executor 2 on worker 0: three
  // buckets, two pushes.
  const uint64_t sid = c.coord->NextShuffleId();
  const std::vector<uint8_t> b1 = {1, 2, 3, 4, 5}, b2 = {}, b3 = {7};
  const dist::BucketId id1{sid, 0, 1, 3}, id2{sid, 0, 1, 1},
      id3{sid, 0, 1, 2};
  ASSERT_TRUE(c.coord
                  ->PushBuckets(c.totals_only(), {{3, {id1, &b1}},
                                                  {1, {id2, &b2}},
                                                  {2, {id3, &b3}}})
                  .ok());
  EXPECT_EQ(c.totals->Snapshot().dist_rpcs, pings + 2);

  auto got = c.coord->FetchBuckets(c.totals_only(), 3, {id1, id2});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(BytesOf(got.value(), 0), b1);
  EXPECT_EQ(BytesOf(got.value(), 1), b2);
  EXPECT_EQ(c.totals->Snapshot().dist_rpcs, pings + 3);

  // Wire bytes were metered on the engine totals (no stage given).
  const MetricsSnapshot snap = c.totals->Snapshot();
  EXPECT_GT(snap.dist_bytes_sent, 0u);
  EXPECT_GT(snap.dist_bytes_received, 0u);

  c.coord->DropShuffle(sid);
  got = c.coord->FetchBuckets(c.totals_only(), 2, {id3});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(BytesOf(got.value(), 0).has_value());
}

TEST(CoordinatorTest, FetchReportsOnlyMissingIdsMissing) {
  dist::CoordinatorOptions opts;
  opts.num_executors = 2;
  opts.heartbeat_interval_ms = 0;
  Cluster c = MakeCluster(2, opts);
  const std::vector<uint8_t> x = {4, 2};
  const dist::BucketId pushed{1, 0, 0, 1}, never{1, 0, 1, 1},
      other_shuffle{2, 0, 0, 1};
  ASSERT_TRUE(
      c.coord->PushBuckets(c.totals_only(), {{1, {pushed, &x}}}).ok());
  auto got =
      c.coord->FetchBuckets(c.totals_only(), 1, {never, pushed, other_shuffle});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(BytesOf(got.value(), 0).has_value());
  EXPECT_EQ(BytesOf(got.value(), 1), x);
  EXPECT_FALSE(BytesOf(got.value(), 2).has_value());
}

TEST(CoordinatorTest, PushSurvivesWorkerDeathByReplacement) {
  dist::CoordinatorOptions opts;
  opts.num_executors = 2;
  opts.heartbeat_interval_ms = 0;
  opts.max_attempts = 3;
  Cluster c = MakeCluster(2, opts);

  // Executor 1 lives on worker 1; kill it before the push. Executor 0's
  // bucket goes through on the first try; executor 1's is re-placed.
  c.transport->SetPeerDown(1, true);
  const std::vector<uint8_t> b0 = {1}, b1 = {9, 9};
  const dist::BucketId id0{1, 0, 0, 0}, id1{1, 0, 0, 1};
  ASSERT_TRUE(c.coord
                  ->PushBuckets(c.totals_only(),
                                {{0, {id0, &b0}}, {1, {id1, &b1}}})
                  .ok());
  // The retry re-placed executor 1 onto the survivor.
  EXPECT_EQ(c.coord->live_workers(), 1);
  EXPECT_EQ(c.coord->WorkerOf(1).value(), 0);
  auto got = c.coord->FetchBuckets(c.totals_only(), 1, {id0, id1});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(BytesOf(got.value(), 0), b0);
  EXPECT_EQ(BytesOf(got.value(), 1), b1);
}

// ---------------------------------------------------------------------------
// Engine-level distributed shuffle
// ---------------------------------------------------------------------------

ValueVec MixedPairs(int n) {
  ValueVec rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back(VPair(VInt(i % 13), VTuple({VInt(i), VDouble(i * 0.5)})));
  }
  return rows;
}

ClusterConfig DistConfig(const std::string& workers,
                         const std::string& transport) {
  ClusterConfig cfg;
  cfg.num_executors = 3;
  cfg.cores_per_executor = 2;
  cfg.default_parallelism = 6;
  cfg.workers = workers;
  cfg.transport = transport;
  cfg.heartbeat_interval_ms = 0;  // deterministic: no background pings
  return cfg;
}

struct DistRun {
  ValueVec rows;
  MetricsSnapshot counters;
};

template <typename QueryFn>
DistRun RunQuery(const ClusterConfig& cfg, QueryFn&& query,
                 uint64_t fail_worker_after = 0) {
  Engine eng(cfg);
  if (fail_worker_after > 0) {
    EXPECT_TRUE(eng.distributed());
    if (eng.distributed()) eng.local_worker(1)->FailAfter(fail_worker_after);
  }
  Result<Dataset> out = query(&eng);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  DistRun r;
  r.rows = eng.Collect(out.value()).value();
  r.counters = eng.metrics().Snapshot();
  return r;
}

void ExpectIdenticalRows(const ValueVec& a, const ValueVec& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].Equals(b[i]))
        << "row " << i << ": " << a[i].ToString() << " vs "
        << b[i].ToString();
  }
}

Result<Dataset> GroupQuery(Engine* eng) {
  Dataset ds = eng->Parallelize(MixedPairs(400), 6);
  return eng->GroupByKey(ds);
}

TEST(DistShuffleTest, LoopbackMatchesSingleProcess) {
  DistRun solo = RunQuery(DistConfig("", ""), GroupQuery);
  DistRun dist = RunQuery(DistConfig("3", "loopback"), GroupQuery);
  ExpectIdenticalRows(solo.rows, dist.rows);

  // Single-process mode moved nothing over a transport...
  EXPECT_EQ(solo.counters.dist_bytes_sent, 0u);
  // ...while distributed mode pushed every cross-executor bucket.
  EXPECT_GT(dist.counters.dist_bytes_sent, 0u);
  EXPECT_GT(dist.counters.dist_bytes_received, 0u);
  EXPECT_EQ(dist.counters.workers_lost, 0u);
  EXPECT_EQ(dist.counters.partitions_reexecuted, 0u);
  // Shuffle-byte accounting is transport-independent.
  EXPECT_EQ(solo.counters.shuffle_bytes + solo.counters.local_shuffle_bytes,
            dist.counters.shuffle_bytes + dist.counters.local_shuffle_bytes);
}

TEST(DistShuffleTest, TcpMatchesLoopback) {
  DistRun lo = RunQuery(DistConfig("3", "loopback"), GroupQuery);
  DistRun tcp = RunQuery(DistConfig("3", "tcp"), GroupQuery);
  ExpectIdenticalRows(lo.rows, tcp.rows);
  // Same buckets, same codec, same framing: identical wire accounting.
  EXPECT_EQ(lo.counters.dist_bytes_sent, tcp.counters.dist_bytes_sent);
  EXPECT_EQ(lo.counters.dist_bytes_received,
            tcp.counters.dist_bytes_received);
}

TEST(DistShuffleTest, WorkerDeathRecoversViaLineage) {
  DistRun solo = RunQuery(DistConfig("", ""), GroupQuery);
  // Worker 1 dies after serving a handful of requests -- mid-shuffle.
  DistRun dist =
      RunQuery(DistConfig("3", "loopback"), GroupQuery,
               /*fail_worker_after=*/3);
  ExpectIdenticalRows(solo.rows, dist.rows);
  EXPECT_GE(dist.counters.workers_lost, 1u);
  EXPECT_GT(dist.counters.partitions_reexecuted, 0u);
}

TEST(DistShuffleTest, OnlyMissingPairsReexecute) {
  // 6 source partitions over 2 executors on 3 workers: executor e lives
  // on worker e, and worker 2 hosts nothing until a death re-places an
  // executor onto it. Worker 1 serves exactly one push per source on
  // executor 0 -- and then dies. Executor 1 moves to worker 2, where
  // its buckets come back missing, and exactly those (parent, src)
  // pairs re-execute, once each; executor 0 keeps worker 0 and its
  // buckets, so the sources on executor 1 never re-run.
  ClusterConfig cfg = DistConfig("3", "loopback");
  cfg.num_executors = 2;
  int lost_pairs = 0;
  for (int s = 0; s < cfg.default_parallelism; ++s) {
    if (s % cfg.num_executors != 1) ++lost_pairs;
  }
  DistRun solo = RunQuery(DistConfig("", ""), GroupQuery);
  DistRun dist = RunQuery(cfg, GroupQuery,
                          /*fail_worker_after=*/lost_pairs);
  ExpectIdenticalRows(solo.rows, dist.rows);
  EXPECT_EQ(dist.counters.workers_lost, 1u);
  EXPECT_EQ(dist.counters.partitions_reexecuted,
            static_cast<uint64_t>(lost_pairs));
}

TEST(DistShuffleTest, OneRpcPerTaskPerWorker) {
  Engine eng(DistConfig("3", "loopback"));
  ASSERT_TRUE(eng.distributed());
  auto out = GroupQuery(&eng);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  uint64_t stage_rpcs = 0;
  for (const StageStatsSnapshot& st : eng.stages().Snapshot()) {
    stage_rpcs += st.counters.dist_rpcs;
  }
  // 6 map tasks push once to each of the 2 workers not hosting their own
  // executor; 6 reduce tasks fetch once each.
  EXPECT_EQ(stage_rpcs, 6u * 2 + 6u);
  // The totals add ConnectAll's pings and the stage-end drops (one per
  // worker each).
  EXPECT_EQ(eng.metrics().Snapshot().dist_rpcs, stage_rpcs + 3 + 3);
}

TEST(DistShuffleTest, JoinOverTcpMatchesSingleProcess) {
  // A join is the heaviest shuffle shape (two parents feed one stage);
  // run it through real sockets and check against the plain engine.
  auto query = [](Engine* eng) -> Result<Dataset> {
    Dataset a = eng->Parallelize(MixedPairs(200), 6);
    Dataset b = eng->Parallelize(MixedPairs(150), 6);
    return eng->Join(a, b);
  };
  DistRun solo = RunQuery(DistConfig("", ""), query);
  DistRun tcp = RunQuery(DistConfig("3", "tcp"), query);
  ExpectIdenticalRows(solo.rows, tcp.rows);
}

TEST(DistShuffleTest, DefaultConfigBuildsNoCoordinator) {
  Engine eng(ClusterConfig{});
  EXPECT_FALSE(eng.distributed());
  EXPECT_EQ(eng.coordinator(), nullptr);
  EXPECT_EQ(eng.local_worker(0), nullptr);
}

}  // namespace
}  // namespace sac::runtime
