// Distributed-runtime tests (docs/DISTRIBUTED.md): frame codec round
// trips and typed corruption errors (truncation fuzz, CRC flips, bad
// magic, oversized payloads), loopback/TCP transport equivalence and
// byte accounting, the worker bucket store, coordinator placement and
// liveness, and engine-level distributed shuffles -- including the
// byte-identity guarantee (single-process == loopback == TCP) and
// lineage re-execution after an induced worker death.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

// ---------------------------------------------------------------------------
// Transports: loopback and TCP must be behaviorally interchangeable
// ---------------------------------------------------------------------------

net::Frame EchoHandler(const net::Frame& req) {
  net::Frame resp;
  resp.type = req.type + 1;
  resp.payload = req.payload;
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

// ---------------------------------------------------------------------------
// Worker bucket store (driven through the same frames the wire carries)
// ---------------------------------------------------------------------------

net::Frame PutFrame(const dist::BucketId& id, const std::string& bytes) {
  net::Frame f;
  f.type = dist::kPutBucket;
  f.payload.reserve(dist::kBucketIdBytes + bytes.size());
  ByteWriter w(&f.payload);
  dist::EncodeBucketId(id, &w);
  w.PutRaw(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  return f;
}

net::Frame GetFrame(const dist::BucketId& id) {
  net::Frame f;
  f.type = dist::kGetBucket;
  f.payload.reserve(dist::kBucketIdBytes);
  ByteWriter w(&f.payload);
  dist::EncodeBucketId(id, &w);
  return f;
}

std::string PayloadString(const net::Frame& f) {
  return std::string(f.payload.begin(), f.payload.end());
}

TEST(DistWorkerTest, PutGetOverwriteDrop) {
  dist::WorkerState w;
  const dist::BucketId id{7, 0, 1, 2};

  EXPECT_EQ(w.Handle(PutFrame(id, "hello")).type, dist::kPutBucketOk);
  EXPECT_EQ(w.num_buckets(), 1u);
  EXPECT_EQ(w.hosted_bytes(), 5u);

  net::Frame got = w.Handle(GetFrame(id));
  ASSERT_EQ(got.type, dist::kGetBucketOk);
  EXPECT_EQ(PayloadString(got), "hello");

  // Overwrite is idempotent last-write-wins (lineage re-push case).
  EXPECT_EQ(w.Handle(PutFrame(id, "goodbye!")).type, dist::kPutBucketOk);
  EXPECT_EQ(w.num_buckets(), 1u);
  EXPECT_EQ(w.hosted_bytes(), 8u);
  EXPECT_EQ(PayloadString(w.Handle(GetFrame(id))), "goodbye!");

  // Drop frees only the named shuffle.
  EXPECT_EQ(w.Handle(PutFrame({8, 0, 1, 2}, "other")).type,
            dist::kPutBucketOk);
  net::Frame drop;
  drop.type = dist::kDropShuffle;
  ByteWriter dw(&drop.payload);
  dw.PutU64(7);
  EXPECT_EQ(w.Handle(drop).type, dist::kDropShuffleOk);
  EXPECT_EQ(w.num_buckets(), 1u);
  EXPECT_EQ(w.hosted_bytes(), 5u);
}

TEST(DistWorkerTest, MissingBucketIsDataLoss) {
  dist::WorkerState w;
  net::Frame resp = w.Handle(GetFrame({99, 0, 0, 0}));
  ASSERT_EQ(resp.type, static_cast<uint32_t>(dist::kError));
  EXPECT_EQ(dist::StatusFromFrame(resp).code(), StatusCode::kDataLoss);
}

TEST(DistWorkerTest, PingReportsVitals) {
  dist::WorkerState w;
  w.Handle(PutFrame({1, 0, 0, 0}, "abc"));
  net::Frame ping;
  ping.type = dist::kPing;
  net::Frame resp = w.Handle(ping);
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
  EXPECT_EQ(w.Handle(PutFrame({1, 0, 0, 0}, "a")).type, dist::kPutBucketOk);
  EXPECT_EQ(w.Handle(PutFrame({1, 0, 0, 1}, "b")).type, dist::kPutBucketOk);
  net::Frame resp = w.Handle(GetFrame({1, 0, 0, 0}));
  ASSERT_EQ(resp.type, static_cast<uint32_t>(dist::kError));
  EXPECT_EQ(dist::StatusFromFrame(resp).code(), StatusCode::kUnavailable);
  // Dead is dead: every later request fails too.
  EXPECT_EQ(w.Handle(GetFrame({1, 0, 0, 1})).type,
            static_cast<uint32_t>(dist::kError));
}

TEST(DistWorkerTest, UnknownTypeIsError) {
  dist::WorkerState w;
  net::Frame junk;
  junk.type = 777;
  net::Frame resp = w.Handle(junk);
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
    t->AddPeer([w](const net::Frame& f) { return w->Handle(f); });
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

TEST(CoordinatorTest, PushFetchDropRoundTrip) {
  dist::CoordinatorOptions opts;
  opts.num_executors = 4;
  opts.heartbeat_interval_ms = 0;
  Cluster c = MakeCluster(2, opts);

  const dist::BucketId id{c.coord->NextShuffleId(), 0, 1, 3};
  const std::vector<uint8_t> bytes = {1, 2, 3, 4, 5};
  ASSERT_TRUE(c.coord->PushBucket(c.totals_only(), id, 3, bytes).ok());

  auto got = c.coord->FetchBucket(c.totals_only(), id, 3);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), bytes);

  // Wire bytes were metered on the engine totals (no stage given).
  const MetricsSnapshot snap = c.totals->Snapshot();
  EXPECT_GT(snap.dist_bytes_sent, 0u);
  EXPECT_GT(snap.dist_bytes_received, 0u);

  c.coord->DropShuffle(id.shuffle_id);
  EXPECT_EQ(c.coord->FetchBucket(c.totals_only(), id, 3).status().code(),
            StatusCode::kDataLoss);
}

TEST(CoordinatorTest, PushSurvivesWorkerDeathByReplacement) {
  dist::CoordinatorOptions opts;
  opts.num_executors = 2;
  opts.heartbeat_interval_ms = 0;
  opts.max_attempts = 3;
  Cluster c = MakeCluster(2, opts);

  // Executor 1 lives on worker 1; kill it before the push.
  c.transport->SetPeerDown(1, true);
  const dist::BucketId id{1, 0, 0, 1};
  ASSERT_TRUE(c.coord->PushBucket(c.totals_only(), id, 1, {9, 9}).ok());
  // The retry re-placed executor 1 onto the survivor.
  EXPECT_EQ(c.coord->live_workers(), 1);
  EXPECT_EQ(c.coord->WorkerOf(1).value(), 0);
  auto got = c.coord->FetchBucket(c.totals_only(), id, 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), (std::vector<uint8_t>{9, 9}));
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
