#include "src/dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "src/common/logging.h"

namespace sac::dist {

namespace {

/// The wire spans of one batched RPC: "wire" over the whole exchange,
/// split at the transport's stamps into wire:encode, wire:call and
/// wire:decode, parented under the task running on this thread. With
/// the tracer off it is inert: no clock reads, no records.
class WireSpans {
 public:
  explicit WireSpans(trace::Tracer* tracer)
      : tracer_(tracer && tracer->enabled() ? tracer : nullptr),
        begin_(tracer_ ? trace::NowMicros() : 0) {}

  /// Where the transport stamps the call; null when not tracing.
  net::CallStamps* stamps() { return tracer_ ? &stamps_ : nullptr; }

  /// Records the spans once the response is decoded. `bytes` is the
  /// RPC's wire bytes, both directions.
  void Record(size_t buckets, uint64_t bytes) {
    if (!tracer_) return;
    const uint64_t end = trace::NowMicros();
    const uint64_t id = tracer_->Complete(
        "wire", "wire", trace::CurrentParent(), begin_, end,
        {{"bytes", static_cast<int64_t>(bytes)},
         {"buckets", static_cast<int64_t>(buckets)}});
    tracer_->Complete("wire:encode", "wire", id, begin_, stamps_.encoded);
    tracer_->Complete("wire:call", "wire", id, stamps_.encoded,
                      stamps_.received);
    tracer_->Complete("wire:decode", "wire", id, stamps_.received, end);
  }

 private:
  trace::Tracer* const tracer_;
  const uint64_t begin_;
  net::CallStamps stamps_;
};

}  // namespace

Coordinator::Coordinator(std::unique_ptr<net::Transport> transport,
                         CoordinatorOptions opts, Metrics* totals,
                         trace::Tracer* tracer)
    : transport_(std::move(transport)),
      opts_(opts),
      totals_(totals, nullptr, nullptr),
      tracer_(tracer) {
  const int n = transport_->num_peers();
  alive_.assign(static_cast<size_t>(n), 1);
  pids_.assign(static_cast<size_t>(n), 0);
  missed_ms_.assign(static_cast<size_t>(n), 0);
}

Coordinator::~Coordinator() { StopHeartbeat(); }

Result<net::Frame> Coordinator::CallWorker(
    const MeterSink& sink, int worker, const net::Frame& req,
    const std::vector<net::ByteView>& tail, net::CallStamps* stamps) {
  Result<net::Frame> resp = transport_->Call(worker, req, tail, stamps);
  if (!resp.ok()) return resp;
  // Meter only completed round trips: a torn connection's partial bytes
  // are unknowable, and the retry's successful frames get counted.
  sink.Add(Counter::kDistBytesSent,
           net::EncodedSize(req) + net::PiecesSize(tail));
  sink.Add(Counter::kDistBytesReceived, net::EncodedSize(resp.value()));
  sink.Add(Counter::kDistRpcs, 1);
  const Status carried = StatusFromFrame(resp.value());
  if (!carried.ok()) return carried;
  return resp;
}

void Coordinator::Backoff(int attempt, int64_t* delay_us) const {
  if (attempt >= opts_.max_attempts || *delay_us <= 0) return;
  std::this_thread::sleep_for(std::chrono::microseconds(
      std::min<int64_t>(*delay_us, opts_.retry_max_delay_us)));
  *delay_us *= 2;
}

Result<net::Frame> Coordinator::CallExecutor(const MeterSink& sink,
                                             int executor,
                                             const net::Frame& req,
                                             net::CallStamps* stamps) {
  int64_t delay_us = opts_.retry_base_delay_us;
  for (int attempt = 1; attempt <= opts_.max_attempts; ++attempt) {
    SAC_ASSIGN_OR_RETURN(const int worker, WorkerOf(executor));
    Result<net::Frame> resp = CallWorker(sink, worker, req, {}, stamps);
    if (resp.ok()) return resp;
    if (resp.status().code() != StatusCode::kUnavailable) return resp;
    // The owner is gone; placement re-routes this executor onto a
    // survivor, and the next attempt targets that worker.
    MarkDead(worker, resp.status().message());
    Backoff(attempt, &delay_us);
  }
  return Status::Unavailable("rpc to executor " + std::to_string(executor) +
                             " failed after " +
                             std::to_string(opts_.max_attempts) +
                             " attempts");
}

Status Coordinator::ConnectAll() {
  net::Frame ping;
  ping.type = kPing;
  for (int w = 0; w < num_workers(); ++w) {
    Result<net::Frame> resp = CallWorker(totals_, w, ping);
    if (!resp.ok()) {
      return resp.status().WithContext("worker " + std::to_string(w) +
                                       " unreachable at startup");
    }
    ByteReader r(resp.value().payload);
    Result<PingInfo> info = DecodePingInfo(&r);
    if (info.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      pids_[static_cast<size_t>(w)] = info.value().pid;
    }
  }
  return Status::OK();
}

int Coordinator::live_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(
      std::count(alive_.begin(), alive_.end(), uint8_t{1}));
}

Result<int> Coordinator::WorkerOf(int executor) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> live;
  live.reserve(alive_.size());
  for (size_t w = 0; w < alive_.size(); ++w) {
    if (alive_[w]) live.push_back(static_cast<int>(w));
  }
  if (live.empty()) {
    return Status::Unavailable("all " + std::to_string(alive_.size()) +
                               " workers lost");
  }
  return live[static_cast<size_t>(executor) % live.size()];
}

uint64_t Coordinator::WorkerPid(int worker) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (worker < 0 || worker >= static_cast<int>(pids_.size())) return 0;
  return pids_[static_cast<size_t>(worker)];
}

bool Coordinator::MarkDead(int worker, const std::string& why) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (worker < 0 || worker >= static_cast<int>(alive_.size()) ||
        !alive_[static_cast<size_t>(worker)]) {
      return false;
    }
    alive_[static_cast<size_t>(worker)] = 0;
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  totals_.Add(Counter::kWorkersLost, 1);
  if (tracer_) {
    tracer_->Instant("worker-lost:" + std::to_string(worker), "dist", 0,
                     {{"worker", worker}});
  }
  SAC_LOG(Warn) << "worker " << worker << " marked dead (" << why
                << "); re-placing its executors on "
                << live_workers() << " survivors";
  return true;
}

Status Coordinator::PutBatch(const MeterSink& sink, int worker,
                             const std::vector<const OutgoingBucket*>& run) {
  WireSpans spans(tracer_);
  std::vector<BucketBytes> batch;
  batch.reserve(run.size());
  for (const OutgoingBucket* b : run) batch.push_back(b->bucket);
  net::Frame req;
  req.type = kPutBuckets;
  const std::vector<net::ByteView> tail = EncodePutBuckets(batch, &req.payload);
  SAC_ASSIGN_OR_RETURN(net::Frame resp,
                       CallWorker(sink, worker, req, tail, spans.stamps()));
  if (resp.type != kPutBucketsOk) {
    return Status::DataLoss("unexpected response type " +
                            std::to_string(resp.type) + " to PutBuckets");
  }
  spans.Record(batch.size(), net::EncodedSize(req) + net::PiecesSize(tail) +
                                 net::EncodedSize(resp));
  return Status::OK();
}

Status Coordinator::PushBuckets(const MeterSink& sink,
                                const std::vector<OutgoingBucket>& buckets) {
  std::vector<const OutgoingBucket*> pending;
  pending.reserve(buckets.size());
  for (const OutgoingBucket& b : buckets) pending.push_back(&b);
  const auto bytes_of = [](const OutgoingBucket* b) {
    return b->bucket.bytes->size();
  };
  int64_t delay_us = opts_.retry_base_delay_us;
  for (int attempt = 1; attempt <= opts_.max_attempts; ++attempt) {
    // One batch per worker under the current placement; a dead worker's
    // buckets go round again, re-placed onto the survivors.
    std::map<int, std::vector<const OutgoingBucket*>> by_worker;
    for (const OutgoingBucket* b : pending) {
      SAC_ASSIGN_OR_RETURN(const int worker, WorkerOf(b->executor));
      by_worker[worker].push_back(b);
    }
    std::vector<const OutgoingBucket*> failed;
    for (const auto& [worker, group] : by_worker) {
      Status st = Status::OK();
      for (const auto& run : SplitBatches(group, bytes_of)) {
        st = PutBatch(sink, worker, run);
        if (!st.ok()) break;
      }
      if (st.ok()) continue;
      if (st.code() != StatusCode::kUnavailable) return st;
      MarkDead(worker, st.message());
      failed.insert(failed.end(), group.begin(), group.end());
    }
    if (failed.empty()) return Status::OK();
    pending = std::move(failed);
    Backoff(attempt, &delay_us);
  }
  return Status::Unavailable("push of " + std::to_string(pending.size()) +
                             " buckets failed after " +
                             std::to_string(opts_.max_attempts) +
                             " attempts");
}

Result<Coordinator::FetchedBuckets> Coordinator::FetchBuckets(
    const MeterSink& sink, int executor, const std::vector<BucketId>& ids) {
  WireSpans spans(tracer_);
  net::Frame req;
  req.type = kGetBuckets;
  EncodeGetBuckets(ids, &req.payload);
  SAC_ASSIGN_OR_RETURN(net::Frame resp,
                       CallExecutor(sink, executor, req, spans.stamps()));
  if (resp.type != kGetBucketsOk) {
    return Status::DataLoss("unexpected response type " +
                            std::to_string(resp.type) + " to GetBuckets");
  }
  FetchedBuckets out;
  SAC_ASSIGN_OR_RETURN(out.buckets,
                       DecodeGetBucketsReply(resp.payload, ids.size()));
  spans.Record(ids.size(), net::EncodedSize(req) + net::EncodedSize(resp));
  out.payload = std::move(resp.payload);
  return out;
}

void Coordinator::DropShuffle(uint64_t sid) {
  net::Frame req;
  req.type = kDropShuffle;
  req.payload.reserve(sizeof(uint64_t));
  ByteWriter w(&req.payload);
  w.PutU64(sid);
  for (int worker = 0; worker < num_workers(); ++worker) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!alive_[static_cast<size_t>(worker)]) continue;
    }
    // Best-effort: a failure here means the worker died, and its
    // buckets with it.
    CallWorker(totals_, worker, req);
  }
}

void Coordinator::ShutdownWorkers() {
  net::Frame req;
  req.type = kShutdown;
  for (int worker = 0; worker < num_workers(); ++worker) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!alive_[static_cast<size_t>(worker)]) continue;
    }
    CallWorker(totals_, worker, req);
  }
}

void Coordinator::SweepOnce() {
  net::Frame ping;
  ping.type = kPing;
  const int tick_ms = std::max(1, opts_.heartbeat_interval_ms);
  for (int worker = 0; worker < num_workers(); ++worker) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!alive_[static_cast<size_t>(worker)]) continue;
    }
    Result<net::Frame> resp = CallWorker(totals_, worker, ping);
    if (resp.ok()) {
      ByteReader r(resp.value().payload);
      Result<PingInfo> info = DecodePingInfo(&r);
      std::lock_guard<std::mutex> lock(mu_);
      missed_ms_[static_cast<size_t>(worker)] = 0;
      if (info.ok()) pids_[static_cast<size_t>(worker)] = info.value().pid;
      continue;
    }
    int missed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      missed = missed_ms_[static_cast<size_t>(worker)] += tick_ms;
    }
    if (missed >= opts_.heartbeat_timeout_ms) {
      MarkDead(worker, "heartbeat silent for " + std::to_string(missed) +
                           " ms: " + resp.status().message());
    }
  }
}

void Coordinator::StartHeartbeat() {
  if (opts_.heartbeat_interval_ms <= 0 || heartbeat_.joinable()) return;
  heartbeat_ = std::thread([this] { HeartbeatLoop(); });
}

void Coordinator::StopHeartbeat() {
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
}

void Coordinator::HeartbeatLoop() {
  const auto interval =
      std::chrono::milliseconds(opts_.heartbeat_interval_ms);
  std::unique_lock<std::mutex> lock(hb_mu_);
  while (!hb_stop_) {
    if (hb_cv_.wait_for(lock, interval, [this] { return hb_stop_; })) {
      break;
    }
    lock.unlock();
    SweepOnce();
    lock.lock();
  }
}

}  // namespace sac::dist
