// Multi-tenant service primitives (docs/SERVICE.md):
//
//  * Session       -- the runtime half of one client session: a stable
//    id/name, a per-session Metrics (every MeterSink built for one of the
//    session's datasets charges it, so every counter they meter is
//    attributed to the session), a
//    per-session MemoryManager slice (enforced by the BlockStore on top
//    of the global budget), and a fair-scheduled ThreadPool queue. The
//    API-facing half (bindings, Eval surface) lives in sac::Session;
//    this object carries only what the engine's worker threads touch.
//  * AdmissionGate -- ticket-based concurrent-query admission replacing
//    the old one-query-at-a-time assertion: up to max_concurrent_queries
//    tickets are live at once, later queries block (FIFO-ish via the
//    condition variable) until a slot frees. Admission is metered as
//    queries_admitted / queries_queued.
//
// Lifetime: datasets hold shared_ptr<Session> (a dataset may outlive
// both its sac::Session facade and the Engine), so Session must not
// touch the ThreadPool in its destructor -- the facade closes the queue,
// and submits to a closed queue fall back to the default queue.
#ifndef SAC_RUNTIME_SESSION_H_
#define SAC_RUNTIME_SESSION_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "src/common/metrics.h"
#include "src/common/thread_pool.h"
#include "src/runtime/memory.h"

namespace sac::runtime {

class Session {
 public:
  Session(uint64_t id, std::string name, uint64_t memory_budget_bytes,
          ThreadPool::QueueId queue)
      : id_(id), name_(std::move(name)), mem_(memory_budget_bytes),
        queue_(queue) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  /// Per-session counters; written from pool threads through
  /// MeterSink, so it shares Metrics' sharded thread-safety.
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  /// Per-session resident-byte slice (0 = unlimited). The BlockStore
  /// charges each published block against its owning session's slice in
  /// addition to the global budget.
  memory::MemoryManager& memory() { return mem_; }
  const memory::MemoryManager& memory() const { return mem_; }
  ThreadPool::QueueId queue() const { return queue_; }

  /// The session the calling thread is currently working for (set by
  /// Scope on the client thread around data creation and query
  /// execution), or nullptr. Engine::NewDataset captures this, so every
  /// dataset knows its session without any API plumbing.
  static const std::shared_ptr<Session>& Current();

  /// RAII: installs `session` as the calling thread's current session,
  /// restoring the previous value (nesting-safe) on destruction.
  class Scope {
   public:
    explicit Scope(std::shared_ptr<Session> session);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::shared_ptr<Session> prev_;
  };

 private:
  const uint64_t id_;
  const std::string name_;
  Metrics metrics_;
  memory::MemoryManager mem_;
  const ThreadPool::QueueId queue_;
};

/// Bounded concurrent-query admission. Admit() blocks while
/// max_concurrent tickets are live; the returned RAII ticket frees the
/// slot. Metered through the sink passed per call.
class AdmissionGate {
 public:
  explicit AdmissionGate(int max_concurrent)
      : max_(max_concurrent < 1 ? 1 : max_concurrent) {}

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& o) noexcept : gate_(o.gate_) { o.gate_ = nullptr; }
    Ticket& operator=(Ticket&& o) noexcept {
      if (this != &o) {
        Release();
        gate_ = o.gate_;
        o.gate_ = nullptr;
      }
      return *this;
    }
    ~Ticket() { Release(); }
    bool valid() const { return gate_ != nullptr; }

   private:
    friend class AdmissionGate;
    explicit Ticket(AdmissionGate* gate) : gate_(gate) {}
    void Release() {
      if (gate_ != nullptr) gate_->Release();
      gate_ = nullptr;
    }
    AdmissionGate* gate_ = nullptr;
  };

  /// Blocks until a slot is free, then returns the live ticket. Meters
  /// queries_admitted (always) and queries_queued (when it had to wait)
  /// into `sink`.
  Ticket Admit(const MeterSink& sink);

  /// Queries holding a live ticket right now.
  int live() const {
    std::lock_guard<std::mutex> lock(mu_);
    return live_;
  }

  int max_concurrent() const { return max_; }

 private:
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --live_;
    }
    cv_.notify_one();
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  const int max_;
  int live_ = 0;
};

}  // namespace sac::runtime

#endif  // SAC_RUNTIME_SESSION_H_
