// Fixed-size thread pool with a ParallelFor helper. This is the substrate
// for both levels of parallelism in the paper's generated code: Spark's
// task-per-partition parallelism and Scala's `.par` multicore loops inside
// a tile operation.
//
// Fair multi-queue scheduling (docs/SERVICE.md): the pool holds one task
// queue per open session plus a default queue (id 0). Workers drain the
// queues round-robin at task granularity, so a giant stage submitted by
// one session cannot starve a small query from another -- each live queue
// gets one task per scheduling round. ParallelFor submits one task per
// claim-chunk (popping a chunk off the queue IS the dynamic claim), which
// keeps the skew-aware rebalancing of the old shared-cursor scheme while
// letting the round-robin interleave stages from different queues.
#ifndef SAC_COMMON_THREAD_POOL_H_
#define SAC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sac {

class ThreadPool {
 public:
  /// Identifies one fair-scheduled task queue. Queue 0 is the default
  /// queue: always open, used by work not attributed to any session.
  using QueueId = uint64_t;
  static constexpr QueueId kDefaultQueue = 0;

  /// Creates `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Tasks currently executing plus tasks still queued on any queue --
  /// the engine sampler's in-flight gauge. Takes the pool mutex; cheap
  /// at millisecond-scale sampling intervals.
  size_t in_flight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_ + queued_;
  }

  /// Opens a new fair-scheduled queue and returns its id (never 0).
  QueueId OpenQueue();

  /// Closes a queue. Tasks still pending on it migrate to the default
  /// queue (they run; they just lose their fairness slot). Closing an
  /// unknown id or the default queue is a no-op.
  void CloseQueue(QueueId id);

  /// Enqueues a task on `queue`. Tasks must not throw. Submitting to a
  /// closed or unknown queue falls back to the default queue, so a
  /// dataset outliving its session still computes.
  void Submit(QueueId queue, std::function<void()> task);
  void Submit(std::function<void()> task) {
    Submit(kDefaultQueue, std::move(task));
  }

  /// Blocks until every submitted task (on every queue) has finished.
  void Wait();

  /// Runs fn(i) for i in [0, n), splitting work across the pool and
  /// blocking until done: on return every chunk has fully retired, so
  /// in_flight() no longer counts any of them. Safe to call from outside
  /// the pool only.
  ///
  /// Scheduling is skew-aware: the range is cut into claim-chunks and
  /// each chunk is one pool task, so one fat index (a skewed partition)
  /// occupies one worker while the rest drain the remaining chunks --
  /// the stage is never serialized behind the heaviest element. `chunk`
  /// overrides the claim granularity; 0 picks one index per chunk when n
  /// is within a small multiple of the pool width (partition-task
  /// workloads) and an amortizing chunk otherwise (fine-grained
  /// elementwise loops). `queue` places the chunks on a fair-scheduled
  /// session queue (see OpenQueue).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   size_t chunk = 0, QueueId queue = kDefaultQueue);

  /// Process-wide default pool sized from hardware_concurrency (min 2, so
  /// concurrency bugs surface even on single-core hosts).
  static ThreadPool& Default();

 private:
  /// Completion latch of one ParallelFor call, guarded by mu_ and
  /// counted down by the worker in the same critical section that
  /// retires the chunk from active_.
  struct Batch {
    size_t pending = 0;
    std::condition_variable done;
  };
  struct Task {
    std::function<void()> fn;
    std::shared_ptr<Batch> batch;  // null for Submit()ted tasks
  };

  void WorkerLoop();
  /// Picks the next task round-robin across non-empty queues. Caller
  /// holds mu_ and has checked queued_ > 0.
  Task PopLocked();

  std::vector<std::thread> workers_;
  // Queue 0 (default) is created in the constructor and never erased;
  // session queues come and go via OpenQueue/CloseQueue. std::map keeps
  // ids ordered so the round-robin cursor can wrap deterministically.
  std::map<QueueId, std::deque<Task>> queues_;
  QueueId next_queue_id_ = 1;
  QueueId rr_next_ = 0;  // round-robin cursor: next queue id to serve
  size_t queued_ = 0;    // total tasks across all queues
  mutable std::mutex mu_;
  std::condition_variable cv_;        // wakes workers
  std::condition_variable idle_cv_;   // wakes Wait()
  size_t active_ = 0;
  bool shutdown_ = false;
};

}  // namespace sac

#endif  // SAC_COMMON_THREAD_POOL_H_
