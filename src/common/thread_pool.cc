#include "src/common/thread_pool.h"

#include <algorithm>
#include <memory>

namespace sac {

ThreadPool::ThreadPool(size_t num_threads) {
  queues_[kDefaultQueue];  // the default queue always exists
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool::QueueId ThreadPool::OpenQueue() {
  std::lock_guard<std::mutex> lock(mu_);
  const QueueId id = next_queue_id_++;
  queues_[id];
  return id;
}

void ThreadPool::CloseQueue(QueueId id) {
  if (id == kDefaultQueue) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queues_.find(id);
  if (it == queues_.end()) return;
  std::deque<Task>& dflt = queues_[kDefaultQueue];
  for (Task& task : it->second) dflt.push_back(std::move(task));
  queues_.erase(it);
}

void ThreadPool::Submit(QueueId queue, std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = queues_.find(queue);
    if (it == queues_.end()) it = queues_.find(kDefaultQueue);
    it->second.push_back(Task{std::move(task), nullptr});
    ++queued_;
  }
  cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queued_ == 0 && active_ == 0; });
}

ThreadPool::Task ThreadPool::PopLocked() {
  // One task per round from the first non-empty queue at or after the
  // cursor (wrapping), then advance past it: every queue with pending
  // work is served once before any queue is served twice.
  auto it = queues_.lower_bound(rr_next_);
  for (size_t scanned = 0; scanned <= queues_.size(); ++scanned) {
    if (it == queues_.end()) it = queues_.begin();
    if (!it->second.empty()) break;
    ++it;
  }
  Task task = std::move(it->second.front());
  it->second.pop_front();
  --queued_;
  rr_next_ = it->first + 1;
  return task;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             size_t chunk, QueueId queue) {
  if (n == 0) return;
  const size_t workers = std::min(n, num_threads());
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (chunk == 0) {
    // Partition-task ranges (n comparable to the pool width) claim one
    // index at a time so a skewed partition never queues work behind it;
    // large fine-grained ranges amortize per-task overhead over a chunk
    // while still leaving ~8 claims per worker for rebalancing.
    chunk = n <= workers * 16 ? 1 : n / (workers * 8);
  }
  // One pool task per chunk: popping a chunk off the queue is the
  // dynamic claim (finishing order adapts to per-index cost), and the
  // round-robin scheduler can interleave other queues' tasks between
  // chunks. A per-call latch signals completion so this does not
  // interfere with unrelated tasks in the same pool.
  auto batch = std::make_shared<Batch>();
  const size_t chunks = (n + chunk - 1) / chunk;
  std::unique_lock<std::mutex> lock(mu_);
  batch->pending = chunks;
  auto it = queues_.find(queue);
  if (it == queues_.end()) it = queues_.find(kDefaultQueue);
  for (size_t c = 0; c < chunks; ++c) {
    const size_t lo = c * chunk;
    const size_t hi = std::min(n, lo + chunk);
    it->second.push_back(Task{[&fn, lo, hi] {
                                for (size_t i = lo; i < hi; ++i) fn(i);
                              },
                              batch});
  }
  queued_ += chunks;
  cv_.notify_all();
  batch->done.wait(lock, [&] { return batch->pending == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || queued_ > 0; });
      if (shutdown_ && queued_ == 0) return;
      task = PopLocked();
      ++active_;
    }
    task.fn();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (task.batch && --task.batch->pending == 0) {
        task.batch->done.notify_all();
      }
      if (queued_ == 0 && active_ == 0) idle_cv_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::Default() {
  static ThreadPool* pool = new ThreadPool(
      std::max(2u, std::thread::hardware_concurrency()));
  return *pool;
}

}  // namespace sac
