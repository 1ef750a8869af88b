// Memory manager + block store: budgeted caching of materialized
// partitions with LRU spill-eviction and transparent reload, the layer
// that lets workloads whose working set exceeds RAM run out-of-core
// (docs/MEMORY_MODEL.md; DESIGN.md section 10).
//
// Two pieces:
//  * MemoryManager -- pure accounting: resident partition bytes charged
//    against a global budget (0 = unlimited), with a monotone peak
//    high-water mark.
//  * BlockStore    -- the registry of every materialized partition
//    ("block"), keyed by (owner dataset, partition index). Publishing a
//    block charges its Value::SerializedSize footprint; when the charge
//    pushes resident + pooled-buffer bytes over the budget, the store
//    first trims the engine's shuffle buffer pools (cheap, reclaimable)
//    and then evicts least-recently-used unpinned blocks to spill files.
//    Pin() brings an evicted block back from its spill file; if the file
//    is unreadable (kDataLoss), the block is dropped and the caller is
//    told to recompute it from lineage -- composing with the PR 4
//    retry/recovery machinery rather than duplicating it.
//
// Pin discipline: every task-side read of a partition holds a pin for
// the duration of the access, so the rows of an in-flight task are never
// evicted under it. Pins are cheap (one mutex hop) and must be balanced;
// Shutdown() SAC_CHECKs that none remain. Priority blocks (DIABLO
// in-loop datasets, checkpointed nodes) are evicted only when no
// ordinary victim remains.
//
// Concurrency: one mutex guards the whole store, and spill I/O happens
// under it. That serializes evictions/reloads against each other --
// deliberately: correctness of the accounting and of the LRU state is
// the point, and eviction I/O is already the slow path. The accounting
// gauges (resident/peak) are lock-free atomics so hot-path readers never
// touch the lock.
#ifndef SAC_RUNTIME_MEMORY_H_
#define SAC_RUNTIME_MEMORY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/runtime/value.h"

namespace sac::runtime::memory {

/// Parses SAC_MEM_BUDGET ("268435456", "256M", "1G", "512K", "0" =
/// unlimited); returns `fallback` when the variable is unset or
/// unparseable. The env var wins over the config field so operators can
/// impose a budget on any binary without a code change.
uint64_t BudgetFromEnv(uint64_t fallback);

/// Same parsing for an arbitrary byte-size env var (e.g.
/// SAC_SESSION_MEM_BUDGET, the default per-session slice).
uint64_t BudgetFromEnv(const char* var, uint64_t fallback);

/// Budget accounting: resident partition bytes vs. a fixed cap.
/// Thread-safe; all operations are single atomics.
class MemoryManager {
 public:
  explicit MemoryManager(uint64_t budget_bytes) : budget_(budget_bytes) {}

  /// 0 means unlimited (no eviction ever happens).
  uint64_t budget() const { return budget_; }
  bool unlimited() const { return budget_ == 0; }

  void Charge(uint64_t bytes) {
    const uint64_t now =
        resident_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    uint64_t prev = peak_.load(std::memory_order_relaxed);
    while (prev < now && !peak_.compare_exchange_weak(
                             prev, now, std::memory_order_relaxed)) {
    }
  }
  void Release(uint64_t bytes) {
    resident_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  uint64_t resident_bytes() const {
    return resident_.load(std::memory_order_relaxed);
  }
  uint64_t peak_resident_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }
  /// Restarts the high-water mark from the current residency (stats
  /// reset between measured runs; resident blocks stay resident).
  void RearmPeak() {
    peak_.store(resident_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }

 private:
  const uint64_t budget_;
  std::atomic<uint64_t> resident_{0};
  std::atomic<uint64_t> peak_{0};
};

/// What Pin() found.
enum class PinOutcome {
  kResident,         // block was in memory (or is unmanaged)
  kReloaded,         // block was read back from its eviction spill file
  kNeedsRecompute,   // spill unreadable; block dropped -- recompute it,
                     // re-publish, and pin again
};

/// One eviction/reload event, delivered to the engine's sink for
/// metrics attribution (stage, session, totals) and trace instants.
/// Delivered under the store lock, so `owner` is still registered (alive).
struct BlockEvent {
  enum class Kind { kEvict, kReload, kReloadRecompute };
  Kind kind = Kind::kEvict;
  const void* owner = nullptr;  // the publishing owner (engine: DatasetImpl)
  std::string label;  // owning dataset's label, for trace naming
  int part = -1;
  uint64_t bytes = 0;
};

class BlockStore {
 public:
  struct Options {
    uint64_t budget_bytes = 0;  // 0 = unlimited
    // Directory for eviction spill files; created lazily on first
    // eviction, removed (with its files) by Shutdown().
    std::string spill_dir;
  };
  using EventSink = std::function<void(const BlockEvent&)>;

  explicit BlockStore(Options opts);
  ~BlockStore();

  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  /// Installs the metrics/trace sink. Called under the store lock; the
  /// sink must not call back into the store.
  void set_event_sink(EventSink sink);

  /// Registers reclaimable caller-side memory (the shuffle buffer
  /// pools): `bytes_fn` reports how many bytes the caches currently
  /// pin, `trim_fn` releases them. Under pressure the store trims these
  /// before evicting any partition.
  void set_reclaimable(std::function<uint64_t()> bytes_fn,
                       std::function<void()> trim_fn);

  const MemoryManager& manager() const { return mgr_; }

  /// Restarts the peak-residency high-water mark from the current
  /// residency (Engine::ResetStats between measured runs).
  void RearmPeak() { mgr_.RearmPeak(); }

  /// Registers (or re-registers, after recomputation) the block
  /// (owner, part) whose rows live in `*slot` -- an address that must
  /// stay stable until Unregister/Discard -- as resident with the given
  /// footprint, then enforces the budget (which may evict other cold
  /// blocks, or this one). Any stale spill file from a previous
  /// incarnation of the block is removed. Errors are eviction spill
  /// write failures; the registration itself always takes effect and
  /// no data is lost.
  ///
  /// `session`, when non-null, is the owning session's memory slice
  /// (docs/SERVICE.md): the block's footprint is charged against it in
  /// addition to the global budget, and a slice overrun evicts only that
  /// session's blocks. The manager must outlive the block (datasets hold
  /// shared_ptr<Session>, which owns the slice).
  Status Publish(const void* owner, int part, ValueVec* slot,
                 uint64_t bytes, const std::string& label,
                 MemoryManager* session = nullptr);

  /// Pins (owner, part) so it cannot be evicted. kResident/kReloaded:
  /// the rows are in the published slot until Unpin(). kNeedsRecompute:
  /// the block's spill file was unreadable and the block was dropped
  /// (not pinned) -- recompute, Publish, pin again. Unknown blocks pin
  /// trivially as kResident: data the store has never seen is never
  /// evicted. Errors are budget-enforcement spill failures after a
  /// successful reload.
  Result<PinOutcome> Pin(const void* owner, int part);
  void Unpin(const void* owner, int part);

  /// Marks every block of `owner` (current and future) as
  /// admission-priority: evicted only when no ordinary victim remains.
  /// Used for DIABLO in-loop datasets and checkpointed nodes.
  void SetPriority(const void* owner, bool priority);

  /// Drops one block and its spill file (partition invalidated for
  /// recomputation). The block must not be pinned.
  void Discard(const void* owner, int part);

  /// Drops every block of `owner` and their spill files (dataset
  /// teardown). SAC_CHECKs that none of them are pinned.
  void Unregister(const void* owner);

  /// Engine teardown: SAC_CHECKs no pinned blocks remain, drops every
  /// block, removes the spill directory with all its files, and detaches
  /// the sink and reclaim hooks. Idempotent; the store is inert (every
  /// call is a no-op) afterwards.
  void Shutdown();

  // ---- introspection (tests / reports) --------------------------------
  uint64_t resident_bytes() const { return mgr_.resident_bytes(); }
  uint64_t peak_resident_bytes() const { return mgr_.peak_resident_bytes(); }
  /// Bytes currently sitting in valid eviction spill files -- the
  /// out-of-core complement of resident_bytes. Lock-free (sampler-safe).
  uint64_t spilled_bytes() const {
    return spilled_bytes_.load(std::memory_order_relaxed);
  }
  bool IsRegistered(const void* owner, int part) const;
  bool IsEvicted(const void* owner, int part) const;
  size_t registered_blocks() const;
  int pinned_blocks() const;
  uint64_t evictions() const;
  uint64_t reloads() const;

 private:
  struct Entry {
    ValueVec* slot = nullptr;
    uint64_t bytes = 0;      // footprint charged while resident
    int pins = 0;
    bool resident = true;
    bool priority = false;
    // The spill file holds the block's current contents (set by
    // eviction, cleared by re-Publish).
    bool spill_valid = false;
    std::string spill_path;
    uint64_t tick = 0;       // LRU recency stamp (higher = hotter)
    std::string label;
    // Owning session's memory slice; charged/released in lockstep with
    // the global manager across every residency transition.
    MemoryManager* session = nullptr;
  };
  using Key = std::pair<const void*, int>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<const void*>()(k.first) * 1000003u ^
             std::hash<int>()(k.second);
    }
  };

  /// Evicts LRU-first until resident + reclaimable fits the budget.
  /// Progress guarantee: pools are trimmed first; pinned blocks are
  /// skipped (a fully-pinned over-budget store runs over budget with a
  /// one-time warning rather than deadlocking).
  Status EnforceBudgetLocked();
  /// Evicts LRU-first among `session`'s own blocks until its slice fits.
  /// Other sessions' blocks are never victims of a slice overrun.
  Status EnforceSessionBudgetLocked(MemoryManager* session);
  Status EvictLocked(const Key& k, Entry* e);
  void DropLocked(const Key& k, Entry* e);  // accounting + spill removal
  void Emit(const BlockEvent& ev);

  mutable std::mutex mu_;
  Options opts_;
  MemoryManager mgr_;
  std::unordered_map<Key, Entry, KeyHash> blocks_;
  // Owners flagged priority before any block was published (SetPriority
  // may precede Publish for in-loop datasets).
  std::unordered_map<const void*, bool> owner_priority_;
  uint64_t tick_ = 0;
  uint64_t next_file_ = 0;
  bool spill_dir_ready_ = false;
  bool shutdown_ = false;
  bool warned_all_pinned_ = false;
  EventSink sink_;
  std::function<uint64_t()> reclaimable_bytes_;
  std::function<void()> reclaim_;
  uint64_t evictions_ = 0;
  uint64_t reloads_ = 0;
  // Gauge, not guarded by mu_: read by the engine sampler thread.
  std::atomic<uint64_t> spilled_bytes_{0};
};

}  // namespace sac::runtime::memory

#endif  // SAC_RUNTIME_MEMORY_H_
