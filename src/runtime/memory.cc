#include "src/runtime/memory.h"

#include <cstdlib>
#include <vector>

#include "src/common/logging.h"
#include "src/storage/spill.h"

namespace sac::runtime::memory {

uint64_t BudgetFromEnv(uint64_t fallback) {
  return BudgetFromEnv("SAC_MEM_BUDGET", fallback);
}

uint64_t BudgetFromEnv(const char* var, uint64_t fallback) {
  const char* env = std::getenv(var);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env) {
    SAC_LOG(Warn) << "ignoring unparseable " << var << "='" << env << "'";
    return fallback;
  }
  uint64_t mult = 1;
  switch (*end) {
    case 'k': case 'K': mult = 1024ULL; break;
    case 'm': case 'M': mult = 1024ULL * 1024; break;
    case 'g': case 'G': mult = 1024ULL * 1024 * 1024; break;
    case '\0': break;
    default:
      SAC_LOG(Warn) << "ignoring unparseable " << var << "='" << env << "'";
      return fallback;
  }
  return static_cast<uint64_t>(v) * mult;
}

BlockStore::BlockStore(Options opts)
    : opts_(std::move(opts)), mgr_(opts_.budget_bytes) {}

BlockStore::~BlockStore() { Shutdown(); }

void BlockStore::set_event_sink(EventSink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

void BlockStore::set_reclaimable(std::function<uint64_t()> bytes_fn,
                                 std::function<void()> trim_fn) {
  std::lock_guard<std::mutex> lock(mu_);
  reclaimable_bytes_ = std::move(bytes_fn);
  reclaim_ = std::move(trim_fn);
}

void BlockStore::Emit(const BlockEvent& ev) {
  if (sink_) sink_(ev);
}

Status BlockStore::Publish(const void* owner, int part, ValueVec* slot,
                           uint64_t bytes, const std::string& label,
                           MemoryManager* session) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return Status::OK();
  Entry& e = blocks_[Key{owner, part}];
  if (e.slot != nullptr && e.resident) {
    mgr_.Release(e.bytes);
    if (e.session != nullptr) e.session->Release(e.bytes);
  }
  if (e.spill_valid) {
    // The block was recomputed; whatever the old spill holds is stale.
    storage::RemoveSpill(e.spill_path);
    e.spill_valid = false;
    spilled_bytes_.fetch_sub(e.bytes, std::memory_order_relaxed);
  }
  e.slot = slot;
  e.bytes = bytes;
  e.resident = true;
  e.label = label;
  e.tick = ++tick_;
  e.session = session;
  auto pri = owner_priority_.find(owner);
  if (pri != owner_priority_.end()) e.priority = pri->second;
  mgr_.Charge(bytes);
  if (session != nullptr) session->Charge(bytes);
  SAC_RETURN_NOT_OK(EnforceBudgetLocked());
  return EnforceSessionBudgetLocked(session);
}

Result<PinOutcome> BlockStore::Pin(const void* owner, int part) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return PinOutcome::kResident;
  auto it = blocks_.find(Key{owner, part});
  if (it == blocks_.end()) return PinOutcome::kResident;  // unmanaged
  Entry& e = it->second;
  e.tick = ++tick_;
  if (e.resident) {
    ++e.pins;
    return PinOutcome::kResident;
  }
  // Evicted: reload from the spill file. An unreadable file (kDataLoss
  // from the checksum footer, or any other read failure) is not fatal --
  // the block still has lineage, so drop it and let the caller
  // recompute. That is the fault-tolerance composition point: eviction
  // behaves like a deterministic, recoverable partition loss.
  Result<ValueVec> rows = storage::ReadSpill(e.spill_path);
  if (!rows.ok()) {
    SAC_LOG(Warn) << "spill reload of " << e.label << " partition " << part
                  << " failed (" << rows.status().ToString()
                  << "); falling back to lineage recomputation";
    BlockEvent ev{BlockEvent::Kind::kReloadRecompute, owner, e.label, part,
                  e.bytes};
    storage::RemoveSpill(e.spill_path);
    spilled_bytes_.fetch_sub(e.bytes, std::memory_order_relaxed);
    blocks_.erase(it);
    Emit(ev);
    return PinOutcome::kNeedsRecompute;
  }
  *e.slot = std::move(rows).value();
  e.resident = true;
  ++e.pins;
  mgr_.Charge(e.bytes);
  if (e.session != nullptr) e.session->Charge(e.bytes);
  ++reloads_;
  Emit(BlockEvent{BlockEvent::Kind::kReload, owner, e.label, part,
                  e.bytes});
  // The reload itself may have pushed residency over budget; make room
  // by evicting other cold blocks (this one is pinned now).
  SAC_RETURN_NOT_OK(EnforceBudgetLocked());
  SAC_RETURN_NOT_OK(EnforceSessionBudgetLocked(e.session));
  return PinOutcome::kReloaded;
}

void BlockStore::Unpin(const void* owner, int part) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;
  auto it = blocks_.find(Key{owner, part});
  if (it == blocks_.end()) return;  // unmanaged pin
  SAC_CHECK(it->second.pins > 0)
      << "unbalanced Unpin of " << it->second.label << " partition " << part;
  --it->second.pins;
}

void BlockStore::SetPriority(const void* owner, bool priority) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;
  owner_priority_[owner] = priority;
  for (auto& [key, e] : blocks_) {
    if (key.first == owner) e.priority = priority;
  }
}

void BlockStore::Discard(const void* owner, int part) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;
  auto it = blocks_.find(Key{owner, part});
  if (it == blocks_.end()) return;
  SAC_CHECK(it->second.pins == 0)
      << "Discard of pinned block " << it->second.label << " partition "
      << part;
  DropLocked(it->first, &it->second);
  blocks_.erase(it);
}

void BlockStore::Unregister(const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    if (it->first.first != owner) {
      ++it;
      continue;
    }
    SAC_CHECK(it->second.pins == 0)
        << "dataset " << it->second.label
        << " destroyed with pinned partition " << it->first.second;
    DropLocked(it->first, &it->second);
    it = blocks_.erase(it);
  }
  owner_priority_.erase(owner);
}

void BlockStore::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;
  for (auto& [key, e] : blocks_) {
    SAC_CHECK(e.pins == 0) << "engine shut down with pinned partition "
                           << e.label << "[" << key.second << "]";
    DropLocked(key, &e);
  }
  blocks_.clear();
  owner_priority_.clear();
  if (spill_dir_ready_) storage::RemoveSpillDir(opts_.spill_dir);
  sink_ = nullptr;
  reclaimable_bytes_ = nullptr;
  reclaim_ = nullptr;
  shutdown_ = true;
}

void BlockStore::DropLocked(const Key& k, Entry* e) {
  (void)k;
  if (e->resident) {
    mgr_.Release(e->bytes);
    if (e->session != nullptr) e->session->Release(e->bytes);
  }
  if (!e->spill_path.empty()) storage::RemoveSpill(e->spill_path);
  if (e->spill_valid) {
    spilled_bytes_.fetch_sub(e->bytes, std::memory_order_relaxed);
  }
  e->resident = false;
  e->spill_valid = false;
}

Status BlockStore::EnforceBudgetLocked() {
  if (mgr_.unlimited()) return Status::OK();
  const uint64_t budget = mgr_.budget();
  uint64_t reclaimable = reclaimable_bytes_ ? reclaimable_bytes_() : 0;
  if (mgr_.resident_bytes() + reclaimable <= budget) return Status::OK();
  // Reclaimable caches (shuffle buffer pool freelists) go first: giving
  // their bytes back costs nothing compared to spilling a partition.
  if (reclaimable > 0 && reclaim_) {
    reclaim_();
    reclaimable = reclaimable_bytes_ ? reclaimable_bytes_() : 0;
  }
  bool allow_priority = false;
  while (mgr_.resident_bytes() + reclaimable > budget) {
    Entry* victim = nullptr;
    Key victim_key{nullptr, -1};
    for (auto& [key, e] : blocks_) {
      if (!e.resident || e.pins > 0 || e.bytes == 0) continue;
      if (e.priority && !allow_priority) continue;
      if (victim == nullptr || e.tick < victim->tick) {
        victim = &e;
        victim_key = key;
      }
    }
    if (victim == nullptr) {
      if (!allow_priority) {
        // Only priority blocks are left cold; evict them before running
        // over budget with pinned blocks.
        allow_priority = true;
        continue;
      }
      if (!warned_all_pinned_) {
        warned_all_pinned_ = true;
        SAC_LOG(Warn) << "memory budget over-committed: "
                      << mgr_.resident_bytes() << "+" << reclaimable << " of "
                      << budget
                      << " bytes are pinned by in-flight tasks; running "
                         "over budget instead of deadlocking";
      }
      return Status::OK();
    }
    SAC_RETURN_NOT_OK(EvictLocked(victim_key, victim));
  }
  return Status::OK();
}

Status BlockStore::EnforceSessionBudgetLocked(MemoryManager* session) {
  if (session == nullptr || session->unlimited()) return Status::OK();
  const uint64_t budget = session->budget();
  bool allow_priority = false;
  while (session->resident_bytes() > budget) {
    Entry* victim = nullptr;
    Key victim_key{nullptr, -1};
    for (auto& [key, e] : blocks_) {
      if (e.session != session) continue;  // slice overruns stay local
      if (!e.resident || e.pins > 0 || e.bytes == 0) continue;
      if (e.priority && !allow_priority) continue;
      if (victim == nullptr || e.tick < victim->tick) {
        victim = &e;
        victim_key = key;
      }
    }
    if (victim == nullptr) {
      if (!allow_priority) {
        allow_priority = true;
        continue;
      }
      // Everything left in the slice is pinned by in-flight tasks; run
      // over the slice rather than deadlocking (same progress guarantee
      // as the global budget).
      return Status::OK();
    }
    SAC_RETURN_NOT_OK(EvictLocked(victim_key, victim));
  }
  return Status::OK();
}

Status BlockStore::EvictLocked(const Key& k, Entry* e) {
  if (!e->spill_valid) {
    // Re-ensured on every spill write (mkdir on an existing dir is one
    // cheap syscall next to the file I/O): if an operator reclaims the
    // directory mid-run the store recreates it instead of wedging every
    // subsequent eviction.
    SAC_RETURN_NOT_OK(storage::EnsureSpillDir(opts_.spill_dir)
                          .WithContext("eviction spill directory"));
    spill_dir_ready_ = true;
    if (e->spill_path.empty()) {
      e->spill_path =
          opts_.spill_dir + "/evict-" + std::to_string(next_file_++) +
          ".spill";
    }
    SAC_RETURN_NOT_OK(storage::WriteSpill(e->spill_path, *e->slot)
                          .status()
                          .WithContext("evicting " + e->label +
                                       " partition " +
                                       std::to_string(k.second)));
    e->spill_valid = true;
    spilled_bytes_.fetch_add(e->bytes, std::memory_order_relaxed);
  }
  ValueVec().swap(*e->slot);  // actually frees the heap, not just size=0
  e->resident = false;
  mgr_.Release(e->bytes);
  if (e->session != nullptr) e->session->Release(e->bytes);
  ++evictions_;
  Emit(BlockEvent{BlockEvent::Kind::kEvict, k.first, e->label, k.second,
                  e->bytes});
  return Status::OK();
}

bool BlockStore::IsRegistered(const void* owner, int part) const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocks_.count(Key{owner, part}) > 0;
}

bool BlockStore::IsEvicted(const void* owner, int part) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(Key{owner, part});
  return it != blocks_.end() && !it->second.resident;
}

size_t BlockStore::registered_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocks_.size();
}

int BlockStore::pinned_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (const auto& [key, e] : blocks_) n += e.pins > 0 ? 1 : 0;
  return n;
}

uint64_t BlockStore::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

uint64_t BlockStore::reloads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reloads_;
}

}  // namespace sac::runtime::memory
