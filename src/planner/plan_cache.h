// Compiled-plan cache (docs/SERVICE.md): repeat queries skip
// parse -> normalize -> plan entirely and reuse the CompiledQuery built
// the first time.
//
// Keying: a cache key is the whitespace-normalized comprehension text
// plus each binding's shape signature (BindingShape: scalar values,
// array kinds, extents and block sizes) plus the planner options that
// can change the chosen plan. A compiled plan holds no data -- its run
// closure reads the datasets from the bindings it is handed -- so
// rebinding a name to a new matrix of the same shape hits, and an entry
// never keeps a dataset alive. Queries with kLocal bindings are
// uncacheable (local values have no cheap signature) and report an
// empty key.
//
// Replacement is LRU over a fixed entry capacity (capacity 0 disables
// the cache). Thread-safe; hit/miss/eviction metering is the caller's
// job (Sac meters plan_cache_* against the engine + session Metrics).
#ifndef SAC_PLANNER_PLAN_CACHE_H_
#define SAC_PLANNER_PLAN_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/planner/plan.h"

namespace sac::planner {

/// Builds the cache key for (source text, bindings, options); "" when
/// the query is uncacheable. Binding signatures are sorted by name so
/// insertion order into the Bindings map cannot split the cache.
std::string PlanCacheKey(const std::string& src, const Bindings& binds,
                         const PlannerOptions& options);

/// Thread-safe LRU map from PlanCacheKey to the compiled query.
class PlanCache {
 public:
  static constexpr size_t kDefaultCapacity = 64;

  explicit PlanCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The cached query for `key`, refreshing its recency; nullptr on miss
  /// (or when `key` is empty / the cache is disabled).
  std::shared_ptr<const CompiledQuery> Lookup(const std::string& key);

  /// Caches `query` under `key` (no-op for empty keys or capacity 0) and
  /// returns how many LRU entries were evicted to make room.
  size_t Insert(const std::string& key,
                std::shared_ptr<const CompiledQuery> query);

  /// Drops every entry.
  void Clear();

  /// Resizes the cache; shrinking evicts LRU entries immediately and 0
  /// disables caching. Returns the number of entries evicted.
  size_t set_capacity(size_t capacity);

  size_t capacity() const {
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  struct Entry {
    std::shared_ptr<const CompiledQuery> query;
    std::list<std::string>::iterator lru_it;
  };

  /// Evicts LRU entries until size fits capacity. Caller holds mu_.
  size_t EvictToCapacityLocked();

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<std::string> lru_;  // front = most recently used
  std::unordered_map<std::string, Entry> map_;
};

}  // namespace sac::planner

#endif  // SAC_PLANNER_PLAN_CACHE_H_
