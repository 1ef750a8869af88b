#include "src/planner/plan_cache.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <vector>

namespace sac::planner {

namespace {

/// Collapses every whitespace run to one space and trims the ends, so
/// reformatting a comprehension does not split the cache. Deliberately
/// NOT a parse: key construction must stay far cheaper than the
/// parse -> normalize -> plan pipeline a hit skips.
std::string NormalizeText(const std::string& src) {
  std::string out;
  out.reserve(src.size());
  bool pending_space = false;
  for (char c : src) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string PlanCacheKey(const std::string& src, const Bindings& binds,
                         const PlannerOptions& options) {
  std::vector<const std::pair<const std::string, Binding>*> sorted;
  sorted.reserve(binds.size());
  for (const auto& kv : binds) {
    if (kv.second.kind == Binding::Kind::kLocal) return "";
    sorted.push_back(&kv);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });

  std::ostringstream os;
  os << NormalizeText(src);
  // Every option that can change the chosen plan or its shape.
  os << ";opt:gbj" << options.enable_group_by_join
     << ",coo" << options.force_coo
     << ",ex" << options.cluster.num_executors
     << ",cores" << options.cluster.cores_per_executor
     << ",par" << options.cluster.default_parallelism
     << ",mem" << options.cluster.memory_budget_bytes;
  for (const auto* kv : sorted) {
    os << ';' << kv->first << ':' << BindingShape(kv->second);
  }
  return os.str();
}

std::shared_ptr<const CompiledQuery> PlanCache::Lookup(
    const std::string& key) {
  if (key.empty()) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return nullptr;
  auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.query;
}

size_t PlanCache::Insert(const std::string& key,
                         std::shared_ptr<const CompiledQuery> query) {
  if (key.empty() || query == nullptr) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return 0;
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Racing compilers of the same query: keep the incumbent, refresh
    // recency. (Both plans are equivalent; the first one in wins.)
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return 0;
  }
  lru_.push_front(key);
  map_.emplace(key, Entry{std::move(query), lru_.begin()});
  return EvictToCapacityLocked();
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
}

size_t PlanCache::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  return EvictToCapacityLocked();
}

size_t PlanCache::EvictToCapacityLocked() {
  size_t evicted = 0;
  while (map_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++evicted;
  }
  return evicted;
}

}  // namespace sac::planner
