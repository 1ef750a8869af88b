#include "src/runtime/partitioner.h"

#include <cmath>
#include <utility>

namespace sac::runtime {

namespace {

/// The integer coordinate `v` denotes, if any. Integer-valued doubles
/// count: VInt(3) == VDouble(3.0), and equal keys must share a partition.
bool AsCoordinate(const Value& v, int64_t* out) {
  if (v.is_int()) {
    *out = v.AsInt();
    return true;
  }
  if (!v.is_double()) return false;
  const double d = v.AsDouble();
  // Range check first: the cast is undefined outside int64.
  if (!(d >= -9.2e18 && d <= 9.2e18) || d != std::floor(d)) return false;
  *out = static_cast<int64_t>(d);
  return true;
}

/// Row-major linear index of `key` in `extents`, or false when the key
/// is not a coordinate of that arity inside the grid.
bool LinearIndex(const Value& key, const std::vector<int64_t>& extents,
                 int64_t* out) {
  const bool tuple = key.is_tuple();
  const size_t arity = tuple ? key.TupleSize() : 1;
  if (arity != extents.size()) return false;
  int64_t linear = 0;
  for (size_t d = 0; d < arity; ++d) {
    int64_t c = 0;
    if (!AsCoordinate(tuple ? key.At(d) : key, &c)) return false;
    if (c < 0 || c >= extents[d]) return false;
    linear = linear * extents[d] + c;
  }
  *out = linear;
  return true;
}

}  // namespace

Partitioner Partitioner::Grid(std::vector<int64_t> extents) {
  Partitioner p;
  for (const int64_t e : extents) {
    if (e <= 0) return p;
  }
  p.extents_ = std::move(extents);
  return p;
}

int Partitioner::Of(const Value& key, int n) const {
  int64_t linear = 0;
  if (!extents_.empty() && LinearIndex(key, extents_, &linear)) {
    return static_cast<int>(linear % n);
  }
  return static_cast<int>(key.Hash() % static_cast<uint64_t>(n));
}

std::string Partitioner::ToString() const {
  if (extents_.empty()) return "hash";
  std::string s = "grid(";
  for (size_t d = 0; d < extents_.size(); ++d) {
    if (d > 0) s += 'x';
    s += std::to_string(extents_[d]);
  }
  return s + ")";
}

}  // namespace sac::runtime
