// Partitioner: where a shuffle sends a key. One placement function serves
// every wide operator (reduceByKey / groupByKey / join / cogroup /
// partitionBy), so lineage recovery and the distributed re-push place
// rows exactly as the first run did.
//
// Tile-keyed shuffles know their key grid: the planner passes its
// extents ({grid_rows, grid_cols} for (i,j) keys, {blocks} for 1-D block
// keys) and a coordinate inside them goes to its row-major linear index
// mod n -- MLlib's GridPartitioner idea (BlockMatrix places blocks by
// grid coordinates). Per-partition key counts then differ by at most one
// for every grid. Every other key, and every shuffle without extents,
// goes to its hash, key.Hash() % n (Value::Hash is already finalized
// with Mix64).
#ifndef SAC_RUNTIME_PARTITIONER_H_
#define SAC_RUNTIME_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/value.h"

namespace sac::runtime {

class Partitioner {
 public:
  /// The hash partitioner (no extents).
  Partitioner() = default;
  /// Grid placement for coordinate keys of arity extents.size() (1 or 2
  /// in practice); non-positive extents degrade to the hash partitioner.
  static Partitioner Grid(std::vector<int64_t> extents);

  /// Destination partition of `key` among `n` (> 0) partitions.
  int Of(const Value& key, int n) const;

  const std::vector<int64_t>& extents() const { return extents_; }
  bool is_grid() const { return !extents_.empty(); }

  bool operator==(const Partitioner& o) const { return extents_ == o.extents_; }
  bool operator!=(const Partitioner& o) const { return !(*this == o); }
  /// "hash" or "grid(8x8)".
  std::string ToString() const;

 private:
  std::vector<int64_t> extents_;
};

}  // namespace sac::runtime

#endif  // SAC_RUNTIME_PARTITIONER_H_
