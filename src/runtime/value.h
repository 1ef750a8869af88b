// Value: the type-erased record flowing through the distributed engine.
// Mirrors what a Spark RDD row can hold in the paper's generated programs:
// scalars, index tuples like ((i,j),v), grouped lists, and dense tiles.
// Tuples, lists and tiles are shared immutably, so copying a Value is
// cheap; mutation goes through copy-on-write accessors.
#ifndef SAC_RUNTIME_VALUE_H_
#define SAC_RUNTIME_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/common/serialize.h"
#include "src/common/status.h"
#include "src/la/sparse_tile.h"
#include "src/la/tile.h"

namespace sac::runtime {

class Value;
using ValueVec = std::vector<Value>;

/// fmix64 (MurmurHash3's 64-bit finalizer): every input bit reaches every
/// output bit, so low-entropy hashes (small integers, integer-valued
/// doubles) spread over `% n` buckets.
constexpr uint64_t Mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

class Value {
 public:
  enum class Kind : uint8_t {
    kUnit = 0,
    kInt = 1,
    kDouble = 2,
    kBool = 3,
    kString = 4,
    kTuple = 5,
    kList = 6,
    kTile = 7,
    kSparseTile = 8,
  };

  Value() : repr_(std::monostate{}) {}
  static Value Unit() { return Value(); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Double(double v) { return Value(v); }
  static Value Bool(bool v) { return Value(v); }
  static Value Str(std::string v);
  static Value Tuple(ValueVec elems);
  static Value List(ValueVec elems);
  static Value TileVal(la::Tile t);
  static Value TileVal(std::shared_ptr<const la::Tile> t);
  static Value SparseTileVal(la::SparseTile t);

  /// Convenience for the ubiquitous key-value pair.
  static Value Pair(Value k, Value v) {
    return Tuple({std::move(k), std::move(v)});
  }

  Kind kind() const { return static_cast<Kind>(repr_.index()); }
  bool is_unit() const { return kind() == Kind::kUnit; }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_double() const { return kind() == Kind::kDouble; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_tuple() const { return kind() == Kind::kTuple; }
  bool is_list() const { return kind() == Kind::kList; }
  bool is_tile() const { return kind() == Kind::kTile; }
  bool is_sparse_tile() const { return kind() == Kind::kSparseTile; }
  bool is_numeric() const { return is_int() || is_double(); }
  /// True for the (key, value) shape wide operators route on.
  bool is_pair() const { return is_tuple() && TupleSize() == 2; }

  int64_t AsInt() const;
  double AsDouble() const;       // accepts int or double
  bool AsBool() const;
  const std::string& AsString() const;
  const ValueVec& AsTuple() const;
  const ValueVec& AsList() const;
  const la::Tile& AsTile() const;
  const la::SparseTile& AsSparseTile() const;
  std::shared_ptr<const la::Tile> SharedTile() const;

  /// Tuple element access; aborts on kind/index mismatch.
  const Value& At(size_t i) const { return AsTuple()[i]; }
  size_t TupleSize() const { return AsTuple().size(); }

  /// Copy-on-write mutable access to a tile (clones iff shared).
  la::Tile* MutableTile();

  /// Deep structural equality (tiles compare elementwise).
  bool Equals(const Value& other) const;
  /// Total order used for deterministic sorting in tests and group output.
  /// Orders first by kind, then by content.
  int Compare(const Value& other) const;
  /// Stable structural hash, finalized with Mix64 so hash containers
  /// and the shuffle's hash placement (partitioner.h) see well-mixed
  /// bits. Equal values hash equally (VInt(5) and VDouble(5.0) too).
  uint64_t Hash() const;

  std::string ToString() const;

  void Serialize(ByteWriter* w) const;
  static Result<Value> Deserialize(ByteReader* r);

  /// Serialized size in bytes without materializing the buffer. Exact:
  /// equals the byte count Serialize() would emit (tiles and sparse
  /// tiles cost O(1) -- computed from the shape, not by walking data),
  /// which is what lets the shuffle fast path meter executor-local
  /// records without serializing them.
  size_t SerializedSize() const;

 private:
  explicit Value(int64_t v) : repr_(v) {}
  explicit Value(double v) : repr_(v) {}
  explicit Value(bool v) : repr_(v) {}

  uint64_t UnmixedHash() const;  // Hash() before the finalizer

  using Repr = std::variant<std::monostate, int64_t, double, bool,
                            std::shared_ptr<const std::string>,
                            std::shared_ptr<const ValueVec>,   // tuple
                            std::shared_ptr<ValueVec>,         // list
                            std::shared_ptr<const la::Tile>,
                            std::shared_ptr<const la::SparseTile>>;
  Repr repr_;
};

/// Sum of SerializedSize() over `rows` (local-shuffle volume metering).
size_t SerializedSizeOf(const ValueVec& rows);

/// Structural equality (delegates to Value::Equals).
inline bool operator==(const Value& a, const Value& b) { return a.Equals(b); }
inline bool operator!=(const Value& a, const Value& b) { return !a.Equals(b); }

/// Hash/equality functors for unordered_map<Value, ...>.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const { return a.Equals(b); }
};

/// Shorthand builders used heavily by planners and tests.
inline Value VInt(int64_t v) { return Value::Int(v); }
inline Value VDouble(double v) { return Value::Double(v); }
inline Value VBool(bool v) { return Value::Bool(v); }
inline Value VPair(Value a, Value b) {
  return Value::Pair(std::move(a), std::move(b));
}
inline Value VTuple(ValueVec v) { return Value::Tuple(std::move(v)); }
inline Value VIdx2(int64_t i, int64_t j) {
  return VTuple({VInt(i), VInt(j)});
}

}  // namespace sac::runtime

#endif  // SAC_RUNTIME_VALUE_H_
