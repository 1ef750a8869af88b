#include "src/runtime/value.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "src/common/logging.h"

namespace sac::runtime {

namespace {
// 64-bit mix for combining hashes (boost::hash_combine style, widened).
uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return seed ^ (v + 0x9E3779B97F4A7C15ULL + (seed << 12) + (seed >> 4));
}
uint64_t HashDouble(double d) {
  // Normalize -0.0 so equal values hash equally.
  if (d == 0.0) d = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits * 0xC2B2AE3D27D4EB4FULL;
}
}  // namespace

Value Value::Str(std::string v) {
  Value out;
  out.repr_ = std::make_shared<const std::string>(std::move(v));
  return out;
}

Value Value::Tuple(ValueVec elems) {
  Value out;
  out.repr_ = std::make_shared<const ValueVec>(std::move(elems));
  return out;
}

Value Value::List(ValueVec elems) {
  Value out;
  out.repr_ = std::make_shared<ValueVec>(std::move(elems));
  return out;
}

Value Value::TileVal(la::Tile t) {
  Value out;
  out.repr_ = std::make_shared<const la::Tile>(std::move(t));
  return out;
}

Value Value::TileVal(std::shared_ptr<const la::Tile> t) {
  Value out;
  out.repr_ = std::move(t);
  return out;
}

Value Value::SparseTileVal(la::SparseTile t) {
  Value out;
  out.repr_ = std::make_shared<const la::SparseTile>(std::move(t));
  return out;
}

int64_t Value::AsInt() const {
  SAC_CHECK(is_int()) << "expected int, got " << ToString();
  return std::get<int64_t>(repr_);
}

double Value::AsDouble() const {
  if (is_int()) return static_cast<double>(std::get<int64_t>(repr_));
  SAC_CHECK(is_double()) << "expected numeric, got " << ToString();
  return std::get<double>(repr_);
}

bool Value::AsBool() const {
  SAC_CHECK(is_bool()) << "expected bool, got " << ToString();
  return std::get<bool>(repr_);
}

const std::string& Value::AsString() const {
  SAC_CHECK(is_string());
  return *std::get<std::shared_ptr<const std::string>>(repr_);
}

const ValueVec& Value::AsTuple() const {
  SAC_CHECK(is_tuple()) << "expected tuple, got " << ToString();
  return *std::get<std::shared_ptr<const ValueVec>>(repr_);
}

const ValueVec& Value::AsList() const {
  SAC_CHECK(is_list()) << "expected list, got " << ToString();
  return *std::get<std::shared_ptr<ValueVec>>(repr_);
}

const la::Tile& Value::AsTile() const {
  SAC_CHECK(is_tile()) << "expected tile, got " << ToString();
  return *std::get<std::shared_ptr<const la::Tile>>(repr_);
}

const la::SparseTile& Value::AsSparseTile() const {
  SAC_CHECK(is_sparse_tile()) << "expected sparse tile, got " << ToString();
  return *std::get<std::shared_ptr<const la::SparseTile>>(repr_);
}

std::shared_ptr<const la::Tile> Value::SharedTile() const {
  SAC_CHECK(is_tile());
  return std::get<std::shared_ptr<const la::Tile>>(repr_);
}

la::Tile* Value::MutableTile() {
  SAC_CHECK(is_tile());
  auto& ptr = std::get<std::shared_ptr<const la::Tile>>(repr_);
  if (ptr.use_count() != 1) {
    repr_ = std::make_shared<const la::Tile>(*ptr);
  }
  return const_cast<la::Tile*>(
      std::get<std::shared_ptr<const la::Tile>>(repr_).get());
}

bool Value::Equals(const Value& other) const {
  return Compare(other) == 0;
}

int Value::Compare(const Value& other) const {
  if (kind() != other.kind()) {
    // Numeric cross-kind comparison (int vs double) compares by value.
    if (is_numeric() && other.is_numeric()) {
      const double a = AsDouble(), b = other.AsDouble();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    return static_cast<int>(kind()) < static_cast<int>(other.kind()) ? -1 : 1;
  }
  switch (kind()) {
    case Kind::kUnit:
      return 0;
    case Kind::kInt: {
      const int64_t a = std::get<int64_t>(repr_);
      const int64_t b = std::get<int64_t>(other.repr_);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case Kind::kDouble: {
      const double a = std::get<double>(repr_);
      const double b = std::get<double>(other.repr_);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case Kind::kBool: {
      const bool a = std::get<bool>(repr_);
      const bool b = std::get<bool>(other.repr_);
      return a == b ? 0 : (a ? 1 : -1);
    }
    case Kind::kString:
      return AsString().compare(other.AsString());
    case Kind::kTuple:
    case Kind::kList: {
      const ValueVec& a = is_tuple() ? AsTuple() : AsList();
      const ValueVec& b = other.is_tuple() ? other.AsTuple() : other.AsList();
      const size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        const int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
    }
    case Kind::kTile: {
      const la::Tile& a = AsTile();
      const la::Tile& b = other.AsTile();
      if (a.rows() != b.rows()) return a.rows() < b.rows() ? -1 : 1;
      if (a.cols() != b.cols()) return a.cols() < b.cols() ? -1 : 1;
      const int64_t n = a.size();
      for (int64_t i = 0; i < n; ++i) {
        if (a.data()[i] != b.data()[i]) {
          return a.data()[i] < b.data()[i] ? -1 : 1;
        }
      }
      return 0;
    }
    case Kind::kSparseTile: {
      // Compare through the dense expansion (sparse tiles are small and
      // comparison is test-only).
      const la::Tile a = AsSparseTile().ToDense();
      const la::Tile b = other.AsSparseTile().ToDense();
      if (a.rows() != b.rows()) return a.rows() < b.rows() ? -1 : 1;
      if (a.cols() != b.cols()) return a.cols() < b.cols() ? -1 : 1;
      for (int64_t i = 0; i < a.size(); ++i) {
        if (a.data()[i] != b.data()[i]) {
          return a.data()[i] < b.data()[i] ? -1 : 1;
        }
      }
      return 0;
    }
  }
  return 0;
}

uint64_t Value::Hash() const { return Mix64(UnmixedHash()); }

uint64_t Value::UnmixedHash() const {
  switch (kind()) {
    case Kind::kUnit:
      return 0x51CE0FF5ULL;
    case Kind::kInt:
      return HashDouble(static_cast<double>(std::get<int64_t>(repr_)));
    case Kind::kDouble:
      return HashDouble(std::get<double>(repr_));
    case Kind::kBool:
      return std::get<bool>(repr_) ? 0xB001B001ULL : 0xB000B000ULL;
    case Kind::kString: {
      uint64_t h = 14695981039346656037ULL;
      for (char c : AsString()) {
        h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
      }
      return h;
    }
    case Kind::kTuple:
    case Kind::kList: {
      const ValueVec& v = is_tuple() ? AsTuple() : AsList();
      uint64_t h = is_tuple() ? 0x7u : 0x1Fu;
      for (const Value& e : v) h = HashCombine(h, e.Hash());
      return h;
    }
    case Kind::kTile: {
      const la::Tile& t = AsTile();
      uint64_t h = HashCombine(static_cast<uint64_t>(t.rows()),
                               static_cast<uint64_t>(t.cols()));
      for (int64_t i = 0; i < t.size(); ++i) {
        h = HashCombine(h, HashDouble(t.data()[i]));
      }
      return h;
    }
    case Kind::kSparseTile: {
      const la::SparseTile& t = AsSparseTile();
      uint64_t h = HashCombine(static_cast<uint64_t>(t.rows()),
                               static_cast<uint64_t>(t.cols()));
      for (size_t i = 0; i < t.values().size(); ++i) {
        h = HashCombine(h, static_cast<uint64_t>(t.col_idx()[i]));
        h = HashCombine(h, HashDouble(t.values()[i]));
      }
      return h;
    }
  }
  return 0;
}

std::string Value::ToString() const {
  std::ostringstream os;
  switch (kind()) {
    case Kind::kUnit:
      os << "()";
      break;
    case Kind::kInt:
      os << std::get<int64_t>(repr_);
      break;
    case Kind::kDouble:
      os << std::get<double>(repr_);
      break;
    case Kind::kBool:
      os << (std::get<bool>(repr_) ? "true" : "false");
      break;
    case Kind::kString:
      os << '"' << AsString() << '"';
      break;
    case Kind::kTuple: {
      os << "(";
      const ValueVec& v = AsTuple();
      for (size_t i = 0; i < v.size(); ++i) {
        if (i) os << ",";
        os << v[i].ToString();
      }
      os << ")";
      break;
    }
    case Kind::kList: {
      os << "[";
      const ValueVec& v = AsList();
      for (size_t i = 0; i < v.size(); ++i) {
        if (i) os << ",";
        os << v[i].ToString();
      }
      os << "]";
      break;
    }
    case Kind::kTile:
      os << AsTile().ToString();
      break;
    case Kind::kSparseTile:
      os << "SparseTile(" << AsSparseTile().rows() << "x"
         << AsSparseTile().cols() << ", nnz=" << AsSparseTile().nnz() << ")";
      break;
  }
  return os.str();
}

void Value::Serialize(ByteWriter* w) const {
  w->PutU8(static_cast<uint8_t>(kind()));
  switch (kind()) {
    case Kind::kUnit:
      break;
    case Kind::kInt:
      w->PutI64(std::get<int64_t>(repr_));
      break;
    case Kind::kDouble:
      w->PutF64(std::get<double>(repr_));
      break;
    case Kind::kBool:
      w->PutBool(std::get<bool>(repr_));
      break;
    case Kind::kString:
      w->PutString(AsString());
      break;
    case Kind::kTuple:
    case Kind::kList: {
      const ValueVec& v = is_tuple() ? AsTuple() : AsList();
      w->PutU32(static_cast<uint32_t>(v.size()));
      for (const Value& e : v) e.Serialize(w);
      break;
    }
    case Kind::kTile: {
      const la::Tile& t = AsTile();
      w->PutI64(t.rows());
      w->PutI64(t.cols());
      w->PutRaw(t.data(), static_cast<size_t>(t.size()) * sizeof(double));
      break;
    }
    case Kind::kSparseTile: {
      const la::SparseTile& t = AsSparseTile();
      w->PutI64(t.rows());
      w->PutI64(t.cols());
      w->PutU64(static_cast<uint64_t>(t.nnz()));
      w->PutRaw(t.row_ptr().data(), t.row_ptr().size() * sizeof(int64_t));
      w->PutRaw(t.col_idx().data(), t.col_idx().size() * sizeof(int32_t));
      w->PutRaw(t.values().data(), t.values().size() * sizeof(double));
      break;
    }
  }
}

Result<Value> Value::Deserialize(ByteReader* r) {
  SAC_ASSIGN_OR_RETURN(uint8_t tag, r->GetU8());
  switch (static_cast<Kind>(tag)) {
    case Kind::kUnit:
      return Value::Unit();
    case Kind::kInt: {
      SAC_ASSIGN_OR_RETURN(int64_t v, r->GetI64());
      return Value::Int(v);
    }
    case Kind::kDouble: {
      SAC_ASSIGN_OR_RETURN(double v, r->GetF64());
      return Value::Double(v);
    }
    case Kind::kBool: {
      SAC_ASSIGN_OR_RETURN(bool v, r->GetBool());
      return Value::Bool(v);
    }
    case Kind::kString: {
      SAC_ASSIGN_OR_RETURN(std::string v, r->GetString());
      return Value::Str(std::move(v));
    }
    case Kind::kTuple:
    case Kind::kList: {
      SAC_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
      ValueVec elems;
      elems.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        SAC_ASSIGN_OR_RETURN(Value e, Deserialize(r));
        elems.push_back(std::move(e));
      }
      if (static_cast<Kind>(tag) == Kind::kTuple) {
        return Value::Tuple(std::move(elems));
      }
      return Value::List(std::move(elems));
    }
    case Kind::kTile: {
      SAC_ASSIGN_OR_RETURN(int64_t rows, r->GetI64());
      SAC_ASSIGN_OR_RETURN(int64_t cols, r->GetI64());
      if (rows < 0 || cols < 0 ||
          static_cast<uint64_t>(rows) * static_cast<uint64_t>(cols) >
              r->remaining() / sizeof(double)) {
        return Status::IoError("corrupt tile header");
      }
      std::vector<double> data(static_cast<size_t>(rows * cols));
      SAC_RETURN_NOT_OK(r->GetRaw(data.data(), data.size() * sizeof(double)));
      return Value::TileVal(la::Tile(rows, cols, std::move(data)));
    }
    case Kind::kSparseTile: {
      SAC_ASSIGN_OR_RETURN(int64_t rows, r->GetI64());
      SAC_ASSIGN_OR_RETURN(int64_t cols, r->GetI64());
      SAC_ASSIGN_OR_RETURN(uint64_t nnz, r->GetU64());
      if (rows < 0 || cols < 0 ||
          nnz > r->remaining() / (sizeof(int32_t) + sizeof(double))) {
        return Status::IoError("corrupt sparse tile header");
      }
      std::vector<int64_t> row_ptr(static_cast<size_t>(rows) + 1);
      SAC_RETURN_NOT_OK(
          r->GetRaw(row_ptr.data(), row_ptr.size() * sizeof(int64_t)));
      std::vector<int32_t> col_idx(nnz);
      SAC_RETURN_NOT_OK(
          r->GetRaw(col_idx.data(), col_idx.size() * sizeof(int32_t)));
      std::vector<double> values(nnz);
      SAC_RETURN_NOT_OK(
          r->GetRaw(values.data(), values.size() * sizeof(double)));
      return Value::SparseTileVal(la::SparseTile(
          rows, cols, std::move(row_ptr), std::move(col_idx),
          std::move(values)));
    }
    default:
      return Status::IoError("unknown value tag");
  }
}

size_t Value::SerializedSize() const {
  size_t n = 1;  // tag
  switch (kind()) {
    case Kind::kUnit:
      break;
    case Kind::kInt:
    case Kind::kDouble:
      n += 8;
      break;
    case Kind::kBool:
      n += 1;
      break;
    case Kind::kString:
      n += 4 + AsString().size();
      break;
    case Kind::kTuple:
    case Kind::kList: {
      const ValueVec& v = is_tuple() ? AsTuple() : AsList();
      n += 4;
      for (const Value& e : v) n += e.SerializedSize();
      break;
    }
    case Kind::kTile:
      n += 16 + static_cast<size_t>(AsTile().size()) * sizeof(double);
      break;
    case Kind::kSparseTile:
      n += 24 + AsSparseTile().PayloadBytes();
      break;
  }
  return n;
}

size_t SerializedSizeOf(const ValueVec& rows) {
  size_t n = 0;
  for (const Value& v : rows) n += v.SerializedSize();
  return n;
}

}  // namespace sac::runtime
