// Flat binary serialization used by the simulated shuffle. Records cross
// "the network" as byte buffers so shuffle-heavy plans pay a real
// serialize/route/deserialize cost and so shuffle volume can be accounted
// exactly, as it would be on a Spark cluster.
#ifndef SAC_COMMON_SERIALIZE_H_
#define SAC_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace sac {

/// Append-only little-endian byte sink. By default it owns its buffer;
/// it can also be pointed at an external vector (the shuffle buffer-pool
/// handshake: the pooled vector stays owned by its RAII checkout, the
/// writer just appends into it) or seeded from a recycled buffer via
/// AdoptBuffer. Movable, not copyable.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Writer that appends into `buf` (cleared first, capacity kept).
  explicit ByteWriter(std::vector<uint8_t> buf) { AdoptBuffer(std::move(buf)); }
  /// Writer that appends into `*sink` (cleared first, capacity kept).
  /// `*sink` must outlive the writer; ownership stays with the caller.
  explicit ByteWriter(std::vector<uint8_t>* sink) : out_(sink) {
    out_->clear();
  }

  ByteWriter(ByteWriter&& o) noexcept
      : buf_(std::move(o.buf_)), out_(o.out_ == &o.buf_ ? &buf_ : o.out_) {
    o.out_ = &o.buf_;
  }
  ByteWriter& operator=(ByteWriter&& o) noexcept {
    if (this != &o) {
      buf_ = std::move(o.buf_);
      out_ = o.out_ == &o.buf_ ? &buf_ : o.out_;
      o.out_ = &o.buf_;
    }
    return *this;
  }
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  /// Replaces the backing buffer with `buf`, cleared but with its heap
  /// capacity intact (recycled-allocation handshake).
  void AdoptBuffer(std::vector<uint8_t> buf) {
    buf_ = std::move(buf);
    buf_.clear();
    out_ = &buf_;
  }

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutF64(double v) { PutRaw(&v, sizeof(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  /// Writes a length-prefixed block of doubles (used for dense tiles).
  void PutF64Array(const double* data, size_t n) {
    PutU64(n);
    PutRaw(data, n * sizeof(double));
  }

  void PutRaw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), p, p + n);
  }

  size_t size() const { return out_->size(); }
  const std::vector<uint8_t>& buffer() const { return *out_; }
  /// Moves the written bytes out (external-sink writers hand out the
  /// sink's contents, leaving it empty).
  std::vector<uint8_t> TakeBuffer() { return std::move(*out_); }

 private:
  std::vector<uint8_t> buf_;
  std::vector<uint8_t>* out_ = &buf_;
};

/// Sequential reader over a byte buffer; all getters are bounds-checked and
/// report IoError instead of reading past the end.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  Result<uint8_t> GetU8() {
    uint8_t v;
    SAC_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<int64_t> GetI64() {
    int64_t v;
    SAC_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<uint64_t> GetU64() {
    uint64_t v;
    SAC_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<uint32_t> GetU32() {
    uint32_t v;
    SAC_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<double> GetF64() {
    double v;
    SAC_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<bool> GetBool() {
    SAC_ASSIGN_OR_RETURN(uint8_t v, GetU8());
    return v != 0;
  }
  Result<std::string> GetString() {
    SAC_ASSIGN_OR_RETURN(uint32_t n, GetU32());
    std::string s(n, '\0');
    SAC_RETURN_NOT_OK(GetRaw(s.data(), n));
    return s;
  }
  Result<std::vector<double>> GetF64Array() {
    SAC_ASSIGN_OR_RETURN(uint64_t n, GetU64());
    if (n > remaining() / sizeof(double)) {
      return Status::IoError("corrupt double-array length");
    }
    std::vector<double> v(n);
    SAC_RETURN_NOT_OK(GetRaw(v.data(), n * sizeof(double)));
    return v;
  }

  Status GetRaw(void* out, size_t n) {
    if (pos_ + n > size_) {
      return Status::IoError("read past end of buffer");
    }
    // n == 0 reads come from empty strings/arrays, whose destination
    // pointer may be null -- memcpy's pointer args must be non-null even
    // for zero sizes.
    if (n > 0) std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  /// Advances past `n` bytes without copying them.
  Status Skip(size_t n) {
    if (n > size_ - pos_) return Status::IoError("read past end of buffer");
    pos_ += n;
    return Status::OK();
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace sac

#endif  // SAC_COMMON_SERIALIZE_H_
