#include "src/dist/protocol.h"

#include <tuple>

namespace sac::dist {

namespace {

/// Batched payloads arrive CRC-checked, so a malformed one is corruption
/// the CRC missed or a hostile peer: DataLoss, whatever the reader said.
Status Malformed(const char* what, const Status& st) {
  return Status::DataLoss(std::string("malformed ") + what +
                          " payload: " + st.message());
}

/// Points each of `slices` at its bytes, which follow the table back to
/// back, in order, and end the payload.
Status ReadTail(ByteReader* r, size_t payload_size,
                const std::vector<Slice*>& slices) {
  for (Slice* slice : slices) {
    slice->offset = payload_size - r->remaining();
    SAC_RETURN_NOT_OK(r->Skip(slice->size));
  }
  if (!r->AtEnd()) return Status::IoError("trailing bytes");
  return Status::OK();
}

Status ReadPutBuckets(ByteReader* r, size_t payload_size,
                      std::vector<std::pair<BucketId, Slice>>* out) {
  SAC_ASSIGN_OR_RETURN(const uint32_t n, r->GetU32());
  if (n > r->remaining() / (kBucketIdBytes + 4)) {
    return Status::IoError("bucket count " + std::to_string(n) +
                           " exceeds the payload");
  }
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SAC_ASSIGN_OR_RETURN(BucketId id, DecodeBucketId(r));
    SAC_ASSIGN_OR_RETURN(const uint32_t size, r->GetU32());
    out->emplace_back(id, Slice{0, size});
  }
  std::vector<Slice*> slices;
  slices.reserve(n);
  for (auto& [id, slice] : *out) slices.push_back(&slice);
  return ReadTail(r, payload_size, slices);
}

Status ReadGetBuckets(ByteReader* r, std::vector<BucketId>* out) {
  SAC_ASSIGN_OR_RETURN(const uint32_t n, r->GetU32());
  if (n > r->remaining() / kBucketIdBytes) {
    return Status::IoError("bucket count " + std::to_string(n) +
                           " exceeds the payload");
  }
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SAC_ASSIGN_OR_RETURN(BucketId id, DecodeBucketId(r));
    out->push_back(id);
  }
  if (!r->AtEnd()) return Status::IoError("trailing bytes");
  return Status::OK();
}

Status ReadGetBucketsReply(ByteReader* r, size_t payload_size,
                           size_t expected,
                           std::vector<std::optional<Slice>>* out) {
  SAC_ASSIGN_OR_RETURN(const uint32_t n, r->GetU32());
  if (n != expected) {
    return Status::IoError("answers " + std::to_string(n) + " of " +
                           std::to_string(expected) + " buckets");
  }
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SAC_ASSIGN_OR_RETURN(const uint8_t found, r->GetU8());
    if (found > 1) return Status::IoError("bad found flag");
    if (found == 0) {
      out->push_back(std::nullopt);
      continue;
    }
    SAC_ASSIGN_OR_RETURN(const uint32_t size, r->GetU32());
    out->push_back(Slice{0, size});
  }
  std::vector<Slice*> slices;
  for (std::optional<Slice>& slice : *out) {
    if (slice) slices.push_back(&*slice);
  }
  return ReadTail(r, payload_size, slices);
}

}  // namespace

std::string BucketId::ToString() const {
  return "shuffle " + std::to_string(shuffle_id) + " bucket (parent=" +
         std::to_string(parent) + ", src=" + std::to_string(src) +
         ", dest=" + std::to_string(dest) + ")";
}

bool operator<(const BucketId& a, const BucketId& b) {
  return std::tie(a.shuffle_id, a.parent, a.src, a.dest) <
         std::tie(b.shuffle_id, b.parent, b.src, b.dest);
}

void EncodeBucketId(const BucketId& id, ByteWriter* w) {
  w->PutU64(id.shuffle_id);
  w->PutU32(static_cast<uint32_t>(id.parent));
  w->PutU32(static_cast<uint32_t>(id.src));
  w->PutU32(static_cast<uint32_t>(id.dest));
}

Result<BucketId> DecodeBucketId(ByteReader* r) {
  BucketId id;
  SAC_ASSIGN_OR_RETURN(id.shuffle_id, r->GetU64());
  SAC_ASSIGN_OR_RETURN(uint32_t parent, r->GetU32());
  SAC_ASSIGN_OR_RETURN(uint32_t src, r->GetU32());
  SAC_ASSIGN_OR_RETURN(uint32_t dest, r->GetU32());
  id.parent = static_cast<int32_t>(parent);
  id.src = static_cast<int32_t>(src);
  id.dest = static_cast<int32_t>(dest);
  return id;
}

std::vector<net::ByteView> EncodePutBuckets(
    const std::vector<BucketBytes>& buckets, std::vector<uint8_t>* head) {
  head->reserve(4 + buckets.size() * (kBucketIdBytes + 4));
  ByteWriter w(head);
  w.PutU32(static_cast<uint32_t>(buckets.size()));
  std::vector<net::ByteView> tail;
  tail.reserve(buckets.size());
  for (const BucketBytes& b : buckets) {
    EncodeBucketId(b.id, &w);
    w.PutU32(static_cast<uint32_t>(b.bytes->size()));
    tail.push_back({b.bytes->data(), b.bytes->size()});
  }
  return tail;
}

Result<std::vector<std::pair<BucketId, Slice>>> DecodePutBuckets(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  std::vector<std::pair<BucketId, Slice>> out;
  const Status st = ReadPutBuckets(&r, payload.size(), &out);
  if (!st.ok()) return Malformed("kPutBuckets", st);
  return out;
}

void EncodeGetBuckets(const std::vector<BucketId>& ids,
                      std::vector<uint8_t>* payload) {
  payload->reserve(4 + ids.size() * kBucketIdBytes);
  ByteWriter w(payload);
  w.PutU32(static_cast<uint32_t>(ids.size()));
  for (const BucketId& id : ids) EncodeBucketId(id, &w);
}

Result<std::vector<BucketId>> DecodeGetBuckets(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  std::vector<BucketId> out;
  const Status st = ReadGetBuckets(&r, &out);
  if (!st.ok()) return Malformed("kGetBuckets", st);
  return out;
}

Result<std::vector<std::optional<Slice>>> DecodeGetBucketsReply(
    const std::vector<uint8_t>& payload, size_t expected) {
  ByteReader r(payload);
  std::vector<std::optional<Slice>> out;
  const Status st = ReadGetBucketsReply(&r, payload.size(), expected, &out);
  if (!st.ok()) return Malformed("kGetBucketsOk", st);
  return out;
}

void EncodePingInfo(const PingInfo& info, ByteWriter* w) {
  w->PutU64(info.pid);
  w->PutU64(info.num_buckets);
  w->PutU64(info.hosted_bytes);
}

Result<PingInfo> DecodePingInfo(ByteReader* r) {
  PingInfo info;
  SAC_ASSIGN_OR_RETURN(info.pid, r->GetU64());
  SAC_ASSIGN_OR_RETURN(info.num_buckets, r->GetU64());
  SAC_ASSIGN_OR_RETURN(info.hosted_bytes, r->GetU64());
  return info;
}

net::Frame MakeErrorFrame(const Status& st) {
  net::Frame f;
  f.type = kError;
  f.payload.reserve(1 + 4 + st.message().size());
  ByteWriter w(&f.payload);
  w.PutU8(static_cast<uint8_t>(st.code()));
  w.PutString(st.message());
  return f;
}

Status StatusFromFrame(const net::Frame& f) {
  if (f.type != kError) return Status::OK();
  ByteReader r(f.payload);
  Result<uint8_t> code = r.GetU8();
  if (!code.ok()) return Status::DataLoss("malformed error frame");
  Result<std::string> msg = r.GetString();
  if (!msg.ok()) return Status::DataLoss("malformed error frame");
  return Status(static_cast<StatusCode>(code.value()),
                std::move(msg).value());
}

}  // namespace sac::dist
