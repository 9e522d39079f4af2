#include "io/serialize.h"

#include <algorithm>
#include <cstring>

namespace gass::io {

void Encoder::AppendRaw(const void* data, std::size_t len) {
  if (len == 0) return;
  const std::size_t old = buffer_.size();
  buffer_.resize(old + len);
  std::memcpy(buffer_.data() + old, data, len);
}

void Decoder::Fail(const std::string& message) {
  if (failed_) return;
  failed_ = true;
  error_ = message;
}

bool Decoder::ReadRaw(void* dst, std::size_t len, const char* what) {
  if (failed_) return false;
  if (len > size_ - cursor_) {
    Fail(std::string("truncated payload reading ") + what + " at offset " +
         std::to_string(cursor_));
    return false;
  }
  if (len > 0) std::memcpy(dst, data_ + cursor_, len);
  cursor_ += len;
  return true;
}

bool Decoder::ReadCount(std::uint64_t max_count, std::size_t elem_size,
                        std::uint64_t* count) {
  *count = U64();
  if (failed_) return false;
  if (*count > max_count) {
    Fail("element count " + std::to_string(*count) + " exceeds cap " +
         std::to_string(max_count));
    return false;
  }
  // The bytes must already be present — a huge declared count can never
  // drive a huge allocation.
  if (*count > remaining() / (elem_size == 0 ? 1 : elem_size)) {
    Fail("element count " + std::to_string(*count) +
         " exceeds remaining payload");
    return false;
  }
  return true;
}

bool Decoder::VecU8(std::vector<std::uint8_t>* out, std::uint64_t max_count) {
  std::uint64_t count = 0;
  if (!ReadCount(max_count, sizeof(std::uint8_t), &count)) return false;
  out->resize(count);
  return ReadRaw(out->data(), count, "u8 vector");
}

bool Decoder::VecU32(std::vector<std::uint32_t>* out,
                     std::uint64_t max_count) {
  std::uint64_t count = 0;
  if (!ReadCount(max_count, sizeof(std::uint32_t), &count)) return false;
  out->resize(count);
  return ReadRaw(out->data(), count * sizeof(std::uint32_t), "u32 vector");
}

bool Decoder::VecU64(std::vector<std::uint64_t>* out,
                     std::uint64_t max_count) {
  std::uint64_t count = 0;
  if (!ReadCount(max_count, sizeof(std::uint64_t), &count)) return false;
  out->resize(count);
  return ReadRaw(out->data(), count * sizeof(std::uint64_t), "u64 vector");
}

bool Decoder::VecF32(std::vector<float>* out, std::uint64_t max_count) {
  std::uint64_t count = 0;
  if (!ReadCount(max_count, sizeof(float), &count)) return false;
  out->resize(count);
  return ReadRaw(out->data(), count * sizeof(float), "f32 vector");
}

bool Decoder::Str(std::string* out, std::uint64_t max_len) {
  std::uint64_t count = 0;
  if (!ReadCount(max_len, sizeof(char), &count)) return false;
  out->resize(count);
  return ReadRaw(out->data(), count, "string");
}

core::Status DecodeGraph(Decoder* dec, std::uint64_t expected_n,
                         core::FlatGraph* out, std::uint32_t max_degree) {
  const std::uint64_t n = dec->U64();
  if (!dec->ok()) return dec->status();
  if (n != expected_n) {
    dec->Fail("graph vertex count " + std::to_string(n) +
              " does not match dataset size " + std::to_string(expected_n));
    return dec->status();
  }
  // Each vertex costs one degree word, so a well-formed payload holds
  // exactly remaining / 4 - n ids: the packed block is sized for that
  // once, and a list that would overflow it is rejected.
  const std::uint64_t words = dec->remaining() / sizeof(std::uint32_t);
  core::FlatGraph::Packer packer(
      n, std::min<std::uint64_t>(words > n ? words - n : 0,
                                 core::FlatGraph::kMaxEdges));
  std::vector<core::VectorId> list;
  const auto fail = [dec](core::VectorId v, const std::string& what) {
    dec->Fail("vertex " + std::to_string(v) + " " + what);
    return dec->status();
  };
  for (core::VectorId v = 0; v < n; ++v) {
    const std::uint32_t degree = dec->U32();
    if (!dec->ok()) return dec->status();
    if (degree > max_degree) {
      return fail(v, "lists " + std::to_string(degree) +
                         " ids, more than its " + std::to_string(max_degree) +
                         "-id slot");
    }
    if (degree > dec->remaining() / sizeof(core::VectorId)) {
      return fail(v, "degree " + std::to_string(degree) +
                         " exceeds remaining payload");
    }
    list.resize(degree);
    dec->Bytes(list.data(), degree * sizeof(core::VectorId));
    for (const core::VectorId u : list) {
      if (u >= n || u == v) {
        return fail(v, "has neighbor id " + std::to_string(u) +
                           (u == v ? " (a self-loop)" : " out of range"));
      }
    }
    if (!packer.Append(v, list)) {
      return fail(v, "overflows the graph's edge block");
    }
  }
  *out = std::move(packer).Finish();
  return core::Status::Ok();
}

void EncodeDataset(const core::Dataset& data, Encoder* enc) {
  enc->U64(data.size());
  enc->U64(data.dim());
  enc->Bytes(data.data(), data.SizeBytes());
}

core::Status DecodeDataset(Decoder* dec, core::Dataset* out) {
  const std::uint64_t n = dec->U64();
  const std::uint64_t dim = dec->U64();
  if (!dec->ok()) return dec->status();
  const std::uint64_t total = n * dim;
  if (!dec->Check(dim > 0 || n == 0, "dataset with zero dimension") ||
      !dec->Check(n == 0 || total / n == dim,
                  "dataset size overflows") ||
      !dec->Check(total <= dec->remaining() / sizeof(float),
                  "dataset payload larger than section")) {
    return dec->status();
  }
  core::Dataset loaded(n, dim);
  if (!dec->Bytes(loaded.mutable_data(), total * sizeof(float))) {
    return dec->status();
  }
  *out = std::move(loaded);
  return core::Status::Ok();
}

}  // namespace gass::io
