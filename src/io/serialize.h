// Bounds-checked binary encoding for snapshot section payloads.
//
// Encoder appends little-endian fixed-width values to a byte buffer;
// Decoder is its defensive inverse: every read is range-checked against the
// buffer *before* it happens, every length prefix is capped against both a
// caller-supplied bound and the bytes actually remaining (so a corrupt
// count can never trigger a huge allocation), and the first failure latches
// — subsequent reads become no-ops and status() reports a kCorruption
// error naming the decoding context. Decoders never trust on-disk sizes.

#ifndef GASS_IO_SERIALIZE_H_
#define GASS_IO_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/graph.h"
#include "core/status.h"

namespace gass::io {

/// Append-only little-endian byte-buffer builder.
class Encoder {
 public:
  void U8(std::uint8_t v) { buffer_.push_back(v); }
  void U32(std::uint32_t v) { AppendRaw(&v, sizeof(v)); }
  void U64(std::uint64_t v) { AppendRaw(&v, sizeof(v)); }
  void F32(float v) { AppendRaw(&v, sizeof(v)); }
  void F64(double v) { AppendRaw(&v, sizeof(v)); }
  void Bytes(const void* data, std::size_t len) { AppendRaw(data, len); }

  /// Length-prefixed (u64 count) element vectors.
  void VecU8(const std::vector<std::uint8_t>& v) {
    U64(v.size());
    AppendRaw(v.data(), v.size());
  }
  void VecU32(const std::vector<std::uint32_t>& v) {
    U64(v.size());
    AppendRaw(v.data(), v.size() * sizeof(std::uint32_t));
  }
  void VecU64(const std::vector<std::uint64_t>& v) {
    U64(v.size());
    AppendRaw(v.data(), v.size() * sizeof(std::uint64_t));
  }
  void VecF32(const std::vector<float>& v) {
    U64(v.size());
    AppendRaw(v.data(), v.size() * sizeof(float));
  }

  /// Length-prefixed (u64) UTF-8/byte string.
  void Str(const std::string& s) {
    U64(s.size());
    AppendRaw(s.data(), s.size());
  }

  const std::vector<std::uint8_t>& bytes() const { return buffer_; }
  std::vector<std::uint8_t> Take() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  /// Out of line: inlined into an encoder the compiler knows is empty,
  /// the vector growth trips GCC 12's -Wstringop-overflow/-Warray-bounds
  /// false positives.
  void AppendRaw(const void* data, std::size_t len);

  std::vector<std::uint8_t> buffer_;
};

/// Fail-latching bounds-checked cursor over a read-only byte span.
class Decoder {
 public:
  /// `context` names the payload in error messages ("section 'graph'").
  Decoder(const std::uint8_t* data, std::size_t size, std::string context)
      : data_(data), size_(size), context_(std::move(context)) {}

  std::uint8_t U8() {
    std::uint8_t v = 0;
    ReadRaw(&v, sizeof(v), "u8");
    return v;
  }
  std::uint32_t U32() {
    std::uint32_t v = 0;
    ReadRaw(&v, sizeof(v), "u32");
    return v;
  }
  std::uint64_t U64() {
    std::uint64_t v = 0;
    ReadRaw(&v, sizeof(v), "u64");
    return v;
  }
  float F32() {
    float v = 0;
    ReadRaw(&v, sizeof(v), "f32");
    return v;
  }
  double F64() {
    double v = 0;
    ReadRaw(&v, sizeof(v), "f64");
    return v;
  }
  bool Bytes(void* dst, std::size_t len) {
    return ReadRaw(dst, len, "bytes");
  }

  /// Length-prefixed vector reads. The element count is validated against
  /// `max_count` AND the remaining payload before any allocation.
  bool VecU8(std::vector<std::uint8_t>* out, std::uint64_t max_count);
  bool VecU32(std::vector<std::uint32_t>* out, std::uint64_t max_count);
  bool VecU64(std::vector<std::uint64_t>* out, std::uint64_t max_count);
  bool VecF32(std::vector<float>* out, std::uint64_t max_count);

  /// Length-prefixed string, capped at `max_len` bytes.
  bool Str(std::string* out, std::uint64_t max_len);

  /// Records a decoding failure (no-op if one is already latched).
  void Fail(const std::string& message);

  /// Latches a failure unless `condition`; returns `condition`.
  bool Check(bool condition, const std::string& message) {
    if (!condition) Fail(message);
    return condition;
  }

  /// Fails unless the cursor consumed the payload exactly — trailing bytes
  /// in a section are corruption, not slack.
  bool ExpectEnd() {
    return Check(failed_ || cursor_ == size_, "trailing bytes in payload");
  }

  bool ok() const { return !failed_; }
  std::size_t remaining() const { return size_ - cursor_; }
  const std::string& context() const { return context_; }

  /// Ok, or kCorruption("<context>: <first failure>").
  core::Status status() const {
    if (!failed_) return core::Status::Ok();
    return core::Status::Corruption(context_ + ": " + error_);
  }

 private:
  bool ReadRaw(void* dst, std::size_t len, const char* what);
  /// Validates a u64 element-count prefix; returns count or latches.
  bool ReadCount(std::uint64_t max_count, std::size_t elem_size,
                 std::uint64_t* count);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t cursor_ = 0;
  bool failed_ = false;
  std::string error_;
  std::string context_;
};

/// The v1 graph encoding: a u64 vertex count, then per vertex a u32
/// degree and that many u32 ids. Writes any graph whose Neighbors(v) has
/// size() and operator[] (core::Graph, core::FlatGraph).
template <typename GraphT>
void EncodeGraph(const GraphT& graph, Encoder* enc) {
  enc->U64(graph.size());
  std::vector<core::VectorId> list;
  for (core::VectorId v = 0; v < graph.size(); ++v) {
    const auto& ids = graph.Neighbors(v);
    list.resize(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) list[i] = ids[i];
    enc->U32(static_cast<std::uint32_t>(list.size()));
    enc->Bytes(list.data(), list.size() * sizeof(core::VectorId));
  }
}

/// Inverse of EncodeGraph straight into the sealed form, each list packed
/// as soon as it validates. Rejects with kCorruption a vertex count other
/// than `expected_n`, a list longer than `max_degree`, an out-of-range id
/// and a self-loop; messages are built only for the failure.
core::Status DecodeGraph(Decoder* dec, std::uint64_t expected_n,
                         core::FlatGraph* out,
                         std::uint32_t max_degree = 0xFFFFFFFFu);

/// Dense row-major float matrix codec. Decode caps the total payload via
/// the declared n × dim against the bytes remaining.
void EncodeDataset(const core::Dataset& data, Encoder* enc);
core::Status DecodeDataset(Decoder* dec, core::Dataset* out);

}  // namespace gass::io

#endif  // GASS_IO_SERIALIZE_H_
