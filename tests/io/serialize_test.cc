#include "io/serialize.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/graph.h"
#include "synth/generators.h"

namespace gass::io {
namespace {

using core::FlatGraph;
using core::Graph;

TEST(SerializeTest, ScalarRoundTrip) {
  Encoder enc;
  enc.U8(0xAB);
  enc.U32(0xDEADBEEFu);
  enc.U64(0x0123456789ABCDEFULL);
  enc.F32(3.5f);
  enc.F64(-2.25);

  Decoder dec(enc.bytes().data(), enc.size(), "test");
  EXPECT_EQ(dec.U8(), 0xAB);
  EXPECT_EQ(dec.U32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.U64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(dec.F32(), 3.5f);
  EXPECT_EQ(dec.F64(), -2.25);
  EXPECT_TRUE(dec.ExpectEnd());
  EXPECT_TRUE(dec.status().ok());
}

TEST(SerializeTest, VectorAndStringRoundTrip) {
  const std::vector<std::uint8_t> u8s = {1, 2, 3};
  const std::vector<std::uint32_t> u32s = {10, 20, 30, 40};
  const std::vector<std::uint64_t> u64s = {1ULL << 40};
  const std::vector<float> f32s = {0.5f, -1.5f};
  const std::string str = "kdforest";

  Encoder enc;
  enc.VecU8(u8s);
  enc.VecU32(u32s);
  enc.VecU64(u64s);
  enc.VecF32(f32s);
  enc.Str(str);

  Decoder dec(enc.bytes().data(), enc.size(), "test");
  std::vector<std::uint8_t> ru8;
  std::vector<std::uint32_t> ru32;
  std::vector<std::uint64_t> ru64;
  std::vector<float> rf32;
  std::string rstr;
  EXPECT_TRUE(dec.VecU8(&ru8, 100));
  EXPECT_TRUE(dec.VecU32(&ru32, 100));
  EXPECT_TRUE(dec.VecU64(&ru64, 100));
  EXPECT_TRUE(dec.VecF32(&rf32, 100));
  EXPECT_TRUE(dec.Str(&rstr, 100));
  EXPECT_EQ(ru8, u8s);
  EXPECT_EQ(ru32, u32s);
  EXPECT_EQ(ru64, u64s);
  EXPECT_EQ(rf32, f32s);
  EXPECT_EQ(rstr, str);
  EXPECT_TRUE(dec.ExpectEnd());
}

TEST(SerializeTest, ReadPastEndLatchesAndStaysLatched) {
  Encoder enc;
  enc.U32(7);
  Decoder dec(enc.bytes().data(), enc.size(), "short payload");
  EXPECT_EQ(dec.U32(), 7u);
  EXPECT_EQ(dec.U64(), 0u);  // Past the end: zero, not garbage.
  EXPECT_FALSE(dec.ok());
  // Latched: later reads stay no-ops, first error is preserved.
  EXPECT_EQ(dec.U32(), 0u);
  const core::Status status = dec.status();
  EXPECT_EQ(status.code(), core::StatusCode::kCorruption);
  EXPECT_NE(status.message().find("short payload"), std::string::npos);
}

TEST(SerializeTest, HugeCorruptCountCannotAllocate) {
  // A corrupt length prefix claiming 2^61 elements must be rejected before
  // any allocation happens — both the max_count cap and the bytes actually
  // remaining bound it.
  Encoder enc;
  enc.U64(std::numeric_limits<std::uint64_t>::max() / 8);
  enc.U32(1);  // Far fewer payload bytes than the count claims.
  Decoder dec(enc.bytes().data(), enc.size(), "test");
  std::vector<std::uint64_t> out;
  EXPECT_FALSE(dec.VecU64(&out, 1ULL << 40));
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(dec.ok());
}

TEST(SerializeTest, CountAboveCallerBoundRejected) {
  const std::vector<std::uint32_t> v(64, 5);
  Encoder enc;
  enc.VecU32(v);
  Decoder dec(enc.bytes().data(), enc.size(), "test");
  std::vector<std::uint32_t> out;
  EXPECT_FALSE(dec.VecU32(&out, 63));  // One over the declared bound.
  EXPECT_FALSE(dec.ok());
}

TEST(SerializeTest, StringOverCapRejected) {
  Encoder enc;
  enc.Str("a-section-name-that-is-far-too-long");
  Decoder dec(enc.bytes().data(), enc.size(), "test");
  std::string out;
  EXPECT_FALSE(dec.Str(&out, 8));
  EXPECT_FALSE(dec.ok());
}

TEST(SerializeTest, TrailingBytesAreCorruption) {
  Encoder enc;
  enc.U32(1);
  enc.U32(2);
  Decoder dec(enc.bytes().data(), enc.size(), "test");
  EXPECT_EQ(dec.U32(), 1u);
  EXPECT_FALSE(dec.ExpectEnd());
  EXPECT_EQ(dec.status().code(), core::StatusCode::kCorruption);
}

TEST(SerializeTest, GraphRoundTrip) {
  Graph graph(5);
  graph.MutableNeighbors(0) = {1, 2};
  graph.MutableNeighbors(1) = {0};
  graph.MutableNeighbors(4) = {3, 2, 1, 0};

  Encoder enc;
  EncodeGraph(graph, &enc);
  Decoder dec(enc.bytes().data(), enc.size(), "graph");
  FlatGraph restored;
  ASSERT_TRUE(DecodeGraph(&dec, 5, &restored).ok());
  EXPECT_TRUE(dec.ExpectEnd());
  ASSERT_EQ(restored.size(), graph.size());
  for (core::VectorId v = 0; v < graph.size(); ++v) {
    const core::PackedIds ids = restored.Neighbors(v);
    ASSERT_EQ(ids.size(), graph.Neighbors(v).size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(ids[i], graph.Neighbors(v)[i]);
    }
  }
  // The sealed form encodes to the same bytes.
  Encoder again;
  EncodeGraph(restored, &again);
  EXPECT_EQ(again.bytes(), enc.bytes());
}

TEST(SerializeTest, GraphDecodeRejectsWrongVertexCount) {
  Graph graph(4);
  Encoder enc;
  EncodeGraph(graph, &enc);
  Decoder dec(enc.bytes().data(), enc.size(), "graph");
  FlatGraph restored;
  EXPECT_FALSE(DecodeGraph(&dec, 5, &restored).ok());
}

TEST(SerializeTest, GraphDecodeRejectsOutOfRangeNeighbor) {
  Graph graph(3);
  graph.MutableNeighbors(0) = {7};  // No vertex 7 exists.
  Encoder enc;
  EncodeGraph(graph, &enc);
  Decoder dec(enc.bytes().data(), enc.size(), "graph");
  FlatGraph restored;
  const core::Status status = DecodeGraph(&dec, 3, &restored);
  EXPECT_EQ(status.code(), core::StatusCode::kCorruption);
  EXPECT_NE(status.message().find("vertex 0 has neighbor id 7 out of range"),
            std::string::npos)
      << status.message();
}

TEST(SerializeTest, GraphDecodeRejectsSelfLoop) {
  Graph graph(3);
  graph.MutableNeighbors(1) = {1};
  Encoder enc;
  EncodeGraph(graph, &enc);
  Decoder dec(enc.bytes().data(), enc.size(), "graph");
  FlatGraph restored;
  EXPECT_FALSE(DecodeGraph(&dec, 3, &restored).ok());
}

TEST(SerializeTest, GraphDecodeRejectsListAboveMaxDegree) {
  Graph graph(4);
  graph.MutableNeighbors(2) = {0, 1, 3};
  Encoder enc;
  EncodeGraph(graph, &enc);
  Decoder ok(enc.bytes().data(), enc.size(), "graph");
  FlatGraph restored;
  EXPECT_TRUE(DecodeGraph(&ok, 4, &restored, 3).ok());
  Decoder dec(enc.bytes().data(), enc.size(), "graph");
  const core::Status status = DecodeGraph(&dec, 4, &restored, 2);
  EXPECT_EQ(status.code(), core::StatusCode::kCorruption);
  EXPECT_NE(status.message().find("more than its 2-id slot"),
            std::string::npos)
      << status.message();
}

TEST(SerializeTest, GraphDecodeRejectsDegreePastThePayload) {
  // A degree the payload cannot hold is rejected before anything is
  // allocated for it.
  Encoder enc;
  enc.U64(2);
  enc.U32(0xFFFFFFF0u);
  Decoder dec(enc.bytes().data(), enc.size(), "graph");
  FlatGraph restored;
  const core::Status status = DecodeGraph(&dec, 2, &restored);
  EXPECT_EQ(status.code(), core::StatusCode::kCorruption);
  EXPECT_NE(status.message().find("exceeds remaining payload"),
            std::string::npos)
      << status.message();
}

TEST(SerializeTest, DatasetRoundTrip) {
  const core::Dataset data = synth::UniformHypercube(20, 6, 3);
  Encoder enc;
  EncodeDataset(data, &enc);
  Decoder dec(enc.bytes().data(), enc.size(), "dataset");
  core::Dataset restored;
  ASSERT_TRUE(DecodeDataset(&dec, &restored).ok());
  ASSERT_EQ(restored.size(), data.size());
  ASSERT_EQ(restored.dim(), data.dim());
  for (core::VectorId v = 0; v < data.size(); ++v) {
    for (std::size_t d = 0; d < data.dim(); ++d) {
      EXPECT_EQ(restored.Row(v)[d], data.Row(v)[d]);
    }
  }
}

TEST(SerializeTest, DatasetDecodeRejectsTruncation) {
  const core::Dataset data = synth::UniformHypercube(10, 4, 5);
  Encoder enc;
  EncodeDataset(data, &enc);
  // Chop the payload: the declared n x dim no longer fits.
  Decoder dec(enc.bytes().data(), enc.size() / 2, "dataset");
  core::Dataset restored;
  EXPECT_FALSE(DecodeDataset(&dec, &restored).ok());
}

}  // namespace
}  // namespace gass::io
