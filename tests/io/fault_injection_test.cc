// Corruption fault-injection harness for the snapshot loader.
//
// Builds a real index (HNSW, ELPIS, IEH — one single-graph method, one
// composite, one hash-seeded), saves it, then mutates the snapshot file in
// every structurally interesting way: truncation at and inside each section
// boundary, single-bit flips in each header field and payload, a
// method-name swap with a fixed-up checksum, and payload corruption with
// *valid* checksums (so the defensive decoder itself, not the checksum
// layer, must catch it). Every mutation must yield a descriptive
// core::Status failure — never a crash, never UB (run under the asan/tsan
// presets), and never a silently-wrong index.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/serialize.h"
#include "io/snapshot.h"
#include "methods/factory.h"
#include "methods/hnsw_index.h"
#include "synth/generators.h"
#include "../snapshot_edit.h"

namespace gass::io {
namespace {

using core::Dataset;

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  std::fseek(f, 0, SEEK_END);
  bytes.resize(static_cast<std::size_t>(std::ftell(f)));
  std::rewind(f);
  const std::size_t read = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  bytes.resize(read);
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

void PutU32At(std::vector<std::uint8_t>* bytes, std::size_t offset,
              std::uint32_t v) {
  std::memcpy(bytes->data() + offset, &v, sizeof(v));
}

using testing::PutU64At;
using testing::ResealFileHeader;
using testing::ResealSectionPayload;

class FaultInjectionTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    data_ = synth::UniformHypercube(220, 8, 31);
    // Process-unique: the forced-scalar ctest variant runs concurrently.
    clean_path_ = std::string(::testing::TempDir()) + "/fault_" +
                  std::to_string(::getpid()) + "_" + GetParam() + ".gass";
    mutated_path_ = clean_path_ + ".mutated";

    auto index = methods::CreateIndex(GetParam(), 7);
    index->Build(data_);
    ASSERT_TRUE(methods::SaveIndex(*index, clean_path_).ok());
    clean_bytes_ = ReadFileBytes(clean_path_);
    ASSERT_GE(clean_bytes_.size(), kFileHeaderBytes);
    ASSERT_TRUE(SnapshotReader::Open(clean_path_, &layout_).ok());
    ASSERT_FALSE(layout_.sections().empty());
  }

  void TearDown() override {
    std::remove(clean_path_.c_str());
    std::remove(mutated_path_.c_str());
  }

  /// Loads `bytes` (written to a scratch file) into a fresh index of the
  /// method under test. The load must fail with a non-empty diagnostic.
  void ExpectLoadRejected(const std::vector<std::uint8_t>& bytes,
                          const std::string& what) {
    WriteFileBytes(mutated_path_, bytes);
    auto index = methods::CreateIndex(GetParam(), 7);
    const core::Status status =
        methods::LoadIndex(index.get(), data_, mutated_path_);
    EXPECT_FALSE(status.ok()) << what;
    EXPECT_FALSE(status.message().empty()) << what;
  }

  std::vector<std::uint8_t> WithBitFlip(std::size_t byte_offset) const {
    std::vector<std::uint8_t> bytes = clean_bytes_;
    bytes[byte_offset] ^= 0x01;
    return bytes;
  }

  Dataset data_;
  std::string clean_path_;
  std::string mutated_path_;
  std::vector<std::uint8_t> clean_bytes_;
  SnapshotReader layout_;
};

TEST_P(FaultInjectionTest, CleanSnapshotLoadsAndSearches) {
  // Baseline: the un-mutated file must load, or every rejection below is
  // vacuous.
  auto index = methods::CreateIndex(GetParam(), 7);
  ASSERT_TRUE(methods::LoadIndex(index.get(), data_, clean_path_).ok());
  methods::SearchParams params;
  params.k = 5;
  const auto result = index->Search(data_.Row(3), params);
  ASSERT_FALSE(result.neighbors.empty());
  EXPECT_EQ(result.neighbors[0].id, 3u);
}

TEST_P(FaultInjectionTest, TruncationAtEverySectionBoundaryRejected) {
  std::vector<std::size_t> cuts = {0, 10, kFileHeaderBytes - 1};
  for (const SectionInfo& section : layout_.sections()) {
    cuts.push_back(section.header_offset);
    cuts.push_back(section.header_offset + 1);
    cuts.push_back(section.payload_offset - 1);
    if (section.payload_bytes > 0) {
      cuts.push_back(section.payload_offset + section.payload_bytes / 2);
    }
  }
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, clean_bytes_.size());
    std::vector<std::uint8_t> bytes = clean_bytes_;
    bytes.resize(cut);
    ExpectLoadRejected(bytes, "truncated to " + std::to_string(cut) +
                                  " bytes");
  }
}

TEST_P(FaultInjectionTest, BitFlipInFileHeaderRejected) {
  // Magic, version, method-name length, name bytes, fingerprint, dataset
  // binding, section count, and the checksum field itself.
  for (const std::size_t offset :
       {std::size_t{0}, std::size_t{8}, std::size_t{12},
        kFileMethodNameOffset, std::size_t{56}, std::size_t{64},
        std::size_t{72}, std::size_t{80}, kFileHeaderChecksumOffset}) {
    ExpectLoadRejected(WithBitFlip(offset),
                       "bit flip at file-header offset " +
                           std::to_string(offset));
  }
}

TEST_P(FaultInjectionTest, BitFlipInEverySectionHeaderRejected) {
  for (const SectionInfo& section : layout_.sections()) {
    for (const std::size_t field :
         {std::size_t{0}, std::size_t{4}, kSectionNameOffset,
          kSectionPayloadBytesOffset, kSectionPayloadChecksumOffset,
          std::size_t{88}, kSectionHeaderChecksumOffset}) {
      ExpectLoadRejected(
          WithBitFlip(section.header_offset + field),
          "bit flip in section '" + section.name + "' header field at +" +
              std::to_string(field));
    }
  }
}

TEST_P(FaultInjectionTest, BitFlipInEveryPayloadRejected) {
  for (const SectionInfo& section : layout_.sections()) {
    if (section.payload_bytes == 0) continue;
    for (const std::uint64_t at :
         {std::uint64_t{0}, section.payload_bytes / 2,
          section.payload_bytes - 1}) {
      ExpectLoadRejected(WithBitFlip(section.payload_offset + at),
                         "bit flip in payload of '" + section.name +
                             "' at +" + std::to_string(at));
    }
  }
}

TEST_P(FaultInjectionTest, MethodNameSwapWithValidChecksumRejected) {
  // A snapshot of another method, checksums intact: the checksum layer has
  // nothing to object to — the loader's method-name check must refuse it.
  const std::string impostor = "fanng";
  ASSERT_STRNE(GetParam(), impostor.c_str());
  std::vector<std::uint8_t> bytes = clean_bytes_;
  for (std::size_t i = 0; i < kMaxMethodName; ++i) {
    bytes[kFileMethodNameOffset + i] = 0;
  }
  std::memcpy(bytes.data() + kFileMethodNameOffset, impostor.data(),
              impostor.size());
  PutU32At(&bytes, 12, static_cast<std::uint32_t>(impostor.size()));
  ResealFileHeader(&bytes);

  // The file itself is well-formed...
  WriteFileBytes(mutated_path_, bytes);
  SnapshotReader reader;
  ASSERT_TRUE(SnapshotReader::Open(mutated_path_, &reader).ok());
  EXPECT_EQ(reader.method(), impostor);
  // ...but loading it into this method's index must be refused.
  ExpectLoadRejected(bytes, "method name swapped to '" + impostor + "'");
}

TEST_P(FaultInjectionTest, AbsurdPayloadCountWithValidChecksumsRejected) {
  // Overwrite the first section's leading count/id field with all-ones and
  // re-seal both checksums. Only the defensive decoder stands between this
  // and a 2^64-element allocation.
  const SectionInfo& section = layout_.sections().front();
  ASSERT_GE(section.payload_bytes, 8u);
  std::vector<std::uint8_t> bytes = clean_bytes_;
  PutU64At(&bytes, section.payload_offset, ~std::uint64_t{0});
  ResealSectionPayload(&bytes, section);
  ExpectLoadRejected(bytes, "absurd leading count in section '" +
                                section.name + "'");
}

TEST_P(FaultInjectionTest, CorruptNeighborIdWithValidChecksumsRejected) {
  // Plant an out-of-range vertex id deep inside a graph payload and re-seal
  // the checksums: decode-time bounds validation must reject it.
  const SectionInfo* graph_section = nullptr;
  for (const SectionInfo& s : layout_.sections()) {
    // HNSW stores its base layer in "base"; single-graph methods in
    // "graph"; ELPIS nests per-leaf HNSWs ("leaf0.base").
    if (s.name == "graph" || s.name == "base" || s.name == "leaf0.base") {
      graph_section = &s;
      break;
    }
  }
  ASSERT_NE(graph_section, nullptr) << "no graph payload found to corrupt";
  ASSERT_GE(graph_section->payload_bytes, 32u);

  std::vector<std::uint8_t> bytes = clean_bytes_;
  // The graph codec's payload is a u64 vertex count followed by per-vertex
  // adjacency lists; clobbering bytes past the count plants impossible
  // neighbor ids (0xFFFFFFFF far exceeds n = 220).
  for (std::uint64_t at = 16; at < 24; ++at) {
    bytes[graph_section->payload_offset + at] = 0xFF;
  }
  ResealSectionPayload(&bytes, *graph_section);
  ExpectLoadRejected(bytes, "corrupt neighbor ids in section '" +
                                graph_section->name + "'");
}

TEST_P(FaultInjectionTest, TrailingGarbageRejected) {
  std::vector<std::uint8_t> bytes = clean_bytes_;
  bytes.insert(bytes.end(), 4 * kSectionAlignment, 0xAB);
  ExpectLoadRejected(bytes, "trailing garbage after last section");
}

// HNSW bounds every list by its slot (methods/hnsw_graph.h): 2M ids on the
// base layer, M above, and upper slots only for vertices on that layer.
// A load decodes the base layer into its sealed CSR form, which any later
// Extend expands back into slots, and the upper layers into slots. A
// snapshot whose lists cannot fit — well-formed and correctly checksummed,
// so only the decoder can notice — must be rejected as corruption, never
// written past a slot.
class HnswSlotBoundsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = synth::UniformHypercube(220, 8, 31);
    index_.Build(data_);
    const methods::HnswGraph& arena = index_.layered_graph();
    base_ = arena.ToGraph(0);
    for (std::size_t l = 1; l <= arena.num_layers(); ++l) {
      layers_.push_back(arena.ToGraph(l));
    }
  }

  /// Re-encodes the index's snapshot with `base_`/`layers_` in place of its
  /// lists (all other sections copied verbatim), then loads it.
  core::Status LoadRewritten() const {
    std::vector<std::uint8_t> clean;
    EXPECT_TRUE(methods::SerializeIndex(index_, &clean).ok());
    SnapshotReader original;
    EXPECT_TRUE(SnapshotReader::OpenBytes(
                    std::make_shared<const std::vector<std::uint8_t>>(clean),
                    "clean", &original)
                    .ok());
    SnapshotWriter writer(index_.Name(), index_.ParamsFingerprint(),
                          data_.size(), data_.dim());
    for (const SectionInfo& section : original.sections()) {
      Encoder payload;
      if (section.name == "base") {
        EncodeGraph(base_, &payload);
      } else if (section.name == "layers") {
        for (const core::Graph& layer : layers_) EncodeGraph(layer, &payload);
      } else {
        AlignedBytes bytes;
        EXPECT_TRUE(original.ReadSection(section.name, &bytes).ok());
        payload.Bytes(bytes.data(), bytes.size());
      }
      EXPECT_TRUE(writer.AddSection(section.name, std::move(payload)).ok());
    }
    std::vector<std::uint8_t> image;
    EXPECT_TRUE(writer.ToBytes(&image).ok());
    SnapshotReader reader;
    EXPECT_TRUE(SnapshotReader::OpenBytes(
                    std::make_shared<const std::vector<std::uint8_t>>(image),
                    "rewritten", &reader)
                    .ok());
    methods::HnswIndex restored(params_);
    return methods::LoadIndexFrom(&restored, data_, reader);
  }

  /// A vertex at exactly `level` (the test data always has some).
  core::VectorId VertexAtLevel(std::uint32_t level) const {
    const methods::HnswGraph& arena = index_.layered_graph();
    for (core::VectorId v = 0; v < arena.size(); ++v) {
      if (arena.level(v) == level) return v;
    }
    ADD_FAILURE() << "no vertex at level " << level;
    return 0;
  }

  /// `count` distinct ids other than `v`.
  static std::vector<core::VectorId> IdsExcept(core::VectorId v,
                                               std::size_t count) {
    std::vector<core::VectorId> ids;
    for (core::VectorId u = 0; ids.size() < count; ++u) {
      if (u != v) ids.push_back(u);
    }
    return ids;
  }

  static void ExpectCorruption(const core::Status& status,
                               const std::string& needle) {
    EXPECT_EQ(status.code(), core::StatusCode::kCorruption)
        << status.message();
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << status.message();
  }

  methods::HnswParams params_;
  Dataset data_;
  methods::HnswIndex index_{params_};
  core::Graph base_;
  std::vector<core::Graph> layers_;
};

TEST_F(HnswSlotBoundsTest, UnchangedListsLoad) {
  // Baseline: the re-encoding itself is lossless, or every rejection below
  // is vacuous.
  ASSERT_FALSE(layers_.empty());
  EXPECT_TRUE(LoadRewritten().ok());
}

TEST_F(HnswSlotBoundsTest, BaseListLongerThanTwoMRejected) {
  base_.SetNeighbors(0, IdsExcept(0, 2 * params_.m + 1));
  ExpectCorruption(LoadRewritten(), "more than its 32-id slot");
}

TEST_F(HnswSlotBoundsTest, UpperListLongerThanMRejected) {
  const core::VectorId v = VertexAtLevel(1);
  layers_[0].SetNeighbors(v, IdsExcept(v, params_.m + 1));
  ExpectCorruption(LoadRewritten(), "more than its 16-id slot");
}

TEST_F(HnswSlotBoundsTest, UpperListOnAVertexBelowTheLayerRejected) {
  const core::VectorId v = VertexAtLevel(0);
  layers_[0].SetNeighbors(v, {index_.entry_point()});
  ExpectCorruption(LoadRewritten(), "has a list but level 0");
}

INSTANTIATE_TEST_SUITE_P(Methods, FaultInjectionTest,
                         ::testing::Values("hnsw", "elpis", "ieh"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace gass::io
