#include "io/snapshot.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace gass::io {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

Encoder PayloadOf(const std::vector<std::uint32_t>& values) {
  Encoder enc;
  enc.VecU32(values);
  return enc;
}

TEST(SnapshotTest, WriteReadRoundTrip) {
  const std::string path = TempPath("snapshot_roundtrip.gass");
  SnapshotWriter writer("hnsw", 0xFEEDULL, 1000, 32);
  ASSERT_TRUE(writer.AddSection("meta", PayloadOf({1, 2, 3})).ok());
  ASSERT_TRUE(writer.AddSection("graph", PayloadOf({9, 8, 7, 6})).ok());
  EXPECT_EQ(writer.section_count(), 2u);
  ASSERT_TRUE(writer.WriteTo(path).ok());
  EXPECT_FALSE(FileExists(path + ".tmp"));  // Renamed away, never left.

  SnapshotReader reader;
  ASSERT_TRUE(SnapshotReader::Open(path, &reader).ok());
  EXPECT_EQ(reader.method(), "hnsw");
  EXPECT_EQ(reader.params_fingerprint(), 0xFEEDULL);
  EXPECT_EQ(reader.data_n(), 1000u);
  EXPECT_EQ(reader.data_dim(), 32u);
  ASSERT_EQ(reader.sections().size(), 2u);
  EXPECT_TRUE(reader.HasSection("meta"));
  EXPECT_TRUE(reader.HasSection("graph"));
  EXPECT_FALSE(reader.HasSection("layers"));

  AlignedBytes buffer;
  Decoder dec(nullptr, 0, "");
  ASSERT_TRUE(reader.OpenSection("graph", &buffer, &dec).ok());
  std::vector<std::uint32_t> values;
  ASSERT_TRUE(dec.VecU32(&values, 100));
  EXPECT_EQ(values, (std::vector<std::uint32_t>{9, 8, 7, 6}));
  EXPECT_TRUE(dec.ExpectEnd());
  std::remove(path.c_str());
}

TEST(SnapshotTest, InMemoryImageEqualsFileAndOpensTheSame) {
  const std::string path = TempPath("snapshot_image.gass");
  SnapshotWriter writer("hnsw", 0xFEEDULL, 1000, 32);
  ASSERT_TRUE(writer.AddSection("meta", PayloadOf({1, 2, 3})).ok());
  ASSERT_TRUE(writer.AddSection("graph", PayloadOf({9, 8, 7, 6})).ok());
  ASSERT_TRUE(writer.WriteTo(path).ok());
  std::vector<std::uint8_t> image;
  ASSERT_TRUE(writer.ToBytes(&image).ok());
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> file((std::istreambuf_iterator<char>(in)),
                                       std::istreambuf_iterator<char>());
  EXPECT_EQ(image, file);
  std::remove(path.c_str());

  SnapshotReader reader;
  ASSERT_TRUE(SnapshotReader::OpenBytes(
                  std::make_shared<const std::vector<std::uint8_t>>(image),
                  "image", &reader)
                  .ok());
  EXPECT_EQ(reader.path(), "image");
  EXPECT_EQ(reader.method(), "hnsw");
  EXPECT_EQ(reader.data_n(), 1000u);
  AlignedBytes buffer;
  Decoder dec(nullptr, 0, "");
  ASSERT_TRUE(reader.OpenSection("graph", &buffer, &dec).ok());
  std::vector<std::uint32_t> values;
  ASSERT_TRUE(dec.VecU32(&values, 100));
  EXPECT_EQ(values, (std::vector<std::uint32_t>{9, 8, 7, 6}));

  // The image gets the file's validation: a truncated image fails to
  // open, and a flipped payload bit fails its section's checksum.
  std::vector<std::uint8_t> truncated(image.begin(), image.end() - 70);
  EXPECT_EQ(SnapshotReader::OpenBytes(
                std::make_shared<const std::vector<std::uint8_t>>(truncated),
                "truncated", &reader)
                .code(),
            core::StatusCode::kCorruption);
  std::vector<std::uint8_t> flipped = image;
  flipped[kFileHeaderBytes + kSectionHeaderBytes] ^= 0x01;
  ASSERT_TRUE(SnapshotReader::OpenBytes(
                  std::make_shared<const std::vector<std::uint8_t>>(flipped),
                  "flipped", &reader)
                  .ok());
  EXPECT_EQ(reader.ReadSection("meta", &buffer).code(),
            core::StatusCode::kCorruption);
}

TEST(SnapshotTest, PayloadsAreCacheLineAligned) {
  const std::string path = TempPath("snapshot_aligned.gass");
  SnapshotWriter writer("hnsw", 1, 10, 4);
  // Odd payload sizes force padding between sections.
  Encoder a;
  a.U8(1);
  Encoder b;
  b.U8(2);
  b.U8(3);
  ASSERT_TRUE(writer.AddSection("a", std::move(a)).ok());
  ASSERT_TRUE(writer.AddSection("b", std::move(b)).ok());
  ASSERT_TRUE(writer.WriteTo(path).ok());

  SnapshotReader reader;
  ASSERT_TRUE(SnapshotReader::Open(path, &reader).ok());
  for (const SectionInfo& section : reader.sections()) {
    EXPECT_EQ(section.payload_offset % kSectionAlignment, 0u)
        << "section " << section.name;
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, DuplicateSectionNameRejected) {
  SnapshotWriter writer("hnsw", 1, 10, 4);
  ASSERT_TRUE(writer.AddSection("graph", PayloadOf({1})).ok());
  EXPECT_FALSE(writer.AddSection("graph", PayloadOf({2})).ok());
}

TEST(SnapshotTest, OverlongNamesRejected) {
  SnapshotWriter writer("hnsw", 1, 10, 4);
  const std::string long_name(kMaxSectionName + 1, 'x');
  EXPECT_FALSE(writer.AddSection(long_name, PayloadOf({1})).ok());
  EXPECT_FALSE(writer.AddSection("", PayloadOf({1})).ok());
}

TEST(SnapshotTest, MissingFileIsIoError) {
  SnapshotReader reader;
  const core::Status status =
      SnapshotReader::Open(TempPath("does_not_exist.gass"), &reader);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), core::StatusCode::kIoError);
}

TEST(SnapshotTest, UnknownSectionReadFails) {
  const std::string path = TempPath("snapshot_unknown_section.gass");
  SnapshotWriter writer("hnsw", 1, 10, 4);
  ASSERT_TRUE(writer.AddSection("meta", PayloadOf({1})).ok());
  ASSERT_TRUE(writer.WriteTo(path).ok());

  SnapshotReader reader;
  ASSERT_TRUE(SnapshotReader::Open(path, &reader).ok());
  AlignedBytes buffer;
  EXPECT_FALSE(reader.ReadSection("missing", &buffer).ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, EmptyPayloadSectionRoundTrips) {
  const std::string path = TempPath("snapshot_empty_section.gass");
  SnapshotWriter writer("hnsw", 1, 10, 4);
  Encoder empty;
  ASSERT_TRUE(writer.AddSection("empty", std::move(empty)).ok());
  ASSERT_TRUE(writer.WriteTo(path).ok());

  SnapshotReader reader;
  ASSERT_TRUE(SnapshotReader::Open(path, &reader).ok());
  AlignedBytes buffer;
  Decoder dec(nullptr, 0, "");
  ASSERT_TRUE(reader.OpenSection("empty", &buffer, &dec).ok());
  EXPECT_EQ(dec.remaining(), 0u);
  EXPECT_TRUE(dec.ExpectEnd());
  std::remove(path.c_str());
}

TEST(SnapshotTest, NotASnapshotFileRejected) {
  const std::string path = TempPath("not_a_snapshot.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "this is not a snapshot file at all, far too short";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);

  SnapshotReader reader;
  const core::Status status = SnapshotReader::Open(path, &reader);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), core::StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gass::io
