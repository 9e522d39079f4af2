// Sharded-snapshot persistence tests: save→load round-trips are
// bit-identical and search-identical, LoadShardedIndex reconstructs an
// index from the snapshot alone, a save leaves exactly one file, and every
// corruption the shard-set layout can express is rejected with a
// descriptive error — including the semantic cases a *valid* checksum
// cannot catch (sections edited and resealed by an attacker or a buggy
// tool): a centroid table of the wrong shape, a stored method and
// partitioner that contradict the header fingerprint, and id tables whose
// centroids no longer match the shard member means. A file in the retired
// manifest layout is refused with a message that says to rebuild.

#include "shard/sharded_index.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../snapshot_edit.h"
#include "../test_util.h"
#include "core/dataset.h"
#include "io/fs.h"
#include "io/serialize.h"
#include "io/snapshot.h"
#include "methods/factory.h"

namespace gass::shard {
namespace {

using core::Dataset;
using core::VectorId;

constexpr std::size_t kN = 400;
constexpr std::size_t kDim = 16;
constexpr std::size_t kShards = 4;
constexpr std::uint64_t kSeed = 9;

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

class ShardedSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = gass::testing::SmallClustered(kN, kDim, 5);
    // Process-unique: the forced-scalar ctest variant runs concurrently.
    path_ = std::string(::testing::TempDir()) + "/sharded_" +
            std::to_string(::getpid()) + ".gass";
    mutated_path_ = path_ + ".mutated";

    index_ = std::make_unique<ShardedIndex>(MakeOptions());
    index_->Build(data_);
    ASSERT_TRUE(methods::SaveIndex(*index_, path_).ok());
    clean_ = ReadFileBytes(path_);
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(mutated_path_.c_str());
  }

  static ShardedIndexOptions MakeOptions() {
    ShardedIndexOptions options;
    options.method = "hnsw";
    options.partitioner.kind = PartitionerKind::kKMeans;
    options.partitioner.num_shards = kShards;
    options.partitioner.kmeans_sample = 256;
    options.partitioner.kmeans_iters = 5;
    options.seed = kSeed;
    return options;
  }

  /// Where section `name` sits in the clean snapshot.
  io::SectionInfo Section(const std::string& name) const {
    io::SnapshotReader reader;
    EXPECT_TRUE(io::SnapshotReader::Open(path_, &reader).ok());
    for (const io::SectionInfo& info : reader.sections()) {
      if (info.name == name) return info;
    }
    ADD_FAILURE() << "no section " << name;
    return io::SectionInfo{};
  }

  /// Copies the clean snapshot into mutated_path_ without the sections
  /// whose names start with `prefix`, every checksum valid.
  void CopyWithout(const std::string& prefix) {
    io::SnapshotReader reader;
    ASSERT_TRUE(io::SnapshotReader::Open(path_, &reader).ok());
    io::SnapshotWriter writer(reader.method(), reader.params_fingerprint(),
                              reader.data_n(), reader.data_dim());
    for (const io::SectionInfo& section : reader.sections()) {
      if (section.name.rfind(prefix, 0) == 0) continue;
      io::AlignedBytes payload;
      ASSERT_TRUE(reader.ReadSection(section.name, &payload).ok());
      io::Encoder copy;
      copy.Bytes(payload.data(), payload.size());
      ASSERT_TRUE(writer.AddSection(section.name, std::move(copy)).ok());
    }
    ASSERT_TRUE(writer.WriteTo(mutated_path_).ok());
  }

  /// The snapshot at mutated_path_ must be rejected with a message
  /// containing `needle`, and the rejected index must be left unbuilt (not
  /// searchable with half-loaded state).
  void ExpectLoadRejected(const std::string& needle, const std::string& what) {
    ShardedIndex fresh(MakeOptions());
    const core::Status status =
        methods::LoadIndex(&fresh, data_, mutated_path_);
    EXPECT_FALSE(status.ok()) << what;
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << what << ": got '" << status.message() << "'";
    EXPECT_EQ(fresh.num_shards(), 0u) << what;
  }

  /// Writes `bytes` to mutated_path_, then ExpectLoadRejected.
  void ExpectRejected(const std::vector<std::uint8_t>& bytes,
                      const std::string& needle, const std::string& what) {
    WriteFileBytes(mutated_path_, bytes);
    ExpectLoadRejected(needle, what);
  }

  methods::SearchResult SearchConst(const ShardedIndex& index,
                                    const float* query) const {
    methods::SearchParams params;
    params.k = 10;
    params.beam_width = 48;
    methods::SearchContext ctx = index.MakeSearchContext(7);
    return index.Search(query, params, &ctx);
  }

  Dataset data_;
  std::string path_;
  std::string mutated_path_;
  std::unique_ptr<ShardedIndex> index_;
  std::vector<std::uint8_t> clean_;
};

TEST_F(ShardedSnapshotTest, RoundTripIsBitIdentical) {
  ShardedIndex loaded(MakeOptions());
  ASSERT_TRUE(methods::LoadIndex(&loaded, data_, path_).ok());
  ASSERT_EQ(loaded.num_shards(), kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(loaded.shard_size(s), index_->shard_size(s));
  }

  // Loaded and original answer identically (ids and distances).
  const Dataset queries =
      gass::testing::UniformQueries(10, kDim, 0.0f, 28.0f, 6);
  for (VectorId q = 0; q < queries.size(); ++q) {
    const auto a = SearchConst(*index_, queries.Row(q));
    const auto b = SearchConst(loaded, queries.Row(q));
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id);
      EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance);
    }
  }

  // Re-saving the loaded index reproduces the file bit for bit.
  ASSERT_TRUE(methods::SaveIndex(loaded, mutated_path_).ok());
  EXPECT_EQ(clean_, ReadFileBytes(mutated_path_));
}

TEST_F(ShardedSnapshotTest, LoadShardedIndexReconstructsFromTheSnapshot) {
  // The free loader learns method + partitioner from the file itself; only
  // the seed comes from the caller (verified via the fingerprint).
  std::unique_ptr<ShardedIndex> loaded;
  ASSERT_TRUE(LoadShardedIndex(path_, data_, kSeed, 1, &loaded).ok());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->num_shards(), kShards);
  EXPECT_EQ(loaded->options().method, "hnsw");
  EXPECT_EQ(loaded->options().partitioner.kind, PartitionerKind::kKMeans);
  EXPECT_EQ(loaded->recovery_snapshot(), path_);

  const auto a = SearchConst(*index_, data_.Row(3));
  const auto b = SearchConst(*loaded, data_.Row(3));
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
  for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id);
  }

  // A wrong caller seed changes the fingerprint and must be rejected.
  std::unique_ptr<ShardedIndex> wrong;
  const core::Status status =
      LoadShardedIndex(path_, data_, kSeed + 1, 1, &wrong);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos);
}

TEST_F(ShardedSnapshotTest, IsShardedSnapshotMethodDiscriminates) {
  io::SnapshotReader reader;
  ASSERT_TRUE(io::SnapshotReader::Open(path_, &reader).ok());
  EXPECT_TRUE(IsShardedSnapshotMethod(reader.method()));
  EXPECT_FALSE(IsShardedSnapshotMethod("hnsw"));
  EXPECT_FALSE(IsShardedSnapshotMethod("HNSW"));
}

TEST_F(ShardedSnapshotTest, MismatchedOptionsRejected) {
  ShardedIndexOptions other = MakeOptions();
  other.partitioner.num_shards = kShards + 1;
  ShardedIndex fresh(other);
  const core::Status status = methods::LoadIndex(&fresh, data_, path_);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos);
}

TEST_F(ShardedSnapshotTest, SaveIndexWritesExactlyOneFile) {
  const std::string dir = std::string(::testing::TempDir()) +
                          "/sharded_one_file_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(io::CreateDirectory(dir).ok());
  ShardedIndexOptions options = MakeOptions();
  options.partitioner.num_shards = 3;
  ShardedIndex three(options);
  three.Build(data_);
  ASSERT_TRUE(methods::SaveIndex(three, dir + "/index.gass").ok());

  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  ASSERT_EQ(names.size(), 1u);  // No ".shard<s>" files, no ".tmp" left.
  EXPECT_EQ(names[0], "index.gass");
  std::filesystem::remove_all(dir);
}

TEST_F(ShardedSnapshotTest, MissingShardSectionsRejected) {
  // Valid checksums throughout, shard 2's sub-index gone: a tool that
  // dropped sections, or a copy cut short and resealed.
  CopyWithout(ShardSet::ShardPrefix(2) + "index.");
  ExpectLoadRejected("missing section '" + ShardSet::ShardPrefix(2) + "index.",
                     "missing shard sections");
}

TEST_F(ShardedSnapshotTest, FlippedShardPayloadCaughtByItsChecksum) {
  const std::string prefix = ShardSet::ShardPrefix(1) + "index.";
  io::SnapshotReader reader;
  ASSERT_TRUE(io::SnapshotReader::Open(path_, &reader).ok());
  io::SectionInfo largest;
  for (const io::SectionInfo& info : reader.sections()) {
    if (info.name.rfind(prefix, 0) == 0 &&
        info.payload_bytes > largest.payload_bytes) {
      largest = info;
    }
  }
  ASSERT_GT(largest.payload_bytes, 0u);
  std::vector<std::uint8_t> flipped = clean_;
  flipped[largest.payload_offset + largest.payload_bytes / 2] ^= 0x01;
  ExpectRejected(flipped,
                 "section '" + largest.name + "': payload checksum mismatch",
                 "bit-flipped shard payload");
}

TEST_F(ShardedSnapshotTest, CentroidShapeMismatchBehindValidChecksumRejected) {
  // Re-label the K x dim centroid table as 2K x dim/2: the payload still
  // decodes, and the resealed checksum holds, so only the loader's shape
  // check can catch it. The payload is a u64 row count, a u64 dimension,
  // then the rows.
  const io::SectionInfo centroids = Section("live.centroids");
  std::vector<std::uint8_t> relabelled = clean_;
  testing::PutU64At(&relabelled, centroids.payload_offset, 2 * kShards);
  testing::PutU64At(&relabelled, centroids.payload_offset + 8, kDim / 2);
  testing::ResealSectionPayload(&relabelled, centroids);
  ExpectRejected(relabelled, "centroid section holds 8x8, expected 4x16",
                 "centroid shape mismatch behind a valid checksum");
}

TEST_F(ShardedSnapshotTest, ConstructionContradictingFingerprintRejected) {
  // Re-encode the method-and-partitioner section with one knob changed but
  // the original header fingerprint kept: the semantic cross-check must
  // notice the contradiction that the resealed checksums cannot.
  const ShardedIndexOptions options = MakeOptions();
  io::Encoder enc;
  enc.Str(options.method);
  enc.U8(static_cast<std::uint8_t>(options.partitioner.kind));
  enc.U64(options.partitioner.num_shards);
  enc.U64(options.partitioner.kmeans_sample);
  enc.U64(options.partitioner.kmeans_iters + 1);  // Tampered.
  enc.F64(options.partitioner.balance_slack);
  const io::SectionInfo construction = Section("sharded.construction");
  ASSERT_EQ(enc.size(), construction.payload_bytes);
  std::vector<std::uint8_t> tampered = clean_;
  std::memcpy(tampered.data() + construction.payload_offset,
              enc.bytes().data(), enc.size());
  testing::ResealSectionPayload(&tampered, construction);
  ExpectRejected(tampered, "contradict the fingerprinted",
                 "construction tamper behind a valid checksum");
}

TEST_F(ShardedSnapshotTest, SwappedMembersCaughtByCentroidCrossCheck) {
  // Swap ids i and i + 1 between the two shards that own them: both id
  // tables still ascend, cover every row once and match their sizes, and
  // every checksum is resealed, but the stored centroids are no longer the
  // member means of the altered shards.
  const std::vector<std::uint32_t>& owner = index_->partitioning().assignment;
  std::size_t i = 0;
  while (i + 1 < owner.size() && owner[i] == owner[i + 1]) ++i;
  ASSERT_LT(i + 1, owner.size()) << "need two shards to swap between";
  std::vector<std::uint8_t> swapped = clean_;
  const auto replace = [&](std::size_t s, VectorId from, VectorId to) {
    const std::vector<VectorId>& table = index_->ids(s);
    const auto at = std::find(table.begin(), table.end(), from);
    ASSERT_NE(at, table.end());
    // The ids payload is a u64 count, then the ids as u64.
    const io::SectionInfo ids = Section(ShardSet::ShardPrefix(s) + "ids");
    testing::PutU64At(&swapped,
                      ids.payload_offset + 8 + 8 * (at - table.begin()), to);
    testing::ResealSectionPayload(&swapped, ids);
  };
  replace(owner[i], static_cast<VectorId>(i), static_cast<VectorId>(i + 1));
  replace(owner[i + 1], static_cast<VectorId>(i + 1), static_cast<VectorId>(i));
  ExpectRejected(swapped, "do not match the shard member means",
                 "swapped members behind a valid checksum");
}

TEST_F(ShardedSnapshotTest, UnorderedIdsRejected) {
  // Swap shard 0's first two ids: the same members, so the centroids still
  // match, but rows 0 and 1 of its block would hold each other's vectors,
  // not the ones its graph was built on.
  const std::vector<VectorId>& table = index_->ids(0);
  ASSERT_GE(table.size(), 2u);
  const io::SectionInfo ids = Section(ShardSet::ShardPrefix(0) + "ids");
  std::vector<std::uint8_t> unordered = clean_;
  testing::PutU64At(&unordered, ids.payload_offset + 8, table[1]);
  testing::PutU64At(&unordered, ids.payload_offset + 16, table[0]);
  testing::ResealSectionPayload(&unordered, ids);
  ExpectRejected(unordered, "shard ids not ascending",
                 "unordered ids behind a valid checksum");
}

TEST_F(ShardedSnapshotTest, ManifestLayoutRefusedWithRebuildMessage) {
  // A file of the retired layout: a manifest whose shards live in other
  // files. Header and checksums are valid; both loaders refuse it by its
  // manifest section and say to rebuild.
  io::SnapshotWriter writer(index_->Name(), index_->ParamsFingerprint(), kN,
                            kDim);
  io::Encoder manifest;
  manifest.Str("hnsw");
  ASSERT_TRUE(writer.AddSection("sharded.manifest", std::move(manifest)).ok());
  ASSERT_TRUE(writer.WriteTo(mutated_path_).ok());

  std::unique_ptr<ShardedIndex> loaded;
  const core::Status status =
      LoadShardedIndex(mutated_path_, data_, kSeed, 1, &loaded);
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("rebuild"), std::string::npos)
      << status.message();
  EXPECT_EQ(loaded, nullptr);

  ShardedIndex fresh(MakeOptions());
  const core::Status direct = methods::LoadIndex(&fresh, data_, mutated_path_);
  EXPECT_EQ(direct.code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(direct.message().find("rebuild"), std::string::npos)
      << direct.message();
}

TEST_F(ShardedSnapshotTest, UnshardedLoaderRejectsShardedSnapshot) {
  // A plain hnsw index must refuse the file by method name — the sharded
  // layout never silently loads as a single graph.
  auto plain = methods::CreateIndex("hnsw", kSeed);
  const core::Status status = methods::LoadIndex(plain.get(), data_, path_);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("SHARDED"), std::string::npos);
}

TEST_F(ShardedSnapshotTest, SaveUnbuiltIndexRejected) {
  ShardedIndex unbuilt(MakeOptions());
  const core::Status status = methods::SaveIndex(unbuilt, mutated_path_);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unbuilt"), std::string::npos);
}

}  // namespace
}  // namespace gass::shard
