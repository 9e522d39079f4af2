// Sharded-snapshot persistence tests: save→load round-trips are
// bit-identical per shard file and search-identical, LoadShardedIndex
// reconstructs an index from the manifest alone, and every corruption the
// manifest format can express is rejected with a descriptive error —
// including the semantic cases a *valid* checksum cannot catch (sections
// rewritten and resealed by an attacker or a buggy tool): a centroid table
// with the wrong row count, manifest parameters that contradict the header
// fingerprint, and an assignment whose centroids no longer match the shard
// member means.

#include "shard/sharded_index.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/dataset.h"
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

    ShardedIndexOptions options = MakeOptions();
    index_ = std::make_unique<ShardedIndex>(options);
    index_->Build(data_);
    ASSERT_TRUE(index_->SaveSnapshot(path_).ok());
  }

  void TearDown() override {
    for (const std::string& base : {path_, mutated_path_}) {
      std::remove(base.c_str());
      for (std::size_t s = 0; s < kShards; ++s) {
        std::remove(ShardedIndex::ShardPath(base, s).c_str());
      }
    }
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

  /// Rewrites the manifest snapshot at path_ into mutated_path_, replacing
  /// the payload of section `replace_name` with `replacement` and copying
  /// every other section verbatim. SnapshotWriter recomputes all checksums,
  /// so the result is a structurally VALID snapshot — the loader's semantic
  /// cross-checks, not the checksum layer, must reject it. Shard files are
  /// copied alongside so failures past the manifest stage stay reachable.
  void RewriteResealed(const std::string& replace_name,
                       io::Encoder replacement) {
    io::SnapshotReader reader;
    ASSERT_TRUE(io::SnapshotReader::Open(path_, &reader).ok());
    io::SnapshotWriter writer(reader.method(), reader.params_fingerprint(),
                              reader.data_n(), reader.data_dim());
    for (const io::SectionInfo& section : reader.sections()) {
      if (section.name == replace_name) {
        ASSERT_TRUE(
            writer.AddSection(section.name, std::move(replacement)).ok());
      } else {
        io::AlignedBytes payload;
        ASSERT_TRUE(reader.ReadSection(section.name, &payload).ok());
        io::Encoder copy;
        copy.Bytes(payload.data(), payload.size());
        ASSERT_TRUE(writer.AddSection(section.name, std::move(copy)).ok());
      }
    }
    ASSERT_TRUE(writer.WriteTo(mutated_path_).ok());
    for (std::size_t s = 0; s < kShards; ++s) {
      WriteFileBytes(ShardedIndex::ShardPath(mutated_path_, s),
                     ReadFileBytes(ShardedIndex::ShardPath(path_, s)));
    }
  }

  /// The mutated manifest must be rejected with a message containing
  /// `needle`, and the rejected index must be left unbuilt (not searchable
  /// with half-loaded state).
  void ExpectLoadRejected(const std::string& needle, const std::string& what) {
    ShardedIndex fresh(MakeOptions());
    const core::Status status = fresh.LoadSnapshot(mutated_path_, data_);
    EXPECT_FALSE(status.ok()) << what;
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << what << ": got '" << status.message() << "'";
    EXPECT_EQ(fresh.num_shards(), 0u) << what;
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
};

TEST_F(ShardedSnapshotTest, RoundTripIsBitIdenticalPerShard) {
  ShardedIndex loaded(MakeOptions());
  ASSERT_TRUE(loaded.LoadSnapshot(path_, data_).ok());
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

  // Re-saving the loaded index reproduces every file bit-for-bit: manifest
  // and all shard snapshots.
  ASSERT_TRUE(loaded.SaveSnapshot(mutated_path_).ok());
  EXPECT_EQ(ReadFileBytes(path_), ReadFileBytes(mutated_path_));
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(ReadFileBytes(ShardedIndex::ShardPath(path_, s)),
              ReadFileBytes(ShardedIndex::ShardPath(mutated_path_, s)))
        << "shard " << s;
  }
}

TEST_F(ShardedSnapshotTest, LoadShardedIndexReconstructsFromManifest) {
  // The free loader learns method + partitioner from the manifest itself;
  // only the seed comes from the caller (verified via the fingerprint).
  std::unique_ptr<ShardedIndex> loaded;
  ASSERT_TRUE(LoadShardedIndex(path_, data_, kSeed, 1, &loaded).ok());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->num_shards(), kShards);
  EXPECT_EQ(loaded->options().method, "hnsw");
  EXPECT_EQ(loaded->options().partitioner.kind, PartitionerKind::kKMeans);

  const auto a = SearchConst(*index_, data_.Row(3));
  const auto b = SearchConst(*loaded, data_.Row(3));
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
  for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id);
  }

  // A wrong caller seed changes the fingerprint and must be rejected.
  std::unique_ptr<ShardedIndex> wrong;
  const core::Status status = LoadShardedIndex(path_, data_, kSeed + 1, 1, &wrong);
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
  const core::Status status = fresh.LoadSnapshot(path_, data_);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos);
}

TEST_F(ShardedSnapshotTest, MissingShardFileRejected) {
  // Valid manifest, one shard snapshot gone — the classic partial-copy
  // deployment accident.
  WriteFileBytes(mutated_path_, ReadFileBytes(path_));
  for (std::size_t s = 0; s < kShards; ++s) {
    if (s == 2) continue;
    WriteFileBytes(ShardedIndex::ShardPath(mutated_path_, s),
                   ReadFileBytes(ShardedIndex::ShardPath(path_, s)));
  }
  ExpectLoadRejected("missing or unreadable", "missing shard file");
}

TEST_F(ShardedSnapshotTest, TamperedShardFileRejected) {
  WriteFileBytes(mutated_path_, ReadFileBytes(path_));
  for (std::size_t s = 0; s < kShards; ++s) {
    std::vector<std::uint8_t> bytes =
        ReadFileBytes(ShardedIndex::ShardPath(path_, s));
    if (s == 1) bytes[bytes.size() / 2] ^= 0x01;
    WriteFileBytes(ShardedIndex::ShardPath(mutated_path_, s), bytes);
  }
  ExpectLoadRejected("does not match the hash", "bit-flipped shard file");
}

TEST_F(ShardedSnapshotTest, CentroidCountMismatchBehindValidChecksumRejected) {
  // Rewrite the centroid section to hold K-1 rows. SnapshotWriter reseals
  // every checksum, so only the loader's shape check can catch it.
  Dataset truncated(kShards - 1, kDim);
  for (VectorId s = 0; s < kShards - 1; ++s) {
    std::memcpy(truncated.MutableRow(s), index_->partitioning().centroids.Row(s),
                kDim * sizeof(float));
  }
  io::Encoder enc;
  io::EncodeDataset(truncated, &enc);
  RewriteResealed("sharded.centroids", std::move(enc));
  ExpectLoadRejected("centroid section holds",
                     "centroid-count mismatch behind a valid checksum");
}

TEST_F(ShardedSnapshotTest, ManifestContradictingFingerprintRejected) {
  // Re-encode the manifest with one partitioner knob changed but the
  // original header fingerprint kept: the semantic cross-check must notice
  // the contradiction that the (resealed) checksums cannot.
  io::Encoder enc;
  const ShardedIndexOptions options = MakeOptions();
  enc.Str(options.method);
  enc.U8(static_cast<std::uint8_t>(options.partitioner.kind));
  enc.U64(options.partitioner.num_shards);
  enc.U64(options.partitioner.kmeans_sample);
  enc.U64(options.partitioner.kmeans_iters + 1);  // Tampered.
  enc.F64(options.partitioner.balance_slack);
  std::vector<std::uint64_t> sizes(kShards);
  std::vector<std::uint64_t> hashes(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    sizes[s] = index_->shard_size(s);
    hashes[s] = 0;
  }
  enc.VecU64(sizes);
  enc.VecU64(hashes);
  RewriteResealed("sharded.manifest", std::move(enc));
  ExpectLoadRejected("contradicts the fingerprinted",
                     "manifest tamper behind a valid checksum");
}

TEST_F(ShardedSnapshotTest, AssignmentTamperCaughtByCentroidCrossCheck) {
  // Swap two rows between shards: sizes still match the manifest and every
  // checksum is resealed, but the stored centroids are no longer the
  // member means of the altered shards.
  std::vector<std::uint32_t> assignment = index_->partitioning().assignment;
  std::size_t a = 0;
  std::size_t b = 0;
  for (std::size_t i = 1; i < assignment.size(); ++i) {
    if (assignment[i] != assignment[0]) {
      b = i;
      break;
    }
  }
  ASSERT_NE(a, b) << "need two shards to swap between";
  std::swap(assignment[a], assignment[b]);
  io::Encoder enc;
  enc.VecU32(assignment);
  RewriteResealed("sharded.assignment", std::move(enc));
  ExpectLoadRejected("do not match the shard member means",
                     "assignment tamper behind a valid checksum");
}

TEST_F(ShardedSnapshotTest, UnshardedLoaderRejectsShardedManifest) {
  // A plain hnsw index must refuse the manifest by method name — the
  // sharded format never silently loads as a single graph.
  auto plain = methods::CreateIndex("hnsw", kSeed);
  const core::Status status = methods::LoadIndex(plain.get(), data_, path_);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("SHARDED"), std::string::npos);
}

TEST_F(ShardedSnapshotTest, SaveUnbuiltIndexRejected) {
  ShardedIndex unbuilt(MakeOptions());
  const core::Status status = unbuilt.SaveSnapshot(mutated_path_);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unbuilt"), std::string::npos);
}

}  // namespace
}  // namespace gass::shard
