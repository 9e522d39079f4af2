// Torn-tail exhaustion: truncating a valid WAL at EVERY byte offset of its
// last record must recover exactly the acknowledged prefix — never a
// half-applied insert, never a corrupted graph. This is the byte-level
// leg of the crash-recovery harness (see tests/serve/updater_test.cc for
// the fault-plan grid and docs/PERSISTENCE.md for the crash model).

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/rng.h"
#include "io/fs.h"
#include "io/wal.h"
#include "serve/updater.h"
#include "shard/live_sharded_index.h"
#include "../test_util.h"

namespace gass::serve {
namespace {

constexpr std::size_t kBaseN = 64;
constexpr std::size_t kDim = 8;
constexpr std::size_t kInserts = 6;

using shard::LiveShardedIndex;

// A plain live HNSW: the one-shard live index.
shard::LiveShardedOptions LiveOptions() {
  shard::LiveShardedOptions options;
  options.num_shards = 1;
  options.reserve_per_shard = 32;
  return options;
}

std::string TempDirFor(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  EXPECT_TRUE(io::CreateDirectory(dir).ok());
  return dir;
}

std::vector<unsigned char> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<unsigned char> bytes(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path, const std::vector<unsigned char>& b,
               std::size_t len) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(b.data(), 1, len, f), len);
  std::fclose(f);
}

TEST(WalRecoveryTest, TornTailAtEveryByteRecoversExactlyThePrefix) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 11);
  const std::string dir = TempDirFor("wal_recovery_every_byte");

  UpdaterOptions options;
  options.directory = dir;
  options.name = "live";

  const shard::LiveShardedOptions live_options = LiveOptions();

  // Build, log kInserts inserts and one delete, then capture the pristine
  // on-disk state (checkpoint + WAL) as the crash substrate.
  std::vector<std::vector<float>> vectors;
  {
    auto live = std::make_unique<LiveShardedIndex>(live_options);
    live->Build(base);
    std::unique_ptr<Updater> updater;
    ASSERT_TRUE(Updater::Create(live.get(), options, &updater).ok());
    core::Rng rng(99);
    for (std::size_t u = 0; u < kInserts; ++u) {
      std::vector<float> vec(kDim);
      for (float& x : vec) x = rng.UniformFloat(-1.0F, 1.0F);
      const UpdateResult result = updater->Insert(vec.data());
      ASSERT_TRUE(result.status.ok());
      vectors.push_back(std::move(vec));
    }
    ASSERT_TRUE(updater->Delete(0).status.ok());
  }
  const std::string wal_path = Updater::WalPath(options, 0);
  const std::vector<unsigned char> pristine = ReadFile(wal_path);

  // The last record is the delete: 32-byte header + 8-byte id payload.
  const std::size_t last_record_bytes = io::kWalRecordHeaderBytes + 8;
  const std::size_t prefix = pristine.size() - last_record_bytes;

  for (std::size_t cut = prefix; cut < pristine.size(); ++cut) {
    WriteFile(wal_path, pristine, cut);

    std::unique_ptr<LiveShardedIndex> shell =
        LiveShardedIndex::Shell(base, live_options);
    std::unique_ptr<Updater> updater;
    RecoveryReport report;
    ASSERT_TRUE(Updater::Open(shell.get(), options, &updater, &report).ok())
        << "cut at byte " << cut;

    // Exactly the prefix: all inserts applied, the torn delete lost.
    EXPECT_EQ(report.records_applied, kInserts) << "cut at byte " << cut;
    EXPECT_EQ(shell->next_id(), kBaseN + kInserts);
    EXPECT_TRUE(updater->tombstones().empty())
        << "torn delete must not replay (cut at byte " << cut << ")";
    if (cut > prefix) {
      EXPECT_EQ(report.torn_tails, 1u);
      EXPECT_EQ(report.bytes_truncated, cut - prefix);
    } else {
      EXPECT_EQ(report.torn_tails, 0u);  // Clean cut at a record boundary.
    }

    // Open truncated the torn bytes: the file must now BE the prefix.
    std::uint64_t size = 0;
    ASSERT_TRUE(io::FileSize(wal_path, &size).ok());
    EXPECT_EQ(size, prefix);

    // The recovered graph is structurally sound and serves the inserts.
    ASSERT_TRUE(shell->shard_index(0).graph().Validate().ok())
        << "cut at byte " << cut;
    methods::SearchParams params = methods::SearchParams{.k = 5, .beam_width = 50, .num_seeds = 8};
    params.tombstones = &updater->tombstones();
    for (std::size_t u = 0; u < kInserts; ++u) {
      const auto id = static_cast<core::VectorId>(kBaseN + u);
      const methods::SearchResult result =
          shell->MutableSearchIndex()->Search(vectors[u].data(), params);
      bool present = false;
      for (const auto& nb : result.neighbors) present |= nb.id == id;
      EXPECT_TRUE(present) << "insert " << id << " lost (cut " << cut << ")";
    }
  }
}

TEST(WalRecoveryTest, RecoveredLogAcceptsNewAppendsAfterTruncation) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 12);
  const std::string dir = TempDirFor("wal_recovery_append_after");

  UpdaterOptions options;
  options.directory = dir;
  options.name = "live";
  const shard::LiveShardedOptions live_options = LiveOptions();

  {
    auto live = std::make_unique<LiveShardedIndex>(live_options);
    live->Build(base);
    std::unique_ptr<Updater> updater;
    ASSERT_TRUE(Updater::Create(live.get(), options, &updater).ok());
    std::vector<float> vec(kDim, 0.25F);
    ASSERT_TRUE(updater->Insert(vec.data()).status.ok());
    ASSERT_TRUE(updater->Insert(vec.data()).status.ok());
  }
  // Tear the second insert mid-record.
  const std::string wal_path = Updater::WalPath(options, 0);
  const std::vector<unsigned char> pristine = ReadFile(wal_path);
  WriteFile(wal_path, pristine, pristine.size() - 7);

  // Recover, then keep writing: sequences continue from the survivor, and
  // a second recovery sees both the old and the new record.
  std::uint64_t resumed_sequence = 0;
  {
    std::unique_ptr<LiveShardedIndex> shell =
        LiveShardedIndex::Shell(base, live_options);
    std::unique_ptr<Updater> updater;
    RecoveryReport report;
    ASSERT_TRUE(Updater::Open(shell.get(), options, &updater, &report).ok());
    EXPECT_EQ(report.torn_tails, 1u);
    EXPECT_EQ(shell->next_id(), kBaseN + 1);
    std::vector<float> vec(kDim, -0.75F);
    const UpdateResult result = updater->Insert(vec.data());
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.sequence, 2u);  // Torn sequence 2 was never acked.
    resumed_sequence = result.sequence;
  }
  {
    std::unique_ptr<LiveShardedIndex> shell =
        LiveShardedIndex::Shell(base, live_options);
    std::unique_ptr<Updater> updater;
    RecoveryReport report;
    ASSERT_TRUE(Updater::Open(shell.get(), options, &updater, &report).ok());
    EXPECT_EQ(report.records_applied, 2u);
    EXPECT_EQ(report.torn_tails, 0u);
    EXPECT_EQ(updater->last_sequence(), resumed_sequence);
    EXPECT_EQ(shell->next_id(), kBaseN + 2);
  }
}

}  // namespace
}  // namespace gass::serve
