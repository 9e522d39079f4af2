#include "io/open_index.h"

#include <cstdio>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "methods/factory.h"
#include "methods/search_params.h"
#include "shard/sharded_index.h"
#include "synth/generators.h"

namespace gass::io {
namespace {

core::Dataset MakeData() { return synth::MakeDatasetProxy("deep", 600, 42); }

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(OpenIndexTest, OpensPlainSnapshots) {
  const core::Dataset data = MakeData();
  auto built = methods::CreateIndex("hnsw", 42);
  built->Build(data);
  const std::string path = TempPath("open_index_plain.gass");
  ASSERT_TRUE(methods::SaveIndex(*built, path).ok());

  std::unique_ptr<methods::GraphIndex> loaded;
  ASSERT_TRUE(OpenIndex(path, data, 42, &loaded).ok());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->Name(), built->Name());

  // The loaded index answers searches identically to the built one.
  const methods::SearchParams params = methods::MakeSearchParams(5, 32, 8);
  const auto expected = built->Search(data.Row(0), params);
  const auto actual = loaded->Search(data.Row(0), params);
  ASSERT_EQ(actual.neighbors.size(), expected.neighbors.size());
  for (std::size_t i = 0; i < expected.neighbors.size(); ++i) {
    EXPECT_EQ(actual.neighbors[i].id, expected.neighbors[i].id);
  }
  std::remove(path.c_str());
}

TEST(OpenIndexTest, OpensShardedSnapshotsWithPostLoadKnobs) {
  const core::Dataset data = MakeData();
  shard::ShardedIndexOptions options;
  options.method = "hnsw";
  options.seed = 42;
  options.partitioner.num_shards = 3;
  shard::ShardedIndex built(options);
  built.Build(data);
  const std::string path = TempPath("open_index_sharded.gass");
  ASSERT_TRUE(methods::SaveIndex(built, path).ok());

  OpenIndexOptions open;
  open.seed = 42;
  open.nprobe = 2;
  std::unique_ptr<methods::GraphIndex> loaded;
  ASSERT_TRUE(OpenIndex(path, data, open, &loaded).ok());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->Name(), built.Name());

  auto* sharded = dynamic_cast<shard::ShardedIndex*>(loaded.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->num_shards(), 3u);
  EXPECT_EQ(sharded->EffectiveNprobe(), 2u);  // The post-load override.
  std::remove(path.c_str());
}

TEST(OpenIndexTest, DefaultOptionsKeepSnapshotNprobe) {
  const core::Dataset data = MakeData();
  shard::ShardedIndexOptions options;
  options.method = "hnsw";
  options.seed = 42;
  options.partitioner.num_shards = 2;
  shard::ShardedIndex built(options);
  built.Build(data);
  const std::string path = TempPath("open_index_sharded_default.gass");
  ASSERT_TRUE(methods::SaveIndex(built, path).ok());

  std::unique_ptr<methods::GraphIndex> loaded;
  ASSERT_TRUE(OpenIndex(path, data, 42, &loaded).ok());
  auto* sharded = dynamic_cast<shard::ShardedIndex*>(loaded.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->EffectiveNprobe(), built.EffectiveNprobe());
  std::remove(path.c_str());
}

TEST(OpenIndexTest, MissingFileFails) {
  const core::Dataset data = MakeData();
  std::unique_ptr<methods::GraphIndex> loaded;
  const core::Status status =
      OpenIndex(TempPath("no_such_snapshot.gass"), data, 42, &loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(loaded, nullptr);
}

TEST(OpenIndexTest, WrongSeedIsRejected) {
  const core::Dataset data = MakeData();
  auto built = methods::CreateIndex("hnsw", 42);
  built->Build(data);
  const std::string path = TempPath("open_index_wrong_seed.gass");
  ASSERT_TRUE(methods::SaveIndex(*built, path).ok());

  std::unique_ptr<methods::GraphIndex> loaded;
  EXPECT_FALSE(OpenIndex(path, data, 43, &loaded).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gass::io
