#include "methods/hnsw_index.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "eval/ground_truth.h"
#include "eval/recall.h"
#include "io/hash.h"
#include "synth/generators.h"

namespace gass::methods {
namespace {

using core::Dataset;
using core::VectorId;

TEST(HnswTest, LayersExistOnModerateData) {
  const Dataset data = synth::UniformHypercube(2000, 8, 1);
  HnswParams params;
  params.m = 8;
  HnswIndex index(params);
  index.Build(data);
  // With n = 2000 and M = 8, Eq. 1 yields several hierarchical layers.
  EXPECT_GE(index.num_layers(), 1u);
  EXPECT_LT(index.entry_point(), data.size());
}

TEST(HnswTest, BaseLayerDegreesBounded) {
  const Dataset data = synth::UniformHypercube(800, 8, 3);
  HnswParams params;
  params.m = 8;
  HnswIndex index(params);
  index.Build(data);
  EXPECT_LE(index.graph().MaxDegree(), params.m * 2);
}

TEST(HnswTest, HighRecallAtWideBeam) {
  synth::ClusterParams cluster_params;
  const Dataset data = synth::GaussianClusters(1000, 16, cluster_params, 5);
  const Dataset queries = synth::GaussianClusters(20, 16, cluster_params, 6);
  const auto truth = eval::BruteForceKnn(data, queries, 10, 1);

  HnswIndex index(HnswParams{});
  index.Build(data);
  SearchParams params;
  params.k = 10;
  params.beam_width = 100;
  std::vector<std::vector<core::Neighbor>> results;
  for (VectorId q = 0; q < queries.size(); ++q) {
    results.push_back(index.Search(queries.Row(q), params).neighbors);
  }
  EXPECT_GE(eval::MeanRecall(results, truth, 10), 0.95);
}

TEST(HnswTest, RecallImprovesWithBeamWidth) {
  const Dataset data = synth::UniformHypercube(1500, 12, 7);
  const Dataset queries = synth::UniformHypercube(25, 12, 8);
  const auto truth = eval::BruteForceKnn(data, queries, 10, 1);

  HnswIndex index(HnswParams{});
  index.Build(data);
  auto recall_at = [&](std::size_t beam) {
    SearchParams params;
    params.k = 10;
    params.beam_width = beam;
    std::vector<std::vector<core::Neighbor>> results;
    for (VectorId q = 0; q < queries.size(); ++q) {
      results.push_back(index.Search(queries.Row(q), params).neighbors);
    }
    return eval::MeanRecall(results, truth, 10);
  };
  const double narrow = recall_at(10);
  const double wide = recall_at(200);
  EXPECT_GE(wide, narrow);
  EXPECT_GE(wide, 0.9);
}

TEST(HnswTest, DeterministicAcrossRebuilds) {
  const Dataset data = synth::UniformHypercube(400, 8, 9);
  HnswParams params;
  params.seed = 77;
  HnswIndex a(params), b(params);
  a.Build(data);
  b.Build(data);
  const core::Graph graph_a = a.graph();
  const core::Graph graph_b = b.graph();
  for (VectorId v = 0; v < data.size(); ++v) {
    EXPECT_EQ(graph_a.Neighbors(v), graph_b.Neighbors(v));
  }
}

// Bit-identity pin: the XXH64 of a seeded 2,000-row HNSW's snapshot image,
// recorded from the adjacency-list implementation the arena replaced. Any
// change to the graph, levels, entry point, or the build's distance count
// moves it. Distances are bit-identical across SIMD levels, so the pin
// holds under forced-scalar kernels too.
TEST(HnswTest, SnapshotMatchesPinnedDigest) {
  constexpr std::uint64_t kPinnedDigest = 0x0da8b0b1f5492540ULL;
  constexpr std::uint64_t kPinnedBuildDistances = 855128;
  synth::ClusterParams cluster_params;
  const Dataset data = synth::GaussianClusters(2000, 16, cluster_params, 3);
  HnswParams params;
  params.seed = 7;
  auto digest = [](const HnswIndex& index) {
    std::vector<std::uint8_t> image;
    EXPECT_TRUE(SerializeIndex(index, &image).ok());
    return io::Hash64(image.data(), image.size());
  };

  HnswIndex built(params);
  EXPECT_EQ(built.Build(data).distance_computations, kPinnedBuildDistances);
  EXPECT_EQ(built.num_layers(), 3u);
  EXPECT_EQ(digest(built), kPinnedDigest);

  // Streaming growth takes the same insertion path, so a half build plus
  // Extend reaches the same state.
  HnswIndex streamed(params);
  const std::uint64_t prefix = streamed.BuildPrefix(data, 1000)
                                   .distance_computations;
  const std::uint64_t extend = streamed.Extend(2000).distance_computations;
  EXPECT_EQ(prefix + extend, kPinnedBuildDistances);
  EXPECT_EQ(digest(streamed), kPinnedDigest);
}

TEST(HnswTest, SaveLoadRoundTripPreservesSearchExactly) {
  const Dataset data = synth::UniformHypercube(500, 8, 23);
  HnswParams params;
  params.seed = 5;
  HnswIndex original(params);
  original.Build(data);

  const std::string path =
      std::string(::testing::TempDir()) + "/hnsw_full_index.bin";
  ASSERT_TRUE(original.Save(path).ok());

  HnswIndex restored(params);
  ASSERT_TRUE(restored.Load(path, data).ok());
  EXPECT_EQ(restored.num_layers(), original.num_layers());
  EXPECT_EQ(restored.entry_point(), original.entry_point());
  EXPECT_EQ(restored.inserted_count(), original.inserted_count());

  SearchParams search;
  search.k = 10;
  search.beam_width = 64;
  for (VectorId q = 0; q < 10; ++q) {
    const auto a = original.Search(data.Row(q * 31), search);
    const auto b = restored.Search(data.Row(q * 31), search);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id);
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".base").c_str());
  for (std::size_t l = 0; l < original.num_layers(); ++l) {
    std::remove((path + ".layer" + std::to_string(l)).c_str());
  }
}

TEST(HnswTest, LoadRejectsMismatchedData) {
  const Dataset data = synth::UniformHypercube(200, 8, 29);
  HnswIndex index(HnswParams{});
  index.Build(data);
  const std::string path =
      std::string(::testing::TempDir()) + "/hnsw_mismatch.bin";
  ASSERT_TRUE(index.Save(path).ok());

  const Dataset other = synth::UniformHypercube(100, 8, 29);
  HnswIndex restored(HnswParams{});
  EXPECT_FALSE(restored.Load(path, other).ok());
  std::remove(path.c_str());
  std::remove((path + ".base").c_str());
  for (std::size_t l = 0; l < index.num_layers(); ++l) {
    std::remove((path + ".layer" + std::to_string(l)).c_str());
  }
}

TEST(HnswTest, ExtendMatchesFullBuildBehaviour) {
  // Streaming insertion: index half the rows, Extend with the rest, and
  // verify searches cover the late insertions.
  const Dataset data = synth::UniformHypercube(600, 8, 13);
  HnswIndex index(HnswParams{});
  index.BuildPrefix(data, 300);
  EXPECT_EQ(index.inserted_count(), 300u);

  // A query equal to a not-yet-inserted row must not return that row.
  SearchParams params;
  params.k = 1;
  params.beam_width = 64;
  {
    const auto result = index.Search(data.Row(450), params);
    ASSERT_FALSE(result.neighbors.empty());
    EXPECT_LT(result.neighbors[0].id, 300u);
  }

  index.Extend(600);
  EXPECT_EQ(index.inserted_count(), 600u);
  {
    const auto result = index.Search(data.Row(450), params);
    ASSERT_FALSE(result.neighbors.empty());
    EXPECT_EQ(result.neighbors[0].id, 450u);
    EXPECT_FLOAT_EQ(result.neighbors[0].distance, 0.0f);
  }
}

TEST(HnswTest, ExtendedIndexStillHighRecall) {
  const Dataset data = synth::UniformHypercube(800, 12, 17);
  HnswIndex streamed(HnswParams{});
  streamed.BuildPrefix(data, 400);
  streamed.Extend(800);

  const Dataset queries = synth::UniformHypercube(20, 12, 18);
  const auto truth = eval::BruteForceKnn(data, queries, 10, 1);
  SearchParams params;
  params.k = 10;
  params.beam_width = 120;
  std::vector<std::vector<core::Neighbor>> results;
  for (VectorId q = 0; q < queries.size(); ++q) {
    results.push_back(streamed.Search(queries.Row(q), params).neighbors);
  }
  EXPECT_GE(eval::MeanRecall(results, truth, 10), 0.9);
}

TEST(HnswTest, SearchStatsPopulated) {
  const Dataset data = synth::UniformHypercube(300, 8, 11);
  HnswIndex index(HnswParams{});
  index.Build(data);
  SearchParams params;
  const SearchResult result = index.Search(data.Row(0), params);
  EXPECT_GT(result.stats.distance_computations, 0u);
  EXPECT_GT(result.stats.hops, 0u);
  EXPECT_GE(result.stats.elapsed_seconds, 0.0);
  ASSERT_FALSE(result.neighbors.empty());
  EXPECT_EQ(result.neighbors[0].id, 0u);  // Query is a dataset point.
}

}  // namespace
}  // namespace gass::methods
