#include "methods/hnsw_index.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "eval/ground_truth.h"
#include "eval/recall.h"
#include "io/hash.h"
#include "synth/generators.h"

namespace gass::methods {
namespace {

using core::Dataset;
using core::VectorId;

// Process-unique: ctest runs this binary and its forced-scalar variant
// concurrently, and they must not clobber each other's files.
std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" +
         std::to_string(::getpid()) + "_" + name;
}

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
constexpr std::uint64_t kPinnedDigest = 0x0da8b0b1f5492540ULL;
constexpr std::uint64_t kPinnedBuildDistances = 855128;

Dataset PinnedData() {
  synth::ClusterParams cluster_params;
  return synth::GaussianClusters(2000, 16, cluster_params, 3);
}

HnswParams PinnedParams() {
  HnswParams params;
  params.seed = 7;
  return params;
}

std::uint64_t Digest(const HnswIndex& index) {
  std::vector<std::uint8_t> image;
  EXPECT_TRUE(SerializeIndex(index, &image).ok());
  return io::Hash64(image.data(), image.size());
}

TEST(HnswTest, SnapshotMatchesPinnedDigest) {
  const Dataset data = PinnedData();
  const HnswParams params = PinnedParams();

  HnswIndex built(params);
  EXPECT_EQ(built.Build(data).distance_computations, kPinnedBuildDistances);
  EXPECT_EQ(built.num_layers(), 3u);
  EXPECT_EQ(Digest(built), kPinnedDigest);

  // Streaming growth takes the same insertion path, so a half build plus
  // Extend reaches the same state.
  HnswIndex streamed(params);
  const std::uint64_t prefix = streamed.BuildPrefix(data, 1000)
                                   .distance_computations;
  const std::uint64_t extend = streamed.Extend(2000).distance_computations;
  EXPECT_EQ(prefix + extend, kPinnedBuildDistances);
  EXPECT_EQ(Digest(streamed), kPinnedDigest);
}

// A load decodes layer 0 straight into its sealed form, and the first
// Extend expands it back into slots: the streamed half build from the
// digest pin, copied through a snapshot image between its two halves, must
// reach the same graph and spend the same distances.
TEST(HnswTest, LoadThenExtendMatchesPinnedDigest) {
  const Dataset data = PinnedData();
  HnswIndex prefix(PinnedParams());
  const std::uint64_t prefix_distances =
      prefix.BuildPrefix(data, 1000).distance_computations;
  EXPECT_FALSE(prefix.layered_graph().sealed());

  io::SnapshotReader image;
  ASSERT_TRUE(SnapshotImage(prefix, &image).ok());
  HnswIndex loaded(PinnedParams());
  ASSERT_TRUE(LoadIndexFrom(&loaded, data, image).ok());
  EXPECT_TRUE(loaded.layered_graph().sealed());
  EXPECT_EQ(Digest(loaded), Digest(prefix));

  const std::uint64_t extend_distances =
      loaded.Extend(2000).distance_computations;
  EXPECT_FALSE(loaded.layered_graph().sealed());
  EXPECT_EQ(prefix_distances + extend_distances, kPinnedBuildDistances);
  EXPECT_EQ(Digest(loaded), kPinnedDigest);
}

// Build seals layer 0 and BuildPrefix over every row does not; the two
// forms must answer every query identically, down to the bits of each
// distance and the work counters.
TEST(HnswTest, SealedSearchMatchesSlotSearch) {
  const Dataset data = PinnedData();
  synth::ClusterParams cluster_params;
  const Dataset queries = synth::GaussianClusters(200, 16, cluster_params, 4);
  HnswIndex sealed(PinnedParams());
  HnswIndex slots(PinnedParams());
  sealed.Build(data);
  slots.BuildPrefix(data, data.size());
  ASSERT_TRUE(sealed.layered_graph().sealed());
  ASSERT_FALSE(slots.layered_graph().sealed());

  SearchParams params;
  params.k = 10;
  params.beam_width = 48;
  for (VectorId q = 0; q < queries.size(); ++q) {
    const SearchResult a = sealed.Search(queries.Row(q), params);
    const SearchResult b = slots.Search(queries.Row(q), params);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << "query " << q;
    for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << "query " << q;
      EXPECT_EQ(std::memcmp(&a.neighbors[i].distance,
                            &b.neighbors[i].distance, sizeof(float)),
                0)
          << "query " << q;
    }
    EXPECT_EQ(a.stats.distance_computations, b.stats.distance_computations)
        << "query " << q;
    EXPECT_EQ(a.stats.hops, b.stats.hops) << "query " << q;
  }
}

// IndexBytes() of a built or loaded index is exactly its resident sealed
// form: the CSR layer 0 (n + 1 u32 offsets and the bit-packed ids), one
// packed M-id slot per upper-layer membership, and the two per-vertex
// tables. That is far below the n packed 2M-id slots the build used,
// which peak_bytes still counts beside the sealed copy, and which
// BuildPrefix's index_bytes counts exactly.
TEST(HnswTest, IndexBytesCountsTheSealedForm) {
  const Dataset data = PinnedData();
  const HnswParams params = PinnedParams();
  const std::size_t n = data.size();

  HnswIndex slots(params);
  const BuildStats prefix_stats = slots.BuildPrefix(data, n);
  HnswIndex built(params);
  const BuildStats stats = built.Build(data);

  std::size_t upper_slots = 0;
  for (VectorId v = 0; v < n; ++v) {
    upper_slots += built.layered_graph().level(v);
  }
  // Upper slots: a bit_width(M)-bit degree and M ids of bit_width(n - 1)
  // bits, rounded up to whole u64 words, in one block with a spare word.
  const std::size_t width = static_cast<std::size_t>(std::bit_width(n - 1));
  const std::size_t upper_stride =
      (std::bit_width(params.m) + params.m * width + 63) / 64;
  const std::size_t upper_bytes =
      (upper_slots * upper_stride + 1) * sizeof(std::uint64_t);
  const std::size_t table_bytes = 2 * n * sizeof(std::uint32_t);
  // The sealed layer 0: n + 1 u32 offsets, then the ids bit-packed at
  // bit_width(n - 1) bits into whole u64 words, plus one spare word.
  const std::size_t id_bits = built.graph().EdgeCount() * width;
  const std::size_t csr_bytes = (n + 1) * sizeof(std::uint32_t) +
                                ((id_bits + 63) / 64 + 1) *
                                    sizeof(std::uint64_t);
  const std::size_t expected = csr_bytes + upper_bytes + table_bytes;
  EXPECT_EQ(built.IndexBytes(), expected);
  EXPECT_EQ(stats.index_bytes, expected);

  // The slot form: n layer-0 slots of the same packing at capacity 2M.
  const std::size_t base_stride =
      (std::bit_width(2 * params.m) + 2 * params.m * width + 63) / 64;
  const std::size_t slot_bytes =
      (n * base_stride + 1) * sizeof(std::uint64_t) + upper_bytes +
      table_bytes;
  EXPECT_EQ(prefix_stats.index_bytes, slot_bytes);
  EXPECT_EQ(slots.IndexBytes(), slot_bytes);
  EXPECT_LT(built.IndexBytes(), slot_bytes);
  EXPECT_EQ(stats.peak_bytes, slot_bytes + csr_bytes);

  io::SnapshotReader image;
  ASSERT_TRUE(SnapshotImage(built, &image).ok());
  HnswIndex loaded(params);
  ASSERT_TRUE(LoadIndexFrom(&loaded, data, image).ok());
  EXPECT_EQ(loaded.IndexBytes(), expected);
}

TEST(HnswTest, SaveLoadRoundTripPreservesSearchExactly) {
  const Dataset data = synth::UniformHypercube(500, 8, 23);
  HnswParams params;
  params.seed = 5;
  HnswIndex original(params);
  original.Build(data);

  const std::string path = TempPath("hnsw_full_index.bin");
  ASSERT_TRUE(SaveIndex(original, path).ok());

  HnswIndex restored(params);
  ASSERT_TRUE(LoadIndex(&restored, data, path).ok());
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
}

TEST(HnswTest, LoadRejectsMismatchedData) {
  const Dataset data = synth::UniformHypercube(200, 8, 29);
  HnswIndex index(HnswParams{});
  index.Build(data);
  const std::string path = TempPath("hnsw_mismatch.bin");
  ASSERT_TRUE(SaveIndex(index, path).ok());

  const Dataset other = synth::UniformHypercube(100, 8, 29);
  HnswIndex restored(HnswParams{});
  EXPECT_FALSE(LoadIndex(&restored, other, path).ok());
  std::remove(path.c_str());
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
