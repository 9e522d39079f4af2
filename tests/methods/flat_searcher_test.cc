#include "methods/flat_searcher.h"

#include <gtest/gtest.h>

#include "core/beam_search.h"
#include "methods/hnsw_index.h"
#include "synth/generators.h"

namespace gass::methods {
namespace {

using core::Dataset;
using core::VectorId;

TEST(FlatSearcherTest, MatchesGraphSearchWithSameSeeds) {
  const Dataset data = synth::UniformHypercube(600, 8, 1);
  HnswIndex hnsw(HnswParams{});
  hnsw.Build(data);
  const core::Graph graph = hnsw.graph();

  // A fixed seed selector makes both searches deterministic and identical.
  auto fixed_a = std::make_unique<seeds::SfFixedSeed>(0, &graph);
  FlatGraphSearcher flat(data, graph, std::move(fixed_a));

  core::VisitedTable visited(data.size());
  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  for (VectorId q = 0; q < 15; ++q) {
    core::DistanceComputer dc(data);
    seeds::SfFixedSeed fixed_b(0, &graph);
    const auto seeds = fixed_b.Select(dc, data.Row(q), params.num_seeds);
    const auto expect =
        core::BeamSearch(graph, dc, data.Row(q), seeds, params.k,
                         params.beam_width, &visited);
    const SearchResult got = flat.Search(data.Row(q), params);
    ASSERT_EQ(got.neighbors.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got.neighbors[i].id, expect[i].id);
      EXPECT_FLOAT_EQ(got.neighbors[i].distance, expect[i].distance);
    }
  }
}

TEST(FlatSearcherTest, FlatLayoutSmallerThanAdjacency) {
  const Dataset data = synth::UniformHypercube(500, 8, 3);
  HnswIndex hnsw(HnswParams{});
  hnsw.Build(data);
  FlatGraphSearcher flat(
      data, hnsw.graph(),
      std::make_unique<seeds::KsRandomSeeds>(data.size(), 7));
  EXPECT_LT(flat.IndexBytes(), hnsw.graph().MemoryBytes());
}

TEST(FlatSearcherTest, StatsPopulated) {
  const Dataset data = synth::UniformHypercube(300, 8, 5);
  HnswIndex hnsw(HnswParams{});
  hnsw.Build(data);
  FlatGraphSearcher flat(
      data, hnsw.graph(),
      std::make_unique<seeds::KsRandomSeeds>(data.size(), 7));
  const SearchResult result = flat.Search(data.Row(1), SearchParams{});
  EXPECT_GT(result.stats.distance_computations, 0u);
  EXPECT_GT(result.stats.hops, 0u);
  EXPECT_FALSE(result.neighbors.empty());
}

}  // namespace
}  // namespace gass::methods
