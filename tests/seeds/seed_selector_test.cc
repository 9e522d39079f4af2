#include "seeds/seed_selector.h"

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "synth/generators.h"

namespace gass::seeds {
namespace {

using core::Dataset;
using core::DistanceComputer;
using core::Graph;
using core::VectorId;

TEST(StrategyNameTest, AllNamed) {
  EXPECT_EQ(StrategyName(Strategy::kSn), "SN");
  EXPECT_EQ(StrategyName(Strategy::kKd), "KD");
  EXPECT_EQ(StrategyName(Strategy::kLsh), "LSH");
  EXPECT_EQ(StrategyName(Strategy::kMd), "MD");
  EXPECT_EQ(StrategyName(Strategy::kSf), "SF");
  EXPECT_EQ(StrategyName(Strategy::kKs), "KS");
  EXPECT_EQ(StrategyName(Strategy::kKm), "KM");
}

TEST(KsRandomSeedsTest, ReturnsValidDistinctIds) {
  const Dataset data = synth::UniformHypercube(100, 4, 1);
  DistanceComputer dc(data);
  KsRandomSeeds selector(100, 7);
  const auto seeds = selector.Select(dc, data.Row(0), 10);
  EXPECT_FALSE(seeds.empty());
  EXPECT_LE(seeds.size(), 10u);
  std::set<VectorId> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), seeds.size());
  for (VectorId id : seeds) EXPECT_LT(id, 100u);
}

TEST(KsRandomSeedsTest, VariesAcrossQueries) {
  const Dataset data = synth::UniformHypercube(1000, 4, 1);
  DistanceComputer dc(data);
  KsRandomSeeds selector(1000, 7);
  const auto a = selector.Select(dc, data.Row(0), 8);
  const auto b = selector.Select(dc, data.Row(0), 8);
  EXPECT_NE(a, b);  // Fresh randomness per query.
}

TEST(FixedNodeSeedsTest, AlwaysSameEntry) {
  const Dataset data = synth::UniformHypercube(50, 4, 1);
  Graph graph(50);
  graph.AddEdge(7, 3);
  graph.AddEdge(7, 9);
  DistanceComputer dc(data);
  FixedNodeSeeds selector(7, graph);
  const auto seeds = selector.Select(dc, data.Row(0), 10);
  ASSERT_GE(seeds.size(), 3u);
  EXPECT_EQ(seeds[0], 7u);
  EXPECT_EQ(seeds[1], 3u);
  EXPECT_EQ(seeds[2], 9u);
  EXPECT_EQ(selector.Select(dc, data.Row(20), 10), seeds);
  EXPECT_EQ(selector.Select(dc, data.Row(20), 2),
            (std::vector<VectorId>{7, 3}));
  EXPECT_EQ(selector.Select(dc, data.Row(20), 0), std::vector<VectorId>{7});
}

TEST(FixedNodeSeedsTest, CopiesTheListSoTheGraphMayGo) {
  const Dataset data = synth::UniformHypercube(50, 4, 1);
  DistanceComputer dc(data);
  std::unique_ptr<FixedNodeSeeds> selector;
  {
    Graph graph(50);
    graph.AddEdge(4, 1);
    const core::FlatGraph sealed = core::FlatGraph::FromGraph(graph);
    selector = std::make_unique<FixedNodeSeeds>(4, sealed);
  }
  EXPECT_EQ(selector->Select(dc, data.Row(0), 10),
            (std::vector<VectorId>{4, 1}));
  EXPECT_EQ(dc.count(), 0u);
}

TEST(MedoidRandomSeedsTest, MedoidThenFreshRandomIds) {
  const Dataset data = synth::UniformHypercube(1000, 4, 1);
  DistanceComputer dc(data);
  MedoidRandomSeeds selector(17, 1000, 5);
  const auto a = selector.Select(dc, data.Row(0), 8);
  const auto b = selector.Select(dc, data.Row(0), 8);
  ASSERT_EQ(a.size(), 8u);
  EXPECT_EQ(a[0], 17u);
  EXPECT_EQ(b[0], 17u);
  EXPECT_NE(a, b);  // Fresh randomness per query.
  for (VectorId id : a) EXPECT_LT(id, 1000u);
  EXPECT_EQ(selector.Select(dc, data.Row(0), 0), std::vector<VectorId>{17});

  // The serial stream is the one a caller's RNG with the same seed gives.
  MedoidRandomSeeds fresh(17, 1000, 5);
  core::Rng rng(5);
  EXPECT_EQ(fresh.Select(dc, data.Row(0), 8, &rng), a);
  EXPECT_EQ(dc.count(), 0u);
}

TEST(VpSeedsTest, NearPointsChargedByTheVisitBudget) {
  const Dataset data = synth::UniformHypercube(300, 4, 1);
  auto tree = std::make_shared<const trees::VpTree>(
      trees::VpTree::Build(data, 3));
  DistanceComputer dc(data);
  VpSeeds selector(tree, &data, 64);
  const auto seeds = selector.Select(dc, data.Row(5), 4);
  ASSERT_FALSE(seeds.empty());
  EXPECT_LE(seeds.size(), 4u);
  EXPECT_EQ(dc.count(), 64u);
  EXPECT_EQ(selector.MemoryBytes(), tree->MemoryBytes());

  // The charge is capped by the dataset size.
  VpSeeds wide(tree, &data, 1000);
  DistanceComputer wide_dc(data);
  wide.Select(wide_dc, data.Row(5), 4);
  EXPECT_EQ(wide_dc.count(), 300u);
}

TEST(ComputeMedoidTest, FindsCentralPoint) {
  // Points on a line: 0, 1, 2, ..., 10 -> mean 5 -> medoid id 5.
  Dataset data(11, 1);
  for (VectorId i = 0; i < 11; ++i) {
    data.MutableRow(i)[0] = static_cast<float>(i);
  }
  EXPECT_EQ(ComputeMedoid(data), 5u);
}

TEST(KdSeedsTest, ReturnsCandidatesNearQuery) {
  const Dataset data = synth::UniformHypercube(300, 8, 3);
  DistanceComputer dc(data);
  auto forest = std::make_shared<trees::KdForest>(
      trees::KdForest::Build(data, 3, trees::KdTreeParams{}, 5));
  KdSeeds selector(forest, &data);
  const auto seeds = selector.Select(dc, data.Row(12), 32);
  EXPECT_FALSE(seeds.empty());
  EXPECT_NE(std::find(seeds.begin(), seeds.end(), 12u), seeds.end());
  EXPECT_GT(selector.MemoryBytes(), 0u);
}

TEST(KmSeedsTest, ReturnsCandidates) {
  const Dataset data = synth::UniformHypercube(300, 8, 3);
  DistanceComputer dc(data);
  auto tree = std::make_shared<trees::BkMeansTree>(
      trees::BkMeansTree::Build(data, trees::BkTreeParams{}, 5));
  KmSeeds selector(tree, &data);
  const auto seeds = selector.Select(dc, data.Row(0), 16);
  EXPECT_FALSE(seeds.empty());
  EXPECT_LE(seeds.size(), 16u);
}

TEST(LshSeedsTest, FallsBackWhenBucketsEmpty) {
  const Dataset data = synth::UniformHypercube(100, 8, 3);
  DistanceComputer dc(data);
  auto index = std::make_shared<hash::LshIndex>(
      hash::LshIndex::Build(data, hash::LshParams{}, 5));
  LshSeeds selector(index, data.size(), 42);
  // A far-away query may hit no bucket; random top-up must kick in.
  std::vector<float> far(8, 1e6f);
  const auto seeds = selector.Select(dc, far.data(), 8);
  ASSERT_EQ(seeds.size(), 8u);
  for (core::VectorId id : seeds) EXPECT_LT(id, data.size());
}

TEST(StackedNswLayersTest, DescendFindsNearbyNode) {
  synth::ClusterParams cluster_params;
  const Dataset data = synth::GaussianClusters(600, 16, cluster_params, 7);
  DistanceComputer build_dc(data);
  StackedNswLayers::Params params;
  const StackedNswLayers layers =
      StackedNswLayers::Build(data, params, 9, &build_dc);
  EXPECT_GE(layers.num_layers(), 1u);
  EXPECT_GT(build_dc.count(), 0u);

  DistanceComputer dc(data);
  // The descent lands closer to the query than a random node on average.
  double descend_total = 0.0, random_total = 0.0;
  core::Rng rng(3);
  for (VectorId q = 0; q < 30; ++q) {
    const VectorId found = layers.Descend(dc, data.Row(q));
    descend_total += dc.ToQuery(data.Row(q), found);
    random_total += dc.ToQuery(
        data.Row(q), static_cast<VectorId>(rng.UniformInt(data.size())));
  }
  EXPECT_LT(descend_total, random_total);
}

TEST(SnSeedsTest, ProducesEntryPlusNeighborhood) {
  const Dataset data = synth::UniformHypercube(400, 8, 3);
  DistanceComputer build_dc(data);
  auto layers = std::make_shared<StackedNswLayers>(StackedNswLayers::Build(
      data, StackedNswLayers::Params{}, 13, &build_dc));
  SnSeeds selector(layers);
  DistanceComputer dc(data);
  const auto seeds = selector.Select(dc, data.Row(5), 8);
  ASSERT_FALSE(seeds.empty());
  EXPECT_LE(seeds.size(), 8u);
  EXPECT_GT(dc.count(), 0u);  // The descent costs distance computations.
}

}  // namespace
}  // namespace gass::seeds
