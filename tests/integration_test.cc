// End-to-end pipeline: generate a proxy workload, build several indexes,
// verify the evaluation harness invariants that the benches rely on.

#include <unistd.h>

#include <cstdio>

#include <gtest/gtest.h>

#include "eval/complexity.h"
#include "eval/ground_truth.h"
#include "eval/recall.h"
#include "eval/serial_scan.h"
#include "methods/factory.h"
#include "synth/generators.h"
#include "synth/workloads.h"

namespace gass {
namespace {

using core::Dataset;
using core::VectorId;

TEST(IntegrationTest, ProxyWorkloadEndToEnd) {
  // Hold-out split from a named proxy, as the paper does for SALD/ImageNet.
  Dataset full = synth::MakeDatasetProxy("deep", 620, 42);
  synth::HoldOutSplit split = synth::SplitHoldOut(std::move(full), 20, 43);
  const auto truth = eval::BruteForceKnn(split.base, split.queries, 10, 1);

  for (const char* name : {"hnsw", "vamana", "elpis"}) {
    auto index = methods::CreateIndex(name, 7);
    index->Build(split.base);
    methods::SearchParams params;
    params.k = 10;
    params.beam_width = 120;
    std::vector<std::vector<core::Neighbor>> results;
    std::uint64_t graph_distances = 0;
    for (VectorId q = 0; q < split.queries.size(); ++q) {
      auto result = index->Search(split.queries.Row(q), params);
      graph_distances += result.stats.distance_computations;
      results.push_back(std::move(result.neighbors));
    }
    EXPECT_GE(eval::MeanRecall(results, truth, 10), 0.85) << name;
    // The core value proposition: graph search evaluates fewer distances
    // than a serial scan over the workload. (At this tiny scale a wide
    // beam touches much of the graph, so the margin is modest; the benches
    // show the orders-of-magnitude gap at larger n.)
    EXPECT_LT(graph_distances,
              split.base.size() * split.queries.size())
        << name;
  }
}

TEST(IntegrationTest, ComplexityRanksProxiesLikeFig4) {
  const Dataset easy = synth::MakeDatasetProxy("sift", 500, 1);
  const Dataset hard = synth::MakeDatasetProxy("text2img", 500, 1);
  const auto easy_c = eval::EstimateComplexity(easy, 30, 20, 3, 1);
  const auto hard_c = eval::EstimateComplexity(hard, 30, 20, 3, 1);
  EXPECT_LT(easy_c.mean_lid, hard_c.mean_lid);
  EXPECT_GT(easy_c.mean_lrc, hard_c.mean_lrc);
}

TEST(IntegrationTest, IndexSnapshotRoundTripBitIdentical) {
  // Full-index persistence (docs/PERSISTENCE.md): build, save, reload via
  // the method registry, and require bit-identical SearchResults — ids and
  // float distances — for HNSW, a sealed single-graph method and a
  // composite method.
  const Dataset data = synth::MakeDatasetProxy("deep", 500, 5);
  for (const char* name : {"hnsw", "vamana", "elpis"}) {
    auto original = methods::CreateIndex(name, 9);
    original->Build(data);
    // Process-unique: the forced-scalar ctest variant runs concurrently.
    const std::string path = std::string(::testing::TempDir()) +
                             "/integration_" + std::to_string(::getpid()) +
                             "_" + name + ".gass";
    ASSERT_TRUE(methods::SaveIndex(*original, path).ok()) << name;

    std::unique_ptr<methods::GraphIndex> restored;
    ASSERT_TRUE(methods::LoadAnyIndex(path, data, 9, &restored).ok()) << name;
    EXPECT_EQ(restored->Name(), original->Name());

    methods::SearchParams params;
    params.k = 10;
    params.beam_width = 64;
    for (VectorId q = 0; q < 15; ++q) {
      const auto a = original->Search(data.Row(q * 17), params);
      const auto b = restored->Search(data.Row(q * 17), params);
      ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << name;
      for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
        EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id)
            << name << " query " << q << " rank " << i;
        EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance)
            << name << " query " << q << " rank " << i;
      }
    }
    std::remove(path.c_str());
  }
}

TEST(IntegrationTest, HardQueriesReduceRecall) {
  // The Fig. 15 premise: recall at a fixed beam degrades as query noise
  // grows.
  const Dataset data = synth::MakeDatasetProxy("deep", 600, 11);
  auto index = methods::CreateIndex("hnsw", 13);
  index->Build(data);

  auto recall_for = [&](double variance) {
    const Dataset queries = synth::NoisyQueries(data, 20, variance, 17);
    const auto truth = eval::BruteForceKnn(data, queries, 10, 1);
    methods::SearchParams params;
    params.k = 10;
    params.beam_width = 24;
    std::vector<std::vector<core::Neighbor>> results;
    for (VectorId q = 0; q < queries.size(); ++q) {
      results.push_back(index->Search(queries.Row(q), params).neighbors);
    }
    return eval::MeanRecall(results, truth, 10);
  };
  EXPECT_GE(recall_for(0.0001) + 0.10, recall_for(0.1));
}

}  // namespace
}  // namespace gass
