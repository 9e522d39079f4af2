// Partitioner contract tests (see shard/partitioner.h): every strategy is
// deterministic in (data, params, seed), produces disjoint shards covering
// every row, reports member-mean centroids, and honors its own balance
// guarantee (equal chunks for contiguous/random, the slack-capped capacity
// for balanced k-means).

#include "shard/partitioner.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/dataset.h"

namespace gass::shard {
namespace {

using core::Dataset;
using core::VectorId;

constexpr std::size_t kN = 500;
constexpr std::size_t kDim = 12;

PartitionerParams MakeParams(PartitionerKind kind, std::size_t num_shards) {
  PartitionerParams params;
  params.kind = kind;
  params.num_shards = num_shards;
  params.kmeans_sample = 256;
  params.kmeans_iters = 5;
  return params;
}

std::size_t CeilDiv(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Disjointness + exhaustiveness: assignment and shard_ids must agree, every
/// row must appear in exactly one shard, and each shard's id list must be
/// ascending (shard-local id order).
void ExpectValidPartitioning(const Partitioning& p, std::size_t n,
                             std::size_t k) {
  ASSERT_EQ(p.assignment.size(), n);
  ASSERT_EQ(p.num_shards(), k);
  std::vector<int> seen(n, 0);
  for (std::size_t s = 0; s < k; ++s) {
    VectorId prev = 0;
    bool first = true;
    for (const VectorId id : p.shard_ids[s]) {
      ASSERT_LT(id, n);
      EXPECT_EQ(p.assignment[id], s);
      if (!first) {
        EXPECT_LT(prev, id) << "shard id list not ascending";
      }
      prev = id;
      first = false;
      ++seen[id];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(seen[i], 1) << "row " << i << " not in exactly one shard";
  }
}

TEST(PartitionerKindTest, NamesRoundTrip) {
  for (const PartitionerKind kind :
       {PartitionerKind::kContiguous, PartitionerKind::kRandom,
        PartitionerKind::kKMeans}) {
    PartitionerKind parsed;
    ASSERT_TRUE(ParsePartitionerKind(PartitionerKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  PartitionerKind parsed;
  EXPECT_FALSE(ParsePartitionerKind("voronoi", &parsed));
  EXPECT_FALSE(ParsePartitionerKind("", &parsed));
}

class PartitionerTest : public ::testing::TestWithParam<PartitionerKind> {};

TEST_P(PartitionerTest, DisjointAndExhaustive) {
  const Dataset data = testing::SmallClustered(kN, kDim, 11);
  const Partitioning p = Partition(data, MakeParams(GetParam(), 4), 7);
  ExpectValidPartitioning(p, kN, 4);
}

TEST_P(PartitionerTest, DeterministicInSeed) {
  const Dataset data = testing::SmallClustered(kN, kDim, 11);
  const PartitionerParams params = MakeParams(GetParam(), 4);
  const Partitioning a = Partition(data, params, 7);
  const Partitioning b = Partition(data, params, 7);
  EXPECT_EQ(a.assignment, b.assignment);
  ASSERT_EQ(a.centroids.size(), b.centroids.size());
  EXPECT_EQ(0, std::memcmp(a.centroids.data(), b.centroids.data(),
                           a.centroids.SizeBytes()));
}

TEST_P(PartitionerTest, CentroidsAreMemberMeans) {
  const Dataset data = testing::SmallClustered(kN, kDim, 11);
  const Partitioning p = Partition(data, MakeParams(GetParam(), 4), 7);
  const Dataset recomputed = ComputeCentroids(data, p.shard_ids);
  ASSERT_EQ(recomputed.size(), p.centroids.size());
  ASSERT_EQ(recomputed.dim(), p.centroids.dim());
  EXPECT_EQ(0, std::memcmp(recomputed.data(), p.centroids.data(),
                           p.centroids.SizeBytes()));
}

TEST_P(PartitionerTest, SingleShardOwnsEverything) {
  const Dataset data = testing::SmallClustered(60, kDim, 3);
  const Partitioning p = Partition(data, MakeParams(GetParam(), 1), 7);
  ExpectValidPartitioning(p, 60, 1);
  EXPECT_EQ(p.shard_ids[0].size(), 60u);
  // With K=1 the single shard's ascending id list is the identity order.
  for (std::size_t i = 0; i < 60; ++i) EXPECT_EQ(p.shard_ids[0][i], i);
  // It is assigned outright: no shuffle, no Lloyd iterations.
  EXPECT_EQ(p.distance_computations, 0u);
}

TEST_P(PartitionerTest, ShardViewIsZeroCopy) {
  const Dataset data = testing::SmallClustered(kN, kDim, 11);
  const Partitioning p = Partition(data, MakeParams(GetParam(), 4), 7);
  for (std::size_t s = 0; s < p.num_shards(); ++s) {
    const core::DatasetView view = p.ShardView(data, s);
    ASSERT_EQ(view.size(), p.shard_ids[s].size());
    for (std::size_t i = 0; i < view.size(); ++i) {
      // Pointer equality, not value equality: the view must alias the base
      // buffer, never copy.
      EXPECT_EQ(view.Row(i), data.Row(p.shard_ids[s][i]));
      EXPECT_EQ(view.GlobalId(i), p.shard_ids[s][i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PartitionerTest,
                         ::testing::Values(PartitionerKind::kContiguous,
                                           PartitionerKind::kRandom,
                                           PartitionerKind::kKMeans),
                         [](const auto& info) {
                           return PartitionerKindName(info.param);
                         });

TEST(ContiguousPartitionerTest, SplitsIntoLeadingChunks) {
  const Dataset data = testing::SmallClustered(kN, kDim, 11);
  const Partitioning p =
      Partition(data, MakeParams(PartitionerKind::kContiguous, 4), 7);
  const std::size_t chunk = CeilDiv(kN, 4);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(p.assignment[i], i / chunk);
  }
}

TEST(RandomPartitionerTest, PerfectlyBalanced) {
  const Dataset data = testing::SmallClustered(kN, kDim, 11);
  const Partitioning p =
      Partition(data, MakeParams(PartitionerKind::kRandom, 4), 7);
  const std::size_t chunk = CeilDiv(kN, 4);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_LE(p.shard_ids[s].size(), chunk);
    EXPECT_GE(p.shard_ids[s].size(), kN / 4 == chunk ? chunk : chunk - 1);
  }
}

TEST(RandomPartitionerTest, SeedChangesShuffle) {
  const Dataset data = testing::SmallClustered(kN, kDim, 11);
  const PartitionerParams params = MakeParams(PartitionerKind::kRandom, 4);
  const Partitioning a = Partition(data, params, 7);
  const Partitioning b = Partition(data, params, 8);
  EXPECT_NE(a.assignment, b.assignment);
}

TEST(KMeansPartitionerTest, RespectsCapacityBound) {
  const Dataset data = testing::SmallClustered(kN, kDim, 11);
  PartitionerParams params = MakeParams(PartitionerKind::kKMeans, 4);
  params.balance_slack = 0.25;
  const Partitioning p = Partition(data, params, 7);
  const std::size_t even = CeilDiv(kN, 4);
  const std::size_t capacity = std::max(
      even, static_cast<std::size_t>(
                static_cast<double>(even) * (1.0 + params.balance_slack) +
                0.999999));
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_LE(p.shard_ids[s].size(), capacity);
  }
}

TEST(KMeansPartitionerTest, ZeroSlackForcesExactBalance) {
  const Dataset data = testing::SmallClustered(kN, kDim, 11);
  PartitionerParams params = MakeParams(PartitionerKind::kKMeans, 4);
  params.balance_slack = 0.0;
  const Partitioning p = Partition(data, params, 7);
  ExpectValidPartitioning(p, kN, 4);
  const std::size_t capacity = CeilDiv(kN, 4);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_LE(p.shard_ids[s].size(), capacity);
  }
}

TEST(KMeansPartitionerTest, GroupsClusteredDataBetterThanRandom) {
  // On well-separated clusters a balanced k-means partition should place
  // most rows strictly closer to their own shard centroid than random
  // dealing does — that locality is the entire point of centroid routing.
  const Dataset data = testing::SmallClustered(kN, kDim, 11);
  const auto own_centroid_fraction = [&](const Partitioning& p) {
    std::size_t own = 0;
    for (std::size_t i = 0; i < kN; ++i) {
      const std::uint32_t s = p.assignment[i];
      float best = 0;
      std::uint32_t best_s = 0;
      for (std::size_t c = 0; c < p.num_shards(); ++c) {
        float d = 0;
        for (std::size_t j = 0; j < kDim; ++j) {
          const float diff = data.Row(i)[j] -
                             p.centroids.Row(static_cast<VectorId>(c))[j];
          d += diff * diff;
        }
        if (c == 0 || d < best) {
          best = d;
          best_s = static_cast<std::uint32_t>(c);
        }
      }
      if (best_s == s) ++own;
    }
    return static_cast<double>(own) / static_cast<double>(kN);
  };
  const Partitioning kmeans =
      Partition(data, MakeParams(PartitionerKind::kKMeans, 4), 7);
  const Partitioning random =
      Partition(data, MakeParams(PartitionerKind::kRandom, 4), 7);
  EXPECT_GT(own_centroid_fraction(kmeans), own_centroid_fraction(random));
  EXPECT_GT(own_centroid_fraction(kmeans), 0.5);
}

TEST(KMeansPartitionerTest, CountsDistanceComputations) {
  const Dataset data = testing::SmallClustered(kN, kDim, 11);
  const Partitioning p =
      Partition(data, MakeParams(PartitionerKind::kKMeans, 4), 7);
  EXPECT_GT(p.distance_computations, 0u);
}

}  // namespace
}  // namespace gass::shard
