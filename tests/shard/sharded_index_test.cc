// ShardedIndex behavior contract (see shard/sharded_index.h):
//   - K=1 + contiguous partitioner is bit-identical (ids AND distances) to
//     the unsharded index built with the same seed;
//   - nprobe=K equals a brute-force merge of every shard's own top-k;
//   - a deadline expiring mid-fan-out yields SearchResult::expired with
//     only valid, correctly-priced ids — never garbage;
//   - parallel and hedged fan-out return exactly what caller-thread
//     fan-out returns, work counters included;
//   - probe counters and EffectiveNprobe clamping;
//   - a pinned K=3, R=2 build: its snapshot files, footprint and build
//     distances.

#include "shard/sharded_index.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/deadline.h"
#include "core/distance.h"
#include "io/hash.h"
#include "methods/factory.h"

namespace gass::shard {
namespace {

using core::Dataset;
using core::VectorId;

constexpr std::size_t kN = 600;
constexpr std::size_t kDim = 24;
constexpr std::uint64_t kSeed = 42;

ShardedIndexOptions MakeOptions(const std::string& method, std::size_t k,
                                PartitionerKind kind) {
  ShardedIndexOptions options;
  options.method = method;
  options.partitioner.kind = kind;
  options.partitioner.num_shards = k;
  options.partitioner.kmeans_sample = 256;
  options.partitioner.kmeans_iters = 5;
  options.seed = kSeed;
  return options;
}

methods::SearchParams MakeParams(std::size_t k = 10,
                                 std::size_t beam = 48) {
  methods::SearchParams params;
  params.k = k;
  params.beam_width = beam;
  return params;
}

void ExpectSameNeighbors(const methods::SearchResult& a,
                         const methods::SearchResult& b) {
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
  for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << "rank " << i;
    // Exact equality, not FLOAT_EQ: the contract is bit-identity.
    EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance) << "rank " << i;
  }
}

TEST(ShardedIndexTest, NameAndProperties) {
  ShardedIndex index(MakeOptions("hnsw", 3, PartitionerKind::kKMeans));
  EXPECT_EQ(index.Name(), "SHARDED:HNSW");
  EXPECT_TRUE(index.SupportsConcurrentSearch());
  EXPECT_FALSE(index.HasBaseGraph());
}

TEST(ShardedIndexTest, SubIndexSeedZeroIsBaseSeed) {
  EXPECT_EQ(ShardedIndex::SubIndexSeed(kSeed, 0), kSeed);
  EXPECT_NE(ShardedIndex::SubIndexSeed(kSeed, 1), kSeed);
  EXPECT_NE(ShardedIndex::SubIndexSeed(kSeed, 1),
            ShardedIndex::SubIndexSeed(kSeed, 2));
}

TEST(ShardedIndexTest, FingerprintCoversConstructionKnobs) {
  const auto base = MakeOptions("hnsw", 3, PartitionerKind::kKMeans);
  const std::uint64_t fp = ShardedIndex(base).ParamsFingerprint();
  EXPECT_EQ(fp, ShardedIndex(base).ParamsFingerprint());  // Stable.
  auto other = base;
  other.partitioner.num_shards = 4;
  EXPECT_NE(fp, ShardedIndex(other).ParamsFingerprint());
  other = base;
  other.seed = kSeed + 1;
  EXPECT_NE(fp, ShardedIndex(other).ParamsFingerprint());
  other = base;
  other.method = "vamana";
  EXPECT_NE(fp, ShardedIndex(other).ParamsFingerprint());
  // nprobe is a query-time knob and must NOT change the fingerprint.
  other = base;
  other.nprobe = 2;
  EXPECT_EQ(fp, ShardedIndex(other).ParamsFingerprint());
}

TEST(ShardedIndexTest, SingleShardContiguousBitIdenticalToUnsharded) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  const Dataset queries = gass::testing::UniformQueries(20, kDim, 0.0f, 28.0f, 6);

  auto unsharded = methods::CreateIndex("hnsw", kSeed);
  unsharded->Build(data);

  ShardedIndex sharded(MakeOptions("hnsw", 1, PartitionerKind::kContiguous));
  sharded.Build(data);
  ASSERT_EQ(sharded.num_shards(), 1u);

  const methods::SearchParams params = MakeParams();
  for (VectorId q = 0; q < queries.size(); ++q) {
    methods::SearchContext uctx = unsharded->MakeSearchContext(7);
    methods::SearchContext sctx = sharded.MakeSearchContext(7);
    const auto expected = static_cast<const methods::GraphIndex&>(*unsharded)
                              .Search(queries.Row(q), params, &uctx);
    const auto got = static_cast<const ShardedIndex&>(sharded).Search(
        queries.Row(q), params, &sctx);
    ExpectSameNeighbors(expected, got);
    EXPECT_EQ(got.stats.shards_probed, 1u);
    EXPECT_FALSE(got.expired);
  }
}

TEST(ShardedIndexTest, ProbeAllMatchesBruteForceMergeOfShards) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  const Dataset queries = gass::testing::UniformQueries(15, kDim, 0.0f, 28.0f, 6);

  ShardedIndex sharded(MakeOptions("hnsw", 4, PartitionerKind::kKMeans));
  sharded.Build(data);
  ASSERT_EQ(sharded.num_shards(), 4u);
  EXPECT_EQ(sharded.EffectiveNprobe(), 4u);  // nprobe 0 = all shards.

  const methods::SearchParams params = MakeParams();
  for (VectorId q = 0; q < queries.size(); ++q) {
    // Brute force: search every shard directly, lift local ids to global,
    // merge by (distance, id), truncate to k.
    std::vector<core::Neighbor> merged;
    for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
      methods::SearchContext ctx = sharded.shard(s).MakeSearchContext(7);
      const auto sub = sharded.shard(s).Search(queries.Row(q), params, &ctx);
      for (const core::Neighbor& nb : sub.neighbors) {
        merged.emplace_back(sharded.partitioning().shard_ids[s][nb.id],
                            nb.distance);
      }
    }
    std::sort(merged.begin(), merged.end());
    if (merged.size() > params.k) merged.resize(params.k);

    methods::SearchContext sctx = sharded.MakeSearchContext(7);
    const auto got = static_cast<const ShardedIndex&>(sharded).Search(
        queries.Row(q), params, &sctx);
    EXPECT_EQ(got.stats.shards_probed, 4u);
    ASSERT_EQ(got.neighbors.size(), merged.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(got.neighbors[i].id, merged[i].id) << "rank " << i;
      EXPECT_EQ(got.neighbors[i].distance, merged[i].distance) << "rank " << i;
    }
  }
}

TEST(ShardedIndexTest, EffectiveNprobeClampsAndAdjusts) {
  const Dataset data = gass::testing::SmallClustered(200, kDim, 5);
  auto options = MakeOptions("hnsw", 4, PartitionerKind::kKMeans);
  options.nprobe = 99;
  ShardedIndex sharded(options);
  sharded.Build(data);
  EXPECT_EQ(sharded.EffectiveNprobe(), 4u);  // Clamped to K.
  sharded.SetNprobe(2);
  EXPECT_EQ(sharded.EffectiveNprobe(), 2u);
  sharded.SetNprobe(0);
  EXPECT_EQ(sharded.EffectiveNprobe(), 4u);  // 0 = all.

  sharded.SetNprobe(2);
  methods::SearchContext ctx = sharded.MakeSearchContext(7);
  const auto result = static_cast<const ShardedIndex&>(sharded).Search(
      data.Row(0), MakeParams(), &ctx);
  EXPECT_EQ(result.stats.shards_probed, 2u);
  // Probing fewer shards than K by *choice* is not an expiry.
  EXPECT_FALSE(result.expired);
  EXPECT_EQ(result.stats.deadline_expiries, 0u);
}

TEST(ShardedIndexTest, ExpiredDeadlineSkipsAllProbesWithoutGarbage) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  ShardedIndex sharded(MakeOptions("hnsw", 4, PartitionerKind::kKMeans));
  sharded.Build(data);

  const core::Deadline dead = core::Deadline::Expired();
  methods::SearchParams params = MakeParams();
  params.deadline = &dead;
  methods::SearchContext ctx = sharded.MakeSearchContext(7);
  const auto result = static_cast<const ShardedIndex&>(sharded).Search(
      data.Row(0), params, &ctx);
  EXPECT_TRUE(result.expired);
  EXPECT_EQ(result.stats.deadline_expiries, 1u);
  EXPECT_EQ(result.stats.shards_probed, 0u);
  EXPECT_TRUE(result.neighbors.empty());
}

TEST(ShardedIndexTest, DeadlineMidFanoutNeverReturnsGarbageIds) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  const Dataset queries = gass::testing::UniformQueries(10, kDim, 0.0f, 28.0f, 6);
  // Parallel fan-out so expiry can land between concurrent probes.
  auto options = MakeOptions("hnsw", 4, PartitionerKind::kKMeans);
  options.fanout_threads = 3;
  ShardedIndex sharded(options);
  sharded.Build(data);

  // Sweep budgets from "already gone" to "comfortable": wherever the
  // deadline actually lands, every returned id must be a real global id
  // with its true distance, and the expired flag must match the stats.
  for (const double budget : {0.0, 1e-6, 5e-6, 5e-5, 1e-3, 10.0}) {
    for (VectorId q = 0; q < queries.size(); ++q) {
      const core::Deadline deadline = core::Deadline::After(budget);
      methods::SearchParams params = MakeParams();
      params.deadline = &deadline;
      methods::SearchContext ctx = sharded.MakeSearchContext(7);
      const auto result = static_cast<const ShardedIndex&>(sharded).Search(
          queries.Row(q), params, &ctx);

      EXPECT_LE(result.neighbors.size(), params.k);
      std::set<VectorId> ids;
      for (const core::Neighbor& nb : result.neighbors) {
        ASSERT_LT(nb.id, data.size());
        EXPECT_TRUE(ids.insert(nb.id).second) << "duplicate id " << nb.id;
        EXPECT_EQ(nb.distance,
                  core::L2Sq(queries.Row(q), data.Row(nb.id), kDim));
      }
      EXPECT_EQ(result.expired, result.stats.deadline_expiries == 1u);
      if (result.stats.shards_probed < sharded.EffectiveNprobe()) {
        EXPECT_TRUE(result.expired);
      }
    }
  }
}

TEST(ShardedIndexTest, ParallelFanoutMatchesCallerThreadFanout) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  const Dataset queries = gass::testing::UniformQueries(15, kDim, 0.0f, 28.0f, 6);

  // vamana consumes the context RNG for stochastic seed selection, so this
  // also proves the per-probe RNG streams are identical across fan-out
  // modes (one query_seed draw, fanned by rank).
  // The hedged variant runs every probe on the pool under a generous
  // deadline (its backup delay, 5 s, never elapses).
  auto serial_options = MakeOptions("vamana", 4, PartitionerKind::kKMeans);
  auto parallel_options = serial_options;
  parallel_options.fanout_threads = 3;
  auto hedged_options = parallel_options;
  hedged_options.hedge_fraction = 0.5;

  ShardedIndex serial(serial_options);
  serial.Build(data);
  ShardedIndex parallel(parallel_options);
  parallel.Build(data);
  ShardedIndex hedged(hedged_options);
  hedged.Build(data);

  const methods::SearchParams params = MakeParams();
  for (VectorId q = 0; q < queries.size(); ++q) {
    methods::SearchContext sctx = serial.MakeSearchContext(7);
    const auto a = static_cast<const ShardedIndex&>(serial).Search(
        queries.Row(q), params, &sctx);
    for (const ShardedIndex* index : {&parallel, &hedged}) {
      const core::Deadline deadline = core::Deadline::After(10.0);
      methods::SearchParams index_params = params;
      if (index == &hedged) index_params.deadline = &deadline;
      methods::SearchContext ctx = index->MakeSearchContext(7);
      const auto b = index->Search(queries.Row(q), index_params, &ctx);
      ExpectSameNeighbors(a, b);
      EXPECT_EQ(a.stats.distance_computations, b.stats.distance_computations);
      EXPECT_EQ(a.stats.hops, b.stats.hops);
      EXPECT_EQ(b.stats.shards_hedged, 0u);
    }
  }
}

TEST(ShardedIndexTest, ProbeCountersTallyDispatches) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  auto options = MakeOptions("hnsw", 4, PartitionerKind::kKMeans);
  options.nprobe = 2;
  ShardedIndex sharded(options);
  sharded.Build(data);

  const std::size_t kQueries = 12;
  for (VectorId q = 0; q < kQueries; ++q) {
    // Two-argument mutable Search exercises the serial context path.
    sharded.Search(data.Row(q), MakeParams());
  }
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    total += sharded.probe_count(s);
  }
  EXPECT_EQ(total, kQueries * 2u);
}

TEST(ShardedIndexTest, ConcurrentSearchesMatchSerialResults) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  const Dataset queries = gass::testing::UniformQueries(16, kDim, 0.0f, 28.0f, 6);
  auto options = MakeOptions("hnsw", 4, PartitionerKind::kKMeans);
  options.fanout_threads = 2;
  ShardedIndex sharded(options);
  sharded.Build(data);
  const methods::SearchParams params = MakeParams();

  std::vector<methods::SearchResult> expected(queries.size());
  for (VectorId q = 0; q < queries.size(); ++q) {
    methods::SearchContext ctx = sharded.MakeSearchContext(7);
    expected[q] = static_cast<const ShardedIndex&>(sharded).Search(
        queries.Row(q), params, &ctx);
  }

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<methods::SearchResult>> got(
      kThreads, std::vector<methods::SearchResult>(queries.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      methods::SearchContext ctx = sharded.MakeSearchContext(7);
      for (VectorId q = 0; q < queries.size(); ++q) {
        got[t][q] = static_cast<const ShardedIndex&>(sharded).Search(
            queries.Row(q), params, &ctx);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (VectorId q = 0; q < queries.size(); ++q) {
      ExpectSameNeighbors(expected[q], got[t][q]);
    }
  }
}

TEST(ShardedIndexTest, BuildStatsAccountForShardsAndRouting) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  ShardedIndex sharded(MakeOptions("hnsw", 4, PartitionerKind::kKMeans));
  const methods::BuildStats stats = sharded.Build(data);
  EXPECT_GT(stats.distance_computations, 0u);
  EXPECT_GT(stats.index_bytes, 0u);
  EXPECT_EQ(stats.index_bytes, sharded.IndexBytes());
  EXPECT_GT(stats.elapsed_seconds, 0.0);
  // Shards cover the dataset.
  std::size_t total = 0;
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    total += sharded.shard_size(s);
  }
  EXPECT_EQ(total, data.size());
  // The build-time breakdown covers every shard; the parallel critical
  // path (partition + slowest shard) can never exceed the measured total.
  EXPECT_GE(sharded.partition_seconds(), 0.0);
  ASSERT_EQ(sharded.shard_build_seconds().size(), sharded.num_shards());
  double slowest = 0.0;
  for (const double seconds : sharded.shard_build_seconds()) {
    EXPECT_GT(seconds, 0.0);
    slowest = std::max(slowest, seconds);
  }
  EXPECT_LE(sharded.partition_seconds() + slowest, stats.elapsed_seconds);
}

// Pinned outputs of one K=3, R=2 k-means build: the XXH64 of the snapshot
// file SaveIndex writes and of every shard's own serialized image, the
// footprint, and the build distances (partitioning included). A change that
// alters how shards are partitioned, built, copied to replicas or saved
// moves one of them. Distances are bit-identical across SIMD levels, so the
// pins hold under forced-scalar kernels too.
constexpr std::uint64_t kPinnedSnapshotHash = 0x2d5cd79e2968c02fULL;
constexpr std::uint64_t kPinnedShardHashes[] = {
    0x5765f8a2d379be9dULL, 0x76d7c13699a1e83cULL, 0x4fc5314b37cd44cdULL};
constexpr std::size_t kPinnedIndexBytes = 34936;
constexpr std::uint64_t kPinnedBuildDistances = 148761;

std::uint64_t FileHash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes.empty()) << path;
  return io::Hash64(bytes.data(), bytes.size());
}

TEST(ShardedIndexTest, SnapshotMatchesPinnedHashes) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  ShardedIndexOptions options =
      MakeOptions("hnsw", 3, PartitionerKind::kKMeans);
  options.replicas = 2;
  ShardedIndex sharded(options);
  const methods::BuildStats stats = sharded.Build(data);
  EXPECT_EQ(stats.distance_computations, kPinnedBuildDistances);
  EXPECT_EQ(sharded.IndexBytes(), kPinnedIndexBytes);

  // Process-unique: the forced-scalar ctest variant runs concurrently.
  const std::string path = std::string(::testing::TempDir()) +
                           "/sharded_pin_" + std::to_string(::getpid()) +
                           ".gass";
  ASSERT_TRUE(methods::SaveIndex(sharded, path).ok());
  EXPECT_EQ(FileHash(path), kPinnedSnapshotHash);
  std::remove(path.c_str());
  for (std::size_t s = 0; s < 3; ++s) {
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(methods::SerializeIndex(sharded.shard(s), &bytes).ok());
    EXPECT_EQ(io::Hash64(bytes.data(), bytes.size()), kPinnedShardHashes[s])
        << "shard " << s;
  }
}

}  // namespace
}  // namespace gass::shard
