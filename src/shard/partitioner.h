// Dataset partitioners for the sharded index (src/shard/).
//
// A partitioner splits the n rows of a Dataset into K disjoint shards and
// reports one routing centroid per shard (the mean of the shard's members).
// Three strategies are provided, all deterministic in (data, params, seed):
//
//   kContiguous  rows [s*ceil(n/K), ...) go to shard s. The degenerate but
//                important baseline: with K=1 it reproduces the unsharded
//                index bit-for-bit, and for pre-clustered ingest orders it
//                is free.
//   kRandom      a seeded shuffle dealt into equal chunks. Perfectly
//                balanced, deliberately locality-free — the stress case for
//                routing (every query must probe widely).
//   kKMeans      balanced k-means over a sampled subset: Lloyd iterations
//                on at most `kmeans_sample` sampled rows pick K centroids,
//                then every row is assigned to its nearest centroid that
//                still has capacity (ceil(n/K) * (1 + balance_slack)).
//                This is the Faiss-style IVF partitioning that makes
//                centroid routing effective: nearby vectors land in the
//                same shard, so a few probes recover almost all of recall.
//
// Partitioners read the data through core::DatasetView — ids plus shared
// storage — and never copy base vectors; the only copies made here are the
// K centroid rows. See docs/SHARDING.md.

#ifndef GASS_SHARD_PARTITIONER_H_
#define GASS_SHARD_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/status.h"
#include "core/types.h"

namespace gass::shard {

enum class PartitionerKind : std::uint8_t {
  kContiguous = 0,
  kRandom = 1,
  kKMeans = 2,
};

/// Lowercase label ("contiguous", "random", "kmeans").
const char* PartitionerKindName(PartitionerKind kind);

/// Inverse of PartitionerKindName; returns false on an unknown label.
bool ParsePartitionerKind(const std::string& name, PartitionerKind* out);

struct PartitionerParams {
  PartitionerKind kind = PartitionerKind::kKMeans;
  std::size_t num_shards = 4;
  /// Rows sampled for the Lloyd iterations (capped at n). Sampling keeps
  /// k-means O(sample * K * iters) instead of O(n * K * iters).
  std::size_t kmeans_sample = 16384;
  std::size_t kmeans_iters = 10;
  /// Per-shard capacity headroom over the perfectly even ceil(n/K):
  /// capacity = ceil(ceil(n/K) * (1 + balance_slack)). 0 forces exact
  /// balance (round-robin overflow), larger values trade balance for
  /// cluster purity.
  double balance_slack = 0.25;
};

/// The result of partitioning one dataset: disjoint, exhaustive shards.
struct Partitioning {
  /// assignment[id] = shard owning global row `id`; size n.
  std::vector<std::uint32_t> assignment;
  /// shard_ids[s] = global ids owned by shard s, ascending; the position of
  /// an id in this list is its shard-local id.
  std::vector<std::vector<core::VectorId>> shard_ids;
  /// K routing centroids: row s is the mean of shard s's members (zero for
  /// an empty shard).
  core::Dataset centroids;
  /// Distances evaluated while partitioning (for BuildStats accounting).
  std::uint64_t distance_computations = 0;

  std::size_t num_shards() const { return shard_ids.size(); }

  /// Zero-copy view of shard `s`'s rows inside `base` (which must be the
  /// dataset this partitioning was computed over).
  core::DatasetView ShardView(const core::Dataset& base, std::size_t s) const;
};

/// Partitions `data` into `params.num_shards` shards. Deterministic in
/// (data, params, seed); shards are disjoint and cover every row. num_shards
/// must be >= 1 and <= data.size() (unless the dataset is empty).
Partitioning Partition(const core::Dataset& data,
                       const PartitionerParams& params, std::uint64_t seed);

/// Recomputes the member-mean centroids for a given assignment — used by
/// the snapshot loader to cross-validate a snapshot's stored centroids.
core::Dataset ComputeCentroids(const core::Dataset& data,
                               const std::vector<std::vector<core::VectorId>>&
                                   shard_ids);

}  // namespace gass::shard

#endif  // GASS_SHARD_PARTITIONER_H_
