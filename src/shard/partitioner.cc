#include "shard/partitioner.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/distance.h"
#include "core/macros.h"
#include "core/rng.h"

namespace gass::shard {

namespace {

using core::Dataset;
using core::DatasetView;
using core::VectorId;

/// ceil(n / k) for k > 0.
std::size_t CeilDiv(std::size_t n, std::size_t k) { return (n + k - 1) / k; }

void AssignContiguous(std::size_t n, std::size_t num_shards,
                      std::vector<std::uint32_t>* assignment) {
  const std::size_t chunk = CeilDiv(n, num_shards);
  for (std::size_t i = 0; i < n; ++i) {
    (*assignment)[i] = static_cast<std::uint32_t>(i / chunk);
  }
}

void AssignRandom(std::size_t n, std::size_t num_shards, std::uint64_t seed,
                  std::vector<std::uint32_t>* assignment) {
  // Seeded Fisher-Yates shuffle dealt into equal contiguous chunks: shard
  // sizes differ by at most one, membership is uniform.
  std::vector<VectorId> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<VectorId>(i);
  core::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.UniformInt(i));
    std::swap(order[i - 1], order[j]);
  }
  const std::size_t chunk = CeilDiv(n, num_shards);
  for (std::size_t pos = 0; pos < n; ++pos) {
    (*assignment)[order[pos]] = static_cast<std::uint32_t>(pos / chunk);
  }
}

/// Samples `count` distinct row ids (ascending) via a partial Fisher-Yates
/// over the id range.
std::vector<VectorId> SampleIds(std::size_t n, std::size_t count,
                                core::Rng* rng) {
  std::vector<VectorId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<VectorId>(i);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng->UniformInt(n - i));
    std::swap(ids[i], ids[j]);
  }
  ids.resize(count);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Lloyd iterations over a zero-copy sample view; returns K centroid rows.
/// Centers are seeded k-means++-lite: the first is a random sample row, each
/// next is the sampled row farthest from its nearest chosen center
/// (deterministic, no weighted draw needed at this fidelity).
Dataset LloydOverSample(const DatasetView& sample, std::size_t k,
                        std::size_t iters, core::Rng* rng,
                        std::uint64_t* dist_count) {
  const std::size_t m = sample.size();
  const std::size_t dim = sample.dim();
  GASS_CHECK(m >= k && k > 0);

  Dataset centers(k, dim);
  std::vector<float> nearest(m, std::numeric_limits<float>::max());
  std::size_t first = static_cast<std::size_t>(rng->UniformInt(m));
  std::memcpy(centers.MutableRow(0), sample.Row(first), dim * sizeof(float));
  for (std::size_t c = 1; c < k; ++c) {
    std::size_t farthest = 0;
    float farthest_dist = -1.0f;
    for (std::size_t i = 0; i < m; ++i) {
      const float d = core::L2Sq(sample.Row(i), centers.Row(
                                     static_cast<VectorId>(c - 1)), dim);
      ++*dist_count;
      if (d < nearest[i]) nearest[i] = d;
      if (nearest[i] > farthest_dist) {
        farthest_dist = nearest[i];
        farthest = i;
      }
    }
    std::memcpy(centers.MutableRow(static_cast<VectorId>(c)),
                sample.Row(farthest), dim * sizeof(float));
  }

  std::vector<std::uint32_t> member(m, 0);
  std::vector<double> sum(k * dim);
  std::vector<std::size_t> count(k);
  for (std::size_t it = 0; it < iters; ++it) {
    bool moved = false;
    for (std::size_t i = 0; i < m; ++i) {
      std::uint32_t best = 0;
      float best_dist = std::numeric_limits<float>::max();
      for (std::size_t c = 0; c < k; ++c) {
        const float d =
            core::L2Sq(sample.Row(i), centers.Row(static_cast<VectorId>(c)),
                       dim);
        ++*dist_count;
        if (d < best_dist) {
          best_dist = d;
          best = static_cast<std::uint32_t>(c);
        }
      }
      if (member[i] != best) moved = true;
      member[i] = best;
    }
    std::fill(sum.begin(), sum.end(), 0.0);
    std::fill(count.begin(), count.end(), 0);
    for (std::size_t i = 0; i < m; ++i) {
      const float* row = sample.Row(i);
      double* acc = sum.data() + member[i] * dim;
      for (std::size_t d = 0; d < dim; ++d) acc[d] += row[d];
      ++count[member[i]];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (count[c] == 0) continue;  // Empty cluster keeps its old center.
      float* row = centers.MutableRow(static_cast<VectorId>(c));
      const double inv = 1.0 / static_cast<double>(count[c]);
      for (std::size_t d = 0; d < dim; ++d) {
        row[d] = static_cast<float>(sum[c * dim + d] * inv);
      }
    }
    if (!moved) break;
  }
  return centers;
}

/// Assigns every row to its nearest centroid with remaining capacity.
/// Processing in ascending id order makes the overflow handling (spill to
/// the next-nearest open shard) deterministic.
void AssignBalancedKMeans(const Dataset& data, const Dataset& centers,
                          std::size_t capacity,
                          std::vector<std::uint32_t>* assignment,
                          std::uint64_t* dist_count) {
  const std::size_t n = data.size();
  const std::size_t k = centers.size();
  const std::size_t dim = data.dim();
  std::vector<std::size_t> fill(k, 0);
  std::vector<std::pair<float, std::uint32_t>> ranked(k);
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = data.Row(static_cast<VectorId>(i));
    for (std::size_t c = 0; c < k; ++c) {
      ranked[c] = {core::L2Sq(row, centers.Row(static_cast<VectorId>(c)), dim),
                   static_cast<std::uint32_t>(c)};
    }
    *dist_count += k;
    std::sort(ranked.begin(), ranked.end());
    std::uint32_t chosen = ranked.back().second;  // Fallback: least-near.
    for (const auto& [dist, c] : ranked) {
      (void)dist;
      if (fill[c] < capacity) {
        chosen = c;
        break;
      }
    }
    (*assignment)[i] = chosen;
    ++fill[chosen];
  }
}

}  // namespace

const char* PartitionerKindName(PartitionerKind kind) {
  switch (kind) {
    case PartitionerKind::kContiguous: return "contiguous";
    case PartitionerKind::kRandom: return "random";
    case PartitionerKind::kKMeans: return "kmeans";
  }
  return "unknown";
}

bool ParsePartitionerKind(const std::string& name, PartitionerKind* out) {
  if (name == "contiguous") {
    *out = PartitionerKind::kContiguous;
    return true;
  }
  if (name == "random") {
    *out = PartitionerKind::kRandom;
    return true;
  }
  if (name == "kmeans") {
    *out = PartitionerKind::kKMeans;
    return true;
  }
  return false;
}

core::DatasetView Partitioning::ShardView(const core::Dataset& base,
                                          std::size_t s) const {
  GASS_CHECK(s < shard_ids.size());
  return core::DatasetView(base, shard_ids[s]);
}

core::Dataset ComputeCentroids(
    const core::Dataset& data,
    const std::vector<std::vector<core::VectorId>>& shard_ids) {
  const std::size_t k = shard_ids.size();
  const std::size_t dim = data.dim();
  Dataset centroids(k, dim);
  std::vector<double> acc(dim);
  for (std::size_t s = 0; s < k; ++s) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (const VectorId id : shard_ids[s]) {
      const float* row = data.Row(id);
      for (std::size_t d = 0; d < dim; ++d) acc[d] += row[d];
    }
    float* out = centroids.MutableRow(static_cast<VectorId>(s));
    const double inv =
        shard_ids[s].empty() ? 0.0 : 1.0 / static_cast<double>(shard_ids[s].size());
    for (std::size_t d = 0; d < dim; ++d) {
      out[d] = static_cast<float>(acc[d] * inv);
    }
  }
  return centroids;
}

Partitioning Partition(const core::Dataset& data,
                       const PartitionerParams& params, std::uint64_t seed) {
  const std::size_t n = data.size();
  const std::size_t k = params.num_shards;
  GASS_CHECK_MSG(k >= 1, "num_shards must be >= 1");
  GASS_CHECK_MSG(n == 0 || k <= n,
                 "num_shards (%zu) exceeds dataset size (%zu)", k, n);

  Partitioning out;
  out.assignment.assign(n, 0);
  out.shard_ids.assign(k, {});

  // One shard is the identity assignment under every kind, so K=1 skips
  // the shuffle and the Lloyd iterations.
  if (n > 0 && k > 1) {
    switch (params.kind) {
      case PartitionerKind::kContiguous:
        AssignContiguous(n, k, &out.assignment);
        break;
      case PartitionerKind::kRandom:
        AssignRandom(n, k, seed, &out.assignment);
        break;
      case PartitionerKind::kKMeans: {
        core::Rng rng(seed);
        const std::size_t sample_count =
            std::max(k, std::min(params.kmeans_sample, n));
        const Dataset centers = LloydOverSample(
            core::DatasetView(data, SampleIds(n, sample_count, &rng)), k,
            params.kmeans_iters, &rng, &out.distance_computations);
        double slack = params.balance_slack < 0 ? 0.0 : params.balance_slack;
        const std::size_t capacity = std::max<std::size_t>(
            CeilDiv(n, k),
            static_cast<std::size_t>(
                static_cast<double>(CeilDiv(n, k)) * (1.0 + slack) + 0.999999));
        AssignBalancedKMeans(data, centers, capacity, &out.assignment,
                             &out.distance_computations);
        break;
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    out.shard_ids[out.assignment[i]].push_back(static_cast<VectorId>(i));
  }
  // Routing centroids are always the means of the *final* members, so they
  // describe the shards actually searched (not the Lloyd centers, which the
  // balance cap may have diverged from).
  out.centroids = ComputeCentroids(data, out.shard_ids);
  return out;
}

}  // namespace gass::shard
