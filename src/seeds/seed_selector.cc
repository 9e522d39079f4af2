#include "seeds/seed_selector.h"

#include <algorithm>
#include <cmath>

#include "core/beam_search.h"
#include "core/macros.h"
#include "core/neighbor.h"
#include "core/visited.h"
#include "diversify/diversify.h"

namespace gass::seeds {

using core::DistanceComputer;
using core::Graph;
using core::Neighbor;
using core::Rng;
using core::VectorId;

std::string StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kSn:
      return "SN";
    case Strategy::kKd:
      return "KD";
    case Strategy::kLsh:
      return "LSH";
    case Strategy::kMd:
      return "MD";
    case Strategy::kSf:
      return "SF";
    case Strategy::kKs:
      return "KS";
    case Strategy::kKm:
      return "KM";
  }
  return "unknown";
}

std::vector<VectorId> KsRandomSeeds::Select(DistanceComputer& dc,
                                            const float* query,
                                            std::size_t count,
                                            Rng* rng) const {
  (void)dc;
  (void)query;
  GASS_CHECK(n_ > 0);
  count = std::max<std::size_t>(1, std::min(count, n_));
  std::vector<VectorId> seeds;
  seeds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    seeds.push_back(static_cast<VectorId>(rng->UniformInt(n_)));
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  return seeds;
}

std::vector<VectorId> FixedNodeSeeds::Select(DistanceComputer& dc,
                                             const float* query,
                                             std::size_t count,
                                             Rng* rng) const {
  (void)dc;
  (void)query;
  (void)rng;
  count = std::min(std::max<std::size_t>(1, count), seeds_.size());
  return std::vector<VectorId>(seeds_.begin(), seeds_.begin() + count);
}

std::vector<VectorId> MedoidRandomSeeds::Select(DistanceComputer& dc,
                                                const float* query,
                                                std::size_t count,
                                                Rng* rng) const {
  (void)dc;
  (void)query;
  std::vector<VectorId> seeds{medoid_};
  for (std::size_t s = 1; s < count; ++s) {
    seeds.push_back(static_cast<VectorId>(rng->UniformInt(n_)));
  }
  return seeds;
}

std::vector<VectorId> KdSeeds::Select(DistanceComputer& dc, const float* query,
                                      std::size_t count, Rng* rng) const {
  (void)dc;  // Tree traversal compares split planes, not full vectors.
  (void)rng;
  std::vector<VectorId> seeds =
      forest_->SearchCandidates(*data_, query, std::max<std::size_t>(1, count));
  if (seeds.empty()) seeds.push_back(0);
  return seeds;
}

std::vector<VectorId> KmSeeds::Select(DistanceComputer& dc, const float* query,
                                      std::size_t count, Rng* rng) const {
  (void)dc;  // Centroid comparisons are against tree centroids, not data.
  (void)rng;
  std::vector<VectorId> seeds;
  tree_->SearchCandidates(*data_, query, std::max<std::size_t>(1, count),
                          &seeds);
  if (seeds.empty()) seeds.push_back(0);
  return seeds;
}

std::vector<VectorId> LshSeeds::Select(DistanceComputer& dc,
                                       const float* query, std::size_t count,
                                       Rng* rng) const {
  (void)dc;
  count = std::max<std::size_t>(1, count);
  std::vector<VectorId> seeds = index_->Candidates(query, count);
  // Bucket misses (common for out-of-distribution queries): top up with
  // random warm-up seeds so the beam search always has coverage.
  while (seeds.size() < count && n_ > 0) {
    seeds.push_back(static_cast<VectorId>(rng->UniformInt(n_)));
  }
  return seeds;
}

std::vector<VectorId> VpSeeds::Select(DistanceComputer& dc, const float* query,
                                      std::size_t count, Rng* rng) const {
  (void)rng;
  const std::vector<Neighbor> found =
      tree_->Search(*data_, query, std::max<std::size_t>(1, count), visits_);
  // The tree computes its own distances; charge them here.
  dc.AddCount(std::min<std::uint64_t>(visits_, data_->size()));
  std::vector<VectorId> seeds;
  seeds.reserve(found.size());
  for (const Neighbor& nb : found) seeds.push_back(nb.id);
  if (seeds.empty()) seeds.push_back(0);
  return seeds;
}

StackedNswLayers StackedNswLayers::Build(const core::Dataset& data,
                                         const Params& params,
                                         std::uint64_t seed,
                                         DistanceComputer* dc) {
  GASS_CHECK(!data.empty());
  GASS_CHECK(params.max_degree >= 2);
  StackedNswLayers stack;
  Rng rng(seed);

  // Draw each node's maximum layer per the paper's Eq. 1:
  //   L = -ln(ξ) / ln(M / 2)   (ξ uniform in (0,1)),
  // floored; layer 0 (the base graph) belongs to the caller.
  const double denom =
      std::log(std::max(2.0, static_cast<double>(params.max_degree) / 2.0));
  std::vector<std::uint32_t> level(data.size(), 0);
  std::uint32_t top = 0;
  VectorId top_node = 0;
  for (VectorId v = 0; v < data.size(); ++v) {
    double xi = rng.UniformDouble();
    if (xi < 1e-12) xi = 1e-12;
    const auto l = static_cast<std::uint32_t>(-std::log(xi) / denom);
    level[v] = l;
    if (l >= top) {
      top = l;
      top_node = v;
    }
  }
  stack.entry_point_ = top_node;
  if (top == 0) {
    // No hierarchical nodes at all (tiny datasets): keep a single layer
    // containing just the entry point so Descend still works.
    level[top_node] = 1;
    top = 1;
  }

  stack.layers_.assign(top, Graph(data.size()));
  stack.member_.assign(top, std::vector<bool>(data.size(), false));

  diversify::Params prune;
  prune.strategy = diversify::Strategy::kRnd;
  prune.max_degree = params.max_degree;

  core::VisitedTable visited(data.size());
  VectorId entry = top_node;
  std::uint32_t entry_level = top;
  bool first = true;
  for (VectorId v = 0; v < data.size(); ++v) {
    const std::uint32_t node_level = std::min(level[v], top);
    if (node_level == 0) continue;
    if (first) {
      for (std::uint32_t l = 0; l < node_level; ++l) {
        stack.member_[l][v] = true;
      }
      entry = v;
      entry_level = node_level;
      first = false;
      continue;
    }
    // Greedy descent through layers above the node's level.
    VectorId current = entry;
    float current_dist = dc->ToQuery(data.Row(v), current);
    for (std::uint32_t l = entry_level; l-- > node_level;) {
      bool improved = true;
      while (improved) {
        improved = false;
        for (VectorId u : stack.layers_[l].Neighbors(current)) {
          const float d = dc->ToQuery(data.Row(v), u);
          if (d < current_dist) {
            current_dist = d;
            current = u;
            improved = true;
          }
        }
      }
    }
    // Insert into layers [0, node_level) with beam search + RND pruning.
    for (std::uint32_t l = std::min(node_level, entry_level); l-- > 0;) {
      std::vector<Neighbor> candidates = core::BeamSearch(
          stack.layers_[l], *dc, data.Row(v), {current}, params.beam_width,
          params.beam_width, &visited);
      std::vector<Neighbor> kept =
          diversify::Diversify(*dc, v, candidates, prune);
      std::vector<VectorId>& list = stack.layers_[l].MutableNeighbors(v);
      for (const Neighbor& nb : kept) {
        list.push_back(nb.id);
        // Bidirectional link with overflow re-pruning.
        auto& back = stack.layers_[l].MutableNeighbors(nb.id);
        back.push_back(v);
        if (back.size() > params.max_degree) {
          std::vector<Neighbor> back_candidates;
          back_candidates.reserve(back.size());
          for (VectorId u : back) {
            back_candidates.emplace_back(u, dc->Between(nb.id, u));
          }
          std::sort(back_candidates.begin(), back_candidates.end());
          std::vector<Neighbor> back_kept =
              diversify::Diversify(*dc, nb.id, back_candidates, prune);
          back.clear();
          for (const Neighbor& b : back_kept) back.push_back(b.id);
        }
      }
      if (!candidates.empty()) current = candidates.front().id;
      stack.member_[l][v] = true;
    }
    if (node_level > entry_level) {
      for (std::uint32_t l = entry_level; l < node_level; ++l) {
        stack.member_[l][v] = true;
      }
      entry = v;
      entry_level = node_level;
    }
  }
  stack.entry_point_ = entry;
  return stack;
}

VectorId StackedNswLayers::Descend(DistanceComputer& dc,
                                   const float* query) const {
  VectorId current = entry_point_;
  float current_dist = dc.ToQuery(query, current);
  for (std::size_t l = layers_.size(); l-- > 0;) {
    bool improved = true;
    while (improved) {
      improved = false;
      // Prefetch-then-batch sweep; sequential scan keeps the greedy step
      // and distance count identical to the one-at-a-time loop.
      const auto& list = layers_[l].Neighbors(current);
      const VectorId* ids = list.data();
      const std::size_t degree = list.size();
      constexpr std::size_t kChunk = DistanceComputer::kBatchChunk;
      float dist[kChunk];
      for (std::size_t i = 0; i < degree; i += kChunk) {
        const std::size_t m = std::min(kChunk, degree - i);
        for (std::size_t j = 0; j < m; ++j) dc.Prefetch(ids[i + j]);
        dc.ToQueryBatch(query, ids + i, m, dist);
        for (std::size_t j = 0; j < m; ++j) {
          if (dist[j] < current_dist) {
            current_dist = dist[j];
            current = ids[i + j];
            improved = true;
          }
        }
      }
    }
  }
  return current;
}

std::vector<VectorId> StackedNswLayers::Layer1Neighbors(VectorId node) const {
  if (layers_.empty() || node >= layers_[0].size()) return {};
  return layers_[0].Neighbors(node);
}

std::size_t StackedNswLayers::MemoryBytes() const {
  std::size_t total = 0;
  for (const Graph& layer : layers_) total += layer.MemoryBytes();
  for (const auto& bits : member_) total += bits.size() / 8;
  return total;
}

std::vector<VectorId> SnSeeds::Select(DistanceComputer& dc,
                                      const float* query, std::size_t count,
                                      Rng* rng) const {
  (void)rng;
  const VectorId node = layers_->Descend(dc, query);
  std::vector<VectorId> seeds{node};
  for (VectorId u : layers_->Layer1Neighbors(node)) {
    if (seeds.size() >= std::max<std::size_t>(1, count)) break;
    seeds.push_back(u);
  }
  return seeds;
}

VectorId ComputeMedoid(const core::Dataset& data) {
  GASS_CHECK(!data.empty());
  const std::size_t dim = data.dim();
  std::vector<double> mean(dim, 0.0);
  for (VectorId i = 0; i < data.size(); ++i) {
    const float* row = data.Row(i);
    for (std::size_t d = 0; d < dim; ++d) mean[d] += row[d];
  }
  std::vector<float> center(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    center[d] = static_cast<float>(mean[d] / static_cast<double>(data.size()));
  }
  VectorId best = 0;
  float best_dist = 3.402823466e38f;
  for (VectorId i = 0; i < data.size(); ++i) {
    const float d = core::L2Sq(center.data(), data.Row(i), dim);
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  return best;
}

}  // namespace gass::seeds
