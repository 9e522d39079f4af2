#include "methods/fanng_index.h"

#include <algorithm>

#include "core/macros.h"
#include "core/rng.h"
#include "diversify/diversify.h"
#include "methods/build_util.h"
#include "methods/fingerprint.h"

namespace gass::methods {

using core::Graph;
using core::Neighbor;
using core::Rng;
using core::VectorId;

Graph FanngIndex::BuildGraph(core::DistanceComputer& dc,
                             std::size_t* transient_bytes) {
  const core::Dataset& data = *data_;
  Rng rng(params_.seed);

  // Rich candidate lists, occlusion-pruned (RND geometry).
  Graph base = knngraph::NnDescent(dc, params_.nndescent, params_.seed);
  diversify::Params prune;
  prune.strategy = diversify::Strategy::kRnd;
  prune.max_degree = params_.max_degree;

  Graph graph(data.size());
  for (VectorId v = 0; v < data.size(); ++v) {
    std::vector<Neighbor> candidates;
    const auto& base_list = base.Neighbors(v);
    candidates.reserve(base_list.size());
    AppendScored(dc, v, base_list.data(), base_list.size(), &candidates);
    std::sort(candidates.begin(), candidates.end());
    const std::vector<Neighbor> kept =
        diversify::Diversify(dc, v, candidates, prune);
    auto& list = graph.MutableNeighbors(v);
    for (const Neighbor& nb : kept) list.push_back(nb.id);
  }

  // Traverse-and-add: dataset points as training queries. A greedy walk
  // from a random start must reach the target node itself; a stuck walk
  // earns an escape edge from the stuck node to the target.
  escape_edges_ = 0;
  const auto walks = static_cast<std::size_t>(
      params_.training_walks_per_node * static_cast<double>(data.size()));
  for (std::size_t w = 0; w < walks; ++w) {
    const VectorId target =
        static_cast<VectorId>(rng.UniformInt(data.size()));
    VectorId current = static_cast<VectorId>(rng.UniformInt(data.size()));
    if (current == target) continue;
    float current_dist = dc.Between(target, current);
    std::size_t hops = 0;
    while (hops < params_.max_walk_hops) {
      VectorId best = current;
      float best_dist = current_dist;
      for (VectorId u : graph.Neighbors(current)) {
        const float d = u == target ? 0.0f : dc.Between(target, u);
        if (d < best_dist) {
          best_dist = d;
          best = u;
        }
      }
      if (best == current) break;  // Stuck.
      current = best;
      current_dist = best_dist;
      if (current == target) break;
      ++hops;
    }
    if (current != target) {
      // Escape edge; re-prune the stuck node's enlarged list.
      if (graph.AddEdgeUnique(current, target)) {
        ++escape_edges_;
        auto& list = graph.MutableNeighbors(current);
        if (list.size() > params_.max_degree) {
          std::vector<Neighbor> candidates;
          candidates.reserve(list.size());
          AppendScored(dc, current, list.data(), list.size(), &candidates);
          std::sort(candidates.begin(), candidates.end());
          const std::vector<Neighbor> kept =
              diversify::Diversify(dc, current, candidates, prune);
          list.clear();
          for (const Neighbor& nb : kept) list.push_back(nb.id);
        }
      }
    }
  }

  seed_selector_ = std::make_unique<seeds::KsRandomSeeds>(
      data.size(), params_.seed ^ 0x5EEDULL);
  *transient_bytes = base.MemoryBytes() * 2;
  return graph;
}

std::uint64_t FanngIndex::ParamsFingerprint() const {
  io::Encoder enc;
  EncodeParams(&enc, params_.nndescent);
  enc.U64(params_.max_degree);
  enc.F64(params_.training_walks_per_node);
  enc.U64(params_.max_walk_hops);
  enc.U64(params_.seed);
  return FingerprintBytes(enc);
}

core::Status FanngIndex::LoadAux(const io::SnapshotReader& reader,
                                 const std::string& prefix) {
  (void)reader;
  (void)prefix;
  seed_selector_ = std::make_unique<seeds::KsRandomSeeds>(
      data_->size(), params_.seed ^ 0x5EEDULL);
  return core::Status::Ok();
}

}  // namespace gass::methods
