#include "methods/ssg_index.h"

#include <algorithm>

#include "core/macros.h"
#include "core/rng.h"
#include "diversify/diversify.h"
#include "methods/base_graphs.h"
#include "methods/build_util.h"
#include "methods/fingerprint.h"

namespace gass::methods {

using core::Graph;
using core::Neighbor;
using core::Rng;
using core::VectorId;

Graph SsgIndex::BuildGraph(core::DistanceComputer& dc,
                           std::size_t* transient_bytes) {
  const core::Dataset& data = *data_;

  Graph base = BuildEfannaBaseGraph(
      dc, params_.nndescent, params_.num_trees, params_.tree_leaf_size,
      params_.init_candidates, params_.seed);


  diversify::Params prune;
  prune.strategy = diversify::Strategy::kMond;
  prune.theta_degrees = params_.theta_degrees;
  prune.max_degree = params_.max_degree;

  Graph graph(data.size());
  for (VectorId v = 0; v < data.size(); ++v) {
    // Local expansion: 1-hop plus 2-hop base-graph neighbors, capped.
    visited_->NewEpoch();
    visited_->MarkVisited(v);
    std::vector<Neighbor> candidates;
    std::vector<VectorId> pending;
    for (VectorId u : base.Neighbors(v)) {
      if (!visited_->TryVisit(u)) continue;
      pending.push_back(u);
    }
    AppendScored(dc, v, pending.data(), pending.size(), &candidates);
    const std::size_t one_hop = candidates.size();
    for (std::size_t i = 0;
         i < one_hop && candidates.size() < params_.expansion_limit; ++i) {
      pending.clear();
      for (VectorId w : base.Neighbors(candidates[i].id)) {
        if (candidates.size() + pending.size() >= params_.expansion_limit) {
          break;
        }
        if (!visited_->TryVisit(w)) continue;
        pending.push_back(w);
      }
      AppendScored(dc, v, pending.data(), pending.size(), &candidates);
    }
    std::sort(candidates.begin(), candidates.end());
    const std::vector<Neighbor> kept =
        diversify::Diversify(dc, v, candidates, prune);
    InstallBidirectional(dc, &graph, v, kept, prune);
  }

  // Multiple DFS-tree connectivity repairs from random roots.
  Rng rng(params_.seed ^ 0xD00DULL);
  for (std::size_t t = 0; t < params_.num_dfs_roots; ++t) {
    const VectorId root =
        static_cast<VectorId>(rng.UniformInt(data.size()));
    EnsureConnectedFrom(dc, &graph, root, params_.max_degree * 4,
                        visited_.get());
  }

  seed_selector_ = std::make_unique<seeds::KsRandomSeeds>(
      data.size(), params_.seed ^ 0x5EEDULL);
  *transient_bytes = base.MemoryBytes() * 3;
  return graph;
}

std::uint64_t SsgIndex::ParamsFingerprint() const {
  io::Encoder enc;
  EncodeParams(&enc, params_.nndescent);
  enc.U64(params_.num_trees);
  enc.U64(params_.tree_leaf_size);
  enc.U64(params_.init_candidates);
  enc.U64(params_.max_degree);
  enc.F32(params_.theta_degrees);
  enc.U64(params_.expansion_limit);
  enc.U64(params_.num_dfs_roots);
  enc.U64(params_.seed);
  return FingerprintBytes(enc);
}

core::Status SsgIndex::LoadAux(const io::SnapshotReader& reader,
                               const std::string& prefix) {
  (void)reader;
  (void)prefix;
  seed_selector_ = std::make_unique<seeds::KsRandomSeeds>(
      data_->size(), params_.seed ^ 0x5EEDULL);
  return core::Status::Ok();
}

}  // namespace gass::methods
