#include "methods/dpg_index.h"

#include <algorithm>

#include "core/macros.h"
#include "diversify/diversify.h"
#include "methods/build_util.h"
#include "methods/fingerprint.h"

namespace gass::methods {

using core::Graph;
using core::Neighbor;
using core::VectorId;

Graph DpgIndex::BuildGraph(core::DistanceComputer& dc,
                           std::size_t* transient_bytes) {
  const core::Dataset& data = *data_;

  Graph base = knngraph::NnDescent(dc, params_.nndescent, params_.seed);

  // MOND-diversify each node's base list.
  diversify::Params prune;
  prune.strategy = diversify::Strategy::kMond;
  prune.theta_degrees = params_.theta_degrees;
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

  // Undirect for connectivity (DPG's final step).
  graph.MakeUndirected();

  seed_selector_ = std::make_unique<seeds::KsRandomSeeds>(
      data.size(), params_.seed ^ 0x5EEDULL);
  *transient_bytes = base.MemoryBytes() * 2;
  return graph;
}

std::uint64_t DpgIndex::ParamsFingerprint() const {
  io::Encoder enc;
  EncodeParams(&enc, params_.nndescent);
  enc.U64(params_.max_degree);
  enc.F32(params_.theta_degrees);
  enc.U64(params_.seed);
  return FingerprintBytes(enc);
}

core::Status DpgIndex::LoadAux(const io::SnapshotReader& reader,
                               const std::string& prefix) {
  (void)reader;
  (void)prefix;
  seed_selector_ = std::make_unique<seeds::KsRandomSeeds>(
      data_->size(), params_.seed ^ 0x5EEDULL);
  return core::Status::Ok();
}

}  // namespace gass::methods
