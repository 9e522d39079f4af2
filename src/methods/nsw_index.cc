#include "methods/nsw_index.h"

#include <algorithm>

#include "core/beam_search.h"
#include "core/macros.h"
#include "core/rng.h"
#include "methods/build_util.h"
#include "methods/fingerprint.h"

namespace gass::methods {

using core::DistanceComputer;
using core::Graph;
using core::Neighbor;
using core::Rng;
using core::VectorId;

Graph NswIndex::BuildGraph(core::DistanceComputer& dc,
                           std::size_t* /*transient_bytes*/) {
  const core::Dataset& data = *data_;
  Rng rng(params_.seed);

  const std::size_t n = data.size();
  Graph graph(n);

  for (VectorId v = 1; v < n; ++v) {
    std::vector<VectorId> seeds{0};
    for (std::size_t s = 1; s < 4; ++s) {
      seeds.push_back(static_cast<VectorId>(rng.UniformInt(v)));
    }
    std::vector<Neighbor> candidates = core::BeamSearch(
        graph, dc, data.Row(v), seeds, params_.max_degree,
        params_.build_beam_width, visited_.get());
    if (candidates.size() > params_.max_degree) {
      candidates.resize(params_.max_degree);
    }
    // Bidirectional links without diversification; in-degrees are only
    // capped (nearest-first) when they exceed the hard limit.
    auto& forward = graph.MutableNeighbors(v);
    for (const Neighbor& nb : candidates) {
      forward.push_back(nb.id);
      auto& back = graph.MutableNeighbors(nb.id);
      if (std::find(back.begin(), back.end(), v) == back.end()) {
        back.push_back(v);
        if (back.size() > params_.degree_cap) {
          std::vector<Neighbor> scored;
          scored.reserve(back.size());
          AppendScored(dc, nb.id, back.data(), back.size(), &scored);
          std::sort(scored.begin(), scored.end());
          back.clear();
          for (std::size_t i = 0; i < params_.degree_cap; ++i) {
            back.push_back(scored[i].id);
          }
        }
      }
    }
  }

  seed_selector_ =
      std::make_unique<seeds::KsRandomSeeds>(n, params_.seed ^ 0x5EEDULL);
  return graph;
}

std::uint64_t NswIndex::ParamsFingerprint() const {
  io::Encoder enc;
  enc.U64(params_.max_degree);
  enc.U64(params_.build_beam_width);
  enc.U64(params_.degree_cap);
  enc.U64(params_.seed);
  return FingerprintBytes(enc);
}

core::Status NswIndex::LoadAux(const io::SnapshotReader& reader,
                               const std::string& prefix) {
  (void)reader;
  (void)prefix;
  seed_selector_ = std::make_unique<seeds::KsRandomSeeds>(
      data_->size(), params_.seed ^ 0x5EEDULL);
  return core::Status::Ok();
}

}  // namespace gass::methods
