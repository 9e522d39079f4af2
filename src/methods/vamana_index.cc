#include "methods/vamana_index.h"

#include <algorithm>
#include <cmath>

#include "core/beam_search.h"
#include "core/macros.h"
#include "diversify/diversify.h"
#include "methods/base_graphs.h"
#include "methods/build_util.h"
#include "methods/fingerprint.h"

namespace gass::methods {

using core::Graph;
using core::Neighbor;
using core::Rng;
using core::VectorId;

void VamanaIndex::RefinePass(core::DistanceComputer& dc, float alpha,
                             const std::vector<VectorId>& order,
                             Graph* graph) {
  diversify::Params prune;
  prune.strategy = alpha <= 1.0f ? diversify::Strategy::kRnd
                                 : diversify::Strategy::kRrnd;
  prune.alpha = alpha;
  prune.max_degree = params_.max_degree;

  std::vector<Neighbor> evaluated;
  for (VectorId v : order) {
    core::BeamSearchCollect(*graph, dc, data_->Row(v), {medoid_},
                            params_.build_beam_width,
                            params_.build_beam_width, visited_.get(),
                            &evaluated);
    const auto& current = graph->Neighbors(v);
    AppendScored(dc, v, current.data(), current.size(), &evaluated);
    std::sort(evaluated.begin(), evaluated.end());
    evaluated.erase(std::unique(evaluated.begin(), evaluated.end()),
                    evaluated.end());
    const std::vector<Neighbor> kept =
        diversify::Diversify(dc, v, evaluated, prune);
    InstallBidirectional(dc, graph, v, kept, prune);
  }
}

Graph VamanaIndex::BuildGraph(core::DistanceComputer& dc,
                              std::size_t* /*transient_bytes*/) {
  const std::size_t n = data_->size();
  // Initial degree ≥ log2(n), capped by R.
  const std::size_t init_degree = std::min(
      params_.max_degree,
      std::max<std::size_t>(4, static_cast<std::size_t>(
                                   std::ceil(std::log2(std::max<std::size_t>(
                                       2, n))))));
  Graph graph = RandomRegularGraph(n, init_degree, params_.seed);
  medoid_ = seeds::ComputeMedoid(*data_);

  // Random insertion order, reshuffled between passes.
  Rng rng(params_.seed ^ 0xABCDULL);
  std::vector<VectorId> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<VectorId>(i);
  for (std::size_t i = n; i-- > 1;) {
    std::swap(order[i], order[rng.UniformInt(i + 1)]);
  }
  RefinePass(dc, 1.0f, order, &graph);
  for (std::size_t i = n; i-- > 1;) {
    std::swap(order[i], order[rng.UniformInt(i + 1)]);
  }
  RefinePass(dc, params_.alpha, order, &graph);

  seed_selector_ = std::make_unique<seeds::MedoidRandomSeeds>(
      medoid_, n, params_.seed ^ 0x5EEDULL);
  return graph;
}

std::uint64_t VamanaIndex::ParamsFingerprint() const {
  io::Encoder enc;
  enc.U64(params_.max_degree);
  enc.U64(params_.build_beam_width);
  enc.F32(params_.alpha);
  enc.U64(params_.seed);
  return FingerprintBytes(enc);
}

core::Status VamanaIndex::SaveAux(io::SnapshotWriter* writer,
                                  const std::string& prefix) const {
  io::Encoder enc;
  enc.U32(medoid_);
  return writer->AddSection(prefix + "medoid", std::move(enc));
}

core::Status VamanaIndex::LoadAux(const io::SnapshotReader& reader,
                                  const std::string& prefix) {
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "medoid", &buffer, &dec));
  const core::VectorId medoid = dec.U32();
  if (!dec.ExpectEnd()) return dec.status();
  if (!dec.Check(medoid < data_->size(), "medoid id out of range")) {
    return dec.status();
  }
  medoid_ = medoid;
  seed_selector_ = std::make_unique<seeds::MedoidRandomSeeds>(
      medoid_, data_->size(), params_.seed ^ 0x5EEDULL);
  return core::Status::Ok();
}

}  // namespace gass::methods
