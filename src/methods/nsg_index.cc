#include "methods/nsg_index.h"

#include <algorithm>

#include "core/beam_search.h"
#include "core/macros.h"
#include "diversify/diversify.h"
#include "methods/base_graphs.h"
#include "methods/build_util.h"
#include "methods/fingerprint.h"

namespace gass::methods {

using core::Graph;
using core::Neighbor;
using core::VectorId;

Graph NsgIndex::BuildGraph(core::DistanceComputer& dc,
                           std::size_t* transient_bytes) {
  const core::Dataset& data = *data_;
  Graph base = BuildEfannaBaseGraph(
      dc, params_.nndescent, params_.num_trees, params_.tree_leaf_size,
      params_.init_candidates, params_.seed);

  medoid_ = seeds::ComputeMedoid(data);

  diversify::Params prune;
  prune.strategy = diversify::Strategy::kRnd;
  prune.max_degree = params_.max_degree;

  Graph graph(data.size());
  std::vector<Neighbor> evaluated;
  for (VectorId v = 0; v < data.size(); ++v) {
    core::BeamSearchCollect(base, dc, data.Row(v), {medoid_},
                            params_.build_beam_width,
                            params_.build_beam_width, visited_.get(),
                            &evaluated);
    // Candidate set: the visited nodes plus v's base-graph neighbors.
    const auto& base_list = base.Neighbors(v);
    AppendScored(dc, v, base_list.data(), base_list.size(), &evaluated);
    std::sort(evaluated.begin(), evaluated.end());
    evaluated.erase(std::unique(evaluated.begin(), evaluated.end()),
                    evaluated.end());
    const std::vector<Neighbor> kept =
        diversify::Diversify(dc, v, evaluated, prune);
    InstallBidirectional(dc, &graph, v, kept, prune);
  }

  EnsureConnectedFrom(dc, &graph, medoid_, params_.build_beam_width,
                      visited_.get());

  seed_selector_ = std::make_unique<seeds::MedoidRandomSeeds>(
      medoid_, data.size(), params_.seed ^ 0x5EEDULL);
  // The EFANNA base graph (plus its build pools) dominates the transient
  // footprint — the effect the paper highlights for NSG/SSG.
  *transient_bytes = base.MemoryBytes() * 3;
  return graph;
}

std::uint64_t NsgIndex::ParamsFingerprint() const {
  io::Encoder enc;
  EncodeParams(&enc, params_.nndescent);
  enc.U64(params_.num_trees);
  enc.U64(params_.tree_leaf_size);
  enc.U64(params_.init_candidates);
  enc.U64(params_.max_degree);
  enc.U64(params_.build_beam_width);
  enc.U64(params_.seed);
  return FingerprintBytes(enc);
}

core::Status NsgIndex::SaveAux(io::SnapshotWriter* writer,
                               const std::string& prefix) const {
  io::Encoder enc;
  enc.U32(medoid_);
  return writer->AddSection(prefix + "medoid", std::move(enc));
}

core::Status NsgIndex::LoadAux(const io::SnapshotReader& reader,
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
