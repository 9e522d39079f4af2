#include "methods/efanna_index.h"

#include "core/macros.h"
#include "methods/fingerprint.h"

namespace gass::methods {

using core::Graph;
using core::VectorId;

Graph EfannaIndex::BuildGraph(core::DistanceComputer& dc,
                              std::size_t* transient_bytes) {
  const core::Dataset& data = *data_;

  // Randomized K-D forest: both the NNDescent initializer and the query
  // seed structure.
  trees::KdTreeParams tree_params;
  tree_params.leaf_size = params_.tree_leaf_size;
  auto forest = std::make_shared<trees::KdForest>(trees::KdForest::Build(
      data, params_.num_trees, tree_params, params_.seed));

  // Harvest per-node initial candidates from the forest.
  Graph init(data.size());
  for (VectorId v = 0; v < data.size(); ++v) {
    std::vector<VectorId> candidates = forest->SearchCandidates(
        data, data.Row(v), params_.init_candidates);
    auto& list = init.MutableNeighbors(v);
    for (VectorId u : candidates) {
      if (u != v) list.push_back(u);
    }
  }

  Graph graph = knngraph::NnDescent(dc, params_.nndescent,
                                    params_.seed ^ 0x1ULL, &init);
  seed_selector_ = std::make_unique<seeds::KdSeeds>(forest, data_);
  // Trees + initial graph + NNDescent pools (about the final lists'
  // size) coexist during build.
  *transient_bytes = init.MemoryBytes() + graph.MemoryBytes();
  return graph;
}

std::uint64_t EfannaIndex::ParamsFingerprint() const {
  io::Encoder enc;
  EncodeParams(&enc, params_.nndescent);
  enc.U64(params_.num_trees);
  enc.U64(params_.tree_leaf_size);
  enc.U64(params_.init_candidates);
  enc.U64(params_.seed);
  return FingerprintBytes(enc);
}

core::Status EfannaIndex::SaveAux(io::SnapshotWriter* writer,
                                  const std::string& prefix) const {
  const auto* kd = dynamic_cast<const seeds::KdSeeds*>(seed_selector_.get());
  if (kd == nullptr) {
    return core::Status::Unimplemented(
        "EFANNA snapshot requires a KD seed selector");
  }
  io::Encoder enc;
  kd->forest()->EncodeTo(&enc);
  return writer->AddSection(prefix + "kdforest", std::move(enc));
}

core::Status EfannaIndex::LoadAux(const io::SnapshotReader& reader,
                                  const std::string& prefix) {
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "kdforest", &buffer, &dec));
  auto forest = std::make_shared<trees::KdForest>();
  GASS_RETURN_IF_ERROR(trees::KdForest::DecodeFrom(&dec, *data_, forest.get()));
  if (!dec.ExpectEnd()) return dec.status();
  seed_selector_ = std::make_unique<seeds::KdSeeds>(std::move(forest), data_);
  return core::Status::Ok();
}

}  // namespace gass::methods
