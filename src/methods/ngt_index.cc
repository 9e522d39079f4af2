#include "methods/ngt_index.h"

#include <algorithm>

#include "core/macros.h"
#include "diversify/diversify.h"
#include "methods/build_util.h"
#include "methods/fingerprint.h"

namespace gass::methods {

using core::Graph;
using core::Neighbor;
using core::VectorId;

Graph NgtIndex::BuildGraph(core::DistanceComputer& dc,
                           std::size_t* transient_bytes) {
  // Bi-directed k-NN graph.
  Graph graph = knngraph::NnDescent(dc, params_.nndescent, params_.seed);
  graph.MakeUndirected();

  // RND prune every (now enlarged) neighbor list.
  diversify::Params prune;
  prune.strategy = diversify::Strategy::kRnd;
  prune.max_degree = params_.max_degree;
  for (VectorId v = 0; v < data_->size(); ++v) {
    auto& list = graph.MutableNeighbors(v);
    std::vector<Neighbor> candidates;
    candidates.reserve(list.size());
    AppendScored(dc, v, list.data(), list.size(), &candidates);
    std::sort(candidates.begin(), candidates.end());
    const std::vector<Neighbor> kept =
        diversify::Diversify(dc, v, candidates, prune);
    list.clear();
    for (const Neighbor& nb : kept) list.push_back(nb.id);
  }

  seed_selector_ = std::make_unique<seeds::VpSeeds>(
      std::make_shared<const trees::VpTree>(
          trees::VpTree::Build(*data_, params_.seed ^ 0x7EEULL)),
      data_, params_.vp_seed_visits);
  // NNDescent's candidate pools, about the size of the final lists.
  *transient_bytes = graph.MemoryBytes();
  return graph;
}

std::uint64_t NgtIndex::ParamsFingerprint() const {
  io::Encoder enc;
  EncodeParams(&enc, params_.nndescent);
  enc.U64(params_.max_degree);
  enc.U64(params_.seed);
  return FingerprintBytes(enc);
}

core::Status NgtIndex::SaveAux(io::SnapshotWriter* writer,
                               const std::string& prefix) const {
  const auto* vp = dynamic_cast<const seeds::VpSeeds*>(seed_selector_.get());
  if (vp == nullptr) {
    return core::Status::Unimplemented("NGT snapshot requires a VP tree");
  }
  io::Encoder enc;
  vp->tree()->EncodeTo(&enc);
  return writer->AddSection(prefix + "vptree", std::move(enc));
}

core::Status NgtIndex::LoadAux(const io::SnapshotReader& reader,
                               const std::string& prefix) {
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "vptree", &buffer, &dec));
  trees::VpTree tree;
  GASS_RETURN_IF_ERROR(trees::VpTree::DecodeFrom(&dec, data_->size(), &tree));
  if (!dec.ExpectEnd()) return dec.status();
  seed_selector_ = std::make_unique<seeds::VpSeeds>(
      std::make_shared<const trees::VpTree>(std::move(tree)), data_,
      params_.vp_seed_visits);
  return core::Status::Ok();
}

}  // namespace gass::methods
