#include "methods/kgraph_index.h"

#include "core/macros.h"
#include "methods/fingerprint.h"

namespace gass::methods {

core::Graph KgraphIndex::BuildGraph(core::DistanceComputer& dc,
                                    std::size_t* transient_bytes) {
  const core::Dataset& data = *data_;

  core::Graph graph = knngraph::NnDescent(dc, params_.nndescent, params_.seed);
  seed_selector_ = std::make_unique<seeds::KsRandomSeeds>(
      data.size(), params_.seed ^ 0x5EEDULL);
  // NNDescent keeps per-node candidate pools with flags alongside the final
  // lists; its transient footprint is roughly twice the final graph (the
  // paper observes KGraph/EFANNA footprints far above their index sizes).
  *transient_bytes = graph.MemoryBytes();
  return graph;
}

std::uint64_t KgraphIndex::ParamsFingerprint() const {
  io::Encoder enc;
  EncodeParams(&enc, params_.nndescent);
  enc.U64(params_.seed);
  return FingerprintBytes(enc);
}

core::Status KgraphIndex::LoadAux(const io::SnapshotReader& reader,
                                  const std::string& prefix) {
  (void)reader;
  (void)prefix;
  seed_selector_ = std::make_unique<seeds::KsRandomSeeds>(
      data_->size(), params_.seed ^ 0x5EEDULL);
  return core::Status::Ok();
}

}  // namespace gass::methods
