#include "methods/ieh_index.h"

#include "core/macros.h"
#include "methods/fingerprint.h"

namespace gass::methods {

using core::Graph;
using core::VectorId;

Graph IehIndex::BuildGraph(core::DistanceComputer& dc,
                           std::size_t* transient_bytes) {
  const core::Dataset& data = *data_;

  auto lsh = std::make_shared<hash::LshIndex>(
      hash::LshIndex::Build(data, params_.lsh, params_.seed));

  // Hash-derived initial candidates for NNDescent.
  Graph init(data.size());
  for (VectorId v = 0; v < data.size(); ++v) {
    for (VectorId u : lsh->Candidates(data.Row(v), params_.init_candidates)) {
      if (u != v) init.MutableNeighbors(v).push_back(u);
    }
  }
  Graph graph = knngraph::NnDescent(dc, params_.nndescent,
                                    params_.seed ^ 0x1ULL, &init);
  seed_selector_ = std::make_unique<seeds::LshSeeds>(lsh, data.size(),
                                                     params_.seed ^ 0x5EEDULL);
  // The initial graph and NNDescent's pools (about the final lists' size).
  *transient_bytes = init.MemoryBytes() + graph.MemoryBytes();
  return graph;
}

std::uint64_t IehIndex::ParamsFingerprint() const {
  io::Encoder enc;
  EncodeParams(&enc, params_.nndescent);
  EncodeParams(&enc, params_.lsh);
  enc.U64(params_.init_candidates);
  enc.U64(params_.seed);
  return FingerprintBytes(enc);
}

core::Status IehIndex::SaveAux(io::SnapshotWriter* writer,
                               const std::string& prefix) const {
  const auto* selector =
      dynamic_cast<const seeds::LshSeeds*>(seed_selector_.get());
  if (selector == nullptr) {
    return core::Status::Unimplemented(
        "IEH snapshot requires an LSH seed selector");
  }
  io::Encoder enc;
  selector->index()->EncodeTo(&enc);
  return writer->AddSection(prefix + "lsh", std::move(enc));
}

core::Status IehIndex::LoadAux(const io::SnapshotReader& reader,
                               const std::string& prefix) {
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "lsh", &buffer, &dec));
  auto lsh = std::make_shared<hash::LshIndex>();
  GASS_RETURN_IF_ERROR(hash::LshIndex::DecodeFrom(&dec, data_->size(),
                                                  lsh.get()));
  if (!dec.ExpectEnd()) return dec.status();
  seed_selector_ = std::make_unique<seeds::LshSeeds>(
      std::move(lsh), data_->size(), params_.seed ^ 0x5EEDULL);
  return core::Status::Ok();
}

}  // namespace gass::methods
