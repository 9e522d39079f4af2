#include "methods/lshapg_index.h"

#include <algorithm>

#include "core/beam_search.h"
#include "core/macros.h"
#include "core/neighbor.h"
#include "methods/fingerprint.h"

namespace gass::methods {

using core::Neighbor;
using core::VectorId;

core::Graph LshApgIndex::BuildGraph(core::DistanceComputer& dc,
                                    std::size_t* transient_bytes) {
  // Reuse HNSW's incremental construction for the base-layer graph; only
  // layer 0 is kept (the hierarchy is replaced by LSH seeding).
  HnswParams hnsw_params = params_.hnsw;
  hnsw_params.seed = params_.seed;
  HnswIndex hnsw(hnsw_params);
  const BuildStats hnsw_stats = hnsw.Build(*data_);
  dc.AddCount(hnsw_stats.distance_computations);

  lsh_ = std::make_shared<const hash::LshIndex>(
      hash::LshIndex::Build(*data_, params_.lsh, params_.seed ^ 0x15A4ULL));
  seed_selector_ = std::make_unique<seeds::LshSeeds>(
      lsh_, data_->size(), params_.seed ^ 0x5EEDULL);
  // The sealed HNSW index, alive beside the graph copied out of it.
  *transient_bytes = hnsw_stats.index_bytes;
  return hnsw.graph();
}

SearchResult LshApgIndex::Search(const float* query,
                                 const SearchParams& params) {
  return SearchRouted(query, params, visited_.get(), nullptr);
}

SearchResult LshApgIndex::Search(const float* query,
                                 const SearchParams& params,
                                 SearchContext* ctx) const {
  return SearchRouted(query, params, &ctx->visited, &ctx->rng);
}

SearchResult LshApgIndex::SearchRouted(const float* query,
                                       const SearchParams& params,
                                       core::VisitedTable* visited,
                                       core::Rng* rng) const {
  GASS_CHECK_MSG(data_ != nullptr, "Search before Build");
  SearchResult result;
  core::Timer timer;
  core::DistanceComputer dc(*data_);

  const std::vector<VectorId> seeds =
      rng != nullptr ? seed_selector_->Select(dc, query, params.num_seeds, rng)
                     : seed_selector_->Select(dc, query, params.num_seeds);

  // Beam search with probabilistic routing: each unvisited neighbor's
  // projected distance gates the exact evaluation.
  const std::size_t width = EffectiveBeamWidth(params);
  core::BeamPool pool(width, visited->size());
  visited->NewEpoch();
  const std::vector<float> query_projection = lsh_->ProjectQuery(query);

  for (VectorId seed : seeds) {
    if (!visited->TryVisit(seed)) continue;
    pool.Insert(seed, dc.ToQuery(query, seed));
  }
  std::uint64_t hops = 0;
  for (;;) {
    if (params.deadline != nullptr && hops % core::kDeadlineCheckHops == 0 &&
        params.deadline->IsExpired()) {
      result.stats.deadline_expiries += 1;
      break;
    }
    if (!pool.HasUnexplored()) break;
    const VectorId v = pool.ExploreNext();
    ++hops;
    ++result.stats.hops;
    const core::PackedIds neighbors = graph_.Neighbors(v);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const VectorId u = neighbors[i];
      if (!visited->TryVisit(u)) continue;
      const float worst = pool.WorstDistance();
      if (pool.full()) {
        // Projected pre-screen (the LSB-derived routing test): skip the
        // exact distance when even the optimistic projection is far beyond
        // the pool's worst answer.
        const float projected = lsh_->ProjectedDistance(query_projection, u);
        if (projected >= params_.routing_beta * worst) continue;
      }
      const float d = dc.ToQuery(query, u);
      if (d >= pool.WorstDistance()) continue;
      pool.Insert(u, d);
    }
  }
  result.neighbors = core::internal::EmitTopK(pool, params.k,
                                             params.tombstones,
                                             params.global_ids);
  result.stats.distance_computations = dc.count();
  result.stats.elapsed_seconds = timer.Seconds();
  result.degrade_step = params.degrade_step;
  return result;
}

std::uint64_t LshApgIndex::ParamsFingerprint() const {
  io::Encoder enc;
  EncodeParams(&enc, params_.hnsw);
  EncodeParams(&enc, params_.lsh);
  enc.U64(params_.seed);
  return FingerprintBytes(enc);
}

core::Status LshApgIndex::SaveAux(io::SnapshotWriter* writer,
                                  const std::string& prefix) const {
  if (lsh_ == nullptr) {
    return core::Status::Unimplemented("LSHAPG snapshot requires LSH tables");
  }
  io::Encoder enc;
  lsh_->EncodeTo(&enc);
  return writer->AddSection(prefix + "lsh", std::move(enc));
}

core::Status LshApgIndex::LoadAux(const io::SnapshotReader& reader,
                                  const std::string& prefix) {
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "lsh", &buffer, &dec));
  hash::LshIndex lsh;
  GASS_RETURN_IF_ERROR(hash::LshIndex::DecodeFrom(&dec, data_->size(), &lsh));
  if (!dec.ExpectEnd()) return dec.status();
  lsh_ = std::make_shared<const hash::LshIndex>(std::move(lsh));
  seed_selector_ = std::make_unique<seeds::LshSeeds>(
      lsh_, data_->size(), params_.seed ^ 0x5EEDULL);
  return core::Status::Ok();
}

}  // namespace gass::methods
