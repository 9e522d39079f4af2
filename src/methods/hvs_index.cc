#include "methods/hvs_index.h"

#include <algorithm>
#include <numeric>

#include "core/beam_search.h"
#include "core/macros.h"
#include "core/rng.h"
#include "methods/fingerprint.h"

namespace gass::methods {

using core::Neighbor;
using core::Rng;
using core::VectorId;

BuildStats HvsIndex::Build(const core::Dataset& data) {
  GASS_CHECK(!data.empty());
  data_ = &data;
  core::Timer timer;
  Rng rng(params_.seed);

  // Base layer: HNSW's incremental base-graph construction (HVS keeps the
  // base search identical to HNSW's).
  HnswParams base_params = params_.base;
  base_params.seed = params_.seed;
  base_ = std::make_unique<HnswIndex>(base_params);
  const BuildStats base_stats = base_->Build(data);
  visited_ = std::make_unique<core::VisitedTable>(data.size());

  // Local density per node: distance to the nearest of `density_sample`
  // random others (simplification of HVS's density estimate; smaller =
  // denser). Routed through a DistanceComputer so these evaluations show up
  // in the build's distance count like every other full-vector distance.
  core::DistanceComputer density_dc(data);
  std::vector<float> density(data.size());
  for (VectorId v = 0; v < data.size(); ++v) {
    float nearest = 3.402823466e38f;
    for (std::size_t s = 0; s < params_.density_sample; ++s) {
      const VectorId u = static_cast<VectorId>(rng.UniformInt(data.size()));
      if (u == v) continue;
      nearest = std::min(nearest, density_dc.Between(v, u));
    }
    density[v] = nearest;
  }
  std::vector<VectorId> by_density(data.size());
  std::iota(by_density.begin(), by_density.end(), 0);
  std::sort(by_density.begin(), by_density.end(),
            [&](VectorId a, VectorId b) { return density[a] < density[b]; });

  // Layer membership by density: the bottom hierarchical level keeps the
  // densest `level_fraction` of all nodes, each level above keeps the same
  // fraction of the one below.
  levels_.clear();
  levels_.resize(params_.num_levels);
  std::size_t count = data.size();
  for (std::size_t l = params_.num_levels; l-- > 0;) {
    count = std::max<std::size_t>(
        4, static_cast<std::size_t>(static_cast<double>(count) *
                                    params_.level_fraction));
    levels_[l].members.assign(by_density.begin(),
                              by_density.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      std::min(count, data.size())));
  }

  // Per-level quantizers: subspace count doubles toward the base (the
  // multi-level quantization of the paper's description).
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    Level& level = levels_[l];
    const core::Dataset member_data = data.Select(level.members);
    quantize::PqParams pq_params;
    pq_params.num_subspaces = params_.top_subspaces << l;
    pq_params.codebook_size =
        std::min<std::size_t>(64, std::max<std::size_t>(2,
                                                        member_data.size()));
    level.pq = quantize::ProductQuantizer::Train(member_data, pq_params,
                                                 rng.Next());
    level.codes.resize(level.members.size() * level.pq.code_size());
    for (std::size_t i = 0; i < level.members.size(); ++i) {
      level.pq.Encode(member_data.Row(static_cast<VectorId>(i)),
                      level.codes.data() + i * level.pq.code_size());
    }
  }

  BuildStats stats;
  stats.elapsed_seconds = timer.Seconds();
  stats.distance_computations =
      base_stats.distance_computations + density_dc.count();
  stats.index_bytes = IndexBytes();
  // The base build's slots and sealed copy coexisted before the levels
  // existed.
  stats.peak_bytes = std::max(stats.index_bytes, base_stats.peak_bytes);
  return stats;
}

SearchResult HvsIndex::Search(const float* query,
                              const SearchParams& params) {
  return SearchThrough(query, params, visited_.get());
}

SearchResult HvsIndex::Search(const float* query, const SearchParams& params,
                              SearchContext* ctx) const {
  return SearchThrough(query, params, &ctx->visited);
}

SearchResult HvsIndex::SearchThrough(const float* query,
                                     const SearchParams& params,
                                     core::VisitedTable* visited) const {
  GASS_CHECK_MSG(data_ != nullptr, "Search before Build");
  SearchResult result;
  core::Timer timer;
  core::DistanceComputer dc(*data_);

  // Descend the quantized levels: at each, rank members by ADC distance
  // (cheap codebook lookups, charged to hops) and carry the best few down.
  std::vector<VectorId> carried;
  for (const Level& level : levels_) {
    const std::vector<float> table = level.pq.BuildAdcTable(query);
    core::CandidatePool pool(params_.descent_width);
    for (std::size_t i = 0; i < level.members.size(); ++i) {
      const float d = level.pq.AdcDistance(
          table, level.codes.data() + i * level.pq.code_size());
      ++result.stats.hops;
      if (d < pool.WorstDistance()) {
        pool.Insert(Neighbor(level.members[i], d));
      }
    }
    carried.clear();
    for (const Neighbor& nb : pool.contents()) carried.push_back(nb.id);
  }

  // Seed the base beam search with the finest-level survivors (exact
  // distances now) — the HNSW-style entry into the base layer.
  std::vector<VectorId> seeds = carried;
  if (seeds.empty()) seeds.push_back(base_->entry_point());

  result.neighbors = base_->layered_graph().VisitBase([&](const auto& base) {
    return core::BeamSearch(base, dc, query, seeds, params.k,
                            EffectiveBeamWidth(params), visited,
                            &result.stats, params.prune_bound,
                            params.deadline);
  });
  result.stats.distance_computations = dc.count();
  result.stats.elapsed_seconds = timer.Seconds();
  return result;
}

std::size_t HvsIndex::IndexBytes() const {
  std::size_t total = base_ != nullptr ? base_->IndexBytes() : 0;
  for (const Level& level : levels_) {
    total += level.members.size() * sizeof(VectorId) + level.codes.size() +
             level.pq.MemoryBytes();
  }
  return total;
}

std::uint64_t HvsIndex::ParamsFingerprint() const {
  io::Encoder enc;
  EncodeParams(&enc, params_.base);
  enc.U64(params_.num_levels);
  enc.F64(params_.level_fraction);
  enc.U64(params_.top_subspaces);
  enc.U64(params_.density_sample);
  enc.U64(params_.seed);
  return FingerprintBytes(enc);
}

core::Status HvsIndex::SaveSections(io::SnapshotWriter* writer,
                                    const std::string& prefix) const {
  if (base_ == nullptr) {
    return core::Status::InvalidArgument("HVS snapshot before Build");
  }
  GASS_RETURN_IF_ERROR(base_->SaveSections(writer, prefix + "base."));
  io::Encoder enc;
  enc.U64(levels_.size());
  for (const Level& level : levels_) {
    enc.VecU32(level.members);
    level.pq.EncodeTo(&enc);
    enc.VecU8(level.codes);
  }
  return writer->AddSection(prefix + "levels", std::move(enc));
}

core::Status HvsIndex::LoadSections(const io::SnapshotReader& reader,
                                    const std::string& prefix,
                                    const core::Dataset& data) {
  HnswParams base_params = params_.base;
  base_params.seed = params_.seed;
  auto base = std::make_unique<HnswIndex>(base_params);
  GASS_RETURN_IF_ERROR(base->LoadSections(reader, prefix + "base.", data));

  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "levels", &buffer, &dec));
  const std::uint64_t num_levels = dec.U64();
  if (!dec.Check(num_levels <= 64, "implausible HVS level count")) {
    return dec.status();
  }
  std::vector<Level> levels(num_levels);
  for (std::uint64_t l = 0; l < num_levels && dec.ok(); ++l) {
    Level& level = levels[l];
    dec.VecU32(&level.members, data.size());
    for (VectorId member : level.members) {
      if (member >= data.size()) {
        dec.Check(false, "HVS level member id out of range");
        break;
      }
    }
    GASS_RETURN_IF_ERROR(
        quantize::ProductQuantizer::DecodeFrom(&dec, &level.pq));
    dec.VecU8(&level.codes, dec.remaining());
    dec.Check(level.pq.dim() == data.dim(),
              "HVS level quantizer dimensionality mismatch");
    dec.Check(level.codes.size() ==
                  level.members.size() * level.pq.code_size(),
              "HVS level code block size mismatch");
  }
  if (!dec.ExpectEnd()) return dec.status();

  base_ = std::move(base);
  levels_ = std::move(levels);
  data_ = &data;
  visited_ = std::make_unique<core::VisitedTable>(data.size());
  return core::Status::Ok();
}

}  // namespace gass::methods
