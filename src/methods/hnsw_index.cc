#include "methods/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/beam_search.h"
#include "core/macros.h"
#include "diversify/diversify.h"
#include "methods/build_util.h"
#include "methods/fingerprint.h"

namespace gass::methods {

using core::DistanceComputer;
using core::Neighbor;
using core::VectorId;

namespace {

/// The ids of a list of Neighbors, as HnswGraph::SetList reads them.
struct NeighborIds {
  const std::vector<Neighbor>& list;
  std::size_t size() const { return list.size(); }
  VectorId operator[](std::size_t i) const { return list[i].id; }
};

/// Installs `kept` as v's list on `layer` and links each kept neighbor back
/// to v. A back list that is full (prune.max_degree is the slot capacity)
/// is re-pruned over [its list..., v]: the candidates, order and distance
/// count of InstallBidirectional's append-then-prune.
void InstallLinks(DistanceComputer& dc, HnswGraph* graph, std::size_t layer,
                  VectorId v, const std::vector<Neighbor>& kept,
                  const diversify::Params& prune) {
  GASS_DCHECK(prune.max_degree == graph->MaxDegree(layer));
  graph->SetList(layer, v, NeighborIds{kept});

  std::vector<VectorId> overflow;
  for (const Neighbor& nb : kept) {
    const core::PackedIds back = graph->Neighbors(layer, nb.id);
    overflow.resize(back.size());
    bool linked = false;
    for (std::size_t i = 0; i < back.size(); ++i) {
      overflow[i] = back[i];
      linked |= overflow[i] == v;
    }
    if (linked || graph->AppendNeighbor(layer, nb.id, v)) continue;
    overflow.push_back(v);
    const std::vector<Neighbor> re_kept =
        RePrune(dc, nb.id, overflow.data(), overflow.size(), prune);
    graph->SetList(layer, nb.id, NeighborIds{re_kept});
  }
}

}  // namespace

core::VectorId HnswIndex::DescendToLayer(DistanceComputer& dc,
                                         const float* query,
                                         std::size_t from_layer,
                                         std::size_t target) const {
  VectorId current = entry_;
  float current_dist = dc.ToQuery(query, current);
  for (std::size_t layer = from_layer; layer > target; --layer) {
    bool improved = true;
    while (improved) {
      improved = false;
      // Decode-prefetch-then-batch over the full neighbor list of the node
      // we started this sweep from; the sequential scan below makes the
      // greedy step (and the distance count) identical to the
      // one-at-a-time loop.
      const core::PackedIds ids = graph_.upper(layer).Neighbors(current);
      const std::size_t degree = ids.size();
      constexpr std::size_t kChunk = DistanceComputer::kBatchChunk;
      VectorId chunk[kChunk];
      float dist[kChunk];
      for (std::size_t i = 0; i < degree; i += kChunk) {
        const std::size_t m = std::min(kChunk, degree - i);
        for (std::size_t j = 0; j < m; ++j) {
          chunk[j] = ids[i + j];
          dc.Prefetch(chunk[j]);
        }
        dc.ToQueryBatch(query, chunk, m, dist);
        for (std::size_t j = 0; j < m; ++j) {
          if (dist[j] < current_dist) {
            current_dist = dist[j];
            current = chunk[j];
            improved = true;
          }
        }
      }
    }
  }
  return current;
}

void HnswIndex::InsertNode(DistanceComputer& dc, VectorId v) {
  const core::Dataset& data = *data_;

  // Draw the node's maximum layer per Eq. 1; its upper-layer slots are
  // appended to the arena now, before any view of the arena is taken.
  const double denom =
      std::log(std::max(2.0, static_cast<double>(params_.m) / 2.0));
  double xi = level_rng_->UniformDouble();
  if (xi < 1e-12) xi = 1e-12;
  const auto node_level =
      static_cast<std::uint32_t>(-std::log(xi) / denom);
  graph_.AddLevels(v, node_level);

  if (inserted_ == 0) {
    entry_ = v;
    entry_level_ = node_level;
    ++inserted_;
    return;
  }

  // The forward list at any layer is bounded by M; reverse lists may grow
  // to the layer cap (2M on layer 0, maxM0) before re-pruning. RND decides
  // each candidate from earlier keeps only, so stopping the forward prune
  // at M keeps exactly the first M of a 2M-capped prune, without the
  // distances spent past the M-th keep.
  diversify::Params forward_prune;
  forward_prune.strategy = diversify::Strategy::kRnd;
  forward_prune.max_degree = params_.m;
  diversify::Params base_prune = forward_prune;
  base_prune.max_degree = params_.m * 2;  // maxM0.

  VectorId current = DescendToLayer(dc, data.Row(v), entry_level_,
                                    std::min<std::size_t>(entry_level_,
                                                          node_level));

  for (std::uint32_t l = std::min(node_level, entry_level_) + 1; l-- > 0;) {
    const diversify::Params& reverse_prune =
        l == 0 ? base_prune : forward_prune;
    std::vector<Neighbor> candidates =
        l == 0 ? core::BeamSearch(graph_.base(), dc, data.Row(v), {current},
                                  params_.ef_construction,
                                  params_.ef_construction, visited_.get())
               : core::BeamSearch(graph_.upper(l), dc, data.Row(v), {current},
                                  params_.ef_construction,
                                  params_.ef_construction, visited_.get());
    const std::vector<Neighbor> kept =
        diversify::Diversify(dc, v, candidates, forward_prune);
    InstallLinks(dc, &graph_, l, v, kept, reverse_prune);
    if (!candidates.empty()) current = candidates.front().id;
  }

  if (node_level > entry_level_) {
    entry_ = v;
    entry_level_ = node_level;
  }
  ++inserted_;
}

BuildStats HnswIndex::Build(const core::Dataset& data) {
  BuildStats stats = BuildPrefix(data, data.size());
  // The build's peak is its slots plus the sealed copy made from them.
  core::Timer timer;
  graph_.Seal();
  stats.peak_bytes += graph_.sealed_base().MemoryBytes();
  stats.index_bytes = IndexBytes();
  stats.elapsed_seconds += timer.Seconds();
  return stats;
}

BuildStats HnswIndex::BuildPrefix(const core::Dataset& data,
                                  std::size_t count) {
  GASS_CHECK(!data.empty());
  GASS_CHECK(count <= data.size());
  data_ = &data;
  core::Timer timer;
  DistanceComputer dc(data);

  graph_.Reset(data.size(), params_.m);
  graph_.Unseal();
  visited_ = std::make_unique<core::VisitedTable>(data.size());
  level_rng_ = std::make_unique<core::Rng>(params_.seed);
  inserted_ = 0;

  for (VectorId v = 0; v < count; ++v) InsertNode(dc, v);
  graph_.TrimUpper();  // So index_bytes counts only resident lists.

  BuildStats stats;
  stats.elapsed_seconds = timer.Seconds();
  stats.distance_computations = dc.count();
  stats.index_bytes = IndexBytes();
  stats.peak_bytes = stats.index_bytes;
  return stats;
}

BuildStats HnswIndex::Extend(std::size_t new_count) {
  GASS_CHECK_MSG(data_ != nullptr, "Extend before Build");
  GASS_CHECK(new_count <= data_->size());
  GASS_CHECK(new_count >= inserted_);
  core::Timer timer;
  // Inserts rewrite layer-0 lists in place, so a sealed index first
  // expands back into slots; both forms coexist until that copy is done.
  const std::size_t sealed_bytes =
      graph_.sealed() ? graph_.sealed_base().MemoryBytes() : 0;
  graph_.Unseal();
  DistanceComputer dc(*data_);
  for (VectorId v = static_cast<VectorId>(inserted_); v < new_count; ++v) {
    InsertNode(dc, v);
  }
  BuildStats stats;
  stats.elapsed_seconds = timer.Seconds();
  stats.distance_computations = dc.count();
  stats.index_bytes = IndexBytes();
  stats.peak_bytes = stats.index_bytes + sealed_bytes;
  return stats;
}

SearchResult HnswIndex::Search(const float* query,
                               const SearchParams& params) {
  return SearchWith(query, params, visited_.get());
}

SearchResult HnswIndex::Search(const float* query, const SearchParams& params,
                               SearchContext* ctx) const {
  return SearchWith(query, params, &ctx->visited);
}

SearchResult HnswIndex::SearchWith(const float* query,
                                   const SearchParams& params,
                                   core::VisitedTable* visited) const {
  GASS_CHECK_MSG(data_ != nullptr, "Search before Build");
  SearchResult result;
  core::Timer timer;
  DistanceComputer dc(*data_);

  // SN seed selection: descend to layer 1's best node; it and its layer-1
  // neighborhood seed the base-layer beam search.
  const VectorId node = DescendToLayer(dc, query, graph_.num_layers(), 0);
  std::vector<VectorId> seeds{node};
  if (graph_.num_layers() > 0) {
    const core::PackedIds ids = graph_.upper(1).Neighbors(node);
    for (std::size_t i = 0; i < ids.size() && seeds.size() < params.num_seeds;
         ++i) {
      seeds.push_back(ids[i]);
    }
  }

  result.neighbors = graph_.VisitBase([&](const auto& base) {
    return core::BeamSearch(base, dc, query, seeds, params.k,
                            EffectiveBeamWidth(params), visited,
                            &result.stats, params.prune_bound,
                            params.deadline, params.tombstones,
                            params.global_ids);
  });
  result.stats.distance_computations = dc.count();
  result.stats.elapsed_seconds = timer.Seconds();
  return result;
}

std::uint64_t HnswIndex::ParamsFingerprint() const {
  io::Encoder enc;
  EncodeParams(&enc, params_);
  return FingerprintBytes(enc);
}

core::Status HnswIndex::SaveSections(io::SnapshotWriter* writer,
                                     const std::string& prefix) const {
  io::Encoder meta;
  meta.U32(entry_);
  meta.U32(entry_level_);
  meta.U64(inserted_);
  meta.U64(graph_.num_layers());
  meta.VecU32(graph_.levels());
  GASS_RETURN_IF_ERROR(writer->AddSection(prefix + "meta", std::move(meta)));

  io::Encoder base;
  graph_.EncodeLayer(0, &base);
  GASS_RETURN_IF_ERROR(writer->AddSection(prefix + "base", std::move(base)));

  io::Encoder layers;
  for (std::size_t l = 1; l <= graph_.num_layers(); ++l) {
    graph_.EncodeLayer(l, &layers);
  }
  return writer->AddSection(prefix + "layers", std::move(layers));
}

core::Status HnswIndex::LoadSections(const io::SnapshotReader& reader,
                                     const std::string& prefix,
                                     const core::Dataset& data) {
  const std::uint64_t n = data.size();
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "meta", &buffer, &dec));
  const std::uint32_t entry = dec.U32();
  const std::uint32_t entry_level = dec.U32();
  const std::uint64_t inserted = dec.U64();
  const std::uint64_t num_layers = dec.U64();
  std::vector<std::uint32_t> level;
  dec.VecU32(&level, n);
  if (!dec.ExpectEnd()) return dec.status();
  dec.Check(level.size() == n, "HNSW level table size mismatch");
  dec.Check(inserted <= n, "HNSW inserted count exceeds dataset size");
  dec.Check(num_layers <= (1ULL << 20), "implausible HNSW layer count");
  dec.Check(entry < n, "HNSW entry point out of range");
  dec.Check(entry_level == num_layers,
            "HNSW entry level differs from the layer count");
  if (!dec.ok()) return dec.status();
  // Every vertex's slots are sized by its level, so the levels must be
  // consistent before any list is placed: none above the stack, none on a
  // vertex not yet inserted, and the entry point on the top layer.
  for (std::uint64_t v = 0; v < n; ++v) {
    if (level[v] > num_layers) {
      dec.Check(false, "HNSW node level above layer stack");
      break;
    }
    if (v >= inserted && level[v] != 0) {
      dec.Check(false, "HNSW level set on an uninserted node");
      break;
    }
  }
  dec.Check(level[entry] == entry_level,
            "HNSW entry point's level differs from the entry level");
  if (!dec.ok()) return dec.status();

  HnswGraph graph;
  graph.Reset(n, params_.m);
  for (VectorId v = 0; v < n; ++v) graph.AddLevels(v, level[v]);

  GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "base", &buffer, &dec));
  GASS_RETURN_IF_ERROR(graph.DecodeLayer(&dec, 0));
  if (!dec.ExpectEnd()) return dec.status();

  GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "layers", &buffer, &dec));
  for (std::uint64_t l = 1; l <= num_layers; ++l) {
    GASS_RETURN_IF_ERROR(graph.DecodeLayer(&dec, l));
  }
  if (!dec.ExpectEnd()) return dec.status();
  graph.Seal();  // Layer 0 decoded sealed; this trims the upper buffer.

  graph_ = std::move(graph);
  entry_ = entry;
  entry_level_ = entry_level;
  inserted_ = inserted;
  data_ = &data;
  visited_ = std::make_unique<core::VisitedTable>(data.size());
  // Replay the level stream (one draw per inserted node) so a later
  // Extend() continues exactly where the saved build left off.
  level_rng_ = std::make_unique<core::Rng>(params_.seed);
  for (std::uint64_t i = 0; i < inserted_; ++i) level_rng_->UniformDouble();
  return core::Status::Ok();
}

std::size_t HnswIndex::IndexBytes() const { return graph_.MemoryBytes(); }

}  // namespace gass::methods
