#include "methods/graph_index.h"

#include "core/beam_search.h"
#include "core/macros.h"

namespace gass::methods {

const char* ServeOutcomeName(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kFull: return "full";
    case ServeOutcome::kDegraded: return "degraded";
    case ServeOutcome::kExpired: return "expired";
    case ServeOutcome::kRejected: return "rejected";
  }
  return "unknown";
}

SearchResult GraphIndex::Search(const float* query, const SearchParams& params,
                                SearchContext* ctx) const {
  (void)query;
  (void)params;
  (void)ctx;
  GASS_CHECK_MSG(false, "%s does not support concurrent (context) search",
                 Name().c_str());
  return SearchResult{};
}

SearchContext GraphIndex::MakeSearchContext(std::uint64_t seed) const {
  GASS_CHECK_MSG(data_ != nullptr, "MakeSearchContext before Build");
  return SearchContext(data_->size(), seed);
}

BuildStats SingleGraphIndex::Build(const core::Dataset& data) {
  GASS_CHECK(!data.empty());
  data_ = &data;
  visited_ = std::make_unique<core::VisitedTable>(data.size());
  core::Timer timer;
  core::DistanceComputer dc(data);
  std::size_t transient_bytes = 0;
  const core::Graph graph = BuildGraph(dc, &transient_bytes);
  graph_ = core::FlatGraph::FromGraph(graph);

  BuildStats stats;
  stats.elapsed_seconds = timer.Seconds();
  stats.distance_computations = dc.count();
  stats.index_bytes = IndexBytes();
  // The peak: the build's transient structures and its mutable graph
  // beside the sealed copy made from it and the seed structures.
  stats.peak_bytes = transient_bytes + graph.MemoryBytes() + stats.index_bytes;
  return stats;
}

SearchResult SingleGraphIndex::Search(const float* query,
                                      const SearchParams& params) {
  // Serial path: the index-owned visited table plus the selector's internal
  // RNG stream (null rng), preserving historic seeded reproducibility.
  return SearchWith(query, params, visited_.get(), nullptr);
}

SearchResult SingleGraphIndex::Search(const float* query,
                                      const SearchParams& params,
                                      SearchContext* ctx) const {
  return SearchWith(query, params, &ctx->visited, &ctx->rng);
}

SearchResult SingleGraphIndex::SearchWith(const float* query,
                                          const SearchParams& params,
                                          core::VisitedTable* visited,
                                          core::Rng* rng) const {
  GASS_CHECK_MSG(data_ != nullptr, "Search before Build");
  GASS_CHECK(seed_selector_ != nullptr);
  SearchResult result;
  core::Timer timer;
  core::DistanceComputer dc(*data_);
  const std::vector<core::VectorId> seeds =
      rng != nullptr ? seed_selector_->Select(dc, query, params.num_seeds, rng)
                     : seed_selector_->Select(dc, query, params.num_seeds);
  result.neighbors = core::BeamSearch(
      graph_, dc, query, seeds, params.k, EffectiveBeamWidth(params), visited,
      &result.stats, params.prune_bound, params.deadline, params.tombstones,
      params.global_ids);
  result.stats.distance_computations = dc.count();
  result.stats.elapsed_seconds = timer.Seconds();
  result.degrade_step = params.degrade_step;
  return result;
}

core::Graph SingleGraphIndex::graph() const {
  core::Graph graph(graph_.size());
  for (core::VectorId v = 0; v < graph_.size(); ++v) {
    const core::PackedIds ids = graph_.Neighbors(v);
    for (std::size_t i = 0; i < ids.size(); ++i) graph.AddEdge(v, ids[i]);
  }
  return graph;
}

std::size_t SingleGraphIndex::IndexBytes() const {
  std::size_t total = graph_.MemoryBytes();
  if (seed_selector_ != nullptr) total += seed_selector_->MemoryBytes();
  return total;
}

core::Status GraphIndex::SaveSections(io::SnapshotWriter* writer,
                                      const std::string& prefix) const {
  (void)writer;
  (void)prefix;
  return core::Status::Unimplemented(Name() + " does not support snapshots");
}

core::Status GraphIndex::LoadSections(const io::SnapshotReader& reader,
                                      const std::string& prefix,
                                      const core::Dataset& data) {
  (void)reader;
  (void)prefix;
  (void)data;
  return core::Status::Unimplemented(Name() + " does not support snapshots");
}

core::Status SingleGraphIndex::SaveSections(io::SnapshotWriter* writer,
                                            const std::string& prefix) const {
  io::Encoder enc;
  io::EncodeGraph(graph_, &enc);
  GASS_RETURN_IF_ERROR(writer->AddSection(prefix + "graph", std::move(enc)));
  return SaveAux(writer, prefix);
}

core::Status SingleGraphIndex::LoadSections(const io::SnapshotReader& reader,
                                            const std::string& prefix,
                                            const core::Dataset& data) {
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "graph", &buffer, &dec));
  GASS_RETURN_IF_ERROR(io::DecodeGraph(&dec, data.size(), &graph_));
  if (!dec.ExpectEnd()) return dec.status();
  data_ = &data;
  visited_ = std::make_unique<core::VisitedTable>(data.size());
  return LoadAux(reader, prefix);
}

core::Status SingleGraphIndex::SaveAux(io::SnapshotWriter* writer,
                                       const std::string& prefix) const {
  (void)writer;
  (void)prefix;
  return core::Status::Ok();
}

core::Status SingleGraphIndex::LoadAux(const io::SnapshotReader& reader,
                                       const std::string& prefix) {
  (void)reader;
  (void)prefix;
  return core::Status::Unimplemented(Name() +
                                     " does not restore seed structures");
}

core::Status SaveIndex(const GraphIndex& index, const std::string& path) {
  if (index.data() == nullptr) {
    return core::Status::InvalidArgument("cannot save an unbuilt " +
                                         index.Name() + " index");
  }
  io::SnapshotWriter writer(index.Name(), index.ParamsFingerprint(),
                            index.data()->size(), index.data()->dim());
  GASS_RETURN_IF_ERROR(index.SaveSections(&writer, ""));
  return writer.WriteTo(path);
}

core::Status LoadIndex(GraphIndex* index, const core::Dataset& data,
                       const std::string& path) {
  io::SnapshotReader reader;
  GASS_RETURN_IF_ERROR(io::SnapshotReader::Open(path, &reader));
  return LoadIndexFrom(index, data, reader);
}

core::Status SerializeIndex(const GraphIndex& index,
                            std::vector<std::uint8_t>* out) {
  if (index.data() == nullptr) {
    return core::Status::InvalidArgument("cannot serialize an unbuilt " +
                                         index.Name() + " index");
  }
  io::SnapshotWriter writer(index.Name(), index.ParamsFingerprint(),
                            index.data()->size(), index.data()->dim());
  GASS_RETURN_IF_ERROR(index.SaveSections(&writer, ""));
  return writer.ToBytes(out);
}

core::Status SnapshotImage(const GraphIndex& index, io::SnapshotReader* out) {
  std::vector<std::uint8_t> bytes;
  GASS_RETURN_IF_ERROR(SerializeIndex(index, &bytes));
  return io::SnapshotReader::OpenBytes(
      std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes)),
      "in-memory " + index.Name() + " image", out);
}

core::Status CheckSnapshotHeader(const GraphIndex& index,
                                 const core::Dataset& data,
                                 const io::SnapshotReader& reader) {
  const std::string& path = reader.path();
  if (reader.method() != index.Name()) {
    return core::Status::InvalidArgument(path + ": snapshot holds a " +
                                         reader.method() +
                                         " index, cannot load into " +
                                         index.Name());
  }
  if (reader.params_fingerprint() != index.ParamsFingerprint()) {
    return core::Status::InvalidArgument(
        path + ": snapshot was built with different " + index.Name() +
        " parameters (fingerprint mismatch)");
  }
  if (reader.data_n() != data.size() || reader.data_dim() != data.dim()) {
    return core::Status::InvalidArgument(
        path + ": snapshot was built over a " +
        std::to_string(reader.data_n()) + "x" +
        std::to_string(reader.data_dim()) + " dataset, got " +
        std::to_string(data.size()) + "x" + std::to_string(data.dim()));
  }
  return core::Status::Ok();
}

core::Status LoadIndexFrom(GraphIndex* index, const core::Dataset& data,
                           const io::SnapshotReader& reader) {
  GASS_RETURN_IF_ERROR(CheckSnapshotHeader(*index, data, reader));
  return index->LoadSections(reader, "", data);
}

}  // namespace gass::methods
