// HNSW — Hierarchical Navigable Small World (Malkov & Yashunin 2020).
//
// Incremental Insertion + RND diversification + Stacked-NSW seed selection.
// Each node draws a maximum layer from Eq. 1; insertion descends greedily
// from the global entry point through layers above the node's level, then at
// every layer from the node's level down to 0 runs a beam search
// (ef_construction wide), prunes the candidates with RND ("select neighbors
// by heuristic"), and installs bidirectional edges — overflowing lists are
// re-pruned with RND. Layer 0 allows 2·M neighbors (hnswlib's maxM0).
// Queries descend the layers greedily and beam-search layer 0.
//
// Every layer lives in one HnswGraph (methods/hnsw_graph.h). Inserts write
// fixed 2M- and M-id slots in place. A reverse edge that overflows its
// slot re-prunes the candidate list [old list..., v] — the same
// candidates, in the same order, that appending then pruning would see —
// so the graph is bit-identical to the adjacency-list build it replaced.
// Build() and every load then seal layer 0 into a CSR block about half the
// size of its slots; searches run on either form with identical answers
// and counters.
//
// Because construction is one-node-at-a-time, the index also supports
// streaming growth: BuildPrefix() indexes the first rows of a collection
// and Extend() inserts further rows later without a rebuild. Both leave
// layer 0 in slots (Extend first unseals a built or loaded index), so a
// growing index keeps its in-place inserts.

#ifndef GASS_METHODS_HNSW_INDEX_H_
#define GASS_METHODS_HNSW_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "methods/graph_index.h"
#include "methods/hnsw_graph.h"

namespace gass::methods {

struct HnswParams {
  std::size_t m = 16;                   ///< Out-degree bound (upper layers).
  std::size_t ef_construction = 100;    ///< Construction beam width.
  std::uint64_t seed = 42;
};

class HnswIndex : public GraphIndex {
 public:
  explicit HnswIndex(const HnswParams& params) : params_(params) {}

  std::string Name() const override { return "HNSW"; }

  /// Indexes all rows of `data`, then seals layer 0. `peak_bytes` counts
  /// the slots and the sealed copy together; `index_bytes` the sealed
  /// index.
  BuildStats Build(const core::Dataset& data) override;

  /// Indexes only rows [0, count); the rest can be added later with
  /// Extend(). `data` must already contain every row that will ever be
  /// inserted (rows beyond `count` are simply not indexed yet).
  BuildStats BuildPrefix(const core::Dataset& data, std::size_t count);

  /// Inserts rows [inserted_count(), new_count) into the index, unsealing
  /// layer 0 first if it is sealed.
  BuildStats Extend(std::size_t new_count);

  SearchResult Search(const float* query, const SearchParams& params) override;
  SearchResult Search(const float* query, const SearchParams& params,
                      SearchContext* ctx) const override;
  bool SupportsConcurrentSearch() const override { return true; }

  /// Layer 0 materialized as an adjacency-list graph (a copy; see
  /// HnswGraph::ToGraph). Searches run on layered_graph() directly.
  core::Graph graph() const override { return graph_.ToGraph(0); }
  std::size_t IndexBytes() const override;

  /// The graph holding every layer.
  const HnswGraph& layered_graph() const { return graph_; }
  std::size_t num_layers() const { return graph_.num_layers(); }
  core::VectorId entry_point() const { return entry_; }
  std::size_t inserted_count() const { return inserted_; }

  std::uint64_t ParamsFingerprint() const override;
  core::Status SaveSections(io::SnapshotWriter* writer,
                            const std::string& prefix) const override;
  core::Status LoadSections(const io::SnapshotReader& reader,
                            const std::string& prefix,
                            const core::Dataset& data) override;

 private:
  /// Greedy descent from the entry point through layers `from_layer` down
  /// to `target` + 1 → returns the entry for layer `target`.
  core::VectorId DescendToLayer(core::DistanceComputer& dc,
                                const float* query, std::size_t from_layer,
                                std::size_t target) const;

  /// Shared implementation behind both Search overloads; the descent is
  /// deterministic, so only the visited table varies per caller.
  SearchResult SearchWith(const float* query, const SearchParams& params,
                          core::VisitedTable* visited) const;

  void InsertNode(core::DistanceComputer& dc, core::VectorId v);

  HnswParams params_;
  HnswGraph graph_;  ///< Layers 0..top and each vertex's level.
  core::VectorId entry_ = 0;
  std::uint32_t entry_level_ = 0;
  std::size_t inserted_ = 0;
  std::unique_ptr<core::Rng> level_rng_;
  std::unique_ptr<core::VisitedTable> visited_;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_HNSW_INDEX_H_
