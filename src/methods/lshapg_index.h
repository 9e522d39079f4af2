// LSHAPG (Zhao et al. 2023) — an HNSW base-layer graph whose beam searches
// are seeded from L LSB-style LSH tables instead of the hierarchical
// descent, with *probabilistic routing*: during expansion a neighbor's cheap
// projected distance is tested first, and only candidates whose projection
// passes the current pruning bound are evaluated exactly (which can discard
// promising neighbors — the accuracy cost the paper observes).

#ifndef GASS_METHODS_LSHAPG_INDEX_H_
#define GASS_METHODS_LSHAPG_INDEX_H_

#include <memory>

#include "hash/lsh.h"
#include "methods/graph_index.h"
#include "methods/hnsw_index.h"

namespace gass::methods {

struct LshApgParams {
  HnswParams hnsw;           ///< Base-graph construction.
  hash::LshParams lsh;       ///< Seed tables + projection.
  /// Projected-distance pruning slack: a neighbor is evaluated exactly only
  /// if projected_dist < routing_beta × current worst pool distance. Set
  /// large (or +inf) to disable probabilistic routing.
  float routing_beta = 2.0f;
  std::uint64_t seed = 42;
};

class LshApgIndex : public SingleGraphIndex {
 public:
  explicit LshApgIndex(const LshApgParams& params) : params_(params) {}

  std::string Name() const override { return "LSHAPG"; }
  SearchResult Search(const float* query, const SearchParams& params) override;
  SearchResult Search(const float* query, const SearchParams& params,
                      SearchContext* ctx) const override;
  std::uint64_t ParamsFingerprint() const override;

 private:
  core::Graph BuildGraph(core::DistanceComputer& dc,
                         std::size_t* transient_bytes) override;
  core::Status SaveAux(io::SnapshotWriter* writer,
                       const std::string& prefix) const override;
  core::Status LoadAux(const io::SnapshotReader& reader,
                       const std::string& prefix) override;

  /// LSH-seeded beam search with probabilistic routing. `rng` null = the
  /// selector's serial stream (see SingleGraphIndex::SearchWith).
  SearchResult SearchRouted(const float* query, const SearchParams& params,
                            core::VisitedTable* visited,
                            core::Rng* rng) const;

  LshApgParams params_;
  std::shared_ptr<const hash::LshIndex> lsh_;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_LSHAPG_INDEX_H_
