// ELPIS (Azizi, Echihabi, Palpanas 2023) — Divide-and-Conquer + II + RND.
//
// The dataset is divided by a Hercules-style EAPCA tree into leaves; an HNSW
// graph is built on every leaf (in parallel). A query first searches the
// leaf with the smallest EAPCA lower bound; the k-th best-so-far distance
// then prunes every leaf whose lower bound exceeds it, and the surviving
// leaves (up to nprobe) are searched — optionally concurrently — with their
// results merged.
//
// ELPIS keeps the leaves as separate contiguous datasets (raw-vector
// duplication in exchange for locality), which is why its loaded search
// footprint exceeds its on-disk index size — the effect the paper notes in
// Fig. 10.

#ifndef GASS_METHODS_ELPIS_INDEX_H_
#define GASS_METHODS_ELPIS_INDEX_H_

#include <memory>
#include <vector>

#include "methods/graph_index.h"
#include "methods/hnsw_index.h"
#include "summaries/eapca_tree.h"

namespace gass::methods {

struct ElpisParams {
  summaries::EapcaTreeParams tree;  ///< Partitioning (leaf_size, segments).
  HnswParams leaf_hnsw;             ///< Per-leaf graph construction.
  std::size_t nprobe = 4;           ///< Max leaves searched per query.
  std::size_t search_threads = 1;   ///< Concurrent leaf searches.
  std::size_t build_threads = 0;    ///< 0 = hardware concurrency.
  std::uint64_t seed = 42;
};

class ElpisIndex : public GraphIndex {
 public:
  explicit ElpisIndex(const ElpisParams& params) : params_(params) {}

  std::string Name() const override { return "ELPIS"; }
  BuildStats Build(const core::Dataset& data) override;
  SearchResult Search(const float* query, const SearchParams& params) override;
  // Concurrent (SearchContext) search is NOT supported: each leaf is a
  // private HNSW sub-index whose query state lives inside the leaf, and the
  // coordinator threads leaf results through a shared pruning bound. Clone
  // the index per serving thread instead (see docs/SERVING.md).

  /// ELPIS has no single base graph.
  bool HasBaseGraph() const override { return false; }
  core::Graph graph() const override;
  std::size_t IndexBytes() const override;

  std::size_t num_leaves() const { return leaves_.size(); }
  /// Leaves whose lower bound survived pruning for the last query (for the
  /// nprobe ablation bench).
  std::size_t last_probed() const { return last_probed_; }

  std::uint64_t ParamsFingerprint() const override;
  core::Status SaveSections(io::SnapshotWriter* writer,
                            const std::string& prefix) const override;
  core::Status LoadSections(const io::SnapshotReader& reader,
                            const std::string& prefix,
                            const core::Dataset& data) override;

 private:
  struct Leaf {
    std::vector<core::VectorId> global_ids;
    core::Dataset data;
    std::unique_ptr<HnswIndex> index;
  };

  ElpisParams params_;
  std::unique_ptr<summaries::EapcaTree> tree_;
  std::vector<Leaf> leaves_;
  std::size_t last_probed_ = 0;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_ELPIS_INDEX_H_
