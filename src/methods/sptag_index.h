// SPTAG (Chen et al., Microsoft) — Divide-and-Conquer + RND.
//
// The dataset is partitioned several times with TP trees; an *exact* k-NN
// graph is built inside every leaf and the per-leaf graphs are merged into
// one global graph, which is then RND-refined per node. Seed selection uses
// either randomized K-D trees (SPTAG-KDT) or a balanced k-means tree
// (SPTAG-BKT). The repeated exact per-leaf graphs are what make SPTAG's
// indexing cost grow steeply with n — the scalability wall in the paper's
// Fig. 7.

#ifndef GASS_METHODS_SPTAG_INDEX_H_
#define GASS_METHODS_SPTAG_INDEX_H_

#include "methods/graph_index.h"
#include "trees/tp_tree.h"

namespace gass::methods {

/// Which seed structure the SPTAG variant builds.
enum class SptagSeedTree { kKdt, kBkt };

struct SptagParams {
  std::size_t num_partitions = 4;  ///< Independent TP-tree divisions.
  trees::TpTreeParams tp_tree;     ///< leaf_size controls partition grain.
  std::size_t leaf_knn = 12;       ///< k of the per-leaf exact graph.
  std::size_t max_degree = 32;     ///< RND degree bound after merging.
  SptagSeedTree seed_tree = SptagSeedTree::kBkt;
  std::size_t kd_num_trees = 4;
  std::size_t bkt_branching = 8;
  std::uint64_t seed = 42;
};

class SptagIndex : public SingleGraphIndex {
 public:
  explicit SptagIndex(const SptagParams& params) : params_(params) {}

  std::string Name() const override {
    return params_.seed_tree == SptagSeedTree::kBkt ? "SPTAG-BKT"
                                                    : "SPTAG-KDT";
  }
  std::uint64_t ParamsFingerprint() const override;

 private:
  core::Graph BuildGraph(core::DistanceComputer& dc,
                         std::size_t* transient_bytes) override;
  core::Status SaveAux(io::SnapshotWriter* writer,
                       const std::string& prefix) const override;
  core::Status LoadAux(const io::SnapshotReader& reader,
                       const std::string& prefix) override;

  SptagParams params_;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_SPTAG_INDEX_H_
