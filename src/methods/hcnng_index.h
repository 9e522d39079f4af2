// HCNNG — Hierarchical Clustering-based Nearest Neighbor Graph (Munoz et
// al. 2019): Divide-and-Conquer without diversification.
//
// The dataset is divided `num_clusterings` times by random hierarchical
// bisection; a degree-capped exact Minimum Spanning Tree is computed inside
// every leaf (Kruskal, per-node degree ≤ 3 as in the original), and the MST
// edges of all clusterings are unioned into one undirected graph. K-D trees
// provide query seeds.

#ifndef GASS_METHODS_HCNNG_INDEX_H_
#define GASS_METHODS_HCNNG_INDEX_H_

#include "methods/graph_index.h"

namespace gass::methods {

struct HcnngParams {
  std::size_t num_clusterings = 8;
  std::size_t leaf_size = 200;
  std::size_t mst_degree_cap = 3;
  std::size_t kd_num_trees = 4;
  std::uint64_t seed = 42;
};

class HcnngIndex : public SingleGraphIndex {
 public:
  explicit HcnngIndex(const HcnngParams& params) : params_(params) {}

  std::string Name() const override { return "HCNNG"; }
  std::uint64_t ParamsFingerprint() const override;

 private:
  core::Graph BuildGraph(core::DistanceComputer& dc,
                         std::size_t* transient_bytes) override;
  core::Status SaveAux(io::SnapshotWriter* writer,
                       const std::string& prefix) const override;
  core::Status LoadAux(const io::SnapshotReader& reader,
                       const std::string& prefix) override;

  HcnngParams params_;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_HCNNG_INDEX_H_
