// NSG — Navigating Spreading-out Graph (Fu et al. 2019).
//
// Builds an EFANNA base graph, then for every node runs a beam search from
// the medoid over the base graph, uses the *visited* node set as the
// candidate list, prunes it with RND, and installs bidirectional edges.
// A DFS-tree pass finally repairs connectivity from the medoid. Queries
// start from the medoid augmented with random seeds (MD + KS).

#ifndef GASS_METHODS_NSG_INDEX_H_
#define GASS_METHODS_NSG_INDEX_H_

#include "knngraph/nndescent.h"
#include "methods/graph_index.h"

namespace gass::methods {

struct NsgParams {
  knngraph::NnDescentParams nndescent;  ///< Base-graph parameters.
  std::size_t num_trees = 4;            ///< EFANNA forest size.
  std::size_t tree_leaf_size = 32;
  std::size_t init_candidates = 30;
  std::size_t max_degree = 24;          ///< R.
  std::size_t build_beam_width = 128;   ///< L of the per-node search.
  std::uint64_t seed = 42;
};

class NsgIndex : public SingleGraphIndex {
 public:
  explicit NsgIndex(const NsgParams& params) : params_(params) {}

  std::string Name() const override { return "NSG"; }

  core::VectorId medoid() const { return medoid_; }

  std::uint64_t ParamsFingerprint() const override;

 private:
  core::Graph BuildGraph(core::DistanceComputer& dc,
                         std::size_t* transient_bytes) override;
  core::Status SaveAux(io::SnapshotWriter* writer,
                       const std::string& prefix) const override;
  core::Status LoadAux(const io::SnapshotReader& reader,
                       const std::string& prefix) override;

  NsgParams params_;
  core::VectorId medoid_ = 0;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_NSG_INDEX_H_
