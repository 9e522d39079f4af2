// SSG — Satellite System Graph (Fu et al. 2021).
//
// Follows NSG's refine-a-base-graph recipe but (a) gathers candidates by
// *local expansion* (breadth-first over the base graph's 2-hop
// neighborhood) instead of a per-node beam search, (b) prunes with MOND
// (angle threshold θ), and (c) repairs connectivity with multiple DFS trees
// rooted at random nodes. Queries use KS seeding.

#ifndef GASS_METHODS_SSG_INDEX_H_
#define GASS_METHODS_SSG_INDEX_H_

#include "knngraph/nndescent.h"
#include "methods/graph_index.h"

namespace gass::methods {

struct SsgParams {
  knngraph::NnDescentParams nndescent;
  std::size_t num_trees = 4;
  std::size_t tree_leaf_size = 32;
  std::size_t init_candidates = 30;
  std::size_t max_degree = 24;     ///< R.
  float theta_degrees = 60.0f;     ///< MOND angle.
  std::size_t expansion_limit = 200;  ///< Max candidates per local expansion.
  std::size_t num_dfs_roots = 4;   ///< Connectivity-repair trees.
  std::uint64_t seed = 42;
};

class SsgIndex : public SingleGraphIndex {
 public:
  explicit SsgIndex(const SsgParams& params) : params_(params) {}

  std::string Name() const override { return "SSG"; }
  std::uint64_t ParamsFingerprint() const override;

 private:
  core::Graph BuildGraph(core::DistanceComputer& dc,
                         std::size_t* transient_bytes) override;
  core::Status LoadAux(const io::SnapshotReader& reader,
                       const std::string& prefix) override;

  SsgParams params_;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_SSG_INDEX_H_
