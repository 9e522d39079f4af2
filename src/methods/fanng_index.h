// FANNG — Fast Approximate Nearest Neighbour Graphs (Harwood & Drummond
// 2016). Part of the paper's survey; excluded from its timed evaluation for
// suboptimal performance (Section 4.1), implemented here to complete the
// taxonomy.
//
// Construction: rich per-node candidate lists (NNDescent) are pruned with
// the occlusion rule — identical geometry to RND — and then the graph is
// trained by "traverse-and-add": dataset points act as queries for greedy
// walks from random starts, and whenever a walk gets stuck before reaching
// the target point itself, an escape edge (stuck node → target) is added
// and the stuck node's list re-pruned. Queries use KS seeding.

#ifndef GASS_METHODS_FANNG_INDEX_H_
#define GASS_METHODS_FANNG_INDEX_H_

#include "knngraph/nndescent.h"
#include "methods/graph_index.h"

namespace gass::methods {

struct FanngParams {
  knngraph::NnDescentParams nndescent;  ///< Candidate-list construction.
  std::size_t max_degree = 24;          ///< Occlusion-rule degree bound.
  /// Traverse-and-add training walks, as a multiple of n (the original
  /// trains until convergence; a small multiple captures most escapes).
  double training_walks_per_node = 0.5;
  std::size_t max_walk_hops = 128;
  std::uint64_t seed = 42;
};

class FanngIndex : public SingleGraphIndex {
 public:
  explicit FanngIndex(const FanngParams& params) : params_(params) {}

  std::string Name() const override { return "FANNG"; }

  /// Escape edges added by traverse-and-add in the last Build.
  std::size_t escape_edges() const { return escape_edges_; }

  std::uint64_t ParamsFingerprint() const override;

 private:
  core::Graph BuildGraph(core::DistanceComputer& dc,
                         std::size_t* transient_bytes) override;
  core::Status LoadAux(const io::SnapshotReader& reader,
                       const std::string& prefix) override;

  FanngParams params_;
  std::size_t escape_edges_ = 0;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_FANNG_INDEX_H_
