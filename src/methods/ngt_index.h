// NGT-style index (Yahoo Japan; the bi-directed k-NN-graph construction of
// Iwasaki 2016 that the paper evaluates): an NNDescent k-NN graph is given
// reverse edges (bi-directed KNNG), pruned per node with RND, and seeded at
// query time from a Vantage-Point tree.

#ifndef GASS_METHODS_NGT_INDEX_H_
#define GASS_METHODS_NGT_INDEX_H_

#include "knngraph/nndescent.h"
#include "methods/graph_index.h"

namespace gass::methods {

struct NgtParams {
  knngraph::NnDescentParams nndescent;
  std::size_t max_degree = 24;     ///< Degree bound after RND pruning.
  std::size_t vp_seed_visits = 64; ///< VP-tree node-visit budget per query.
  std::uint64_t seed = 42;
};

class NgtIndex : public SingleGraphIndex {
 public:
  explicit NgtIndex(const NgtParams& params) : params_(params) {}

  std::string Name() const override { return "NGT"; }
  std::uint64_t ParamsFingerprint() const override;

 private:
  core::Graph BuildGraph(core::DistanceComputer& dc,
                         std::size_t* transient_bytes) override;
  core::Status SaveAux(io::SnapshotWriter* writer,
                       const std::string& prefix) const override;
  core::Status LoadAux(const io::SnapshotReader& reader,
                       const std::string& prefix) override;

  NgtParams params_;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_NGT_INDEX_H_
