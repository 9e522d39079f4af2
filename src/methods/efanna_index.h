// EFANNA (Fu & Cai 2016) — Neighborhood Propagation seeded by trees: initial
// neighbor candidates are harvested from randomized truncated K-D trees,
// refined with NNDescent, and the same trees provide KD seed selection at
// query time.

#ifndef GASS_METHODS_EFANNA_INDEX_H_
#define GASS_METHODS_EFANNA_INDEX_H_

#include "knngraph/nndescent.h"
#include "methods/graph_index.h"
#include "trees/kd_tree.h"

namespace gass::methods {

struct EfannaParams {
  knngraph::NnDescentParams nndescent;
  std::size_t num_trees = 4;
  std::size_t tree_leaf_size = 32;
  /// Candidates harvested per node from the forest to initialize NNDescent.
  std::size_t init_candidates = 30;
  std::uint64_t seed = 42;
};

class EfannaIndex : public SingleGraphIndex {
 public:
  explicit EfannaIndex(const EfannaParams& params) : params_(params) {}

  std::string Name() const override { return "EFANNA"; }
  std::uint64_t ParamsFingerprint() const override;

 private:
  core::Graph BuildGraph(core::DistanceComputer& dc,
                         std::size_t* transient_bytes) override;
  core::Status SaveAux(io::SnapshotWriter* writer,
                       const std::string& prefix) const override;
  core::Status LoadAux(const io::SnapshotReader& reader,
                       const std::string& prefix) override;

  EfannaParams params_;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_EFANNA_INDEX_H_
