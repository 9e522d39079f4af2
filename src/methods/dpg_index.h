// DPG — Diversified Proximity Graph (Li et al. 2019).
//
// Extends KGraph: an NNDescent k-NN graph is diversified per node with MOND
// (angle-maximizing pruning, which DPG introduced), then made undirected to
// restore connectivity. Queries use KS seeding.

#ifndef GASS_METHODS_DPG_INDEX_H_
#define GASS_METHODS_DPG_INDEX_H_

#include "knngraph/nndescent.h"
#include "methods/graph_index.h"

namespace gass::methods {

struct DpgParams {
  knngraph::NnDescentParams nndescent;  ///< Base list size (2·target is usual).
  std::size_t max_degree = 16;          ///< Kept per node after MOND.
  float theta_degrees = 60.0f;
  std::uint64_t seed = 42;
};

class DpgIndex : public SingleGraphIndex {
 public:
  explicit DpgIndex(const DpgParams& params) : params_(params) {}

  std::string Name() const override { return "DPG"; }
  std::uint64_t ParamsFingerprint() const override;

 private:
  core::Graph BuildGraph(core::DistanceComputer& dc,
                         std::size_t* transient_bytes) override;
  core::Status LoadAux(const io::SnapshotReader& reader,
                       const std::string& prefix) override;

  DpgParams params_;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_DPG_INDEX_H_
