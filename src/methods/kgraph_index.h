// KGraph (Dong et al.) — the original Neighborhood Propagation method: an
// approximate k-NN graph produced by NNDescent over a random initial graph,
// searched with KS (random) seeding.

#ifndef GASS_METHODS_KGRAPH_INDEX_H_
#define GASS_METHODS_KGRAPH_INDEX_H_

#include "knngraph/nndescent.h"
#include "methods/graph_index.h"

namespace gass::methods {

struct KgraphParams {
  knngraph::NnDescentParams nndescent;  ///< k is the graph out-degree.
  std::uint64_t seed = 42;
};

class KgraphIndex : public SingleGraphIndex {
 public:
  explicit KgraphIndex(const KgraphParams& params) : params_(params) {}

  std::string Name() const override { return "KGraph"; }
  std::uint64_t ParamsFingerprint() const override;

 private:
  core::Graph BuildGraph(core::DistanceComputer& dc,
                         std::size_t* transient_bytes) override;
  core::Status LoadAux(const io::SnapshotReader& reader,
                       const std::string& prefix) override;

  KgraphParams params_;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_KGRAPH_INDEX_H_
