// Vamana (Subramanya et al. 2019, DiskANN's in-memory graph).
//
// Starts from a random regular graph (degree ≥ log n for connectivity),
// then refines every node in two rounds: a beam search from the medoid
// collects the visited set, which is pruned with RRND — α = 1 in the first
// round (i.e. plain RND) and α > 1 in the second to add relaxed long-range
// edges — and bidirectional edges are installed with RND re-pruning on
// overflow. Queries start from the medoid plus random seeds (MD + KS).

#ifndef GASS_METHODS_VAMANA_INDEX_H_
#define GASS_METHODS_VAMANA_INDEX_H_

#include "methods/graph_index.h"

namespace gass::methods {

struct VamanaParams {
  std::size_t max_degree = 32;        ///< R.
  std::size_t build_beam_width = 128; ///< L.
  float alpha = 1.2f;                 ///< Second-round relaxation.
  std::uint64_t seed = 42;
};

class VamanaIndex : public SingleGraphIndex {
 public:
  explicit VamanaIndex(const VamanaParams& params) : params_(params) {}

  std::string Name() const override { return "Vamana"; }

  core::VectorId medoid() const { return medoid_; }

  std::uint64_t ParamsFingerprint() const override;

 private:
  core::Graph BuildGraph(core::DistanceComputer& dc,
                         std::size_t* transient_bytes) override;
  core::Status SaveAux(io::SnapshotWriter* writer,
                       const std::string& prefix) const override;
  core::Status LoadAux(const io::SnapshotReader& reader,
                       const std::string& prefix) override;

  void RefinePass(core::DistanceComputer& dc, float alpha,
                  const std::vector<core::VectorId>& order,
                  core::Graph* graph);

  VamanaParams params_;
  core::VectorId medoid_ = 0;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_VAMANA_INDEX_H_
