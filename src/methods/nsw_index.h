// NSW — Navigable Small World (Ponomarenko et al. 2011, Malkov et al. 2014).
//
// Pure Incremental Insertion: each node is connected bidirectionally to the
// `max_degree` nearest nodes found by a beam search on the partial graph,
// with *no* neighborhood diversification. Early-inserted edges survive as
// long-range links, giving the small-world navigability. Queries use KS
// seeding (random restarts), as in the original method.

#ifndef GASS_METHODS_NSW_INDEX_H_
#define GASS_METHODS_NSW_INDEX_H_

#include <cstdint>

#include "methods/graph_index.h"

namespace gass::methods {

struct NswParams {
  std::size_t max_degree = 16;        ///< Friends per insertion (paper: 2d+1).
  std::size_t build_beam_width = 64;
  std::size_t degree_cap = 64;        ///< Hard cap on grown in-degrees.
  std::uint64_t seed = 42;
};

class NswIndex : public SingleGraphIndex {
 public:
  explicit NswIndex(const NswParams& params) : params_(params) {}

  std::string Name() const override { return "NSW"; }
  std::uint64_t ParamsFingerprint() const override;

 private:
  core::Graph BuildGraph(core::DistanceComputer& dc,
                         std::size_t* transient_bytes) override;
  core::Status LoadAux(const io::SnapshotReader& reader,
                       const std::string& prefix) override;

  NswParams params_;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_NSW_INDEX_H_
