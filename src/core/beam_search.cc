#include "core/beam_search.h"

namespace gass::core {

// Explicit instantiations keep the common cases out of every client TU.
template std::vector<Neighbor> BeamSearch<Graph>(
    const Graph&, DistanceComputer&, const float*,
    const std::vector<VectorId>&, std::size_t, std::size_t, VisitedTable*,
    SearchStats*, float, const Deadline*, const TombstoneSet*,
    const VectorId*);
template std::vector<Neighbor> BeamSearch<FlatGraph>(
    const FlatGraph&, DistanceComputer&, const float*,
    const std::vector<VectorId>&, std::size_t, std::size_t, VisitedTable*,
    SearchStats*, float, const Deadline*, const TombstoneSet*,
    const VectorId*);
template std::vector<Neighbor> BeamSearchCollect<Graph>(
    const Graph&, DistanceComputer&, const float*,
    const std::vector<VectorId>&, std::size_t, std::size_t, VisitedTable*,
    std::vector<Neighbor>*, SearchStats*);
template std::vector<Neighbor> BeamSearchCollect<FlatGraph>(
    const FlatGraph&, DistanceComputer&, const float*,
    const std::vector<VectorId>&, std::size_t, std::size_t, VisitedTable*,
    std::vector<Neighbor>*, SearchStats*);

}  // namespace gass::core
