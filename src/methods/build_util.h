// Shared construction helpers for the method implementations.

#ifndef GASS_METHODS_BUILD_UTIL_H_
#define GASS_METHODS_BUILD_UTIL_H_

#include <algorithm>
#include <vector>

#include "core/distance.h"
#include "core/graph.h"
#include "core/neighbor.h"
#include "diversify/diversify.h"

namespace gass::methods {

/// Appends (u, dc.Between(v, u)) for every u in [ids, ids + n) to `scored`,
/// evaluating distances through the batched kernels with rows prefetched
/// ahead of the compute. Same count and bit-identical distances as the
/// per-neighbor loop it replaces.
inline void AppendScored(core::DistanceComputer& dc, core::VectorId v,
                         const core::VectorId* ids, std::size_t n,
                         std::vector<core::Neighbor>* scored) {
  constexpr std::size_t kChunk = core::DistanceComputer::kBatchChunk;
  float dist[kChunk];
  std::size_t done = 0;
  while (done < n) {
    const std::size_t m = n - done < kChunk ? n - done : kChunk;
    for (std::size_t j = 0; j < m; ++j) dc.Prefetch(ids[done + j]);
    dc.BetweenBatch(v, ids + done, m, dist);
    for (std::size_t j = 0; j < m; ++j) {
      scored->emplace_back(ids[done + j], dist[j]);
    }
    done += m;
  }
}

/// Re-prunes the candidate list [ids, ids + count) of vertex `u` with
/// `prune`: scored (AppendScored), sorted by distance, then diversified.
inline std::vector<core::Neighbor> RePrune(
    core::DistanceComputer& dc, core::VectorId u, const core::VectorId* ids,
    std::size_t count, const diversify::Params& prune,
    diversify::PruneStats* stats = nullptr) {
  std::vector<core::Neighbor> candidates;
  candidates.reserve(count);
  AppendScored(dc, u, ids, count, &candidates);
  std::sort(candidates.begin(), candidates.end());
  return diversify::Diversify(dc, u, candidates, prune, stats);
}

/// Installs `kept` as v's neighbor list and adds the reverse edge to each
/// kept neighbor; a reverse list that overflows `prune.max_degree` is
/// re-pruned with the same ND strategy (the standard II/Vamana overflow
/// treatment).
inline void InstallBidirectional(core::DistanceComputer& dc,
                                 core::Graph* graph, core::VectorId v,
                                 const std::vector<core::Neighbor>& kept,
                                 const diversify::Params& prune,
                                 diversify::PruneStats* stats = nullptr) {
  auto& forward = graph->MutableNeighbors(v);
  forward.clear();
  for (const core::Neighbor& nb : kept) forward.push_back(nb.id);

  for (const core::Neighbor& nb : kept) {
    auto& back = graph->MutableNeighbors(nb.id);
    if (std::find(back.begin(), back.end(), v) != back.end()) continue;
    back.push_back(v);
    if (back.size() > prune.max_degree) {
      const std::vector<core::Neighbor> re_kept =
          RePrune(dc, nb.id, back.data(), back.size(), prune, stats);
      back.clear();
      for (const core::Neighbor& b : re_kept) back.push_back(b.id);
    }
  }
}

/// Truncates every neighbor list to its `max_degree` nearest (used by NoND
/// paths and final degree capping).
inline void CapDegrees(core::DistanceComputer& dc, core::Graph* graph,
                       std::size_t max_degree) {
  for (core::VectorId v = 0; v < graph->size(); ++v) {
    auto& list = graph->MutableNeighbors(v);
    if (list.size() <= max_degree) continue;
    std::vector<core::Neighbor> scored;
    scored.reserve(list.size());
    AppendScored(dc, v, list.data(), list.size(), &scored);
    std::sort(scored.begin(), scored.end());
    list.clear();
    for (std::size_t i = 0; i < max_degree; ++i) list.push_back(scored[i].id);
  }
}

}  // namespace gass::methods

#endif  // GASS_METHODS_BUILD_UTIL_H_
