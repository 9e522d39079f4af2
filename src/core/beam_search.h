// Beam search (Algorithm 1 of the paper): the single query-answering routine
// shared by every graph-based method.
//
// The search warms a sorted fixed-capacity candidate pool of width L
// (BeamPool) with the seed nodes, then repeatedly expands the closest
// unexplored candidate, inserting its unvisited out-neighbors, until every
// candidate in the pool is explored. The best k candidates are returned.

#ifndef GASS_CORE_BEAM_SEARCH_H_
#define GASS_CORE_BEAM_SEARCH_H_

#include <cstddef>
#include <vector>

#include "core/deadline.h"
#include "core/distance.h"
#include "core/graph.h"
#include "core/neighbor.h"
#include "core/stats.h"
#include "core/tombstones.h"
#include "core/types.h"
#include "core/visited.h"

namespace gass::core {

namespace internal {

/// Result emission shared by BeamSearch overloads: the pool's best k
/// candidates, minus logically deleted ids. Tombstoned nodes still steer
/// the traversal (they stay in the graph as waypoints); they are only
/// barred from the answer, which fills up from the rest of the pool. With
/// deletions present the result holds fewer than k neighbors only when
/// the pool holds fewer than k live ones — the pool is not re-widened,
/// keeping the explored set (and therefore distance_computations/hops)
/// bit-identical to a tombstone-free search. `global_ids`, when given,
/// maps the pool's (shard-local) ids to the global ids `tombstones` is
/// keyed by. The null/empty path is the exact pre-delete code path.
inline std::vector<Neighbor> EmitTopK(const BeamPool& pool, std::size_t k,
                                      const TombstoneSet* tombstones,
                                      const VectorId* global_ids) {
  if (tombstones == nullptr || tombstones->empty()) return pool.TopK(k);
  std::vector<Neighbor> out;
  out.reserve(k);
  for (std::size_t i = 0; i < pool.size() && out.size() < k; ++i) {
    const VectorId id = pool.id(i);
    if (tombstones->Contains(global_ids != nullptr ? global_ids[id] : id)) {
      continue;
    }
    out.emplace_back(id, pool.distance(i));
  }
  return out;
}

/// Prefetches the first cache line of v's adjacency list. Beam search
/// calls it for the next frontier candidate before gathering the current
/// one's neighbors, so the list's cache miss overlaps the current hop.
template <typename GraphT>
void PrefetchNeighbors(const GraphT& graph, VectorId v) {
  const void* list = graph.Neighbors(v).data();
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(list);
#else
  (void)list;
#endif
}

/// Neighbors evaluated per batched kernel call during expansion.
inline constexpr std::size_t kExpandBatch = DistanceComputer::kBatchChunk;

/// Claims the next (up to kExpandBatch) unvisited ids of neighbors[*i,
/// size) into `chunk`, advancing *i past every id it examined, then
/// prefetches the claimed rows. The visited test is branch-free: each id is
/// read (for a packed list, decoded) and written to the chunk, and only a
/// first visit keeps it there. The epoch is read once per gather, not once
/// per id (see VisitedTable::TryVisit). Forced inline: left to itself GCC
/// calls the packed-list instantiation out of line, once per chunk.
template <typename List>
[[gnu::always_inline]] inline std::size_t GatherUnvisited(
    const List& neighbors, std::size_t* i, VisitedTable* visited,
    const DistanceComputer& dc, VectorId* chunk) {
  const std::size_t degree = neighbors.size();
  const std::uint32_t epoch = visited->epoch();
  std::size_t m = 0;
  std::size_t next = *i;
  for (; next < degree && m < kExpandBatch; ++next) {
    const VectorId u = neighbors[next];
    chunk[m] = u;
    m += visited->TryVisit(u, epoch);
  }
  *i = next;
  for (std::size_t j = 0; j < m; ++j) dc.Prefetch(chunk[j]);
  return m;
}

}  // namespace internal

/// Runs Algorithm 1 over `graph`: any type whose `Neighbors(VectorId v)`
/// returns v's out-neighbors as a list with `size()`, `operator[]` and a
/// prefetchable `data()` (Graph's vector, a span over one of HNSW's slots,
/// or FlatGraph's PackedIds).
///
/// `seeds` warm the candidate pool (the first seed acts as the entry node —
/// it is simply the first candidate expanded, since the pool is sorted by
/// distance the distinction only matters for instrumentation). `beam_width`
/// is L (clamped up to k). `visited` must cover the graph's vertex range and
/// is re-epoched here. Distance computations are counted on `dc`; expanded
/// hops on `stats` when provided.
///
/// `deadline`, when given, is polled every kDeadlineCheckHops expansions;
/// on expiry the search stops and returns its best-so-far answers (a
/// partial result), recording the cutoff in `stats->deadline_expiries`.
///
/// `tombstones`, when given, filters logically deleted ids out of the
/// returned results (traversal is unaffected; see internal::EmitTopK),
/// looking each id up through `global_ids` when that is given.
inline constexpr std::uint64_t kDeadlineCheckHops = 32;

template <typename GraphT>
std::vector<Neighbor> BeamSearch(const GraphT& graph, DistanceComputer& dc,
                                 const float* query,
                                 const std::vector<VectorId>& seeds,
                                 std::size_t k, std::size_t beam_width,
                                 VisitedTable* visited,
                                 SearchStats* stats = nullptr,
                                 float prune_bound = 3.402823466e38f,
                                 const Deadline* deadline = nullptr,
                                 const TombstoneSet* tombstones = nullptr,
                                 const VectorId* global_ids = nullptr) {
  const std::size_t width = beam_width < k ? k : beam_width;
  BeamPool pool(width, visited->size());
  pool.SetPruneBound(prune_bound);
  visited->NewEpoch();

  for (VectorId seed : seeds) {
    if (!visited->TryVisit(seed)) continue;
    pool.Insert(seed, dc.ToQuery(query, seed));
  }

  std::uint64_t hops = 0;
  std::uint64_t prefetched = 0;
  for (;;) {
    if (deadline != nullptr && hops % kDeadlineCheckHops == 0 &&
        deadline->IsExpired()) {
      if (stats != nullptr) stats->deadline_expiries += 1;
      break;
    }
    if (!pool.HasUnexplored()) break;
    const VectorId v = pool.ExploreNext();
    ++hops;

    // Gather-then-batch expansion: claim the next chunk of unvisited
    // out-neighbors (prefetching their rows), evaluate it with one batched
    // kernel call, then filter/insert sequentially. The evaluated set,
    // distance values, count, and insert order are all identical to the
    // one-at-a-time loop — only the memory/compute overlap changes, as it
    // does for the prefetch of the next candidate's adjacency list.
    const auto& neighbors = graph.Neighbors(v);
    if (pool.HasUnexplored()) {
      internal::PrefetchNeighbors(graph, pool.PeekNext());
    }
    VectorId chunk[internal::kExpandBatch];
    float dist[internal::kExpandBatch];
    std::size_t i = 0;
    while (i < neighbors.size()) {
      const std::size_t m =
          internal::GatherUnvisited(neighbors, &i, visited, dc, chunk);
      if (m == 0) continue;
      prefetched += m;
      dc.ToQueryBatch(query, chunk, m, dist);
      for (std::size_t j = 0; j < m; ++j) {
        if (dist[j] >= pool.WorstDistance()) continue;
        pool.Insert(chunk[j], dist[j]);
      }
    }
  }

  if (stats != nullptr) {
    stats->hops += hops;
    stats->prefetches += prefetched;
  }
  return internal::EmitTopK(pool, k, tombstones, global_ids);
}

/// BeamSearch variant that also returns every vertex whose distance was
/// evaluated, in visit order. Builders (NSG, Vamana) use the visited list as
/// the candidate set for diversified pruning.
template <typename GraphT>
std::vector<Neighbor> BeamSearchCollect(const GraphT& graph,
                                        DistanceComputer& dc,
                                        const float* query,
                                        const std::vector<VectorId>& seeds,
                                        std::size_t k, std::size_t beam_width,
                                        VisitedTable* visited,
                                        std::vector<Neighbor>* evaluated,
                                        SearchStats* stats = nullptr) {
  const std::size_t width = beam_width < k ? k : beam_width;
  BeamPool pool(width, visited->size());
  visited->NewEpoch();
  evaluated->clear();

  for (VectorId seed : seeds) {
    if (!visited->TryVisit(seed)) continue;
    const float d = dc.ToQuery(query, seed);
    evaluated->push_back(Neighbor(seed, d));
    pool.Insert(seed, d);
  }

  std::uint64_t hops = 0;
  std::uint64_t prefetched = 0;
  while (pool.HasUnexplored()) {
    const VectorId v = pool.ExploreNext();
    ++hops;

    // Same gather-then-batch expansion as BeamSearch; `evaluated` is
    // appended in chunk order, which equals the original visit order.
    const auto& neighbors = graph.Neighbors(v);
    if (pool.HasUnexplored()) {
      internal::PrefetchNeighbors(graph, pool.PeekNext());
    }
    VectorId chunk[internal::kExpandBatch];
    float dist[internal::kExpandBatch];
    std::size_t i = 0;
    while (i < neighbors.size()) {
      const std::size_t m =
          internal::GatherUnvisited(neighbors, &i, visited, dc, chunk);
      if (m == 0) continue;
      prefetched += m;
      dc.ToQueryBatch(query, chunk, m, dist);
      for (std::size_t j = 0; j < m; ++j) {
        evaluated->push_back(Neighbor(chunk[j], dist[j]));
        if (dist[j] >= pool.WorstDistance()) continue;
        pool.Insert(chunk[j], dist[j]);
      }
    }
  }

  if (stats != nullptr) {
    stats->hops += hops;
    stats->prefetches += prefetched;
  }
  return pool.TopK(k);
}

}  // namespace gass::core

#endif  // GASS_CORE_BEAM_SEARCH_H_
