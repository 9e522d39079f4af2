#include "core/beam_search.h"

#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "eval/ground_truth.h"
#include "knngraph/exact_knn_graph.h"

namespace gass::core {
namespace {

struct BeamFixture {
  Dataset data;
  Graph graph;

  // A single Gaussian cloud: its undirected exact k-NN graph is connected,
  // so traversal-based assertions are stable.
  explicit BeamFixture(std::size_t n = 300, std::size_t k = 10) {
    Rng rng(77);
    data = Dataset(n, 8);
    for (VectorId i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < 8; ++d) {
        data.MutableRow(i)[d] = static_cast<float>(rng.Normal());
      }
    }
    DistanceComputer dc(data);
    graph = knngraph::ExactKnnGraph(dc, k, 1);
    graph.MakeUndirected();  // Ensure the beam can traverse everywhere.
  }
};

TEST(BeamSearchTest, FindsExactNeighborsOnKnnGraphWithWideBeam) {
  BeamFixture fixture;
  DistanceComputer dc(fixture.data);
  VisitedTable visited(fixture.data.size());
  const auto truth =
      eval::BruteForceKnn(fixture.data, fixture.data.Prefix(5), 5, 1);
  for (VectorId q = 0; q < 5; ++q) {
    const auto found =
        BeamSearch(fixture.graph, dc, fixture.data.Row(q), {0}, 5, 128,
                   &visited);
    ASSERT_EQ(found.size(), 5u);
    // Query q is in the dataset, so its own id must be the top answer.
    EXPECT_EQ(found[0].id, q);
    EXPECT_FLOAT_EQ(found[0].distance, 0.0f);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_FLOAT_EQ(found[i].distance, truth[q][i].distance);
    }
  }
}

TEST(BeamSearchTest, ResultsSortedAscending) {
  BeamFixture fixture;
  DistanceComputer dc(fixture.data);
  VisitedTable visited(fixture.data.size());
  const auto found = BeamSearch(fixture.graph, dc, fixture.data.Row(17), {3},
                                10, 64, &visited);
  for (std::size_t i = 0; i + 1 < found.size(); ++i) {
    EXPECT_LE(found[i].distance, found[i + 1].distance);
  }
}

TEST(BeamSearchTest, WiderBeamNeverHurtsTopDistance) {
  BeamFixture fixture;
  DistanceComputer dc(fixture.data);
  VisitedTable visited(fixture.data.size());
  const float* query = fixture.data.Row(42);
  const auto narrow =
      BeamSearch(fixture.graph, dc, query, {0}, 5, 8, &visited);
  const auto wide =
      BeamSearch(fixture.graph, dc, query, {0}, 5, 128, &visited);
  ASSERT_FALSE(narrow.empty());
  ASSERT_FALSE(wide.empty());
  EXPECT_LE(wide.back().distance, narrow.back().distance);
}

TEST(BeamSearchTest, CountsDistancesAndHops) {
  BeamFixture fixture;
  DistanceComputer dc(fixture.data);
  VisitedTable visited(fixture.data.size());
  SearchStats stats;
  BeamSearch(fixture.graph, dc, fixture.data.Row(1), {0}, 5, 32, &visited,
             &stats);
  EXPECT_GT(dc.count(), 0u);
  EXPECT_GT(stats.hops, 0u);
  // Each evaluated vertex costs exactly one distance computation.
  EXPECT_LE(stats.hops, dc.count());
}

TEST(BeamSearchTest, MultipleSeedsAreAllConsidered) {
  BeamFixture fixture;
  DistanceComputer dc(fixture.data);
  VisitedTable visited(fixture.data.size());
  const auto found = BeamSearch(fixture.graph, dc, fixture.data.Row(9),
                                {0, 9, 100}, 3, 16, &visited);
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found[0].id, 9u);  // Seeded directly with the answer.
}

TEST(BeamSearchTest, DuplicateSeedsHandled) {
  BeamFixture fixture;
  DistanceComputer dc(fixture.data);
  VisitedTable visited(fixture.data.size());
  const auto found = BeamSearch(fixture.graph, dc, fixture.data.Row(2),
                                {5, 5, 5}, 3, 16, &visited);
  EXPECT_FALSE(found.empty());
}

TEST(BeamSearchTest, FlatGraphMatchesAdjacencyGraph) {
  // Two vertex counts, so the packed ids are 9 and 11 bits wide.
  for (const std::size_t n : {std::size_t{300}, std::size_t{1100}}) {
    BeamFixture fixture(n);
    const FlatGraph flat = FlatGraph::FromGraph(fixture.graph);
    ASSERT_EQ(flat.width(), n == 300 ? 9u : 11u);
    DistanceComputer dc1(fixture.data);
    DistanceComputer dc2(fixture.data);
    VisitedTable visited1(fixture.data.size());
    VisitedTable visited2(fixture.data.size());
    SearchStats stats1;
    SearchStats stats2;
    for (VectorId q = 0; q < 10; ++q) {
      const auto a = BeamSearch(fixture.graph, dc1, fixture.data.Row(q), {0},
                                5, 32, &visited1, &stats1);
      const auto b = BeamSearch(flat, dc2, fixture.data.Row(q), {0}, 5, 32,
                                &visited2, &stats2);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_FLOAT_EQ(a[i].distance, b[i].distance);
      }
    }
    EXPECT_EQ(dc1.count(), dc2.count()) << "n = " << n;
    EXPECT_EQ(stats1.hops, stats2.hops) << "n = " << n;
  }
}

TEST(BeamSearchCollectTest, EvaluatedSupersetOfResults) {
  BeamFixture fixture;
  DistanceComputer dc(fixture.data);
  VisitedTable visited(fixture.data.size());
  std::vector<Neighbor> evaluated;
  const auto found =
      BeamSearchCollect(fixture.graph, dc, fixture.data.Row(3), {0}, 10, 32,
                        &visited, &evaluated);
  EXPECT_GE(evaluated.size(), found.size());
  for (const Neighbor& nb : found) {
    EXPECT_NE(std::find_if(evaluated.begin(), evaluated.end(),
                           [&](const Neighbor& e) { return e.id == nb.id; }),
              evaluated.end());
  }
  // Evaluated count equals the distance computations performed.
  EXPECT_EQ(evaluated.size(), dc.count());
}

TEST(BeamSearchTest, PruneBoundCutsCostWithoutChangingBetterAnswers) {
  BeamFixture fixture;
  DistanceComputer dc_free(fixture.data);
  DistanceComputer dc_bound(fixture.data);
  VisitedTable visited(fixture.data.size());
  const float* query = fixture.data.Row(25);

  const auto free_run =
      BeamSearch(fixture.graph, dc_free, query, {0}, 5, 64, &visited);
  ASSERT_EQ(free_run.size(), 5u);
  // Bound just above the true 2nd-best distance: every answer strictly
  // better than the bound must still be found, at no more cost.
  const float bound = free_run[2].distance;
  const auto bounded = BeamSearch(fixture.graph, dc_bound, query, {0}, 5, 64,
                                  &visited, nullptr, bound);
  ASSERT_GE(bounded.size(), 2u);
  EXPECT_EQ(bounded[0].id, free_run[0].id);
  EXPECT_EQ(bounded[1].id, free_run[1].id);
  EXPECT_LE(dc_bound.count(), dc_free.count());
}

// The per-neighbor expansion loop over a record-array frontier, kept as an
// executable reference: one visited test / ToQuery / filter / insert per
// neighbor, a sorted std::vector<Neighbor> pool with a parallel explored
// array, and a full rescan for the closest unexplored candidate. It shares
// no frontier or visited-set code with BeamSearch, which must reproduce its
// neighbor IDs, bitwise distances, evaluation order, distance count and
// hops exactly.
struct ReferenceRun {
  std::vector<Neighbor> found;
  std::vector<Neighbor> evaluated;
  std::uint64_t hops = 0;
};

std::vector<VectorId> ReferenceNeighbors(const Graph& graph, VectorId v) {
  return graph.Neighbors(v);
}

std::vector<VectorId> ReferenceNeighbors(const FlatGraph& graph, VectorId v) {
  const PackedIds list = graph.Neighbors(v);
  std::vector<VectorId> ids(list.size());
  for (std::size_t i = 0; i < list.size(); ++i) ids[i] = list[i];
  return ids;
}

template <typename GraphT>
ReferenceRun ReferenceBeamSearch(const GraphT& graph, DistanceComputer& dc,
                                 const float* query,
                                 const std::vector<VectorId>& seeds,
                                 std::size_t k, std::size_t beam_width,
                                 float prune_bound = 3.402823466e38f,
                                 const TombstoneSet* tombstones = nullptr) {
  constexpr float kInf = 3.402823466e38f;
  const std::size_t width = beam_width < k ? k : beam_width;
  std::vector<Neighbor> pool;  // Ascending distance.
  std::vector<bool> explored;  // explored[i] belongs to pool[i].
  std::vector<bool> visited(graph.size(), false);
  ReferenceRun run;

  const auto worst = [&] {
    if (pool.size() < width) return kInf;
    return std::min(pool.back().distance, prune_bound);
  };
  const auto insert = [&](const Neighbor& nb) {
    if (pool.size() == width && nb.distance >= worst()) return;
    const std::size_t pos = static_cast<std::size_t>(
        std::lower_bound(pool.begin(), pool.end(), nb.distance,
                         [](const Neighbor& a, float d) {
                           return a.distance < d;
                         }) -
        pool.begin());
    for (std::size_t p = pos;
         p < pool.size() && pool[p].distance == nb.distance; ++p) {
      if (pool[p].id == nb.id) return;
    }
    pool.insert(pool.begin() + static_cast<std::ptrdiff_t>(pos), nb);
    explored.insert(explored.begin() + static_cast<std::ptrdiff_t>(pos),
                    false);
    if (pool.size() > width) {
      pool.pop_back();
      explored.pop_back();
    }
  };
  const auto evaluate = [&](VectorId u) {
    const Neighbor nb(u, dc.ToQuery(query, u));
    run.evaluated.push_back(nb);
    return nb;
  };

  for (VectorId seed : seeds) {
    if (visited[seed]) continue;
    visited[seed] = true;
    insert(evaluate(seed));
  }
  for (;;) {
    std::size_t next = 0;
    while (next < pool.size() && explored[next]) ++next;
    if (next == pool.size()) break;
    explored[next] = true;
    ++run.hops;
    for (const VectorId u : ReferenceNeighbors(graph, pool[next].id)) {
      if (visited[u]) continue;
      visited[u] = true;
      const Neighbor nb = evaluate(u);
      if (nb.distance >= worst()) continue;
      insert(nb);
    }
  }
  for (const Neighbor& nb : pool) {
    if (run.found.size() == k) break;
    if (tombstones != nullptr && tombstones->Contains(nb.id)) continue;
    run.found.push_back(nb);
  }
  return run;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& actual,
                         const std::vector<Neighbor>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id) << "position " << i;
    EXPECT_EQ(actual[i].distance, expected[i].distance)  // Bitwise.
        << "position " << i;
  }
}

TEST(BeamSearchTest, BatchedExpansionMatchesPerNeighborReference) {
  BeamFixture fixture;
  VisitedTable visited(fixture.data.size());
  for (const std::size_t beam : {4u, 16u, 64u}) {
    for (VectorId q = 0; q < 20; ++q) {
      SCOPED_TRACE(::testing::Message() << "beam=" << beam << " q=" << q);
      DistanceComputer dc_batched(fixture.data);
      DistanceComputer dc_ref(fixture.data);
      SearchStats stats;
      const auto batched = BeamSearch(fixture.graph, dc_batched,
                                      fixture.data.Row(q), {0, 7}, 10, beam,
                                      &visited, &stats);
      const ReferenceRun reference =
          ReferenceBeamSearch(fixture.graph, dc_ref, fixture.data.Row(q),
                              {0, 7}, 10, beam);
      ExpectSameNeighbors(batched, reference.found);
      EXPECT_EQ(dc_batched.count(), dc_ref.count());
      EXPECT_EQ(stats.hops, reference.hops);
    }
  }
}

TEST(BeamSearchCollectTest, BatchedCollectMatchesPerNeighborReference) {
  BeamFixture fixture;
  VisitedTable visited(fixture.data.size());
  for (VectorId q = 0; q < 10; ++q) {
    DistanceComputer dc_batched(fixture.data);
    DistanceComputer dc_ref(fixture.data);
    std::vector<Neighbor> eval_batched;
    const auto batched =
        BeamSearchCollect(fixture.graph, dc_batched, fixture.data.Row(q), {0},
                          10, 32, &visited, &eval_batched);
    const ReferenceRun reference = ReferenceBeamSearch(
        fixture.graph, dc_ref, fixture.data.Row(q), {0}, 10, 32);
    ExpectSameNeighbors(batched, reference.found);
    // The evaluation trace — ids, distances, and order — must be identical.
    ExpectSameNeighbors(eval_batched, reference.evaluated);
    EXPECT_EQ(dc_batched.count(), dc_ref.count());
    EXPECT_EQ(eval_batched.size(), dc_batched.count());
  }
}

// Tie-heavy differential test. Every row appears three times and the
// coordinates are small integers, so exact distance ties — between
// duplicates, and between distinct rows at the same integer distance — are
// everywhere: insert positions inside equal-distance runs, duplicate-id
// rejection, evictions at the worst distance and a prune bound equal to a
// live distance all occur. The adjacency mixes random short and long lists
// (longer than one gather chunk) so expansions span several chunks.
struct TieFixture {
  Dataset data;
  Graph graph;
  FlatGraph flat;
  TombstoneSet tombstones;

  TieFixture() {
    constexpr std::size_t kDistinct = 200;
    constexpr std::size_t kCopies = 3;
    constexpr std::size_t kDim = 4;
    const std::size_t n = kDistinct * kCopies;
    Rng rng(20250901);
    data = Dataset(n, kDim);
    for (VectorId r = 0; r < kDistinct; ++r) {
      float row[kDim];
      for (float& x : row) x = static_cast<float>(rng.UniformInt(4));
      for (std::size_t c = 0; c < kCopies; ++c) {
        const VectorId id = static_cast<VectorId>(c * kDistinct + r);
        std::copy(row, row + kDim, data.MutableRow(id));
      }
    }
    graph = Graph(n);
    for (VectorId v = 0; v < n; ++v) {
      const std::size_t degree = 2 + rng.UniformInt(v % 5 == 0 ? 70 : 12);
      for (std::size_t e = 0; e < degree; ++e) {
        graph.AddEdge(v, static_cast<VectorId>(rng.UniformInt(n)));
      }
    }
    flat = FlatGraph::FromGraph(graph);
    for (VectorId v = 0; v < n; v += 7) tombstones.Insert(v);
  }
};

template <typename GraphT>
void ExpectTieHeavyMatch(const TieFixture& f, const GraphT& graph) {
  VisitedTable visited(f.data.size());
  const std::vector<std::vector<VectorId>> seed_sets = {{0}, {5, 5, 405, 9}};
  for (const std::size_t beam : {1u, 10u, 64u, 96u, 512u}) {
    const std::size_t k = std::min<std::size_t>(beam, 10);
    for (VectorId q = 0; q < 24; ++q) {
      // Rows (zero-distance ties with their copies) and, from q = 12 on,
      // integer points that may be absent from the data.
      float point[4];
      for (std::size_t d = 0; d < 4; ++d) {
        point[d] = static_cast<float>((q * 7 + d * 3) % 5);
      }
      const float* query = q < 12 ? f.data.Row(q * 37) : point;
      const auto& seeds = seed_sets[q % 2];
      for (const float bound : {3.402823466e38f, 2.0f}) {
        for (const TombstoneSet* tomb :
             {static_cast<const TombstoneSet*>(nullptr), &f.tombstones}) {
          SCOPED_TRACE(::testing::Message()
                       << "beam=" << beam << " q=" << q << " bound=" << bound
                       << " tombstones=" << (tomb != nullptr));
          DistanceComputer dc(f.data);
          DistanceComputer dc_ref(f.data);
          SearchStats stats;
          const auto found = BeamSearch(graph, dc, query, seeds, k, beam,
                                        &visited, &stats, bound, nullptr,
                                        tomb);
          const ReferenceRun reference =
              ReferenceBeamSearch(graph, dc_ref, query, seeds, k, beam,
                                  bound, tomb);
          ExpectSameNeighbors(found, reference.found);
          EXPECT_EQ(dc.count(), dc_ref.count());
          EXPECT_EQ(stats.hops, reference.hops);
        }
      }
      SCOPED_TRACE(::testing::Message() << "collect beam=" << beam
                                        << " q=" << q);
      DistanceComputer dc(f.data);
      DistanceComputer dc_ref(f.data);
      SearchStats stats;
      std::vector<Neighbor> evaluated;
      const auto found = BeamSearchCollect(graph, dc, query, seeds, k, beam,
                                           &visited, &evaluated, &stats);
      const ReferenceRun reference =
          ReferenceBeamSearch(graph, dc_ref, query, seeds, k, beam);
      ExpectSameNeighbors(found, reference.found);
      ExpectSameNeighbors(evaluated, reference.evaluated);
      EXPECT_EQ(dc.count(), dc_ref.count());
      EXPECT_EQ(stats.hops, reference.hops);
    }
  }
}

TEST(BeamSearchTest, TieHeavyMatchesReferenceOnAdjacencyGraph) {
  const TieFixture fixture;
  ExpectTieHeavyMatch(fixture, fixture.graph);
}

TEST(BeamSearchTest, TieHeavyMatchesReferenceOnFlatGraph) {
  const TieFixture fixture;
  ExpectTieHeavyMatch(fixture, fixture.flat);
}

TEST(BeamSearchTest, SingletonGraph) {
  Dataset data(1, 4);
  for (std::size_t d = 0; d < 4; ++d) data.MutableRow(0)[d] = 1.0f;
  Graph graph(1);
  DistanceComputer dc(data);
  VisitedTable visited(1);
  const float query[4] = {0, 0, 0, 0};
  const auto found = BeamSearch(graph, dc, query, {0}, 3, 8, &visited);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].id, 0u);
}

}  // namespace
}  // namespace gass::core
