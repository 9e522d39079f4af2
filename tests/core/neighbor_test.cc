#include "core/neighbor.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace gass::core {
namespace {

// Pools and result vectors hold Neighbor by value: an id and a distance,
// nothing else.
static_assert(sizeof(Neighbor) == 8);

TEST(NeighborTest, OrderingByDistanceThenId) {
  EXPECT_LT(Neighbor(5, 1.0f), Neighbor(2, 2.0f));
  EXPECT_LT(Neighbor(1, 1.0f), Neighbor(2, 1.0f));
  EXPECT_EQ(Neighbor(1, 1.0f), Neighbor(1, 1.0f));
}

TEST(CandidatePoolTest, InsertKeepsAscendingOrder) {
  CandidatePool pool(4);
  pool.Insert(Neighbor(1, 3.0f));
  pool.Insert(Neighbor(2, 1.0f));
  pool.Insert(Neighbor(3, 2.0f));
  ASSERT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool[0].id, 2u);
  EXPECT_EQ(pool[1].id, 3u);
  EXPECT_EQ(pool[2].id, 1u);
}

TEST(CandidatePoolTest, CapacityEvictsWorst) {
  CandidatePool pool(2);
  pool.Insert(Neighbor(1, 3.0f));
  pool.Insert(Neighbor(2, 1.0f));
  pool.Insert(Neighbor(3, 2.0f));
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool[0].id, 2u);
  EXPECT_EQ(pool[1].id, 3u);
}

TEST(CandidatePoolTest, RejectsWorseThanWorstWhenFull) {
  CandidatePool pool(2);
  pool.Insert(Neighbor(1, 1.0f));
  pool.Insert(Neighbor(2, 2.0f));
  EXPECT_EQ(pool.Insert(Neighbor(3, 5.0f)), pool.capacity());
  EXPECT_EQ(pool.size(), 2u);
}

TEST(CandidatePoolTest, RejectsDuplicateIdAtSameDistance) {
  CandidatePool pool(4);
  EXPECT_LT(pool.Insert(Neighbor(7, 2.0f)), pool.capacity());
  EXPECT_EQ(pool.Insert(Neighbor(7, 2.0f)), pool.capacity());
  EXPECT_EQ(pool.size(), 1u);
}

TEST(CandidatePoolTest, WorstDistanceInfiniteUntilFull) {
  CandidatePool pool(2);
  EXPECT_GT(pool.WorstDistance(), 1e30f);
  pool.Insert(Neighbor(1, 1.0f));
  EXPECT_GT(pool.WorstDistance(), 1e30f);
  pool.Insert(Neighbor(2, 2.0f));
  EXPECT_FLOAT_EQ(pool.WorstDistance(), 2.0f);
}

TEST(CandidatePoolTest, TopKClampsToSize) {
  CandidatePool pool(8);
  pool.Insert(Neighbor(1, 1.0f));
  pool.Insert(Neighbor(2, 2.0f));
  const auto top = pool.TopK(5);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 1u);
}

TEST(CandidatePoolTest, PruneBoundInactiveWhileFilling) {
  // While the pool is filling, far candidates still enter (they serve as
  // routing anchors); the bound bites only once the pool is full.
  CandidatePool pool(2);
  pool.SetPruneBound(2.0f);
  EXPECT_GT(pool.WorstDistance(), 1e30f);
  EXPECT_LT(pool.Insert(Neighbor(1, 5.0f)), pool.capacity());
  EXPECT_LT(pool.Insert(Neighbor(2, 9.0f)), pool.capacity());
  // Full now: worst is min(back=9, bound=2) = 2.
  EXPECT_FLOAT_EQ(pool.WorstDistance(), 2.0f);
  EXPECT_EQ(pool.Insert(Neighbor(3, 2.0f)), pool.capacity());
  EXPECT_LT(pool.Insert(Neighbor(4, 1.5f)), pool.capacity());
}

TEST(CandidatePoolTest, PruneBoundTighterThanWorst) {
  CandidatePool pool(2);
  pool.Insert(Neighbor(1, 1.0f));
  pool.Insert(Neighbor(2, 3.0f));
  pool.SetPruneBound(2.0f);
  EXPECT_FLOAT_EQ(pool.WorstDistance(), 2.0f);  // min(bound, back).
}

TEST(CandidatePoolTest, ClearEmptiesPool) {
  CandidatePool pool(2);
  pool.Insert(Neighbor(1, 1.0f));
  pool.Clear();
  EXPECT_TRUE(pool.empty());
}

// Property: after a stream of random inserts, the pool equals the sorted
// unique best-`capacity` of the stream.
class CandidatePoolPropertyTest : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(CandidatePoolPropertyTest, MatchesSortedTruncationOfStream) {
  const std::size_t capacity = GetParam();
  Rng rng(capacity * 97 + 3);
  CandidatePool pool(capacity);
  std::vector<Neighbor> reference;
  for (int i = 0; i < 500; ++i) {
    const Neighbor candidate(static_cast<VectorId>(rng.UniformInt(200)),
                             static_cast<float>(rng.UniformInt(50)));
    pool.Insert(candidate);
    // Mirror the dedup rule: same (id, distance) only once.
    if (std::find(reference.begin(), reference.end(), candidate) ==
        reference.end()) {
      reference.push_back(candidate);
    }
  }
  std::sort(reference.begin(), reference.end());
  // The pool may have rejected candidates that would NOW be in the best set
  // only if they were worse than the worst at insertion time — with this
  // stream (insertions never removed) the greedy pool is exact.
  ASSERT_LE(pool.size(), capacity);
  for (std::size_t i = 0; i + 1 < pool.size(); ++i) {
    EXPECT_LE(pool[i].distance, pool[i + 1].distance);
  }
  // Ties at equal distance are kept in arrival order, so compare the
  // distance multiset (which greedy top-k preserves exactly), not ids.
  const std::size_t expect = std::min(capacity, reference.size());
  for (std::size_t i = 0; i < expect; ++i) {
    EXPECT_FLOAT_EQ(pool[i].distance, reference[i].distance)
        << "position " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, CandidatePoolPropertyTest,
                         ::testing::Values(1, 2, 3, 8, 33, 100));

// --- BeamPool: the beam-search frontier --------------------------------

// A small id range for pools whose ids are all tiny.
constexpr std::size_t kIds = 1000;

std::vector<VectorId> PoolIds(const BeamPool& pool) {
  std::vector<VectorId> ids;
  for (std::size_t i = 0; i < pool.size(); ++i) ids.push_back(pool.id(i));
  return ids;
}

TEST(BeamPoolTest, InsertKeepsAscendingOrder) {
  BeamPool pool(4, kIds);
  EXPECT_EQ(pool.Insert(1, 3.0f), 0u);
  EXPECT_EQ(pool.Insert(2, 1.0f), 0u);
  EXPECT_EQ(pool.Insert(3, 2.0f), 1u);
  EXPECT_EQ(PoolIds(pool), (std::vector<VectorId>{2, 3, 1}));
  EXPECT_EQ(pool.distance(0), 1.0f);
  EXPECT_EQ(pool.distance(2), 3.0f);
}

TEST(BeamPoolTest, NewCandidateGoesBeforeEqualDistances) {
  // The lower-bound rule the record-array frontier used: a newcomer lands
  // before every entry at its distance.
  BeamPool pool(4, kIds);
  pool.Insert(1, 2.0f);
  pool.Insert(2, 2.0f);
  EXPECT_EQ(pool.Insert(3, 2.0f), 0u);
  EXPECT_EQ(PoolIds(pool), (std::vector<VectorId>{3, 2, 1}));
}

TEST(BeamPoolTest, FirstUnexploredAndMark) {
  BeamPool pool(4, kIds);
  pool.Insert(1, 1.0f);
  pool.Insert(2, 2.0f);
  ASSERT_TRUE(pool.HasUnexplored());
  EXPECT_EQ(pool.ExploreNext(), 1u);
  EXPECT_TRUE(pool.explored(0));
  EXPECT_FALSE(pool.explored(1));
  EXPECT_EQ(pool.ExploreNext(), 2u);
  EXPECT_FALSE(pool.HasUnexplored());
}

TEST(BeamPoolTest, InsertBeforeExploredKeepsFlags) {
  BeamPool pool(4, kIds);
  pool.Insert(1, 5.0f);
  EXPECT_EQ(pool.ExploreNext(), 1u);
  pool.Insert(2, 1.0f);  // Inserted before the explored entry.
  ASSERT_TRUE(pool.HasUnexplored());
  EXPECT_EQ(pool.id(0), 2u);
  EXPECT_FALSE(pool.explored(0));
  EXPECT_EQ(pool.id(1), 1u);  // The flag does not leak into the id.
  EXPECT_TRUE(pool.explored(1));
  EXPECT_EQ(pool.ExploreNext(), 2u);
  EXPECT_FALSE(pool.HasUnexplored());
}

TEST(BeamPoolTest, CursorRewindsWhenInsertLandsAheadOfIt) {
  BeamPool pool(8, kIds);
  pool.Insert(1, 1.0f);
  pool.Insert(2, 2.0f);
  pool.Insert(3, 3.0f);
  EXPECT_EQ(pool.ExploreNext(), 1u);
  EXPECT_EQ(pool.ExploreNext(), 2u);
  // The cursor is on id 3 (position 2); 1.5 lands at position 1, ahead of
  // it, so it must be expanded next.
  EXPECT_EQ(pool.PeekNext(), 3u);
  EXPECT_EQ(pool.Insert(4, 1.5f), 1u);
  EXPECT_EQ(pool.PeekNext(), 4u);
  EXPECT_EQ(pool.ExploreNext(), 4u);
  // Past the explored run, the cursor resumes at the unexplored id 3.
  EXPECT_EQ(pool.ExploreNext(), 3u);
  EXPECT_FALSE(pool.HasUnexplored());
  // With everything explored, a candidate anywhere re-opens the frontier.
  pool.Insert(5, 0.5f);
  EXPECT_EQ(pool.ExploreNext(), 5u);
  pool.Insert(6, 9.0f);
  EXPECT_EQ(pool.ExploreNext(), 6u);
  EXPECT_FALSE(pool.HasUnexplored());
}

TEST(BeamPoolTest, CursorStaysWhenInsertLandsBehindIt) {
  BeamPool pool(8, kIds);
  pool.Insert(1, 1.0f);
  pool.Insert(2, 2.0f);
  EXPECT_EQ(pool.ExploreNext(), 1u);
  pool.Insert(3, 3.0f);  // Behind the cursor on id 2.
  EXPECT_EQ(pool.ExploreNext(), 2u);
  EXPECT_EQ(pool.ExploreNext(), 3u);
}

TEST(BeamPoolTest, ExploredFlagsSurviveShiftsAndEviction) {
  BeamPool pool(3, kIds);
  pool.Insert(1, 1.0f);
  pool.Insert(2, 2.0f);
  pool.Insert(3, 3.0f);
  EXPECT_EQ(pool.ExploreNext(), 1u);
  EXPECT_EQ(pool.ExploreNext(), 2u);
  // Full: 0.5 shifts every entry right and evicts the unexplored id 3.
  EXPECT_EQ(pool.Insert(4, 0.5f), 0u);
  EXPECT_EQ(PoolIds(pool), (std::vector<VectorId>{4, 1, 2}));
  EXPECT_FALSE(pool.explored(0));
  EXPECT_TRUE(pool.explored(1));
  EXPECT_TRUE(pool.explored(2));
  EXPECT_EQ(pool.ExploreNext(), 4u);
  EXPECT_FALSE(pool.HasUnexplored());
  // Evicting an explored entry: 1.5 lands between the two explored ones.
  EXPECT_EQ(pool.Insert(5, 1.5f), 2u);
  EXPECT_EQ(PoolIds(pool), (std::vector<VectorId>{4, 1, 5}));
  EXPECT_TRUE(pool.explored(1));
  EXPECT_FALSE(pool.explored(2));
  EXPECT_EQ(pool.ExploreNext(), 5u);
  EXPECT_FALSE(pool.HasUnexplored());
}

TEST(BeamPoolTest, CapacityOne) {
  BeamPool pool(1, kIds);
  EXPECT_GT(pool.WorstDistance(), 1e30f);
  EXPECT_EQ(pool.Insert(1, 2.0f), 0u);
  EXPECT_TRUE(pool.full());
  EXPECT_EQ(pool.WorstDistance(), 2.0f);
  EXPECT_EQ(pool.Insert(2, 2.0f), pool.capacity());  // Not better.
  EXPECT_EQ(pool.ExploreNext(), 1u);
  EXPECT_FALSE(pool.HasUnexplored());
  EXPECT_EQ(pool.Insert(3, 1.0f), 0u);  // Evicts the explored entry.
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_FALSE(pool.explored(0));
  EXPECT_EQ(pool.ExploreNext(), 3u);
  EXPECT_EQ(pool.TopK(5).size(), 1u);
}

TEST(BeamPoolTest, RejectsWorseThanWorstWhenFull) {
  BeamPool pool(2, kIds);
  pool.Insert(1, 1.0f);
  pool.Insert(2, 2.0f);
  EXPECT_EQ(pool.Insert(3, 5.0f), pool.capacity());
  EXPECT_EQ(pool.Insert(3, 2.0f), pool.capacity());
  EXPECT_EQ(pool.size(), 2u);
}

TEST(BeamPoolTest, RejectsDuplicateOnlyAtEqualDistance) {
  BeamPool pool(8, kIds);
  pool.Insert(9, 1.0f);
  EXPECT_LT(pool.Insert(7, 2.0f), pool.capacity());
  pool.Insert(8, 2.0f);  // Lands before id 7 in the equal-distance run.
  EXPECT_EQ(pool.Insert(7, 2.0f), pool.capacity());
  EXPECT_EQ(pool.size(), 3u);
  // The same id at another distance is a different candidate.
  EXPECT_LT(pool.Insert(7, 3.0f), pool.capacity());
  EXPECT_LT(pool.Insert(7, 0.5f), pool.capacity());
  EXPECT_EQ(pool.size(), 5u);
  // Explored or not, a duplicate is recognised by its id.
  EXPECT_EQ(pool.ExploreNext(), 7u);
  EXPECT_EQ(pool.Insert(7, 0.5f), pool.capacity());
}

TEST(BeamPoolTest, PruneBoundInactiveWhileFilling) {
  BeamPool pool(2, kIds);
  pool.SetPruneBound(2.0f);
  EXPECT_GT(pool.WorstDistance(), 1e30f);
  EXPECT_LT(pool.Insert(1, 5.0f), pool.capacity());
  EXPECT_LT(pool.Insert(2, 9.0f), pool.capacity());
  // Full now: worst is min(back=9, bound=2) = 2.
  EXPECT_EQ(pool.WorstDistance(), 2.0f);
  EXPECT_EQ(pool.Insert(3, 2.0f), pool.capacity());
  EXPECT_EQ(pool.Insert(4, 1.5f), 0u);
  EXPECT_EQ(PoolIds(pool), (std::vector<VectorId>{4, 1}));
}

TEST(BeamPoolTest, RankCountsStrictlyCloser) {
  BeamPool pool(8, kIds);
  EXPECT_EQ(pool.Rank(1.0f), 0u);
  for (VectorId i = 0; i < 6; ++i) pool.Insert(i, static_cast<float>(i / 2));
  EXPECT_EQ(pool.Rank(0.0f), 0u);
  EXPECT_EQ(pool.Rank(1.0f), 2u);
  EXPECT_EQ(pool.Rank(1.5f), 4u);
  EXPECT_EQ(pool.Rank(7.0f), 6u);
}

TEST(BeamPoolTest, TopKMasksExploredFlag) {
  BeamPool pool(4, kIds);
  pool.Insert(3, 1.0f);
  pool.Insert(5, 2.0f);
  pool.ExploreNext();
  const auto top = pool.TopK(5);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], Neighbor(3, 1.0f));
  EXPECT_EQ(top[1], Neighbor(5, 2.0f));
}

TEST(BeamPoolTest, LargestIdsKeepTheirValue) {
  BeamPool pool(2, BeamPool::kMaxIdRange);
  const VectorId top = static_cast<VectorId>(BeamPool::kMaxIdRange - 1);
  pool.Insert(top, 1.0f);
  EXPECT_EQ(pool.ExploreNext(), top);
  EXPECT_TRUE(pool.explored(0));
  EXPECT_EQ(pool.id(0), top);
}

TEST(BeamPoolDeathTest, RefusesIdRangeThatNeedsTheFlagBit) {
  EXPECT_DEATH({ BeamPool pool(4, BeamPool::kMaxIdRange + 1); },
               "explored flag");
}

// Property: driven by a random stream of inserts and expansions, the pool
// matches a record array with per-entry explored flags and a full rescan
// for the first unexplored entry — the frontier it replaced.
class BeamPoolPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BeamPoolPropertyTest, MatchesRecordArrayFrontier) {
  const std::size_t capacity = GetParam();
  Rng rng(capacity * 131 + 5);
  BeamPool pool(capacity, kIds);
  struct Entry {
    Neighbor nb;
    bool explored;
  };
  std::vector<Entry> reference;
  for (int step = 0; step < 2000; ++step) {
    if (rng.UniformInt(4) == 0) {
      std::size_t first = 0;
      while (first < reference.size() && reference[first].explored) ++first;
      ASSERT_EQ(pool.HasUnexplored(), first < reference.size());
      if (first == reference.size()) continue;
      reference[first].explored = true;
      ASSERT_EQ(pool.PeekNext(), reference[first].nb.id);
      ASSERT_EQ(pool.ExploreNext(), reference[first].nb.id);
      continue;
    }
    const Neighbor candidate(static_cast<VectorId>(rng.UniformInt(kIds)),
                             static_cast<float>(rng.UniformInt(40)));
    std::size_t expect = capacity;
    const bool full = reference.size() == capacity;
    if (!full || candidate.distance < reference.back().nb.distance) {
      std::size_t lo = 0;
      while (lo < reference.size() &&
             reference[lo].nb.distance < candidate.distance) {
        ++lo;
      }
      bool duplicate = false;
      for (std::size_t p = lo; p < reference.size() &&
                               reference[p].nb.distance == candidate.distance;
           ++p) {
        duplicate = duplicate || reference[p].nb.id == candidate.id;
      }
      if (!duplicate) {
        reference.insert(reference.begin() + static_cast<std::ptrdiff_t>(lo),
                         Entry{candidate, false});
        if (reference.size() > capacity) reference.pop_back();
        expect = lo;
      }
    }
    ASSERT_EQ(pool.Insert(candidate.id, candidate.distance), expect);
    ASSERT_EQ(pool.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(pool.id(i), reference[i].nb.id) << "step " << step;
      ASSERT_EQ(pool.distance(i), reference[i].nb.distance);
      ASSERT_EQ(pool.explored(i), reference[i].explored);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, BeamPoolPropertyTest,
                         ::testing::Values(1, 2, 3, 8, 33, 100));

}  // namespace
}  // namespace gass::core
