#include "core/graph.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace gass::core {
namespace {

Graph MakeChain(std::size_t n) {
  Graph graph(n);
  for (VectorId v = 0; v + 1 < n; ++v) graph.AddEdge(v, v + 1);
  return graph;
}

TEST(GraphTest, AddAndQueryEdges) {
  Graph graph(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(0, 2);
  EXPECT_EQ(graph.Neighbors(0).size(), 2u);
  EXPECT_TRUE(graph.Neighbors(1).empty());
  EXPECT_EQ(graph.EdgeCount(), 2u);
}

TEST(GraphTest, AddEdgeUniqueRejectsDuplicates) {
  Graph graph(2);
  EXPECT_TRUE(graph.AddEdgeUnique(0, 1));
  EXPECT_FALSE(graph.AddEdgeUnique(0, 1));
  EXPECT_EQ(graph.Neighbors(0).size(), 1u);
}

TEST(GraphTest, DegreeStatistics) {
  Graph graph(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(0, 2);
  graph.AddEdge(1, 0);
  EXPECT_EQ(graph.MaxDegree(), 2u);
  EXPECT_DOUBLE_EQ(graph.AverageDegree(), 1.0);
}

TEST(GraphTest, MakeUndirectedAddsReverseEdges) {
  Graph graph = MakeChain(4);
  graph.MakeUndirected();
  for (VectorId v = 1; v + 1 < 4; ++v) {
    const auto& list = graph.Neighbors(v);
    EXPECT_NE(std::find(list.begin(), list.end(), v - 1), list.end());
    EXPECT_NE(std::find(list.begin(), list.end(), v + 1), list.end());
  }
}

TEST(GraphTest, MakeUndirectedDeduplicatesAndDropsSelfLoops) {
  Graph graph(2);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 0);
  graph.AddEdge(0, 0);
  graph.MakeUndirected();
  EXPECT_EQ(graph.Neighbors(0).size(), 1u);
  EXPECT_EQ(graph.Neighbors(1).size(), 1u);
}

TEST(GraphTest, ReachableFromCountsComponent) {
  Graph graph = MakeChain(5);
  EXPECT_EQ(graph.ReachableFrom(0), 5u);
  EXPECT_EQ(graph.ReachableFrom(4), 1u);  // Chain is directed.
  Graph two(4);
  two.AddEdge(0, 1);
  two.AddEdge(2, 3);
  EXPECT_EQ(two.ReachableFrom(0), 2u);
}

std::vector<VectorId> ListOf(const FlatGraph& flat, VectorId v) {
  const PackedIds list = flat.Neighbors(v);
  std::vector<VectorId> ids(list.size());
  for (std::size_t i = 0; i < list.size(); ++i) ids[i] = list[i];
  return ids;
}

/// The packed layout's exact footprint: n + 1 u32 offsets, then
/// ceil(edges * width / 64) words of ids and one spare word.
std::size_t PackedBytes(std::size_t n, std::size_t edges, std::size_t width) {
  return (n + 1) * sizeof(std::uint32_t) +
         ((edges * width + 63) / 64 + 1) * sizeof(std::uint64_t);
}

void ExpectSameLists(const Graph& graph, const FlatGraph& flat) {
  ASSERT_EQ(flat.size(), graph.size());
  for (VectorId v = 0; v < graph.size(); ++v) {
    EXPECT_EQ(flat.Degree(v), graph.Neighbors(v).size()) << "vertex " << v;
    EXPECT_EQ(ListOf(flat, v), graph.Neighbors(v)) << "vertex " << v;
  }
}

TEST(FlatGraphTest, FromGraphPreservesAdjacency) {
  Graph graph(4);
  graph.AddEdge(0, 2);
  graph.AddEdge(0, 3);
  graph.AddEdge(2, 1);
  const FlatGraph flat = FlatGraph::FromGraph(graph);
  ASSERT_EQ(flat.size(), 4u);
  EXPECT_EQ(flat.EdgeCount(), 3u);
  EXPECT_EQ(flat.width(), 2u);
  EXPECT_EQ(ListOf(flat, 0), (std::vector<VectorId>{2, 3}));
  EXPECT_EQ(flat.Degree(1), 0u);
  EXPECT_EQ(flat.Degree(2), 1u);
  EXPECT_EQ(ListOf(flat, 2), (std::vector<VectorId>{1}));
}

TEST(FlatGraphTest, IdWidthNamesTheLastVertex) {
  EXPECT_EQ(FlatGraph::IdWidth(1), 1u);
  EXPECT_EQ(FlatGraph::IdWidth(2), 1u);
  EXPECT_EQ(FlatGraph::IdWidth(3), 2u);
  EXPECT_EQ(FlatGraph::IdWidth(std::size_t{1} << 14), 14u);
  EXPECT_EQ(FlatGraph::IdWidth((std::size_t{1} << 14) + 1), 15u);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{1} << 14,
        (std::size_t{1} << 14) + 1}) {
    const FlatGraph flat(std::vector<std::uint64_t>(n + 1, 0));
    EXPECT_EQ(flat.width(), FlatGraph::IdWidth(n)) << "n = " << n;
    EXPECT_EQ(flat.MemoryBytes(), PackedBytes(n, 0, flat.width()));
  }
}

TEST(FlatGraphTest, EveryWidthRoundTripsTheLastId) {
  // Each graph links every vertex to the last one, n - 1 (all ones at
  // widths 1, 2 and 14; a lone top bit at 15), and the last vertex to 0.
  // FromGraph packs in one pass; SetNeighbor writes the same ids one at a
  // time into a zeroed block.
  for (const std::size_t n :
       {std::size_t{2}, std::size_t{3}, std::size_t{4},
        std::size_t{1} << 14, (std::size_t{1} << 14) + 1}) {
    Graph graph(n);
    const VectorId last = static_cast<VectorId>(n - 1);
    for (VectorId v = 0; v < last; ++v) graph.AddEdge(v, last);
    graph.AddEdge(last, 0);
    const FlatGraph flat = FlatGraph::FromGraph(graph);
    ExpectSameLists(graph, flat);
    EXPECT_EQ(flat.MemoryBytes(), PackedBytes(n, n, flat.width()));

    std::vector<std::uint64_t> offsets(n + 1);
    for (std::size_t v = 0; v <= n; ++v) offsets[v] = v;
    FlatGraph by_id(std::move(offsets));
    for (VectorId v = 0; v < last; ++v) by_id.SetNeighbor(v, 0, last);
    by_id.SetNeighbor(last, 0, 0);
    ExpectSameLists(graph, by_id);
  }
}

TEST(FlatGraphTest, ListEndingOnTheBlocksLastBit) {
  // 2^14 vertices take 14 bits an id, so 32 ids fill exactly 7 words: the
  // last list's last id ends on bit 447, and decoding it reads into the
  // spare word. Every vertex but the first and last has degree 0.
  const std::size_t n = std::size_t{1} << 14;
  const VectorId last = static_cast<VectorId>(n - 1);
  Graph graph(n);
  graph.AddEdge(0, last);
  for (VectorId i = 0; i < 31; ++i) graph.AddEdge(last, last - 1 - i * 97);
  const FlatGraph flat = FlatGraph::FromGraph(graph);
  ASSERT_EQ(flat.width(), 14u);
  ASSERT_EQ(flat.EdgeCount() * flat.width(), 7u * 64u);
  ExpectSameLists(graph, flat);
  EXPECT_EQ(flat.Degree(1), 0u);
  EXPECT_EQ(flat.Degree(last - 1), 0u);
  EXPECT_EQ(flat.MemoryBytes(), (n + 1) * sizeof(std::uint32_t) +
                                    8 * sizeof(std::uint64_t));
}

TEST(FlatGraphTest, RandomGraphRoundTripsAndSetNeighborIsLocal) {
  Rng rng(17);
  const std::size_t n = 1000;  // 10-bit ids, straddling byte boundaries.
  Graph graph(n);
  for (VectorId v = 0; v < n; ++v) {
    const std::size_t degree = rng.UniformInt(v % 9 == 0 ? 1 : 40);
    for (std::size_t e = 0; e < degree; ++e) {
      graph.AddEdge(v, static_cast<VectorId>(rng.UniformInt(n)));
    }
  }
  FlatGraph flat = FlatGraph::FromGraph(graph);
  ASSERT_EQ(flat.width(), 10u);
  ExpectSameLists(graph, flat);
  EXPECT_EQ(flat.EdgeCount(), graph.EdgeCount());
  EXPECT_EQ(flat.MemoryBytes(),
            PackedBytes(n, graph.EdgeCount(), flat.width()));

  // Overwriting ids in place (all ones, then all zeros) leaves every
  // other id of the block as it was.
  for (VectorId v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < flat.Degree(v); i += 3) {
      flat.SetNeighbor(v, i, static_cast<VectorId>(n - 1));
      graph.MutableNeighbors(v)[i] = static_cast<VectorId>(n - 1);
    }
  }
  ExpectSameLists(graph, flat);
  for (VectorId v = 0; v < n; ++v) {
    for (std::size_t i = 1; i < flat.Degree(v); i += 4) {
      flat.SetNeighbor(v, i, 0);
      graph.MutableNeighbors(v)[i] = 0;
    }
  }
  ExpectSameLists(graph, flat);
}

TEST(FlatGraphTest, MemorySmallerThanAdjacencyLists) {
  Graph graph(100);
  for (VectorId v = 0; v < 100; ++v) {
    for (VectorId u = 0; u < 8; ++u) {
      if (u != v) graph.AddEdge(v, u);
    }
  }
  const FlatGraph flat = FlatGraph::FromGraph(graph);
  EXPECT_LT(flat.MemoryBytes(), graph.MemoryBytes() * 2);
  EXPECT_GT(flat.MemoryBytes(), 0u);
  EXPECT_EQ(flat.MemoryBytes(),
            PackedBytes(100, graph.EdgeCount(), flat.width()));
}

// A packer sized above what it is given (a loader sizes it from the
// payload before reading a list) gives skipped vertices empty lists,
// refuses a list that would overflow, and trims its block to the ids it
// packed: the same lists and footprint as FromGraph over those lists.
TEST(FlatGraphTest, PackerSkipsVerticesRefusesOverflowAndTrims) {
  Graph graph(300);  // 9-bit ids.
  graph.SetNeighbors(1, {299, 0, 7});
  graph.SetNeighbors(4, {2});
  graph.SetNeighbors(298, {1, 299});
  FlatGraph::Packer packer(300, 100);
  EXPECT_TRUE(packer.Append(1, graph.Neighbors(1)));
  EXPECT_TRUE(packer.Append(4, graph.Neighbors(4)));
  EXPECT_FALSE(packer.Append(5, std::vector<VectorId>(98, 3)));
  EXPECT_TRUE(packer.Append(298, graph.Neighbors(298)));
  const FlatGraph flat = std::move(packer).Finish();
  ExpectSameLists(graph, flat);
  EXPECT_EQ(flat.EdgeCount(), 6u);
  EXPECT_EQ(flat.MemoryBytes(), PackedBytes(300, 6, 9));
  EXPECT_EQ(flat.MemoryBytes(), FlatGraph::FromGraph(graph).MemoryBytes());
}

// The u32 offsets cap a FlatGraph at 2^32 - 1 edges; asking a Packer for
// more aborts before anything is allocated.
TEST(FlatGraphDeathTest, PackerRefusesMoreEdgesThanU32OffsetsCount) {
  EXPECT_DEATH(FlatGraph::Packer(2, FlatGraph::kMaxEdges + 1),
               "at most 2\\^32 - 1 edges");
  const std::vector<std::uint64_t> offsets{0, FlatGraph::kMaxEdges + 1};
  EXPECT_DEATH(FlatGraph{offsets}, "at most 2\\^32 - 1 edges");
}

std::vector<VectorId> ListOf(const PackedSlots& slots, std::size_t s) {
  const PackedIds list = slots.Neighbors(s);
  std::vector<VectorId> ids(list.size());
  for (std::size_t i = 0; i < list.size(); ++i) ids[i] = list[i];
  return ids;
}

// A slot is a bit_width(capacity)-bit degree and capacity ids, rounded up
// to whole words: HNSW's layer 0 at M = 16 fills one cache line while ids
// fit 15 bits and spills into a ninth word at 16.
TEST(PackedSlotsTest, StrideAtTheWidthBoundaries) {
  EXPECT_EQ(PackedSlots::StrideWords(32, std::size_t{1} << 15), 8u);
  EXPECT_EQ(PackedSlots::StrideWords(32, (std::size_t{1} << 15) + 1), 9u);
  EXPECT_EQ(PackedSlots::StrideWords(16, std::size_t{1} << 15), 4u);
  EXPECT_EQ(PackedSlots::StrideWords(2, std::size_t{1} << 31), 1u);
  const PackedSlots slots(3, 32, std::size_t{1} << 15);
  EXPECT_EQ(slots.stride_words(), 8u);
  EXPECT_EQ(slots.width(), 15u);
  EXPECT_EQ(slots.size(), 3u);
}

TEST(PackedSlotsTest, EmptyAndFullSlots) {
  const std::size_t range = std::size_t{1} << 15;
  PackedSlots slots(4, 32, range);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(slots.Degree(s), 0u);
    EXPECT_EQ(slots.Neighbors(s).size(), 0u);
  }
  std::vector<VectorId> full(32);
  for (std::size_t i = 0; i < full.size(); ++i) {
    full[i] = static_cast<VectorId>(range - 1 - i * 131);
  }
  slots.SetList(1, full);
  EXPECT_EQ(slots.Degree(1), 32u);
  EXPECT_EQ(ListOf(slots, 1), full);
  EXPECT_EQ(slots.Degree(0), 0u);
  EXPECT_EQ(slots.Degree(2), 0u);
  slots.SetList(1, std::vector<VectorId>{});
  EXPECT_EQ(slots.Degree(1), 0u);
}

// SetList rewrites the whole slot, so an id of the longer list it replaced
// never resurfaces: not when the list is read, nor once appends reach the
// positions the old ids held.
TEST(PackedSlotsTest, ShorterListLeavesNoStaleId) {
  PackedSlots slots(2, 16, 1000);
  slots.SetList(0, std::vector<VectorId>(16, 999));
  slots.SetList(0, std::vector<VectorId>{3, 5});
  EXPECT_EQ(ListOf(slots, 0), (std::vector<VectorId>{3, 5}));
  ASSERT_TRUE(slots.Append(0, 0));
  ASSERT_TRUE(slots.Append(0, 7));
  EXPECT_EQ(ListOf(slots, 0), (std::vector<VectorId>{3, 5, 0, 7}));
  slots.SetList(0, std::vector<VectorId>{});
  for (std::size_t i = 0; i < 16; ++i) ASSERT_TRUE(slots.Append(0, 0));
  EXPECT_EQ(ListOf(slots, 0), std::vector<VectorId>(16, 0));
}

TEST(PackedSlotsTest, AppendToAFullSlotIsRefused) {
  PackedSlots slots(2, 3, 100);
  EXPECT_TRUE(slots.Append(1, 10));
  EXPECT_TRUE(slots.Append(1, 99));
  EXPECT_TRUE(slots.Append(1, 0));
  EXPECT_FALSE(slots.Append(1, 42));
  EXPECT_EQ(ListOf(slots, 1), (std::vector<VectorId>{10, 99, 0}));
  EXPECT_EQ(slots.Degree(0), 0u);
  slots.Set(1, 1, 55);
  EXPECT_EQ(ListOf(slots, 1), (std::vector<VectorId>{10, 55, 0}));
}

// Capacity 2 at 31-bit ids fills each one-word slot to its last bit, so
// the last id of the last slot ends on the block's last bit: decoding it
// and writing it read and rewrite bytes of the spare word (which ASan
// checks is allocated).
TEST(PackedSlotsTest, LastIdOfTheLastSlotEndsTheBlock) {
  const std::size_t range = std::size_t{1} << 31;
  PackedSlots slots(3, 2, range);
  ASSERT_EQ(slots.stride_words(), 1u);
  const VectorId last = static_cast<VectorId>(range - 1);
  for (std::size_t s = 0; s < 3; ++s) {
    slots.SetList(s, std::vector<VectorId>{last, last - 1});
  }
  EXPECT_EQ(ListOf(slots, 2), (std::vector<VectorId>{last, last - 1}));
  slots.Set(2, 1, 0);
  slots.SetList(1, std::vector<VectorId>{last});
  ASSERT_TRUE(slots.Append(1, 1));
  EXPECT_EQ(ListOf(slots, 0), (std::vector<VectorId>{last, last - 1}));
  EXPECT_EQ(ListOf(slots, 1), (std::vector<VectorId>{last, 1}));
  EXPECT_EQ(ListOf(slots, 2), (std::vector<VectorId>{last, 0}));
}

// MemoryBytes is the whole block: slots of stride_words() words and the
// one spare word, 64-byte aligned, and nothing for an empty PackedSlots.
TEST(PackedSlotsTest, MemoryBytesFormula) {
  EXPECT_EQ(PackedSlots().MemoryBytes(), 0u);
  PackedSlots slots(10, 32, 20000);
  EXPECT_EQ(slots.MemoryBytes(), 8u * (10 * 8 + 1));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(slots.Neighbors(0).data()) %
                64,
            0u);
  PackedSlots upper(0, 16, 20000);
  EXPECT_EQ(upper.MemoryBytes(), 8u);
  for (int i = 0; i < 7; ++i) upper.AddSlots(3);
  upper.ShrinkToFit();
  EXPECT_EQ(upper.size(), 21u);
  EXPECT_EQ(upper.MemoryBytes(), 8u * (21 * 4 + 1));
}

// A seeded mix of whole-list writes, appends (refused once full) and
// single-id overwrites, across slots grown in batches, always reads back
// as the same operations on vectors.
TEST(PackedSlotsTest, RandomOperationsMatchAReference) {
  Rng rng(29);
  const std::size_t capacity = 20;
  const std::size_t range = 5000;  // 13-bit ids, straddling bytes.
  PackedSlots slots(50, capacity, range);
  std::vector<std::vector<VectorId>> reference(50);
  auto random_id = [&] { return static_cast<VectorId>(rng.UniformInt(range)); };
  for (int op = 0; op < 20000; ++op) {
    if (op % 2500 == 0) {
      slots.AddSlots(5);
      reference.resize(reference.size() + 5);
    }
    const std::size_t s = rng.UniformInt(reference.size());
    std::vector<VectorId>& list = reference[s];
    switch (rng.UniformInt(3)) {
      case 0: {
        list.resize(rng.UniformInt(capacity + 1));
        for (VectorId& id : list) id = random_id();
        slots.SetList(s, list);
        break;
      }
      case 1: {
        const VectorId id = random_id();
        const bool fits = list.size() < capacity;
        ASSERT_EQ(slots.Append(s, id), fits) << "op " << op;
        if (fits) list.push_back(id);
        break;
      }
      default: {
        if (list.empty()) break;
        const std::size_t i = rng.UniformInt(list.size());
        list[i] = random_id();
        slots.Set(s, i, list[i]);
        break;
      }
    }
  }
  ASSERT_EQ(slots.size(), reference.size());
  for (std::size_t s = 0; s < reference.size(); ++s) {
    EXPECT_EQ(ListOf(slots, s), reference[s]) << "slot " << s;
  }
}

}  // namespace
}  // namespace gass::core
