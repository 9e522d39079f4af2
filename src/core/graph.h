// Proximity-graph representations.
//
// Graph is the mutable adjacency-list structure used during construction.
// FlatGraph is the read-only contiguous (CSR-style) layout used by the
// "optimized implementation" experiments (paper Fig. 17) and by HNSW's
// sealed base layer (methods/hnsw_graph.h): one bit-packed block holds all
// neighbor lists, removing per-node pointer chasing during search and
// storing each id in only as many bits as the vertex count needs.

#ifndef GASS_CORE_GRAPH_H_
#define GASS_CORE_GRAPH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/macros.h"
#include "core/status.h"
#include "core/types.h"

namespace gass::core {

/// Mutable directed proximity graph: per-vertex neighbor id lists.
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t n) : adjacency_(n) {}

  std::size_t size() const { return adjacency_.size(); }

  void Resize(std::size_t n) { adjacency_.resize(n); }

  const std::vector<VectorId>& Neighbors(VectorId v) const {
    GASS_DCHECK(v < adjacency_.size());
    return adjacency_[v];
  }
  std::vector<VectorId>& MutableNeighbors(VectorId v) {
    GASS_DCHECK(v < adjacency_.size());
    return adjacency_[v];
  }

  void AddEdge(VectorId from, VectorId to) {
    GASS_DCHECK(from < adjacency_.size() && to < adjacency_.size());
    adjacency_[from].push_back(to);
  }

  /// Adds `to` to `from`'s list only if absent. O(degree).
  bool AddEdgeUnique(VectorId from, VectorId to);

  void SetNeighbors(VectorId v, std::vector<VectorId> neighbors) {
    adjacency_[v] = std::move(neighbors);
  }

  /// Total number of directed edges.
  std::size_t EdgeCount() const;

  /// Maximum out-degree across vertices.
  std::size_t MaxDegree() const;

  /// Mean out-degree.
  double AverageDegree() const;

  /// Adds the reverse of every edge (deduplicated), making the graph
  /// effectively undirected. Used by DPG and NGT-style bidirection.
  void MakeUndirected();

  /// Number of vertices reachable from `start` by BFS over out-edges.
  std::size_t ReachableFrom(VectorId start) const;

  /// Approximate heap usage in bytes (ids + per-vector overhead).
  std::size_t MemoryBytes() const;

  /// Structural integrity check: every neighbor id is a valid vertex and no
  /// vertex lists itself. Used by the snapshot loader (never trust on-disk
  /// adjacency) and as a post-build assertion in construction tests.
  /// Returns kCorruption naming the first offending vertex.
  Status Validate() const;

  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

 private:
  std::vector<std::vector<VectorId>> adjacency_;
};

static_assert(std::endian::native == std::endian::little,
              "PackedIds decodes with little-endian loads");

/// One vertex's neighbor ids in FlatGraph's packed block: `size()` ids of
/// `width` bits each, starting `first_bit` bits into the block. Indexing
/// decodes one id (an unaligned 8-byte load, a shift and a mask), so beam
/// search decodes each id where it reads it, with no staging buffer. The
/// bit order is the little-endian one the load assumes.
class PackedIds {
 public:
  PackedIds(const unsigned char* block, std::uint64_t first_bit,
            std::size_t size, std::uint32_t width)
      : block_(block),
        first_bit_(first_bit),
        size_(size),
        width_(width),
        mask_((std::uint64_t{1} << width) - 1) {}

  std::size_t size() const { return size_; }

  VectorId operator[](std::size_t i) const {
    const std::uint64_t bit = first_bit_ + i * width_;
    std::uint64_t word;
    std::memcpy(&word, block_ + (bit >> 3), sizeof(word));
    return static_cast<VectorId>((word >> (bit & 7)) & mask_);
  }

  /// Address of the byte holding the first id, for prefetching.
  const void* data() const { return block_ + (first_bit_ >> 3); }

 private:
  const unsigned char* block_;
  std::uint64_t first_bit_;
  std::size_t size_;
  std::uint32_t width_;
  std::uint64_t mask_;
};

/// Read-only contiguous graph layout.
///
/// Stores offsets[n+1] and one bit-packed neighbor block: every id takes
/// width() = max(1, bit_width(n - 1)) bits, and v's list is ids
/// [offsets[v], offsets[v + 1]) of the block. The block carries one spare
/// word, so the 8-byte load that decodes any id stays in bounds. This
/// mirrors the hnswlib/ParlayANN contiguous layouts whose impact the paper
/// measures in Fig. 17, with ids narrowed to what n needs.
class FlatGraph {
 public:
  FlatGraph() = default;

  /// A graph whose lists have the lengths `offsets` gives (n + 1
  /// non-decreasing entries starting at 0; v's list holds
  /// offsets[v + 1] - offsets[v] ids), every id 0 until SetNeighbor
  /// writes it.
  explicit FlatGraph(std::vector<std::uint64_t> offsets);

  /// Packs lists one vertex at a time (see below); FromGraph and HNSW's
  /// seal and load build their graphs through it.
  class Packer;

  /// Builds the flat layout from an adjacency-list graph.
  static FlatGraph FromGraph(const Graph& graph);

  /// Bits per id for a graph of n vertices: enough to name vertex n - 1,
  /// and at least one.
  static std::uint32_t IdWidth(std::size_t n) {
    return n > 1 ? static_cast<std::uint32_t>(std::bit_width(n - 1)) : 1;
  }

  std::size_t size() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  std::uint32_t width() const { return width_; }

  /// v's neighbor ids, decoded on access.
  PackedIds Neighbors(VectorId v) const {
    GASS_DCHECK(v + 1 < offsets_.size());
    return PackedIds(reinterpret_cast<const unsigned char*>(words_.data()),
                     offsets_[v] * width_, offsets_[v + 1] - offsets_[v],
                     width_);
  }

  /// Overwrites the i-th id of v's list (i < Degree(v), id < size()),
  /// leaving every other id as it was. One id at a time, so builders use
  /// a Packer; tests use this to stand in for corruption.
  void SetNeighbor(VectorId v, std::size_t i, VectorId id);

  std::size_t Degree(VectorId v) const {
    GASS_DCHECK(v + 1 < offsets_.size());
    return offsets_[v + 1] - offsets_[v];
  }

  std::size_t EdgeCount() const {
    return offsets_.empty() ? 0 : offsets_.back();
  }

  /// The offsets plus the packed block: ceil(EdgeCount() * width() / 64)
  /// words of ids and the one spare word.
  std::size_t MemoryBytes() const {
    return (offsets_.size() + words_.size()) * sizeof(std::uint64_t);
  }

 private:
  std::vector<std::uint64_t> offsets_;  // size n+1, in ids.
  std::vector<std::uint64_t> words_;    // Packed ids, plus one spare word.
  std::uint32_t width_ = 1;
};

/// Packs lists one vertex at a time, in vertex order, into a block
/// sized for at most `max_edges` ids, so a caller holding its lists in
/// another form (HNSW's slots, a snapshot payload) needs no copy of them
/// all in between.
class FlatGraph::Packer {
 public:
  Packer(std::size_t n, std::size_t max_edges);

  /// Appends v's ids (anything with size() and operator[], each below
  /// n). v must follow every vertex appended before; the vertices
  /// skipped in between get empty lists. Returns false, packing nothing,
  /// when the ids would overflow max_edges.
  template <typename List>
  bool Append(VectorId v, const List& ids);

  /// The packed graph, its block trimmed to the ids appended; vertices
  /// never appended have empty lists.
  FlatGraph Finish() &&;

 private:
  FlatGraph flat_;
  std::size_t max_edges_;
  std::uint64_t edges_ = 0;    // Ids appended so far.
  VectorId next_ = 0;          // The first vertex not yet given a list.
  std::uint64_t pending_ = 0;  // Low `filled_` bits: ids not yet stored.
  std::uint32_t filled_ = 0;
};

template <typename List>
bool FlatGraph::Packer::Append(VectorId v, const List& ids) {
  const std::size_t n = flat_.size();
  GASS_CHECK(v >= next_ && v < n);
  if (ids.size() > max_edges_ - edges_) return false;
  for (VectorId u = next_ + 1; u <= v; ++u) flat_.offsets_[u] = edges_;
  // The bit stream continues where the last list stopped; locals keep it
  // in registers (a store to the block could alias a member).
  const std::uint32_t width = flat_.width_;
  std::uint64_t* word = flat_.words_.data() + edges_ * width / 64;
  std::uint64_t pending = pending_;
  std::uint32_t filled = filled_;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint64_t id = ids[i];
    GASS_CHECK(id < n);
    pending |= id << filled;
    filled += width;
    if (filled >= 64) {
      *word++ = pending;
      filled -= 64;
      pending = id >> (width - filled);  // The bits that did not fit.
    }
  }
  pending_ = pending;
  filled_ = filled;
  edges_ += ids.size();
  flat_.offsets_[v + 1] = edges_;
  next_ = v + 1;
  return true;
}

}  // namespace gass::core

#endif  // GASS_CORE_GRAPH_H_
