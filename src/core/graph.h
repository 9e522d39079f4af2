// Proximity-graph representations.
//
// Graph is the mutable adjacency-list structure used during construction.
// FlatGraph is the read-only contiguous (CSR-style) layout every built
// index searches: each single-graph method's sealed graph
// (methods/graph_index.h) and HNSW's sealed base layer
// (methods/hnsw_graph.h). One bit-packed block holds all neighbor lists,
// removing per-node pointer chasing during search (the "optimized
// implementation" of paper Fig. 17) and storing each id in only as many
// bits as the vertex count needs.
// PackedSlots is the mutable form of the same packing: fixed-stride slots,
// each a packed degree then room for a fixed number of packed ids,
// rewritten in place (HNSW's lists while it inserts).

#ifndef GASS_CORE_GRAPH_H_
#define GASS_CORE_GRAPH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/align.h"
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
  /// vertex lists itself (the checks io::DecodeGraph applies to on-disk
  /// lists as it reads them). A post-build assertion in construction
  /// tests. Returns kCorruption naming the first offending vertex.
  Status Validate() const;

 private:
  std::vector<std::vector<VectorId>> adjacency_;
};

static_assert(std::endian::native == std::endian::little,
              "PackedIds decodes with little-endian loads");

/// One vertex's neighbor ids in a packed block (FlatGraph's or a
/// PackedSlots slot): `size()` ids of
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

namespace internal {

/// Appends `ids` (each below `bound`) to a little-endian bit stream of
/// `width`-bit fields: `*pending` holds the stream's `*filled` low bits
/// not yet stored, and each word that fills is stored at `word`, which
/// advances. Returns the next word to store. The stream state lives in
/// locals meanwhile, since a store through `word` could alias it.
template <typename List>
std::uint64_t* StreamIds(const List& ids, std::uint64_t bound,
                         std::uint32_t width, std::uint64_t* word,
                         std::uint64_t* pending, std::uint32_t* filled) {
  std::uint64_t bits = *pending;
  std::uint32_t used = *filled;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint64_t id = ids[i];
    GASS_CHECK(id < bound);
    bits |= id << used;
    used += width;
    if (used >= 64) {
      *word++ = bits;
      used -= 64;
      bits = id >> (width - used);  // The bits that did not fit.
    }
  }
  *pending = bits;
  *filled = used;
  return word;
}

}  // namespace internal

/// Read-only contiguous graph layout.
///
/// Stores offsets[n+1] (u32, counted in ids) and one bit-packed neighbor
/// block: every id takes width() = max(1, bit_width(n - 1)) bits, and v's
/// list is ids [offsets[v], offsets[v + 1]) of the block. The block
/// carries one spare word, so the 8-byte load that decodes any id stays in
/// bounds. This mirrors the hnswlib/ParlayANN contiguous layouts whose
/// impact the paper measures in Fig. 17, with ids narrowed to what n needs.
///
/// The u32 offsets limit a FlatGraph to kMaxEdges = 2^32 - 1 edges in
/// all; the offsets constructor and the Packer abort on more. A graph of
/// 2^32 vertices would reach that limit at an average degree of one.
class FlatGraph {
 public:
  /// The most edges the u32 offsets can count.
  static constexpr std::uint64_t kMaxEdges = 0xFFFFFFFFu;

  FlatGraph() = default;

  /// A graph whose lists have the lengths `offsets` gives (n + 1
  /// non-decreasing entries starting at 0, the last at most kMaxEdges;
  /// v's list holds offsets[v + 1] - offsets[v] ids), every id 0 until
  /// SetNeighbor writes it.
  explicit FlatGraph(const std::vector<std::uint64_t>& offsets);

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
                     std::uint64_t{offsets_[v]} * width_,
                     offsets_[v + 1] - offsets_[v], width_);
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

  /// The n + 1 u32 offsets plus the packed block: ceil(EdgeCount() *
  /// width() / 64) words of ids and the one spare word.
  std::size_t MemoryBytes() const {
    return offsets_.size() * sizeof(std::uint32_t) +
           words_.size() * sizeof(std::uint64_t);
  }

 private:
  std::vector<std::uint32_t> offsets_;  // size n+1, in ids.
  std::vector<std::uint64_t> words_;    // Packed ids, plus one spare word.
  std::uint32_t width_ = 1;
};

/// Packs lists one vertex at a time, in vertex order, into a block
/// sized for at most `max_edges` ids, so a caller holding its lists in
/// another form (HNSW's slots, a snapshot payload) needs no copy of them
/// all in between.
class FlatGraph::Packer {
 public:
  /// Aborts if `max_edges` exceeds kMaxEdges.
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
  const auto edges = static_cast<std::uint32_t>(edges_);
  for (VectorId u = next_ + 1; u <= v; ++u) flat_.offsets_[u] = edges;
  // The bit stream continues where the last list stopped.
  const std::uint32_t width = flat_.width_;
  internal::StreamIds(ids, n, width,
                      flat_.words_.data() + edges_ * width / 64, &pending_,
                      &filled_);
  edges_ += ids.size();
  flat_.offsets_[v + 1] = static_cast<std::uint32_t>(edges_);
  next_ = v + 1;
  return true;
}

/// Fixed-stride, bit-packed neighbor lists that are rewritten in place.
///
/// Slot s holds a degree of bit_width(capacity) bits, then room for
/// `capacity` ids of FlatGraph::IdWidth(id_range) bits each, the whole slot
/// rounded up to stride_words() u64 words. The block is 64-byte aligned and
/// carries one spare word past the last slot, so the unaligned 8-byte load
/// or read-modify-write of any id stays in bounds. Neighbors(s) returns the
/// same PackedIds view as FlatGraph, so a PackedSlots whose slot v is
/// vertex v's list is a graph core::BeamSearch can walk. At capacity 32
/// and an id range of at most 2^15, a slot is exactly one cache line.
class PackedSlots {
 public:
  PackedSlots() = default;

  /// `slots` empty slots of `capacity` (>= 1) ids, each below `id_range`.
  PackedSlots(std::size_t slots, std::size_t capacity, std::size_t id_range);

  /// Words per slot: bit_width(capacity) degree bits plus capacity ids of
  /// IdWidth(id_range) bits, rounded up to whole words.
  static std::size_t StrideWords(std::size_t capacity, std::size_t id_range) {
    const std::size_t bits = std::bit_width(capacity) +
                             capacity * FlatGraph::IdWidth(id_range);
    return (bits + 63) / 64;
  }

  std::size_t size() const { return slots_; }
  std::uint32_t width() const { return width_; }
  std::size_t stride_words() const { return stride_; }

  std::size_t Degree(std::size_t s) const {
    GASS_DCHECK(s < slots_);
    return words_[s * stride_] & degree_mask_;
  }

  /// Slot s's ids, decoded on access.
  PackedIds Neighbors(std::size_t s) const {
    GASS_DCHECK(s < slots_);
    const std::size_t first = s * stride_;
    return PackedIds(reinterpret_cast<const unsigned char*>(words_.data()),
                     std::uint64_t{first} * 64 + degree_bits_,
                     words_[first] & degree_mask_, width_);
  }

  /// Makes `ids` (anything with size() <= capacity() and operator[], each
  /// id below the id range) slot s's list. Every word of the slot is
  /// rewritten, so nothing of a longer list it replaces stays behind.
  template <typename List>
  void SetList(std::size_t s, const List& ids);

  /// Appends `id` to slot s's list. Returns false, changing nothing, when
  /// the slot is full.
  bool Append(std::size_t s, VectorId id);

  /// Overwrites the i-th id of slot s (i < Degree(s)), leaving every other
  /// bit as it was.
  void Set(std::size_t s, std::size_t i, VectorId id);

  /// Appends `count` empty slots.
  void AddSlots(std::size_t count);

  /// Frees the block's capacity beyond the slots it holds.
  void ShrinkToFit() { words_.shrink_to_fit(); }

  /// The allocated block: 8 * (size() * stride_words() + 1) bytes once
  /// trimmed, 0 for a default-constructed PackedSlots.
  std::size_t MemoryBytes() const {
    return words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  std::vector<std::uint64_t,
              AlignedAllocator<std::uint64_t, kCacheLineBytes>>
      words_;  // size() slots of stride_ words, plus one spare word.
  std::size_t slots_ = 0;
  std::size_t capacity_ = 0;
  std::size_t id_range_ = 0;
  std::size_t stride_ = 0;
  std::uint32_t width_ = 1;
  std::uint32_t degree_bits_ = 0;
  std::uint64_t degree_mask_ = 0;
};

template <typename List>
void PackedSlots::SetList(std::size_t s, const List& ids) {
  GASS_CHECK(s < slots_ && ids.size() <= capacity_);
  // One pass over the slot's words, as Packer::Append streams a list:
  // the degree, then each id, then zeros to the slot's end.
  std::uint64_t* const end = words_.data() + (s + 1) * stride_;
  std::uint64_t pending = ids.size();
  std::uint32_t filled = degree_bits_;
  std::uint64_t* word =
      internal::StreamIds(ids, id_range_, width_, words_.data() + s * stride_,
                          &pending, &filled);
  for (; word < end; ++word) {
    *word = pending;
    pending = 0;
  }
}

}  // namespace gass::core

#endif  // GASS_CORE_GRAPH_H_
