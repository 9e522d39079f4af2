// HnswGraph: HNSW's whole layer hierarchy, with layer 0 in one of two forms.
//
// While vertices are being inserted, layer 0 is a core::PackedSlots block:
// hnswlib's fixed-stride link lists (`size_links_level0`) with the degree
// and ids bit-packed. Slot v holds a bit_width(2M)-bit degree then room for
// 2M ids of bit_width(n - 1) bits, rounded up to whole u64 words: at M = 16
// and n <= 2^15 that is one 64-byte cache line. Every insert rewrites
// lists in place. Once an index stops growing, Seal() packs layer 0 into a
// core::FlatGraph (CSR: n + 1 u32 offsets and one block of ids at the same
// width) and frees the slots. Built lists hold about half their 2M
// capacity, so a vertex costs 4 + degree·width/8 bytes sealed against its
// whole slot, and static searches run on the sealed form. Both forms
// decode each id as beam search reads it, through the same core::PackedIds
// view. Unseal() turns layer 0 back into slots before the next insert.
// HnswIndex::Build seals, as does every load; BuildPrefix and Extend leave
// slots.
//
// The upper layers always share a second PackedSlots block of M-id slots
// that exist only for vertices of level >= 1: vertex v's layer-l slot
// (1 <= l <= level(v)) is slot `first_upper_[v] + l - 1`, and AddLevels
// appends a vertex's slots when it is inserted. No vertex pays for an empty
// list header on a layer it is not in.
//
// Snapshots keep the v1 per-layer list encoding (io::EncodeGraph's format)
// whichever form layer 0 is in, so files written before any of these
// layouts existed still load, and DecodeLayer rejects any list a slot could
// not hold, so every loaded index can be unsealed and extended.

#ifndef GASS_METHODS_HNSW_GRAPH_H_
#define GASS_METHODS_HNSW_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/graph.h"
#include "core/macros.h"
#include "core/status.h"
#include "core/types.h"
#include "io/serialize.h"

namespace gass::methods {

class HnswGraph {
 public:
  /// One upper layer (>= 1). Only vertices of at least this level may be
  /// expanded; every id stored on the layer satisfies that.
  class UpperLayer {
   public:
    UpperLayer(const core::PackedSlots* slots, const std::uint32_t* first,
               std::size_t layer)
        : slots_(slots), first_(first), layer_(layer) {}
    core::PackedIds Neighbors(core::VectorId v) const {
      return slots_->Neighbors(first_[v] + layer_ - 1);
    }

   private:
    const core::PackedSlots* slots_;
    const std::uint32_t* first_;
    std::size_t layer_;
  };

  HnswGraph() = default;

  /// A graph over `n` vertices, all at level 0 with empty base lists, and
  /// layer 0 sealed; layer 0 may hold up to 2m ids per vertex, upper
  /// layers up to m. Unseal() before inserting.
  void Reset(std::size_t n, std::size_t m);

  /// Packs layer 0 into its sealed, bit-packed CSR form and frees the
  /// slots (a no-op on layer 0 if it is already sealed), then trims the
  /// upper layers, so MemoryBytes() counts only resident lists.
  void Seal();

  /// Expands a sealed layer 0 back into 2M-id slots, so inserts can
  /// rewrite lists in place.
  void Unseal();

  /// Frees the upper-layer block's spare capacity (AddLevels grows it
  /// geometrically).
  void TrimUpper() { upper_.ShrinkToFit(); }

  bool sealed() const { return sealed_; }

  /// Gives level-0 vertex `v` `level` empty upper-layer slots (appended to
  /// the upper block) and raises num_layers() to `level` if it is higher.
  void AddLevels(core::VectorId v, std::uint32_t level);

  std::size_t size() const { return level_.size(); }
  std::size_t num_layers() const { return num_layers_; }
  std::uint32_t level(core::VectorId v) const { return level_[v]; }
  const std::vector<std::uint32_t>& levels() const { return level_; }

  /// Slot capacity of `layer`: 2M on layer 0, M above.
  std::size_t MaxDegree(std::size_t layer) const {
    return layer == 0 ? 2 * m_ : m_;
  }

  /// Layer 0's slots (slot v is v's list); only while unsealed.
  const core::PackedSlots& base() const {
    GASS_DCHECK(!sealed_);
    return base_;
  }
  /// Layer 0's packed CSR form; only while sealed.
  const core::FlatGraph& sealed_base() const {
    GASS_DCHECK(sealed_);
    return sealed_base_;
  }
  /// Calls `search(layer0)` with whichever form layer 0 is in (the
  /// PackedSlots or the sealed core::FlatGraph) and returns its result, so
  /// one generic search serves both.
  template <typename Search>
  decltype(auto) VisitBase(Search&& search) const {
    if (sealed_) return search(sealed_base_);
    return search(base());
  }
  UpperLayer upper(std::size_t layer) const {
    GASS_DCHECK(layer >= 1 && layer <= num_layers_);
    return UpperLayer(&upper_, first_upper_.data(), layer);
  }

  /// v's list on `layer` (layer 0 only while unsealed), decoded on access.
  core::PackedIds Neighbors(std::size_t layer, core::VectorId v) const {
    return Slots(layer).Neighbors(SlotOf(layer, v));
  }

  /// Makes `ids` (at most MaxDegree(layer), anything with size() and
  /// operator[]) v's list on `layer`; layer 0 only while unsealed.
  template <typename List>
  void SetList(std::size_t layer, core::VectorId v, const List& ids) {
    Slots(layer).SetList(SlotOf(layer, v), ids);
  }

  /// Appends `id` to v's list on `layer` (layer 0 only while unsealed).
  /// Returns false, changing nothing, when the list is full.
  bool AppendNeighbor(std::size_t layer, core::VectorId v, core::VectorId id) {
    return Slots(layer).Append(SlotOf(layer, v), id);
  }

  /// Overwrites the i-th id of v's list on `layer` (i below its degree,
  /// `id` below size()) in either form. For tests that stand in for memory
  /// corruption: no index code writes through it.
  void SetNeighborForTesting(std::size_t layer, core::VectorId v,
                             std::size_t i, core::VectorId id);

  /// Materializes one layer as an adjacency-list graph over all n vertices
  /// (vertices below the layer get empty lists). For tools and tests; no
  /// search, build, copy or digest path uses it.
  core::Graph ToGraph(std::size_t layer) const;

  /// Writes `layer` in io::EncodeGraph's format (n, then per vertex a u32
  /// degree and its ids), the snapshot's v1 encoding.
  void EncodeLayer(std::size_t layer, io::Encoder* enc) const;

  /// Inverse of EncodeLayer into this graph, whose levels must already be
  /// set (Reset + AddLevels). Layer 0 must be sealed: io::DecodeGraph,
  /// the single-graph indexes' decoder, packs it straight into the sealed
  /// form, each list at most MaxDegree(0) ids. Upper layers fill their
  /// slots. Rejects with kCorruption a vertex count other than size(), a
  /// list longer than MaxDegree(layer), an out-of-range id or self-loop,
  /// and on upper layers a list on a vertex below `layer` and an id whose
  /// vertex is below `layer`.
  core::Status DecodeLayer(io::Decoder* dec, std::size_t layer);

  /// Allocated bytes of layer 0 (in its current form), the upper-layer
  /// slots and the per-vertex tables.
  std::size_t MemoryBytes() const;

 private:
  /// Calls `visit(view)` with `layer`'s view: upper(layer) above layer 0,
  /// either form of layer 0 (as VisitBase) on it. Every view's
  /// `Neighbors(v)` is v's list (v must have level >= layer).
  template <typename Visit>
  void VisitLayer(std::size_t layer, Visit&& visit) const {
    if (layer > 0) {
      visit(upper(layer));
    } else {
      VisitBase(visit);
    }
  }

  /// The slot block holding `layer` (layer 0 only while unsealed), and
  /// v's slot in it.
  const core::PackedSlots& Slots(std::size_t layer) const {
    GASS_DCHECK(layer > 0 || !sealed_);
    return layer == 0 ? base_ : upper_;
  }
  core::PackedSlots& Slots(std::size_t layer) {
    GASS_DCHECK(layer > 0 || !sealed_);
    return layer == 0 ? base_ : upper_;
  }
  std::size_t SlotOf(std::size_t layer, core::VectorId v) const {
    GASS_DCHECK(v < level_.size() && layer <= level_[v]);
    return layer == 0 ? v : first_upper_[v] + layer - 1;
  }

  std::size_t m_ = 1;
  std::size_t num_layers_ = 0;
  bool sealed_ = false;
  core::PackedSlots base_;                  ///< n slots, layer 0 (unsealed).
  core::FlatGraph sealed_base_;             ///< Layer 0 (sealed).
  core::PackedSlots upper_;                 ///< Appended upper-layer slots.
  std::vector<std::uint32_t> first_upper_;  ///< v's first upper slot.
  std::vector<std::uint32_t> level_;        ///< v's top layer.
};

}  // namespace gass::methods

#endif  // GASS_METHODS_HNSW_GRAPH_H_
