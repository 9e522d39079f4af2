// HnswGraph: HNSW's whole layer hierarchy in one fixed-stride arena.
//
// This is hnswlib's link-list layout (`size_links_level0`). Layer 0 is one
// flat u32 buffer of n slots, each `2M + 1` words wide: a degree word, then
// up to 2M neighbor ids. The upper layers share a second buffer of
// `M + 1`-word slots that exist only for vertices of level >= 1: vertex v's
// layer-l slot (1 <= l <= level(v)) is slot `first_upper_[v] + l - 1`, and
// AddLevels appends a vertex's slots when it is inserted. No vertex pays for
// an empty list header on a layer it is not in, and a neighbor list is a
// pointer offset away from its vertex id, with no per-node heap block.
//
// The arena is mutable in place, so build, Extend (live inserts), search,
// save, load and digest all use this one form; there is no sealed copy to
// keep beside it. Snapshots keep the v1 per-layer list encoding
// (io::EncodeGraph's format), so files written before the arena existed
// still load, and DecodeLayer rejects any list a fixed slot cannot hold.

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
  /// Layer 0 as core::BeamSearch expands it: slot v sits at v * stride.
  class BaseLayer {
   public:
    BaseLayer(const std::uint32_t* words, std::size_t stride)
        : words_(words), stride_(stride) {}
    const core::VectorId* Neighbors(core::VectorId v,
                                    std::size_t* degree) const {
      const std::uint32_t* slot = words_ + v * stride_;
      *degree = slot[0];
      return slot + 1;
    }

   private:
    const std::uint32_t* words_;
    std::size_t stride_;
  };

  /// One upper layer (>= 1). Only vertices of at least this level may be
  /// expanded; every id stored on the layer satisfies that.
  class UpperLayer {
   public:
    UpperLayer(const std::uint32_t* words, const std::uint32_t* first,
               std::size_t stride, std::size_t layer)
        : words_(words), first_(first), stride_(stride), layer_(layer) {}
    const core::VectorId* Neighbors(core::VectorId v,
                                    std::size_t* degree) const {
      const std::uint32_t* slot =
          words_ + (first_[v] + layer_ - 1) * stride_;
      *degree = slot[0];
      return slot + 1;
    }

   private:
    const std::uint32_t* words_;
    const std::uint32_t* first_;
    std::size_t stride_;
    std::size_t layer_;
  };

  HnswGraph() = default;

  /// An arena over `n` vertices, all at level 0 with empty base lists;
  /// layer 0 holds up to 2m ids per vertex, upper layers up to m.
  void Reset(std::size_t n, std::size_t m);

  /// Gives level-0 vertex `v` `level` empty upper-layer slots (appended to
  /// the upper buffer) and raises num_layers() to `level` if it is higher.
  void AddLevels(core::VectorId v, std::uint32_t level);

  std::size_t size() const { return level_.size(); }
  std::size_t num_layers() const { return num_layers_; }
  std::uint32_t level(core::VectorId v) const { return level_[v]; }
  const std::vector<std::uint32_t>& levels() const { return level_; }

  /// Slot capacity of `layer`: 2M on layer 0, M above.
  std::size_t MaxDegree(std::size_t layer) const {
    return (layer == 0 ? base_stride_ : upper_stride_) - 1;
  }

  BaseLayer base() const { return BaseLayer(base_.data(), base_stride_); }
  UpperLayer upper(std::size_t layer) const {
    GASS_DCHECK(layer >= 1 && layer <= num_layers_);
    return UpperLayer(upper_.data(), first_upper_.data(), upper_stride_,
                      layer);
  }

  /// v's list on `layer` (v must have level >= layer).
  const core::VectorId* Neighbors(std::size_t layer, core::VectorId v,
                                  std::size_t* degree) const {
    const std::uint32_t* slot = Slot(layer, v);
    *degree = slot[0];
    return slot + 1;
  }

  /// v's raw slot on `layer`: word 0 is the degree, then MaxDegree(layer)
  /// id words. Writers keep the degree within that capacity.
  std::uint32_t* MutableSlot(std::size_t layer, core::VectorId v) {
    return const_cast<std::uint32_t*>(Slot(layer, v));
  }

  /// Materializes one layer as an adjacency-list graph over all n vertices
  /// (vertices below the layer get empty lists). For tools and tests; no
  /// search, build, copy or digest path uses it.
  core::Graph ToGraph(std::size_t layer) const;

  /// Writes `layer` in io::EncodeGraph's format (n, then per vertex a u32
  /// degree and its ids), the snapshot's v1 encoding.
  void EncodeLayer(std::size_t layer, io::Encoder* enc) const;

  /// Inverse of EncodeLayer into this arena, whose levels must already be
  /// set (Reset + AddLevels). Rejects with kCorruption a vertex count other
  /// than size(), a list on a vertex below `layer`, a list longer than
  /// MaxDegree(layer), an out-of-range id or self-loop, and on upper layers
  /// an id whose vertex is below `layer`.
  core::Status DecodeLayer(io::Decoder* dec, std::size_t layer);

  /// Allocated bytes of the arena and its per-vertex tables.
  std::size_t MemoryBytes() const;

 private:
  const std::uint32_t* Slot(std::size_t layer, core::VectorId v) const {
    GASS_DCHECK(v < level_.size() && layer <= level_[v]);
    if (layer == 0) return base_.data() + v * base_stride_;
    return upper_.data() + (first_upper_[v] + layer - 1) * upper_stride_;
  }

  std::size_t base_stride_ = 1;   ///< 2M + 1 words.
  std::size_t upper_stride_ = 1;  ///< M + 1 words.
  std::size_t num_layers_ = 0;
  std::vector<std::uint32_t> base_;         ///< n slots, layer 0.
  std::vector<std::uint32_t> upper_;        ///< Appended upper-layer slots.
  std::vector<std::uint32_t> first_upper_;  ///< v's first upper slot.
  std::vector<std::uint32_t> level_;        ///< v's top layer.
};

}  // namespace gass::methods

#endif  // GASS_METHODS_HNSW_GRAPH_H_
