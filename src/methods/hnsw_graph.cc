#include "methods/hnsw_graph.h"

#include <algorithm>
#include <string>

namespace gass::methods {

using core::VectorId;

void HnswGraph::Reset(std::size_t n, std::size_t m) {
  base_stride_ = 2 * m + 1;
  upper_stride_ = m + 1;
  num_layers_ = 0;
  base_.assign(n * base_stride_, 0);
  upper_.clear();
  first_upper_.assign(n, 0);
  level_.assign(n, 0);
}

void HnswGraph::AddLevels(VectorId v, std::uint32_t level) {
  GASS_CHECK(v < level_.size() && level_[v] == 0);
  level_[v] = level;
  if (level == 0) return;
  first_upper_[v] = static_cast<std::uint32_t>(upper_.size() / upper_stride_);
  upper_.resize(upper_.size() + level * upper_stride_, 0);
  num_layers_ = std::max<std::size_t>(num_layers_, level);
}

core::Graph HnswGraph::ToGraph(std::size_t layer) const {
  core::Graph graph(size());
  for (VectorId v = 0; v < size(); ++v) {
    if (level_[v] < layer) continue;
    std::size_t degree = 0;
    const VectorId* ids = Neighbors(layer, v, &degree);
    graph.SetNeighbors(v, std::vector<VectorId>(ids, ids + degree));
  }
  return graph;
}

void HnswGraph::EncodeLayer(std::size_t layer, io::Encoder* enc) const {
  enc->U64(size());
  for (VectorId v = 0; v < size(); ++v) {
    if (level_[v] < layer) {
      enc->U32(0);
      continue;
    }
    const std::uint32_t* slot = Slot(layer, v);
    enc->U32(slot[0]);
    enc->Bytes(slot + 1, slot[0] * sizeof(VectorId));
  }
}

core::Status HnswGraph::DecodeLayer(io::Decoder* dec, std::size_t layer) {
  const std::uint64_t n = dec->U64();
  if (!dec->Check(n == size(), "graph vertex count " + std::to_string(n) +
                                   " does not match dataset size " +
                                   std::to_string(size()))) {
    return dec->status();
  }
  const std::string where = "HNSW layer " + std::to_string(layer) + " vertex ";
  const std::size_t capacity = MaxDegree(layer);
  for (VectorId v = 0; v < n; ++v) {
    const std::uint32_t degree = dec->U32();
    if (!dec->ok()) break;
    if (degree == 0) continue;
    if (level_[v] < layer) {
      dec->Check(false, where + std::to_string(v) + " has a list but level " +
                            std::to_string(level_[v]));
      break;
    }
    if (degree > capacity) {
      dec->Check(false, where + std::to_string(v) + " lists " +
                            std::to_string(degree) + " ids, more than its " +
                            std::to_string(capacity) + "-id slot");
      break;
    }
    std::uint32_t* slot = MutableSlot(layer, v);
    if (!dec->Bytes(slot + 1, degree * sizeof(VectorId))) break;
    slot[0] = degree;
    for (std::uint32_t i = 0; i < degree; ++i) {
      const VectorId u = slot[1 + i];
      if (u >= n || u == v || level_[u] < layer) {
        dec->Check(false, where + std::to_string(v) + " has neighbor id " +
                              std::to_string(u) +
                              (u >= n   ? " out of range"
                               : u == v ? " (a self-loop)"
                                        : " whose level is below the layer"));
        break;
      }
    }
    if (!dec->ok()) break;
  }
  return dec->status();
}

std::size_t HnswGraph::MemoryBytes() const {
  return (base_.capacity() + upper_.capacity() + first_upper_.capacity() +
          level_.capacity()) *
         sizeof(std::uint32_t);
}

}  // namespace gass::methods
