#include "methods/hnsw_graph.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

namespace gass::methods {

using core::VectorId;

void HnswGraph::Reset(std::size_t n, std::size_t m) {
  m_ = m;
  num_layers_ = 0;
  sealed_ = true;
  base_ = core::PackedSlots();
  sealed_base_ = core::FlatGraph(std::vector<std::uint64_t>(n + 1, 0));
  upper_ = core::PackedSlots(0, m, n);
  first_upper_.assign(n, 0);
  level_.assign(n, 0);
}

void HnswGraph::Seal() {
  if (!sealed_) {
    const std::size_t n = size();
    std::size_t edges = 0;
    for (VectorId v = 0; v < n; ++v) edges += base_.Degree(v);
    core::FlatGraph::Packer packer(n, edges);
    for (VectorId v = 0; v < n; ++v) packer.Append(v, base_.Neighbors(v));
    sealed_base_ = std::move(packer).Finish();
    base_ = core::PackedSlots();
    sealed_ = true;
  }
  TrimUpper();
}

void HnswGraph::Unseal() {
  if (!sealed_) return;
  base_ = core::PackedSlots(size(), MaxDegree(0), size());
  for (VectorId v = 0; v < size(); ++v) {
    base_.SetList(v, sealed_base_.Neighbors(v));
  }
  sealed_base_ = core::FlatGraph();
  sealed_ = false;
}

void HnswGraph::AddLevels(VectorId v, std::uint32_t level) {
  GASS_CHECK(v < level_.size() && level_[v] == 0);
  level_[v] = level;
  if (level == 0) return;
  first_upper_[v] = static_cast<std::uint32_t>(upper_.size());
  upper_.AddSlots(level);
  num_layers_ = std::max<std::size_t>(num_layers_, level);
}

void HnswGraph::SetNeighborForTesting(std::size_t layer, VectorId v,
                                      std::size_t i, VectorId id) {
  if (layer == 0 && sealed_) {
    sealed_base_.SetNeighbor(v, i, id);  // Checks i and id itself.
    return;
  }
  Slots(layer).Set(SlotOf(layer, v), i, id);  // Checks i and id.
}

core::Graph HnswGraph::ToGraph(std::size_t layer) const {
  core::Graph graph(size());
  VisitLayer(layer, [&](const auto& view) {
    for (VectorId v = 0; v < size(); ++v) {
      if (level_[v] < layer) continue;
      const auto& ids = view.Neighbors(v);
      std::vector<VectorId> list(ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) list[i] = ids[i];
      graph.SetNeighbors(v, std::move(list));
    }
  });
  return graph;
}

void HnswGraph::EncodeLayer(std::size_t layer, io::Encoder* enc) const {
  enc->U64(size());
  std::vector<VectorId> list;
  VisitLayer(layer, [&](const auto& view) {
    for (VectorId v = 0; v < size(); ++v) {
      if (level_[v] < layer) {
        enc->U32(0);
        continue;
      }
      const auto& ids = view.Neighbors(v);
      list.resize(ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) list[i] = ids[i];
      enc->U32(static_cast<std::uint32_t>(list.size()));
      enc->Bytes(list.data(), list.size() * sizeof(VectorId));
    }
  });
}

core::Status HnswGraph::DecodeLayer(io::Decoder* dec, std::size_t layer) {
  if (layer == 0) {
    GASS_CHECK(sealed_);
    return io::DecodeGraph(dec, size(), &sealed_base_,
                           static_cast<std::uint32_t>(MaxDegree(0)));
  }
  const std::uint64_t n = dec->U64();
  if (!dec->Check(n == size(), "graph vertex count " + std::to_string(n) +
                                   " does not match dataset size " +
                                   std::to_string(size()))) {
    return dec->status();
  }
  // Each list is read into a one-slot buffer and stored in its slot as
  // soon as it validates.
  const std::string where = "HNSW layer " + std::to_string(layer) + " vertex ";
  const std::size_t capacity = MaxDegree(layer);
  std::vector<VectorId> list(capacity);
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
    if (!dec->Bytes(list.data(), degree * sizeof(VectorId))) break;
    for (std::uint32_t i = 0; i < degree; ++i) {
      const VectorId u = list[i];
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
    SetList(layer, v, std::span<const VectorId>(list.data(), degree));
  }
  return dec->status();
}

std::size_t HnswGraph::MemoryBytes() const {
  return base_.MemoryBytes() + sealed_base_.MemoryBytes() +
         upper_.MemoryBytes() +
         (first_upper_.capacity() + level_.capacity()) * sizeof(std::uint32_t);
}

}  // namespace gass::methods
