#include "methods/hnsw_graph.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

namespace gass::methods {

using core::VectorId;

void HnswGraph::Reset(std::size_t n, std::size_t m) {
  base_stride_ = 2 * m + 1;
  upper_stride_ = m + 1;
  num_layers_ = 0;
  sealed_ = true;
  std::vector<std::uint32_t>().swap(base_);
  sealed_base_ = core::FlatGraph(std::vector<std::uint64_t>(n + 1, 0));
  upper_.clear();
  first_upper_.assign(n, 0);
  level_.assign(n, 0);
}

void HnswGraph::Seal() {
  if (!sealed_) {
    const std::size_t n = size();
    std::size_t edges = 0;
    for (VectorId v = 0; v < n; ++v) edges += base_[v * base_stride_];
    const BaseLayer slots = base();
    core::FlatGraph::Packer packer(n, edges);
    for (VectorId v = 0; v < n; ++v) packer.Append(v, slots.Neighbors(v));
    sealed_base_ = std::move(packer).Finish();
    std::vector<std::uint32_t>().swap(base_);
    sealed_ = true;
  }
  upper_.shrink_to_fit();
}

void HnswGraph::Unseal() {
  if (!sealed_) return;
  base_.assign(size() * base_stride_, 0);
  for (VectorId v = 0; v < size(); ++v) {
    const core::PackedIds ids = sealed_base_.Neighbors(v);
    std::uint32_t* slot = base_.data() + v * base_stride_;
    slot[0] = static_cast<std::uint32_t>(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) slot[1 + i] = ids[i];
  }
  sealed_base_ = core::FlatGraph();
  sealed_ = false;
}

void HnswGraph::AddLevels(VectorId v, std::uint32_t level) {
  GASS_CHECK(v < level_.size() && level_[v] == 0);
  level_[v] = level;
  if (level == 0) return;
  first_upper_[v] = static_cast<std::uint32_t>(upper_.size() / upper_stride_);
  upper_.resize(upper_.size() + level * upper_stride_, 0);
  num_layers_ = std::max<std::size_t>(num_layers_, level);
}

void HnswGraph::SetNeighborForTesting(std::size_t layer, VectorId v,
                                      std::size_t i, VectorId id) {
  if (layer == 0 && sealed_) {
    sealed_base_.SetNeighbor(v, i, id);  // Checks i and id itself.
    return;
  }
  std::uint32_t* slot = MutableSlot(layer, v);
  GASS_CHECK(i < slot[0] && id < size());
  slot[1 + i] = id;
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
  GASS_CHECK(layer > 0 || sealed_);
  const std::uint64_t n = dec->U64();
  if (!dec->Check(n == size(), "graph vertex count " + std::to_string(n) +
                                   " does not match dataset size " +
                                   std::to_string(size()))) {
    return dec->status();
  }
  // Layer 0 reads each list into a one-slot buffer and packs it as soon
  // as it validates. Each vertex costs one degree word, so a well-formed
  // payload holds exactly remaining / 4 - n ids, and the packed block is
  // sized for that once. A list that would overflow it leaves too few
  // bytes for the remaining degree words, so a later read fails the
  // decode; such a list is left unpacked.
  const std::string where = "HNSW layer " + std::to_string(layer) + " vertex ";
  const std::size_t capacity = MaxDegree(layer);
  std::optional<core::FlatGraph::Packer> packer;
  std::vector<VectorId> list;
  if (layer == 0) {
    const std::size_t words = dec->remaining() / sizeof(std::uint32_t);
    packer.emplace(n, words > n ? words - n : 0);
    list.resize(capacity);
  }
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
    std::uint32_t* slot = nullptr;
    VectorId* ids = list.data();
    if (layer > 0) {
      slot = MutableSlot(layer, v);
      ids = slot + 1;
    }
    if (!dec->Bytes(ids, degree * sizeof(VectorId))) break;
    for (std::uint32_t i = 0; i < degree; ++i) {
      const VectorId u = ids[i];
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
    if (layer == 0) {
      packer->Append(v, std::span<const VectorId>(ids, degree));
    } else {
      slot[0] = degree;
    }
  }
  if (layer == 0 && dec->ok()) sealed_base_ = std::move(*packer).Finish();
  return dec->status();
}

std::size_t HnswGraph::MemoryBytes() const {
  return (base_.capacity() + upper_.capacity() + first_upper_.capacity() +
          level_.capacity()) *
             sizeof(std::uint32_t) +
         sealed_base_.MemoryBytes();
}

}  // namespace gass::methods
