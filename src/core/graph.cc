#include "core/graph.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "core/visited.h"

namespace gass::core {

bool Graph::AddEdgeUnique(VectorId from, VectorId to) {
  auto& list = adjacency_[from];
  if (std::find(list.begin(), list.end(), to) != list.end()) return false;
  list.push_back(to);
  return true;
}

std::size_t Graph::EdgeCount() const {
  std::size_t total = 0;
  for (const auto& list : adjacency_) total += list.size();
  return total;
}

std::size_t Graph::MaxDegree() const {
  std::size_t max_degree = 0;
  for (const auto& list : adjacency_) {
    max_degree = std::max(max_degree, list.size());
  }
  return max_degree;
}

double Graph::AverageDegree() const {
  if (adjacency_.empty()) return 0.0;
  return static_cast<double>(EdgeCount()) /
         static_cast<double>(adjacency_.size());
}

void Graph::MakeUndirected() {
  const std::size_t n = adjacency_.size();
  // Collect reverse edges first so iteration is not invalidated.
  std::vector<std::vector<VectorId>> reverse(n);
  for (VectorId v = 0; v < n; ++v) {
    for (VectorId u : adjacency_[v]) reverse[u].push_back(v);
  }
  for (VectorId v = 0; v < n; ++v) {
    auto& list = adjacency_[v];
    list.insert(list.end(), reverse[v].begin(), reverse[v].end());
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    // Self-loops can appear when inputs contained them; drop them.
    list.erase(std::remove(list.begin(), list.end(), v), list.end());
  }
}

std::size_t Graph::ReachableFrom(VectorId start) const {
  if (adjacency_.empty()) return 0;
  VisitedTable visited(adjacency_.size());
  visited.NewEpoch();
  std::queue<VectorId> frontier;
  frontier.push(start);
  visited.MarkVisited(start);
  std::size_t count = 1;
  while (!frontier.empty()) {
    const VectorId v = frontier.front();
    frontier.pop();
    for (VectorId u : adjacency_[v]) {
      if (visited.TryVisit(u)) {
        ++count;
        frontier.push(u);
      }
    }
  }
  return count;
}

std::size_t Graph::MemoryBytes() const {
  std::size_t bytes = adjacency_.size() * sizeof(std::vector<VectorId>);
  for (const auto& list : adjacency_) {
    bytes += list.capacity() * sizeof(VectorId);
  }
  return bytes;
}

Status Graph::Validate() const {
  const std::size_t n = adjacency_.size();
  for (VectorId v = 0; v < n; ++v) {
    for (const VectorId u : adjacency_[v]) {
      if (u >= n) {
        return Status::Corruption(
            "graph vertex " + std::to_string(v) + " has neighbor id " +
            std::to_string(u) + " out of range (n=" + std::to_string(n) +
            ")");
      }
      if (u == v) {
        return Status::Corruption("graph vertex " + std::to_string(v) +
                                  " has a self-loop");
      }
    }
  }
  return Status::Ok();
}

namespace {

/// Writes `id` into the `width` bits that start `bit` bits into `block`,
/// leaving every other bit as it was: one unaligned 8-byte
/// read-modify-write, the store that matches PackedIds' load.
void StorePackedId(unsigned char* block, std::uint64_t bit,
                   std::uint32_t width, std::uint64_t id) {
  const std::uint64_t mask = ((std::uint64_t{1} << width) - 1) << (bit & 7);
  unsigned char* at = block + (bit >> 3);
  std::uint64_t word;
  std::memcpy(&word, at, sizeof(word));
  word = (word & ~mask) | (id << (bit & 7));
  std::memcpy(at, &word, sizeof(word));
}

void CheckEdgeCount(std::uint64_t edges) {
  GASS_CHECK_MSG(edges <= FlatGraph::kMaxEdges,
                 "a FlatGraph holds at most 2^32 - 1 edges (its offsets "
                 "are u32), not %llu",
                 static_cast<unsigned long long>(edges));
}

}  // namespace

FlatGraph::FlatGraph(const std::vector<std::uint64_t>& offsets) {
  GASS_CHECK(!offsets.empty() && offsets.front() == 0);
  GASS_DCHECK(std::is_sorted(offsets.begin(), offsets.end()));
  CheckEdgeCount(offsets.back());
  offsets_.assign(offsets.begin(), offsets.end());
  width_ = IdWidth(size());
  words_.assign((offsets_.back() * std::uint64_t{width_} + 63) / 64 + 1, 0);
}

void FlatGraph::SetNeighbor(VectorId v, std::size_t i, VectorId id) {
  GASS_CHECK(i < Degree(v) && id < size());
  StorePackedId(reinterpret_cast<unsigned char*>(words_.data()),
                (std::uint64_t{offsets_[v]} + i) * width_, width_, id);
}

FlatGraph::Packer::Packer(std::size_t n, std::size_t max_edges)
    : flat_(std::vector<std::uint64_t>(n + 1, 0)), max_edges_(max_edges) {
  CheckEdgeCount(max_edges);
  flat_.words_.assign((max_edges * flat_.width_ + 63) / 64 + 1, 0);
}

FlatGraph FlatGraph::Packer::Finish() && {
  for (std::size_t u = next_ + 1; u < flat_.offsets_.size(); ++u) {
    flat_.offsets_[u] = static_cast<std::uint32_t>(edges_);
  }
  const std::size_t words = (edges_ * flat_.width_ + 63) / 64 + 1;
  if (filled_ > 0) flat_.words_[edges_ * flat_.width_ / 64] = pending_;
  flat_.words_.resize(words);
  return std::move(flat_);
}

FlatGraph FlatGraph::FromGraph(const Graph& graph) {
  Packer packer(graph.size(), graph.EdgeCount());
  for (VectorId v = 0; v < graph.size(); ++v) {
    packer.Append(v, graph.Neighbors(v));
  }
  return std::move(packer).Finish();
}

PackedSlots::PackedSlots(std::size_t slots, std::size_t capacity,
                         std::size_t id_range)
    : slots_(slots),
      capacity_(capacity),
      id_range_(id_range),
      stride_(StrideWords(capacity, id_range)),
      width_(FlatGraph::IdWidth(id_range)),
      degree_bits_(static_cast<std::uint32_t>(std::bit_width(capacity))),
      degree_mask_((std::uint64_t{1} << degree_bits_) - 1) {
  GASS_CHECK(capacity >= 1);
  words_.assign(slots * stride_ + 1, 0);
}

bool PackedSlots::Append(std::size_t s, VectorId id) {
  GASS_CHECK(s < slots_ && id < id_range_);
  std::uint64_t* slot = words_.data() + s * stride_;
  const std::uint64_t degree = *slot & degree_mask_;
  if (degree == capacity_) return false;
  StorePackedId(reinterpret_cast<unsigned char*>(slot),
                degree_bits_ + degree * width_, width_, id);
  *slot += 1;  // degree < capacity < 2^degree_bits_: no carry.
  return true;
}

void PackedSlots::Set(std::size_t s, std::size_t i, VectorId id) {
  GASS_CHECK(s < slots_ && i < Degree(s) && id < id_range_);
  StorePackedId(reinterpret_cast<unsigned char*>(words_.data() + s * stride_),
                degree_bits_ + i * width_, width_, id);
}

void PackedSlots::AddSlots(std::size_t count) {
  slots_ += count;
  words_.resize(slots_ * stride_ + 1, 0);
}

}  // namespace gass::core
