// Proximity-graph representations.
//
// Graph is the mutable adjacency-list structure used during construction.
// FlatGraph is the read-only contiguous (CSR-style) layout used by the
// "optimized implementation" experiments (paper Fig. 17) and by HNSW's
// sealed base layer (methods/hnsw_graph.h): one block holds all neighbor
// lists, removing per-node pointer chasing during search.

#ifndef GASS_CORE_GRAPH_H_
#define GASS_CORE_GRAPH_H_

#include <cstddef>
#include <cstdint>
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
  /// Pointer to v's neighbor ids; degree returned via out-parameter. The
  /// form core::BeamSearch expands every graph layout through.
  const VectorId* Neighbors(VectorId v, std::size_t* degree) const {
    GASS_DCHECK(v < adjacency_.size());
    *degree = adjacency_[v].size();
    return adjacency_[v].data();
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

/// Read-only contiguous graph layout.
///
/// Stores offsets[n+1] and one flat neighbor array; Neighbors(v) is a pure
/// pointer-arithmetic slice. This mirrors the hnswlib/ParlayANN layouts whose
/// impact the paper measures in Fig. 17.
class FlatGraph {
 public:
  FlatGraph() = default;

  /// Adopts a CSR block: `offsets` has n + 1 non-decreasing entries
  /// starting at 0 and ending at edges.size(); v's list is
  /// edges[offsets[v], offsets[v + 1]).
  FlatGraph(std::vector<std::uint64_t> offsets, std::vector<VectorId> edges);

  /// Builds the flat layout from an adjacency-list graph.
  static FlatGraph FromGraph(const Graph& graph);

  std::size_t size() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Pointer to v's neighbor ids; degree returned via out-parameter.
  const VectorId* Neighbors(VectorId v, std::size_t* degree) const {
    GASS_DCHECK(v + 1 < offsets_.size());
    *degree = offsets_[v + 1] - offsets_[v];
    return edges_.data() + offsets_[v];
  }

  std::size_t Degree(VectorId v) const {
    GASS_DCHECK(v + 1 < offsets_.size());
    return offsets_[v + 1] - offsets_[v];
  }

  std::size_t EdgeCount() const { return edges_.size(); }

  std::size_t MemoryBytes() const {
    return offsets_.size() * sizeof(std::uint64_t) +
           edges_.size() * sizeof(VectorId);
  }

 private:
  std::vector<std::uint64_t> offsets_;  // size n+1.
  std::vector<VectorId> edges_;
};

}  // namespace gass::core

#endif  // GASS_CORE_GRAPH_H_
