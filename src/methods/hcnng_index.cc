#include "methods/hcnng_index.h"

#include <algorithm>
#include <numeric>

#include "core/macros.h"
#include "core/rng.h"
#include "trees/hierarchical_clustering.h"
#include "trees/kd_tree.h"
#include "methods/fingerprint.h"

namespace gass::methods {

using core::Graph;
using core::Rng;
using core::VectorId;

namespace {

// Union-find for Kruskal.
class DisjointSet {
 public:
  explicit DisjointSet(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool Union(std::size_t a, std::size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

// Degree-capped MST (Kruskal) over one leaf; adds the selected edges to the
// global graph, undirected.
void AddLeafMst(core::DistanceComputer& dc,
                const std::vector<VectorId>& leaf, std::size_t degree_cap,
                Graph* graph) {
  const std::size_t m = leaf.size();
  if (m < 2) return;

  struct Edge {
    float weight;
    std::uint32_t a, b;  // Local indices.
    bool operator<(const Edge& other) const { return weight < other.weight; }
  };
  std::vector<Edge> edges;
  edges.reserve(m * (m - 1) / 2);
  for (std::uint32_t i = 0; i < m; ++i) {
    for (std::uint32_t j = i + 1; j < m; ++j) {
      edges.push_back(Edge{dc.Between(leaf[i], leaf[j]), i, j});
    }
  }
  std::sort(edges.begin(), edges.end());

  DisjointSet components(m);
  std::vector<std::uint32_t> degree(m, 0);
  std::size_t added = 0;
  for (const Edge& e : edges) {
    if (added == m - 1) break;
    if (degree[e.a] >= degree_cap || degree[e.b] >= degree_cap) continue;
    if (!components.Union(e.a, e.b)) continue;
    ++degree[e.a];
    ++degree[e.b];
    ++added;
    graph->AddEdgeUnique(leaf[e.a], leaf[e.b]);
    graph->AddEdgeUnique(leaf[e.b], leaf[e.a]);
  }
}

}  // namespace

Graph HcnngIndex::BuildGraph(core::DistanceComputer& dc,
                             std::size_t* transient_bytes) {
  const core::Dataset& data = *data_;
  Rng rng(params_.seed);

  Graph graph(data.size());
  for (std::size_t c = 0; c < params_.num_clusterings; ++c) {
    const auto leaves =
        trees::RandomBisectionLeaves(data, params_.leaf_size, rng.Next());
    for (const auto& leaf : leaves) {
      AddLeafMst(dc, leaf, params_.mst_degree_cap, &graph);
    }
  }

  trees::KdTreeParams tree_params;
  auto forest = std::make_shared<trees::KdForest>(trees::KdForest::Build(
      data, params_.kd_num_trees, tree_params, rng.Next()));
  seed_selector_ = std::make_unique<seeds::KdSeeds>(forest, data_);
  // The per-leaf edge lists (all pairs) dominate transient memory — the
  // HCNNG footprint spike the paper reports in Fig. 8.
  *transient_bytes = params_.leaf_size * params_.leaf_size * sizeof(float) * 2;
  return graph;
}

std::uint64_t HcnngIndex::ParamsFingerprint() const {
  io::Encoder enc;
  enc.U64(params_.num_clusterings);
  enc.U64(params_.leaf_size);
  enc.U64(params_.mst_degree_cap);
  enc.U64(params_.kd_num_trees);
  enc.U64(params_.seed);
  return FingerprintBytes(enc);
}

core::Status HcnngIndex::SaveAux(io::SnapshotWriter* writer,
                                 const std::string& prefix) const {
  const auto* kd = dynamic_cast<const seeds::KdSeeds*>(seed_selector_.get());
  if (kd == nullptr) {
    return core::Status::Unimplemented(
        "HCNNG snapshot requires a KD seed selector");
  }
  io::Encoder enc;
  kd->forest()->EncodeTo(&enc);
  return writer->AddSection(prefix + "kdforest", std::move(enc));
}

core::Status HcnngIndex::LoadAux(const io::SnapshotReader& reader,
                                 const std::string& prefix) {
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "kdforest", &buffer, &dec));
  auto forest = std::make_shared<trees::KdForest>();
  GASS_RETURN_IF_ERROR(trees::KdForest::DecodeFrom(&dec, *data_, forest.get()));
  if (!dec.ExpectEnd()) return dec.status();
  seed_selector_ = std::make_unique<seeds::KdSeeds>(std::move(forest), data_);
  return core::Status::Ok();
}

}  // namespace gass::methods
