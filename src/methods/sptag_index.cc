#include "methods/sptag_index.h"

#include <algorithm>

#include "core/macros.h"
#include "core/rng.h"
#include "diversify/diversify.h"
#include "knngraph/exact_knn_graph.h"
#include "methods/build_util.h"
#include "methods/fingerprint.h"

namespace gass::methods {

using core::Graph;
using core::Neighbor;
using core::Rng;
using core::VectorId;

Graph SptagIndex::BuildGraph(core::DistanceComputer& dc,
                             std::size_t* transient_bytes) {
  const core::Dataset& data = *data_;
  Rng rng(params_.seed);

  // Merge exact per-leaf k-NN graphs across several TP-tree partitions.
  Graph graph(data.size());
  for (std::size_t p = 0; p < params_.num_partitions; ++p) {
    const auto leaves =
        trees::TpTreePartition(data, params_.tp_tree, rng.Next());
    for (const auto& leaf : leaves) {
      knngraph::AddExactKnnEdgesOnSubset(dc, leaf, params_.leaf_knn,
                                         &graph);
    }
  }

  // RND refinement of the merged lists.
  diversify::Params prune;
  prune.strategy = diversify::Strategy::kRnd;
  prune.max_degree = params_.max_degree;
  for (VectorId v = 0; v < data.size(); ++v) {
    auto& list = graph.MutableNeighbors(v);
    std::vector<Neighbor> candidates;
    candidates.reserve(list.size());
    AppendScored(dc, v, list.data(), list.size(), &candidates);
    std::sort(candidates.begin(), candidates.end());
    const std::vector<Neighbor> kept =
        diversify::Diversify(dc, v, candidates, prune);
    list.clear();
    for (const Neighbor& nb : kept) list.push_back(nb.id);
  }

  // Seed structure.
  if (params_.seed_tree == SptagSeedTree::kBkt) {
    trees::BkTreeParams tree_params;
    tree_params.branching = params_.bkt_branching;
    auto tree = std::make_shared<trees::BkMeansTree>(
        trees::BkMeansTree::Build(data, tree_params, rng.Next()));
    seed_selector_ = std::make_unique<seeds::KmSeeds>(tree, data_);
  } else {
    trees::KdTreeParams tree_params;
    auto forest = std::make_shared<trees::KdForest>(trees::KdForest::Build(
        data, params_.kd_num_trees, tree_params, rng.Next()));
    seed_selector_ = std::make_unique<seeds::KdSeeds>(forest, data_);
  }
  // Pre-refinement merged lists are num_partitions times larger than the
  // final pruned graph.
  *transient_bytes = graph.MemoryBytes() * params_.num_partitions;
  return graph;
}

std::uint64_t SptagIndex::ParamsFingerprint() const {
  io::Encoder enc;
  enc.U64(params_.num_partitions);
  enc.U64(params_.tp_tree.leaf_size);
  enc.U64(params_.tp_tree.projection_dims);
  enc.U64(params_.leaf_knn);
  enc.U64(params_.max_degree);
  enc.U8(params_.seed_tree == SptagSeedTree::kBkt ? 1 : 0);
  enc.U64(params_.kd_num_trees);
  enc.U64(params_.bkt_branching);
  enc.U64(params_.seed);
  return FingerprintBytes(enc);
}

core::Status SptagIndex::SaveAux(io::SnapshotWriter* writer,
                                 const std::string& prefix) const {
  if (params_.seed_tree == SptagSeedTree::kBkt) {
    const auto* km = dynamic_cast<const seeds::KmSeeds*>(seed_selector_.get());
    if (km == nullptr) {
      return core::Status::Unimplemented(
          "SPTAG-BKT snapshot requires a k-means-tree seed selector");
    }
    io::Encoder enc;
    km->tree()->EncodeTo(&enc);
    return writer->AddSection(prefix + "bkt", std::move(enc));
  }
  const auto* kd = dynamic_cast<const seeds::KdSeeds*>(seed_selector_.get());
  if (kd == nullptr) {
    return core::Status::Unimplemented(
        "SPTAG-KDT snapshot requires a KD seed selector");
  }
  io::Encoder enc;
  kd->forest()->EncodeTo(&enc);
  return writer->AddSection(prefix + "kdforest", std::move(enc));
}

core::Status SptagIndex::LoadAux(const io::SnapshotReader& reader,
                                 const std::string& prefix) {
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  if (params_.seed_tree == SptagSeedTree::kBkt) {
    GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "bkt", &buffer, &dec));
    auto tree = std::make_shared<trees::BkMeansTree>();
    GASS_RETURN_IF_ERROR(
        trees::BkMeansTree::DecodeFrom(&dec, data_->size(), tree.get()));
    if (!dec.ExpectEnd()) return dec.status();
    seed_selector_ = std::make_unique<seeds::KmSeeds>(std::move(tree), data_);
    return core::Status::Ok();
  }
  GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "kdforest", &buffer, &dec));
  auto forest = std::make_shared<trees::KdForest>();
  GASS_RETURN_IF_ERROR(trees::KdForest::DecodeFrom(&dec, *data_, forest.get()));
  if (!dec.ExpectEnd()) return dec.status();
  seed_selector_ = std::make_unique<seeds::KdSeeds>(std::move(forest), data_);
  return core::Status::Ok();
}

}  // namespace gass::methods
