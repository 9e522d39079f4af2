#include "methods/elpis_index.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "core/macros.h"
#include "core/thread_pool.h"
#include "methods/fingerprint.h"

namespace gass::methods {

using core::Neighbor;
using core::VectorId;

BuildStats ElpisIndex::Build(const core::Dataset& data) {
  GASS_CHECK(!data.empty());
  data_ = &data;
  core::Timer timer;

  tree_ = std::make_unique<summaries::EapcaTree>(
      summaries::EapcaTree::Build(data, params_.tree, params_.seed));

  leaves_.clear();
  leaves_.resize(tree_->num_leaves());
  std::atomic<std::uint64_t> distances{0};
  std::vector<std::size_t> transient(leaves_.size(), 0);
  core::ParallelFor(
      leaves_.size(), params_.build_threads,
      [&](std::size_t, std::size_t i) {
        Leaf& leaf = leaves_[i];
        leaf.global_ids = tree_->LeafMembers(i);
        leaf.data = data.Select(leaf.global_ids);
        HnswParams hnsw_params = params_.leaf_hnsw;
        hnsw_params.seed = params_.seed ^ (i * 0x9E3779B97F4A7C15ULL);
        leaf.index = std::make_unique<HnswIndex>(hnsw_params);
        const BuildStats leaf_stats = leaf.index->Build(leaf.data);
        distances.fetch_add(leaf_stats.distance_computations,
                            std::memory_order_relaxed);
        transient[i] = leaf_stats.peak_bytes - leaf_stats.index_bytes;
      });

  BuildStats stats;
  stats.elapsed_seconds = timer.Seconds();
  stats.distance_computations = distances.load();
  stats.index_bytes = IndexBytes();
  // Each leaf build holds its slots beside its sealed copy until it ends;
  // up to one leaf per worker is in that state at once.
  const std::size_t workers = std::min(
      leaves_.size(), params_.build_threads != 0 ? params_.build_threads
                                                 : core::DefaultThreadCount());
  const std::size_t largest =
      transient.empty() ? 0
                        : *std::max_element(transient.begin(), transient.end());
  stats.peak_bytes = stats.index_bytes + largest * workers;
  return stats;
}

SearchResult ElpisIndex::Search(const float* query,
                                const SearchParams& params) {
  GASS_CHECK_MSG(data_ != nullptr, "Search before Build");
  SearchResult result;
  core::Timer timer;

  // Order leaves by EAPCA lower bound.
  const summaries::EapcaSummary summary = tree_->SummarizeQuery(query);
  std::vector<std::size_t> order(leaves_.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<float> bounds(leaves_.size());
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    bounds[i] = tree_->LeafLowerBound(summary, i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return bounds[a] < bounds[b];
  });

  // Search the most promising leaf first to obtain a pruning bound.
  std::vector<Neighbor> merged;
  auto search_leaf = [&](std::size_t leaf_index) {
    Leaf& leaf = leaves_[leaf_index];
    SearchParams leaf_params = params;
    const SearchResult leaf_result =
        leaf.index->Search(query, leaf_params);
    result.stats.distance_computations +=
        leaf_result.stats.distance_computations;
    result.stats.hops += leaf_result.stats.hops;
    return leaf_result.neighbors;
  };

  const std::vector<Neighbor> first = search_leaf(order[0]);
  for (const Neighbor& nb : first) {
    merged.push_back(Neighbor(leaves_[order[0]].global_ids[nb.id],
                              nb.distance));
  }
  std::sort(merged.begin(), merged.end());
  float kth_bsf = merged.size() >= params.k
                      ? merged[params.k - 1].distance
                      : 3.402823466e38f;

  // Remaining leaves: prune by lower bound, search survivors (up to nprobe
  // total probes), concurrently when configured.
  std::vector<std::size_t> survivors;
  for (std::size_t rank = 1;
       rank < order.size() && survivors.size() + 1 < params_.nprobe;
       ++rank) {
    if (bounds[order[rank]] >= kth_bsf) continue;
    survivors.push_back(order[rank]);
  }
  last_probed_ = 1 + survivors.size();

  if (!survivors.empty()) {
    // Warm the remaining leaf searches with the current k-th best-so-far:
    // candidates at or beyond it cannot enter the final answer ("the
    // retrieved set of answers feed the search priority queues for the
    // other leaves").
    SearchParams warmed = params;
    warmed.prune_bound = std::min(params.prune_bound, kth_bsf);
    std::vector<std::vector<Neighbor>> leaf_results(survivors.size());
    std::vector<core::SearchStats> leaf_stats(survivors.size());
    core::ParallelFor(
        survivors.size(),
        std::max<std::size_t>(1, params_.search_threads),
        [&](std::size_t, std::size_t i) {
          Leaf& leaf = leaves_[survivors[i]];
          const SearchResult r = leaf.index->Search(query, warmed);
          leaf_stats[i] = r.stats;
          leaf_results[i] = r.neighbors;
        });
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      result.stats.distance_computations +=
          leaf_stats[i].distance_computations;
      result.stats.hops += leaf_stats[i].hops;
      for (const Neighbor& nb : leaf_results[i]) {
        merged.push_back(Neighbor(
            leaves_[survivors[i]].global_ids[nb.id], nb.distance));
      }
    }
    std::sort(merged.begin(), merged.end());
  }

  if (merged.size() > params.k) merged.resize(params.k);
  result.neighbors = std::move(merged);
  result.stats.elapsed_seconds = timer.Seconds();
  return result;
}

core::Graph ElpisIndex::graph() const {
  GASS_CHECK_MSG(false, "ELPIS has no single base graph");
  return core::Graph();
}

std::size_t ElpisIndex::IndexBytes() const {
  std::size_t total = tree_ != nullptr ? tree_->MemoryBytes() : 0;
  for (const Leaf& leaf : leaves_) {
    total += leaf.global_ids.size() * sizeof(VectorId);
    total += leaf.data.SizeBytes();  // Duplicated contiguous leaf vectors.
    if (leaf.index != nullptr) total += leaf.index->IndexBytes();
  }
  return total;
}

std::uint64_t ElpisIndex::ParamsFingerprint() const {
  io::Encoder enc;
  enc.U64(params_.tree.num_segments);
  enc.U64(params_.tree.leaf_size);
  enc.U64(params_.tree.min_leaf_size);
  EncodeParams(&enc, params_.leaf_hnsw);
  enc.U64(params_.seed);
  return FingerprintBytes(enc);
}

core::Status ElpisIndex::SaveSections(io::SnapshotWriter* writer,
                                      const std::string& prefix) const {
  if (tree_ == nullptr) {
    return core::Status::InvalidArgument("ELPIS snapshot before Build");
  }
  io::Encoder enc;
  tree_->EncodeTo(&enc);
  GASS_RETURN_IF_ERROR(writer->AddSection(prefix + "tree", std::move(enc)));
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    GASS_RETURN_IF_ERROR(leaves_[i].index->SaveSections(
        writer, prefix + "leaf" + std::to_string(i) + "."));
  }
  return core::Status::Ok();
}

core::Status ElpisIndex::LoadSections(const io::SnapshotReader& reader,
                                      const std::string& prefix,
                                      const core::Dataset& data) {
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "tree", &buffer, &dec));
  std::unique_ptr<summaries::EapcaTree> tree;
  GASS_RETURN_IF_ERROR(
      summaries::EapcaTree::DecodeFrom(&dec, data.size(), &tree));
  if (!dec.ExpectEnd()) return dec.status();

  // Leaves are reconstructed from the tree partition (the leaf datasets are
  // row selections, not stored); only each leaf's HNSW sections live in the
  // snapshot. Resize up front so leaf.data stays at a stable address while
  // its index loads.
  std::vector<Leaf> leaves(tree->num_leaves());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    Leaf& leaf = leaves[i];
    leaf.global_ids = tree->LeafMembers(i);
    if (leaf.global_ids.empty()) {
      return core::Status::Corruption("ELPIS snapshot has an empty leaf");
    }
    leaf.data = data.Select(leaf.global_ids);
    HnswParams hnsw_params = params_.leaf_hnsw;
    hnsw_params.seed = params_.seed ^ (i * 0x9E3779B97F4A7C15ULL);
    leaf.index = std::make_unique<HnswIndex>(hnsw_params);
    GASS_RETURN_IF_ERROR(leaf.index->LoadSections(
        reader, prefix + "leaf" + std::to_string(i) + ".", leaf.data));
  }

  tree_ = std::move(tree);
  leaves_ = std::move(leaves);
  data_ = &data;
  last_probed_ = 0;
  return core::Status::Ok();
}

}  // namespace gass::methods
