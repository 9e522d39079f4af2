// Seed Selection (SS) strategies — Section 3.3 of the paper.
//
// A SeedSelector produces the initial candidate nodes that warm up beam
// search (Algorithm 1). The seven strategies studied by the paper:
//
//   SN  — Stacked NSW: greedy descent through hierarchical NSW layers
//         (HNSW, ELPIS).
//   KD  — DFS over randomized K-D trees (EFANNA, SPTAG-KDT, HCNNG).
//   LSH — bucket mates from an LSH index (IEH, LSHAPG).
//   MD  — the dataset medoid and its graph neighbors.
//   SF  — one fixed random node and its graph neighbors (baseline; not used
//         by any published method).
//   KS  — k fresh random nodes per query (KGraph, DPG).
//   KM  — DFS over a balanced k-means tree (SPTAG-BKT).
//
// NSG and Vamana combine MD and KS (the medoid plus fresh random nodes),
// and NGT seeds from a vantage-point tree (VP).

#ifndef GASS_SEEDS_SEED_SELECTOR_H_
#define GASS_SEEDS_SEED_SELECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/graph.h"
#include "core/rng.h"
#include "core/types.h"
#include "hash/lsh.h"
#include "trees/bk_means_tree.h"
#include "trees/kd_tree.h"
#include "trees/vp_tree.h"

namespace gass::seeds {

/// Strategy tags, mirroring the paper's acronyms.
enum class Strategy { kSn, kKd, kLsh, kMd, kSf, kKs, kKm };

std::string StrategyName(Strategy strategy);

/// Produces seed node ids for a query. `count` is advisory — selectors may
/// return fewer (e.g. MD returns the medoid plus its neighbors) but never
/// zero on a non-empty index. Distance computations a selector performs
/// (e.g. SN's descent) are charged to `dc`, matching how the paper accounts
/// seed-selection overhead.
///
/// Thread-safety: the four-argument Select is const and touches no selector
/// state — any randomness draws from the caller-supplied RNG — so one
/// selector instance serves concurrent searches (each thread passing its
/// own `rng`, see methods::SearchContext). The three-argument overload is
/// the serial convenience using the selector's internal stream; it is NOT
/// thread-safe.
class SeedSelector {
 public:
  explicit SeedSelector(std::uint64_t serial_seed = 0x5EEDULL)
      : serial_rng_(serial_seed) {}
  virtual ~SeedSelector() = default;

  /// Thread-safe selection; `rng` must be non-null.
  virtual std::vector<core::VectorId> Select(core::DistanceComputer& dc,
                                             const float* query,
                                             std::size_t count,
                                             core::Rng* rng) const = 0;

  /// Serial convenience drawing from the selector's own stream.
  std::vector<core::VectorId> Select(core::DistanceComputer& dc,
                                     const float* query, std::size_t count) {
    return Select(dc, query, count, &serial_rng_);
  }

  virtual std::size_t MemoryBytes() const { return 0; }

 private:
  core::Rng serial_rng_;
};

/// KS: `count` fresh uniform random ids per query.
class KsRandomSeeds : public SeedSelector {
 public:
  using SeedSelector::Select;
  KsRandomSeeds(std::size_t n, std::uint64_t seed)
      : SeedSelector(seed), n_(n) {}
  std::vector<core::VectorId> Select(core::DistanceComputer& dc,
                                     const float* query, std::size_t count,
                                     core::Rng* rng) const override;

 private:
  std::size_t n_;
};

/// SF and MD: one fixed node plus its graph neighbors. SF's node is
/// chosen once at random, MD's is the dataset medoid. The node's list is
/// copied at construction, so the selector holds no graph.
class FixedNodeSeeds : public SeedSelector {
 public:
  using SeedSelector::Select;
  /// `graph` is any graph whose Neighbors(node) has size() and
  /// operator[] (core::Graph, core::FlatGraph).
  template <typename GraphT>
  FixedNodeSeeds(core::VectorId node, const GraphT& graph) : seeds_{node} {
    const auto& ids = graph.Neighbors(node);
    for (std::size_t i = 0; i < ids.size(); ++i) seeds_.push_back(ids[i]);
  }
  std::vector<core::VectorId> Select(core::DistanceComputer& dc,
                                     const float* query, std::size_t count,
                                     core::Rng* rng) const override;
  std::size_t MemoryBytes() const override {
    return seeds_.capacity() * sizeof(core::VectorId);
  }

 private:
  std::vector<core::VectorId> seeds_;  // The node, then its neighbors.
};

/// MD + KS (NSG, Vamana): the medoid, then `count - 1` uniform random ids
/// (repeats allowed) drawn fresh per query.
class MedoidRandomSeeds : public SeedSelector {
 public:
  using SeedSelector::Select;
  MedoidRandomSeeds(core::VectorId medoid, std::size_t n, std::uint64_t seed)
      : SeedSelector(seed), medoid_(medoid), n_(n) {}
  std::vector<core::VectorId> Select(core::DistanceComputer& dc,
                                     const float* query, std::size_t count,
                                     core::Rng* rng) const override;

 private:
  core::VectorId medoid_;
  std::size_t n_;
};

/// KD: candidates from a randomized K-D forest.
class KdSeeds : public SeedSelector {
 public:
  using SeedSelector::Select;
  KdSeeds(std::shared_ptr<const trees::KdForest> forest,
          const core::Dataset* data)
      : forest_(std::move(forest)), data_(data) {}
  std::vector<core::VectorId> Select(core::DistanceComputer& dc,
                                     const float* query, std::size_t count,
                                     core::Rng* rng) const override;
  std::size_t MemoryBytes() const override { return forest_->MemoryBytes(); }
  const std::shared_ptr<const trees::KdForest>& forest() const {
    return forest_;
  }

 private:
  std::shared_ptr<const trees::KdForest> forest_;
  const core::Dataset* data_;
};

/// KM: candidates from a balanced k-means tree.
class KmSeeds : public SeedSelector {
 public:
  using SeedSelector::Select;
  KmSeeds(std::shared_ptr<const trees::BkMeansTree> tree,
          const core::Dataset* data)
      : tree_(std::move(tree)), data_(data) {}
  std::vector<core::VectorId> Select(core::DistanceComputer& dc,
                                     const float* query, std::size_t count,
                                     core::Rng* rng) const override;
  std::size_t MemoryBytes() const override { return tree_->MemoryBytes(); }
  const std::shared_ptr<const trees::BkMeansTree>& tree() const {
    return tree_;
  }

 private:
  std::shared_ptr<const trees::BkMeansTree> tree_;
  const core::Dataset* data_;
};

/// LSH: bucket mates of the query. Out-of-distribution queries can miss
/// every bucket; sparse results are topped up with random ids (the
/// multi-probe fallback of practical LSH seeding).
class LshSeeds : public SeedSelector {
 public:
  using SeedSelector::Select;
  LshSeeds(std::shared_ptr<const hash::LshIndex> index, std::size_t n,
           std::uint64_t seed = 0x15ADULL)
      : SeedSelector(seed), index_(std::move(index)), n_(n) {}
  std::vector<core::VectorId> Select(core::DistanceComputer& dc,
                                     const float* query, std::size_t count,
                                     core::Rng* rng) const override;
  std::size_t MemoryBytes() const override { return index_->MemoryBytes(); }
  const std::shared_ptr<const hash::LshIndex>& index() const {
    return index_;
  }

 private:
  std::shared_ptr<const hash::LshIndex> index_;
  std::size_t n_;
};

/// VP: the nearest points a vantage-point tree finds within a budget of
/// node visits (NGT). Each visit evaluates one vantage point, so a query
/// is charged min(visits, n) distances.
class VpSeeds : public SeedSelector {
 public:
  using SeedSelector::Select;
  VpSeeds(std::shared_ptr<const trees::VpTree> tree, const core::Dataset* data,
          std::size_t visits)
      : tree_(std::move(tree)), data_(data), visits_(visits) {}
  std::vector<core::VectorId> Select(core::DistanceComputer& dc,
                                     const float* query, std::size_t count,
                                     core::Rng* rng) const override;
  std::size_t MemoryBytes() const override { return tree_->MemoryBytes(); }
  const std::shared_ptr<const trees::VpTree>& tree() const { return tree_; }

 private:
  std::shared_ptr<const trees::VpTree> tree_;
  const core::Dataset* data_;
  std::size_t visits_;
};

/// The hierarchical NSW layer stack of HNSW (layers 1..top; layer 0 is the
/// caller's base graph). Nodes draw their maximum layer from the
/// geometric-like distribution of the paper's Eq. 1 and are inserted
/// incrementally with RND-pruned neighbor lists.
class StackedNswLayers {
 public:
  struct Params {
    std::size_t max_degree = 16;  ///< M: per-layer out-degree bound.
    std::size_t beam_width = 32;  ///< ef during layer construction.
  };

  static StackedNswLayers Build(const core::Dataset& data,
                                const Params& params, std::uint64_t seed,
                                core::DistanceComputer* dc);

  /// Greedy descent from the top layer; returns the closest layer-1 node.
  core::VectorId Descend(core::DistanceComputer& dc,
                         const float* query) const;

  /// Neighbors of `node` at layer 1 (empty if the node is base-layer only).
  std::vector<core::VectorId> Layer1Neighbors(core::VectorId node) const;

  std::size_t num_layers() const { return layers_.size(); }
  core::VectorId entry_point() const { return entry_point_; }
  std::size_t MemoryBytes() const;

 private:
  // layers_[l] holds the layer-(l+1) adjacency over global node ids; nodes
  // absent from a layer have empty lists and a false membership bit.
  std::vector<core::Graph> layers_;
  std::vector<std::vector<bool>> member_;
  core::VectorId entry_point_ = core::kInvalidVectorId;
};

/// SN: descend the stacked layers, seed with the found node plus its
/// layer-1 neighborhood.
class SnSeeds : public SeedSelector {
 public:
  using SeedSelector::Select;
  explicit SnSeeds(std::shared_ptr<const StackedNswLayers> layers)
      : layers_(std::move(layers)) {}
  std::vector<core::VectorId> Select(core::DistanceComputer& dc,
                                     const float* query, std::size_t count,
                                     core::Rng* rng) const override;
  std::size_t MemoryBytes() const override { return layers_->MemoryBytes(); }

 private:
  std::shared_ptr<const StackedNswLayers> layers_;
};

/// Index of the vector closest to the dataset mean — the standard medoid
/// approximation used by NSG and Vamana.
core::VectorId ComputeMedoid(const core::Dataset& data);

}  // namespace gass::seeds

#endif  // GASS_SEEDS_SEED_SELECTOR_H_
