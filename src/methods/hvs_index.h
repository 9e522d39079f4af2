// HVS — Hierarchical Voronoi-diagram Structure (Lu et al. 2021).
//
// The paper surveys HVS as an HNSW variant that rebuilds the hierarchical
// layers: nodes are assigned to layers by *local density* (not uniformly at
// random), each layer forms a Voronoi diagram over multi-level-quantized
// vectors (quantization granularity doubling toward the base), and base-
// layer search proceeds as in HNSW. The official implementation could not
// be run by the paper's authors (Section 4.1); this reconstruction follows
// the published description with two simplifications, noted inline:
// density is estimated from a random-sample nearest-neighbor distance, and
// each layer is scanned by PQ/ADC distance (its Voronoi cells are induced
// by the quantizer codebook rather than stored explicitly).

#ifndef GASS_METHODS_HVS_INDEX_H_
#define GASS_METHODS_HVS_INDEX_H_

#include <memory>
#include <vector>

#include "methods/graph_index.h"
#include "methods/hnsw_index.h"
#include "quantize/product_quantizer.h"

namespace gass::methods {

struct HvsParams {
  HnswParams base;                 ///< Base-layer construction.
  std::size_t num_levels = 2;      ///< Hierarchical quantized levels.
  /// Fraction of the level below kept at each level (densest first).
  double level_fraction = 0.125;
  /// PQ subspaces at the*top* level; doubled at each level toward the base
  /// (the paper's "increasing dimensionality by a factor of 2").
  std::size_t top_subspaces = 2;
  /// Density-estimation sample per node.
  std::size_t density_sample = 24;
  /// Candidates carried between levels during the descent.
  std::size_t descent_width = 8;
  std::uint64_t seed = 42;
};

class HvsIndex : public GraphIndex {
 public:
  explicit HvsIndex(const HvsParams& params) : params_(params) {}

  std::string Name() const override { return "HVS"; }
  BuildStats Build(const core::Dataset& data) override;
  SearchResult Search(const float* query, const SearchParams& params) override;
  SearchResult Search(const float* query, const SearchParams& params,
                      SearchContext* ctx) const override;
  bool SupportsConcurrentSearch() const override { return true; }

  core::Graph graph() const override { return base_->graph(); }
  std::size_t IndexBytes() const override;

  std::size_t num_levels() const { return levels_.size(); }
  std::size_t LevelSize(std::size_t level) const {
    return levels_[level].members.size();
  }

  std::uint64_t ParamsFingerprint() const override;
  core::Status SaveSections(io::SnapshotWriter* writer,
                            const std::string& prefix) const override;
  core::Status LoadSections(const io::SnapshotReader& reader,
                            const std::string& prefix,
                            const core::Dataset& data) override;

 private:
  /// Quantized-level descent (read-only) + base beam search over `visited`.
  SearchResult SearchThrough(const float* query, const SearchParams& params,
                             core::VisitedTable* visited) const;

  struct Level {
    std::vector<core::VectorId> members;      ///< Densest-first node sample.
    quantize::ProductQuantizer pq;            ///< Level quantizer.
    std::vector<std::uint8_t> codes;          ///< members × code_size.
  };

  HvsParams params_;
  std::unique_ptr<HnswIndex> base_;
  std::unique_ptr<core::VisitedTable> visited_;
  std::vector<Level> levels_;  ///< levels_[0] is the top (coarsest).
};

}  // namespace gass::methods

#endif  // GASS_METHODS_HVS_INDEX_H_
