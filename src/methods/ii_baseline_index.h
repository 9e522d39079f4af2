// The paper's Section 4 experimental instrument: a basic Incremental
// Insertion (II) graph with *pluggable* neighborhood diversification and
// seed selection.
//
// Construction (Section 4.2): nodes are inserted sequentially; node i
// acquires candidate neighbors through a beam search (width L) on the
// partial graph of already-inserted nodes, the candidate list is pruned to
// max_degree R by the configured ND strategy, and bi-directional edges are
// added with overflow lists re-pruned by the same strategy.
//
// Seed selection during construction (Section 4.3, Table 2): the per-
// insertion beam search is seeded either by KS (random already-inserted
// nodes) or SN (greedy descent through incrementally-maintained stacked NSW
// layers), the two strategies whose indexing impact the paper measures.
//
// Query answering: any of the seven SS strategies, attached after build.

#ifndef GASS_METHODS_II_BASELINE_INDEX_H_
#define GASS_METHODS_II_BASELINE_INDEX_H_

#include <cstdint>

#include "diversify/diversify.h"
#include "methods/graph_index.h"
#include "quantize/ivf_pq.h"

namespace gass::methods {

/// Where an inserted node's candidate neighbors come from.
enum class CandidateSource {
  kBeamSearch,  ///< Beam search on the partial graph (the paper's setup).
  kIvfPq,       ///< IVF-PQ probe — the prototype of the paper's research
                ///< direction (2): a scalable structure replaces the
                ///< construction-time beam search.
};

/// Build-time and query-time configuration of the II baseline.
struct IiBaselineParams {
  std::size_t max_degree = 32;        ///< R.
  std::size_t build_beam_width = 128; ///< L of the per-insertion search.
  CandidateSource candidate_source = CandidateSource::kBeamSearch;
  quantize::IvfPqParams ivf;          ///< Used when candidate_source=kIvfPq.
  std::size_t ivf_nprobe = 8;
  diversify::Params diversify;        ///< ND strategy (max_degree is forced
                                      ///< to this struct's max_degree).
  /// Seed strategy for the *construction* beam searches (kKs or kSn).
  seeds::Strategy build_ss = seeds::Strategy::kKs;
  /// Seed strategy attached for *query* answering.
  seeds::Strategy query_ss = seeds::Strategy::kKs;
  std::size_t build_seeds = 8;  ///< Seeds per construction search (KS).
  /// Aux-structure sizing for tree/hash-based query SS.
  std::size_t kd_num_trees = 4;
  std::size_t kd_leaf_size = 32;
  std::size_t bkt_branching = 8;
  std::size_t lsh_tables = 4;
  std::size_t sn_max_degree = 16;
  std::uint64_t seed = 42;
};

/// The II baseline index.
class IiBaselineIndex : public SingleGraphIndex {
 public:
  explicit IiBaselineIndex(const IiBaselineParams& params);

  std::string Name() const override;

  /// ND pruning statistics accumulated during Build (Table 1).
  const diversify::PruneStats& prune_stats() const { return prune_stats_; }

  /// Re-attaches a query seed selector of the given strategy without
  /// rebuilding the graph (the Fig. 6 experiment sweeps strategies over one
  /// graph).
  void AttachQuerySeeds(seeds::Strategy strategy);

  std::uint64_t ParamsFingerprint() const override;

 private:
  core::Graph BuildGraph(core::DistanceComputer& dc,
                         std::size_t* transient_bytes) override;
  core::Status LoadAux(const io::SnapshotReader& reader,
                       const std::string& prefix) override;

  /// AttachQuerySeeds reading SF's and MD's lists from `graph`: the
  /// mutable graph during Build, the sealed one after.
  template <typename GraphT>
  void AttachQuerySeeds(seeds::Strategy strategy, const GraphT& graph);

  IiBaselineParams params_;
  diversify::PruneStats prune_stats_;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_II_BASELINE_INDEX_H_
