#include "methods/ii_baseline_index.h"

#include <algorithm>
#include <cmath>

#include "core/beam_search.h"
#include "core/macros.h"
#include "core/rng.h"
#include "methods/build_util.h"
#include "methods/fingerprint.h"

namespace gass::methods {

using core::DistanceComputer;
using core::Graph;
using core::Neighbor;
using core::Rng;
using core::VectorId;

IiBaselineIndex::IiBaselineIndex(const IiBaselineParams& params)
    : params_(params) {
  params_.diversify.max_degree = params_.max_degree;
  GASS_CHECK(params_.build_ss == seeds::Strategy::kKs ||
             params_.build_ss == seeds::Strategy::kSn);
}

std::string IiBaselineIndex::Name() const {
  return "II(" + diversify::StrategyName(params_.diversify.strategy) + "," +
         seeds::StrategyName(params_.query_ss) + ")";
}

Graph IiBaselineIndex::BuildGraph(core::DistanceComputer& dc,
                                  std::size_t* /*transient_bytes*/) {
  const core::Dataset& data = *data_;
  Rng rng(params_.seed);

  const std::size_t n = data.size();
  Graph graph(n);
  prune_stats_ = {};

  // Optional incrementally-maintained stacked layers for SN build seeding:
  // levels drawn per Eq. 1, layer graphs grown alongside the base graph.
  const bool sn_build = params_.build_ss == seeds::Strategy::kSn;
  std::vector<std::uint32_t> level;
  std::vector<Graph> layers;
  VectorId sn_entry = 0;
  std::uint32_t sn_entry_level = 0;
  diversify::Params layer_prune;
  layer_prune.strategy = diversify::Strategy::kRnd;
  layer_prune.max_degree = params_.sn_max_degree;
  if (sn_build) {
    level.resize(n, 0);
    const double denom = std::log(
        std::max(2.0, static_cast<double>(params_.sn_max_degree) / 2.0));
    std::uint32_t top = 0;
    for (VectorId v = 0; v < n; ++v) {
      double xi = rng.UniformDouble();
      if (xi < 1e-12) xi = 1e-12;
      level[v] = static_cast<std::uint32_t>(-std::log(xi) / denom);
      top = std::max(top, level[v]);
    }
    layers.assign(top == 0 ? 1 : top, Graph(n));
  }

  // Research-direction prototype: one IVF-PQ over the full dataset supplies
  // construction candidates instead of per-insertion beam searches.
  std::unique_ptr<quantize::IvfPqIndex> ivf;
  if (params_.candidate_source == CandidateSource::kIvfPq) {
    ivf = std::make_unique<quantize::IvfPqIndex>(
        quantize::IvfPqIndex::Build(data, params_.ivf,
                                    params_.seed ^ 0x1F7ULL));
  }

  for (VectorId v = 0; v < n; ++v) {
    if (v == 0) {
      if (sn_build) {
        sn_entry = 0;
        sn_entry_level = level[0];
      }
      continue;
    }

    if (ivf != nullptr) {
      // ADC-ranked candidates restricted to already-inserted nodes.
      std::vector<Neighbor> candidates;
      for (VectorId u :
           ivf->Candidates(data.Row(v), params_.build_beam_width * 2,
                           params_.ivf_nprobe)) {
        if (u >= v) continue;  // Not inserted yet.
        candidates.emplace_back(u, dc.ToQuery(data.Row(v), u));
        if (candidates.size() >= params_.build_beam_width) break;
      }
      // Fall back to random links when the probes covered no inserted node
      // (only possible very early in the insertion order).
      while (candidates.size() < 2 && v >= 1) {
        const VectorId u = static_cast<VectorId>(rng.UniformInt(v));
        candidates.emplace_back(u, dc.ToQuery(data.Row(v), u));
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      const std::vector<Neighbor> kept = diversify::Diversify(
          dc, v, candidates, params_.diversify, &prune_stats_);
      InstallBidirectional(dc, &graph, v, kept, params_.diversify);
      continue;
    }

    // Seeds for the construction beam search.
    std::vector<VectorId> search_seeds;
    if (sn_build) {
      // Greedy descent through layers above this node's level.
      VectorId current = sn_entry;
      float current_dist = dc.ToQuery(data.Row(v), current);
      for (std::uint32_t l = sn_entry_level; l-- > level[v];) {
        if (l >= layers.size()) continue;
        bool improved = true;
        while (improved) {
          improved = false;
          for (VectorId u : layers[l].Neighbors(current)) {
            const float d = dc.ToQuery(data.Row(v), u);
            if (d < current_dist) {
              current_dist = d;
              current = u;
              improved = true;
            }
          }
        }
      }
      search_seeds.push_back(current);
    } else {
      search_seeds.push_back(0);
      for (std::size_t s = 1; s < params_.build_seeds; ++s) {
        search_seeds.push_back(static_cast<VectorId>(rng.UniformInt(v)));
      }
    }

    // Candidates via beam search on the partial graph.
    std::vector<Neighbor> candidates = core::BeamSearch(
        graph, dc, data.Row(v), search_seeds, params_.build_beam_width,
        params_.build_beam_width, visited_.get());

    const std::vector<Neighbor> kept =
        diversify::Diversify(dc, v, candidates, params_.diversify,
                             &prune_stats_);
    InstallBidirectional(dc, &graph, v, kept, params_.diversify);

    // Grow the stacked layers for nodes with level >= 1.
    if (sn_build && level[v] > 0) {
      VectorId current = search_seeds.front();
      const std::uint32_t node_level =
          std::min<std::uint32_t>(level[v],
                                  static_cast<std::uint32_t>(layers.size()));
      for (std::uint32_t l = std::min(node_level, sn_entry_level); l-- > 0;) {
        std::vector<Neighbor> layer_candidates = core::BeamSearch(
            layers[l], dc, data.Row(v), {current}, params_.sn_max_degree * 2,
            params_.sn_max_degree * 2, visited_.get());
        const std::vector<Neighbor> layer_kept =
            diversify::Diversify(dc, v, layer_candidates, layer_prune);
        InstallBidirectional(dc, &layers[l], v, layer_kept, layer_prune);
        if (!layer_candidates.empty()) current = layer_candidates.front().id;
      }
      if (level[v] > sn_entry_level) {
        sn_entry = v;
        sn_entry_level = level[v];
      }
    }
  }

  // Attach the query-time seed selector.
  AttachQuerySeeds(params_.query_ss, graph);
  return graph;
}

void IiBaselineIndex::AttachQuerySeeds(seeds::Strategy strategy) {
  GASS_CHECK_MSG(data_ != nullptr, "AttachQuerySeeds before Build");
  AttachQuerySeeds(strategy, graph_);
}

template <typename GraphT>
void IiBaselineIndex::AttachQuerySeeds(seeds::Strategy strategy,
                                       const GraphT& graph) {
  params_.query_ss = strategy;
  const std::size_t n = data_->size();
  Rng rng(params_.seed ^ 0xA5A5A5A5ULL);
  switch (strategy) {
    case seeds::Strategy::kKs:
      seed_selector_ = std::make_unique<seeds::KsRandomSeeds>(n, rng.Next());
      break;
    case seeds::Strategy::kSf:
      seed_selector_ = std::make_unique<seeds::FixedNodeSeeds>(
          static_cast<VectorId>(rng.UniformInt(n)), graph);
      break;
    case seeds::Strategy::kMd:
      seed_selector_ = std::make_unique<seeds::FixedNodeSeeds>(
          seeds::ComputeMedoid(*data_), graph);
      break;
    case seeds::Strategy::kKd: {
      trees::KdTreeParams params;
      params.leaf_size = params_.kd_leaf_size;
      auto forest = std::make_shared<trees::KdForest>(trees::KdForest::Build(
          *data_, params_.kd_num_trees, params, rng.Next()));
      seed_selector_ = std::make_unique<seeds::KdSeeds>(forest, data_);
      break;
    }
    case seeds::Strategy::kKm: {
      trees::BkTreeParams params;
      params.branching = params_.bkt_branching;
      auto tree = std::make_shared<trees::BkMeansTree>(
          trees::BkMeansTree::Build(*data_, params, rng.Next()));
      seed_selector_ = std::make_unique<seeds::KmSeeds>(tree, data_);
      break;
    }
    case seeds::Strategy::kLsh: {
      hash::LshParams params;
      params.num_tables = params_.lsh_tables;
      auto index = std::make_shared<hash::LshIndex>(
          hash::LshIndex::Build(*data_, params, rng.Next()));
      seed_selector_ =
          std::make_unique<seeds::LshSeeds>(index, n, rng.Next());
      break;
    }
    case seeds::Strategy::kSn: {
      DistanceComputer dc(*data_);
      seeds::StackedNswLayers::Params params;
      params.max_degree = params_.sn_max_degree;
      auto layers = std::make_shared<seeds::StackedNswLayers>(
          seeds::StackedNswLayers::Build(*data_, params, rng.Next(), &dc));
      seed_selector_ = std::make_unique<seeds::SnSeeds>(layers);
      break;
    }
  }
}

std::uint64_t IiBaselineIndex::ParamsFingerprint() const {
  io::Encoder enc;
  enc.U64(params_.max_degree);
  enc.U64(params_.build_beam_width);
  enc.U8(static_cast<std::uint8_t>(params_.candidate_source));
  enc.U64(params_.ivf.num_lists);
  enc.U64(params_.ivf.kmeans_iters);
  enc.U64(params_.ivf.pq.num_subspaces);
  enc.U64(params_.ivf.pq.codebook_size);
  enc.U64(params_.ivf_nprobe);
  enc.U8(static_cast<std::uint8_t>(params_.diversify.strategy));
  enc.F32(params_.diversify.alpha);
  enc.F32(params_.diversify.theta_degrees);
  enc.U8(static_cast<std::uint8_t>(params_.build_ss));
  enc.U8(static_cast<std::uint8_t>(params_.query_ss));
  enc.U64(params_.build_seeds);
  enc.U64(params_.kd_num_trees);
  enc.U64(params_.kd_leaf_size);
  enc.U64(params_.bkt_branching);
  enc.U64(params_.lsh_tables);
  enc.U64(params_.sn_max_degree);
  enc.U64(params_.seed);
  return FingerprintBytes(enc);
}

core::Status IiBaselineIndex::LoadAux(const io::SnapshotReader& reader,
                                      const std::string& prefix) {
  (void)reader;
  (void)prefix;
  // Every query seed structure is rebuilt deterministically from the
  // dataset + params (AttachQuerySeeds always starts from a fresh RNG), so
  // nothing auxiliary is stored in the snapshot.
  AttachQuerySeeds(params_.query_ss);
  return core::Status::Ok();
}

}  // namespace gass::methods
