#include "methods/factory.h"

#include "core/macros.h"
#include "methods/dpg_index.h"
#include "methods/efanna_index.h"
#include "methods/elpis_index.h"
#include "methods/fanng_index.h"
#include "methods/hcnng_index.h"
#include "methods/hnsw_index.h"
#include "methods/hvs_index.h"
#include "methods/ieh_index.h"
#include "methods/kgraph_index.h"
#include "methods/lshapg_index.h"
#include "methods/ngt_index.h"
#include "methods/nsg_index.h"
#include "methods/nsw_index.h"
#include "methods/sptag_index.h"
#include "methods/ssg_index.h"
#include "methods/vamana_index.h"

namespace gass::methods {

std::unique_ptr<GraphIndex> CreateIndex(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "kgraph") {
    KgraphParams params;
    params.nndescent.k = 20;
    params.seed = seed;
    return std::make_unique<KgraphIndex>(params);
  }
  if (name == "efanna") {
    EfannaParams params;
    params.nndescent.k = 30;  // Richer lists: EFANNA searches its directed
                              // k-NN graph, whose reachability needs depth.
    params.num_trees = 6;
    params.init_candidates = 40;
    params.seed = seed;
    return std::make_unique<EfannaIndex>(params);
  }
  if (name == "ieh") {
    IehParams params;
    params.nndescent.k = 30;
    params.lsh.num_tables = 6;
    params.lsh.hash_bits = 6;
    params.init_candidates = 40;
    params.seed = seed;
    return std::make_unique<IehIndex>(params);
  }
  if (name == "fanng") {
    FanngParams params;
    params.nndescent.k = 30;
    params.seed = seed;
    return std::make_unique<FanngIndex>(params);
  }
  if (name == "nsw") {
    NswParams params;
    params.seed = seed;
    return std::make_unique<NswIndex>(params);
  }
  if (name == "hnsw") {
    HnswParams params;
    params.seed = seed;
    return std::make_unique<HnswIndex>(params);
  }
  if (name == "hvs") {
    HvsParams params;
    params.seed = seed;
    return std::make_unique<HvsIndex>(params);
  }
  if (name == "dpg") {
    DpgParams params;
    params.nndescent.k = 32;  // Base lists 2× the kept degree.
    params.max_degree = 16;
    params.seed = seed;
    return std::make_unique<DpgIndex>(params);
  }
  if (name == "ngt") {
    NgtParams params;
    params.nndescent.k = 20;
    params.seed = seed;
    return std::make_unique<NgtIndex>(params);
  }
  if (name == "nsg") {
    NsgParams params;
    params.nndescent.k = 20;
    params.seed = seed;
    return std::make_unique<NsgIndex>(params);
  }
  if (name == "ssg") {
    SsgParams params;
    params.nndescent.k = 20;
    params.seed = seed;
    return std::make_unique<SsgIndex>(params);
  }
  if (name == "vamana") {
    VamanaParams params;
    // DiskANN-typical construction beam; the two refinement passes over an
    // already-dense graph are what keep Vamana the costliest scalable
    // builder (paper Fig. 7).
    params.build_beam_width = 64;
    params.seed = seed;
    return std::make_unique<VamanaIndex>(params);
  }
  if (name == "sptag-kdt" || name == "sptag-bkt") {
    SptagParams params;
    // Many partitions with large leaves: the quadratic per-leaf graphs are
    // what makes SPTAG the slowest builder in the paper's Fig. 7.
    params.num_partitions = 8;
    params.tp_tree.leaf_size = 400;
    params.leaf_knn = 16;
    params.seed_tree =
        name == "sptag-bkt" ? SptagSeedTree::kBkt : SptagSeedTree::kKdt;
    params.seed = seed;
    return std::make_unique<SptagIndex>(params);
  }
  if (name == "hcnng") {
    HcnngParams params;
    // The paper's HCNNG repeats many clusterings with sizeable leaves; the
    // all-pairs MST edges per leaf drive its footprint and build time.
    params.num_clusterings = 12;
    params.leaf_size = 300;
    params.seed = seed;
    return std::make_unique<HcnngIndex>(params);
  }
  if (name == "lshapg") {
    LshApgParams params;
    params.seed = seed;
    return std::make_unique<LshApgIndex>(params);
  }
  if (name == "elpis") {
    ElpisParams params;
    // nprobe is a *maximum*: easy datasets prune most leaves via the EAPCA
    // lower bound, hard (uniform-like) datasets need the probes.
    params.nprobe = 8;
    params.seed = seed;
    return std::make_unique<ElpisIndex>(params);
  }
  GASS_CHECK_MSG(false, "unknown index method '%s'", name.c_str());
  return nullptr;
}

std::vector<std::string> AllMethodNames() {
  return {"kgraph", "ieh",       "fanng",     "efanna", "nsw",
          "hnsw",   "hvs",       "dpg",       "ngt",    "nsg",
          "ssg",    "vamana",    "sptag-kdt", "sptag-bkt", "hcnng",
          "lshapg", "elpis"};
}

core::Status LoadAnyIndex(const std::string& path, const core::Dataset& data,
                          std::uint64_t seed,
                          std::unique_ptr<GraphIndex>* out) {
  io::SnapshotReader reader;
  GASS_RETURN_IF_ERROR(io::SnapshotReader::Open(path, &reader));
  for (const std::string& name : AllMethodNames()) {
    std::unique_ptr<GraphIndex> candidate = CreateIndex(name, seed);
    if (candidate->Name() != reader.method()) continue;
    GASS_RETURN_IF_ERROR(LoadIndexFrom(candidate.get(), data, reader));
    *out = std::move(candidate);
    return core::Status::Ok();
  }
  return core::Status::InvalidArgument("snapshot method '" + reader.method() +
                                       "' is not a registered method");
}

}  // namespace gass::methods
