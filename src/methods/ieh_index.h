// IEH — Iterative Expanding Hashing (Jin et al. 2014).
//
// The third NP-family initializer the paper surveys: initial neighbor
// candidates come from LSH buckets (IEH-LSH), refined by NNDescent, with
// the same hash tables providing query seeds. Excluded from the paper's
// timed evaluation for suboptimal performance, implemented here for
// completeness of the taxonomy.

#ifndef GASS_METHODS_IEH_INDEX_H_
#define GASS_METHODS_IEH_INDEX_H_

#include "hash/lsh.h"
#include "knngraph/nndescent.h"
#include "methods/graph_index.h"

namespace gass::methods {

struct IehParams {
  knngraph::NnDescentParams nndescent;
  hash::LshParams lsh;
  std::size_t init_candidates = 30;  ///< Bucket mates per node for init.
  std::uint64_t seed = 42;
};

class IehIndex : public SingleGraphIndex {
 public:
  explicit IehIndex(const IehParams& params) : params_(params) {}

  std::string Name() const override { return "IEH"; }
  std::uint64_t ParamsFingerprint() const override;

 private:
  core::Graph BuildGraph(core::DistanceComputer& dc,
                         std::size_t* transient_bytes) override;
  core::Status SaveAux(io::SnapshotWriter* writer,
                       const std::string& prefix) const override;
  core::Status LoadAux(const io::SnapshotReader& reader,
                       const std::string& prefix) override;

  IehParams params_;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_IEH_INDEX_H_
