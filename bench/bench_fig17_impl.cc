// Figure 17: implementation impact — the same graphs searched through the
// original adjacency-list layout (core::Graph) versus the optimized
// contiguous, bit-packed flat layout (core::FlatGraph, the hnswlib/ParlayANN
// style every index now searches), for Vamana, HNSW and HCNNG. Both sides
// run core::BeamSearch from the same KS seeds, so they find the same
// answers and only the layout differs.
//
// Expected shape (paper): the optimized layouts are faster below ~0.97
// recall; the gap narrows at high recall where distance computations
// dominate over pointer chasing.

#include "common/bench_util.h"
#include "eval/recall.h"
#include "core/beam_search.h"
#include "methods/factory.h"
#include "seeds/seed_selector.h"

namespace gass::bench {
namespace {

void Run() {
  const Workload workload = MakeWorkload("deep", kTier100GB);
  PrintHeader("Figure 17: original vs flat-layout search "
              "(Deep proxy, 100GB tier)",
              "Same graph and KS seeds; only the memory layout differs.");
  PrintRow({"method", "beam", "recall", "orig t/query", "flat t/query",
            "speedup"});
  PrintRule();

  for (const char* name : {"vamana", "hnsw", "hcnng"}) {
    auto index = methods::CreateIndex(name, 42);
    index->Build(workload.base);
    const core::Graph graph = index->graph();
    const core::FlatGraph flat = core::FlatGraph::FromGraph(graph);
    core::VisitedTable visited(workload.base.size());

    for (const std::size_t beam : {20, 80, 320}) {
      // The same KS seeds for both layouts, drawn before either is timed.
      seeds::KsRandomSeeds ks(workload.base.size(), 7);
      core::DistanceComputer dc(workload.base);
      std::vector<std::vector<core::VectorId>> seeds;
      for (core::VectorId q = 0; q < workload.queries.size(); ++q) {
        seeds.push_back(ks.Select(dc, workload.queries.Row(q), 48));
      }
      // One layout over every query, then the other.
      const auto time_all = [&](const auto& layout,
                                std::vector<std::vector<core::Neighbor>>* out) {
        core::Timer timer;
        for (core::VectorId q = 0; q < workload.queries.size(); ++q) {
          out->push_back(core::BeamSearch(layout, dc, workload.queries.Row(q),
                                          seeds[q], workload.k, beam,
                                          &visited));
        }
        return timer.Seconds();
      };
      // An untimed pass first, so neither timed pass pays for warming
      // the rows both read.
      std::vector<std::vector<core::Neighbor>> warm, results, flat_results;
      time_all(flat, &warm);
      const double orig_time = time_all(graph, &results);
      const double flat_time = time_all(flat, &flat_results);
      const double queries = static_cast<double>(workload.queries.size());
      const double recall =
          eval::MeanRecall(results, workload.truth, workload.k);
      char recall_cell[16], speedup[16];
      std::snprintf(recall_cell, sizeof(recall_cell), "%.3f", recall);
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    flat_time > 0 ? orig_time / flat_time : 0.0);
      PrintRow({name, std::to_string(beam), recall_cell,
                FormatSeconds(orig_time / queries),
                FormatSeconds(flat_time / queries), speedup});
    }
    PrintRule();
  }
}

}  // namespace
}  // namespace gass::bench

int main() {
  gass::bench::Run();
  return 0;
}
