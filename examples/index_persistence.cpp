// Index persistence: build once, save a checksummed snapshot, load it in a
// serving process and answer queries — the deployment pattern for a
// read-only serving replica. The load decodes the graph straight into the
// sealed, bit-packed layout every search runs on.

#include <cstdio>
#include <string>

#include "methods/vamana_index.h"
#include "synth/generators.h"

int main(int argc, char** argv) {
  using namespace gass;

  const std::string path = argc > 1 ? argv[1] : "/tmp/gass_vamana.gass";
  const core::Dataset base = synth::MakeDatasetProxy("sift", 5000, 3);
  methods::VamanaParams params;
  params.max_degree = 32;
  params.alpha = 1.2f;

  // Builder process: construct and persist.
  {
    methods::VamanaIndex index(params);
    const methods::BuildStats build = index.Build(base);
    std::printf("built Vamana in %.2fs (%zu edges, %zu index bytes)\n",
                build.elapsed_seconds, index.graph().EdgeCount(),
                build.index_bytes);
    const core::Status status = methods::SaveIndex(index, path);
    if (!status.ok()) {
      std::fprintf(stderr, "save failed: %s\n", status.message().c_str());
      return 1;
    }
    std::printf("index saved to %s\n", path.c_str());
  }

  // Serving process: load (same parameters, same vectors) and answer
  // queries.
  {
    methods::VamanaIndex index(params);
    const core::Status status = methods::LoadIndex(&index, base, path);
    if (!status.ok()) {
      std::fprintf(stderr, "load failed: %s\n", status.message().c_str());
      return 1;
    }
    std::printf("index loaded: %zu index bytes\n", index.IndexBytes());

    methods::SearchParams search;
    search.k = 5;
    search.beam_width = 64;
    const core::Dataset probes = synth::MakeDatasetProxy("sift", 3, 9);
    for (core::VectorId q = 0; q < probes.size(); ++q) {
      const auto result = index.Search(probes.Row(q), search);
      std::printf("query %u ->", q);
      for (const auto& nb : result.neighbors) {
        std::printf(" %u(%.3f)", nb.id, nb.distance);
      }
      std::printf("  [%llu distances]\n",
                  static_cast<unsigned long long>(
                      result.stats.distance_computations));
    }
  }
  std::remove(path.c_str());
  return 0;
}
