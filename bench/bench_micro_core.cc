// Microbenchmarks of the core substrate (google-benchmark): distance
// kernels per SIMD level across the paper's dimensionalities (with GB/s so
// levels are comparable), batched vs single-vector kernels, candidate-pool
// insertion, visited-table epochs, and the beam-search inner loop on
// adjacency-list versus flat layouts.
//
// The kernel loops are hardened against dead-code elimination: the input
// pointers are re-fed through DoNotOptimize every iteration (so the load
// cannot be hoisted as loop-invariant) and every result lands in an
// accumulator that is itself kept alive.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "core/beam_search.h"
#include "core/distance.h"
#include "core/neighbor.h"
#include "core/rng.h"
#include "core/simd/simd.h"
#include "core/visited.h"
#include "knngraph/exact_knn_graph.h"
#include "synth/generators.h"

namespace gass {
namespace {

std::vector<float> RandomVector(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.UniformFloat(-1, 1);
  return v;
}

// One kernel evaluation reads two dim-length float vectors.
void SetKernelThroughput(benchmark::State& state, std::size_t dim,
                         std::size_t evals_per_iter) {
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * evals_per_iter));
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * evals_per_iter * 2 * dim * sizeof(float)));
}

void BM_L2SqLevel(benchmark::State& state, core::simd::SimdLevel level) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  const core::simd::DistanceKernels& kernels = core::simd::KernelsFor(level);
  const std::vector<float> a = RandomVector(dim, dim);
  const std::vector<float> b = RandomVector(dim, dim ^ 0xBEEF);
  float sink = 0.0f;
  for (auto _ : state) {
    const float* pa = a.data();
    const float* pb = b.data();
    benchmark::DoNotOptimize(pa);
    benchmark::DoNotOptimize(pb);
    sink += kernels.l2sq(pa, pb, dim);
    benchmark::DoNotOptimize(sink);
  }
  SetKernelThroughput(state, dim, 1);
}

void BM_DotLevel(benchmark::State& state, core::simd::SimdLevel level) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  const core::simd::DistanceKernels& kernels = core::simd::KernelsFor(level);
  const std::vector<float> a = RandomVector(dim, dim);
  const std::vector<float> b = RandomVector(dim, dim ^ 0xBEEF);
  float sink = 0.0f;
  for (auto _ : state) {
    const float* pa = a.data();
    const float* pb = b.data();
    benchmark::DoNotOptimize(pa);
    benchmark::DoNotOptimize(pb);
    sink += kernels.dot(pa, pb, dim);
    benchmark::DoNotOptimize(sink);
  }
  SetKernelThroughput(state, dim, 1);
}

// Batched kernel over kBatchRows resident rows — the shape of one beam-search
// neighbor expansion.
constexpr std::size_t kBatchRows = 32;

void BM_L2SqBatchLevel(benchmark::State& state, core::simd::SimdLevel level) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  const core::simd::DistanceKernels& kernels = core::simd::KernelsFor(level);
  const std::vector<float> query = RandomVector(dim, dim);
  const std::vector<float> pool = RandomVector(dim * kBatchRows, dim ^ 0xF00D);
  const float* rows[kBatchRows];
  for (std::size_t r = 0; r < kBatchRows; ++r) rows[r] = &pool[r * dim];
  float out[kBatchRows];
  float sink = 0.0f;
  for (auto _ : state) {
    const float* pq = query.data();
    benchmark::DoNotOptimize(pq);
    benchmark::DoNotOptimize(&rows[0]);
    kernels.l2sq_batch(pq, rows, kBatchRows, dim, out);
    sink += out[0] + out[kBatchRows - 1];
    benchmark::DoNotOptimize(sink);
  }
  SetKernelThroughput(state, dim, kBatchRows);
}

// Register the kernel benchmarks once per SIMD level runnable on this
// build/CPU, so one run prints the scalar-vs-vector comparison directly.
struct KernelBench {
  const char* name;
  void (*fn)(benchmark::State&, core::simd::SimdLevel);
};

const int kKernelBenchmarks = [] {
  static constexpr KernelBench kBenches[] = {
      {"BM_L2Sq", BM_L2SqLevel},
      {"BM_Dot", BM_DotLevel},
      {"BM_L2SqBatch", BM_L2SqBatchLevel},
  };
  for (const core::simd::SimdLevel level : core::simd::SupportedSimdLevels()) {
    for (const KernelBench& bench : kBenches) {
      const std::string name =
          std::string(bench.name) + "/" + core::simd::SimdLevelName(level);
      auto* fn = bench.fn;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [fn, level](benchmark::State& state) { fn(state, level); })
          ->Arg(96)
          ->Arg(128)
          ->Arg(200)
          ->Arg(256)
          ->Arg(960);
    }
  }
  return 0;
}();

void BM_CandidatePoolInsert(benchmark::State& state) {
  const std::size_t capacity = static_cast<std::size_t>(state.range(0));
  core::Rng rng(capacity);
  std::vector<core::Neighbor> stream;
  for (int i = 0; i < 4096; ++i) {
    stream.emplace_back(static_cast<core::VectorId>(i),
                        rng.UniformFloat(0, 1));
  }
  for (auto _ : state) {
    core::CandidatePool pool(capacity);
    for (const core::Neighbor& nb : stream) pool.Insert(nb);
    benchmark::DoNotOptimize(pool.size());
  }
  state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_CandidatePoolInsert)->Arg(16)->Arg(128)->Arg(1024);

// The same stream into the beam-search frontier (branch-free rank plus one
// memmove per array).
void BM_BeamPoolInsert(benchmark::State& state) {
  const std::size_t capacity = static_cast<std::size_t>(state.range(0));
  core::Rng rng(capacity);
  std::vector<core::Neighbor> stream;
  for (int i = 0; i < 4096; ++i) {
    stream.emplace_back(static_cast<core::VectorId>(i),
                        rng.UniformFloat(0, 1));
  }
  for (auto _ : state) {
    core::BeamPool pool(capacity, stream.size());
    for (const core::Neighbor& nb : stream) pool.Insert(nb.id, nb.distance);
    benchmark::DoNotOptimize(pool.size());
  }
  state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_BeamPoolInsert)->Arg(16)->Arg(128)->Arg(1024);

void BM_VisitedEpoch(benchmark::State& state) {
  core::VisitedTable table(100000);
  for (auto _ : state) {
    table.NewEpoch();
    for (core::VectorId v = 0; v < 256; ++v) {
      benchmark::DoNotOptimize(table.TryVisit(v * 391));
    }
  }
}
BENCHMARK(BM_VisitedEpoch);

struct BeamFixture {
  core::Dataset data;
  core::Graph graph;
  core::FlatGraph flat;

  BeamFixture() {
    data = synth::MakeDatasetProxy("deep", 2000, 42);
    core::DistanceComputer dc(data);
    graph = knngraph::ExactKnnGraph(dc, 16, 1);
    graph.MakeUndirected();
    flat = core::FlatGraph::FromGraph(graph);
  }
};

BeamFixture& Fixture() {
  static BeamFixture* fixture = new BeamFixture();
  return *fixture;
}

void BM_BeamSearchAdjacency(benchmark::State& state) {
  BeamFixture& f = Fixture();
  core::DistanceComputer dc(f.data);
  core::VisitedTable visited(f.data.size());
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BeamSearch(
        f.graph, dc, f.data.Row(static_cast<core::VectorId>(q)), {0}, 10,
        static_cast<std::size_t>(state.range(0)), &visited));
    q = (q + 1) % f.data.size();
  }
}
BENCHMARK(BM_BeamSearchAdjacency)->Arg(32)->Arg(128);

void BM_BeamSearchFlat(benchmark::State& state) {
  BeamFixture& f = Fixture();
  core::DistanceComputer dc(f.data);
  core::VisitedTable visited(f.data.size());
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BeamSearch(
        f.flat, dc, f.data.Row(static_cast<core::VectorId>(q)), {0}, 10,
        static_cast<std::size_t>(state.range(0)), &visited));
    q = (q + 1) % f.data.size();
  }
}
BENCHMARK(BM_BeamSearchFlat)->Arg(32)->Arg(128);

}  // namespace
}  // namespace gass
