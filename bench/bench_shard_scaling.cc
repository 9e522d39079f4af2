// Sharded-index scaling: partitioned parallel build and centroid-routed
// fan-out search vs. the single-index baseline (100k synthetic).
//
// Two questions, two tables:
//
//   1. Build scaling — graph construction is superlinear in n, so K
//      parallel builds of n/K rows each should beat one build of n rows by
//      MORE than the K-way parallelism alone. The acceptance bar: K>=4
//      sharded build <= 0.6x the single-index wall-clock for hnsw and
//      vamana on this workload. Both the measured wall-clock and the
//      parallel critical path (partition + slowest shard; the wall-clock
//      with >= K free cores) are reported, so a core-starved runner still
//      shows the parallel number honestly.
//
//   2. Search quality — centroid routing turns the partition into an
//      accuracy knob: nprobe=K must match the single-index recall ballpark
//      at the same beam (every shard probed, merge is exact over the
//      per-shard top-k), while nprobe<K trades recall for proportionally
//      fewer distance computations. Reported per (K, nprobe): recall, QPS,
//      and p50/p95 per-query latency.
//
// Flags (all optional; "--key=value" or "--key value"):
//   --n=N            base vectors, default 100000
//   --dim=D          dimensionality, default 32
//   --queries=Q      query count, default 200
//   --methods=a,b    sub-index methods, default hnsw,vamana
//   --max-shards=K   largest shard count in the sweep {1,2,4,...}, default 8
//   --beam=B         search beam width, default 64
//   --fanout=T       per-query fan-out threads (0 = caller thread), default 0
//   --max-replicas=R largest replica count in the overhead sweep {1,2,...},
//                    default 2 (1 disables the replica table)
//   --seed=N         default 42
//
// The replica-overhead table (at the largest K) quantifies what N-way
// replication costs: footprint scales ~linearly with R, build time barely
// moves (each shard is built once and copied to its other replicas through
// an in-memory snapshot image), and recall is bit-identical by
// construction — the replicas ARE the same graph. See docs/SHARDING.md
// "Replication".

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "core/stats.h"
#include "eval/ground_truth.h"
#include "eval/recall.h"
#include "methods/factory.h"
#include "shard/sharded_index.h"
#include "synth/generators.h"

namespace gass::bench {
namespace {

struct Options {
  std::size_t n = 100000;
  std::size_t dim = 32;
  std::size_t queries = 200;
  std::vector<std::string> methods = {"hnsw", "vamana"};
  std::size_t max_shards = 8;
  std::size_t beam = 64;
  std::size_t fanout = 0;
  std::size_t max_replicas = 2;
  std::uint64_t seed = 42;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
      return false;
    }
    arg = arg.substr(2);
    std::size_t eq = arg.find('=');
    std::string key, value;
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      key = arg;
      value = argv[++i];
    } else {
      std::fprintf(stderr, "flag --%s needs a value\n", arg.c_str());
      return false;
    }
    if (key == "n") {
      options->n = static_cast<std::size_t>(std::atol(value.c_str()));
    } else if (key == "dim") {
      options->dim = static_cast<std::size_t>(std::atol(value.c_str()));
    } else if (key == "queries") {
      options->queries = static_cast<std::size_t>(std::atol(value.c_str()));
    } else if (key == "methods") {
      options->methods.clear();
      std::size_t start = 0;
      while (start <= value.size()) {
        const std::size_t comma = value.find(',', start);
        const std::string name =
            value.substr(start, comma == std::string::npos ? std::string::npos
                                                           : comma - start);
        if (!name.empty()) options->methods.push_back(name);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (key == "max-shards") {
      options->max_shards = static_cast<std::size_t>(std::atol(value.c_str()));
    } else if (key == "beam") {
      options->beam = static_cast<std::size_t>(std::atol(value.c_str()));
    } else if (key == "fanout") {
      options->fanout = static_cast<std::size_t>(std::atol(value.c_str()));
    } else if (key == "max-replicas") {
      options->max_replicas =
          static_cast<std::size_t>(std::atol(value.c_str()));
    } else if (key == "seed") {
      options->seed = static_cast<std::uint64_t>(std::atoll(value.c_str()));
    } else {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      return false;
    }
  }
  return true;
}

struct SearchPoint {
  double recall = 0.0;
  double qps = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double mean_distances = 0.0;
};

/// Serial query loop through the const concurrent-search interface (the
/// fan-out itself may still be parallel when the index carries an internal
/// pool; QPS is single-caller throughput either way).
SearchPoint RunQueries(const methods::GraphIndex& index,
                       const core::Dataset& queries,
                       const eval::GroundTruth& truth,
                       const methods::SearchParams& params) {
  SearchPoint point;
  methods::SearchContext ctx = index.MakeSearchContext(7);
  std::vector<std::vector<core::Neighbor>> answers(queries.size());
  std::vector<double> latencies(queries.size());
  std::uint64_t distances = 0;
  core::Timer total;
  for (core::VectorId q = 0; q < queries.size(); ++q) {
    core::Timer per_query;
    const methods::SearchResult result =
        index.Search(queries.Row(q), params, &ctx);
    latencies[q] = per_query.Seconds();
    answers[q] = result.neighbors;
    distances += result.stats.distance_computations;
  }
  const double elapsed = total.Seconds();
  point.recall = eval::MeanRecall(answers, truth, params.k);
  point.qps = elapsed > 0
                  ? static_cast<double>(queries.size()) / elapsed
                  : 0.0;
  std::sort(latencies.begin(), latencies.end());
  point.p50_seconds = latencies[latencies.size() / 2];
  point.p95_seconds = latencies[(latencies.size() * 95) / 100];
  point.mean_distances = static_cast<double>(distances) /
                         static_cast<double>(queries.size());
  return point;
}

void PrintSearchRow(const std::string& label, const std::string& nprobe,
                    const SearchPoint& point) {
  char recall[16], qps[32], dists[32];
  std::snprintf(recall, sizeof(recall), "%.4f", point.recall);
  std::snprintf(qps, sizeof(qps), "%.0f", point.qps);
  std::snprintf(dists, sizeof(dists), "%.0f", point.mean_distances);
  PrintRow({label, nprobe, recall, qps, FormatSeconds(point.p50_seconds),
            FormatSeconds(point.p95_seconds), dists});
}

void RunMethod(const std::string& method, const core::Dataset& base,
               const core::Dataset& queries, const eval::GroundTruth& truth,
               const Options& options) {
  methods::SearchParams params;
  params.k = 10;
  params.beam_width = options.beam;
  params.num_seeds = 32;

  std::printf("== %s ==\n", method.c_str());

  // Single-index baseline.
  auto single = methods::CreateIndex(method, options.seed);
  core::Timer single_timer;
  single->Build(base);
  const double single_seconds = single_timer.Seconds();
  const SearchPoint baseline = RunQueries(*single, queries, truth, params);

  std::vector<std::size_t> shard_counts;
  for (std::size_t k = 1; k <= options.max_shards; k *= 2) {
    shard_counts.push_back(k);
  }

  // "build" is measured wall-clock on THIS machine; "crit path" is
  // partition + the slowest shard's build — the wall-clock a machine with
  // >= K free cores achieves, since every shard constructs concurrently.
  // On a single-core runner the wall-clock column still improves with K
  // (construction is superlinear in n), and the critical path shows the
  // additional parallel win.
  std::printf("-- build scaling (kmeans partitioner, parallel shard "
              "builds) --\n");
  PrintRow({"index", "build", "vs single", "crit path", "vs single",
            "index size"});
  PrintRule();
  {
    char ratio[16];
    std::snprintf(ratio, sizeof(ratio), "1.00x");
    PrintRow({"single", FormatSeconds(single_seconds), ratio,
              FormatSeconds(single_seconds), ratio,
              FormatBytes(static_cast<double>(single->IndexBytes()))});
  }

  std::vector<std::unique_ptr<shard::ShardedIndex>> sharded;
  for (const std::size_t k : shard_counts) {
    shard::ShardedIndexOptions sharded_options;
    sharded_options.method = method;
    sharded_options.partitioner.kind = shard::PartitionerKind::kKMeans;
    sharded_options.partitioner.num_shards = k;
    sharded_options.seed = options.seed;
    sharded_options.fanout_threads = options.fanout;
    auto index = std::make_unique<shard::ShardedIndex>(sharded_options);
    core::Timer timer;
    index->Build(base);
    const double seconds = timer.Seconds();
    double slowest_shard = 0.0;
    for (const double s : index->shard_build_seconds()) {
      slowest_shard = std::max(slowest_shard, s);
    }
    const double critical = index->partition_seconds() + slowest_shard;
    char label[32], ratio[16], crit_ratio[16];
    std::snprintf(label, sizeof(label), "K=%zu", k);
    std::snprintf(ratio, sizeof(ratio), "%.2fx",
                  single_seconds > 0 ? seconds / single_seconds : 0.0);
    std::snprintf(crit_ratio, sizeof(crit_ratio), "%.2fx",
                  single_seconds > 0 ? critical / single_seconds : 0.0);
    PrintRow({label, FormatSeconds(seconds), ratio, FormatSeconds(critical),
              crit_ratio,
              FormatBytes(static_cast<double>(index->IndexBytes()))});
    sharded.push_back(std::move(index));
  }
  PrintRule();

  std::printf("-- search quality vs K (nprobe = K: every shard probed) --\n");
  PrintRow({"index", "nprobe", "recall", "qps", "p50 lat", "p95 lat",
            "dists/q"});
  PrintRule();
  PrintSearchRow("single", "-", baseline);
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    shard::ShardedIndex& index = *sharded[i];
    index.SetNprobe(0);  // All shards.
    char label[32];
    std::snprintf(label, sizeof(label), "K=%zu", index.num_shards());
    PrintSearchRow(label, std::to_string(index.num_shards()),
                   RunQueries(index, queries, truth, params));
  }
  PrintRule();

  // nprobe sweep at the largest K: the recall/cost knob centroid routing
  // buys. Each halving of nprobe should cut dists/q near-proportionally
  // while recall degrades gracefully on clustered data.
  shard::ShardedIndex& widest = *sharded.back();
  if (widest.num_shards() > 1) {
    std::printf("-- nprobe sweep at K=%zu --\n", widest.num_shards());
    PrintRow({"index", "nprobe", "recall", "qps", "p50 lat", "p95 lat",
              "dists/q"});
    PrintRule();
    for (std::size_t nprobe = 1; nprobe <= widest.num_shards(); nprobe *= 2) {
      widest.SetNprobe(nprobe);
      char label[32];
      std::snprintf(label, sizeof(label), "K=%zu", widest.num_shards());
      PrintSearchRow(label, std::to_string(nprobe),
                     RunQueries(widest, queries, truth, params));
    }
    PrintRule();
  }

  // Replica overhead at the largest K: R bit-identical replicas per shard
  // multiply the footprint by ~R (the build by far less: replicas are
  // copies), and buy replica failover / anti-entropy instead of recall —
  // which must come out IDENTICAL to R=1 (every replica is a copy of the
  // same build).
  if (widest.num_shards() > 1 && options.max_replicas > 1) {
    widest.SetNprobe(0);
    std::printf("-- replica overhead at K=%zu (nprobe = K) --\n",
                widest.num_shards());
    PrintRow({"replicas", "build", "vs R=1", "index size", "vs R=1",
              "recall"});
    PrintRule();
    double r1_seconds = 0.0;
    double r1_bytes = 0.0;
    for (std::size_t r = 1; r <= options.max_replicas; r *= 2) {
      shard::ShardedIndexOptions sharded_options;
      sharded_options.method = method;
      sharded_options.partitioner.kind = shard::PartitionerKind::kKMeans;
      sharded_options.partitioner.num_shards = widest.num_shards();
      sharded_options.seed = options.seed;
      sharded_options.fanout_threads = options.fanout;
      sharded_options.replicas = r;
      shard::ShardedIndex index(sharded_options);
      core::Timer timer;
      index.Build(base);
      const double seconds = timer.Seconds();
      const double bytes = static_cast<double>(index.IndexBytes());
      if (r == 1) {
        r1_seconds = seconds;
        r1_bytes = bytes;
      }
      const SearchPoint point = RunQueries(index, queries, truth, params);
      char label[32], ratio[16], byte_ratio[16], recall[16];
      std::snprintf(label, sizeof(label), "R=%zu", r);
      std::snprintf(ratio, sizeof(ratio), "%.2fx",
                    r1_seconds > 0 ? seconds / r1_seconds : 0.0);
      std::snprintf(byte_ratio, sizeof(byte_ratio), "%.2fx",
                    r1_bytes > 0 ? bytes / r1_bytes : 0.0);
      std::snprintf(recall, sizeof(recall), "%.4f", point.recall);
      PrintRow({label, FormatSeconds(seconds), ratio, FormatBytes(bytes),
                byte_ratio, recall});
    }
    PrintRule();
  }
  std::printf("\n");
}

void Run(const Options& options) {
  PrintHeader(
      "Sharded index scaling: partitioned build + centroid-routed search",
      "K-way partitioned builds run in parallel on one pool (superlinear "
      "construction makes K builds of n/K rows cheaper than one build of n "
      "even before parallelism); search fans out to the nprobe nearest "
      "shard centroids and merges per-shard top-k into global ids.");
  std::printf("n=%zu dim=%zu queries=%zu beam=%zu fanout-threads=%zu\n\n",
              options.n, options.dim, options.queries, options.beam,
              options.fanout);

  // One draw, split into base + held-out queries, so queries come from the
  // same cluster mixture (in-distribution, like the paper's workloads).
  synth::ClusterParams cluster_params;
  cluster_params.num_clusters = 32;
  const core::Dataset all = synth::GaussianClusters(
      options.n + options.queries, options.dim, cluster_params, options.seed);
  const core::Dataset base = all.Prefix(options.n);
  std::vector<core::VectorId> held_out(options.queries);
  for (std::size_t q = 0; q < options.queries; ++q) {
    held_out[q] = static_cast<core::VectorId>(options.n + q);
  }
  const core::Dataset queries = all.Select(held_out);
  const eval::GroundTruth truth = eval::BruteForceKnn(base, queries, 10);

  for (const std::string& method : options.methods) {
    RunMethod(method, base, queries, truth, options);
  }
}

}  // namespace
}  // namespace gass::bench

int main(int argc, char** argv) {
  gass::bench::Options options;
  if (!gass::bench::ParseOptions(argc, argv, &options)) return 1;
  gass::bench::Run(options);
  return 0;
}
