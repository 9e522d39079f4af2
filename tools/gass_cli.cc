// gass_cli — command-line driver for the GASS library.
//
//   gass_cli gen        --dataset deep --n 10000 --out base.fvecs
//                       [--queries 100 --queries-out q.fvecs] [--seed 42]
//   gass_cli gt         --base base.fvecs --queries q.fvecs --k 10
//                       --out gt.ivecs
//   gass_cli build      --method hnsw --base base.fvecs [--graph graph.bin]
//                       [--save index.gass] [sharding flags]
//   gass_cli eval       --method hnsw --base base.fvecs --queries q.fvecs
//                       [--truth gt.ivecs] [--k 10] [--beams 10,40,160]
//                       [--search-params k=10,seeds=48] [--load index.gass]
//                       [sharding flags]
//   gass_cli complexity --base base.fvecs [--k 100] [--sample 100]
//   gass_cli serve-bench --method hnsw --base base.fvecs --queries q.fvecs
//                       [--k 10] [--beam 100] [--threads 1,2,4] [--reps 16]
//                       [--timeout-ms 0] [--search-params k=10,seeds=48]
//                       [--load index.gass] [sharding flags]
//                       [--trace N [--trace-out t.json] [--metrics-out m.prom]]
//                       [--arrival poisson --rate N [--num-arrivals N]
//                        [--queue 64] [--deadline-ms 10] [--retries 0]]
//   gass_cli update-bench --base base.fvecs --wal-dir DIR [--updates 1000]
//                       [--delete-fraction 0.1] [--shards 0] [--reserve N]
//                       [--wal-name live] [--wal-fsync every|everyn|interval]
//                       [--wal-fsync-n 64] [--wal-fsync-interval-ms 50]
//                       [--checkpoint-every 0] [--queries q.fvecs
//                        [--search-every 4] [--k 10] [--beam 100]]
//                       [--threads 0] [--queue 64] [--seed 42]
//   gass_cli methods
//
// update-bench drives WAL-logged live inserts/deletes (closed loop, so the
// rate includes full ack latency under the chosen fsync policy) through a
// serve::Frontend — concurrent searches mixed in with --queries — then
// reopens the checkpoint + WALs and verifies the recovered index
// self-retrieves acknowledged inserts and drops acknowledged deletes. See
// docs/PERSISTENCE.md "Durability & live updates".
//
// Sharding flags (build/eval/serve-bench; see docs/SHARDING.md):
//   --shards K              partition the base into K shards and build one
//                           --method sub-index per shard (0/absent = plain
//                           unsharded index)
//   --partitioner P         contiguous | random | kmeans (default kmeans)
//   --nprobe N              shards probed per query (default 0 = all)
//   --build-threads T       threads for the parallel shard builds (0 = all)
//   --fanout-threads T      threads for per-query fan-out (0 = caller thread)
//   --replicas R            bit-identical replicas per shard (default 1).
//                           A serving knob: snapshots stay replica-oblivious,
//                           so it also applies to a sharded --load. See
//                           docs/SHARDING.md "Replication".
//
// Shard fault tolerance (serve-bench, sharded indexes only; see
// docs/SHARDING.md "Failure semantics"):
//   --breaker-threshold N   consecutive failures before a shard's circuit
//                           breaker opens (0 = breaker off; default 3)
//   --breaker-probe N       every Nth routing decision against an open
//                           breaker becomes a half-open probe (default 16)
//   --hedge F               fraction of the remaining deadline after which
//                           an outstanding shard gets a hedged backup
//                           sub-search (0/absent = off; needs
//                           --fanout-threads > 0 and a deadline)
//   --shard-fault-shard S         shard the injected fault plan targets
//   --shard-fault-replica R       replica of S the fail-period plan targets
//                                 (-1/absent = any replica; slow/reload
//                                 faults stay shard-wide)
//   --shard-fault-fail-period N   fail every Nth admission's sub-search on S
//   --shard-fault-slow-period N   delay every Nth admission's sub-search
//   --shard-fault-slow-ms M       the injected delay (default 50)
//   --shard-fault-slow-attempts A attempts per slot that sleep (default 1,
//                                 so a hedged backup models a healthy
//                                 replica; 2 also slows the backup)
//   --shard-fault-reload-corrupt N  first N ReloadShard(S) calls fail
//   --scrub-every N         anti-entropy scrub pass every N ms: digest all
//                           replicas of every shard, quarantine divergent
//                           ones, rebuild them online (replicated sharded
//                           indexes only)
// A serve-bench run with a permanently failing shard (fail-period 1) must
// finish with zero query-level errors: the lost shard surfaces as partial
// results + breaker-state counters, never as exceptions. With --replicas
// R >= 2 and a replica-targeted fault, the lost replica surfaces as
// replica-failover counters and the run stays *complete* (no partials).
//
// serve-bench defaults to the closed-loop executor thread sweep. With
// --arrival poisson it instead offers an open-loop Poisson stream at
// --rate arrivals/sec to serve::Frontend (bounded queue, load shedding,
// adaptive degradation; see docs/SERVING.md) and reports goodput, shed
// rate, and degradation-step occupancy. --retries N additionally re-issues
// shed queries through serve::SearchWithRetry once the burst drains.
//
// --save writes a crash-safe checksummed snapshot of the built index (see
// docs/PERSISTENCE.md); --load warm-starts eval/serve-bench from such a
// snapshot through io::OpenIndex, which sniffs the manifest and picks the
// plain or sharded loader itself — the --method and --shards flags are not
// needed (and ignored) when loading, but --base and --seed must match the
// saved build. --nprobe and --fanout-threads still apply post-load.
//
// Tracing (serve-bench; see docs/OBSERVABILITY.md): --trace N samples a
// deterministic 1-in-N subset of queries (1 = all) and records per-stage
// spans — queue, session, and either one search span or route / per-shard
// search / merge for sharded indexes. A span-coverage summary is printed;
// --trace-out writes the traces plus serve metrics as JSON and
// --metrics-out writes the metrics as Prometheus text.
//
// All subcommands print human-readable tables to stdout and return nonzero
// on error. Flag parsing is strict (tools/arg_parse.h): an unknown --flag,
// a non-numeric value handed to a numeric flag, or an empty or non-numeric
// element of a comma list (--threads, --beams) exits with a named error
// instead of a silent default. Millisecond flags (--timeout-ms,
// --deadline-ms, --shard-fault-slow-ms) take fractions, e.g. 2.5.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <initializer_list>
#include <mutex>
#include <thread>

#include "arg_parse.h"

#include "core/dataset.h"
#include "core/rng.h"
#include "eval/complexity.h"
#include "eval/ground_truth.h"
#include "eval/recall.h"
#include "io/fs.h"
#include "io/open_index.h"
#include "methods/factory.h"
#include "methods/search_params.h"
#include "obs/exporter.h"
#include "serve/executor.h"
#include "serve/fault_injector.h"
#include "serve/frontend.h"
#include "serve/live_hnsw.h"
#include "serve/retry.h"
#include "serve/updater.h"
#include "shard/live_sharded_index.h"
#include "shard/sharded_index.h"
#include "synth/generators.h"
#include "synth/workloads.h"

namespace {

using gass::core::Dataset;
using gass::core::Status;
using gass::core::VectorId;

// Strict --flag value parsing (tools/arg_parse.h); each command validates
// against its spec table in main() before dispatch, so a typo'd flag or a
// non-numeric value to a numeric flag is a named error, never a silent
// default.
using Flags = gass::tools::ArgParser;
using gass::tools::ArgKind;
using gass::tools::ArgSpec;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.message().c_str());
  return 1;
}

// Builds an unconstructed index from --method plus the optional sharding
// flags. --shards 0 (or absent) yields the plain factory index; otherwise a
// shard::ShardedIndex wrapping K per-shard --method sub-indexes. Returns
// null (with a message on stderr) on a bad flag combination.
std::unique_ptr<gass::methods::GraphIndex> MakeIndexFromFlags(
    const Flags& flags) {
  const std::string method = flags.Get("method", "hnsw");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const std::size_t shards =
      static_cast<std::size_t>(flags.GetInt("shards", 0));
  const std::size_t replicas =
      static_cast<std::size_t>(flags.GetInt("replicas", 1));
  if (shards <= 0) {
    if (replicas > 1) {
      std::fprintf(stderr,
                   "error: --replicas needs a sharded index (--shards K)\n");
      return nullptr;
    }
    return gass::methods::CreateIndex(method, seed);
  }
  gass::shard::ShardedIndexOptions options;
  options.method = method;
  options.seed = seed;
  options.partitioner.num_shards = shards;
  const std::string partitioner = flags.Get("partitioner", "kmeans");
  if (!gass::shard::ParsePartitionerKind(partitioner,
                                         &options.partitioner.kind)) {
    std::fprintf(stderr,
                 "error: unknown --partitioner '%s' "
                 "(want contiguous, random, or kmeans)\n",
                 partitioner.c_str());
    return nullptr;
  }
  options.nprobe = static_cast<std::size_t>(flags.GetInt("nprobe", 0));
  options.build_threads =
      static_cast<std::size_t>(flags.GetInt("build-threads", 0));
  options.fanout_threads =
      static_cast<std::size_t>(flags.GetInt("fanout-threads", 0));
  options.replicas = replicas == 0 ? 1 : replicas;
  return std::make_unique<gass::shard::ShardedIndex>(options);
}

// --load path: io::OpenIndex sniffs the snapshot manifest and dispatches to
// the plain or sharded loader itself; only the post-load query knobs come
// from flags.
Status LoadIndexFromFlags(const Flags& flags, const Dataset& base,
                          std::unique_ptr<gass::methods::GraphIndex>* index) {
  gass::io::OpenIndexOptions options;
  options.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  options.nprobe = static_cast<std::size_t>(flags.GetInt("nprobe", 0));
  options.fanout_threads =
      static_cast<std::size_t>(flags.GetInt("fanout-threads", 0));
  options.replicas = static_cast<std::size_t>(flags.GetInt("replicas", 1));
  return gass::io::OpenIndex(flags.Get("load", ""), base, options, index);
}

// Tracer options for serve-bench from --trace N (0/absent = off).
gass::obs::TracerOptions TraceOptionsFromFlags(const Flags& flags) {
  gass::obs::TracerOptions options;
  options.sample_period =
      static_cast<std::uint64_t>(flags.GetInt("trace", 0));
  return options;
}

// Prints the span-coverage summary for a traced serve-bench run (what
// fraction of each traced query's end-to-end latency the recorded stage
// spans account for) and writes --trace-out / --metrics-out artifacts.
int ReportTraces(const Flags& flags, const gass::serve::ServeMetrics& metrics,
                 const gass::obs::Tracer& tracer) {
  const std::vector<const gass::obs::QueryTrace*> traces = tracer.Completed();
  double coverage_sum = 0.0;
  std::size_t covered = 0;
  for (const gass::obs::QueryTrace* trace : traces) {
    std::uint64_t span_ns = 0;
    for (std::size_t i = 0; i < trace->size(); ++i) {
      span_ns += trace->span(i).duration_ns;
    }
    if (trace->total_ns() > 0) {
      coverage_sum += static_cast<double>(span_ns) /
                      static_cast<double>(trace->total_ns());
      ++covered;
    }
  }
  std::printf("traces: %zu collected (%llu lost to the slot cap)",
              traces.size(),
              static_cast<unsigned long long>(tracer.overflowed()));
  if (covered > 0) {
    std::printf("; stage spans cover %.1f%% of end-to-end latency (mean)",
                100.0 * coverage_sum / static_cast<double>(covered));
  }
  std::printf("\n");

  gass::obs::Exporter exporter;
  metrics.ExportTo(&exporter, "gass_serve_");
  exporter.AddTracer(tracer);
  if (flags.Has("trace-out")) {
    const Status status = exporter.WriteJson(flags.Get("trace-out", ""));
    if (!status.ok()) return Fail(status);
    std::printf("traces + metrics written to %s (JSON)\n",
                flags.Get("trace-out", "").c_str());
  }
  if (flags.Has("metrics-out")) {
    const Status status =
        exporter.WritePrometheus(flags.Get("metrics-out", ""));
    if (!status.ok()) return Fail(status);
    std::printf("metrics written to %s (Prometheus text)\n",
                flags.Get("metrics-out", "").c_str());
  }
  return 0;
}

// One-line shard summary ("4 shards (kmeans, nprobe 2): 2510 2380 ...") for
// index-construction commands; empty for unsharded indexes.
std::string ShardSummary(const gass::methods::GraphIndex& index) {
  const auto* sharded = dynamic_cast<const gass::shard::ShardedIndex*>(&index);
  if (sharded == nullptr) return "";
  std::string line = std::to_string(sharded->num_shards()) + " shards (" +
                     gass::shard::PartitionerKindName(
                         sharded->options().partitioner.kind) +
                     ", nprobe " + std::to_string(sharded->EffectiveNprobe()) +
                     "):";
  for (std::size_t s = 0; s < sharded->num_shards(); ++s) {
    line += " " + std::to_string(sharded->shard_size(s));
  }
  return line;
}

// --shard-fault-* flags -> a FaultPlan with one ShardFaultPlan entry (an
// empty plan when no fault flag is present).
gass::serve::FaultPlan ShardFaultPlanFromFlags(const Flags& flags) {
  gass::serve::FaultPlan plan;
  if (!flags.Has("shard-fault-fail-period") &&
      !flags.Has("shard-fault-slow-period") &&
      !flags.Has("shard-fault-reload-corrupt")) {
    return plan;
  }
  gass::serve::ShardFaultPlan fault;
  fault.shard =
      static_cast<std::uint32_t>(flags.GetInt("shard-fault-shard", 0));
  fault.replica =
      static_cast<std::int32_t>(flags.GetInt("shard-fault-replica", -1));
  fault.fail_period = static_cast<std::uint64_t>(
      flags.GetInt("shard-fault-fail-period", 0));
  fault.slow_period = static_cast<std::uint64_t>(
      flags.GetInt("shard-fault-slow-period", 0));
  fault.slow_seconds = flags.GetFloat("shard-fault-slow-ms", 50.0) * 1e-3;
  fault.slow_attempts = static_cast<std::uint32_t>(
      flags.GetInt("shard-fault-slow-attempts", 1));
  fault.reload_corrupt_times = static_cast<std::uint64_t>(
      flags.GetInt("shard-fault-reload-corrupt", 0));
  plan.shard_faults.push_back(fault);
  return plan;
}

// Applies the breaker / hedge / shard-fault flags to a sharded index.
// `injector` receives the owning FaultInjector (it must outlive the serving
// run). Returns false (with a message) when a fault-tolerance flag targets
// an unsharded index.
bool ConfigureShardFaults(gass::methods::GraphIndex& index, const Flags& flags,
                          std::unique_ptr<gass::serve::FaultInjector>* injector) {
  const gass::serve::FaultPlan plan = ShardFaultPlanFromFlags(flags);
  const bool wants_faults = !plan.shard_faults.empty() ||
                            flags.Has("breaker-threshold") ||
                            flags.Has("breaker-probe") || flags.Has("hedge");
  auto* sharded = dynamic_cast<gass::shard::ShardedIndex*>(&index);
  if (sharded == nullptr) {
    if (wants_faults) {
      std::fprintf(stderr,
                   "error: --breaker-*/--hedge/--shard-fault-* need a "
                   "sharded index (--shards K or a sharded --load)\n");
      return false;
    }
    return true;
  }
  if (flags.Has("breaker-threshold") || flags.Has("breaker-probe")) {
    gass::shard::ShardBreakerOptions breaker;
    breaker.failure_threshold = static_cast<std::uint32_t>(
        flags.GetInt("breaker-threshold", 3));
    breaker.probe_period =
        static_cast<std::uint64_t>(flags.GetInt("breaker-probe", 16));
    sharded->SetBreakerOptions(breaker);
  }
  if (flags.Has("hedge")) {
    sharded->SetHedgeFraction(flags.GetFloat("hedge", 0.0));
  }
  if (!plan.shard_faults.empty()) {
    *injector = std::make_unique<gass::serve::FaultInjector>(plan);
    sharded->SetFaultInjector(injector->get());
  }
  return true;
}

// Fault-tolerance summary after a serving run: partial/failed/hedged
// counters from the metrics, injected-fault tallies, and the breaker-state
// line. Prints nothing for unsharded runs without faults.
void ReportShardFaults(const gass::serve::ServeMetrics& metrics,
                       const gass::methods::GraphIndex& index,
                       const gass::serve::FaultInjector* injector) {
  const auto* sharded = dynamic_cast<const gass::shard::ShardedIndex*>(&index);
  if (sharded == nullptr) return;
  const gass::core::SearchStats totals = metrics.TotalStats();
  const std::uint64_t partial =
      metrics.count(gass::serve::ServeCounter::kPartial);
  if (totals.shards_failed == 0 && totals.shards_hedged == 0 &&
      partial == 0 && injector == nullptr && !sharded->health().enabled()) {
    return;
  }
  std::printf("fan-out health: partial %llu | shards failed %llu | "
              "hedged %llu (%llu wins)\n",
              static_cast<unsigned long long>(partial),
              static_cast<unsigned long long>(totals.shards_failed),
              static_cast<unsigned long long>(totals.shards_hedged),
              static_cast<unsigned long long>(totals.hedge_wins));
  if (sharded->num_replicas() > 1 || totals.replica_failovers > 0) {
    std::printf("replication: %zu replicas/shard | failovers %llu\n",
                sharded->num_replicas(),
                static_cast<unsigned long long>(totals.replica_failovers));
  }
  std::printf("%s\n", sharded->health().Summary().c_str());
  if (injector != nullptr) {
    using gass::serve::FaultCounter;
    std::printf("injected: %llu shard failures, %llu delays, "
                "%llu reload corruptions\n",
                static_cast<unsigned long long>(
                    injector->count(FaultCounter::kShardFailures)),
                static_cast<unsigned long long>(
                    injector->count(FaultCounter::kShardDelays)),
                static_cast<unsigned long long>(
                    injector->count(FaultCounter::kReloadCorruptions)));
  }
}

int CmdGen(const Flags& flags) {
  const std::string dataset = flags.Get("dataset", "deep");
  const std::size_t n = static_cast<std::size_t>(flags.GetInt("n", 10000));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const std::string out = flags.Get("out", "base.fvecs");
  const std::size_t num_queries =
      static_cast<std::size_t>(flags.GetInt("queries", 0));

  Dataset full = gass::synth::MakeDatasetProxy(dataset, n + num_queries, seed);
  if (num_queries > 0) {
    gass::synth::HoldOutSplit split =
        gass::synth::SplitHoldOut(std::move(full), num_queries, seed ^ 0x5ULL);
    const Status base_status = gass::core::WriteFvecs(out, split.base);
    if (!base_status.ok()) return Fail(base_status);
    const std::string queries_out = flags.Get("queries-out", "queries.fvecs");
    const Status query_status =
        gass::core::WriteFvecs(queries_out, split.queries);
    if (!query_status.ok()) return Fail(query_status);
    std::printf("wrote %zu base vectors to %s and %zu queries to %s (dim %zu)\n",
                split.base.size(), out.c_str(), split.queries.size(),
                queries_out.c_str(), split.base.dim());
  } else {
    const Status status = gass::core::WriteFvecs(out, full);
    if (!status.ok()) return Fail(status);
    std::printf("wrote %zu vectors to %s (dim %zu)\n", full.size(),
                out.c_str(), full.dim());
  }
  return 0;
}

int CmdGroundTruth(const Flags& flags) {
  Dataset base, queries;
  Status status = gass::core::ReadFvecs(flags.Get("base", "base.fvecs"), &base);
  if (!status.ok()) return Fail(status);
  status =
      gass::core::ReadFvecs(flags.Get("queries", "queries.fvecs"), &queries);
  if (!status.ok()) return Fail(status);
  const std::size_t k = static_cast<std::size_t>(flags.GetInt("k", 10));

  const auto truth = gass::eval::BruteForceKnn(base, queries, k);
  std::vector<std::vector<std::int32_t>> rows;
  rows.reserve(truth.size());
  for (const auto& neighbors : truth) {
    std::vector<std::int32_t> row;
    for (const auto& nb : neighbors) {
      row.push_back(static_cast<std::int32_t>(nb.id));
    }
    rows.push_back(std::move(row));
  }
  const std::string out = flags.Get("out", "gt.ivecs");
  status = gass::core::WriteIvecs(out, rows);
  if (!status.ok()) return Fail(status);
  std::printf("wrote exact %zu-NN of %zu queries to %s\n", k, queries.size(),
              out.c_str());
  return 0;
}

int CmdBuild(const Flags& flags) {
  Dataset base;
  const Status status =
      gass::core::ReadFvecs(flags.Get("base", "base.fvecs"), &base);
  if (!status.ok()) return Fail(status);

  auto index = MakeIndexFromFlags(flags);
  if (index == nullptr) return 1;
  const gass::methods::BuildStats stats = index->Build(base);
  std::printf("%s built over %zu vectors in %.2fs "
              "(%llu distance computations, %zu index bytes)\n",
              index->Name().c_str(), base.size(), stats.elapsed_seconds,
              static_cast<unsigned long long>(stats.distance_computations),
              stats.index_bytes);
  const std::string shard_summary = ShardSummary(*index);
  if (!shard_summary.empty()) std::printf("%s\n", shard_summary.c_str());

  if (flags.Has("graph") && index->HasBaseGraph()) {
    const Status save = index->graph().Save(flags.Get("graph", ""));
    if (!save.ok()) return Fail(save);
    std::printf("base graph saved to %s\n", flags.Get("graph", "").c_str());
  }
  if (flags.Has("save")) {
    const Status save = gass::methods::SaveIndex(*index, flags.Get("save", ""));
    if (!save.ok()) return Fail(save);
    std::printf("index snapshot saved to %s\n", flags.Get("save", "").c_str());
  }
  return 0;
}

int CmdEval(const Flags& flags) {
  Dataset base, queries;
  Status status = gass::core::ReadFvecs(flags.Get("base", "base.fvecs"), &base);
  if (!status.ok()) return Fail(status);
  status =
      gass::core::ReadFvecs(flags.Get("queries", "queries.fvecs"), &queries);
  if (!status.ok()) return Fail(status);

  // --search-params layers a "k=..,seeds=..,prune=.." spec over the
  // defaults; the beam width comes from the --beams sweep below.
  gass::methods::SearchParams base_params = gass::methods::MakeSearchParams(
      static_cast<std::size_t>(flags.GetInt("k", 10)), 64, 48);
  std::string spec_error;
  if (!gass::methods::ParseSearchParams(flags.Get("search-params", ""),
                                        &base_params, &spec_error)) {
    std::fprintf(stderr, "error: bad --search-params: %s\n",
                 spec_error.c_str());
    return 1;
  }
  const std::size_t k = base_params.k;

  gass::eval::GroundTruth truth;
  if (flags.Has("truth")) {
    std::vector<std::vector<std::int32_t>> rows;
    status = gass::core::ReadIvecs(flags.Get("truth", ""), &rows);
    if (!status.ok()) return Fail(status);
    for (const auto& row : rows) {
      std::vector<gass::core::Neighbor> neighbors;
      for (std::int32_t id : row) {
        neighbors.emplace_back(static_cast<VectorId>(id), 0.0f);
      }
      truth.push_back(std::move(neighbors));
    }
    // Distances are needed for tie-aware recall; recompute them.
    for (std::size_t q = 0; q < truth.size(); ++q) {
      for (auto& nb : truth[q]) {
        nb.distance =
            gass::core::L2Sq(queries.Row(static_cast<VectorId>(q)),
                             base.Row(nb.id), base.dim());
      }
    }
  } else {
    std::printf("computing exact ground truth (no --truth given)...\n");
    truth = gass::eval::BruteForceKnn(base, queries, k);
  }

  std::unique_ptr<gass::methods::GraphIndex> index;
  if (flags.Has("load")) {
    const Status load = LoadIndexFromFlags(flags, base, &index);
    if (!load.ok()) return Fail(load);
    std::printf("%s loaded from %s\n", index->Name().c_str(),
                flags.Get("load", "").c_str());
  } else {
    index = MakeIndexFromFlags(flags);
    if (index == nullptr) return 1;
    const gass::methods::BuildStats build = index->Build(base);
    std::printf("%s built in %.2fs\n", index->Name().c_str(),
                build.elapsed_seconds);
  }
  const std::string shard_summary = ShardSummary(*index);
  if (!shard_summary.empty()) std::printf("%s\n", shard_summary.c_str());
  std::printf("search params: %s (beam swept below)\n\n",
              gass::methods::SearchParamsToString(base_params).c_str());
  std::printf("%-8s %-10s %-14s %-12s\n", "beam", "recall", "dists/query",
              "time/query");

  for (const long beam : flags.GetIntList("beams", {10, 40, 160})) {
    gass::methods::SearchParams params = base_params;
    params.beam_width = static_cast<std::size_t>(beam);
    std::vector<std::vector<gass::core::Neighbor>> results;
    double dists = 0.0, seconds = 0.0;
    for (VectorId q = 0; q < queries.size(); ++q) {
      auto result = index->Search(queries.Row(q), params);
      dists += static_cast<double>(result.stats.distance_computations);
      seconds += result.stats.elapsed_seconds;
      results.push_back(std::move(result.neighbors));
    }
    const double nq = static_cast<double>(queries.size());
    std::printf("%-8zu %-10.4f %-14.0f %.3fms\n", params.beam_width,
                gass::eval::MeanRecall(results, truth, k), dists / nq,
                1e3 * seconds / nq);
  }
  return 0;
}

int CmdComplexity(const Flags& flags) {
  Dataset base;
  const Status status =
      gass::core::ReadFvecs(flags.Get("base", "base.fvecs"), &base);
  if (!status.ok()) return Fail(status);
  const std::size_t k = static_cast<std::size_t>(flags.GetInt("k", 100));
  const std::size_t sample =
      static_cast<std::size_t>(flags.GetInt("sample", 100));
  const auto summary = gass::eval::EstimateComplexity(base, sample, k, 7);
  std::printf("n=%zu dim=%zu sample=%zu k=%zu\n", base.size(), base.dim(),
              summary.num_points, k);
  std::printf("LID  mean %.2f  median %.2f   (low = easy)\n",
              summary.mean_lid, summary.median_lid);
  std::printf("LRC  mean %.3f  median %.3f  (high = easy)\n",
              summary.mean_lrc, summary.median_lrc);
  return 0;
}

// Open-loop serve bench: Poisson arrivals at --rate offered to a
// serve::Frontend; goodput/shed/degradation reported, with an optional
// SearchWithRetry pass over the shed queries afterwards.
int RunPoissonServeBench(gass::methods::GraphIndex& index,
                         const Dataset& queries,
                         const gass::methods::SearchParams& params,
                         const Flags& flags,
                         const gass::serve::FaultInjector* shard_injector) {
  using Clock = std::chrono::steady_clock;
  using gass::methods::ServeOutcome;

  const double rate = flags.GetFloat("rate", 0.0);
  if (rate <= 0) {
    std::fprintf(stderr, "error: --arrival poisson needs --rate > 0\n");
    return 1;
  }
  const std::size_t num_arrivals = static_cast<std::size_t>(flags.GetInt(
      "num-arrivals",
      static_cast<long>(std::clamp(rate, 500.0, 50000.0))));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));

  const std::vector<long> threads = flags.GetIntList("threads", {0});
  if (threads.size() != 1) {
    std::fprintf(stderr,
                 "error: --arrival poisson takes one --threads count\n");
    return 1;
  }
  gass::serve::FrontendOptions options;
  options.threads = static_cast<std::size_t>(threads[0]);
  options.queue_capacity =
      static_cast<std::size_t>(flags.GetInt("queue", 64));
  options.deadline_seconds = flags.GetFloat("deadline-ms", 10.0) * 1e-3;
  options.seed = seed;
  options.trace = TraceOptionsFromFlags(flags);
  gass::serve::Frontend frontend(index, options);

  const std::size_t nq = queries.size();
  const std::size_t dim = queries.dim();
  // Warm-up primes the session pool and the p50 predictor.
  for (std::size_t q = 0; q < nq; ++q) {
    frontend
        .Submit(queries.data() + q * dim, dim, params, gass::core::Deadline())
        .get();
  }
  frontend.Drain();
  frontend.metrics().Reset();
  frontend.tracer().Reset();  // Warm-up queries should not occupy slots.

  gass::core::Rng rng(seed ^ 0xA881AALL);
  std::vector<double> offsets(num_arrivals);
  double t = 0.0;
  for (std::size_t i = 0; i < num_arrivals; ++i) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate;
    offsets[i] = t;
  }

  std::vector<gass::serve::Frontend::Ticket> tickets;
  std::vector<std::size_t> query_of;
  tickets.reserve(num_arrivals);
  query_of.reserve(num_arrivals);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < num_arrivals; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offsets[i])));
    query_of.push_back(i % nq);
    tickets.push_back(
        frontend.Submit(queries.data() + (i % nq) * dim, dim, params));
  }
  std::uint64_t full = 0, degraded = 0, expired = 0, shed = 0;
  std::vector<std::size_t> shed_queries;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    switch (tickets[i].get().outcome) {
      case ServeOutcome::kFull: ++full; break;
      case ServeOutcome::kDegraded: ++degraded; break;
      case ServeOutcome::kExpired: ++expired; break;
      case ServeOutcome::kRejected:
        ++shed;
        shed_queries.push_back(query_of[i]);
        break;
    }
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::printf("\nopen loop: %zu Poisson arrivals at %.0f/s "
              "(deadline %.1fms, queue %zu)\n",
              num_arrivals, rate, options.deadline_seconds * 1e3,
              options.queue_capacity);
  std::printf("%-14s %-12s %-10s %-10s %-10s %-10s\n", "goodput/s", "shed",
              "expired", "degraded", "p50", "p99");
  char shed_cell[48];
  std::snprintf(shed_cell, sizeof(shed_cell), "%llu (%.1f%%)",
                static_cast<unsigned long long>(shed),
                num_arrivals > 0 ? 100.0 * static_cast<double>(shed) /
                                       static_cast<double>(num_arrivals)
                                 : 0.0);
  std::printf("%-14.0f %-12s %-10llu %-10llu %-10.3f %-10.3f\n",
              elapsed > 0 ? static_cast<double>(full + degraded) / elapsed
                          : 0.0,
              shed_cell,
              static_cast<unsigned long long>(expired),
              static_cast<unsigned long long>(degraded),
              1e3 * frontend.metrics().LatencyQuantileSeconds(0.50),
              1e3 * frontend.metrics().LatencyQuantileSeconds(0.99));
  std::printf("degrade occupancy:");
  const std::uint64_t executed = full + degraded + expired;
  for (std::size_t s = 0; s < gass::serve::ServeMetrics::kMaxDegradeSteps;
       ++s) {
    const std::uint64_t count = frontend.metrics().degrade_step_count(s);
    if (count == 0) continue;
    std::printf(" s%zu:%.0f%%", s,
                executed > 0 ? 100.0 * static_cast<double>(count) /
                                   static_cast<double>(executed)
                             : 0.0);
  }
  std::printf("  queue high-water: %llu\n",
              static_cast<unsigned long long>(
                  frontend.metrics().queue_depth_high_water()));
  ReportShardFaults(frontend.metrics(), index, shard_injector);

  if (frontend.tracer().enabled()) {
    frontend.Drain();  // Quiesce workers before reading completed traces.
    const int rc = ReportTraces(flags, frontend.metrics(), frontend.tracer());
    if (rc != 0) return rc;
  }

  const std::size_t retries =
      static_cast<std::size_t>(flags.GetInt("retries", 0));
  if (retries > 0 && !shed_queries.empty()) {
    gass::serve::RetryPolicy policy;
    policy.max_attempts = retries + 1;  // First attempt + N retries.
    gass::core::Rng retry_rng(seed ^ 0x8E784ULL);
    std::uint64_t recovered = 0;
    for (const std::size_t q : shed_queries) {
      const gass::methods::SearchResult result = gass::serve::SearchWithRetry(
          frontend, queries.data() + q * dim, dim, params,
          gass::core::Deadline::After(options.deadline_seconds), policy,
          &retry_rng);
      if (result.outcome != ServeOutcome::kRejected) ++recovered;
    }
    std::printf("retry pass: %llu of %zu shed queries recovered with <= %zu "
                "retries (capped backoff + jitter)\n",
                static_cast<unsigned long long>(recovered),
                shed_queries.size(), retries);
  }
  return 0;
}

// Background anti-entropy scrubber for serve-bench (--scrub-every N):
// every N milliseconds, digest all replicas of every shard, quarantine
// divergent ones, and rebuild them online — concurrently with the serving
// run, which is the whole point. Tallies are written only by the scrub
// thread and read after Stop(), so they need no synchronization.
class ScrubDriver {
 public:
  ScrubDriver(gass::shard::ShardedIndex* index, long period_ms)
      : index_(index), period_(std::chrono::milliseconds(period_ms)) {
    if (index_ == nullptr || period_ms <= 0) return;
    thread_ = std::thread([this] { Loop(); });
  }
  ~ScrubDriver() { Stop(); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // One summary line after the run (nothing when the scrubber was off).
  void Report() const {
    if (index_ == nullptr) return;
    std::printf("scrub: %llu passes | %llu divergent | %llu quarantined | "
                "%llu rebuilt | %llu rebuild failures\n",
                static_cast<unsigned long long>(passes_),
                static_cast<unsigned long long>(divergent_),
                static_cast<unsigned long long>(quarantined_),
                static_cast<unsigned long long>(rebuilt_),
                static_cast<unsigned long long>(rebuild_failures_));
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (cv_.wait_for(lock, period_, [this] { return stop_; })) break;
      lock.unlock();
      const gass::shard::ScrubReport report = index_->ScrubReplicas(true);
      ++passes_;
      divergent_ += report.divergent;
      quarantined_ += report.quarantined;
      rebuilt_ += report.rebuilt;
      rebuild_failures_ += report.rebuild_failures;
      lock.lock();
    }
  }

  gass::shard::ShardedIndex* index_;
  std::chrono::milliseconds period_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
  std::uint64_t passes_ = 0;
  std::uint64_t divergent_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t rebuilt_ = 0;
  std::uint64_t rebuild_failures_ = 0;
};

// Throughput of the concurrent serving path at each thread count: builds
// once, then drives tiled query batches through serve::QueryExecutor.
int CmdServeBench(const Flags& flags) {
  Dataset base, queries;
  Status status = gass::core::ReadFvecs(flags.Get("base", "base.fvecs"), &base);
  if (!status.ok()) return Fail(status);
  status =
      gass::core::ReadFvecs(flags.Get("queries", "queries.fvecs"), &queries);
  if (!status.ok()) return Fail(status);

  const std::size_t k = static_cast<std::size_t>(flags.GetInt("k", 10));
  const std::size_t reps = static_cast<std::size_t>(flags.GetInt("reps", 16));
  const double timeout_seconds = flags.GetFloat("timeout-ms", 0.0) * 1e-3;

  std::unique_ptr<gass::methods::GraphIndex> index;
  if (flags.Has("load")) {
    const Status load = LoadIndexFromFlags(flags, base, &index);
    if (!load.ok()) return Fail(load);
    std::printf("%s loaded over %zu vectors from %s\n",
                index->Name().c_str(), base.size(),
                flags.Get("load", "").c_str());
  } else {
    index = MakeIndexFromFlags(flags);
    if (index == nullptr) return 1;
    const gass::methods::BuildStats build = index->Build(base);
    std::printf("%s built over %zu vectors in %.2fs\n",
                index->Name().c_str(), base.size(), build.elapsed_seconds);
  }
  if (!index->SupportsConcurrentSearch()) {
    std::fprintf(stderr,
                 "error: %s does not support concurrent search "
                 "(see docs/SERVING.md)\n",
                 index->Name().c_str());
    return 1;
  }
  const std::string shard_summary = ShardSummary(*index);
  if (!shard_summary.empty()) std::printf("%s\n", shard_summary.c_str());

  // Shard fault-tolerance flags; the injector must outlive every serving
  // run below (the sharded index keeps a raw pointer to it).
  std::unique_ptr<gass::serve::FaultInjector> shard_injector;
  if (!ConfigureShardFaults(*index, flags, &shard_injector)) return 1;

  // --scrub-every N: background anti-entropy over the serving run.
  const long scrub_ms = flags.GetInt("scrub-every", 0);
  auto* scrub_target = dynamic_cast<gass::shard::ShardedIndex*>(index.get());
  if (scrub_ms > 0 &&
      (scrub_target == nullptr || scrub_target->num_replicas() < 2)) {
    std::fprintf(stderr,
                 "error: --scrub-every needs a replicated sharded index "
                 "(--shards K with --replicas >= 2)\n");
    return 1;
  }
  ScrubDriver scrubber(scrub_ms > 0 ? scrub_target : nullptr, scrub_ms);
  std::printf("\n");

  const std::size_t nq = queries.size();
  const std::size_t dim = queries.dim();
  std::vector<float> batch(reps * nq * dim);
  for (std::size_t r = 0; r < reps; ++r) {
    std::memcpy(batch.data() + r * nq * dim, queries.data(),
                nq * dim * sizeof(float));
  }

  gass::methods::SearchParams params = gass::methods::MakeSearchParams(
      k, static_cast<std::size_t>(flags.GetInt("beam", 100)), 48);
  std::string spec_error;
  if (!gass::methods::ParseSearchParams(flags.Get("search-params", ""),
                                        &params, &spec_error)) {
    std::fprintf(stderr, "error: bad --search-params: %s\n",
                 spec_error.c_str());
    return 1;
  }
  std::printf("search params: %s\n",
              gass::methods::SearchParamsToString(params).c_str());

  int rc = 0;
  if (flags.Get("arrival", "closed") == "poisson") {
    rc = RunPoissonServeBench(*index, queries, params, flags,
                              shard_injector.get());
  } else {
    std::printf("%-8s %-12s %-12s %-12s %-10s\n", "threads", "qps", "p50",
                "p95", "expired");
    for (const long threads : flags.GetIntList("threads", {1, 2, 4})) {
      gass::serve::ExecutorOptions options;
      options.threads = static_cast<std::size_t>(threads);
      options.timeout_seconds = timeout_seconds;
      options.trace = TraceOptionsFromFlags(flags);
      gass::serve::QueryExecutor executor(*index, options);
      executor.SearchBatch(batch.data(), nq, dim, params);  // Warm-up.
      executor.metrics().Reset();
      executor.tracer().Reset();  // Warm-up queries should not occupy slots.
      const gass::serve::BatchResult result =
          executor.SearchBatch(batch.data(), reps * nq, dim, params);
      std::printf("%-8zu %-12.0f %-12.3f %-12.3f %-10llu\n",
                  options.threads, result.Qps(),
                  1e3 * executor.metrics().LatencyQuantileSeconds(0.50),
                  1e3 * executor.metrics().LatencyQuantileSeconds(0.95),
                  static_cast<unsigned long long>(result.expired));
      ReportShardFaults(executor.metrics(), *index, shard_injector.get());
      // With --trace the coverage summary and any --trace-out/--metrics-out
      // artifacts follow each row (later rows overwrite earlier files).
      if (executor.tracer().enabled()) {
        rc = ReportTraces(flags, executor.metrics(), executor.tracer());
        if (rc != 0) break;
      }
    }
  }
  scrubber.Stop();
  if (rc == 0) scrubber.Report();
  return rc;
}

// WAL durability knobs shared by update-bench (see docs/PERSISTENCE.md).
bool WalOptionsFromFlags(const Flags& flags,
                         gass::io::WalFsyncOptions* wal) {
  const std::string policy = flags.Get("wal-fsync", "every");
  if (policy == "every") {
    wal->policy = gass::io::WalFsyncPolicy::kEveryRecord;
  } else if (policy == "everyn") {
    wal->policy = gass::io::WalFsyncPolicy::kEveryN;
  } else if (policy == "interval") {
    wal->policy = gass::io::WalFsyncPolicy::kInterval;
  } else {
    std::fprintf(stderr,
                 "error: --wal-fsync must be every | everyn | interval\n");
    return false;
  }
  wal->sync_every_n =
      static_cast<std::size_t>(flags.GetInt("wal-fsync-n", 64));
  wal->sync_interval_seconds =
      static_cast<double>(flags.GetInt("wal-fsync-interval-ms", 50)) * 1e-3;
  return true;
}

// Live-update throughput bench: builds a live index over --base, streams
// WAL-logged inserts/deletes through a serve::Frontend (concurrent
// searches mixed in when --queries is given), then reopens from the
// checkpoint + WALs and verifies the recovered state.
int CmdUpdateBench(const Flags& flags) {
  using Clock = std::chrono::steady_clock;

  Dataset base;
  Status status = gass::core::ReadFvecs(flags.Get("base", "base.fvecs"), &base);
  if (!status.ok()) return Fail(status);
  Dataset queries;
  if (flags.Has("queries")) {
    status = gass::core::ReadFvecs(flags.Get("queries", ""), &queries);
    if (!status.ok()) return Fail(status);
  }

  const std::string wal_dir = flags.Get("wal-dir", "");
  if (wal_dir.empty()) {
    std::fprintf(stderr, "error: update-bench needs --wal-dir\n");
    return 1;
  }
  status = gass::io::CreateDirectory(wal_dir);
  if (!status.ok()) return Fail(status);

  const std::size_t updates =
      static_cast<std::size_t>(flags.GetInt("updates", 1000));
  const double delete_fraction = flags.GetFloat("delete-fraction", 0.1);
  const std::size_t shards =
      static_cast<std::size_t>(flags.GetInt("shards", 0));
  const std::size_t reserve = static_cast<std::size_t>(
      flags.GetInt("reserve", static_cast<long>(updates)));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const std::size_t dim = base.dim();

  gass::serve::UpdaterOptions up_options;
  up_options.directory = wal_dir;
  up_options.name = flags.Get("wal-name", "live");
  up_options.checkpoint_every =
      static_cast<std::uint64_t>(flags.GetInt("checkpoint-every", 0));
  if (!WalOptionsFromFlags(flags, &up_options.wal)) return 1;

  gass::serve::LiveHnswOptions hnsw_options;
  hnsw_options.hnsw.seed = seed;
  hnsw_options.reserve = reserve;
  gass::shard::LiveShardedOptions sharded_options;
  sharded_options.num_shards = shards;
  sharded_options.nprobe = static_cast<std::size_t>(flags.GetInt("nprobe", 0));
  sharded_options.reserve_per_shard =
      shards > 0 ? (reserve + shards - 1) / shards : reserve;
  sharded_options.replicas =
      static_cast<std::size_t>(flags.GetInt("replicas", 1));
  sharded_options.hnsw.seed = seed;
  sharded_options.seed = seed;
  if (shards == 0 && sharded_options.replicas > 1) {
    std::fprintf(stderr,
                 "error: --replicas needs sharded live updates (--shards K)\n");
    return 1;
  }

  // Build the live index and its durable state (checkpoint + empty WALs).
  std::unique_ptr<gass::serve::LiveIndex> live;
  if (shards > 0) {
    auto index = std::make_unique<gass::shard::LiveShardedIndex>(
        sharded_options);
    index->Build(base);
    live = std::move(index);
  } else {
    live = gass::serve::LiveHnsw::Build(base, hnsw_options);
  }
  std::unique_ptr<gass::serve::Updater> updater;
  status = gass::serve::Updater::Create(live.get(), up_options, &updater);
  if (!status.ok()) return Fail(status);
  std::printf("%s built over %zu vectors (dim %zu, %u wal stream%s, "
              "fsync %s)\n",
              live->MethodName().c_str(), base.size(), dim,
              live->num_streams(), live->num_streams() == 1 ? "" : "s",
              gass::io::WalFsyncPolicyName(up_options.wal.policy));

  gass::methods::SearchParams params = gass::methods::MakeSearchParams(
      static_cast<std::size_t>(flags.GetInt("k", 10)),
      static_cast<std::size_t>(flags.GetInt("beam", 100)), 48);

  // The update vectors: base rows with additive noise, so inserts land in
  // populated regions (and route non-trivially when sharded).
  gass::core::Rng rng(seed ^ 0x0BADF00DULL);
  std::vector<float> pending(updates * dim);
  for (std::size_t u = 0; u < updates; ++u) {
    const float* src = base.Row(rng.UniformInt(base.size()));
    for (std::size_t d = 0; d < dim; ++d) {
      pending[u * dim + d] = src[d] + rng.UniformFloat(-0.05F, 0.05F);
    }
  }

  std::vector<VectorId> inserted;
  std::vector<VectorId> deleted;
  std::uint64_t search_full = 0, search_other = 0;
  const std::size_t search_every =
      static_cast<std::size_t>(flags.GetInt("search-every", 4));
  std::uint64_t expected_sequence = 0;
  std::size_t expected_next_id = base.size();
  double elapsed = 0.0;
  {
    gass::serve::FrontendOptions fe_options;
    fe_options.threads = static_cast<std::size_t>(flags.GetInt("threads", 0));
    fe_options.queue_capacity =
        static_cast<std::size_t>(flags.GetInt("queue", 64));
    fe_options.seed = seed;
    fe_options.trace = TraceOptionsFromFlags(flags);
    gass::serve::Frontend frontend(*updater, fe_options);

    std::vector<gass::serve::Frontend::Ticket> search_tickets;
    const Clock::time_point start = Clock::now();
    for (std::size_t u = 0; u < updates; ++u) {
      // Closed-loop updates: each ticket is resolved before the next is
      // admitted, so the measured rate includes the full ack latency
      // (queue + WAL append + fsync + apply).
      gass::serve::UpdateResult result =
          frontend.SubmitInsert(pending.data() + u * dim, dim).get();
      if (!result.status.ok()) {
        std::fprintf(stderr, "error: insert %zu: %s\n", u,
                     result.status.message().c_str());
        return 1;
      }
      inserted.push_back(result.id);
      if (delete_fraction > 0 && rng.UniformDouble() < delete_fraction) {
        const VectorId victim =
            inserted[rng.UniformInt(inserted.size())];
        gass::serve::UpdateResult del = frontend.SubmitDelete(victim).get();
        if (del.status.ok()) deleted.push_back(victim);
        // Already-deleted victims report InvalidArgument; that is the
        // expected outcome of random victim picking, not an error.
      }
      if (queries.size() > 0 && search_every > 0 && u % search_every == 0) {
        const std::size_t q = rng.UniformInt(queries.size());
        search_tickets.push_back(frontend.Submit(
            queries.data() + q * queries.dim(), queries.dim(), params));
      }
    }
    for (auto& ticket : search_tickets) {
      if (ticket.get().outcome == gass::methods::ServeOutcome::kFull) {
        ++search_full;
      } else {
        ++search_other;
      }
    }
    frontend.Drain();
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    expected_sequence = updater->last_sequence();
    expected_next_id = live->next_id();

    const gass::serve::ServeMetrics& metrics = frontend.metrics();
    std::printf("\n%zu inserts + %zu deletes in %.3fs  (%.0f acked "
                "updates/s)\n",
                inserted.size(), deleted.size(), elapsed,
                elapsed > 0 ? static_cast<double>(inserted.size() +
                                                  deleted.size()) /
                                  elapsed
                            : 0.0);
    std::printf("wal bytes %llu  checkpoints %llu  last sequence %llu\n",
                static_cast<unsigned long long>(metrics.wal_bytes_written()),
                static_cast<unsigned long long>(metrics.checkpoints()),
                static_cast<unsigned long long>(expected_sequence));
    if (search_full + search_other > 0) {
      std::printf("concurrent searches: %llu full, %llu degraded/shed\n",
                  static_cast<unsigned long long>(search_full),
                  static_cast<unsigned long long>(search_other));
    }
    if (frontend.tracer().enabled()) {
      const int rc = ReportTraces(flags, frontend.metrics(),
                                  frontend.tracer());
      if (rc != 0) return rc;
    }
    // Frontend and updater close here; the recovery below sees exactly
    // what a crashed process would have left on disk (plus clean fsyncs).
  }
  updater.reset();
  live.reset();

  // Recovery: reopen from checkpoint + WALs and spot-check the result.
  gass::io::OpenLiveIndexOptions open_options;
  open_options.updater = up_options;
  open_options.hnsw = hnsw_options;
  open_options.sharded = sharded_options;
  std::unique_ptr<gass::serve::LiveIndex> recovered;
  std::unique_ptr<gass::serve::Updater> reopened;
  gass::serve::RecoveryReport report;
  status = gass::io::OpenLiveIndex(base, open_options, &recovered, &reopened,
                                   &report);
  if (!status.ok()) return Fail(status);
  std::printf("\nrecovery: watermark %llu, %llu replayed, %llu skipped, "
              "%u torn tail%s\n",
              static_cast<unsigned long long>(report.watermark),
              static_cast<unsigned long long>(report.records_applied),
              static_cast<unsigned long long>(report.records_skipped),
              report.torn_tails, report.torn_tails == 1 ? "" : "s");
  if (recovered->next_id() != expected_next_id ||
      reopened->last_sequence() != expected_sequence) {
    std::fprintf(stderr,
                 "error: recovered next_id %zu / sequence %llu, expected "
                 "%zu / %llu\n",
                 recovered->next_id(),
                 static_cast<unsigned long long>(reopened->last_sequence()),
                 expected_next_id,
                 static_cast<unsigned long long>(expected_sequence));
    return 1;
  }
  // Self-retrieval spot check: an acknowledged, undeleted insert queried
  // by its own vector must come back; a deleted one must not.
  std::size_t checked = 0, found = 0, dead_ok = 0, dead_total = 0;
  const std::size_t sample = std::min<std::size_t>(64, inserted.size());
  for (std::size_t i = 0; i < sample; ++i) {
    const VectorId id = inserted[i * inserted.size() / sample];
    const float* vec = pending.data() + (id - base.size()) * dim;
    gass::methods::SearchParams check = params;
    check.tombstones = &reopened->tombstones();
    const gass::methods::SearchResult result =
        recovered->MutableSearchIndex()->Search(vec, check);
    bool present = false;
    for (const auto& nb : result.neighbors) present |= nb.id == id;
    if (reopened->tombstones().Contains(id)) {
      ++dead_total;
      if (!present) ++dead_ok;
    } else {
      ++checked;
      if (present) ++found;
    }
  }
  std::printf("verify: %zu/%zu live inserts self-retrieved, %zu/%zu "
              "deletes absent\n",
              found, checked, dead_ok, dead_total);
  return found == checked && dead_ok == dead_total ? 0 : 1;
}

int CmdMethods() {
  for (const std::string& name : gass::methods::AllMethodNames()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: gass_cli "
               "<gen|gt|build|eval|complexity|serve-bench|update-bench|"
               "methods> [--flag value ...]\n"
               "see the header of tools/gass_cli.cc for full flag lists\n");
}

// Per-command flag tables for strict validation (tools/arg_parse.h): a
// flag not listed here, or a non-numeric value to a kInt/kFloat flag, is
// a named error at startup — never a silently ignored typo.

const std::vector<ArgSpec> kShardingSpecs = {
    {"method", ArgKind::kString},      {"seed", ArgKind::kInt},
    {"shards", ArgKind::kInt},         {"partitioner", ArgKind::kString},
    {"nprobe", ArgKind::kInt},         {"build-threads", ArgKind::kInt},
    {"fanout-threads", ArgKind::kInt}, {"replicas", ArgKind::kInt},
};

std::vector<ArgSpec> WithSharding(std::initializer_list<ArgSpec> extra) {
  std::vector<ArgSpec> specs = kShardingSpecs;
  specs.insert(specs.end(), extra.begin(), extra.end());
  return specs;
}

std::vector<ArgSpec> CommandSpecs(const std::string& command) {
  if (command == "gen") {
    return {{"dataset", ArgKind::kString}, {"n", ArgKind::kInt},
            {"seed", ArgKind::kInt},       {"out", ArgKind::kString},
            {"queries", ArgKind::kInt},    {"queries-out", ArgKind::kString}};
  }
  if (command == "gt") {
    return {{"base", ArgKind::kString},
            {"queries", ArgKind::kString},
            {"k", ArgKind::kInt},
            {"out", ArgKind::kString}};
  }
  if (command == "build") {
    return WithSharding({{"base", ArgKind::kString},
                         {"graph", ArgKind::kString},
                         {"save", ArgKind::kString}});
  }
  if (command == "eval") {
    return WithSharding({{"base", ArgKind::kString},
                         {"queries", ArgKind::kString},
                         {"truth", ArgKind::kString},
                         {"k", ArgKind::kInt},
                         {"beams", ArgKind::kIntList},
                         {"search-params", ArgKind::kString},
                         {"load", ArgKind::kString}});
  }
  if (command == "complexity") {
    return {{"base", ArgKind::kString},
            {"k", ArgKind::kInt},
            {"sample", ArgKind::kInt}};
  }
  if (command == "serve-bench") {
    return WithSharding({
        {"base", ArgKind::kString},
        {"queries", ArgKind::kString},
        {"k", ArgKind::kInt},
        {"beam", ArgKind::kInt},
        {"threads", ArgKind::kIntList},
        {"reps", ArgKind::kInt},
        {"timeout-ms", ArgKind::kFloat},
        {"search-params", ArgKind::kString},
        {"load", ArgKind::kString},
        {"trace", ArgKind::kInt},
        {"trace-out", ArgKind::kString},
        {"metrics-out", ArgKind::kString},
        {"arrival", ArgKind::kString},
        {"rate", ArgKind::kFloat},
        {"num-arrivals", ArgKind::kInt},
        {"queue", ArgKind::kInt},
        {"deadline-ms", ArgKind::kFloat},
        {"retries", ArgKind::kInt},
        {"breaker-threshold", ArgKind::kInt},
        {"breaker-probe", ArgKind::kInt},
        {"hedge", ArgKind::kFloat},
        {"shard-fault-shard", ArgKind::kInt},
        {"shard-fault-replica", ArgKind::kInt},
        {"shard-fault-fail-period", ArgKind::kInt},
        {"shard-fault-slow-period", ArgKind::kInt},
        {"shard-fault-slow-ms", ArgKind::kFloat},
        {"shard-fault-slow-attempts", ArgKind::kInt},
        {"shard-fault-reload-corrupt", ArgKind::kInt},
        {"scrub-every", ArgKind::kInt},
    });
  }
  if (command == "update-bench") {
    return {{"base", ArgKind::kString},
            {"queries", ArgKind::kString},
            {"wal-dir", ArgKind::kString},
            {"updates", ArgKind::kInt},
            {"delete-fraction", ArgKind::kFloat},
            {"shards", ArgKind::kInt},
            {"reserve", ArgKind::kInt},
            {"wal-name", ArgKind::kString},
            {"wal-fsync", ArgKind::kString},
            {"wal-fsync-n", ArgKind::kInt},
            {"wal-fsync-interval-ms", ArgKind::kInt},
            {"checkpoint-every", ArgKind::kInt},
            {"search-every", ArgKind::kInt},
            {"k", ArgKind::kInt},
            {"beam", ArgKind::kInt},
            {"threads", ArgKind::kInt},
            {"queue", ArgKind::kInt},
            {"seed", ArgKind::kInt},
            {"nprobe", ArgKind::kInt},
            {"replicas", ArgKind::kInt},
            {"trace", ArgKind::kInt},
            {"trace-out", ArgKind::kString},
            {"metrics-out", ArgKind::kString}};
  }
  return {};  // "methods" (and unknown commands) take no flags.
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 1;
  }
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  if (!flags.ok() || !flags.Restrict(CommandSpecs(command))) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return 1;
  }
  if (command == "gen") return CmdGen(flags);
  if (command == "gt") return CmdGroundTruth(flags);
  if (command == "build") return CmdBuild(flags);
  if (command == "eval") return CmdEval(flags);
  if (command == "complexity") return CmdComplexity(flags);
  if (command == "serve-bench") return CmdServeBench(flags);
  if (command == "update-bench") return CmdUpdateBench(flags);
  if (command == "methods") return CmdMethods();
  Usage();
  return 1;
}
