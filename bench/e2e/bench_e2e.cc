// End-to-end serving benchmark with per-layer attribution.
//
// One process runs one workload through the public serving API
// (serve::Frontend over a built or reopened index) and prints every metric
// as a `name value unit` line, writes BENCH_<workload>.json, and ends with
// one JSON result line. Workloads (bench/e2e/README.md says why each one):
//
//   seismic-hnsw      Seismic proxy (hard, high LID), one HNSW, one
//                     closed-loop client, one frontend worker.
//   deep-sharded      Deep proxy, ShardedIndex K=4 R=2 probing every shard
//                     on a 2-thread fan-out pool; one closed-loop client.
//   deep-live         Deep proxy in a LiveShardedIndex behind an Updater:
//                     a paced writer (9 inserts : 1 delete, WAL fsync per
//                     record, periodic checkpoints) beside a closed-loop
//                     searcher; then a final pass, shutdown, and recovery.
//
// Every run: seeded inputs -> timed set-up (median of several) -> one
// untimed warm-up pass over the queries (exact work counters and recall
// come from it) -> the measured phase of --seconds -> correctness gates ->
// save + timed restart. With --trace 1 the restarted index then serves
// Scale::traced_ops operations untraced and the same again traced at sample
// period 1; per-layer times come from the obs::Tracer spans, which are also
// written with obs::Exporter::WriteJson.
//
// Usage (normally through bench/e2e/run.sh):
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--out DIR] [--baseline DIR] [--git-sha SHA]
//   bench_e2e --smoke 1      every workload at tiny scale, gates on
//
// Exit status: 0 when every correctness gate passed, 1 otherwise.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "arg_parse.h"
#include "core/rng.h"
#include "core/simd/simd.h"
#include "eval/ground_truth.h"
#include "eval/recall.h"
#include "io/open_index.h"
#include "io/wal.h"
#include "methods/factory.h"
#include "obs/exporter.h"
#include "serve/frontend.h"
#include "shard/live_sharded_index.h"
#include "shard/sharded_index.h"
#include "synth/generators.h"
#include "synth/workloads.h"

namespace gass::bench {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// The metric names the final result line carries, in BENCHMARK.json order.
// End-to-end metrics come from the untraced phase of every run; per-layer
// metrics are printed when the run is traced.
const std::vector<std::string> kEndToEnd = {
    "best_p50_us", "best_p99_us", "recall_at_10", "setup_s", "index_mib"};
const std::vector<std::string> kPerLayer = {
    "core.distances_per_query", "core.hops_per_query",
    "core.kernel_ns_per_distance", "core.kernel_share",
    "core.traversal_ns_per_hop", "methods.search_us",
    "methods.build_distances", "shard.probes_per_query", "shard.route_share",
    "shard.dispatch_wait_share", "shard.merge_share",
    "shard.coord_self_share", "shard.partition_share", "serve.queue_us",
    "serve.session_us", "serve.response_wake_us",
    "serve.short_results_frac", "serve.update_queue_share",
    "serve.wal_append_share", "serve.apply_share", "io.wal_bytes_per_update",
    "io.replay_records", "io.save_ms", "io.snapshot_mib", "io.restart_s",
    "obs.trace_overhead", "obs.span_coverage"};

const std::vector<std::string> kWorkloads = {"seismic-hnsw", "deep-sharded",
                                             "deep-live"};

constexpr std::size_t kK = 10;
// Beam widths: recall@10 ~0.97 on the Seismic proxy (unsaturated, so
// quality changes show), ~1.0 on the easier Deep proxy.
constexpr std::size_t kSeismicBeam = 96;
constexpr std::size_t kDeepBeam = 64;
// Set-up and restart are each timed at least kSetupReps times (more for
// cheap ones, see MedianSeconds); the median is kept.
constexpr int kSetupReps = 3;
constexpr int kSetupMaxReps = 25;
constexpr double kSetupMinSeconds = 1.0;
// A recall more than this far below the committed baseline fails the run.
constexpr double kRecallSlack = 0.05;
constexpr double kMinSpanCoverage = 0.95;
constexpr std::size_t kSelfRetrievalSamples = 64;

struct Config {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 25.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string baseline_dir;
  std::string git_sha = "unknown";
};

// Input sizes. Full scale is what BENCHMARK.json runs; smoke shrinks every
// workload so all of them finish in a few seconds.
struct Scale {
  std::size_t seismic_base = 12000;
  std::size_t deep_sharded_base = 40000;
  std::size_t live_base = 30000;
  std::size_t queries = 1000;
  std::size_t traced_ops = 5000;
  // deep-live writer pace and checkpoint interval (in writer ops), and the
  // writer ops of its traced phase.
  double update_rate = 200.0;
  std::size_t checkpoint_every = 600;
  std::size_t traced_updates = 200;
};

Scale SmokeScale() {
  Scale scale;
  scale.seismic_base = 2000;
  scale.deep_sharded_base = 2000;
  scale.live_base = 2000;
  scale.queries = 200;
  scale.traced_ops = 200;
  scale.update_rate = 1000.0;
  scale.checkpoint_every = 200;
  scale.traced_updates = 100;
  return scale;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Micros(Clock::duration d) { return Seconds(d) * 1e6; }

// Waits for `due`: sleeps until shortly before it, then spins, so a paced
// generator is not late by the wake-up latency of a sleeping thread.
void WaitUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(200));
  while (Clock::now() < due) {
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile of an unsorted sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[rank - 1];
}

double Mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Results and gates
// ---------------------------------------------------------------------------

struct MetricValue {
  double value = 0.0;
  std::string unit;
  // Latency percentiles: how many samples the percentile was taken over.
  std::uint64_t samples = 0;
  // Deterministic work counter: must repeat bit-for-bit at an equal seed.
  bool exact = false;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           bool exact = false, std::uint64_t samples = 0) {
    if (metrics_.count(name) == 0) order_.push_back(name);
    metrics_[name] = MetricValue{value, unit, samples, exact};
  }

  /// A correctness gate: a false `ok` fails the run (nonzero exit).
  void Check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }

  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  const MetricValue& Get(const std::string& name) const {
    return metrics_.at(name);
  }
  const std::vector<std::string>& order() const { return order_; }
  const std::vector<std::string>& failures() const { return failures_; }
  bool ok() const { return failures_.empty(); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  std::map<std::string, MetricValue> metrics_;
  std::vector<std::string> order_;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Latency samples
// ---------------------------------------------------------------------------

struct Sample {
  std::uint32_t query = 0;  // Query row.
  double latency_us = 0.0;
};

double P50(const std::vector<Sample>& samples) {
  std::vector<double> latency;
  latency.reserve(samples.size());
  for (const Sample& s : samples) latency.push_back(s.latency_us);
  return Quantile(latency, 0.5);
}

// Latency of the measured phase. Every query runs many times in it, and
// best_p50_us / best_p99_us are percentiles over the queries of each
// query's fastest round trip. The host is shared, and other tenants only
// ever add time to a round trip, so the fastest of a query's runs is the
// program's own cost; a slow minute on the host moves it far less than it
// moves the plain percentiles (p50_us, p99_us over every sample), which the
// BENCH file keeps beside qps.
void SetLatency(Report* report, const std::vector<Sample>& samples,
                double phase_seconds, std::size_t num_queries) {
  std::vector<double> best(num_queries, -1.0);
  for (const Sample& s : samples) {
    double& b = best[s.query];
    if (b < 0 || s.latency_us < b) b = s.latency_us;
  }
  best.erase(std::remove(best.begin(), best.end(), -1.0), best.end());
  report->Set("best_p50_us", Quantile(best, 0.50), "us", false, best.size());
  report->Set("best_p99_us", Quantile(best, 0.99), "us", false, best.size());
  std::vector<double> all;
  all.reserve(samples.size());
  for (const Sample& s : samples) all.push_back(s.latency_us);
  report->Set("qps",
              phase_seconds > 0
                  ? static_cast<double>(samples.size()) / phase_seconds
                  : 0,
              "1/s", false, samples.size());
  report->Set("p50_us", Quantile(all, 0.50), "us", false, all.size());
  report->Set("p99_us", Quantile(all, 0.99), "us", false, all.size());
}

// ---------------------------------------------------------------------------
// Span attribution
// ---------------------------------------------------------------------------

double UnionNs(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0, end = -1.0;
  for (const auto& [lo, hi] : intervals) {
    if (lo > end) {
      covered += hi - lo;
      end = hi;
    } else if (hi > end) {
      covered += hi - end;
      end = hi;
    }
  }
  return covered;
}

// Per-layer time of traced searches, summed over traces. The index-level
// time is the `search` span (unsharded) or route start -> merge end
// (sharded); the leaf time is what the graph searches themselves took.
// Coverage counts the top-level intervals: queue, session, and the
// index-level interval (whose gaps are the coordinator's self time).
struct SearchSpans {
  std::uint64_t traces = 0;
  double client_ns = 0, total_ns = 0, covered_ns = 0;
  double queue_ns = 0, session_ns = 0, index_ns = 0, leaf_ns = 0;
  double route_ns = 0, dispatch_wait_ns = 0, merge_ns = 0;
  double subsearch_ns = 0, coord_self_ns = 0;
  double leaf_distances = 0, leaf_hops = 0, probes = 0;
  std::vector<double> client_us;

  void Add(const obs::QueryTrace& trace, double client_latency_ns) {
    std::vector<std::pair<double, double>> top, subs;
    double route_start = -1, route_end = 0, route_dur = 0;
    double merge_end = 0, merge_dur = 0, first_sub = -1;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const obs::TraceSpan& span = trace.span(i);
      const double start = static_cast<double>(span.start_ns);
      const double dur = static_cast<double>(span.duration_ns);
      switch (span.stage) {
        case obs::Stage::kQueue:
        case obs::Stage::kSession:
          top.emplace_back(start, start + dur);
          (span.stage == obs::Stage::kQueue ? queue_ns : session_ns) += dur;
          break;
        case obs::Stage::kSearch:
          top.emplace_back(start, start + dur);
          index_ns += dur;
          leaf_ns += dur;
          leaf_distances += static_cast<double>(span.distance_computations);
          leaf_hops += static_cast<double>(span.hops);
          break;
        case obs::Stage::kRoute:
          route_start = start;
          route_end = start + dur;
          route_dur = dur;
          break;
        case obs::Stage::kShardSearch:
          leaf_ns += dur;
          subsearch_ns += dur;
          leaf_distances += static_cast<double>(span.distance_computations);
          leaf_hops += static_cast<double>(span.hops);
          probes += 1;
          subs.emplace_back(start, start + dur);
          if (first_sub < 0 || start < first_sub) first_sub = start;
          break;
        case obs::Stage::kMerge:
          merge_end = start + dur;
          merge_dur = dur;
          break;
        default: break;
      }
    }
    if (route_start >= 0) {
      const double index = merge_end - route_start;
      top.emplace_back(route_start, merge_end);
      index_ns += index;
      route_ns += route_dur;
      merge_ns += merge_dur;
      if (first_sub >= 0) dispatch_wait_ns += first_sub - route_end;
      coord_self_ns += index - route_dur - merge_dur - UnionNs(subs);
    }
    covered_ns += UnionNs(top);
    total_ns += static_cast<double>(trace.total_ns());
    client_ns += client_latency_ns;
    client_us.push_back(client_latency_ns * 1e-3);
    ++traces;
  }
};

// Traced live updates: queue wait, WAL append (+fsync) and in-memory apply.
struct UpdateSpans {
  std::uint64_t traces = 0;
  double queue_ns = 0, wal_ns = 0, apply_ns = 0;

  void AddFrom(const obs::Tracer& tracer) {
    for (const obs::QueryTrace* trace : tracer.Completed()) {
      double queue = 0, wal = 0, apply = 0;
      bool update = false;
      for (std::size_t i = 0; i < trace->size(); ++i) {
        const obs::TraceSpan& span = trace->span(i);
        const double dur = static_cast<double>(span.duration_ns);
        if (span.stage == obs::Stage::kQueue) queue += dur;
        if (span.stage == obs::Stage::kWalAppend) wal += dur, update = true;
        if (span.stage == obs::Stage::kApply) apply += dur, update = true;
      }
      if (!update) continue;
      queue_ns += queue;
      wal_ns += wal;
      apply_ns += apply;
      ++traces;
    }
  }
};

// Times ActiveKernels().l2sq_batch over 32-row gathers of random base rows,
// the access pattern beam search's batched neighbour scoring has.
double KernelNsPerDistance(const core::Dataset& base, std::uint64_t seed) {
  const core::simd::DistanceKernels& kernels = core::simd::ActiveKernels();
  constexpr std::size_t kBatch = 32, kGathers = 64;
  core::Rng rng(seed ^ 0x6B65726E656CULL);
  std::vector<const float*> rows(kBatch * kGathers);
  for (const float*& row : rows) {
    row = base.Row(static_cast<core::VectorId>(rng.UniformInt(base.size())));
  }
  const float* query =
      base.Row(static_cast<core::VectorId>(rng.UniformInt(base.size())));
  float out[kBatch];
  // Volatile, so every kernel result is observed and no call is elided.
  volatile float sink = 0.0f;
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t distances = 0;
    const Clock::time_point t0 = Clock::now();
    do {
      for (std::size_t g = 0; g < kGathers; ++g) {
        kernels.l2sq_batch(query, rows.data() + g * kBatch, kBatch, base.dim(),
                           out);
        sink = sink + out[g % kBatch];
      }
      distances += kBatch * kGathers;
    } while (Seconds(Clock::now() - t0) < 0.04);
    reps.push_back(Seconds(Clock::now() - t0) * 1e9 /
                   static_cast<double>(distances));
  }
  return Median(reps);
}

// Per-layer metrics shared by every workload's traced phase.
void SetSpanMetrics(Report* report, const SearchSpans& spans,
                    double kernel_ns, double untraced_p50_us) {
  const double n = spans.traces > 0 ? static_cast<double>(spans.traces) : 1;
  const double client = spans.client_ns > 0 ? spans.client_ns : 1;
  const double leaf_per_query = spans.leaf_ns / n;
  const double dist_per_query = spans.leaf_distances / n;
  const double hops_per_query = spans.leaf_hops / n;
  const double kernel_per_query = dist_per_query * kernel_ns;
  report->Set("core.kernel_ns_per_distance", kernel_ns, "ns");
  report->Set("core.kernel_share",
              leaf_per_query > 0 ? kernel_per_query / leaf_per_query : 0,
              "ratio");
  report->Set("core.traversal_ns_per_hop",
              hops_per_query > 0
                  ? (leaf_per_query - kernel_per_query) / hops_per_query
                  : 0,
              "ns");
  report->Set("methods.search_us", spans.index_ns / n * 1e-3, "us");
  report->Set("serve.queue_us", spans.queue_ns / n * 1e-3, "us");
  report->Set("serve.session_us", spans.session_ns / n * 1e-3, "us");
  report->Set("serve.response_wake_us",
              (spans.client_ns - spans.total_ns) / n * 1e-3, "us");
  report->Set("shard.route_share", spans.route_ns / client, "ratio");
  report->Set("shard.dispatch_wait_share", spans.dispatch_wait_ns / client,
              "ratio");
  report->Set("shard.merge_share", spans.merge_ns / client, "ratio");
  report->Set("shard.coord_self_share", spans.coord_self_ns / client,
              "ratio");
  // Absolute shard times, for the BENCH file (zero on unsharded indexes).
  report->Set("shard.route_us", spans.route_ns / n * 1e-3, "us");
  report->Set("shard.subsearch_us",
              spans.probes > 0 ? spans.subsearch_ns / spans.probes * 1e-3 : 0,
              "us");
  report->Set("shard.merge_us", spans.merge_ns / n * 1e-3, "us");
  report->Set("shard.dispatch_wait_us", spans.dispatch_wait_ns / n * 1e-3,
              "us");
  report->Set("shard.coord_self_us", spans.coord_self_ns / n * 1e-3, "us");
  const double traced_p50 = Quantile(spans.client_us, 0.5);
  report->Set("obs.traced_p50_us", traced_p50, "us", false, spans.traces);
  report->Set("obs.trace_overhead",
              untraced_p50_us > 0 ? traced_p50 / untraced_p50_us - 1.0 : 0,
              "ratio");
  const double coverage =
      spans.total_ns > 0 ? spans.covered_ns / spans.total_ns : 0;
  report->Set("obs.span_coverage", coverage, "ratio");
  report->Set("obs.traces", static_cast<double>(spans.traces), "count");
  report->Check(spans.traces > 0, "traced phase recorded no traces");
  report->Check(coverage >= kMinSpanCoverage,
                "span coverage below " + std::to_string(kMinSpanCoverage));
}

void SetUpdateShares(Report* report, const UpdateSpans& spans,
                     double mean_update_latency_ns) {
  const double denom = spans.traces > 0 && mean_update_latency_ns > 0
                           ? mean_update_latency_ns *
                                 static_cast<double>(spans.traces)
                           : 0;
  report->Set("serve.update_queue_share",
              denom > 0 ? spans.queue_ns / denom : 0, "ratio");
  report->Set("serve.wal_append_share", denom > 0 ? spans.wal_ns / denom : 0,
              "ratio");
  report->Set("serve.apply_share", denom > 0 ? spans.apply_ns / denom : 0,
              "ratio");
  const double n =
      spans.traces > 0 ? static_cast<double>(spans.traces) : 1.0;
  report->Set("serve.update_queue_us", spans.queue_ns / n * 1e-3, "us");
  report->Set("serve.wal_append_us", spans.wal_ns / n * 1e-3, "us");
  report->Set("serve.apply_us", spans.apply_ns / n * 1e-3, "us");
}

// Layers a workload does not have: their per-layer metrics read zero.
void SetAbsentUpdateLayer(Report* report) {
  for (const char* name :
       {"serve.update_queue_share", "serve.wal_append_share",
        "serve.apply_share"}) {
    report->Set(name, 0.0, "ratio");
  }
  report->Set("io.wal_bytes_per_update", 0.0, "B", true);
  report->Set("io.replay_records", 0.0, "count", true);
}

// Writes the traced phase's spans to <out>/trace_<workload>.json.
void ExportTraces(const Config& config, const obs::Tracer& tracer,
                  Report* report) {
  obs::Exporter exporter;
  exporter.AddTracer(tracer);
  const core::Status written = exporter.WriteJson(
      config.out_dir + "/trace_" + config.workload + ".json");
  report->Check(written.ok(), "trace export: " + written.message());
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

struct Inputs {
  core::Dataset base;     // Indexed rows (deep-live: base + insert pool).
  core::Dataset queries;  // Held-out queries, one pass.
  std::vector<std::uint32_t> order;  // Seeded query order of a pass.
};

Inputs MakeInputs(const std::string& proxy, std::size_t rows,
                  std::size_t queries, std::uint64_t seed) {
  Inputs in;
  synth::HoldOutSplit split = synth::SplitHoldOut(
      synth::MakeDatasetProxy(proxy, rows + queries, seed), queries,
      seed ^ 0x51EC7ULL);
  in.base = std::move(split.base);
  in.queries = std::move(split.queries);
  in.order.resize(in.queries.size());
  for (std::uint32_t i = 0; i < in.order.size(); ++i) in.order[i] = i;
  core::Rng rng(seed ^ 0x0DE7ULL);
  for (std::size_t i = in.order.size(); i > 1; --i) {
    std::swap(in.order[i - 1], in.order[rng.UniformInt(i)]);
  }
  return in;
}

serve::SearchRequest Request(const Inputs& in, std::size_t position,
                             const methods::SearchParams& params) {
  const std::size_t nq = in.order.size();
  serve::SearchRequest request;
  request.query = in.queries.Row(in.order[position % nq]);
  request.dim = in.queries.dim();
  request.params = params;
  // Explicit ids: query at pass position p always runs as admission id p,
  // so its RNG stream, answers and work counters repeat across passes.
  request.admission_id = position % nq;
  return request;
}

// One closed-loop pass over the queries (warm-up, final pass). Answers are
// indexed by query row.
struct PassResult {
  std::vector<std::vector<core::Neighbor>> answers;
  double distances = 0, hops = 0, probes = 0;
  std::size_t short_results = 0;
  std::size_t not_full = 0;
};

PassResult RunPass(serve::Frontend& frontend, const Inputs& in,
                   const methods::SearchParams& params) {
  PassResult pass;
  pass.answers.resize(in.queries.size());
  for (std::size_t p = 0; p < in.order.size(); ++p) {
    serve::SearchResponse response = frontend.Search(Request(in, p, params));
    if (response.outcome != methods::ServeOutcome::kFull) ++pass.not_full;
    if (response.neighbors.size() < params.k) ++pass.short_results;
    pass.distances += static_cast<double>(response.stats.distance_computations);
    pass.hops += static_cast<double>(response.stats.hops);
    pass.probes += static_cast<double>(response.stats.shards_probed);
    pass.answers[in.order[p]] = std::move(response.neighbors);
  }
  return pass;
}

bool SameIds(const std::vector<core::Neighbor>& a,
             const std::vector<core::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id) return false;
  }
  return true;
}

// Closed-loop client: sends the next query as soon as the previous answer
// arrives, until `seconds` pass, `max_ops` complete, or `*stop` is set.
struct LoopResult {
  std::vector<Sample> samples;
  std::vector<double> gaps_us;  // Response -> next submit (client lateness).
  std::uint64_t attempted = 0;
  std::uint64_t not_full = 0;
  std::uint64_t mismatched = 0;
  double seconds = 0.0;
};

LoopResult RunClosedLoop(serve::Frontend& frontend, const Inputs& in,
                         const methods::SearchParams& params, double seconds,
                         std::size_t max_ops, const std::atomic<bool>* stop,
                         const PassResult* expect, SearchSpans* spans) {
  LoopResult loop;
  const Clock::time_point start = Clock::now();
  Clock::time_point last_done = start;
  for (std::size_t i = 0; i < max_ops; ++i) {
    const serve::SearchRequest request = Request(in, i, params);
    const Clock::time_point t0 = Clock::now();
    if (i > 0) loop.gaps_us.push_back(Micros(t0 - last_done));
    serve::SearchResponse response = frontend.Search(request);
    const Clock::time_point t1 = Clock::now();
    last_done = t1;
    ++loop.attempted;
    if (response.outcome != methods::ServeOutcome::kFull) {
      ++loop.not_full;
    } else {
      loop.samples.push_back(
          {in.order[i % in.order.size()], Micros(t1 - t0)});
    }
    if (expect != nullptr &&
        !SameIds(response.neighbors,
                 expect->answers[in.order[i % in.order.size()]])) {
      ++loop.mismatched;
    }
    if (spans != nullptr && response.trace != nullptr) {
      spans->Add(*response.trace, Micros(t1 - t0) * 1e3);
    }
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
    if (seconds > 0 && Seconds(t1 - start) >= seconds) break;
  }
  loop.seconds = Seconds(last_done - start);
  return loop;
}

serve::FrontendOptions FrontendFor(std::size_t threads, std::uint64_t seed,
                                   std::size_t traced_ops) {
  serve::FrontendOptions options;
  options.threads = threads;
  options.seed = seed;
  if (traced_ops > 0) {
    options.trace.sample_period = 1;
    options.trace.max_traces = traced_ops;
  }
  return options;
}

// Reads `"<metric>": {... "median": X` from a BENCH file this driver wrote.
bool ReadBaselineMedian(const std::string& path, const std::string& metric,
                        double* out) {
  std::ifstream file(path);
  if (!file) return false;
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();
  const std::size_t at = text.find("\"" + metric + "\"");
  if (at == std::string::npos) return false;
  const std::string key = "\"median\":";
  const std::size_t m = text.find(key, at);
  if (m == std::string::npos) return false;
  *out = std::strtod(text.c_str() + m + key.size(), nullptr);
  return true;
}

void CheckRecall(Report* report, const Config& config, double recall) {
  report->Check(recall > 0.5, "recall@10 below 0.5");
  if (config.baseline_dir.empty()) return;
  double baseline = 0.0;
  const std::string path =
      config.baseline_dir + "/BENCH_" + config.workload + ".json";
  if (!ReadBaselineMedian(path, "recall_at_10", &baseline)) {
    std::fprintf(stderr, "note: no baseline recall in %s\n", path.c_str());
    return;
  }
  report->Check(recall >= baseline - kRecallSlack,
                "recall@10 more than 0.05 below the committed baseline");
}

// Times `step` at least kSetupReps times, and more while the reps so far
// took under kSetupMinSeconds (cheap steps such as a snapshot load), up to
// kSetupMaxReps; returns the median seconds.
double MedianSeconds(const std::function<void(int)>& step) {
  std::vector<double> times;
  double total = 0.0;
  for (int rep = 0; rep < kSetupMaxReps; ++rep) {
    if (rep >= kSetupReps && total >= kSetupMinSeconds) break;
    const Clock::time_point t0 = Clock::now();
    step(rep);
    times.push_back(Seconds(Clock::now() - t0));
    total += times.back();
  }
  return Median(times);
}

void SetWarmupCounters(Report* report, const PassResult& pass,
                       std::size_t nq) {
  const double n = static_cast<double>(nq);
  report->Set("core.distances_per_query", pass.distances / n, "count", true);
  report->Set("core.hops_per_query", pass.hops / n, "count", true);
  report->Set("shard.probes_per_query", pass.probes / n, "count", true);
}

// ---------------------------------------------------------------------------
// seismic-hnsw and deep-sharded: closed loop over a static index
// ---------------------------------------------------------------------------

struct StaticSpec {
  std::string proxy;
  std::size_t base_rows = 0;
  std::size_t beam = 0;
  bool sharded = false;
};

shard::ShardedIndexOptions ShardedOptions() {
  shard::ShardedIndexOptions options;
  options.method = "hnsw";
  options.partitioner.num_shards = 4;
  // Probing every shard keeps recall free of routing loss, which varies
  // by several points from one data seed to the next at nprobe 2.
  options.nprobe = 4;
  options.replicas = 2;
  options.build_threads = 2;
  options.fanout_threads = 2;
  options.seed = 42;
  return options;
}

io::OpenIndexOptions ShardedOpenOptions() {
  const shard::ShardedIndexOptions sharded = ShardedOptions();
  io::OpenIndexOptions options;
  options.seed = sharded.seed;
  options.nprobe = sharded.nprobe;
  options.fanout_threads = sharded.fanout_threads;
  options.replicas = sharded.replicas;
  return options;
}

void RunStatic(const Config& config, const Scale& scale,
               const StaticSpec& spec, const std::string& work_dir,
               Report* report) {
  const Inputs in =
      MakeInputs(spec.proxy, spec.base_rows, scale.queries, config.seed);
  const eval::GroundTruth truth =
      eval::BruteForceKnn(in.base, in.queries, kK, 4);
  methods::SearchParams params;
  params.k = kK;
  params.beam_width = spec.beam;

  std::unique_ptr<methods::GraphIndex> index;
  methods::BuildStats build;
  double partition_seconds = 0.0;
  const double setup = MedianSeconds([&](int rep) {
    std::unique_ptr<methods::GraphIndex> built;
    if (spec.sharded) {
      built = std::make_unique<shard::ShardedIndex>(ShardedOptions());
    } else {
      built = methods::CreateIndex("hnsw", 42);
    }
    const methods::BuildStats stats = built->Build(in.base);
    if (rep == 0) {
      build = stats;
      if (spec.sharded) {
        partition_seconds =
            static_cast<const shard::ShardedIndex&>(*built).partition_seconds();
      }
      index = std::move(built);
    }
  });
  report->Set("setup_s", setup, "s");
  report->Set("methods.build_distances",
              static_cast<double>(build.distance_computations), "count", true);
  report->Set("shard.partition_share",
              build.elapsed_seconds > 0
                  ? partition_seconds / build.elapsed_seconds
                  : 0,
              "ratio");

  LoopResult loop;
  PassResult warm;
  {
    serve::Frontend frontend(*index, FrontendFor(1, config.seed, 0));
    warm = RunPass(frontend, in, params);
    loop = RunClosedLoop(frontend, in, params, config.seconds, SIZE_MAX,
                         nullptr, &warm, nullptr);
  }
  const double recall = eval::MeanRecall(warm.answers, truth, kK);
  report->Set("recall_at_10", recall, "ratio", true);
  SetWarmupCounters(report, warm, in.queries.size());
  SetLatency(report, loop.samples, loop.seconds, in.queries.size());
  report->Set("index_mib", Mib(index->IndexBytes()), "MiB", true);
  report->Set("loadgen.late_p99_us", Quantile(loop.gaps_us, 0.99), "us",
              false, loop.gaps_us.size());
  report->Set("serve.short_results_frac",
              static_cast<double>(warm.short_results) /
                  static_cast<double>(in.queries.size()),
              "ratio");
  SetAbsentUpdateLayer(report);
  report->attempted = loop.attempted;
  report->failed = loop.not_full;
  report->Check(warm.not_full == 0, "warm-up pass had non-full answers");
  report->Check(loop.not_full == 0, "closed-loop search failed or degraded");
  report->Check(loop.mismatched == 0,
                "answers differ from the warm-up pass for the same query");
  report->Check(warm.short_results == 0, "a static index returned < k");
  CheckRecall(report, config, recall);

  // Save, then restart from the snapshot (the traced phase serves from it).
  const std::string snap_dir = work_dir + "/snapshot";
  fs::create_directories(snap_dir);
  const std::string path = snap_dir + "/index.gass";
  const Clock::time_point save0 = Clock::now();
  const core::Status saved = methods::SaveIndex(*index, path);
  report->Set("io.save_ms", Seconds(Clock::now() - save0) * 1e3, "ms");
  report->Check(saved.ok(), "SaveIndex: " + saved.message());
  report->Set("io.snapshot_mib", Mib(DirectoryBytes(snap_dir)), "MiB");
  index.reset();
  const io::OpenIndexOptions open_options =
      spec.sharded ? ShardedOpenOptions() : io::OpenIndexOptions{};
  std::unique_ptr<methods::GraphIndex> reopened;
  const double restart = MedianSeconds([&](int) {
    reopened.reset();
    const core::Status status =
        io::OpenIndex(path, in.base, open_options, &reopened);
    report->Check(status.ok(), "OpenIndex: " + status.message());
  });
  report->Set("io.restart_s", restart, "s");
  if (reopened == nullptr) return;

  const double kernel_ns = KernelNsPerDistance(in.base, config.seed);
  report->Set("core.kernel_ns_per_distance", kernel_ns, "ns");
  if (!config.trace) return;
  // The same operations untraced, then traced, on the restarted index.
  double untraced_p50 = 0.0;
  {
    serve::Frontend plain(*reopened, FrontendFor(1, config.seed, 0));
    const LoopResult plain_loop = RunClosedLoop(
        plain, in, params, 0.0, scale.traced_ops, nullptr, &warm, nullptr);
    report->Check(plain_loop.mismatched == 0,
                  "restarted index answers differ from the original");
    untraced_p50 = P50(plain_loop.samples);
  }
  SearchSpans spans;
  serve::Frontend traced(*reopened,
                         FrontendFor(1, config.seed, scale.traced_ops));
  const LoopResult traced_loop =
      RunClosedLoop(traced, in, params, 0.0, scale.traced_ops, nullptr, &warm,
                    &spans);
  report->Check(traced_loop.mismatched == 0,
                "traced answers differ from untraced ones");
  SetSpanMetrics(report, spans, kernel_ns, untraced_p50);
  ExportTraces(config, traced.tracer(), report);
}

// ---------------------------------------------------------------------------
// deep-live: paced writer + closed-loop searcher over a WAL-backed index
// ---------------------------------------------------------------------------

shard::LiveShardedOptions LiveOptions(std::size_t reserve) {
  shard::LiveShardedOptions options;
  options.num_shards = 2;
  options.nprobe = 2;
  options.reserve_per_shard = reserve;
  options.hnsw.seed = 42;
  options.seed = 42;
  return options;
}

// The seeded update stream: op i deletes a random live id when i % 10 == 9
// and otherwise inserts the next pool row. The writer tracks the live set
// itself, so every delete targets an id it knows to be live.
class UpdateStream {
 public:
  UpdateStream(const core::Dataset& rows, std::size_t base_n,
               std::uint64_t seed)
      : rows_(rows), base_n_(base_n), rng_(seed ^ 0x0BADF00DULL) {
    live_.resize(base_n);
    for (std::size_t i = 0; i < base_n; ++i) {
      live_[i] = static_cast<core::VectorId>(i);
    }
  }

  bool NextIsDelete() const { return ops_ % 10 == 9; }
  std::size_t ops() const { return ops_; }
  core::VectorId NextInsertId() const {
    return static_cast<core::VectorId>(base_n_ + inserted_);
  }
  const float* NextInsertRow() const {
    return rows_.Row(static_cast<core::VectorId>(base_n_ + inserted_));
  }
  core::VectorId PickVictim() {
    const std::size_t at = rng_.UniformInt(live_.size());
    const core::VectorId victim = live_[at];
    live_[at] = live_.back();
    live_.pop_back();
    deleted_.push_back(victim);
    return victim;
  }
  void Inserted(core::VectorId id) {
    live_.push_back(id);
    inserted_ids_.push_back(id);
    ++inserted_;
  }
  void Advance() { ++ops_; }

  const std::vector<core::VectorId>& live() const { return live_; }
  const std::vector<core::VectorId>& deleted() const { return deleted_; }
  const std::vector<core::VectorId>& inserted_ids() const {
    return inserted_ids_;
  }

 private:
  const core::Dataset& rows_;
  std::size_t base_n_;
  core::Rng rng_;
  std::vector<core::VectorId> live_;
  std::vector<core::VectorId> deleted_;
  std::vector<core::VectorId> inserted_ids_;
  std::size_t ops_ = 0;
  std::size_t inserted_ = 0;
};

struct WriterResult {
  std::vector<double> latency_us;
  std::vector<double> late_us;
  std::vector<double> checkpoint_ms;
  std::uint64_t acked = 0;
  std::uint64_t unacked = 0;
  std::uint64_t wrong_id = 0;
  std::uint64_t checkpoint_failures = 0;
  double seconds = 0.0;
};

// Paced writer: op i is due at i / rate; it is sent at its due time or
// when the previous op is acknowledged, whichever is later, so the op count
// and therefore the final live set are fixed by (seed, ops).
WriterResult RunWriter(serve::Frontend& frontend, serve::Updater& updater,
                       UpdateStream& stream, std::size_t ops, double rate,
                       std::size_t checkpoint_every) {
  WriterResult w;
  const std::size_t dim = updater.live()->dim();
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate));
    WaitUntil(due);
    const Clock::time_point t0 = Clock::now();
    w.late_us.push_back(Micros(t0 - due));
    serve::UpdateResult result;
    if (stream.NextIsDelete()) {
      const core::VectorId victim = stream.PickVictim();
      result = frontend.SubmitDelete(victim).get();
      if (result.status.ok() && result.id != victim) ++w.wrong_id;
    } else {
      const core::VectorId expect = stream.NextInsertId();
      result = frontend.SubmitInsert(stream.NextInsertRow(), dim).get();
      if (result.status.ok()) {
        if (result.id != expect) ++w.wrong_id;
        stream.Inserted(result.id);
      }
    }
    w.latency_us.push_back(Micros(Clock::now() - t0));
    stream.Advance();
    if (result.status.ok()) {
      ++w.acked;
    } else {
      ++w.unacked;
      std::fprintf(stderr, "update %zu: %s\n", i,
                   result.status.message().c_str());
    }
    if (checkpoint_every > 0 && stream.ops() % checkpoint_every == 0) {
      const Clock::time_point c0 = Clock::now();
      const core::Status status = updater.Checkpoint();
      w.checkpoint_ms.push_back(Seconds(Clock::now() - c0) * 1e3);
      if (!status.ok()) {
        ++w.checkpoint_failures;
        std::fprintf(stderr, "checkpoint: %s\n", status.message().c_str());
      }
    }
  }
  w.seconds = Seconds(Clock::now() - start);
  return w;
}

// Writer and searcher side by side; the searcher stops when the writer is
// done (or after `max_searches`).
struct MixedResult {
  WriterResult writer;
  LoopResult searcher;
};

MixedResult RunMixed(serve::Frontend& frontend, serve::Updater& updater,
                     UpdateStream& stream, const Inputs& in,
                     const methods::SearchParams& params, std::size_t ops,
                     double rate, std::size_t checkpoint_every,
                     std::size_t max_searches, SearchSpans* spans) {
  MixedResult mixed;
  std::atomic<bool> stop{false};
  std::thread searcher([&] {
    mixed.searcher = RunClosedLoop(frontend, in, params, 0.0, max_searches,
                                   &stop, nullptr, spans);
  });
  mixed.writer =
      RunWriter(frontend, updater, stream, ops, rate, checkpoint_every);
  stop.store(true, std::memory_order_relaxed);
  searcher.join();
  frontend.Drain();
  return mixed;
}

void RunLive(const Config& config, const Scale& scale,
             const std::string& work_dir, Report* report) {
  const std::size_t ops = static_cast<std::size_t>(
      std::llround(scale.update_rate * config.seconds));
  // Sized for the traced runs' extra ops too, so traced and untraced runs
  // of one seed generate identical inputs.
  const std::size_t total_ops = ops + 2 * scale.traced_updates;
  const std::size_t pool = total_ops - total_ops / 10 + 1;
  const std::size_t base_n = scale.live_base;
  // Rows [0, base_n) are indexed at build; the rest is the insert pool.
  const Inputs in =
      MakeInputs("deep", base_n + pool, scale.queries, config.seed);
  const core::Dataset base = in.base.Prefix(base_n);
  methods::SearchParams params;
  params.k = kK;
  params.beam_width = kDeepBeam;

  const shard::LiveShardedOptions live_options = LiveOptions(pool);
  serve::ServeMetrics update_metrics;
  serve::UpdaterOptions up_options;
  up_options.directory = work_dir + "/wal";
  up_options.metrics = &update_metrics;

  std::unique_ptr<shard::LiveShardedIndex> live;
  std::unique_ptr<serve::Updater> updater;
  methods::BuildStats build;
  const double setup = MedianSeconds([&](int rep) {
    auto built = std::make_unique<shard::LiveShardedIndex>(live_options);
    const methods::BuildStats stats = built->Build(base);
    serve::UpdaterOptions options = up_options;
    options.directory = work_dir + "/setup" + std::to_string(rep);
    if (rep == 0) options.directory = up_options.directory;
    fs::create_directories(options.directory);
    std::unique_ptr<serve::Updater> created;
    const core::Status status =
        serve::Updater::Create(built.get(), options, &created);
    report->Check(status.ok(), "Updater::Create: " + status.message());
    if (rep == 0) {
      build = stats;
      live = std::move(built);
      updater = std::move(created);
    } else {
      created.reset();
      fs::remove_all(options.directory);
    }
  });
  report->Set("setup_s", setup, "s");
  report->Set("methods.build_distances",
              static_cast<double>(build.distance_computations), "count", true);
  report->Set("shard.partition_share", 0.0, "ratio");
  if (updater == nullptr) return;

  UpdateStream stream(in.base, base_n, config.seed);
  MixedResult mixed;
  PassResult final_pass;
  std::uint64_t wal_bytes = 0;
  std::size_t next_id = 0;
  std::uint64_t last_sequence = 0;
  {
    serve::Frontend frontend(*updater, FrontendFor(2, config.seed, 0));
    RunPass(frontend, in, params);  // Warm-up.
    const std::uint64_t wal0 = update_metrics.wal_bytes_written();
    const std::uint64_t ckpt0 = update_metrics.checkpoints();
    mixed = RunMixed(frontend, *updater, stream, in, params, ops,
                     scale.update_rate, scale.checkpoint_every, SIZE_MAX,
                     nullptr);
    const std::uint64_t rotations = update_metrics.checkpoints() - ckpt0;
    wal_bytes = update_metrics.wal_bytes_written() - wal0 -
                rotations * live->num_streams() * io::kWalFileHeaderBytes;
    final_pass = RunPass(frontend, in, params);
    next_id = live->next_id();
    last_sequence = updater->last_sequence();
  }

  // Recall of the final pass against brute force over the final live set.
  std::vector<core::VectorId> live_ids = stream.live();
  std::sort(live_ids.begin(), live_ids.end());
  core::Dataset live_rows = in.base.Select(live_ids);
  eval::GroundTruth truth = eval::BruteForceKnn(live_rows, in.queries, kK, 4);
  for (auto& list : truth) {
    for (core::Neighbor& nb : list) nb.id = live_ids[nb.id];
  }
  const double recall = eval::MeanRecall(final_pass.answers, truth, kK);
  report->Set("recall_at_10", recall, "ratio", true);
  SetWarmupCounters(report, final_pass, in.queries.size());
  report->Set("serve.short_results_frac",
              static_cast<double>(final_pass.short_results) /
                  static_cast<double>(in.queries.size()),
              "ratio");

  SetLatency(report, mixed.searcher.samples, mixed.searcher.seconds,
             in.queries.size());
  const WriterResult& w = mixed.writer;
  report->Set("updates_per_s",
              w.seconds > 0 ? static_cast<double>(w.acked) / w.seconds : 0,
              "1/s");
  report->Set("update_p50_us", Quantile(w.latency_us, 0.50), "us", false,
              w.latency_us.size());
  report->Set("update_p99_us", Quantile(w.latency_us, 0.99), "us", false,
              w.latency_us.size());
  report->Set("loadgen.late_p99_us", Quantile(w.late_us, 0.99), "us", false,
              w.late_us.size());
  report->Set("io.wal_bytes_per_update",
              w.acked > 0 ? static_cast<double>(wal_bytes) /
                                static_cast<double>(w.acked)
                          : 0,
              "B", true);
  report->Set("io.save_ms", Median(w.checkpoint_ms), "ms", false,
              w.checkpoint_ms.size());
  report->Set("index_mib", Mib(live->IndexBytes()), "MiB", true);
  report->attempted = mixed.searcher.attempted + w.acked + w.unacked;
  report->failed = mixed.searcher.not_full + w.unacked;
  report->Check(w.unacked == 0, "an update was not acknowledged");
  report->Check(w.wrong_id == 0, "an update was applied under the wrong id");
  report->Check(w.checkpoint_failures == 0, "a checkpoint failed");
  report->Check(mixed.searcher.not_full == 0 && final_pass.not_full == 0,
                "a search failed");
  CheckRecall(report, config, recall);

  // Shutdown, then recovery from the last checkpoint plus the WAL tail.
  updater.reset();
  live.reset();
  const std::string ckpt = serve::Updater::CheckpointPath(up_options);
  report->Set("io.snapshot_mib", Mib(fs::file_size(ckpt)), "MiB");
  io::OpenLiveIndexOptions open_options;
  open_options.updater = up_options;
  open_options.sharded = live_options;
  std::unique_ptr<serve::LiveIndex> recovered;
  std::unique_ptr<serve::Updater> reopened;
  serve::RecoveryReport recovery;
  const double restart = MedianSeconds([&](int) {
    reopened.reset();
    recovered.reset();
    const core::Status status = io::OpenLiveIndex(
        base, open_options, &recovered, &reopened, &recovery);
    report->Check(status.ok(), "OpenLiveIndex: " + status.message());
  });
  report->Set("io.restart_s", restart, "s");
  report->Set("io.replay_records",
              static_cast<double>(recovery.records_applied), "count", true);
  if (reopened == nullptr) return;
  report->Check(recovered->next_id() == next_id &&
                    reopened->last_sequence() == last_sequence,
                "recovered next_id/last_sequence differ from pre-shutdown");

  // Self-retrieval: sampled live inserts come back, sampled deletes do not.
  methods::SearchParams check = params;
  check.beam_width = 256;
  check.tombstones = &reopened->tombstones();
  auto present = [&](core::VectorId id) {
    const methods::SearchResult result =
        recovered->MutableSearchIndex()->Search(in.base.Row(id), check);
    for (const core::Neighbor& nb : result.neighbors) {
      if (nb.id == id) return true;
    }
    return false;
  };
  std::vector<bool> acked_delete(next_id, false);
  for (core::VectorId id : stream.deleted()) acked_delete[id] = true;
  std::vector<core::VectorId> live_inserts;
  for (core::VectorId id : stream.inserted_ids()) {
    if (!acked_delete[id]) live_inserts.push_back(id);
  }
  // Counts the evenly spaced samples of `ids` whose presence differs from
  // `expect_present`, or whose tombstone disagrees with it.
  auto wrong = [&](const std::vector<core::VectorId>& ids,
                   bool expect_present) {
    std::size_t count = 0;
    const std::size_t n = std::min(kSelfRetrievalSamples, ids.size());
    for (std::size_t i = 0; i < n; ++i) {
      const core::VectorId id = ids[i * ids.size() / n];
      if (present(id) != expect_present ||
          reopened->tombstones().Contains(id) == expect_present) {
        ++count;
      }
    }
    return count;
  };
  report->Check(wrong(live_inserts, true) == 0,
                "a sampled live insert was not self-retrieved");
  report->Check(wrong(stream.deleted(), false) == 0,
                "a sampled deleted id was returned or is not tombstoned");

  const double kernel_ns = KernelNsPerDistance(in.base, config.seed);
  report->Set("core.kernel_ns_per_distance", kernel_ns, "ns");
  if (!config.trace) return;
  // On the recovered index the stream continues: the same mix untraced,
  // then traced.
  double untraced_p50 = 0.0;
  {
    serve::Frontend plain(*reopened, FrontendFor(2, config.seed, 0));
    const MixedResult u =
        RunMixed(plain, *reopened, stream, in, params, scale.traced_updates,
                 scale.update_rate, 0, scale.traced_ops, nullptr);
    report->Check(u.writer.unacked == 0 && u.writer.wrong_id == 0,
                  "post-recovery update failed");
    untraced_p50 = P50(u.searcher.samples);
  }
  SearchSpans spans;
  UpdateSpans update_spans;
  serve::Frontend traced(*reopened,
                         FrontendFor(2, config.seed,
                                     scale.traced_updates + scale.traced_ops));
  const MixedResult t =
      RunMixed(traced, *reopened, stream, in, params, scale.traced_updates,
               scale.update_rate, 0, scale.traced_ops, &spans);
  report->Check(t.writer.unacked == 0 && t.writer.wrong_id == 0,
                "traced-phase update failed");
  update_spans.AddFrom(traced.tracer());
  double update_ns = 0;
  for (double us : t.writer.latency_us) update_ns += us * 1e3;
  SetSpanMetrics(report, spans, kernel_ns, untraced_p50);
  SetUpdateShares(report, update_spans,
                  t.writer.latency_us.empty()
                      ? 0
                      : update_ns / static_cast<double>(
                                        t.writer.latency_us.size()));
  ExportTraces(config, traced.tracer(), report);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintLines(const Report& report) {
  for (const std::string& name : report.order()) {
    const MetricValue& m = report.Get(name);
    std::printf("%s %s %s", name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
    if (m.samples > 0) {
      std::printf(" samples=%llu", static_cast<unsigned long long>(m.samples));
    }
    if (m.exact) std::printf(" exact");
    std::printf("\n");
  }
  for (const std::string& failure : report.failures()) {
    std::printf("GATE FAILED: %s\n", failure.c_str());
  }
}

// BENCH_<workload>.json: one run, in the shape compare.py merges into sets
// (values + median + quartiles per metric).
core::Status WriteBenchFile(const Config& config, const Report& report) {
  std::ostringstream out;
  out << "{\n  \"workload\": \"" << config.workload << "\",\n"
      << "  \"git_sha\": \"" << config.git_sha << "\",\n"
      << "  \"simd\": \""
      << core::simd::SimdLevelName(core::simd::ActiveSimdLevel()) << "\",\n"
      << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"seeds\": [" << config.seed << "],\n"
      << "  \"seconds\": " << Number(config.seconds) << ",\n"
      << "  \"traced\": " << (config.trace ? "true" : "false") << ",\n"
      << "  \"correct\": " << (report.ok() ? "true" : "false") << ",\n"
      << "  \"attempted\": " << report.attempted << ",\n"
      << "  \"failed\": " << report.failed << ",\n"
      << "  \"metrics\": {";
  bool first = true;
  for (const std::string& name : report.order()) {
    const MetricValue& m = report.Get(name);
    const std::string v = Number(m.value);
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"unit\": \""
        << m.unit << "\", \"exact\": " << (m.exact ? "true" : "false")
        << ", \"samples\": " << m.samples << ", \"values\": [" << v
        << "], \"median\": " << v << ", \"q1\": " << v << ", \"q3\": " << v
        << "}";
    first = false;
  }
  out << "\n  }\n}\n";
  const std::string path =
      config.out_dir + "/BENCH_" + config.workload + ".json";
  std::ofstream file(path);
  file << out.str();
  file.close();
  if (!file) return core::Status::Error("cannot write " + path);
  return core::Status::Ok();
}

void PrintResultLine(const Config& config, const Report& report) {
  const std::vector<std::string>& names = config.trace ? kPerLayer : kEndToEnd;
  std::ostringstream out;
  out << "{\"correct\": " << (report.ok() ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const MetricValue m =
        report.Has(names[i]) ? report.Get(names[i]) : MetricValue{};
    out << (i > 0 ? ", " : "") << "\"" << names[i]
        << "\": {\"value\": " << Number(m.value) << ", \"unit\": \""
        << m.unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
}

Report RunWorkload(const Config& config, const Scale& scale) {
  Report report;
  const std::string work_dir = config.out_dir + "/work-" + config.workload +
                               "-" + std::to_string(::getpid());
  fs::remove_all(work_dir);
  fs::create_directories(work_dir);
  if (config.workload == "seismic-hnsw") {
    RunStatic(config, scale,
              {"seismic", scale.seismic_base, kSeismicBeam, false}, work_dir,
              &report);
  } else if (config.workload == "deep-sharded") {
    RunStatic(config, scale,
              {"deep", scale.deep_sharded_base, kDeepBeam, true}, work_dir,
              &report);
  } else {
    RunLive(config, scale, work_dir, &report);
  }
  fs::remove_all(work_dir);
  std::vector<std::string> wanted = kEndToEnd;
  if (config.trace) {
    wanted.insert(wanted.end(), kPerLayer.begin(), kPerLayer.end());
  }
  for (const std::string& name : wanted) {
    report.Check(report.Has(name), "metric not measured: " + name);
  }
  return report;
}

int Main(int argc, char** argv) {
  tools::ArgParser flags(argc, argv, 1);
  flags.Restrict({{"workload", tools::ArgKind::kString},
                  {"seed", tools::ArgKind::kInt},
                  {"seconds", tools::ArgKind::kFloat},
                  {"trace", tools::ArgKind::kInt},
                  {"out", tools::ArgKind::kString},
                  {"baseline", tools::ArgKind::kString},
                  {"git-sha", tools::ArgKind::kString},
                  {"smoke", tools::ArgKind::kInt}});
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return 2;
  }
  Config config;
  config.workload = flags.Get("workload", "");
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  config.seconds = flags.GetFloat("seconds", 25.0);
  config.trace = flags.GetInt("trace", 0) != 0;
  config.out_dir = flags.Get("out", config.out_dir);
  config.baseline_dir = flags.Get("baseline", "");
  config.git_sha = flags.Get("git-sha", config.git_sha);
  fs::create_directories(config.out_dir);

  if (flags.GetInt("smoke", 0) != 0) {
    const Scale scale = SmokeScale();
    config.seconds = 0.5;
    config.trace = true;
    config.baseline_dir.clear();
    bool ok = true;
    for (const std::string& workload : kWorkloads) {
      config.workload = workload;
      const Clock::time_point t0 = Clock::now();
      const Report report = RunWorkload(config, scale);
      for (const std::string& failure : report.failures()) {
        std::printf("%s: GATE FAILED: %s\n", workload.c_str(),
                    failure.c_str());
      }
      std::printf("%s: %s in %.2fs (%llu ops)\n", workload.c_str(),
                  report.ok() ? "ok" : "FAILED", Seconds(Clock::now() - t0),
                  static_cast<unsigned long long>(report.attempted));
      ok = ok && report.ok();
    }
    return ok ? 0 : 1;
  }

  if (std::find(kWorkloads.begin(), kWorkloads.end(), config.workload) ==
      kWorkloads.end()) {
    std::fprintf(stderr,
                 "error: --workload must be one of seismic-hnsw, "
                 "deep-sharded, deep-live\n");
    return 2;
  }
  if (config.seconds <= 0) {
    std::fprintf(stderr, "error: --seconds must be positive\n");
    return 2;
  }
  std::fprintf(stderr, "%s: seed %llu, %.0fs measured%s\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed), config.seconds,
               config.trace ? ", traced" : "");
  Report report = RunWorkload(config, Scale{});
  const core::Status written = WriteBenchFile(config, report);
  report.Check(written.ok(), written.message());
  PrintLines(report);
  PrintResultLine(config, report);
  std::fflush(stdout);
  return report.ok() ? 0 : 1;
}

}  // namespace
}  // namespace gass::bench

int main(int argc, char** argv) { return gass::bench::Main(argc, argv); }
