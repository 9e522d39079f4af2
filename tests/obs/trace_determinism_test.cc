// End-to-end trace determinism (docs/OBSERVABILITY.md): with the same
// frontend seed and the same admission ids, two runs sample the identical
// query subset, and each sampled query's per-stage work counters (distance
// computations, hops, prefetches) match bit-for-bit. Span durations are
// wall-clock and excluded from the comparison.

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "../serve_test_util.h"
#include "core/deadline.h"
#include "methods/factory.h"
#include "methods/search_params.h"
#include "obs/trace.h"
#include "serve/frontend.h"
#include "serve/request.h"
#include "shard/live_sharded_index.h"
#include "shard/sharded_index.h"
#include "synth/generators.h"
#include "synth/workloads.h"

namespace gass::obs {
namespace {

// Everything deterministic about one trace: its id plus each span's stage,
// shard, and work counters, in a canonical order.
using SpanKey =
    std::tuple<std::uint8_t, std::int32_t, std::uint64_t, std::uint64_t,
               std::uint64_t>;
struct TraceKey {
  std::uint64_t admission_id;
  std::vector<SpanKey> spans;
  bool operator==(const TraceKey& other) const {
    return admission_id == other.admission_id && spans == other.spans;
  }
};

TraceKey KeyOf(const QueryTrace& trace) {
  TraceKey key;
  key.admission_id = trace.admission_id();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceSpan& span = trace.span(i);
    key.spans.emplace_back(static_cast<std::uint8_t>(span.stage), span.shard,
                           span.distance_computations, span.hops,
                           span.prefetches);
  }
  std::sort(key.spans.begin(), key.spans.end());
  return key;
}

std::vector<TraceKey> RunFrontendOnce(const methods::GraphIndex& index,
                                      const core::Dataset& queries) {
  serve::FrontendOptions options =
      gass::testing::BatchFrontendOptions(2, queries.size(), 42);
  options.trace.sample_period = 2;
  serve::Frontend frontend(index, options);

  const methods::SearchParams params = methods::MakeSearchParams(5, 32, 8);
  gass::testing::ServeBatch(frontend, queries, params);

  std::vector<TraceKey> keys;
  for (const QueryTrace* trace : frontend.tracer().Completed()) {
    keys.push_back(KeyOf(*trace));
  }
  // Worker interleaving randomizes completion order; canonicalize.
  std::sort(keys.begin(), keys.end(),
            [](const TraceKey& a, const TraceKey& b) {
              return a.admission_id < b.admission_id;
            });
  return keys;
}

TEST(TraceDeterminismTest, FrontendRunsProduceIdenticalTraces) {
  synth::HoldOutSplit split = synth::SplitHoldOut(
      synth::MakeDatasetProxy("deep", 1600, 42), 80, 42 ^ 0x5ULL);
  auto index = methods::CreateIndex("hnsw", 42);
  index->Build(split.base);

  const std::vector<TraceKey> first = RunFrontendOnce(*index, split.queries);
  const std::vector<TraceKey> second = RunFrontendOnce(*index, split.queries);

  ASSERT_FALSE(first.empty());  // Period 2 over 80 ids samples some.
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].admission_id, second[i].admission_id);
    EXPECT_EQ(first[i].spans, second[i].spans)
        << "trace " << first[i].admission_id << " diverged";
  }

  // Sampled queries carry real work: some span must have nonzero counters.
  bool any_work = false;
  for (const TraceKey& key : first) {
    for (const SpanKey& span : key.spans) {
      if (std::get<2>(span) > 0) any_work = true;
    }
  }
  EXPECT_TRUE(any_work);
}

// The sharded breakdown: route + one span per probed shard + merge —
// never the opaque whole-search span.
void ExpectShardedBreakdown(const QueryTrace& trace, std::size_t probes) {
  std::size_t shard_spans = 0;
  bool has_route = false, has_merge = false, has_search = false;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    switch (trace.span(i).stage) {
      case Stage::kRoute: has_route = true; break;
      case Stage::kMerge: has_merge = true; break;
      case Stage::kShardSearch: ++shard_spans; break;
      case Stage::kSearch: has_search = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(has_route);
  EXPECT_TRUE(has_merge);
  EXPECT_FALSE(has_search);
  EXPECT_EQ(shard_spans, probes);
}

// Both sharded indexes run one fan-out engine, so every mode traces the
// same breakdown: caller-thread fan-out, pooled + hedged fan-out under a
// generous deadline (the backup delay never elapses), and the live index.
TEST(TraceDeterminismTest, ShardedRequestSearchTracesAreStable) {
  synth::HoldOutSplit split = synth::SplitHoldOut(
      synth::MakeDatasetProxy("deep", 1200, 42), 8, 42 ^ 0x5ULL);
  shard::ShardedIndexOptions options;
  options.method = "hnsw";
  options.seed = 42;
  options.partitioner.num_shards = 3;
  options.partitioner.kind = shard::PartitionerKind::kKMeans;

  for (const bool hedged : {false, true}) {
    options.fanout_threads = hedged ? 2 : 0;
    options.hedge_fraction = hedged ? 0.5 : 0.0;
    shard::ShardedIndex index(options);
    index.Build(split.base);
    serve::Frontend frontend(
        index, gass::testing::BatchFrontendOptions(1, 1, options.seed));
    for (std::uint64_t id = 0; id < split.queries.size(); ++id) {
      QueryTrace first, second;
      for (QueryTrace* trace : {&first, &second}) {
        serve::SearchRequest request;
        request.query = split.queries.Row(static_cast<core::VectorId>(id));
        request.dim = split.queries.dim();
        request.params = methods::MakeSearchParams(5, 32, 8);
        request.admission_id = id;
        request.trace = trace;
        if (hedged) {
          request.deadline = core::Deadline::After(10.0);
          request.has_deadline = true;
        }
        const serve::SearchResponse response = frontend.Search(request);
        EXPECT_EQ(response.admission_id, id);
      }
      const TraceKey a = KeyOf(first), b = KeyOf(second);
      EXPECT_EQ(a.spans, b.spans)
          << (hedged ? "hedged " : "") << "query " << id << " diverged";
      ExpectShardedBreakdown(first, index.EffectiveNprobe());
    }
  }

  shard::LiveShardedOptions live_options;
  live_options.num_shards = 3;
  shard::LiveShardedIndex live(live_options);
  live.Build(split.base);
  for (std::uint64_t id = 0; id < split.queries.size(); ++id) {
    QueryTrace first, second;
    for (QueryTrace* trace : {&first, &second}) {
      methods::SearchParams params = methods::MakeSearchParams(5, 32, 8);
      params.admission_id = id;
      params.trace = trace;
      methods::SearchContext ctx = live.MakeSearchContext(id);
      trace->Begin(id);
      const methods::SearchResult result = live.Search(
          split.queries.Row(static_cast<core::VectorId>(id)), params, &ctx);
      trace->Finish();
      EXPECT_EQ(result.stats.shards_probed, live_options.num_shards);
    }
    const TraceKey a = KeyOf(first), b = KeyOf(second);
    EXPECT_EQ(a.spans, b.spans) << "live query " << id << " diverged";
    ExpectShardedBreakdown(first, live_options.num_shards);
  }
}

}  // namespace
}  // namespace gass::obs
