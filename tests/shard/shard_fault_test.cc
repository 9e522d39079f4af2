// Sharded serving fault-tolerance contract (see docs/SHARDING.md "Failure
// semantics"):
//   - a failing shard costs the query that shard's contribution, never the
//     query: `partial` is set, no exception escapes, the merge proceeds
//     over whatever completed;
//   - `partial` (fault-caused) and `expired` (deadline-caused) are
//     independent — each occurs without the other;
//   - parallel fan-out returns exactly what caller-thread fan-out returns,
//     including under injected faults;
//   - the circuit breaker trips after threshold consecutive failures,
//     quarantines the shard, and the shard re-enters rotation through a
//     half-open probe after an online reload (foreground or background);
//   - a corrupt reload is rejected by the snapshot validators and keeps
//     the shard quarantined;
//   - a hedged backup resolves a slow shard inside the deadline; when both
//     attempts are slow the coordinator abandons the shard at the deadline
//     (expired, not partial); hedged queries trace replica failovers like
//     unhedged ones;
//   - through serve::QueryExecutor, a permanently failing shard yields
//     zero query-level errors, one partial per query, and recall degraded
//     by roughly the lost shard's share.

#include <unistd.h>

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/deadline.h"
#include "eval/ground_truth.h"
#include "eval/recall.h"
#include "obs/trace.h"
#include "serve/executor.h"
#include "serve/fault_injector.h"
#include "serve/request.h"
#include "shard/sharded_index.h"

namespace gass::shard {
namespace {

using core::Dataset;
using core::VectorId;

constexpr std::size_t kN = 600;
constexpr std::size_t kDim = 24;
constexpr std::uint64_t kSeed = 42;

ShardedIndexOptions MakeOptions(std::size_t shards,
                                std::uint32_t breaker_threshold = 0) {
  ShardedIndexOptions options;
  options.method = "hnsw";
  options.partitioner.kind = PartitionerKind::kContiguous;
  options.partitioner.num_shards = shards;
  options.seed = kSeed;
  options.nprobe = 0;  // All shards: the faulty one is always routed.
  options.breaker.failure_threshold = breaker_threshold;
  // No spontaneous probes: recovery in these tests is owner-driven, so a
  // huge period keeps trip/probe sequences exactly scripted.
  options.breaker.probe_period = 1000000;
  return options;
}

methods::SearchParams MakeParams() {
  methods::SearchParams params;
  params.k = 10;
  params.beam_width = 48;
  return params;
}

serve::FaultPlan FailShardPlan(std::uint32_t shard,
                               std::uint64_t fail_period = 1) {
  serve::FaultPlan plan;
  serve::ShardFaultPlan fault;
  fault.shard = shard;
  fault.fail_period = fail_period;
  plan.shard_faults.push_back(fault);
  return plan;
}

methods::SearchResult SearchOnce(const ShardedIndex& index, const float* query,
                                 const methods::SearchParams& params) {
  methods::SearchContext ctx = index.MakeSearchContext(7);
  return index.Search(query, params, &ctx);
}

TEST(ShardFaultTest, FailingShardYieldsPartialResultsNotErrors) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  const Dataset queries =
      gass::testing::UniformQueries(8, kDim, 0.0f, 28.0f, 6);
  ShardedIndex sharded(MakeOptions(4));
  sharded.Build(data);
  serve::FaultInjector faults(FailShardPlan(2));
  sharded.SetFaultInjector(&faults);

  const methods::SearchParams params = MakeParams();
  for (VectorId q = 0; q < queries.size(); ++q) {
    const auto result = SearchOnce(sharded, queries.Row(q), params);
    // Fault-caused, not deadline-caused: partial without expired.
    EXPECT_TRUE(result.partial);
    EXPECT_FALSE(result.expired);
    EXPECT_EQ(result.stats.shards_failed, 1u);
    EXPECT_EQ(result.stats.shards_probed, 3u);
    EXPECT_EQ(result.neighbors.size(), params.k);
    for (const core::Neighbor& nb : result.neighbors) {
      EXPECT_LT(nb.id, data.size());
    }
  }
  EXPECT_EQ(faults.count(serve::FaultCounter::kShardFailures), queries.size());
}

TEST(ShardFaultTest, ExpiredWithoutPartial) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  ShardedIndex sharded(MakeOptions(4));
  sharded.Build(data);

  methods::SearchParams params = MakeParams();
  core::Deadline dead = core::Deadline::After(0.0);  // Already expired.
  while (!dead.IsExpired()) {
  }
  params.deadline = &dead;
  const auto result = SearchOnce(sharded, data.Row(0), params);
  // Deadline-caused, not fault-caused: expired without partial.
  EXPECT_TRUE(result.expired);
  EXPECT_FALSE(result.partial);
  EXPECT_EQ(result.stats.shards_failed, 0u);
}

TEST(ShardFaultTest, ParallelFanOutMatchesSerialUnderInjectedFaults) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  const Dataset queries =
      gass::testing::UniformQueries(12, kDim, 0.0f, 28.0f, 6);

  auto serial_options = MakeOptions(4);
  auto parallel_options = serial_options;
  parallel_options.fanout_threads = 3;
  ShardedIndex serial(serial_options);
  serial.Build(data);
  ShardedIndex parallel(parallel_options);
  parallel.Build(data);

  // Every 2nd admission id loses shard 1; both fan-out modes see the same
  // (admission id, shard) plan, so their failures line up exactly.
  serve::FaultInjector serial_faults(FailShardPlan(1, 2));
  serve::FaultInjector parallel_faults(FailShardPlan(1, 2));
  serial.SetFaultInjector(&serial_faults);
  parallel.SetFaultInjector(&parallel_faults);

  for (VectorId q = 0; q < queries.size(); ++q) {
    methods::SearchParams params = MakeParams();
    params.admission_id = q;
    const auto a = SearchOnce(serial, queries.Row(q), params);
    const auto b = SearchOnce(parallel, queries.Row(q), params);
    EXPECT_EQ(a.partial, q % 2 == 0) << "query " << q;
    EXPECT_EQ(a.partial, b.partial);
    EXPECT_EQ(a.stats.shards_failed, b.stats.shards_failed);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << "rank " << i;
      EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance);
    }
  }
}

// The full lifecycle: consecutive failures trip the breaker, the open
// breaker quarantines the shard (skips instead of failures), an online
// reload re-arms it, and the forced half-open probe closes it again.
TEST(ShardFaultTest, BreakerTripQuarantineAndRecoveryAfterReload) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  ShardedIndex sharded(MakeOptions(4, /*breaker_threshold=*/2));
  sharded.Build(data);
  const std::string path = std::string(::testing::TempDir()) +
                           "/shard_fault_recovery_" +
                           std::to_string(::getpid());
  ASSERT_TRUE(sharded.SaveSnapshot(path).ok());
  sharded.SetRecoverySnapshot(path);

  serve::FaultInjector faults(FailShardPlan(2));
  sharded.SetFaultInjector(&faults);
  const methods::SearchParams params = MakeParams();

  // Two failures trip shard 2's breaker; OnResult reports the trip once.
  SearchOnce(sharded, data.Row(0), params);
  EXPECT_EQ(sharded.health().state(2), BreakerState::kClosed);
  SearchOnce(sharded, data.Row(1), params);
  EXPECT_EQ(sharded.health().state(2), BreakerState::kOpen);
  EXPECT_EQ(sharded.health().trips(), 1u);

  // Quarantined: routing skips the shard, so the underlying fault is no
  // longer even exercised — still partial, but no new injected failures.
  const std::uint64_t failures_at_trip =
      faults.count(serve::FaultCounter::kShardFailures);
  const auto skipped = SearchOnce(sharded, data.Row(2), params);
  EXPECT_TRUE(skipped.partial);
  EXPECT_EQ(skipped.stats.shards_failed, 1u);
  EXPECT_EQ(skipped.stats.shards_probed, 3u);
  EXPECT_EQ(faults.count(serve::FaultCounter::kShardFailures),
            failures_at_trip);

  // The operator fixes the fault and reloads the shard from its snapshot.
  sharded.SetFaultInjector(nullptr);
  ASSERT_TRUE(sharded.ReloadShard(2).ok());
  EXPECT_EQ(sharded.health().generation(2), 1u);
  // Reload does not close the breaker; re-entry goes through the probe.
  EXPECT_EQ(sharded.health().state(2), BreakerState::kOpen);

  // The next query is granted the forced probe, it passes, and the shard
  // is back in rotation: full results, no partial.
  const auto recovered = SearchOnce(sharded, data.Row(3), params);
  EXPECT_FALSE(recovered.partial);
  EXPECT_EQ(recovered.stats.shards_probed, 4u);
  EXPECT_EQ(sharded.health().state(2), BreakerState::kClosed);
  EXPECT_EQ(sharded.health().recoveries(), 1u);
}

TEST(ShardFaultTest, BackgroundReloadRecoversThroughHalfOpenProbe) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  ShardedIndex sharded(MakeOptions(4, /*breaker_threshold=*/1));
  sharded.Build(data);
  const std::string path = std::string(::testing::TempDir()) +
                           "/shard_fault_bg_reload_" +
                           std::to_string(::getpid());
  ASSERT_TRUE(sharded.SaveSnapshot(path).ok());
  sharded.SetRecoverySnapshot(path);

  serve::FaultInjector faults(FailShardPlan(1));
  sharded.SetFaultInjector(&faults);
  const methods::SearchParams params = MakeParams();
  SearchOnce(sharded, data.Row(0), params);  // Threshold 1: trips at once.
  ASSERT_EQ(sharded.health().state(1), BreakerState::kOpen);

  sharded.SetFaultInjector(nullptr);
  ASSERT_TRUE(sharded.StartShardReload(1));
  // A second request for the same shard while one is in flight is refused.
  sharded.StartShardReload(1);
  sharded.WaitForReloads();
  EXPECT_EQ(sharded.health().generation(1), 1u);

  const auto recovered = SearchOnce(sharded, data.Row(1), params);
  EXPECT_FALSE(recovered.partial);
  EXPECT_EQ(sharded.health().state(1), BreakerState::kClosed);
}

TEST(ShardFaultTest, CorruptReloadKeepsTheShardQuarantined) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  ShardedIndex sharded(MakeOptions(4, /*breaker_threshold=*/1));
  sharded.Build(data);
  const std::string path = std::string(::testing::TempDir()) +
                           "/shard_fault_corrupt_reload_" +
                           std::to_string(::getpid());
  ASSERT_TRUE(sharded.SaveSnapshot(path).ok());
  sharded.SetRecoverySnapshot(path);

  // The shard-3 crash hits admission id 0 only (the fault that tripped the
  // breaker is gone by the time the recovery probes run); the reload
  // corruption is what this test is about.
  serve::FaultPlan plan = FailShardPlan(3, /*fail_period=*/1000000);
  plan.shard_faults[0].reload_corrupt_times = 1;
  serve::FaultInjector faults(plan);
  sharded.SetFaultInjector(&faults);
  methods::SearchParams params = MakeParams();
  SearchOnce(sharded, data.Row(0), params);  // Admission id 0: trips.
  ASSERT_EQ(sharded.health().state(3), BreakerState::kOpen);

  // First reload hits the injected corruption: rejected, generation
  // unchanged, shard stays quarantined, queries stay partial.
  const core::Status corrupt = sharded.ReloadShard(3);
  EXPECT_FALSE(corrupt.ok());
  EXPECT_EQ(sharded.health().generation(3), 0u);
  EXPECT_EQ(sharded.health().state(3), BreakerState::kOpen);
  // A failed reload must not arm the re-admission probe either: the old,
  // quarantined state is still what is serving.
  EXPECT_FALSE(sharded.health().probe_pending(3, 0));
  params.admission_id = 1;
  EXPECT_TRUE(SearchOnce(sharded, data.Row(1), params).partial);

  // Second reload succeeds (the plan corrupts only the first) and the
  // forced probe brings the shard back.
  ASSERT_TRUE(sharded.ReloadShard(3).ok());
  EXPECT_EQ(sharded.health().generation(3), 1u);
  EXPECT_TRUE(sharded.health().probe_pending(3, 0));
  params.admission_id = 2;
  EXPECT_FALSE(SearchOnce(sharded, data.Row(2), params).partial);
  EXPECT_EQ(sharded.health().state(3), BreakerState::kClosed);
}

TEST(ShardFaultTest, HedgedBackupResolvesASlowShardInsideTheDeadline) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  auto options = MakeOptions(4);
  options.fanout_threads = 4;
  options.hedge_fraction = 0.1;

  // Shard 1's primary attempt sleeps past the deadline; the hedged backup
  // (attempt 1) models a healthy replica and answers instantly. The
  // injector is declared before the index: the abandoned primary is still
  // sleeping inside it when the search returns, and the index destructor
  // joins that straggler before the injector dies.
  serve::FaultPlan plan;
  serve::ShardFaultPlan fault;
  fault.shard = 1;
  fault.slow_period = 1;
  fault.slow_seconds = 1.5;
  fault.slow_attempts = 1;
  plan.shard_faults.push_back(fault);
  serve::FaultInjector faults(plan);

  ShardedIndex sharded(options);
  sharded.Build(data);
  sharded.SetFaultInjector(&faults);

  methods::SearchParams params = MakeParams();
  core::Deadline dead = core::Deadline::After(1.0);
  params.deadline = &dead;
  const auto hedged = SearchOnce(sharded, data.Row(0), params);
  EXPECT_FALSE(hedged.expired);
  EXPECT_FALSE(hedged.partial);
  EXPECT_EQ(hedged.stats.shards_probed, 4u);
  EXPECT_GE(hedged.stats.shards_hedged, 1u);
  EXPECT_GE(hedged.stats.hedge_wins, 1u);
  EXPECT_LT(hedged.stats.elapsed_seconds, 1.0);

  // The backup replays the primary's RNG stream, so the hedged answer is
  // exactly the fault-free answer (same seed, same build).
  ShardedIndex clean(options);
  clean.Build(data);
  methods::SearchParams clean_params = MakeParams();
  core::Deadline clean_dead = core::Deadline::After(10.0);
  clean_params.deadline = &clean_dead;
  const auto expected = SearchOnce(clean, data.Row(0), clean_params);
  ASSERT_EQ(hedged.neighbors.size(), expected.neighbors.size());
  for (std::size_t i = 0; i < expected.neighbors.size(); ++i) {
    EXPECT_EQ(hedged.neighbors[i].id, expected.neighbors[i].id)
        << "rank " << i;
    EXPECT_EQ(hedged.neighbors[i].distance, expected.neighbors[i].distance);
  }
}

TEST(ShardFaultTest, HedgeAbandonedAtDeadlineIsExpiredNotPartial) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  auto options = MakeOptions(4);
  options.fanout_threads = 4;
  options.hedge_fraction = 0.1;

  // Both attempts sleep past the deadline: the coordinator abandons the
  // shard — a deadline miss (expired), not a fault (partial). Injector
  // before index, as above: the stragglers outlive the search.
  serve::FaultPlan plan;
  serve::ShardFaultPlan fault;
  fault.shard = 1;
  fault.slow_period = 1;
  fault.slow_seconds = 1.0;
  fault.slow_attempts = 2;
  plan.shard_faults.push_back(fault);
  serve::FaultInjector faults(plan);

  ShardedIndex sharded(options);
  sharded.Build(data);
  sharded.SetFaultInjector(&faults);

  methods::SearchParams params = MakeParams();
  core::Deadline dead = core::Deadline::After(0.25);
  params.deadline = &dead;
  const auto result = SearchOnce(sharded, data.Row(0), params);
  EXPECT_TRUE(result.expired);
  EXPECT_FALSE(result.partial);
  EXPECT_EQ(result.stats.shards_failed, 0u);
  EXPECT_GE(result.stats.shards_hedged, 1u);
  EXPECT_EQ(result.stats.hedge_wins, 0u);
  EXPECT_EQ(result.stats.shards_probed, 3u);
  // Stragglers finish harmlessly after the search returned; the destructor
  // (pool shutdown) must not race them — covered by scope exit here.
}

// A hedge the deadline has already killed is never launched — and never
// counted: shards_hedged tallies backups that actually ran, keeping
// hedge_wins <= shards_hedged even under pathological deadlines. The
// hedge trigger here (hedge_fraction 2.0 of a 0.2 s budget) fires only
// after the deadline has expired, so every would-be backup is abandoned
// before launch.
TEST(ShardFaultTest, HedgesAbandonedBeforeLaunchAreNotCounted) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  auto options = MakeOptions(4);
  options.fanout_threads = 4;
  options.hedge_fraction = 2.0;

  // Every primary sleeps past the deadline (and so would every backup).
  // Injector before index: stragglers outlive the search, the index
  // destructor joins them before the injector dies.
  serve::FaultPlan plan;
  serve::ShardFaultPlan fault;
  fault.shard = 0;
  fault.slow_period = 1;
  fault.slow_seconds = 1.0;
  fault.slow_attempts = 2;
  plan.shard_faults.push_back(fault);
  for (std::uint32_t s = 1; s < 4; ++s) {
    fault.shard = s;
    plan.shard_faults.push_back(fault);
  }
  serve::FaultInjector faults(plan);

  ShardedIndex sharded(options);
  sharded.Build(data);
  sharded.SetFaultInjector(&faults);

  methods::SearchParams params = MakeParams();
  core::Deadline dead = core::Deadline::After(0.2);
  params.deadline = &dead;
  const auto result = SearchOnce(sharded, data.Row(0), params);
  EXPECT_TRUE(result.expired);
  EXPECT_FALSE(result.partial);
  EXPECT_EQ(result.stats.shards_hedged, 0u);
  EXPECT_EQ(result.stats.hedge_wins, 0u);
  EXPECT_EQ(result.stats.shards_failed, 0u);
}

// Hedged queries record replica_failover spans like unhedged ones: each
// attempt runs its own failover walk, and the coordinator traces the
// resolving attempt's failovers when it merges.
TEST(ShardFaultTest, HedgedQueriesTraceReplicaFailovers) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  auto options = MakeOptions(4);
  options.replicas = 2;
  options.fanout_threads = 4;
  options.hedge_fraction = 0.5;
  // Shard 2 fails on every replica: one failover, then the shard fails.
  serve::FaultInjector faults(FailShardPlan(2));
  ShardedIndex sharded(options);
  sharded.Build(data);
  sharded.SetFaultInjector(&faults);

  obs::QueryTrace trace;
  serve::SearchRequest request;
  request.query = data.Row(0);
  request.dim = kDim;
  request.params = MakeParams();
  request.admission_id = 0;
  request.deadline = core::Deadline::After(10.0);
  request.has_deadline = true;
  request.trace = &trace;
  const serve::SearchResponse response = sharded.Search(request);
  EXPECT_TRUE(response.partial);
  EXPECT_EQ(response.shards_failed, 1u);
  EXPECT_EQ(response.replica_failovers, 1u);
  EXPECT_EQ(faults.count(serve::FaultCounter::kShardFailures), 2u);

  std::size_t failover_spans = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace.span(i).stage != obs::Stage::kReplicaFailover) continue;
    ++failover_spans;
    EXPECT_EQ(trace.span(i).shard, 2);
  }
  EXPECT_EQ(failover_spans, 1u);
}

// The headline acceptance: with 1 of 8 shards permanently failing, a whole
// executor batch completes with zero query-level errors, every query is
// partial (pre-trip failures and post-trip breaker skips alike), and
// recall degrades by roughly the lost shard's share — not to zero.
TEST(ShardFaultTest, ExecutorBatchSurvivesAPermanentlyFailingShard) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  const Dataset queries =
      gass::testing::UniformQueries(32, kDim, 0.0f, 28.0f, 6);
  const auto truth = eval::BruteForceKnn(data, queries, 10);

  auto options = MakeOptions(8, /*breaker_threshold=*/3);
  options.fanout_threads = 2;
  ShardedIndex sharded(options);
  sharded.Build(data);
  serve::FaultInjector faults(FailShardPlan(5));
  sharded.SetFaultInjector(&faults);

  serve::ExecutorOptions exec_options;
  exec_options.threads = 2;
  serve::QueryExecutor executor(sharded, exec_options);
  const serve::BatchResult batch = executor.SearchBatch(
      queries.data(), queries.size(), queries.dim(), MakeParams());

  ASSERT_EQ(batch.results.size(), queries.size());
  std::vector<std::vector<core::Neighbor>> answers;
  for (const serve::SearchResponse& response : batch.results) {
    EXPECT_TRUE(response.partial);
    EXPECT_FALSE(response.expired);
    EXPECT_EQ(response.shards_failed, 1u);
    EXPECT_EQ(response.shards_ok, 7u);
    EXPECT_EQ(response.neighbors.size(), 10u);
    answers.push_back(response.neighbors);
  }
  EXPECT_EQ(executor.metrics().count(serve::ServeCounter::kPartial),
            queries.size());
  EXPECT_EQ(executor.metrics().TotalStats().shards_failed, queries.size());

  // Losing 1 of 8 contiguous shards costs about 1/8 of the ground truth;
  // the remaining shards still answer well.
  const double recall = eval::MeanRecall(answers, truth, 10);
  EXPECT_GT(recall, 0.6);
  EXPECT_LT(recall, 1.0);
}

}  // namespace
}  // namespace gass::shard
