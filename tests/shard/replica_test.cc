// Replicated shard serving contract (see docs/SHARDING.md "Replication"):
//   - replicas of one shard are bit-identical by construction (same
//     factory, same derived seed), so any replica answers any query
//     identically and R > 1 never changes results, only availability;
//   - replica selection is deterministic, health-aware power-of-two:
//     closed beats half-open beats open, ties break toward fewer
//     consecutive failures, and a forced-probe slot wins outright so a
//     rebuilt replica cannot be starved out of its re-admission probe;
//   - a permanently failing replica is masked by failover: zero failed
//     shards, zero partial queries, top-k bit-identical to the fault-free
//     run, and replica_failovers counts the masked faults;
//   - replicas are copies of one build: each equals a standalone build with
//     the shard's derived seed, digest for digest;
//   - the anti-entropy scrubber detects a single-id divergence on any HNSW
//     layer by digest, quarantines the divergent replica, rebuilds it
//     online (in-memory peer copy, no filesystem, or snapshot), and the
//     replica re-enters rotation through a forced half-open probe;
//   - replication is a serving knob: a snapshot written without replicas
//     loads under any R;
//   - hedging respects the breakers: a backup never searches an open
//     replica, and a hedge race never strands a half-open probe.

#include <unistd.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../serve_test_util.h"
#include "../test_util.h"
#include "core/deadline.h"
#include "methods/factory.h"
#include "methods/hnsw_index.h"
#include "serve/fault_injector.h"
#include "serve/frontend.h"
#include "serve/request.h"
#include "shard/replica_set.h"
#include "shard/sharded_index.h"

namespace gass::shard {
namespace {

using core::Dataset;
using core::VectorId;

constexpr std::size_t kN = 600;
constexpr std::size_t kDim = 24;
constexpr std::uint64_t kSeed = 42;

ShardedIndexOptions MakeOptions(std::size_t shards, std::size_t replicas,
                                std::uint32_t breaker_threshold = 3) {
  ShardedIndexOptions options;
  options.method = "hnsw";
  options.partitioner.kind = PartitionerKind::kContiguous;
  options.partitioner.num_shards = shards;
  options.seed = kSeed;
  options.nprobe = 0;  // All shards: every replica set is exercised.
  options.replicas = replicas;
  options.breaker.failure_threshold = breaker_threshold;
  // No spontaneous probes: re-admission in these tests goes through the
  // forced probe, so a huge period keeps the sequences exactly scripted.
  options.breaker.probe_period = 1000000;
  return options;
}

methods::SearchParams MakeParams() {
  methods::SearchParams params;
  params.k = 10;
  params.beam_width = 48;
  return params;
}

/// Request-based search through a one-worker frontend seeded like the
/// index: the per-query RNG (and with it the replica selection key) derives
/// from (seed, admission id), so distinct ids exercise distinct replica
/// choices — unlike a fresh fixed-seed context. A positive
/// `deadline_seconds` gives the query a deadline. The frontend is gone when
/// this returns, so callers may reconfigure the index between searches.
serve::SearchResponse SearchId(const ShardedIndex& index, const float* query,
                               std::uint64_t id,
                               double deadline_seconds = 0.0) {
  serve::SearchRequest request;
  request.query = query;
  request.dim = kDim;
  request.params = MakeParams();
  request.params.admission_id = id;
  request.admission_id = id;
  if (deadline_seconds > 0.0) {
    request.deadline = core::Deadline::After(deadline_seconds);
    request.has_deadline = true;
  }
  serve::Frontend frontend(index,
                           gass::testing::BatchFrontendOptions(1, 1, kSeed));
  return frontend.Search(request);
}

/// Hedged serving options over one shard with two replicas: a backup
/// launches 10% into a query's deadline budget.
ShardedIndexOptions HedgedOptions() {
  ShardedIndexOptions options = MakeOptions(1, 2, /*breaker_threshold=*/1);
  options.fanout_threads = 4;
  options.hedge_fraction = 0.1;
  return options;
}

/// The layered graph of an HNSW replica, writable (the tests' stand-in for
/// memory corruption; the index itself only exposes it read-only). Built
/// and copied replicas hold layer 0 sealed (bit-packed), so the corruptions
/// below go through HnswGraph::SetNeighborForTesting, which writes one id
/// in either form.
methods::HnswGraph& MutableArena(const methods::GraphIndex& replica) {
  const auto& hnsw = dynamic_cast<const methods::HnswIndex&>(replica);
  return const_cast<methods::HnswGraph&>(hnsw.layered_graph());
}

/// Changes one neighbor id of vertex 0's base list in replica (s, r) — the
/// single-id corruption the anti-entropy scrubber exists to catch. The
/// replacement id stays in range, so searches remain safe, just wrong.
void CorruptReplica(const ShardedIndex& index, std::size_t s, std::size_t r) {
  methods::HnswGraph& arena = MutableArena(index.replica(s, r));
  const std::vector<VectorId> ids = arena.ToGraph(0).Neighbors(0);
  ASSERT_GT(ids.size(), 0u);
  VectorId id = (ids[0] + 1) % static_cast<VectorId>(arena.size());
  if (id == 0) id = 1;  // Never a self-loop.
  arena.SetNeighborForTesting(0, 0, 0, id);
}

/// Swaps the first two ids of one layer-1 list in replica (s, r): the base
/// layer, levels and entry point stay untouched, so only a digest that
/// covers the upper layers can see the divergence.
void CorruptUpperLayer(const ShardedIndex& index, std::size_t s,
                       std::size_t r) {
  methods::HnswGraph& arena = MutableArena(index.replica(s, r));
  ASSERT_GE(arena.num_layers(), 1u);
  const core::Graph layer1 = arena.ToGraph(1);
  for (VectorId v = 0; v < arena.size(); ++v) {
    const std::vector<VectorId>& ids = layer1.Neighbors(v);
    if (ids.size() < 2) continue;
    arena.SetNeighborForTesting(1, v, 0, ids[1]);
    arena.SetNeighborForTesting(1, v, 1, ids[0]);
    return;
  }
  FAIL() << "no layer-1 list with two ids to reorder";
}

TEST(ReplicaSetTest, ReplicasAreBitIdenticalByConstruction) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  ShardedIndex index(MakeOptions(2, 3));
  index.Build(data);
  ASSERT_EQ(index.num_replicas(), 3u);
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    const std::uint64_t digest0 = ReplicaDigest(index.replica(s, 0));
    EXPECT_EQ(ReplicaDigest(index.shard(s)), digest0);
    for (std::size_t r = 1; r < index.num_replicas(); ++r) {
      EXPECT_EQ(ReplicaDigest(index.replica(s, r)), digest0)
          << "shard " << s << " replica " << r;
    }
    // Replicas 1..R-1 are copies, not builds: each must equal what a
    // standalone build with the shard's derived seed produces.
    const Dataset rows = index.partitioning().ShardView(data, s).Materialize();
    auto standalone =
        methods::CreateIndex("hnsw", ShardedIndex::SubIndexSeed(kSeed, s));
    standalone->Build(rows);
    EXPECT_EQ(ReplicaDigest(*standalone), digest0) << "shard " << s;
  }
}

TEST(ReplicaSetTest, ReplicatedSearchMatchesUnreplicated) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  const Dataset queries =
      gass::testing::UniformQueries(8, kDim, 0.0f, 28.0f, 6);
  ShardedIndex single(MakeOptions(4, 1));
  single.Build(data);
  ShardedIndex replicated(MakeOptions(4, 3));
  replicated.Build(data);

  for (VectorId q = 0; q < queries.size(); ++q) {
    const auto a = SearchId(single, queries.Row(q), q);
    const auto b = SearchId(replicated, queries.Row(q), q);
    EXPECT_FALSE(b.partial);
    EXPECT_EQ(b.replica_failovers, 0u);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << "rank " << i;
      EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance);
    }
  }
}

TEST(ReplicaSetTest, ReplicaDigestCoversEveryLayer) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  ShardedIndex index(MakeOptions(1, 2));
  index.Build(data);
  const std::uint64_t before = ReplicaDigest(index.replica(0, 0));
  EXPECT_EQ(ReplicaDigest(index.replica(0, 0)), before);  // Deterministic.

  CorruptReplica(index, 0, 0);
  EXPECT_NE(ReplicaDigest(index.replica(0, 0)), before);
  CorruptUpperLayer(index, 0, 1);
  EXPECT_NE(ReplicaDigest(index.replica(0, 1)), before);
}

TEST(ReplicaSetTest, MajorityDigestPicksLargestGroupEarliestOnTies) {
  EXPECT_EQ(MajorityDigest({7u, 9u, 7u}), 7u);
  EXPECT_EQ(MajorityDigest({9u, 7u, 7u}), 7u);
  EXPECT_EQ(MajorityDigest({9u, 7u}), 9u);  // Tie: earliest replica wins.
  EXPECT_EQ(MajorityDigest({5u}), 5u);
}

TEST(ReplicaPickTest, DeterministicAndCoversAllReplicasWhenHealthy) {
  ShardBreakerOptions breaker;
  ShardHealthTable health(2, 3, breaker);
  std::vector<bool> picked(3, false);
  for (std::uint64_t key = 0; key < 64; ++key) {
    const std::size_t r = PickReplica(key, 0, 3, health);
    ASSERT_LT(r, 3u);
    EXPECT_EQ(PickReplica(key, 0, 3, health), r);  // Pure in (key, state).
    picked[r] = true;
  }
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_TRUE(picked[r]) << "replica " << r << " never selected";
  }
  EXPECT_EQ(PickReplica(123, 0, 1, health), 0u);  // R = 1: no choice.
}

TEST(ReplicaPickTest, AvoidsAnOpenReplica) {
  ShardBreakerOptions breaker;
  breaker.failure_threshold = 1;
  ShardHealthTable health(1, 2, breaker);
  health.OnResult(0, 0, false);  // Threshold 1: trips replica 0 at once.
  ASSERT_EQ(health.state(0, 0), BreakerState::kOpen);
  // Two draws over R = 2 always see both replicas, so the open one can
  // never win the health comparison.
  for (std::uint64_t key = 0; key < 64; ++key) {
    EXPECT_EQ(PickReplica(key, 0, 2, health), 1u);
  }
}

TEST(ReplicaPickTest, TieBreaksTowardFewerConsecutiveFailures) {
  ShardBreakerOptions breaker;  // Threshold 3: one failure stays closed.
  ShardHealthTable health(1, 2, breaker);
  health.OnResult(0, 0, false);
  ASSERT_EQ(health.state(0, 0), BreakerState::kClosed);
  for (std::uint64_t key = 0; key < 64; ++key) {
    EXPECT_EQ(PickReplica(key, 0, 2, health), 1u);
  }
  // The next success clears the count and replica 0 re-enters the draw.
  health.OnResult(0, 0, true);
  std::vector<bool> picked(2, false);
  for (std::uint64_t key = 0; key < 64; ++key) {
    picked[PickReplica(key, 0, 2, health)] = true;
  }
  EXPECT_TRUE(picked[0]);
  EXPECT_TRUE(picked[1]);
}

// The starvation case the forced-probe steering exists for: an open
// replica ranks last, so without the override a rebuilt replica would
// never be routed to again while its peer stays healthy.
TEST(ReplicaPickTest, ForcedProbeWinsOutright) {
  ShardBreakerOptions breaker;
  breaker.failure_threshold = 1;
  breaker.probe_period = 1000000;
  ShardHealthTable health(1, 2, breaker);
  health.OnResult(0, 0, false);
  ASSERT_EQ(health.state(0, 0), BreakerState::kOpen);
  health.OnReloaded(0, 0);
  ASSERT_TRUE(health.probe_pending(0, 0));

  // Every key steers at the probe-pending replica...
  for (std::uint64_t key = 0; key < 16; ++key) {
    EXPECT_EQ(PickReplica(key, 0, 2, health), 0u);
  }
  // ...exactly one routing decision is granted the probe...
  EXPECT_EQ(health.RouteDecision(0, 0), ShardRoute::kProbe);
  EXPECT_FALSE(health.probe_pending(0, 0));
  // ...and with the flag consumed (slot half-open), selection reverts to
  // the healthy peer until the probe resolves.
  for (std::uint64_t key = 0; key < 16; ++key) {
    EXPECT_EQ(PickReplica(key, 0, 2, health), 1u);
  }
  health.OnResult(0, 0, true);  // Probe passes: back in rotation.
  EXPECT_EQ(health.state(0, 0), BreakerState::kClosed);
  EXPECT_EQ(health.recoveries(), 1u);
}

// The headline acceptance drill: one replica of one shard fails on every
// query, and replication absorbs it completely — zero failed shards, zero
// partial queries, answers bit-identical to the fault-free run, failovers
// counted. Health-aware selection then learns: after the first failure the
// tie-break routes around the sick replica, so the failover count stays
// far below the query count.
TEST(ReplicaFailoverTest, PermanentReplicaFaultIsFullyMasked) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  const Dataset queries =
      gass::testing::UniformQueries(16, kDim, 0.0f, 28.0f, 6);

  ShardedIndex faulty(MakeOptions(4, 2));
  faulty.Build(data);
  ShardedIndex clean(MakeOptions(4, 2));
  clean.Build(data);

  serve::FaultPlan plan;
  serve::ShardFaultPlan fault;
  fault.shard = 1;
  fault.replica = 0;  // One bad copy; its peer stays healthy.
  fault.fail_period = 1;
  plan.shard_faults.push_back(fault);
  serve::FaultInjector faults(plan);
  faulty.SetFaultInjector(&faults);

  std::uint64_t total_failovers = 0;
  for (VectorId q = 0; q < queries.size(); ++q) {
    const auto got = SearchId(faulty, queries.Row(q), q);
    const auto want = SearchId(clean, queries.Row(q), q);
    EXPECT_FALSE(got.partial) << "query " << q;
    EXPECT_FALSE(got.expired);
    EXPECT_EQ(got.shards_failed, 0u);
    EXPECT_EQ(got.stats.shards_probed, 4u);
    total_failovers += got.replica_failovers;
    ASSERT_EQ(got.neighbors.size(), want.neighbors.size());
    for (std::size_t i = 0; i < got.neighbors.size(); ++i) {
      EXPECT_EQ(got.neighbors[i].id, want.neighbors[i].id)
          << "query " << q << " rank " << i;
      EXPECT_EQ(got.neighbors[i].distance, want.neighbors[i].distance);
    }
  }
  EXPECT_GE(total_failovers, 1u);
  EXPECT_EQ(faults.count(serve::FaultCounter::kShardFailures), total_failovers);
  // Selection learned to avoid the sick replica: most queries never
  // touched it, so failovers stayed well below one per query.
  EXPECT_LT(total_failovers, queries.size());
}

// Same drill through a serving frontend: a whole batch completes with zero
// query-level errors AND zero partials (contrast the unreplicated
// frontend drill in shard_fault_test.cc, where every query is partial).
TEST(ReplicaFailoverTest, FrontendBatchMasksAPermanentReplicaFault) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  const Dataset queries =
      gass::testing::UniformQueries(32, kDim, 0.0f, 28.0f, 6);

  auto options = MakeOptions(4, 2);
  options.fanout_threads = 2;
  ShardedIndex sharded(options);
  sharded.Build(data);

  serve::FaultPlan plan;
  serve::ShardFaultPlan fault;
  fault.shard = 2;
  fault.replica = 0;
  fault.fail_period = 1;
  plan.shard_faults.push_back(fault);
  serve::FaultInjector faults(plan);
  sharded.SetFaultInjector(&faults);

  serve::Frontend frontend(
      sharded, gass::testing::BatchFrontendOptions(2, queries.size(), kSeed));
  const std::vector<serve::SearchResponse> batch =
      gass::testing::ServeBatch(frontend, queries, MakeParams());

  ASSERT_EQ(batch.size(), queries.size());
  for (const serve::SearchResponse& response : batch) {
    EXPECT_FALSE(response.partial);
    EXPECT_EQ(response.shards_failed, 0u);
    EXPECT_EQ(response.neighbors.size(), 10u);
  }
  EXPECT_EQ(frontend.metrics().count(serve::ServeCounter::kPartial), 0u);
  EXPECT_EQ(frontend.metrics().TotalStats().shards_failed, 0u);
  EXPECT_GE(frontend.metrics().TotalStats().replica_failovers, 1u);
}

// A hedged backup starts on the next replica the breakers will route, so an
// open (quarantined, possibly divergent) replica never answers a query:
// with the only peer open, the backup falls back to the primary's replica.
TEST(ReplicaFailoverTest, HedgedBackupNeverSearchesAnOpenReplica) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  // Replica 1 fails every query. The second plan adds a slow primary
  // attempt, so the query hedges. Injectors before the index: the slow
  // primary outlives its query.
  serve::FaultPlan plan;
  serve::ShardFaultPlan fault;
  fault.shard = 0;
  fault.replica = 1;
  fault.fail_period = 1;
  plan.shard_faults.push_back(fault);
  serve::FaultInjector trip(plan);
  plan.shard_faults[0].slow_period = 1;
  plan.shard_faults[0].slow_seconds = 0.3;
  plan.shard_faults[0].slow_attempts = 1;
  serve::FaultInjector slow(plan);

  ShardedIndex index(HedgedOptions());
  index.Build(data);
  index.SetFaultInjector(&trip);
  for (std::uint64_t id = 0;
       id < 16 && index.health().state(0, 1) != BreakerState::kOpen; ++id) {
    SearchId(index, data.Row(0), id);
  }
  ASSERT_EQ(index.health().state(0, 1), BreakerState::kOpen);

  index.SetFaultInjector(&slow);
  const auto response = SearchId(index, data.Row(0), 100, /*deadline=*/1.0);
  EXPECT_EQ(response.shards_hedged, 1u);
  EXPECT_FALSE(response.partial);
  EXPECT_EQ(response.replica_failovers, 0u);
  EXPECT_EQ(slow.count(serve::FaultCounter::kShardFailures), 0u);
  EXPECT_EQ(index.health().state(0, 1), BreakerState::kOpen);
}

// A hedge race never strands a half-open probe: the primary takes a
// rebuilt replica's forced probe and is slow, the backup wins on the peer,
// and the primary's later success still closes the probed replica's
// breaker — every attempt reports to the breaker it ran on.
TEST(ReplicaFailoverTest, HedgeWinOnAPeerDoesNotStrandTheProbe) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  serve::FaultPlan plan;
  serve::ShardFaultPlan fault;
  fault.shard = 0;
  fault.slow_period = 1;
  fault.slow_seconds = 0.4;
  fault.slow_attempts = 1;  // Only the primary attempt is slow.
  plan.shard_faults.push_back(fault);
  serve::FaultInjector slow(plan);  // Outlives the slow primary.

  ShardedIndex index(HedgedOptions());
  index.Build(data);
  CorruptReplica(index, 0, 1);
  ASSERT_EQ(index.ScrubReplicas(/*rebuild=*/true).rebuilt, 1u);
  ASSERT_TRUE(index.health().probe_pending(0, 1));

  index.SetFaultInjector(&slow);
  const auto hedged = SearchId(index, data.Row(0), 0, /*deadline=*/1.0);
  EXPECT_FALSE(hedged.partial);
  EXPECT_EQ(hedged.shards_hedged, 1u);
  EXPECT_EQ(hedged.stats.hedge_wins, 1u);

  index.SetFaultInjector(nullptr);
  index.SetFanoutThreads(0);  // Drains the slow primary.
  for (std::uint64_t id = 1; id <= 100; ++id) {
    SearchId(index, data.Row(id % kN), id);
  }
  EXPECT_EQ(index.health().state(0, 1), BreakerState::kClosed);
  EXPECT_GE(index.health().recoveries(), 1u);
  const std::string summary = index.health().Summary();
  EXPECT_NE(summary.find("0 half-open"), std::string::npos) << summary;
}

// The full anti-entropy lifecycle: a bit-flip diverges one replica, the
// scrubber quarantines and rebuilds it online (peer copy — no snapshot is
// recorded), and the forced half-open probe re-admits it into rotation.
TEST(ReplicaScrubTest, ScrubDetectsQuarantinesRebuildsAndReadmits) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  const Dataset queries =
      gass::testing::UniformQueries(8, kDim, 0.0f, 28.0f, 6);
  ShardedIndex index(MakeOptions(2, 3));
  index.Build(data);

  // A clean pass over 2 shards * 3 replicas finds nothing.
  ScrubReport clean = index.ScrubReplicas(/*rebuild=*/true);
  EXPECT_EQ(clean.replicas_checked, 6u);
  EXPECT_EQ(clean.divergent, 0u);
  EXPECT_EQ(clean.quarantined, 0u);

  CorruptReplica(index, 0, 1);
  const std::uint64_t majority = ReplicaDigest(index.replica(0, 0));
  ASSERT_NE(ReplicaDigest(index.replica(0, 1)), majority);

  const ScrubReport report = index.ScrubReplicas(/*rebuild=*/true);
  EXPECT_EQ(report.replicas_checked, 6u);
  EXPECT_EQ(report.divergent, 1u);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.rebuilt, 1u);
  EXPECT_EQ(report.rebuild_failures, 0u);
  EXPECT_EQ(index.health().quarantines(), 1u);

  // The rebuilt copy is bit-identical to the majority again, its breaker
  // generation bumped, and it sits open with its re-admission probe armed.
  EXPECT_EQ(ReplicaDigest(index.replica(0, 1)), majority);
  EXPECT_EQ(index.health().generation(0, 1), 1u);
  EXPECT_EQ(index.health().state(0, 1), BreakerState::kOpen);
  EXPECT_TRUE(index.health().probe_pending(0, 1));

  // Serving traffic delivers the forced probe: replica selection steers
  // one query at the probe-pending slot (when its draw includes it), the
  // probe passes, and the breaker closes. With R = 3 the slot is in a
  // given query's draw ~2/3 of the time, so a handful of ids suffice.
  for (std::uint64_t id = 0;
       id < 32 && index.health().state(0, 1) != BreakerState::kClosed; ++id) {
    const auto response =
        SearchId(index, queries.Row(id % queries.size()), id);
    EXPECT_FALSE(response.partial);
    EXPECT_EQ(response.shards_failed, 0u);
  }
  EXPECT_EQ(index.health().state(0, 1), BreakerState::kClosed);
  EXPECT_GE(index.health().recoveries(), 1u);

  // Converged: the next pass sees three identical digests per shard.
  const ScrubReport after = index.ScrubReplicas(/*rebuild=*/true);
  EXPECT_EQ(after.divergent, 0u);
}

// Corruption confined to an upper HNSW layer — invisible to a base-layer
// digest — still diverges the replica's digest, so the scrubber catches it
// and the peer copy restores it.
TEST(ReplicaScrubTest, ScrubCatchesAnUpperLayerOnlyDivergence) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  ShardedIndex index(MakeOptions(2, 3));
  index.Build(data);
  const std::uint64_t majority = ReplicaDigest(index.replica(1, 0));
  CorruptUpperLayer(index, 1, 2);

  const ScrubReport report = index.ScrubReplicas(/*rebuild=*/true);
  EXPECT_EQ(report.divergent, 1u);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.rebuilt, 1u);
  EXPECT_EQ(ReplicaDigest(index.replica(1, 2)), majority);
  EXPECT_TRUE(index.health().probe_pending(1, 2));
}

// The peer copy never touches the filesystem: it succeeds even when
// TMPDIR names a directory that does not exist.
TEST(ReplicaScrubTest, PeerCopyNeedsNoWritableTempDir) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  ShardedIndex index(MakeOptions(2, 2));
  index.Build(data);
  const std::uint64_t majority = ReplicaDigest(index.replica(0, 0));
  CorruptReplica(index, 0, 1);

  const char* saved = std::getenv("TMPDIR");
  const std::string old = saved != nullptr ? saved : "";
  ASSERT_EQ(::setenv("TMPDIR", "/nonexistent/gass-replica-test", 1), 0);
  const core::Status status = index.RebuildReplica(0, 1);
  if (saved != nullptr) {
    ::setenv("TMPDIR", old.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(ReplicaDigest(index.replica(0, 1)), majority);
}

TEST(ReplicaScrubTest, RebuildRestoresFromTheRecoverySnapshot) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  ShardedIndex index(MakeOptions(2, 2));
  index.Build(data);
  const std::string path = std::string(::testing::TempDir()) +
                           "/replica_rebuild_" + std::to_string(::getpid());
  ASSERT_TRUE(methods::SaveIndex(index, path).ok());
  index.SetRecoverySnapshot(path);

  const std::uint64_t majority = ReplicaDigest(index.replica(1, 0));
  CorruptReplica(index, 1, 1);
  ASSERT_NE(ReplicaDigest(index.replica(1, 1)), majority);

  ASSERT_TRUE(index.RebuildReplica(1, 1).ok());
  EXPECT_EQ(ReplicaDigest(index.replica(1, 1)), majority);
  EXPECT_EQ(index.health().generation(1, 1), 1u);
  EXPECT_TRUE(index.health().probe_pending(1, 1));
  // Untouched slots are untouched.
  EXPECT_EQ(index.health().generation(1, 0), 0u);
  EXPECT_EQ(index.health().generation(0, 1), 0u);
}

TEST(ReplicaScrubTest, SingleReplicaScrubHasNoMajorityToCompare) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  ShardedIndex index(MakeOptions(3, 1));
  index.Build(data);
  const ScrubReport report = index.ScrubReplicas(/*rebuild=*/true);
  EXPECT_EQ(report.replicas_checked, 3u);
  EXPECT_EQ(report.divergent, 0u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(report.rebuilt, 0u);
}

// Replication is a serving knob, not a snapshot property: a snapshot
// written by an unreplicated index loads under R = 2, every replica loads
// from the same shard sections, and answers match the R = 1 load exactly.
TEST(ReplicaSnapshotTest, SnapshotLoadsUnderAnyReplicationFactor) {
  const Dataset data = gass::testing::SmallClustered(kN, kDim, 5);
  const Dataset queries =
      gass::testing::UniformQueries(6, kDim, 0.0f, 28.0f, 6);
  ShardedIndex built(MakeOptions(2, 1));
  built.Build(data);
  const std::string path = std::string(::testing::TempDir()) +
                           "/replica_snapshot_" + std::to_string(::getpid());
  ASSERT_TRUE(methods::SaveIndex(built, path).ok());

  std::unique_ptr<ShardedIndex> single;
  ASSERT_TRUE(LoadShardedIndex(path, data, kSeed, 1, &single).ok());
  ASSERT_EQ(single->num_replicas(), 1u);

  std::unique_ptr<ShardedIndex> replicated;
  ASSERT_TRUE(LoadShardedIndex(path, data, kSeed, 2, &replicated).ok());
  ASSERT_EQ(replicated->num_replicas(), 2u);
  for (std::size_t s = 0; s < replicated->num_shards(); ++s) {
    EXPECT_EQ(ReplicaDigest(replicated->replica(s, 0)),
              ReplicaDigest(replicated->replica(s, 1)));
  }

  for (VectorId q = 0; q < queries.size(); ++q) {
    const auto a = SearchId(*single, queries.Row(q), q);
    const auto b = SearchId(*replicated, queries.Row(q), q);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << "rank " << i;
      EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance);
    }
  }
}

}  // namespace
}  // namespace gass::shard
