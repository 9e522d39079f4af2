// ShardHealthTable state-machine contract (see shard/shard_health.h):
//   - failure_threshold consecutive failures trip closed -> open, and
//     OnResult reports the trip exactly once;
//   - while open, every probe_period-th routing decision is granted a
//     half-open probe and concurrent decisions cannot double-grant;
//   - a passing probe closes the breaker, a failing probe re-opens it and
//     restarts the probe countdown;
//   - OnProbeAbandoned releases half-open back to open without counting a
//     failure;
//   - OnReloaded bumps the generation and forces the next decision to
//     probe without closing the breaker;
//   - threshold 0 disables the breaker entirely.
// Plus the serve::FaultInjector shard-plan units the fault suite builds on.

#include "shard/shard_health.h"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/fault_injector.h"

namespace gass::shard {
namespace {

ShardBreakerOptions MakeOptions(std::uint32_t threshold,
                                std::uint64_t probe_period) {
  ShardBreakerOptions options;
  options.failure_threshold = threshold;
  options.probe_period = probe_period;
  return options;
}

TEST(ShardHealthTest, StartsClosedAndRoutesNormally) {
  ShardHealthTable health(4, 1, MakeOptions(3, 16));
  EXPECT_TRUE(health.enabled());
  EXPECT_EQ(health.num_shards(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(health.state(s), BreakerState::kClosed);
    EXPECT_EQ(health.RouteDecision(s), ShardRoute::kSearch);
  }
  EXPECT_EQ(health.trips(), 0u);
  EXPECT_EQ(health.skips(), 0u);
}

TEST(ShardHealthTest, ConsecutiveFailuresTripExactlyAtThreshold) {
  ShardHealthTable health(2, 1, MakeOptions(3, 16));
  EXPECT_FALSE(health.OnResult(0, false));
  EXPECT_FALSE(health.OnResult(0, false));
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
  EXPECT_EQ(health.consecutive_failures(0), 2u);
  // The third consecutive failure trips, and reports the trip exactly once.
  EXPECT_TRUE(health.OnResult(0, false));
  EXPECT_EQ(health.state(0), BreakerState::kOpen);
  EXPECT_EQ(health.trips(), 1u);
  EXPECT_FALSE(health.OnResult(0, false));
  EXPECT_EQ(health.trips(), 1u);
  // The other shard is untouched.
  EXPECT_EQ(health.state(1), BreakerState::kClosed);
}

TEST(ShardHealthTest, SuccessResetsTheFailureStreak) {
  ShardHealthTable health(1, 1, MakeOptions(3, 16));
  health.OnResult(0, false);
  health.OnResult(0, false);
  health.OnResult(0, true);  // Streak broken.
  health.OnResult(0, false);
  health.OnResult(0, false);
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
  EXPECT_EQ(health.trips(), 0u);
}

TEST(ShardHealthTest, OpenBreakerSkipsAndProbesEveryNthDecision) {
  ShardHealthTable health(1, 1, MakeOptions(1, 4));
  EXPECT_TRUE(health.OnResult(0, false));  // Threshold 1: trips immediately.
  // Decisions 1..3 skip; decision 4 is granted the half-open probe.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(health.RouteDecision(0), ShardRoute::kSkip) << "decision " << i;
  }
  EXPECT_EQ(health.RouteDecision(0), ShardRoute::kProbe);
  EXPECT_EQ(health.state(0), BreakerState::kHalfOpen);
  EXPECT_EQ(health.probes_granted(), 1u);
  EXPECT_EQ(health.skips(), 3u);
  // While the probe is in flight every other decision skips — no
  // double-grant.
  EXPECT_EQ(health.RouteDecision(0), ShardRoute::kSkip);
  EXPECT_EQ(health.probes_granted(), 1u);
}

TEST(ShardHealthTest, PassingProbeClosesTheBreaker) {
  ShardHealthTable health(1, 1, MakeOptions(1, 1));
  health.OnResult(0, false);
  ASSERT_EQ(health.RouteDecision(0), ShardRoute::kProbe);
  EXPECT_FALSE(health.OnResult(0, true));
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
  EXPECT_EQ(health.recoveries(), 1u);
  EXPECT_EQ(health.RouteDecision(0), ShardRoute::kSearch);
}

TEST(ShardHealthTest, FailingProbeReopensAndRestartsTheCountdown) {
  ShardHealthTable health(1, 1, MakeOptions(1, 4));
  health.OnResult(0, false);
  for (int i = 0; i < 3; ++i) health.RouteDecision(0);
  ASSERT_EQ(health.RouteDecision(0), ShardRoute::kProbe);
  EXPECT_FALSE(health.OnResult(0, false));  // Probe failure is not a trip.
  EXPECT_EQ(health.state(0), BreakerState::kOpen);
  EXPECT_EQ(health.trips(), 1u);
  EXPECT_EQ(health.recoveries(), 0u);
  // The countdown restarted: the next probe is a full period away again.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(health.RouteDecision(0), ShardRoute::kSkip) << "decision " << i;
  }
  EXPECT_EQ(health.RouteDecision(0), ShardRoute::kProbe);
}

TEST(ShardHealthTest, AbandonedProbeReleasesHalfOpenWithoutAFailure) {
  ShardHealthTable health(1, 1, MakeOptions(1, 1));
  health.OnResult(0, false);
  ASSERT_EQ(health.RouteDecision(0), ShardRoute::kProbe);
  health.OnProbeAbandoned(0);
  EXPECT_EQ(health.state(0), BreakerState::kOpen);
  // A later query can probe again.
  EXPECT_EQ(health.RouteDecision(0), ShardRoute::kProbe);
  // Abandoning a shard that is not half-open is a no-op.
  EXPECT_FALSE(health.OnResult(0, true));
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
  health.OnProbeAbandoned(0);
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
}

TEST(ShardHealthTest, ReloadForcesAProbeWithoutClosing) {
  ShardHealthTable health(1, 1, MakeOptions(1, 1000000));
  health.OnResult(0, false);
  EXPECT_EQ(health.generation(0), 0u);
  health.OnReloaded(0);
  EXPECT_EQ(health.generation(0), 1u);
  EXPECT_EQ(health.consecutive_failures(0), 0u);
  // Not closed: re-entry goes through the half-open probe...
  EXPECT_EQ(health.state(0), BreakerState::kOpen);
  // ...which the reload forces immediately, long before the probe period.
  EXPECT_EQ(health.RouteDecision(0), ShardRoute::kProbe);
  EXPECT_FALSE(health.OnResult(0, true));
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
  EXPECT_EQ(health.recoveries(), 1u);
}

TEST(ShardHealthTest, ThresholdZeroDisablesTheBreaker) {
  ShardHealthTable health(2, 1, MakeOptions(0, 16));
  EXPECT_FALSE(health.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(health.OnResult(0, false));
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
  EXPECT_EQ(health.RouteDecision(0), ShardRoute::kSearch);
  EXPECT_EQ(health.trips(), 0u);
}

TEST(ShardHealthTest, SummaryCountsStatesAndTransitions) {
  ShardHealthTable health(3, 1, MakeOptions(1, 1));
  health.OnResult(1, false);
  const std::string summary = health.Summary();
  EXPECT_NE(summary.find("2/3 closed"), std::string::npos) << summary;
  EXPECT_NE(summary.find("1 open"), std::string::npos) << summary;
  EXPECT_NE(summary.find("trips 1"), std::string::npos) << summary;
}

TEST(ShardHealthTest, ReplicaSlotsAreIndependent) {
  ShardHealthTable health(2, 3, MakeOptions(1, 1000000));
  EXPECT_EQ(health.num_replicas(), 3u);
  health.OnResult(1, 2, false);  // Trips (shard 1, replica 2) only.
  EXPECT_EQ(health.state(1, 2), BreakerState::kOpen);
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t r = 0; r < 3; ++r) {
      if (s == 1 && r == 2) continue;
      EXPECT_EQ(health.state(s, r), BreakerState::kClosed)
          << "slot (" << s << ", " << r << ")";
    }
  }
  // The (shard)-only overloads are exact aliases for replica 0.
  health.OnResult(0, false);
  EXPECT_EQ(health.state(0, 0), BreakerState::kOpen);
  EXPECT_EQ(health.state(0), health.state(0, 0));
  EXPECT_EQ(health.consecutive_failures(0), health.consecutive_failures(0, 0));
}

TEST(ShardHealthTest, QuarantineForcesOpenFromAnyState) {
  ShardHealthTable health(1, 2, MakeOptions(3, 1));
  // From closed: trips and counts the quarantine.
  health.Quarantine(0, 1);
  EXPECT_EQ(health.state(0, 1), BreakerState::kOpen);
  EXPECT_EQ(health.quarantines(), 1u);
  EXPECT_EQ(health.trips(), 1u);
  // From open: counts the quarantine but not a second trip.
  health.Quarantine(0, 1);
  EXPECT_EQ(health.quarantines(), 2u);
  EXPECT_EQ(health.trips(), 1u);
  // From half-open (probe in flight): the probe's slot is yanked open.
  ASSERT_EQ(health.RouteDecision(0, 1), ShardRoute::kProbe);
  health.Quarantine(0, 1);
  EXPECT_EQ(health.state(0, 1), BreakerState::kOpen);
  EXPECT_EQ(health.trips(), 2u);  // half-open -> open counts as a trip.
}

// Summary() snapshots racing slot transitions; the invariant is that every
// snapshot is internally coherent (states sum to the slot count) and the
// run is TSan-clean — the test exists for `ctest --preset tsan-fault`.
TEST(ShardHealthTest, SummaryIsCoherentUnderConcurrentTransitions) {
  ShardHealthTable health(4, 2, MakeOptions(2, 3));
  constexpr int kWorkers = 4;
  constexpr int kIterations = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&health, w] {
      for (int i = 0; i < kIterations; ++i) {
        const std::size_t s = static_cast<std::size_t>((w + i) % 4);
        const std::size_t r = static_cast<std::size_t>(i % 2);
        const ShardRoute route = health.RouteDecision(s, r);
        if (route != ShardRoute::kSkip) {
          health.OnResult(s, r, i % 3 != 0);
        }
        if (i % 97 == 0) health.OnReloaded(s, r);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    const std::string summary = health.Summary();
    std::size_t closed = 0, total = 0, open = 0, half_open = 0;
    ASSERT_EQ(std::sscanf(summary.c_str(),
                          "breaker: %zu/%zu closed, %zu open, %zu half-open",
                          &closed, &total, &open, &half_open),
              4)
        << summary;
    EXPECT_EQ(total, 8u) << summary;
    EXPECT_EQ(closed + open + half_open, total) << summary;
  }
  for (std::thread& t : workers) t.join();
  // Every open slot got there via a trip or a quarantine, so recoveries
  // (transitions back to closed from a non-closed state) cannot exceed
  // the transitions away from closed.
  EXPECT_LE(health.recoveries(), health.trips() + health.quarantines());
}

TEST(ShardHealthTest, StateNames) {
  EXPECT_STREQ(BreakerStateName(BreakerState::kClosed), "closed");
  EXPECT_STREQ(BreakerStateName(BreakerState::kOpen), "open");
  EXPECT_STREQ(BreakerStateName(BreakerState::kHalfOpen), "half-open");
}

// --- serve::FaultInjector shard-fault plan ---

/// Asks whether a plan would fault any replica of the shard.
constexpr std::int32_t kAnyReplica = -1;

serve::FaultPlan OneShardPlan(std::uint32_t shard, std::uint64_t fail_period,
                              std::uint64_t slow_period = 0,
                              std::uint64_t reload_corrupt_times = 0) {
  serve::FaultPlan plan;
  serve::ShardFaultPlan fault;
  fault.shard = shard;
  fault.fail_period = fail_period;
  fault.slow_period = slow_period;
  fault.slow_seconds = 0.001;
  fault.reload_corrupt_times = reload_corrupt_times;
  plan.shard_faults.push_back(fault);
  return plan;
}

TEST(ShardFaultPlanTest, FailPeriodKeysOnAdmissionIdAndShard) {
  serve::FaultInjector faults(OneShardPlan(2, 3));
  // Only shard 2 is planned; every 3rd admission id fires.
  EXPECT_TRUE(faults.ShouldFailShardSearch(0, 2, kAnyReplica));
  EXPECT_FALSE(faults.ShouldFailShardSearch(1, 2, kAnyReplica));
  EXPECT_FALSE(faults.ShouldFailShardSearch(2, 2, kAnyReplica));
  EXPECT_TRUE(faults.ShouldFailShardSearch(3, 2, kAnyReplica));
  EXPECT_FALSE(faults.ShouldFailShardSearch(0, 1, kAnyReplica));
  EXPECT_FALSE(faults.ShouldFailShardSearch(3, 0, kAnyReplica));
  faults.Count(serve::FaultCounter::kShardFailures);
  EXPECT_EQ(faults.count(serve::FaultCounter::kShardFailures), 1u);
}

TEST(ShardFaultPlanTest, SlowPlanDelaysOnlyEarlyAttempts) {
  serve::FaultPlan plan = OneShardPlan(0, 0, /*slow_period=*/1);
  plan.shard_faults[0].slow_attempts = 1;
  serve::FaultInjector faults(plan);
  EXPECT_GT(faults.ShardSearchDelaySeconds(0, 0, /*attempt=*/0), 0.0);
  // attempt 1 (the hedged backup) models a healthy replica: no delay.
  EXPECT_EQ(faults.ShardSearchDelaySeconds(0, 0, /*attempt=*/1), 0.0);
  EXPECT_EQ(faults.ShardSearchDelaySeconds(0, 1, 0), 0.0);  // Other shard.
  faults.OnShardSearch(0, 0, 0);
  EXPECT_EQ(faults.count(serve::FaultCounter::kShardDelays), 1u);
  faults.OnShardSearch(0, 0, 1);
  EXPECT_EQ(faults.count(serve::FaultCounter::kShardDelays), 1u);
}

TEST(ShardFaultPlanTest, ReloadCorruptionFiresFirstNTimes) {
  serve::FaultInjector faults(OneShardPlan(1, 0, 0, /*reload_corrupt=*/2));
  EXPECT_TRUE(faults.OnShardReload(1));
  EXPECT_TRUE(faults.OnShardReload(1));
  EXPECT_FALSE(faults.OnShardReload(1));  // Third reload succeeds.
  EXPECT_FALSE(faults.OnShardReload(0));  // Unplanned shard never corrupts.
  EXPECT_EQ(faults.count(serve::FaultCounter::kReloadCorruptions), 2u);
}

TEST(ShardFaultPlanTest, ReplicaTargetedFailHitsOnlyThatReplica) {
  serve::FaultPlan plan = OneShardPlan(1, /*fail_period=*/2);
  plan.shard_faults[0].replica = 1;
  serve::FaultInjector faults(plan);
  // The 3-argument form honors the replica target...
  EXPECT_TRUE(faults.ShouldFailShardSearch(0, 1, /*replica=*/1));
  EXPECT_FALSE(faults.ShouldFailShardSearch(0, 1, /*replica=*/0));
  EXPECT_FALSE(faults.ShouldFailShardSearch(1, 1, /*replica=*/1));  // Period.
  EXPECT_FALSE(faults.ShouldFailShardSearch(0, 0, /*replica=*/1));  // Shard.
  // ...while asking about any replica fires if one replica would fault.
  EXPECT_TRUE(faults.ShouldFailShardSearch(0, 1, kAnyReplica));

  // The default plan (replica = -1) matches every replica: the whole
  // shard is sick.
  serve::FaultInjector shard_wide(OneShardPlan(1, 2));
  EXPECT_TRUE(shard_wide.ShouldFailShardSearch(0, 1, 0));
  EXPECT_TRUE(shard_wide.ShouldFailShardSearch(0, 1, 3));
}

TEST(ShardFaultPlanTest, EmptyPlanInjectsNothing) {
  serve::FaultInjector faults;
  EXPECT_FALSE(faults.ShouldFailShardSearch(0, 0, kAnyReplica));
  EXPECT_EQ(faults.ShardSearchDelaySeconds(0, 0, 0), 0.0);
  EXPECT_FALSE(faults.OnShardReload(0));
}

}  // namespace
}  // namespace gass::shard
