#include "serve/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/exporter.h"

namespace gass::serve {
namespace {

// One filled-in kServeCounters row per ServeCounter, in enum order.
constexpr bool ServeCounterTableIsComplete() {
  for (std::size_t i = 0; i < kNumServeCounters; ++i) {
    const ServeCounterInfo& row = kServeCounters[i];
    if (static_cast<std::size_t>(row.counter) != i) return false;
    for (const char* text : {row.name, row.label, row.help}) {
      if (text == nullptr || text[0] == '\0') return false;
    }
  }
  return true;
}
static_assert(ServeCounterTableIsComplete(),
              "kServeCounters needs one non-empty row per ServeCounter");

TEST(LatencyHistogramTest, EmptyQuantileIsZero) {
  obs::LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.QuantileSeconds(0.5), 0.0);
}

TEST(LatencyHistogramTest, SingleSampleQuantileNearSample) {
  obs::LatencyHistogram histogram;
  histogram.Record(0.001);  // 1 ms
  EXPECT_EQ(histogram.count(), 1u);
  // Log-bucketing bounds the relative error to one sub-bucket (~12.5%).
  EXPECT_NEAR(histogram.QuantileSeconds(0.5), 0.001, 0.001 * 0.15);
}

TEST(LatencyHistogramTest, QuantilesOrderedOnSpread) {
  obs::LatencyHistogram histogram;
  // 90 fast samples at 1ms, 10 slow at 100ms: p50 fast, p99 slow.
  for (int i = 0; i < 90; ++i) histogram.Record(0.001);
  for (int i = 0; i < 10; ++i) histogram.Record(0.100);
  const double p50 = histogram.QuantileSeconds(0.50);
  const double p95 = histogram.QuantileSeconds(0.95);
  const double p99 = histogram.QuantileSeconds(0.99);
  EXPECT_NEAR(p50, 0.001, 0.001 * 0.15);
  EXPECT_NEAR(p95, 0.100, 0.100 * 0.15);
  EXPECT_NEAR(p99, 0.100, 0.100 * 0.15);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
}

TEST(LatencyHistogramTest, ExtremeSamplesClampWithoutCrashing) {
  obs::LatencyHistogram histogram;
  histogram.Record(0.0);
  histogram.Record(-1.0);     // Nonsense input clamps to the bottom bucket.
  histogram.Record(1e9);      // ~31 years clamps to the top bucket.
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_GT(histogram.QuantileSeconds(1.0), histogram.QuantileSeconds(0.0));
}

TEST(LatencyHistogramTest, TopBucketSaturatesInsteadOfWrapping) {
  // Overload spikes can produce absurd elapsed times (stalled clocks,
  // multi-hour hangs, or garbage from a fault injector). The histogram must
  // pin them to the top bucket — a float-to-uint64 overflow would wrap to a
  // *low* bucket and silently drag p99 down exactly when it matters most.
  obs::LatencyHistogram histogram;
  histogram.Record(1e18);  // ~31 billion years in seconds.
  histogram.Record(std::numeric_limits<double>::max());
  histogram.Record(std::numeric_limits<double>::infinity());
  histogram.Record(std::numeric_limits<double>::quiet_NaN());
  histogram.Record(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(histogram.count(), 5u);
  // The three huge samples all land in the top bucket, so the upper
  // quantiles report the histogram's maximum representable latency rather
  // than a wrapped-around small value.
  const double top = histogram.QuantileSeconds(1.0);
  EXPECT_GT(top, 1.0);                       // Far above any real latency...
  EXPECT_TRUE(std::isfinite(top));           // ...but still a finite bucket.
  EXPECT_GE(histogram.QuantileSeconds(0.9), top * 0.5);
  // NaN and -inf clamp to the bottom bucket, not UB.
  EXPECT_LT(histogram.QuantileSeconds(0.0), 1e-6);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllCounted) {
  obs::LatencyHistogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(1e-6 * (t + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(LatencyHistogramTest, ResetEmptiesIt) {
  obs::LatencyHistogram histogram;
  histogram.Record(0.01);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.QuantileSeconds(0.5), 0.0);
}

TEST(ServeMetricsTest, AggregatesQueries) {
  ServeMetrics metrics;
  core::SearchStats stats;
  stats.distance_computations = 40;
  stats.hops = 12;
  stats.elapsed_seconds = 0.002;
  metrics.RecordQuery(stats);
  metrics.RecordQuery(stats);
  EXPECT_EQ(metrics.queries(), 2u);
  const core::SearchStats total = metrics.TotalStats();
  EXPECT_EQ(total.distance_computations, 80u);
  EXPECT_EQ(total.hops, 24u);
  EXPECT_NEAR(metrics.LatencyQuantileSeconds(0.5), 0.002, 0.002 * 0.15);
  EXPECT_GT(metrics.Qps(), 0.0);
}

TEST(ServeMetricsTest, DumpMentionsKeyFigures) {
  ServeMetrics metrics;
  core::SearchStats stats;
  stats.distance_computations = 10;
  stats.elapsed_seconds = 0.001;
  stats.deadline_expiries = 1;
  metrics.RecordQuery(stats);
  const std::string dump = metrics.Dump();
  EXPECT_NE(dump.find("queries"), std::string::npos);
  EXPECT_NE(dump.find("qps"), std::string::npos);
  EXPECT_NE(dump.find("p50"), std::string::npos);
  EXPECT_NE(dump.find("p99"), std::string::npos);
  EXPECT_NE(dump.find("deadline"), std::string::npos);
}

TEST(ServeMetricsTest, CountsExpiredQueriesSeparatelyFromExpiryEvents) {
  ServeMetrics metrics;
  core::SearchStats stats;
  stats.elapsed_seconds = 0.001;
  // One query with three expiry events (e.g. an ELPIS query whose deadline
  // fired in three leaf searches) is still ONE expired query.
  stats.deadline_expiries = 3;
  metrics.RecordQuery(stats, /*expired=*/true);
  core::SearchStats clean;
  clean.elapsed_seconds = 0.001;
  metrics.RecordQuery(clean, /*expired=*/false);
  metrics.RecordQuery(clean);  // Default: not expired.
  EXPECT_EQ(metrics.queries(), 3u);
  EXPECT_EQ(metrics.count(ServeCounter::kExpired), 1u);
  EXPECT_EQ(metrics.TotalStats().deadline_expiries, 3u);
  EXPECT_NE(metrics.Dump().find("expired"), std::string::npos);
}

TEST(ServeMetricsTest, FanoutAccountingFromShardsProbed) {
  ServeMetrics metrics;
  core::SearchStats plain;
  plain.elapsed_seconds = 0.001;
  metrics.RecordQuery(plain);  // Unsharded query: no fan-out.
  core::SearchStats fanned;
  fanned.elapsed_seconds = 0.001;
  fanned.shards_probed = 3;
  metrics.RecordQuery(fanned);
  metrics.RecordQuery(fanned);
  EXPECT_EQ(metrics.queries(), 3u);
  EXPECT_EQ(metrics.count(ServeCounter::kFanout), 2u);
  EXPECT_EQ(metrics.TotalStats().shards_probed, 6u);
  const std::string dump = metrics.Dump();
  EXPECT_NE(dump.find("fan-out"), std::string::npos);
  EXPECT_NE(dump.find("shards probed"), std::string::npos);
  metrics.Reset();
  EXPECT_EQ(metrics.count(ServeCounter::kFanout), 0u);
  EXPECT_EQ(metrics.TotalStats().shards_probed, 0u);
}

TEST(ServeMetricsTest, ShedQueriesCountedWithoutPollutingLatency) {
  ServeMetrics metrics;
  metrics.Add(ServeCounter::kShed);
  metrics.Add(ServeCounter::kShed);
  EXPECT_EQ(metrics.count(ServeCounter::kShed), 2u);
  // Shed queries never executed: they contribute no latency samples and do
  // not count as served queries.
  EXPECT_EQ(metrics.queries(), 0u);
  EXPECT_DOUBLE_EQ(metrics.LatencyQuantileSeconds(0.5), 0.0);
  EXPECT_NE(metrics.Dump().find("shed"), std::string::npos);
}

TEST(ServeMetricsTest, DegradeStepOccupancyAndDegradedCount) {
  ServeMetrics metrics;
  metrics.RecordDegradeStep(0);  // Full effort: occupancy only.
  metrics.RecordDegradeStep(0);
  metrics.RecordDegradeStep(1);
  metrics.RecordDegradeStep(3);
  metrics.RecordDegradeStep(3);
  EXPECT_EQ(metrics.count(ServeCounter::kDegraded), 3u);  // Steps > 0 only.
  EXPECT_EQ(metrics.degrade_step_count(0), 2u);
  EXPECT_EQ(metrics.degrade_step_count(1), 1u);
  EXPECT_EQ(metrics.degrade_step_count(2), 0u);
  EXPECT_EQ(metrics.degrade_step_count(3), 2u);
  // Steps beyond the tracked range clamp into the last slot rather than
  // indexing out of bounds.
  metrics.RecordDegradeStep(ServeMetrics::kMaxDegradeSteps + 5);
  EXPECT_EQ(metrics.degrade_step_count(ServeMetrics::kMaxDegradeSteps - 1),
            1u);
  // The read side clamps the same way, so querying past the range reads the
  // last slot instead of indexing out of bounds.
  EXPECT_EQ(metrics.degrade_step_count(ServeMetrics::kMaxDegradeSteps), 1u);
  EXPECT_NE(metrics.Dump().find("degraded"), std::string::npos);
}

TEST(ServeMetricsTest, QueueDepthHighWaterIsAMax) {
  ServeMetrics metrics;
  EXPECT_EQ(metrics.queue_depth_high_water(), 0u);
  metrics.RecordQueueDepth(3);
  metrics.RecordQueueDepth(9);
  metrics.RecordQueueDepth(5);  // Lower sample must not regress the mark.
  EXPECT_EQ(metrics.queue_depth_high_water(), 9u);
}

TEST(ServeMetricsTest, ConcurrentHighWaterKeepsGlobalMax) {
  ServeMetrics metrics;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&metrics, t] {
      for (std::uint64_t d = 0; d < 2000; ++d) {
        metrics.RecordQueueDepth(d * (t + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(metrics.queue_depth_high_water(), 1999u * kThreads);
}

TEST(ServeMetricsTest, UpdateCountersAccumulateAndDump) {
  ServeMetrics metrics;
  metrics.Add(ServeCounter::kUpdatesApplied);
  metrics.Add(ServeCounter::kUpdatesApplied);
  metrics.Add(ServeCounter::kDeletesApplied);
  metrics.Add(ServeCounter::kWalBytes, 640);
  metrics.Add(ServeCounter::kWalBytes, 72);
  metrics.Add(ServeCounter::kWalReplayRecords, 5);
  metrics.Add(ServeCounter::kCheckpoints);
  EXPECT_EQ(metrics.count(ServeCounter::kUpdatesApplied), 2u);
  EXPECT_EQ(metrics.count(ServeCounter::kDeletesApplied), 1u);
  EXPECT_EQ(metrics.wal_bytes_written(), 712u);
  EXPECT_EQ(metrics.count(ServeCounter::kWalReplayRecords), 5u);
  EXPECT_EQ(metrics.checkpoints(), 1u);
  const std::string dump = metrics.Dump();
  EXPECT_NE(dump.find("updates applied"), std::string::npos);
  EXPECT_NE(dump.find("deletes applied"), std::string::npos);
  EXPECT_NE(dump.find("checkpoints"), std::string::npos);
}

TEST(ServeMetricsTest, UpdateCountersRoundTripThroughTheExporter) {
  ServeMetrics metrics;
  metrics.Add(ServeCounter::kUpdatesApplied);
  metrics.Add(ServeCounter::kDeletesApplied);
  metrics.Add(ServeCounter::kDeletesApplied);
  metrics.Add(ServeCounter::kWalBytes, 128);
  metrics.Add(ServeCounter::kWalReplayRecords, 9);
  metrics.Add(ServeCounter::kCheckpoints);

  obs::Exporter exporter;
  metrics.ExportTo(&exporter, "gass_serve_");
  const std::string prom = exporter.ToPrometheus();
  EXPECT_NE(prom.find("gass_serve_updates_applied_total 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("gass_serve_deletes_applied_total 2"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("gass_serve_wal_bytes_written_total 128"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("gass_serve_wal_replay_records_total 9"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("gass_serve_checkpoints_total 1"), std::string::npos)
      << prom;
  const std::string json = exporter.ToJson();
  EXPECT_NE(json.find("\"gass_serve_updates_applied_total\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"gass_serve_wal_bytes_written_total\""),
            std::string::npos)
      << json;
}

TEST(ServeMetricsTest, ResetClearsCountsAndWindow) {
  ServeMetrics metrics;
  core::SearchStats stats;
  stats.elapsed_seconds = 0.001;
  metrics.RecordQuery(stats, /*expired=*/true);
  metrics.Add(ServeCounter::kShed);
  metrics.RecordDegradeStep(2);
  metrics.RecordQueueDepth(17);
  metrics.Add(ServeCounter::kUpdatesApplied);
  metrics.Add(ServeCounter::kDeletesApplied);
  metrics.Add(ServeCounter::kWalBytes, 64);
  metrics.Add(ServeCounter::kWalReplayRecords, 3);
  metrics.Add(ServeCounter::kCheckpoints);
  metrics.Reset();
  EXPECT_EQ(metrics.queries(), 0u);
  EXPECT_DOUBLE_EQ(metrics.LatencyQuantileSeconds(0.5), 0.0);
  EXPECT_EQ(metrics.TotalStats().distance_computations, 0u);
  EXPECT_EQ(metrics.count(ServeCounter::kExpired), 0u);
  EXPECT_EQ(metrics.count(ServeCounter::kShed), 0u);
  EXPECT_EQ(metrics.count(ServeCounter::kDegraded), 0u);
  EXPECT_EQ(metrics.queue_depth_high_water(), 0u);
  EXPECT_EQ(metrics.degrade_step_count(2), 0u);
  EXPECT_EQ(metrics.count(ServeCounter::kUpdatesApplied), 0u);
  EXPECT_EQ(metrics.count(ServeCounter::kDeletesApplied), 0u);
  EXPECT_EQ(metrics.wal_bytes_written(), 0u);
  EXPECT_EQ(metrics.count(ServeCounter::kWalReplayRecords), 0u);
  EXPECT_EQ(metrics.checkpoints(), 0u);
}

// Sets every counter, occupancy slot, gauge and histogram to a distinct
// nonzero value.
void FillEveryCounter(ServeMetrics* metrics) {
  core::SearchStats plain;
  plain.distance_computations = 100;
  plain.hops = 10;
  plain.deadline_expiries = 1;
  plain.prefetches = 50;
  plain.elapsed_seconds = 0.001;
  core::SearchStats fanned;
  fanned.distance_computations = 1000;
  fanned.hops = 150;
  fanned.deadline_expiries = 3;
  fanned.shards_probed = 5;
  fanned.shards_failed = 6;
  fanned.shards_hedged = 7;
  fanned.hedge_wins = 8;
  fanned.replica_failovers = 9;
  fanned.prefetches = 500;
  fanned.elapsed_seconds = 0.004;
  for (int i = 0; i < 7; ++i) {
    metrics->RecordQuery(i < 3 ? plain : fanned, /*expired=*/i < 2,
                         /*partial=*/i >= 4);
  }
  metrics->Add(ServeCounter::kShed, 5);
  metrics->RecordDegradeStep(0);
  for (int i = 0; i < 6; ++i) metrics->RecordDegradeStep(1);
  for (int i = 0; i < 10; ++i) metrics->RecordDegradeStep(3, false);
  metrics->RecordQueueDepth(13);
  metrics->Add(ServeCounter::kUpdatesApplied, 8);
  metrics->Add(ServeCounter::kDeletesApplied, 9);
  metrics->Add(ServeCounter::kWalBytes, 4096);
  metrics->Add(ServeCounter::kWalReplayRecords, 11);
  metrics->Add(ServeCounter::kCheckpoints, 12);
  metrics->RecordStageNanos(obs::Stage::kQueue, 20000);
  metrics->RecordStageNanos(obs::Stage::kMerge, 3000);
}

TEST(ServeMetricsTest, PrometheusSamplesMatchThePinnedList) {
  ServeMetrics metrics;
  FillEveryCounter(&metrics);
  obs::Exporter exporter;
  metrics.ExportTo(&exporter, "gass_serve_");
  std::vector<std::string> samples;
  std::istringstream text(exporter.ToPrometheus());
  for (std::string line; std::getline(text, line);) {
    if (!line.empty() && line[0] != '#') samples.push_back(line);
  }
  std::sort(samples.begin(), samples.end());
  // The exported series, as a set of samples, are an interface: scrapers
  // and dashboards key on these names.
  const std::vector<std::string> expected = {
      "gass_serve_checkpoints_total 12",
      "gass_serve_deadline_expiries_total 15",
      "gass_serve_degrade_step_queries_total{step=\"0\"} 1",
      "gass_serve_degrade_step_queries_total{step=\"1\"} 6",
      "gass_serve_degrade_step_queries_total{step=\"3\"} 10",
      "gass_serve_degraded_queries_total 6",
      "gass_serve_deletes_applied_total 9",
      "gass_serve_distance_computations_total 4300",
      "gass_serve_expired_queries_total 2",
      "gass_serve_fanout_queries_total 4",
      "gass_serve_hedge_wins_total 32",
      "gass_serve_hops_total 630",
      "gass_serve_latency_seconds_bucket{le=\"+Inf\"} 7",
      "gass_serve_latency_seconds_bucket{le=\"0.001048576\"} 3",
      "gass_serve_latency_seconds_bucket{le=\"0.004194304\"} 7",
      "gass_serve_latency_seconds_count 7",
      "gass_serve_latency_seconds_sum 0.019300352",
      "gass_serve_partial_queries_total 3",
      "gass_serve_prefetches_total 2150",
      "gass_serve_queries_total 7",
      "gass_serve_queue_depth_high_water 13",
      "gass_serve_replica_failovers_total 36",
      "gass_serve_shards_failed_total 24",
      "gass_serve_shards_hedged_total 28",
      "gass_serve_shards_probed_total 20",
      "gass_serve_shed_queries_total 5",
      "gass_serve_stage_seconds_merge_bucket{le=\"+Inf\"} 1",
      "gass_serve_stage_seconds_merge_bucket{le=\"3.072e-06\"} 1",
      "gass_serve_stage_seconds_merge_count 1",
      "gass_serve_stage_seconds_merge_sum 2.944e-06",
      "gass_serve_stage_seconds_queue_bucket{le=\"+Inf\"} 1",
      "gass_serve_stage_seconds_queue_bucket{le=\"2.048e-05\"} 1",
      "gass_serve_stage_seconds_queue_count 1",
      "gass_serve_stage_seconds_queue_sum 1.9456e-05",
      "gass_serve_updates_applied_total 8",
      "gass_serve_wal_bytes_written_total 4096",
      "gass_serve_wal_replay_records_total 11",
  };
  EXPECT_EQ(samples, expected);
}

// The value on the Dump() line that starts with `label`, or "" if no line
// does.
std::string DumpValue(const std::string& dump, const std::string& label) {
  std::istringstream text(dump);
  for (std::string line; std::getline(text, line);) {
    if (line.rfind(label + " ", 0) != 0) continue;
    const std::size_t value = line.find_first_not_of(' ', label.size());
    return value == std::string::npos ? "" : line.substr(value);
  }
  return "";
}

TEST(ServeMetricsTest, DumpShowsEveryCounterWithItsValue) {
  ServeMetrics metrics;
  FillEveryCounter(&metrics);
  const std::string dump = metrics.Dump();
  const core::SearchStats totals = metrics.TotalStats();
  for (const core::SearchStats::Counter& c : core::SearchStats::kCounters) {
    EXPECT_EQ(DumpValue(dump, c.label), std::to_string(totals.*c.field))
        << c.label << "\n" << dump;
  }
  for (const ServeCounterInfo& c : kServeCounters) {
    EXPECT_EQ(DumpValue(dump, c.label),
              std::to_string(metrics.count(c.counter)))
        << c.label << "\n" << dump;
  }
  EXPECT_EQ(DumpValue(dump, "queries"), "7") << dump;
  EXPECT_EQ(DumpValue(dump, "queue high-water"), "13") << dump;
}

}  // namespace
}  // namespace gass::serve
