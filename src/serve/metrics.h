// Serving-side observability: lock-free latency histograms, QPS, and atomic
// aggregation of per-query SearchStats.
//
// Every counter on the record path is a relaxed atomic, so concurrent
// serving threads never contend on a lock to report a finished query.
// Readers (quantiles, dumps) see a consistent-enough snapshot for
// monitoring; exact totals are available once the writers quiesce.
//
// Counters are table-driven: core::SearchStats::kCounters names the
// per-query work counters, kServeCounters below names the rest, and
// Dump(), ExportTo() and Reset() loop over both tables. A new serving
// counter is one ServeCounter entry plus one kServeCounters row.

#ifndef GASS_SERVE_METRICS_H_
#define GASS_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "core/stats.h"
#include "obs/histogram.h"
#include "obs/trace.h"

namespace gass::obs {
class Exporter;  // obs/exporter.h; only needed by ExportTo callers.
}  // namespace gass::obs

namespace gass::serve {

/// Monotonic serving counters outside core::SearchStats, in kServeCounters
/// order.
enum class ServeCounter : std::uint8_t {
  kExpired = 0,       ///< Queries whose results were deadline-truncated.
  kShed,              ///< Queries rejected before execution; never
                      ///< RecordQuery()'d, so they pollute neither the
                      ///< latency histogram nor the per-query averages.
  kDegraded,          ///< Queries served at a reduced effort step.
  kFanout,            ///< Queries that fanned out to a sharded index.
  kPartial,           ///< Queries missing a shard contribution to a fault.
  kUpdatesApplied,    ///< Acknowledged inserts applied (logged + in memory).
  kDeletesApplied,    ///< Acknowledged deletes applied (tombstone set).
  kWalBytes,          ///< WAL bytes made durable (headers + payloads).
  kWalReplayRecords,  ///< Records replayed from WALs during recovery.
  kCheckpoints,       ///< Completed checkpoints (snapshot + WAL rotation).
  kEnd,               ///< Count sentinel, not a counter.
};

inline constexpr std::size_t kNumServeCounters =
    static_cast<std::size_t>(ServeCounter::kEnd);

/// One counter's names: Prometheus "<prefix><name>_total" with `help` as
/// its HELP text, and `label` in ServeMetrics::Dump().
struct ServeCounterInfo {
  ServeCounter counter;
  const char* name;
  const char* label;
  const char* help;
};

inline constexpr std::array<ServeCounterInfo, kNumServeCounters>
    kServeCounters = {{
        {ServeCounter::kExpired, "expired_queries", "expired queries",
         "Queries whose results were deadline-truncated"},
        {ServeCounter::kShed, "shed_queries", "shed queries",
         "Queries rejected before execution"},
        {ServeCounter::kDegraded, "degraded_queries", "degraded queries",
         "Queries served at a reduced effort step"},
        {ServeCounter::kFanout, "fanout_queries", "fan-out queries",
         "Queries that fanned out to a sharded index"},
        {ServeCounter::kPartial, "partial_queries", "partial queries",
         "Queries missing a shard contribution to a fault"},
        {ServeCounter::kUpdatesApplied, "updates_applied", "updates applied",
         "Acknowledged inserts applied to the live index"},
        {ServeCounter::kDeletesApplied, "deletes_applied", "deletes applied",
         "Acknowledged deletes applied (tombstones set)"},
        {ServeCounter::kWalBytes, "wal_bytes_written", "wal bytes",
         "Write-ahead log bytes made durable"},
        {ServeCounter::kWalReplayRecords, "wal_replay_records",
         "wal replayed", "WAL records replayed during recovery"},
        {ServeCounter::kCheckpoints, "checkpoints", "checkpoints",
         "Checkpoints written (snapshot + WAL rotation)"},
    }};

/// Aggregated serving metrics for one frontend / one shared index.
///
/// RecordQuery() is called once per finished query from any thread; all
/// other members are read-side. Reset() must not race with RecordQuery().
class ServeMetrics {
 public:
  /// `stats.elapsed_seconds` must hold the query's wall latency. `expired`
  /// marks a query whose deadline cut the search short (counted separately
  /// from stats.deadline_expiries, which tallies expiry *events* — one query
  /// can expire in several sub-searches, e.g. ELPIS leaves). `partial`
  /// marks a query that lost a shard's contribution to a fault (failed
  /// sub-search or breaker skip) — independent of `expired`; see
  /// docs/SHARDING.md "Failure semantics".
  void RecordQuery(const core::SearchStats& stats, bool expired = false,
                   bool partial = false) {
    stats_.Add(stats);
    histogram_.Record(stats.elapsed_seconds);
    if (expired) Add(ServeCounter::kExpired);
    if (partial) Add(ServeCounter::kPartial);
    if (stats.shards_probed > 0 || stats.shards_failed > 0) {
      Add(ServeCounter::kFanout);
    }
  }

  void Add(ServeCounter counter, std::uint64_t n = 1) {
    counters_[static_cast<std::size_t>(counter)].fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t count(ServeCounter counter) const {
    return counters_[static_cast<std::size_t>(counter)].load(
        std::memory_order_relaxed);
  }

  /// Totals across all recorded queries.
  core::SearchStats TotalStats() const { return stats_.Snapshot(); }

  std::uint64_t queries() const { return stats_.queries(); }

  // --- Per-stage latency (written from sampled traces) ---

  /// Records one span's duration into the stage's histogram. Only sampled
  /// (traced) queries reach here, so stage histograms describe the traced
  /// subset — deterministic under the sampler's (seed, id) contract, and
  /// unbiased when the period is 1.
  void RecordStageNanos(obs::Stage stage, std::uint64_t nanos) {
    stage_histograms_[static_cast<std::size_t>(stage)].Record(
        static_cast<double>(nanos) * 1e-9);
  }

  const obs::LatencyHistogram& stage_histogram(obs::Stage stage) const {
    return stage_histograms_[static_cast<std::size_t>(stage)];
  }

  // --- Overload accounting (written by serve::Frontend) ---

  /// Occupancy counters cover degradation steps [0, kMaxDegradeSteps);
  /// deeper steps clamp into the last slot.
  static constexpr std::size_t kMaxDegradeSteps = 8;

  /// The degradation step one executed query actually ran with (0 = full
  /// effort). Feeds the per-step occupancy, and — when `count_degraded` —
  /// ServeCounter::kDegraded. Pass false for a query whose *outcome* is
  /// not degraded (outcome precedence: a query that ran at a reduced
  /// step but then expired reports kExpired, and must count as expired,
  /// not degraded, so the outcome categories stay disjoint and
  /// full + degraded + expired == executed).
  void RecordDegradeStep(std::size_t step, bool count_degraded = true) {
    if (step > 0 && count_degraded) Add(ServeCounter::kDegraded);
    if (step >= kMaxDegradeSteps) step = kMaxDegradeSteps - 1;
    degrade_occupancy_[step].fetch_add(1, std::memory_order_relaxed);
  }

  /// Admission-queue depth observed after an enqueue; keeps the high-water
  /// mark (lock-free CAS max).
  void RecordQueueDepth(std::size_t depth) {
    std::uint64_t seen = queue_high_water_.load(std::memory_order_relaxed);
    while (depth > seen && !queue_high_water_.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t queue_depth_high_water() const {
    return queue_high_water_.load(std::memory_order_relaxed);
  }
  /// Executed queries that ran at degradation step `step` (clamped).
  std::uint64_t degrade_step_count(std::size_t step) const {
    if (step >= kMaxDegradeSteps) step = kMaxDegradeSteps - 1;
    return degrade_occupancy_[step].load(std::memory_order_relaxed);
  }

  /// Named reads of two counters, which bench/e2e/bench_e2e.cc calls.
  std::uint64_t wal_bytes_written() const {
    return count(ServeCounter::kWalBytes);
  }
  std::uint64_t checkpoints() const {
    return count(ServeCounter::kCheckpoints);
  }

  double LatencyQuantileSeconds(double q) const {
    return histogram_.QuantileSeconds(q);
  }

  /// Completed queries per second of wall time since construction or the
  /// last Reset().
  double Qps() const;

  /// Human-readable multi-line summary: QPS, p50/p95/p99, per-query
  /// costs, then one "label value" line per counter of either table.
  std::string Dump() const;

  /// Registers every metric on `exporter`, each name prefixed with
  /// `prefix` (e.g. "gass_serve_"): "<prefix><name>_total" for
  /// queries and for every counter of either table, the
  /// end-to-end latency histogram, one "<prefix>stage_seconds_<stage>"
  /// histogram per serve stage that saw samples, per-step degrade
  /// occupancy (label step="N"), and the queue high-water gauge.
  void ExportTo(obs::Exporter* exporter, const std::string& prefix) const;

  /// Not safe concurrently with RecordQuery().
  void Reset();

 private:
  core::SearchStats::AtomicAccumulator stats_;
  obs::LatencyHistogram histogram_;
  std::array<obs::LatencyHistogram, obs::kNumStages> stage_histograms_;
  std::array<std::atomic<std::uint64_t>, kNumServeCounters> counters_{};
  std::atomic<std::uint64_t> queue_high_water_{0};
  std::array<std::atomic<std::uint64_t>, kMaxDegradeSteps> degrade_occupancy_{};
  core::Timer window_;
};

}  // namespace gass::serve

#endif  // GASS_SERVE_METRICS_H_
