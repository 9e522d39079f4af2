// Cost accounting shared by builds and searches.

#ifndef GASS_CORE_STATS_H_
#define GASS_CORE_STATS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace gass::core {

/// Costs accumulated by one or more searches (or by an index build).
///
/// `distance_computations` is the paper's primary hardware-independent
/// measure; `hops` counts expanded graph vertices. `deadline_expiries`
/// counts searches cut short by a Deadline (0 or 1 per query; additive
/// across aggregation like the other fields).
struct SearchStats {
  std::uint64_t distance_computations = 0;
  std::uint64_t hops = 0;
  std::uint64_t deadline_expiries = 0;
  /// Shard sub-searches this query fanned out to (0 for unsharded indexes;
  /// set by shard::ShardedIndex, aggregated additively like the rest).
  std::uint64_t shards_probed = 0;
  /// Shard sub-searches that contributed nothing because the shard failed
  /// (sub-search error or injected fault) or was skipped by an open circuit
  /// breaker. Fault-caused, unlike deadline_expiries; see docs/SHARDING.md
  /// "Failure semantics".
  std::uint64_t shards_failed = 0;
  /// Hedged backup sub-searches launched after the hedge trigger fired
  /// (shard::ShardedIndexOptions::hedge_fraction), and how many of those
  /// backups resolved their shard before the primary did.
  std::uint64_t shards_hedged = 0;
  std::uint64_t hedge_wins = 0;
  /// Shard sub-searches that failed on one replica and were retried (and
  /// answered) by another replica of the same shard — fault-masking that
  /// never surfaces as shards_failed (set by shard::ShardedIndex when
  /// replication > 1; see docs/SHARDING.md "Replication").
  std::uint64_t replica_failovers = 0;
  /// Vectors prefetched ahead of the batched distance evaluations in beam
  /// search (the memory-latency-hiding half of the SIMD pipeline; see
  /// docs/PERF.md). Deterministic for a fixed search, like hops.
  std::uint64_t prefetches = 0;
  double elapsed_seconds = 0.0;

  /// One integer counter above, and the names it is exported under:
  /// Prometheus "<prefix><name>_total" with `help` as its HELP text, and
  /// `label` in serve::ServeMetrics::Dump().
  struct Counter {
    std::uint64_t SearchStats::*field;
    const char* name;
    const char* label;
    const char* help;
  };

  /// Every integer counter, once. operator+=, AtomicAccumulator and the
  /// serving metrics all loop over this table, so a new counter is one
  /// field plus one row here.
  static constexpr std::array<Counter, 9> kCounters = {{
      {&SearchStats::distance_computations, "distance_computations",
       "distance comps", "Distance evaluations across all queries"},
      {&SearchStats::hops, "hops", "hops",
       "Graph vertices expanded across all queries"},
      {&SearchStats::deadline_expiries, "deadline_expiries",
       "deadline expiry", "Deadline expiry events (>=1 possible per query)"},
      {&SearchStats::shards_probed, "shards_probed", "shards probed",
       "Shard sub-searches dispatched"},
      {&SearchStats::shards_failed, "shards_failed", "shards failed",
       "Shard contributions lost to faults or open breakers"},
      {&SearchStats::shards_hedged, "shards_hedged", "shards hedged",
       "Hedged backup sub-searches launched"},
      {&SearchStats::hedge_wins, "hedge_wins", "hedge wins",
       "Hedged backups that resolved before the primary"},
      {&SearchStats::replica_failovers, "replica_failovers",
       "replica failover",
       "Sub-searches answered by a peer replica after the routed replica "
       "failed"},
      {&SearchStats::prefetches, "prefetches", "prefetches",
       "Vectors prefetched ahead of batched distances"},
  }};

  SearchStats& operator+=(const SearchStats& other) {
    for (const Counter& c : kCounters) this->*c.field += other.*c.field;
    elapsed_seconds += other.elapsed_seconds;
    return *this;
  }

  /// Mutex-free aggregation of SearchStats from concurrent searches.
  ///
  /// Serving threads call Add() once per finished query; readers take
  /// Snapshot() at any time. Counters are independent relaxed atomics:
  /// totals are exact once the writers quiesce, and a concurrent snapshot
  /// may only be "torn" across fields (never within one), which is fine
  /// for monitoring.
  class AtomicAccumulator {
   public:
    void Add(const SearchStats& s) {
      for (std::size_t i = 0; i < kCounters.size(); ++i) {
        counters_[i].fetch_add(s.*kCounters[i].field,
                               std::memory_order_relaxed);
      }
      // Stored in nanoseconds so the hot path never touches floating-point
      // CAS loops (pre-C++20 atomic<double> has no fetch_add).
      elapsed_ns_.fetch_add(
          static_cast<std::uint64_t>(s.elapsed_seconds * 1e9),
          std::memory_order_relaxed);
      queries_.fetch_add(1, std::memory_order_relaxed);
    }

    SearchStats Snapshot() const {
      SearchStats s;
      for (std::size_t i = 0; i < kCounters.size(); ++i) {
        s.*kCounters[i].field = counters_[i].load(std::memory_order_relaxed);
      }
      s.elapsed_seconds =
          static_cast<double>(elapsed_ns_.load(std::memory_order_relaxed)) *
          1e-9;
      return s;
    }

    /// Number of Add() calls (i.e. queries aggregated so far).
    std::uint64_t queries() const {
      return queries_.load(std::memory_order_relaxed);
    }

    void Reset() {
      for (auto& counter : counters_) {
        counter.store(0, std::memory_order_relaxed);
      }
      elapsed_ns_.store(0, std::memory_order_relaxed);
      queries_.store(0, std::memory_order_relaxed);
    }

   private:
    std::array<std::atomic<std::uint64_t>, kCounters.size()> counters_{};
    std::atomic<std::uint64_t> elapsed_ns_{0};
    std::atomic<std::uint64_t> queries_{0};
  };
};

// A counter field without its kCounters row would silently drop out of
// aggregation and export.
static_assert(sizeof(SearchStats) ==
                  SearchStats::kCounters.size() * sizeof(std::uint64_t) +
                      sizeof(double),
              "every SearchStats counter needs a kCounters row");

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace gass::core

#endif  // GASS_CORE_STATS_H_
