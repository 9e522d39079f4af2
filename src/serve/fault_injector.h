// Deterministic fault injection for the serve path.
//
// Overload behaviour is timing-dependent and therefore miserable to test:
// whether a queue overflows depends on how fast workers drain it. The
// FaultInjector makes that controllable — per-query latency spikes, forced
// admission rejections, forced session-acquire failures, and an execution
// gate that parks workers until the test releases them — all keyed off the
// query's admission id, so a fixed submission order reproduces the exact
// same fault sequence on every run.
//
// The hooks are compiled in unconditionally and cost one null check per
// query when unused (serve::Frontend takes an optional FaultInjector*,
// default null), so production builds and test builds run the same code.

#ifndef GASS_SERVE_FAULT_INJECTOR_H_
#define GASS_SERVE_FAULT_INJECTOR_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace gass::serve {

/// Faults scoped to one shard of a sharded index, keyed on (admission id,
/// shard id) so every scenario is reproducible: the same query stream hits
/// the same shard-level failures on every run. Consumed by
/// shard::ShardedIndex (which takes an optional FaultInjector*); the serve
/// layer only defines the plan so the dependency stays acyclic
/// (gass_shard links gass_serve, never the reverse).
struct ShardFaultPlan {
  std::uint32_t shard = 0;
  /// Which replica of the shard the fail_period fault targets: -1 (the
  /// default) faults any replica — the whole shard is sick — while a
  /// specific replica id models one bad copy, leaving its peers healthy so
  /// failover can answer the query. Slow/reload faults are shard-wide.
  std::int32_t replica = -1;
  /// Fail this shard's sub-search on every fail_period-th admission id
  /// (same `id % p == 0` rule as FaultPlan). The failure is injected as an
  /// exception inside the fan-out worker, so it exercises the exact
  /// exception-to-status path a real sub-search failure would take.
  std::uint64_t fail_period = 0;
  /// Sleep inside this shard's sub-search on every slow_period-th
  /// admission id — the "slow shard" a hedged backup is meant to beat.
  std::uint64_t slow_period = 0;
  double slow_seconds = 0.0;
  /// How many attempts of a slow query are slow: 1 (default) slows only
  /// the primary sub-search, so a hedged backup models a healthy replica
  /// and can win; 2+ slows the hedge too (the shard itself is sick).
  std::uint32_t slow_attempts = 1;
  /// Fail the first N online reload attempts of this shard with a
  /// corruption error (the snapshot "is" corrupt), keeping it quarantined;
  /// attempt N+1 onward succeeds.
  std::uint64_t reload_corrupt_times = 0;
};

/// Which queries fault, selected by admission id. A period of 0 disables
/// that fault; period p fires on every id with id % p == 0 — deterministic,
/// order-independent, and easy to reason about in tests ("ids 0, 3, 6
/// reject").
struct FaultPlan {
  /// Sleep this long inside execution (before the search runs) on every
  /// latency_spike_period-th query. Simulates a slow shard, a page fault
  /// storm, or a GC pause downstream.
  std::uint64_t latency_spike_period = 0;
  double latency_spike_seconds = 0.0;
  /// Force admission to reject every reject_period-th query as if the
  /// queue were full.
  std::uint64_t reject_period = 0;
  /// Force the worker-side session acquisition to fail for every
  /// session_fail_period-th query (simulates context-pool exhaustion);
  /// the frontend sheds the query.
  std::uint64_t session_fail_period = 0;
  /// When true the gate starts closed: workers entering execution block
  /// until OpenGate(). Turns "the server is saturated" into a test-
  /// controlled, fully deterministic state.
  bool gate_execution = false;
  /// Per-shard faults (slow shard, failing shard, corrupt reload); at most
  /// one plan per shard id — the first matching entry wins.
  std::vector<ShardFaultPlan> shard_faults;
};

/// Injected faults, tallied per kind so tests can assert them against the
/// observed shed / latency / failure counts.
enum class FaultCounter : std::uint8_t {
  kSpikes = 0,        ///< Latency spikes slept in OnExecute().
  kRejections,        ///< Admissions force-rejected by the frontend.
  kSessionFailures,   ///< Session acquisitions force-failed by the frontend.
  kShardFailures,     ///< Shard sub-searches failed by the shard layer.
  kShardDelays,       ///< Shard sub-search delays slept in OnShardSearch().
  kReloadCorruptions, ///< Reload attempts failed by OnShardReload().
  kEnd,               ///< Count sentinel, not a counter.
};

/// Thread-safe; one instance may serve a whole Frontend. All decision
/// methods are pure functions of (plan, id) — only the gate and the
/// counters carry state.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(const FaultPlan& plan)
      : plan_(plan), gate_open_(!plan.gate_execution) {
    if (!plan_.shard_faults.empty()) {
      reload_attempts_ = std::make_unique<std::atomic<std::uint64_t>[]>(
          plan_.shard_faults.size());
      for (std::size_t i = 0; i < plan_.shard_faults.size(); ++i) {
        reload_attempts_[i].store(0, std::memory_order_relaxed);
      }
    }
  }

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Admission-side: force-reject this query?
  bool ShouldRejectAdmission(std::uint64_t id) const {
    return Fires(plan_.reject_period, id);
  }

  /// Worker-side: fail this query's session acquisition?
  bool ShouldFailSessionAcquire(std::uint64_t id) const {
    return Fires(plan_.session_fail_period, id);
  }

  /// Latency spike for this query (0 = none).
  double LatencySpikeSeconds(std::uint64_t id) const {
    return Fires(plan_.latency_spike_period, id) ? plan_.latency_spike_seconds
                                                 : 0.0;
  }

  /// Worker-side execution hook: applies the latency spike (a real sleep,
  /// so deadlines and queue pressure react as they would to a slow query)
  /// and blocks while the gate is closed. Call before running query `id`.
  void OnExecute(std::uint64_t id);

  // --- Shard-level decisions (consumed by shard::ShardedIndex) ---

  /// Fail shard `shard`'s sub-search on replica `replica` for admission id
  /// `id`? Pure; the shard layer acts by throwing inside its fan-out
  /// worker and counts the injection as FaultCounter::kShardFailures. A
  /// plan with replica = -1 matches every replica, and `replica` = -1 asks
  /// whether the plan would fault ANY replica of the shard.
  bool ShouldFailShardSearch(std::uint64_t id, std::uint32_t shard,
                             std::int32_t replica) const {
    const ShardFaultPlan* p = FindShardPlan(shard);
    return p != nullptr && Fires(p->fail_period, id) &&
           (p->replica < 0 || replica < 0 || p->replica == replica);
  }

  /// Injected sub-search delay for (id, shard, attempt); 0 = none.
  /// Attempt 0 is the primary probe, 1 the hedged backup.
  double ShardSearchDelaySeconds(std::uint64_t id, std::uint32_t shard,
                                 std::uint32_t attempt) const {
    const ShardFaultPlan* p = FindShardPlan(shard);
    if (p == nullptr || !Fires(p->slow_period, id)) return 0.0;
    return attempt < p->slow_attempts ? p->slow_seconds : 0.0;
  }

  /// Sub-search entry hook: sleeps the injected delay (a real sleep, so
  /// hedging and deadlines react as they would to a genuinely slow shard).
  void OnShardSearch(std::uint64_t id, std::uint32_t shard,
                     std::uint32_t attempt);

  /// Reload hook: true = inject snapshot corruption into this reload
  /// attempt (the shard layer fails the reload with kCorruption). Counts
  /// attempts per shard so the first `reload_corrupt_times` fail and later
  /// ones succeed.
  bool OnShardReload(std::uint32_t shard);

  /// Gate control (tests). Opening wakes every parked worker; arrivals()
  /// counts workers that have reached the gate, so a test can wait until
  /// the server is provably wedged before measuring shedding.
  void CloseGate();
  void OpenGate();
  /// Blocks until at least `n` workers have entered OnExecute().
  void WaitForArrivals(std::uint64_t n);

  /// Tallies one injected fault. The hooks above count their own; the
  /// frontend and shard layer call this when they act on a decision
  /// (rejection, session failure, shard failure).
  void Count(FaultCounter counter) {
    counters_[static_cast<std::size_t>(counter)].fetch_add(
        1, std::memory_order_relaxed);
  }

  std::uint64_t count(FaultCounter counter) const {
    return counters_[static_cast<std::size_t>(counter)].load(
        std::memory_order_relaxed);
  }

 private:
  static bool Fires(std::uint64_t period, std::uint64_t id) {
    return period != 0 && id % period == 0;
  }

  const ShardFaultPlan* FindShardPlan(std::uint32_t shard) const {
    for (const ShardFaultPlan& p : plan_.shard_faults) {
      if (p.shard == shard) return &p;
    }
    return nullptr;
  }

  FaultPlan plan_;
  std::mutex gate_mutex_;
  std::condition_variable gate_cv_;
  bool gate_open_ = true;
  std::uint64_t arrivals_ = 0;  // Guarded by gate_mutex_.
  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(FaultCounter::kEnd)>
      counters_{};
  /// Reload attempts seen so far, one slot per plan_.shard_faults entry.
  std::unique_ptr<std::atomic<std::uint64_t>[]> reload_attempts_;
};

}  // namespace gass::serve

#endif  // GASS_SERVE_FAULT_INJECTOR_H_
