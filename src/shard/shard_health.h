// Per-replica health tracking for the sharded serve path: a deterministic
// circuit breaker per (shard, replica) slot.
//
// The breaker is the classic three-state machine (closed → open →
// half-open), but every transition is driven by counters, never by wall
// time, so a fixed query stream reproduces the exact same trip/probe/
// recovery sequence on every run — which is what makes the fault suite
// (tests/shard/shard_fault_test.cc) assertable:
//
//   closed:    sub-searches run normally. `failure_threshold` consecutive
//              failures trip the slot to open.
//   open:      routing skips the slot (the query fails over to another
//              replica of the same shard, or — with no replica left — to
//              the next nearest centroid); every `probe_period`-th routing
//              decision that considers the slot is granted a half-open
//              probe.
//   half-open: exactly one probe sub-search is in flight. Success closes
//              the breaker (the replica re-enters rotation); failure
//              re-opens it and the probe countdown restarts.
//
// An online reload (ShardedIndex::ReloadShard / RebuildReplica) does not
// close the breaker directly — it resets the failure count and forces the
// next routing decision to probe, so a recovered replica re-enters
// rotation through the same half-open path a spontaneously-healed one
// would. The anti-entropy scrubber quarantines a divergent replica by
// forcing its breaker open (Quarantine()).
//
// The table is constructed with a replication factor R; the single-index
// case is simply R = 1, and the (shard)-only method overloads below are
// exact aliases for replica 0 so unreplicated callers read naturally.
//
// Thread-safety: all methods are safe to call concurrently; state is a
// per-slot atomic with CAS transitions, so two queries racing to probe a
// half-open replica cannot both win.

#ifndef GASS_SHARD_SHARD_HEALTH_H_
#define GASS_SHARD_SHARD_HEALTH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace gass::shard {

/// Circuit-breaker knobs, per (shard, replica) slot. The defaults are
/// conservative: three consecutive failures quarantine a replica, and
/// while open one routing decision in sixteen probes it.
struct ShardBreakerOptions {
  /// Consecutive sub-search failures that trip the breaker. 0 disables the
  /// breaker entirely: every replica is always routed to (failures still
  /// count into stats, they just never quarantine).
  std::uint32_t failure_threshold = 3;
  /// While open, every probe_period-th routing decision that considers the
  /// slot is granted a half-open probe (min 1: every decision probes).
  std::uint64_t probe_period = 16;
};

enum class BreakerState : std::uint8_t {
  kClosed = 0,
  kOpen,
  kHalfOpen,
};

/// Short lowercase label ("closed", "open", "half-open").
const char* BreakerStateName(BreakerState state);

/// What routing should do with a (shard, replica) slot (see
/// RouteDecision()).
enum class ShardRoute : std::uint8_t {
  kSearch = 0,  ///< Closed breaker: search normally.
  kProbe,       ///< Half-open probe granted to THIS query: search, and the
                ///< result decides whether the breaker closes or re-opens.
  kSkip,        ///< Open (or probe already in flight): skip the slot.
};

/// One breaker per (shard, replica). See the file comment for the state
/// machine.
class ShardHealthTable {
 public:
  /// num_shards * num_replicas slots (num_replicas is clamped to a minimum
  /// of 1; the single-index case is num_replicas = 1).
  ShardHealthTable(std::size_t num_shards, std::size_t num_replicas,
                   const ShardBreakerOptions& options);

  ShardHealthTable(const ShardHealthTable&) = delete;
  ShardHealthTable& operator=(const ShardHealthTable&) = delete;

  /// Routing-time decision for replica `r` of shard `s`. kSkip increments
  /// the skip counter; kProbe atomically moves the slot open → half-open,
  /// so at most one probe is in flight at a time.
  ShardRoute RouteDecision(std::size_t s, std::size_t r);
  ShardRoute RouteDecision(std::size_t s) { return RouteDecision(s, 0); }

  /// Outcome of one sub-search attempt against replica `r` of shard `s`
  /// (primary, failover, hedge, or half-open probe — every attempt reports
  /// the replica it ran on; a repeated success on a closed slot is a
  /// no-op). Returns true when this call tripped the
  /// breaker closed → open, so the caller can kick off recovery exactly
  /// once per trip.
  bool OnResult(std::size_t s, std::size_t r, bool ok);
  bool OnResult(std::size_t s, bool ok) { return OnResult(s, 0, ok); }

  /// A granted half-open probe was never executed (the query's deadline
  /// expired first): release the half-open state back to open so a later
  /// query can probe, without counting a failure against the replica.
  void OnProbeAbandoned(std::size_t s, std::size_t r);
  void OnProbeAbandoned(std::size_t s) { OnProbeAbandoned(s, 0); }

  /// A fresh copy of replica `r` of shard `s` was successfully reloaded
  /// (from its snapshot or copied from a healthy peer replica): reset the
  /// failure count, bump the generation, and force the next routing
  /// decision to grant a half-open probe. Does NOT close the breaker — the
  /// replica re-enters rotation only by passing that probe.
  void OnReloaded(std::size_t s, std::size_t r);
  void OnReloaded(std::size_t s) { OnReloaded(s, 0); }

  /// Forces the slot's breaker open regardless of its current state — the
  /// anti-entropy scrubber's verdict on a divergent replica. Counts into
  /// quarantines() (and trips() when the slot was not already open). With
  /// the breaker disabled (failure_threshold == 0) this only counts: a
  /// disabled table never routes around anything.
  void Quarantine(std::size_t s, std::size_t r);

  bool enabled() const { return options_.failure_threshold != 0; }
  std::size_t num_shards() const { return num_shards_; }
  std::size_t num_replicas() const { return num_replicas_; }

  BreakerState state(std::size_t s, std::size_t r) const {
    return slot(s, r).state.load(std::memory_order_acquire);
  }
  BreakerState state(std::size_t s) const { return state(s, 0); }
  std::uint32_t consecutive_failures(std::size_t s, std::size_t r) const {
    return slot(s, r).consecutive_failures.load(std::memory_order_relaxed);
  }
  std::uint32_t consecutive_failures(std::size_t s) const {
    return consecutive_failures(s, 0);
  }
  /// Reload generation of the slot (starts at 0, +1 per OnReloaded()).
  std::uint64_t generation(std::size_t s, std::size_t r) const {
    return slot(s, r).generation.load(std::memory_order_relaxed);
  }
  std::uint64_t generation(std::size_t s) const { return generation(s, 0); }
  /// True when a forced probe (OnReloaded()) is pending on the slot: the
  /// next routing decision that considers it is granted a half-open probe.
  /// Replica selection steers one query at such a slot — health ranking
  /// alone would starve a rebuilt replica forever, because open slots rank
  /// last and are never routed to while a healthy peer exists.
  bool probe_pending(std::size_t s, std::size_t r) const {
    return slot(s, r).force_probe.load(std::memory_order_relaxed);
  }

  /// Lifetime transition counters (for metrics / bench reporting).
  std::uint64_t trips() const {
    return trips_.load(std::memory_order_relaxed);
  }
  std::uint64_t recoveries() const {
    return recoveries_.load(std::memory_order_relaxed);
  }
  std::uint64_t probes_granted() const {
    return probes_.load(std::memory_order_relaxed);
  }
  std::uint64_t skips() const {
    return skips_.load(std::memory_order_relaxed);
  }
  /// Quarantine() calls (scrubber-forced trips).
  std::uint64_t quarantines() const {
    return quarantines_.load(std::memory_order_relaxed);
  }

  /// One-line human summary over all slots, e.g.
  /// "breaker: 7/8 closed, 1 open | trips 1 recoveries 0 probes 12 skips
  /// 840". With replication the slot count is num_shards * num_replicas.
  std::string Summary() const;

 private:
  struct alignas(64) Slot {
    std::atomic<BreakerState> state{BreakerState::kClosed};
    std::atomic<std::uint32_t> consecutive_failures{0};
    /// Routing decisions that considered this slot while open; drives the
    /// every-Nth probe cadence.
    std::atomic<std::uint64_t> open_ticks{0};
    /// Set by OnReloaded(): the next routing decision probes immediately.
    std::atomic<bool> force_probe{false};
    std::atomic<std::uint64_t> generation{0};
  };

  Slot& slot(std::size_t s, std::size_t r) const {
    return slots_[s * num_replicas_ + r];
  }

  ShardBreakerOptions options_;
  std::size_t num_shards_;
  std::size_t num_replicas_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> trips_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> skips_{0};
  std::atomic<std::uint64_t> quarantines_{0};
};

}  // namespace gass::shard

#endif  // GASS_SHARD_SHARD_HEALTH_H_
