// FanOut: the one query fan-out engine behind both sharded indexes
// (shard::ShardedIndex and shard::LiveShardedIndex). It reads the shards
// straight from their shard::ShardSet (centroids, id tables, replicas),
// which owns it, and owns the rest: the fan-out pool, the per-shard probe
// counters, and the per-(shard, replica) breakers. Each thread that runs a
// sub-search keeps one reused sub-search context (see RunAttempt).
//
// A query runs in three steps:
//
//   route    Rank every centroid against the query (ties toward the lower
//            shard id), draw one query seed from the caller's RNG, and
//            walk the ranking until nprobe shards are selected. Each shard
//            starts at a health-chosen replica (PickReplica); a breaker
//            skip falls through to its other replicas, and a shard whose
//            every replica skips is routed around — the next-nearest
//            centroid substitutes. A shard with an empty id table holds no
//            rows: it takes its rank but is never probed.
//   execute  One attempt per selected shard, each failing over in-query to
//            the next routable replica. Each sub-search gets the query's
//            tombstones plus its shard's id table (SearchParams::global_ids)
//            and drops deleted ids as it emits, so it fills k live answers
//            from its beam exactly as an unsharded search does. Only a
//            kDrain engine takes tombstones. Without hedging the caller
//            searches the nearest shard itself while the pool runs the
//            rest. With hedging every probe runs on the pool, and once
//            hedge_fraction of the remaining budget elapses, one backup
//            per outstanding shard starts on the next routable replica;
//            the first attempt to finish resolves the shard. An absent or
//            refusing pool runs attempts inline. With a deadline set, what
//            happens to stragglers is the index's Stragglers policy: under
//            kAbandon the coordinator stops waiting at the deadline and
//            they finish harmlessly against heap-shared state; under
//            kDrain it first runs any probe the pool has not taken up yet,
//            then waits for every running one (each polls the deadline as
//            it runs), so none outlives the query.
//   merge    Map local ids through each shard's id table, sort by
//            (distance, id) and cut to k — except that a single
//            completed probe passes through in its own order (with K=1
//            that makes ShardedIndex bit-identical to the unsharded index)
//            — then set the stats and the partial/expired flags (see
//            docs/SHARDING.md "Failure semantics").
//
// Every attempt reports its own outcome to the breaker of the replica it
// ran on, so a hedge race never strands a half-open probe. The probe at
// selection position i always searches with RNG seed query_seed ^
// mix * (i + 1), whichever thread, replica, or attempt runs it, so serial,
// pooled, and hedged fan-out return identical answers.
//
// Thread-safety: Search may run concurrently from many threads. The
// setters are not safe against concurrent searches; SetThreads and
// SetBreakerOptions drain abandoned stragglers first.

#ifndef GASS_SHARD_FAN_OUT_H_
#define GASS_SHARD_FAN_OUT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "methods/graph_index.h"
#include "shard/shard_health.h"

namespace gass::serve {
class FaultInjector;
}  // namespace gass::serve

namespace gass::shard {

class ShardSet;

class FanOut {
 public:
  /// What Search does with sub-searches still running at the deadline.
  /// Fixed by each index at construction, never a user option.
  enum class Stragglers {
    /// Return at the deadline; stragglers finish against heap-shared
    /// state. Safe only over shards that never change (ShardedIndex).
    kAbandon,
    /// Return only once every started attempt has finished, so none reads
    /// a shard (or the caller's tombstones) after the caller drops the lock
    /// that keeps it from changing (LiveShardedIndex under the updater's
    /// search lock). No hedging.
    kDrain,
  };

  /// Fans out over `shards`, which must outlive the engine (it owns it)
  /// and keep its shape; `threads` = 0 runs every attempt inline on the
  /// caller thread.
  FanOut(const ShardSet& shards, const ShardBreakerOptions& breaker,
         std::size_t threads, Stragglers stragglers);

  FanOut(const FanOut&) = delete;
  FanOut& operator=(const FanOut&) = delete;

  /// Routes, executes, and merges one query. `rng` supplies the single
  /// query-seed draw; `hedge_fraction` > 0 enables hedging when a pool and
  /// a deadline exist (kAbandon only); `faults` (nullable) drives injected
  /// shard faults.
  methods::SearchResult Search(const float* query, std::size_t nprobe,
                               const methods::SearchParams& params,
                               core::Rng* rng, double hedge_fraction,
                               serve::FaultInjector* faults) const;

  /// Re-sizes the fan-out pool (0 = inline), draining stragglers.
  void SetThreads(std::size_t threads);
  /// Replaces the breaker table (resetting all breaker state).
  void SetBreakerOptions(const ShardBreakerOptions& breaker);

  /// The per-(shard, replica) breakers; thread-safe, so recovery paths
  /// (reload, rebuild, quarantine) drive them through a const engine.
  ShardHealthTable& health() const { return *health_; }
  /// Sub-search attempts dispatched to shard `s` (relaxed).
  std::uint64_t probe_count(std::size_t s) const {
    return probe_counts_[s].load(std::memory_order_relaxed);
  }

 private:
  struct Attempt;
  struct Slot;
  struct State;

  /// Runs attempt `attempt` (0 = primary, 1 = backup) of slot `idx` on the
  /// pool, or inline when there is no pool or it refuses the task.
  void Launch(const std::shared_ptr<State>& state, std::size_t idx,
              int attempt) const;
  /// One attempt with replica failover; the first attempt to finish
  /// resolves its slot via a winner CAS.
  void RunAttempt(State& state, std::size_t idx, int attempt) const;
  /// The next replica after `from` in ring order that is not yet tried and
  /// that the breakers will route; num_replicas_ when there is none.
  std::uint32_t NextRoutable(std::uint32_t s, std::uint32_t from,
                             std::vector<bool>* tried) const;

  const ShardSet& shards_;
  std::size_t num_shards_;
  std::size_t num_replicas_;
  /// Largest row block: the smallest size of each thread's sub-search
  /// context.
  std::size_t max_shard_size_;
  Stragglers stragglers_;
  std::unique_ptr<ShardHealthTable> health_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> probe_counts_;
  /// Declared last, so it is destroyed first: the pool's shutdown drains
  /// abandoned stragglers while everything they touch is still alive.
  std::unique_ptr<core::ThreadPool> pool_;
};

}  // namespace gass::shard

#endif  // GASS_SHARD_FAN_OUT_H_
