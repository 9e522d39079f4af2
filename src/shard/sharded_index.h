// ShardedIndex: K per-shard graph indexes behind one GraphIndex facade.
//
// The shards live in its shard::ShardSet base (shard/shard_set.h), the
// core shared with LiveShardedIndex: Build partitions the dataset into K
// shards (see shard/partitioner.h), builds one sub-index of any factory
// method per shard — in parallel, each shard with a deterministic derived
// seed (SubIndexSeed) — and keeps one routing centroid per shard. Search
// routes each query to the `nprobe` nearest centroids, fans a beam search
// out to those shards (parallel on an internal pool, or on the caller
// thread), and merges the per-shard top-k into one global result carrying
// correct global VectorIds; shard::FanOut (shard/fan_out.h) runs all three
// steps. What this index adds is its own: reload, scrub/rebuild, hedging,
// faults, and abandoning stragglers at the deadline.
//
// Why shard: graph builds are superlinear in n, so K builds of n/K rows
// each — run concurrently — cut build wall-clock by far more than K-way
// parallelism alone; and centroid routing turns a well-clustered partition
// into an accuracy knob (nprobe) that trades recall for per-query work,
// exactly the IVF idea transplanted onto graph indexes. With K=1 and the
// contiguous partitioner the facade is bit-identical to the unsharded
// index (same seed, same data order, same graph). See docs/SHARDING.md.
//
// Thread-safety matches the library contract: Build once, then the const
// three-argument Search may run concurrently from many threads
// (SupportsConcurrentSearch() is true); per-query scratch for sub-searches
// is the fan-out engine's per-thread context, sized to the largest shard.
//
// Persistence: methods::SaveIndex writes one crash-safe snapshot file in
// the ShardSet's shard-set layout (reserve 0, no live rows) plus one
// section holding the method and partitioner, which LoadShardedIndex reads
// to reconstruct the index. Loading validates everything — including
// semantic cross-checks that survive a resealed checksum — before any
// shard is searched. See docs/PERSISTENCE.md "Sharded snapshots".

#ifndef GASS_SHARD_SHARDED_INDEX_H_
#define GASS_SHARD_SHARDED_INDEX_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "methods/graph_index.h"
#include "shard/partitioner.h"
#include "shard/replica_set.h"
#include "shard/shard_health.h"
#include "shard/shard_set.h"

namespace gass::shard {

struct ShardedIndexOptions {
  /// Factory name of the per-shard method (lowercase, e.g. "hnsw").
  std::string method = "hnsw";
  PartitionerParams partitioner;
  /// Shards probed per query: the nprobe nearest routing centroids.
  /// 0 = probe every shard. Query-time knob (excluded from the params
  /// fingerprint); adjustable after build via SetNprobe().
  std::size_t nprobe = 0;
  /// Threads for the parallel shard builds; 0 = one per shard, up to the
  /// hardware concurrency.
  std::size_t build_threads = 0;
  /// Threads for parallel per-query fan-out; 0 = fan out on the caller
  /// thread (the right choice when an outer frontend already runs one
  /// query per worker).
  std::size_t fanout_threads = 0;
  /// Base seed. Shard s's sub-index is built with seed ^ (mix * s), so
  /// shard 0 of a K=1 index uses exactly `seed` (bit-identity baseline).
  std::uint64_t seed = 42;
  /// Replication factor R: bit-identical copies of every shard's
  /// sub-index (built once, copied R-1 times; see ShardSet). Search routes
  /// each probe to a health-chosen replica and fails over to peers on
  /// failure; the anti-entropy scrubber (ScrubReplicas) compares replica
  /// digests and rebuilds divergent copies online. 0 or 1 = no
  /// replication. A serving knob like nprobe: excluded from the params
  /// fingerprint, so snapshots load under any R.
  std::size_t replicas = 1;
  /// Per-shard circuit breaker (see shard/shard_health.h). The default
  /// trips a shard after 3 consecutive sub-search failures; threshold 0
  /// disables quarantining entirely.
  ShardBreakerOptions breaker;
  /// Hedged fan-out: after this fraction of the query's remaining deadline
  /// budget elapses with shards still outstanding, launch one backup
  /// sub-search per outstanding shard on the fanout pool and take the
  /// first result per shard. 0 (default) disables hedging: the backup
  /// delay is infinite and the caller searches the nearest shard itself.
  /// Hedging changes timing, not answers (up to deadline truncation).
  /// Requires a deadline and fanout_threads > 0 to take effect.
  double hedge_fraction = 0.0;
};

/// Outcome of one anti-entropy scrub pass over every replica (see
/// ShardedIndex::ScrubReplicas).
struct ScrubReport {
  std::size_t replicas_checked = 0;
  /// Replicas whose digest disagreed with their shard's majority.
  std::size_t divergent = 0;
  /// Divergent replicas quarantined (breaker forced open).
  std::size_t quarantined = 0;
  /// Quarantined replicas rebuilt online this pass.
  std::size_t rebuilt = 0;
  std::size_t rebuild_failures = 0;
};

/// K per-shard indexes + centroid routing, behind the GraphIndex interface.
class ShardedIndex : public ShardSet {
 public:
  explicit ShardedIndex(const ShardedIndexOptions& options);
  ~ShardedIndex() override;

  /// "SHARDED:<METHOD>" (e.g. "SHARDED:HNSW").
  std::string Name() const override;

  methods::BuildStats Build(const core::Dataset& data) override;

  /// Hash of (method, partitioner params, seed, sub-index params); nprobe
  /// and thread counts are query/run-time knobs and excluded.
  std::uint64_t ParamsFingerprint() const override;

  /// The shard-set layout (ShardSet::SaveShards) after a section holding
  /// the method and partitioner. Top level only: `prefix` must be empty.
  core::Status SaveSections(io::SnapshotWriter* writer,
                            const std::string& prefix) const override;
  /// Inverse of SaveSections. Refuses a file in the retired manifest layout
  /// (InvalidArgument: rebuild the index) and a stored method or
  /// partitioner that contradicts this index's; leaves the index unbuilt
  /// on any failure, and on success records reader.path() as the recovery
  /// snapshot.
  core::Status LoadSections(const io::SnapshotReader& reader,
                            const std::string& prefix,
                            const core::Dataset& data) override;

  /// The options the index was constructed with; SetFanoutThreads and
  /// SetBreakerOptions write theirs back.
  const ShardedIndexOptions& options() const { return options_; }
  /// Query-time knobs (see ShardSet).
  using ShardSet::SetFaultInjector;
  using ShardSet::SetHedgeFraction;
  using ShardSet::SetNprobe;
  /// Re-sizes the per-query fan-out pool after build/load (0 = fan out on
  /// the caller thread). Not thread-safe against concurrent searches.
  void SetFanoutThreads(std::size_t threads);
  /// Replaces the breaker configuration (resets all breaker state). Not
  /// thread-safe against concurrent searches.
  void SetBreakerOptions(const ShardBreakerOptions& breaker);

  /// Per-shard breaker state + transition counters (valid after build or
  /// load).
  const ShardHealthTable& health() const { return fan_out().health(); }

  // --- Online shard recovery (see docs/SHARDING.md "Failure semantics") ---

  /// Synchronously re-loads shard `s` from the recovery snapshot's
  /// sections, after checking the file's header and that its shard-`s` id
  /// table is the one being served, swapping the fresh sub-index in under
  /// that shard's lock while concurrent searches continue on every other
  /// shard. On success the breaker's failure count resets and the next
  /// routing decision probes the shard (half-open), so it re-enters
  /// rotation only by passing that probe. On failure (missing/corrupt
  /// file, other ids, injected corruption) the shard keeps serving its old
  /// state — quarantined if the breaker was open. Requires a recovery
  /// snapshot path: recorded automatically by a load, or set explicitly
  /// after Build + methods::SaveIndex via SetRecoverySnapshot.
  core::Status ReloadShard(std::size_t s);

  /// Rebuilds one replica of shard `s` online: a fresh sub-index is
  /// restored from the recovery snapshot when one is recorded, otherwise
  /// copied from a healthy peer replica through an in-memory snapshot
  /// image (serialized under the peer's reader lock, re-validated on
  /// load; nothing is written to disk), then swapped in
  /// under replica `r`'s writer lock while searches continue everywhere
  /// else. On success the replica's breaker generation bumps and its next
  /// routing decision is a forced half-open probe (OnReloaded) — it
  /// re-enters rotation only by passing that probe. With R == 1 and no
  /// snapshot there is no peer to copy from and the call fails.
  core::Status RebuildReplica(std::size_t s, std::size_t r);

  /// One synchronous anti-entropy pass: digests every replica of every
  /// shard (ReplicaDigest: XXH64 over its whole serialized state, under
  /// the replica's reader lock),
  /// quarantines any replica whose digest diverges from its shard's
  /// majority, and — when `rebuild` is true — rebuilds each quarantined
  /// replica via RebuildReplica. Safe to run concurrently with searches;
  /// not with a second scrub. With R == 1 there is no majority to compare
  /// against and the pass only counts replicas.
  ScrubReport ScrubReplicas(bool rebuild = true);

  /// Launches ReloadShard(s) on a background thread. Returns false (and
  /// does nothing) when a reload of that shard is already in flight. The
  /// thread's Status is discarded — the breaker state tells the story —
  /// so use ReloadShard directly when the caller needs the error.
  bool StartShardReload(std::size_t s);

  /// Joins every background reload launched so far (tests and shutdown),
  /// first releasing any held by HoldReloadsForTest.
  void WaitForReloads();

  /// Test hook: background reloads wait, in flight but not started, until
  /// the next WaitForReloads — so a test can count on a reload still
  /// being in flight when it asks for a second one.
  void HoldReloadsForTest();

  /// Snapshot file used for per-shard reloads; a load records it.
  void SetRecoverySnapshot(const std::string& path) { snapshot_path_ = path; }
  const std::string& recovery_snapshot() const { return snapshot_path_; }

  const methods::GraphIndex& shard(std::size_t s) const {
    return replica(s, 0);
  }
  /// Replica `r` of shard `s` (replica(s, 0) == shard(s)).
  const methods::GraphIndex& replica(std::size_t s, std::size_t r) const;
  std::size_t shard_size(std::size_t s) const;
  /// Sub-searches dispatched to shard `s` since build/load (relaxed).
  std::uint64_t probe_count(std::size_t s) const;

  /// Seed shard `s`'s sub-index is constructed with (s = 0 yields `seed`).
  static std::uint64_t SubIndexSeed(std::uint64_t seed, std::size_t s);

 private:
  std::unique_ptr<methods::GraphIndex> MakeShard(std::size_t s) const override;
  methods::BuildStats BuildShard(methods::GraphIndex& index,
                                 const core::Dataset& rows,
                                 std::size_t base_rows) const override;

  /// Opens the recovery snapshot for shard `s` and checks its header and
  /// the shard's id table against what is being served.
  core::Status OpenRecovery(std::size_t s, io::SnapshotReader* reader) const;
  /// Common post-build/load setup: the fan-out engine and reload
  /// bookkeeping.
  void FinishInit();

  ShardedIndexOptions options_;
  /// Snapshot file for per-shard recovery reloads ("" = none recorded).
  std::string snapshot_path_;

  std::mutex reload_mutex_;
  std::vector<std::thread> reload_threads_;     // Guarded by reload_mutex_.
  std::vector<std::uint8_t> reload_inflight_;   // Guarded by reload_mutex_.
  bool reloads_held_ = false;                   // Guarded by reload_mutex_.
  std::condition_variable reloads_released_;
};

/// Opens the sharded snapshot at `path`, reconstructs a ShardedIndex with
/// the method and partitioner recorded in it (plus the given base `seed`,
/// verified against the stored params fingerprint), and loads every shard.
/// The counterpart of methods::LoadAnyIndex for sharded snapshots.
/// `replicas` copies of each shard are attached (replication is a serving
/// knob, not a snapshot property: every replica attaches from the same
/// shard sections); `replicas == 0` means 1.
core::Status LoadShardedIndex(const std::string& path,
                              const core::Dataset& data, std::uint64_t seed,
                              std::size_t replicas,
                              std::unique_ptr<ShardedIndex>* out);

/// True when a snapshot's method name marks it sharded ("SHARDED:..."),
/// letting CLIs pick the right loader without parsing.
bool IsShardedSnapshotMethod(const std::string& method);

}  // namespace gass::shard

#endif  // GASS_SHARD_SHARDED_INDEX_H_
