// ReplicaSet: R bit-identical copies of one shard's sub-index, plus the
// replica-level primitives the replicated serve path is built from.
//
// Replication here leans on a property most systems have to pay quorums
// for: every replica of shard s is a copy of one build (ShardSet builds
// replica 0 and copies it through an in-memory snapshot image), so
// replicas are bit-identical by construction — the same graph, the same
// neighbor order, the same answers. That buys three things:
//
//   * Failover is free of consistency questions. Any replica answers any
//     query identically, so health-aware routing (PickReplica) and
//     mid-query failover never change results, only availability.
//   * Anti-entropy is a digest comparison. ReplicaDigest folds a replica's
//     whole serialized state into one XXH64 value; a replica whose digest
//     diverges from the shard majority (MajorityDigest) has been corrupted
//     — there is no legitimate divergence to distinguish from.
//   * Copies replace builds. A shard builds once and is copied to its
//     other replicas, and ShardedIndex restores a quarantined replica from
//     any healthy peer's in-memory snapshot image (or the shard snapshot),
//     swapped in under the replica's writer lock while searches continue
//     on the other replicas.
//
// Thread-safety: each replica slot has its own shared_mutex. Search(),
// Digest() and Image() hold it shared; SwapIn() holds it exclusive.

#ifndef GASS_SHARD_REPLICA_SET_H_
#define GASS_SHARD_REPLICA_SET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "methods/graph_index.h"
#include "shard/shard_health.h"

namespace gass::shard {

/// XXH64 of one replica's whole serialized state: its in-memory snapshot
/// image (methods::SerializeIndex), so every layer, level, entry point
/// and seed structure is covered, and any single-bit change to any of
/// them changes the digest. An index that cannot serialize digests to a
/// fixed sentinel, so scrubbing degenerates to a no-op for it instead of
/// a false alarm.
std::uint64_t ReplicaDigest(const methods::GraphIndex& index);

/// The digest held by the largest group of replicas; ties break toward the
/// lowest replica index holding a tied digest, so the verdict is
/// deterministic. Precondition: digests is non-empty.
std::uint64_t MajorityDigest(const std::vector<std::uint64_t>& digests);

/// Health-aware power-of-two replica choice for shard `s`: draws two
/// deterministic candidates from `key` (a per-query value), peeks their
/// breaker slots, and returns the healthier one — closed beats half-open
/// beats open; ties break toward fewer consecutive failures, then toward
/// the first draw. A candidate with a forced probe pending (a replica just
/// rebuilt, see ShardHealthTable::probe_pending) wins outright, so the
/// rebuilt replica receives the probe that re-admits it instead of being
/// starved by the ranking. Never consumes a routing decision (callers
/// route the
/// returned replica through ShardHealthTable::RouteDecision themselves).
/// num_replicas == 1 always returns 0.
std::size_t PickReplica(std::uint64_t key, std::size_t s,
                        std::size_t num_replicas,
                        const ShardHealthTable& health);

/// R replicas of one shard's sub-index, each behind its own reader/writer
/// lock so a single replica can be swapped (rebuild) or inspected (scrub)
/// while searches continue on the others.
class ReplicaSet {
 public:
  ReplicaSet() = default;
  explicit ReplicaSet(std::size_t num_replicas)
      : replicas_(num_replicas),
        locks_(std::make_unique<std::shared_mutex[]>(num_replicas)) {}

  ReplicaSet(ReplicaSet&&) = default;
  ReplicaSet& operator=(ReplicaSet&&) = default;
  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  std::size_t size() const { return replicas_.size(); }

  /// The replica itself (valid once installed; callers must not mutate it
  /// while searches run — rebuilds go through SwapIn).
  const methods::GraphIndex& replica(std::size_t r) const {
    return *replicas_[r];
  }

  /// The replica, for in-place updates: the caller keeps searches out
  /// while it mutates (a live index under the updater's search lock).
  methods::GraphIndex& mutable_replica(std::size_t r) { return *replicas_[r]; }

  /// Searches replica `r` under its reader lock.
  methods::SearchResult Search(std::size_t r, const float* query,
                               const methods::SearchParams& params,
                               methods::SearchContext* ctx) const {
    std::shared_lock<std::shared_mutex> lock(locks_[r]);
    return replicas_[r]->Search(query, params, ctx);
  }

  /// Anti-entropy digest of replica `r`, under its reader lock.
  std::uint64_t Digest(std::size_t r) const {
    std::shared_lock<std::shared_mutex> lock(locks_[r]);
    return ReplicaDigest(*replicas_[r]);
  }

  /// Replica `r`'s in-memory snapshot image (methods::SnapshotImage),
  /// taken under its reader lock: the copy-from-healthy-peer half of a
  /// rebuild.
  core::Status Image(std::size_t r, io::SnapshotReader* out) const {
    std::shared_lock<std::shared_mutex> lock(locks_[r]);
    return methods::SnapshotImage(*replicas_[r], out);
  }

  /// Installs a fresh sub-index in slot `r` under its writer lock;
  /// in-flight searches on the old replica finish first (they hold the
  /// reader side), searches on other replicas are unaffected.
  void SwapIn(std::size_t r, std::unique_ptr<methods::GraphIndex> fresh) {
    std::unique_lock<std::shared_mutex> lock(locks_[r]);
    replicas_[r] = std::move(fresh);
  }

  /// Summed footprint of all replicas.
  std::size_t IndexBytes() const {
    std::size_t total = 0;
    for (const std::unique_ptr<methods::GraphIndex>& r : replicas_) {
      if (r != nullptr) total += r->IndexBytes();
    }
    return total;
  }

 private:
  std::vector<std::unique_ptr<methods::GraphIndex>> replicas_;
  std::unique_ptr<std::shared_mutex[]> locks_;
};

}  // namespace gass::shard

#endif  // GASS_SHARD_REPLICA_SET_H_
