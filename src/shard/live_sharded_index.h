// LiveIndex over a centroid-routed collection of streaming HNSW shards:
// the repo's one live (updatable) index.
//
// The shards live in its shard::ShardSet base (shard/shard_set.h), the
// core shared with ShardedIndex: the base dataset is partitioned once at
// build time, each shard gets a fixed-capacity row block (its base rows
// plus `reserve_per_shard` rows of room) and HnswIndex replicas built over
// its base rows. What this index adds is its own: live inserts route to the
// nearest-centroid shard with room — each shard is one WAL stream, so an
// id's insert (and its later delete, via RouteDelete = owning shard) is
// logged in that shard's log and per-stream replay order is sufficient for
// recovery — plus Extend. Its checkpoint sections are the ShardSet's
// shard-set layout (SaveShards / LoadShards).
//
// A plain live HNSW is num_shards = 1: one shard holding every base row
// (Partition assigns them without clustering), one row block, one WAL
// stream.
// Its answers match a bare HnswIndex grown by BuildPrefix + Extend over
// the same rows — ids, distances and hops — and its distance count is
// one higher, for ranking the single centroid.
//
// Build runs the ShardSet's pooled build on min(K, cores) threads (each
// shard's build stays sequential and seeded, so the result does not depend
// on the pool). Every shard uses the one options.hnsw seed. Every replica
// is unsealed from build or load on (replica copies and checkpoint loads
// come out sealed), so no insert pays the layer-0 expansion under the
// updater's search lock.
//
// Searches run through the ShardSet's shard::FanOut, with no hedging and
// default breakers. The caller searches the nearest probed shard while a
// pool of min(probes, cores) - 1 threads searches the rest (probes =
// nprobe, or K when nprobe is 0); the answers are the serial fan-out's,
// bit for bit. Each sub-search filters the updater's tombstones through
// its shard's id table, so a probed shard contributes k live answers
// whenever its beam holds them. Each shard's replica is chosen by health
// (PickReplica), a failing sub-search becomes per-shard status (`partial`)
// instead of an error, and traced queries get route / shard_search /
// merge spans. A shard with no rows is not probed.
//
// Unlike ShardedIndex, Search never abandons a straggling sub-search at the
// deadline (FanOut::Stragglers::kDrain): it returns only once every
// sub-search it started has finished, because the shards and the
// tombstones the sub-searches read change under updates as soon as
// serve::Frontend releases the updater's search lock.
//
// Implements both methods::GraphIndex (the searchable face handed to
// serve::Frontend) and serve::LiveIndex (the update face handed to
// serve::Updater).

#ifndef GASS_SHARD_LIVE_SHARDED_INDEX_H_
#define GASS_SHARD_LIVE_SHARDED_INDEX_H_

#include <memory>
#include <vector>

#include "core/dataset.h"
#include "methods/hnsw_index.h"
#include "serve/live_index.h"
#include "shard/partitioner.h"
#include "shard/shard_set.h"

namespace gass::shard {

struct LiveShardedOptions {
  std::size_t num_shards = 4;
  /// Shards probed per query, best-centroid first (0 = all shards).
  std::size_t nprobe = 0;
  /// Row-block headroom per shard: live inserts a shard accepts beyond its
  /// base rows.
  std::size_t reserve_per_shard = 1024;
  /// Replicas per shard (clamped to >= 1). All replicas of a shard share
  /// one row block; replica 0 is built and the others are copied from
  /// it, then every replica is extended with the same inserts, so they
  /// stay bit-identical; a serving knob, excluded from the params
  /// fingerprint (checkpoints are replica-oblivious).
  std::size_t replicas = 1;
  methods::HnswParams hnsw;
  PartitionerParams partitioner;
  std::uint64_t seed = 42;
};

class LiveShardedIndex : public ShardSet, public serve::LiveIndex {
 public:
  explicit LiveShardedIndex(const LiveShardedOptions& options);

  /// An unbuilt shell for checkpoint loading; LoadSections() restores the
  /// shards with base rows re-materialized from `base` (which must be the
  /// dataset the original Build ran over, alive until LoadSections
  /// returns).
  static std::unique_ptr<LiveShardedIndex> Shell(
      const core::Dataset& base, const LiveShardedOptions& options);

  // --- methods::GraphIndex ---

  std::string Name() const override { return "LIVE-SHARDED-HNSW"; }
  methods::BuildStats Build(const core::Dataset& data) override;
  std::uint64_t ParamsFingerprint() const override;

  using methods::GraphIndex::LoadSections;
  using methods::GraphIndex::SaveSections;

  // --- serve::LiveIndex ---

  const methods::GraphIndex& SearchIndex() const override { return *this; }
  methods::GraphIndex* MutableSearchIndex() override { return this; }
  std::string MethodName() const override { return Name(); }
  std::size_t dim() const override { return dim_; }
  std::size_t id_capacity() const override {
    return partitioning().assignment.size();
  }
  std::size_t next_id() const override { return ShardSet::next_id(); }
  std::uint32_t num_streams() const override {
    return static_cast<std::uint32_t>(num_shards());
  }
  std::uint32_t RouteInsert(const float* vec) const override;
  std::uint32_t RouteDelete(core::VectorId id) const override;
  bool CanInsert(std::uint32_t stream) const override {
    return HasRoom(stream);
  }
  bool Exists(core::VectorId id) const override {
    return owner(id) != kNoOwner;
  }
  core::Status ApplyInsert(std::uint32_t stream, core::VectorId id,
                           const float* vec) override;
  core::Status SaveSections(io::SnapshotWriter* writer) const override;
  core::Status LoadSections(const io::SnapshotReader& reader) override;

  const methods::HnswIndex& shard_index(std::size_t s) const {
    return shard_replica(s, 0);
  }
  /// Replica `r` of shard `s` (bit-identical to replica 0 by construction;
  /// exposed so tests can assert exactly that).
  const methods::HnswIndex& shard_replica(std::size_t s, std::size_t r) const {
    return static_cast<const methods::HnswIndex&>(replicas(s).replica(r));
  }
  const std::vector<core::VectorId>& shard_global_ids(std::size_t s) const {
    return ids(s);
  }

 private:
  std::unique_ptr<methods::GraphIndex> MakeShard(std::size_t s) const override;
  methods::BuildStats BuildShard(methods::GraphIndex& index,
                                 const core::Dataset& rows,
                                 std::size_t base_rows) const override;
  /// Rejects a replica whose node count is not its shard's row count, then
  /// unseals it.
  core::Status ReadyShard(std::size_t s,
                          methods::GraphIndex& index) const override;
  /// (Re)starts the fan-out engine over the current shards.
  void StartFanOut();

  LiveShardedOptions options_;
  const core::Dataset* base_ = nullptr;  ///< Shell-load source.
  std::size_t dim_ = 0;
  std::size_t base_n_ = 0;
};

}  // namespace gass::shard

#endif  // GASS_SHARD_LIVE_SHARDED_INDEX_H_
