// LiveIndex over a centroid-routed collection of streaming HNSW shards:
// the repo's one live (updatable) index.
//
// The base dataset is partitioned once at build time (shard::Partition),
// each shard gets its own fixed-capacity arena + HnswIndex built over its
// base rows, and live inserts route to the nearest-centroid shard with
// arena room — each shard is one WAL stream, so an id's insert (and its
// later delete, via RouteDelete = owning shard) is logged in that shard's
// log and per-stream replay order is sufficient for recovery.
//
// A plain live HNSW is num_shards = 1: one shard holding every base row
// (Partition assigns them without clustering), one arena, one WAL stream.
// Its answers match a bare HnswIndex grown by BuildPrefix + Extend over
// the same rows — ids, distances and hops — and its distance count is
// one higher, for ranking the single centroid.
//
// Build partitions the base, then builds the shards in parallel on a
// core::ThreadPool (each shard's build stays sequential and seeded, so
// the result does not depend on the pool). Every replica is unsealed
// from build or load on (replica copies and checkpoint loads come out
// sealed), so no insert pays the layer-0 expansion under the updater's
// search lock.
//
// Searches run through shard::FanOut, the same route/execute/merge engine
// as shard::ShardedIndex, with no hedging and default breakers. The caller
// searches the nearest probed shard while a pool of min(probes, cores) - 1
// threads searches the rest (probes = nprobe, or K when nprobe is 0); the
// answers are the serial fan-out's, bit for bit. Each sub-search filters
// the updater's tombstones through its shard's id table, so a probed
// shard contributes k live answers whenever its beam holds them. Each
// shard's replica is chosen by health (PickReplica), a failing sub-search
// becomes per-shard status (`partial`) instead of an error, and traced
// queries get route / shard_search / merge spans. A shard with no rows is
// not probed.
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
#include "core/rng.h"
#include "methods/hnsw_index.h"
#include "serve/live_index.h"
#include "shard/fan_out.h"
#include "shard/partitioner.h"

namespace gass::shard {

struct LiveShardedOptions {
  std::size_t num_shards = 4;
  /// Shards probed per query, best-centroid first (0 = all shards).
  std::size_t nprobe = 0;
  /// Arena headroom per shard: live inserts a shard accepts beyond its
  /// base rows.
  std::size_t reserve_per_shard = 1024;
  /// Replicas per shard (clamped to >= 1). All replicas of a shard share
  /// one vector arena; replica 0 is built and the others are copied from
  /// it, then every replica is extended with the same inserts, so they
  /// stay bit-identical; a serving knob, excluded from the params
  /// fingerprint (checkpoints are replica-oblivious).
  std::size_t replicas = 1;
  methods::HnswParams hnsw;
  PartitionerParams partitioner;
  std::uint64_t seed = 42;
};

class LiveShardedIndex : public methods::GraphIndex, public serve::LiveIndex {
 public:
  explicit LiveShardedIndex(const LiveShardedOptions& options);
  /// The fan-out engine's callbacks hold `this`.
  LiveShardedIndex(const LiveShardedIndex&) = delete;
  LiveShardedIndex& operator=(const LiveShardedIndex&) = delete;

  /// An unbuilt shell for checkpoint loading; LoadSections() restores the
  /// shards with base rows re-materialized from `base` (which must be the
  /// dataset the original Build ran over, alive until LoadSections
  /// returns).
  static std::unique_ptr<LiveShardedIndex> Shell(
      const core::Dataset& base, const LiveShardedOptions& options);

  // --- methods::GraphIndex ---

  std::string Name() const override { return "LIVE-SHARDED-HNSW"; }
  methods::BuildStats Build(const core::Dataset& data) override;
  methods::SearchResult Search(const float* query,
                               const methods::SearchParams& params) override;
  methods::SearchResult Search(const float* query,
                               const methods::SearchParams& params,
                               methods::SearchContext* ctx) const override;
  bool SupportsConcurrentSearch() const override { return true; }
  bool HasBaseGraph() const override { return false; }
  core::Graph graph() const override;
  std::size_t IndexBytes() const override;
  /// Sized by the largest shard arena: sub-searches run over shard-local
  /// id ranges, never the global one.
  methods::SearchContext MakeSearchContext(
      std::uint64_t seed) const override;
  std::uint64_t ParamsFingerprint() const override;

  using methods::GraphIndex::LoadSections;
  using methods::GraphIndex::SaveSections;

  // --- serve::LiveIndex ---

  const methods::GraphIndex& SearchIndex() const override { return *this; }
  methods::GraphIndex* MutableSearchIndex() override { return this; }
  std::string MethodName() const override { return Name(); }
  std::size_t dim() const override { return dim_; }
  std::size_t id_capacity() const override { return owner_.size(); }
  std::size_t next_id() const override { return next_id_; }
  std::uint32_t num_streams() const override {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint32_t RouteInsert(const float* vec) const override;
  std::uint32_t RouteDelete(core::VectorId id) const override;
  bool CanInsert(std::uint32_t stream) const override;
  bool Exists(core::VectorId id) const override;
  core::Status ApplyInsert(std::uint32_t stream, core::VectorId id,
                           const float* vec) override;
  core::Status SaveSections(io::SnapshotWriter* writer) const override;
  core::Status LoadSections(const io::SnapshotReader& reader) override;

  const methods::HnswIndex& shard_index(std::size_t s) const {
    return *shards_[s]->replicas.front();
  }
  /// Replica `r` of shard `s` (bit-identical to replica 0 by construction;
  /// exposed so tests can assert exactly that).
  const methods::HnswIndex& shard_replica(std::size_t s, std::size_t r) const {
    return *shards_[s]->replicas[r];
  }
  std::size_t num_replicas() const { return num_replicas_; }
  const std::vector<core::VectorId>& shard_global_ids(std::size_t s) const {
    return shards_[s]->global_ids;
  }

 private:
  static constexpr std::uint32_t kNoOwner = ~std::uint32_t{0};

  /// Largest shard arena (>= 1): the id range any sub-search spans.
  std::size_t MaxArena() const;
  /// Shards probed per query: nprobe clamped to K, or K when nprobe is 0.
  std::size_t EffectiveNprobe() const;
  /// (Re)creates the fan-out engine over the current shards.
  void StartFanOut();
  methods::SearchResult SearchImpl(const float* query,
                                   const methods::SearchParams& params,
                                   core::Rng* rng) const;

  struct Shard {
    Shard(const methods::HnswParams& params, std::size_t num_replicas) {
      replicas.reserve(num_replicas);
      for (std::size_t r = 0; r < num_replicas; ++r) {
        replicas.push_back(std::make_unique<methods::HnswIndex>(params));
      }
    }
    core::Dataset arena;
    /// R HNSW graphs over the one shared arena; identical parameters and
    /// insertion order keep them bit-identical, so the WAL logs each
    /// update once per shard and replay regenerates every replica.
    std::vector<std::unique_ptr<methods::HnswIndex>> replicas;
    methods::HnswIndex& primary() { return *replicas.front(); }
    const methods::HnswIndex& primary() const { return *replicas.front(); }
    /// global_ids[local] = global id of the shard's local row `local`.
    std::vector<core::VectorId> global_ids;
    std::size_t base_rows = 0;
  };

  LiveShardedOptions options_;
  std::size_t num_replicas_ = 1;
  const core::Dataset* base_ = nullptr;  ///< Shell-load source.
  std::size_t dim_ = 0;
  std::size_t base_n_ = 0;
  core::Dataset centroids_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// owner_[id] = shard owning global id (kNoOwner = not yet inserted).
  std::vector<std::uint32_t> owner_;
  std::size_t next_id_ = 0;
  /// RNG backing the serial two-argument Search.
  core::Rng serial_rng_;
  /// Routing, pooled fan-out, merge, and the per-replica breakers.
  std::unique_ptr<FanOut> fan_out_;
};

}  // namespace gass::shard

#endif  // GASS_SHARD_LIVE_SHARDED_INDEX_H_
