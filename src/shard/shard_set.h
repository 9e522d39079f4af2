// ShardSet: the one shard core under both sharded indexes. ShardedIndex
// (read-only) and LiveShardedIndex (updatable) derive from it and keep
// only what is their own (docs/SHARDING.md "One shard core").
//
// It owns the Partitioning (centroids; the owner table `assignment`, with
// n + K * reserve entries; the id tables `shard_ids`, which grow on live
// inserts), one row block per shard shared by its R replicas (base rows,
// then `reserve` rows of room), one ReplicaSet per shard, the pooled build
// (per shard: copy the rows, build replica 0, copy it to the others
// through an in-memory snapshot image), the one snapshot layout both
// indexes save and load (SaveShards / LoadShards), and the FanOut, which
// reads the set directly. On those it implements the GraphIndex search
// face.
//
// Thread-safety: the three-argument Search may run concurrently from many
// threads; nothing else may run beside it.

#ifndef GASS_SHARD_SHARD_SET_H_
#define GASS_SHARD_SHARD_SET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/rng.h"
#include "methods/graph_index.h"
#include "shard/fan_out.h"
#include "shard/partitioner.h"
#include "shard/replica_set.h"

namespace gass::shard {

class ShardSet : public methods::GraphIndex {
 public:
  /// Owner-table entry of an id no shard holds yet.
  static constexpr std::uint32_t kNoOwner = ~std::uint32_t{0};

  ~ShardSet() override;
  /// The fan-out engine holds the set's address.
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  methods::SearchResult Search(const float* query,
                               const methods::SearchParams& params) override;
  methods::SearchResult Search(const float* query,
                               const methods::SearchParams& params,
                               methods::SearchContext* ctx) const override;
  bool SupportsConcurrentSearch() const override { return true; }
  /// Sized by the largest row block: sub-searches run over shard-local id
  /// ranges, never the global one.
  methods::SearchContext MakeSearchContext(std::uint64_t seed) const override;
  /// No single base graph: aborts (check HasBaseGraph() first).
  core::Graph graph() const override;
  bool HasBaseGraph() const override { return false; }
  /// Centroids, owner table, id tables and every replica.
  std::size_t IndexBytes() const override;

  /// The nprobe a search will actually use: clamped to [1, K].
  std::size_t EffectiveNprobe() const;

  // State, valid after build or load.
  std::size_t num_shards() const { return replicas_.size(); }
  /// Replicas per shard (>= 1).
  std::size_t num_replicas() const { return num_replicas_; }
  const Partitioning& partitioning() const { return partitioning_; }
  const core::Dataset& centroids() const { return partitioning_.centroids; }
  const std::vector<core::VectorId>& ids(std::size_t s) const {
    return partitioning_.shard_ids[s];
  }
  const ReplicaSet& replicas(std::size_t s) const { return replicas_[s]; }
  /// Section-name prefix of shard `s` in the shard-set layout: "live.s<s>.".
  static std::string ShardPrefix(std::size_t s);
  /// Largest row block (>= 1): the id range any sub-search spans.
  std::size_t MaxRows() const;
  /// Build-time breakdown (empty after a load). partition_seconds() +
  /// max(shard_build_seconds()) is the parallel critical path.
  double partition_seconds() const { return partition_seconds_; }
  const std::vector<double>& shard_build_seconds() const {
    return build_seconds_;
  }

 protected:
  /// `seed` seeds the partitioner and the serial Search's RNG.
  explicit ShardSet(std::uint64_t seed);

  // Query-time knobs: ShardedIndex makes them public, the live index not.
  /// Shards probed per query, best centroid first (0 = every shard).
  void SetNprobe(std::size_t nprobe) { nprobe_ = nprobe; }
  /// Hedged fan-out trigger (see ShardedIndexOptions::hedge_fraction).
  void SetHedgeFraction(double fraction) { hedge_fraction_ = fraction; }
  /// Attaches (or detaches, with null) a fault injector (not owned) whose
  /// ShardFaultPlan entries drive deterministic shard-level faults: slow
  /// and failing sub-searches (thrown inside the fan-out worker, the path
  /// a real failure takes) and, in ShardedIndex, corrupt reloads.
  void SetFaultInjector(serve::FaultInjector* faults) { faults_ = faults; }

  /// A fresh, unbuilt sub-index for shard `s`.
  virtual std::unique_ptr<methods::GraphIndex> MakeShard(
      std::size_t s) const = 0;
  /// Builds a fresh sub-index over the first `base_rows` rows of `rows`.
  virtual methods::BuildStats BuildShard(methods::GraphIndex& index,
                                         const core::Dataset& rows,
                                         std::size_t base_rows) const = 0;
  /// Readies shard `s`'s sub-index just restored from snapshot sections;
  /// an error rejects it.
  virtual core::Status ReadyShard(std::size_t /*s*/,
                                  methods::GraphIndex& /*index*/) const {
    return core::Status::Ok();
  }

  /// Partitions `data` and builds every shard on `threads` pool threads
  /// (0 = one per shard, up to the hardware concurrency); `replicas` 0
  /// means 1. The stats count the partitioner's distances, and every
  /// shard's peak plus its row block (shard builds overlap in time).
  methods::BuildStats BuildShards(const core::Dataset& data,
                                  const PartitionerParams& partitioner,
                                  std::size_t reserve, std::size_t replicas,
                                  std::size_t threads);
  /// Writes the shard-set layout (docs/PERSISTENCE.md "Sharded
  /// snapshots"): "live.meta" (K, dim, base rows, next id, reserve),
  /// "live.centroids", then per shard its meta (row capacity, base rows,
  /// rows held), its global ids, the rows past its base, and replica 0's
  /// sections under ShardPrefix(s) + "index." (replicas are bit-identical,
  /// so the layout is replica-oblivious).
  core::Status SaveShards(io::SnapshotWriter* writer) const;
  /// Restores what SaveShards wrote, over `data` (the base rows), into
  /// `num_shards` shards with `reserve` rows of room and `replicas` copies
  /// each, checking everything before the set can be served: counts and
  /// shapes against the arguments and `data`, id tables that cover every id
  /// below the next one exactly once in ascending order, centroids bitwise
  /// equal to the base members' means, and every replica's sections. Back
  /// to the unbuilt state on failure. The caller then calls Serve.
  core::Status LoadShards(const io::SnapshotReader& reader,
                          const core::Dataset& data, std::size_t num_shards,
                          std::size_t reserve, std::size_t replicas);
  /// Fails unless `reader`'s shard-`s` id table is the one being served.
  core::Status CheckShardIds(const io::SnapshotReader& reader,
                             std::size_t s) const;
  /// A fresh sub-index for shard `s` restored from `reader`'s sections
  /// under `prefix` over the shard's rows, then readied.
  core::Status Attach(std::size_t s, const io::SnapshotReader& reader,
                      const std::string& prefix,
                      std::unique_ptr<methods::GraphIndex>* out) const;
  /// Copies `vec` into shard `s`'s next free row as global id `id`, which
  /// must be next_id(), and records it in the id and owner tables; returns
  /// its shard-local id.
  std::size_t Append(std::size_t s, core::VectorId id, const float* vec);
  /// (Re)starts the fan-out engine and resets the serial RNG.
  void Serve(const ShardBreakerOptions& breaker, std::size_t threads,
             FanOut::Stragglers stragglers);
  /// Back to the unbuilt state.
  void Clear();

  std::uint32_t owner(core::VectorId id) const {
    return id < partitioning_.assignment.size() ? partitioning_.assignment[id]
                                                : kNoOwner;
  }
  /// One past the largest global id the shards hold: ids are dense, so
  /// the shards hold every id below it, each once.
  std::size_t next_id() const { return next_id_; }
  bool HasRoom(std::size_t s) const { return ids(s).size() < rows_[s].size(); }
  ReplicaSet& replicas(std::size_t s) { return replicas_[s]; }
  serve::FaultInjector* faults() const { return faults_; }
  /// The fan-out engine (aborts before build or load).
  FanOut& fan_out() const;
  bool serving() const { return fan_out_ != nullptr; }

 private:
  /// Takes `partitioning` and sizes the owner table for `data`'s rows plus
  /// every shard's reserve; the next id is data.size(), row blocks stay
  /// empty and replica slots unset.
  void Reset(const core::Dataset& data, Partitioning partitioning,
             std::size_t reserve, std::size_t replicas);
  /// LoadShards' body; the wrapper resets the set when it fails.
  core::Status ReadShards(const io::SnapshotReader& reader,
                          const core::Dataset& data, std::size_t num_shards,
                          std::size_t reserve, std::size_t replicas);
  /// Allocates shard `s`'s row block and copies its first `base` rows.
  void CopyRows(const core::Dataset& data, std::size_t s, std::size_t base);
  methods::SearchResult SearchWith(const float* query,
                                   const methods::SearchParams& params,
                                   core::Rng* rng) const;

  std::uint64_t seed_;
  Partitioning partitioning_;
  std::vector<core::Dataset> rows_;
  std::vector<ReplicaSet> replicas_;
  std::size_t num_replicas_ = 1;
  std::size_t reserve_ = 0;
  std::size_t next_id_ = 0;
  std::size_t nprobe_ = 0;
  double hedge_fraction_ = 0.0;
  serve::FaultInjector* faults_ = nullptr;
  double partition_seconds_ = 0.0;
  std::vector<double> build_seconds_;
  core::Rng serial_rng_;
  /// Declared last, so it is destroyed first: abandoned stragglers finish
  /// while the rows and replicas they read are still alive.
  std::unique_ptr<FanOut> fan_out_;
};

}  // namespace gass::shard

#endif  // GASS_SHARD_SHARD_SET_H_
