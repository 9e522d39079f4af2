// The mutable-index contract the WAL-backed update path writes through.
//
// serve::Updater (updater.h) writes through this interface to the one
// live index, shard::LiveShardedIndex (a centroid-routed collection of
// streaming HNSW shards; a plain live HNSW is its one-shard case).
// LiveIndex is the seam — it owns the vector arena(s) and graph(s) and
// answers "where does this update go" (stream routing) and "apply it"
// (in-memory mutation); the updater owns everything durable (WAL,
// tombstones, checkpoints) and all locking. serve/ therefore never
// includes shard/ headers: the implementation lives in shard/ and is
// handed in through this interface, same layering as Frontend over
// GraphIndex.

#ifndef GASS_SERVE_LIVE_INDEX_H_
#define GASS_SERVE_LIVE_INDEX_H_

#include <cstdint>
#include <string>

#include "core/status.h"
#include "core/types.h"
#include "io/snapshot.h"
#include "methods/graph_index.h"

namespace gass::serve {

/// A graph index that can grow in place. All methods are externally
/// synchronized by the updater (Apply* under its exclusive lock, the rest
/// under at least the shared lock); implementations hold no locks of
/// their own.
class LiveIndex {
 public:
  virtual ~LiveIndex() = default;

  /// The searchable face of this index (what the Frontend queries).
  /// Alive for the lifetime of the LiveIndex.
  virtual const methods::GraphIndex& SearchIndex() const = 0;
  virtual methods::GraphIndex* MutableSearchIndex() = 0;

  /// Snapshot identity: method name and params fingerprint stored in
  /// checkpoint headers and WAL headers, so recovery can never replay a
  /// log into an index built with different knobs.
  virtual std::string MethodName() const = 0;
  virtual std::uint64_t ParamsFingerprint() const = 0;

  virtual std::size_t dim() const = 0;
  /// Total id space (base vectors + reserved growth room). Ids are
  /// assigned densely: the next insert gets id next_id().
  virtual std::size_t id_capacity() const = 0;
  virtual std::size_t next_id() const = 0;

  /// Number of WAL streams this index shards its updates over (one per
  /// shard, so 1 for a one-shard index). Stream s gets its own
  /// log file; recovery merges the streams by global sequence number, so
  /// inserts that interleaved across shards replay in exactly the order
  /// their ids were assigned.
  virtual std::uint32_t num_streams() const = 0;

  /// Stream an insert of `vec` belongs to (the nearest-centroid shard with
  /// room; always 0 with one shard). Pure routing — no mutation.
  virtual std::uint32_t RouteInsert(const float* vec) const = 0;
  /// Stream that owns already-inserted id (the shard it lives in).
  virtual std::uint32_t RouteDelete(core::VectorId id) const = 0;

  /// Whether stream `s` has arena room for one more insert.
  virtual bool CanInsert(std::uint32_t stream) const = 0;
  /// Whether `id` has been inserted (base or live).
  virtual bool Exists(core::VectorId id) const = 0;

  /// Applies a logged insert: copies `vec` into the arena as `id` and
  /// extends the graph. `id` must equal next_id() at call time and the
  /// routed stream must have room — the updater validates both *before*
  /// logging, so a replayed record can never fail here.
  virtual core::Status ApplyInsert(std::uint32_t stream, core::VectorId id,
                                   const float* vec) = 0;

  /// Checkpoint persistence: the full live state (arena vectors beyond the
  /// base set, graphs, routing) as sections under the "live." prefix.
  virtual core::Status SaveSections(io::SnapshotWriter* writer) const = 0;
  virtual core::Status LoadSections(const io::SnapshotReader& reader) = 0;
};

}  // namespace gass::serve

#endif  // GASS_SERVE_LIVE_INDEX_H_
