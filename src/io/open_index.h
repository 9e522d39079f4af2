// One-call snapshot opening for any on-disk index layout.
//
// A snapshot at `path` is one file holding either a plain per-method index
// (load with methods::LoadAnyIndex) or a sharded one (load with
// shard::LoadShardedIndex) — and every CLI/bench used to sniff the
// difference itself. OpenIndex centralizes the dispatch: it reads the
// snapshot header once, checks the method name with
// shard::IsShardedSnapshotMethod, and hands back a ready-to-search
// GraphIndex either way.

#ifndef GASS_IO_OPEN_INDEX_H_
#define GASS_IO_OPEN_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/dataset.h"
#include "core/status.h"
#include "methods/graph_index.h"
#include "serve/updater.h"
#include "shard/live_sharded_index.h"

namespace gass::io {

struct OpenIndexOptions {
  /// Base seed; must match the seed the saved index was built with (the
  /// snapshot's params fingerprint is verified by the underlying loader).
  std::uint64_t seed = 42;
  /// Sharded snapshots only: post-load nprobe override (0 = keep the
  /// default of probing every shard).
  std::size_t nprobe = 0;
  /// Sharded snapshots only: per-query fan-out threads (0 = fan out on
  /// the caller thread — the right choice under an outer frontend).
  std::size_t fanout_threads = 0;
  /// Sharded snapshots only: replicas attached per shard (0 or 1 = none).
  /// A serving knob, not a snapshot property — every replica of a shard
  /// loads from the same sections of the one file.
  std::size_t replicas = 1;
};

/// Opens the snapshot at `path` — plain or sharded — against `data` and
/// returns the loaded index. The sniff reads only the snapshot header;
/// both loaders then re-validate everything they consume.
core::Status OpenIndex(const std::string& path, const core::Dataset& data,
                       const OpenIndexOptions& options,
                       std::unique_ptr<methods::GraphIndex>* out);

/// Convenience overload with default options except the seed.
core::Status OpenIndex(const std::string& path, const core::Dataset& data,
                       std::uint64_t seed,
                       std::unique_ptr<methods::GraphIndex>* out);

struct OpenLiveIndexOptions {
  /// Checkpoint/WAL location and durability knobs; the checkpoint is read
  /// from serve::Updater::CheckpointPath(updater).
  serve::UpdaterOptions updater;
  /// Shell parameters — must match the original build (fingerprint-
  /// verified by Updater::Open).
  shard::LiveShardedOptions sharded;
};

/// Recovers a live (updatable) index from its checkpoint + WALs: checks
/// that the checkpoint holds a LIVE-SHARDED-HNSW index, builds its shell
/// over `base` (the original build dataset), and replays through
/// serve::Updater::Open. On success `*live` owns the index, `*updater`
/// accepts new updates, and `*report` says what replay did. A checkpoint
/// of the retired single-HNSW live layout (LIVE-HNSW) is refused with
/// InvalidArgument: its index has to be rebuilt as a one-shard
/// LIVE-SHARDED-HNSW.
core::Status OpenLiveIndex(const core::Dataset& base,
                           const OpenLiveIndexOptions& options,
                           std::unique_ptr<serve::LiveIndex>* live,
                           std::unique_ptr<serve::Updater>* updater,
                           serve::RecoveryReport* report);

}  // namespace gass::io

#endif  // GASS_IO_OPEN_INDEX_H_
