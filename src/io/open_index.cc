#include "io/open_index.h"

#include <utility>

#include "io/snapshot.h"
#include "methods/factory.h"
#include "shard/sharded_index.h"

namespace gass::io {

core::Status OpenIndex(const std::string& path, const core::Dataset& data,
                       const OpenIndexOptions& options,
                       std::unique_ptr<methods::GraphIndex>* out) {
  SnapshotReader reader;
  GASS_RETURN_IF_ERROR(SnapshotReader::Open(path, &reader));
  if (shard::IsShardedSnapshotMethod(reader.method())) {
    std::unique_ptr<shard::ShardedIndex> sharded;
    GASS_RETURN_IF_ERROR(shard::LoadShardedIndex(
        path, data, options.seed, options.replicas, &sharded));
    if (options.nprobe > 0) sharded->SetNprobe(options.nprobe);
    if (options.fanout_threads > 0) {
      sharded->SetFanoutThreads(options.fanout_threads);
    }
    *out = std::move(sharded);
    return core::Status::Ok();
  }
  return methods::LoadAnyIndex(path, data, options.seed, out);
}

core::Status OpenIndex(const std::string& path, const core::Dataset& data,
                       std::uint64_t seed,
                       std::unique_ptr<methods::GraphIndex>* out) {
  OpenIndexOptions options;
  options.seed = seed;
  return OpenIndex(path, data, options, out);
}

core::Status OpenLiveIndex(const core::Dataset& base,
                           const OpenLiveIndexOptions& options,
                           std::unique_ptr<serve::LiveIndex>* live,
                           std::unique_ptr<serve::Updater>* updater,
                           serve::RecoveryReport* report) {
  const std::string ckpt = serve::Updater::CheckpointPath(options.updater);
  SnapshotReader reader;
  GASS_RETURN_IF_ERROR(SnapshotReader::Open(ckpt, &reader));
  // The method name is pinned by LiveShardedIndex::Name(); Updater::Open
  // re-verifies name and fingerprint against the shell before loading
  // anything. A LIVE-HNSW checkpoint predates the one live index: its
  // sections are laid out differently and its WAL headers carry another
  // fingerprint, so no replay can bring it back.
  if (reader.method() == "LIVE-HNSW") {
    return core::Status::InvalidArgument(
        ckpt + ": LIVE-HNSW checkpoints are no longer readable; rebuild "
        "the index as a one-shard LIVE-SHARDED-HNSW (num_shards = 1)");
  }
  if (reader.method() != "LIVE-SHARDED-HNSW") {
    return core::Status::InvalidArgument(
        ckpt + ": not a live-index checkpoint (method " + reader.method() +
        "); open it with OpenIndex instead");
  }
  *live = shard::LiveShardedIndex::Shell(base, options.sharded);
  return serve::Updater::Open(live->get(), options.updater, updater, report);
}

}  // namespace gass::io
