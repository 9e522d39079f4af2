#include "shard/live_sharded_index.h"

#include <algorithm>

#include "core/distance.h"
#include "core/macros.h"
#include "core/thread_pool.h"
#include "io/serialize.h"
#include "methods/fingerprint.h"

namespace gass::shard {

namespace {

void EncodeOptions(io::Encoder* enc, const LiveShardedOptions& options) {
  enc->U64(options.num_shards);
  enc->U64(options.reserve_per_shard);
  methods::EncodeParams(enc, options.hnsw);
  enc->U8(static_cast<std::uint8_t>(options.partitioner.kind));
  enc->U64(options.partitioner.kmeans_sample);
  enc->U64(options.partitioner.kmeans_iters);
  enc->F32(static_cast<float>(options.partitioner.balance_slack));
  enc->U64(options.seed);
}

}  // namespace

LiveShardedIndex::LiveShardedIndex(const LiveShardedOptions& options)
    : ShardSet(options.seed), options_(options) {
  GASS_CHECK_MSG(options.num_shards >= 1, "need at least one shard");
  SetNprobe(options.nprobe);
}

std::unique_ptr<methods::GraphIndex> LiveShardedIndex::MakeShard(
    std::size_t /*s*/) const {
  return std::make_unique<methods::HnswIndex>(options_.hnsw);
}

methods::BuildStats LiveShardedIndex::BuildShard(
    methods::GraphIndex& index, const core::Dataset& rows,
    std::size_t base_rows) const {
  return static_cast<methods::HnswIndex&>(index).BuildPrefix(rows, base_rows);
}

core::Status LiveShardedIndex::ReadyShard(std::size_t s,
                                          methods::GraphIndex& index) const {
  auto& hnsw = static_cast<methods::HnswIndex&>(index);
  if (hnsw.inserted_count() != ids(s).size()) {
    return core::Status::Corruption(
        "shard " + std::to_string(s) + " restored " +
        std::to_string(hnsw.inserted_count()) + " nodes, its id table holds " +
        std::to_string(ids(s).size()));
  }
  // A copy loads sealed; unsealing it here keeps that layer-0 expansion out
  // of the first insert, which runs under the updater's exclusive search
  // lock.
  hnsw.Extend(hnsw.inserted_count());
  return core::Status::Ok();
}

std::unique_ptr<LiveShardedIndex> LiveShardedIndex::Shell(
    const core::Dataset& base, const LiveShardedOptions& options) {
  auto index = std::make_unique<LiveShardedIndex>(options);
  index->base_ = &base;
  // The fingerprint covers base_n_, so the shell must pin it before
  // Updater::Open compares against the checkpoint header.
  index->base_n_ = base.size();
  index->dim_ = base.dim();
  return index;
}

std::uint64_t LiveShardedIndex::ParamsFingerprint() const {
  io::Encoder enc;
  EncodeOptions(&enc, options_);
  enc.U64(base_n_);
  return methods::FingerprintBytes(enc);
}

methods::BuildStats LiveShardedIndex::Build(const core::Dataset& data) {
  GASS_CHECK_MSG(!data.empty(), "LiveShardedIndex needs a non-empty base");
  PartitionerParams partitioner = options_.partitioner;
  partitioner.num_shards = options_.num_shards;
  dim_ = data.dim();
  base_n_ = data.size();
  const methods::BuildStats stats =
      BuildShards(data, partitioner, options_.reserve_per_shard,
                  options_.replicas, /*threads=*/0);
  StartFanOut();
  return stats;
}

void LiveShardedIndex::StartFanOut() {
  // The caller searches the nearest shard itself, so one pool thread per
  // further probe, but no more than the other cores.
  const std::size_t cores = core::DefaultThreadCount();
  const std::size_t threads = std::min(EffectiveNprobe(), cores) - 1;
  Serve(ShardBreakerOptions(), threads, FanOut::Stragglers::kDrain);
}

std::uint32_t LiveShardedIndex::RouteInsert(const float* vec) const {
  // Nearest centroid among shards with room; a full shard spills to the
  // next-nearest. Falls back to shard 0 when everything is full (the
  // updater's CanInsert check then rejects the insert).
  std::uint32_t best = 0;
  float best_dist = 3.402823466e38f;
  bool found = false;
  for (std::size_t s = 0; s < num_shards(); ++s) {
    if (!CanInsert(static_cast<std::uint32_t>(s))) continue;
    const float d = core::L2Sq(
        vec, centroids().Row(static_cast<core::VectorId>(s)), dim_);
    if (!found || d < best_dist) {
      best = static_cast<std::uint32_t>(s);
      best_dist = d;
      found = true;
    }
  }
  return best;
}

std::uint32_t LiveShardedIndex::RouteDelete(core::VectorId id) const {
  GASS_CHECK_MSG(Exists(id), "RouteDelete of uninserted id %u", id);
  return owner(id);
}

core::Status LiveShardedIndex::ApplyInsert(std::uint32_t stream,
                                           core::VectorId id,
                                           const float* vec) {
  const std::size_t local = Append(stream, id, vec);
  // The row lands in the shared row block once; the graph insert applies
  // to every replica in the same sequence order (the WAL logged it once
  // per shard), keeping the replicas bit-identical through live growth.
  ReplicaSet& set = replicas(stream);
  for (std::size_t r = 0; r < set.size(); ++r) {
    static_cast<methods::HnswIndex&>(set.mutable_replica(r)).Extend(local + 1);
  }
  return core::Status::Ok();
}

core::Status LiveShardedIndex::SaveSections(io::SnapshotWriter* writer) const {
  return SaveShards(writer);
}

core::Status LiveShardedIndex::LoadSections(const io::SnapshotReader& reader) {
  GASS_CHECK_MSG(base_ != nullptr,
                 "LoadSections requires a Shell()-constructed index");
  GASS_RETURN_IF_ERROR(LoadShards(reader, *base_, options_.num_shards,
                                  options_.reserve_per_shard,
                                  options_.replicas));
  StartFanOut();
  return core::Status::Ok();
}

}  // namespace gass::shard
