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

void LiveShardedIndex::ReadyShard(methods::GraphIndex& index) const {
  // A copy loads sealed; unsealing it here keeps that layer-0 expansion out
  // of the first insert, which runs under the updater's exclusive search
  // lock.
  auto& hnsw = static_cast<methods::HnswIndex&>(index);
  hnsw.Extend(hnsw.inserted_count());
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
  next_id_ = base_n_;
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
  GASS_CHECK_MSG(id == next_id_, "non-dense live insert id %u (next is %zu)",
                 id, next_id_);
  const std::size_t local = Append(stream, id, vec);
  // The row lands in the shared row block once; the graph insert applies
  // to every replica in the same sequence order (the WAL logged it once
  // per shard), keeping the replicas bit-identical through live growth.
  ReplicaSet& set = replicas(stream);
  for (std::size_t r = 0; r < set.size(); ++r) {
    static_cast<methods::HnswIndex&>(set.mutable_replica(r)).Extend(local + 1);
  }
  next_id_ = id + 1;
  return core::Status::Ok();
}

core::Status LiveShardedIndex::SaveSections(io::SnapshotWriter* writer) const {
  io::Encoder meta;
  meta.U64(num_shards());
  meta.U64(dim_);
  meta.U64(base_n_);
  meta.U64(next_id_);
  meta.U64(options_.reserve_per_shard);
  GASS_RETURN_IF_ERROR(writer->AddSection("live.meta", std::move(meta)));

  io::Encoder routing;
  io::EncodeDataset(centroids(), &routing);
  GASS_RETURN_IF_ERROR(
      writer->AddSection("live.centroids", std::move(routing)));

  for (std::size_t s = 0; s < num_shards(); ++s) {
    const std::string prefix = "live.s" + std::to_string(s) + ".";
    const std::vector<core::VectorId>& gids = ids(s);
    const core::Dataset& block = rows(s);
    const std::size_t base = base_rows(s);

    io::Encoder smeta;
    smeta.U64(block.size());
    smeta.U64(base);
    smeta.U64(gids.size());
    GASS_RETURN_IF_ERROR(writer->AddSection(prefix + "meta",
                                            std::move(smeta)));

    io::Encoder table;
    table.VecU64(std::vector<std::uint64_t>(gids.begin(), gids.end()));
    GASS_RETURN_IF_ERROR(writer->AddSection(prefix + "ids", std::move(table)));

    // Base rows re-materialize from the dataset at load; only live rows
    // (local indices >= base_rows) travel in the checkpoint.
    io::Encoder vectors;
    const std::size_t live_rows = gids.size() - base;
    if (live_rows > 0) {
      vectors.Bytes(block.Row(static_cast<core::VectorId>(base)),
                    live_rows * dim_ * sizeof(float));
    }
    GASS_RETURN_IF_ERROR(writer->AddSection(prefix + "vectors",
                                            std::move(vectors)));

    // Replicas are bit-identical: the checkpoint stores exactly one graph
    // per shard (replica 0), keeping the on-disk format replica-oblivious.
    GASS_RETURN_IF_ERROR(
        shard_index(s).SaveSections(writer, prefix + "index."));
  }
  return core::Status::Ok();
}

core::Status LiveShardedIndex::LoadSections(const io::SnapshotReader& reader) {
  const core::Status status = LoadShards(reader);
  if (!status.ok()) Clear();
  return status;
}

core::Status LiveShardedIndex::LoadShards(const io::SnapshotReader& reader) {
  GASS_CHECK_MSG(base_ != nullptr,
                 "LoadSections requires a Shell()-constructed index");
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection("live.meta", &buffer, &dec));
  const std::uint64_t k = dec.U64();
  const std::uint64_t dim = dec.U64();
  const std::uint64_t base_n = dec.U64();
  const std::uint64_t next_id = dec.U64();
  const std::uint64_t reserve = dec.U64();
  if (!dec.ExpectEnd()) return dec.status();
  dec.Check(k == options_.num_shards,
            "checkpoint shard count does not match LiveShardedOptions");
  dec.Check(dim == base_->dim(),
            "checkpoint dimension does not match the dataset");
  dec.Check(base_n == base_->size(),
            "checkpoint base row count does not match the dataset");
  dec.Check(reserve == options_.reserve_per_shard,
            "checkpoint reserve does not match LiveShardedOptions");
  const std::size_t capacity_total =
      base_n + options_.num_shards * options_.reserve_per_shard;
  dec.Check(next_id >= base_n && next_id <= capacity_total,
            "checkpoint next id out of range");
  if (!dec.ok()) return dec.status();

  dim_ = dim;
  base_n_ = base_n;

  Partitioning partitioning;
  GASS_RETURN_IF_ERROR(reader.OpenSection("live.centroids", &buffer, &dec));
  GASS_RETURN_IF_ERROR(io::DecodeDataset(&dec, &partitioning.centroids));
  if (!dec.ExpectEnd()) return dec.status();
  dec.Check(partitioning.centroids.size() == k &&
                partitioning.centroids.dim() == dim_,
            "checkpoint centroid shape mismatch");
  if (!dec.ok()) return dec.status();

  // First the id tables of every shard, checked together: each id is owned
  // once, base rows map into the base dataset and live rows into
  // [base_n, next_id), and the shards hold next_id rows in all, so they
  // cover every id below next_id exactly once.
  partitioning.assignment.assign(capacity_total, kNoOwner);
  partitioning.shard_ids.resize(k);
  std::vector<std::size_t> bases(k);
  std::uint64_t total_rows = 0;
  for (std::size_t s = 0; s < k; ++s) {
    const std::string prefix = "live.s" + std::to_string(s) + ".";
    GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "meta", &buffer, &dec));
    const std::uint64_t capacity = dec.U64();
    bases[s] = dec.U64();
    const std::uint64_t inserted = dec.U64();
    if (!dec.ExpectEnd()) return dec.status();
    dec.Check(capacity == bases[s] + options_.reserve_per_shard,
              "shard row capacity mismatch");
    dec.Check(inserted >= bases[s] && inserted <= capacity,
              "shard inserted count out of range");
    if (!dec.ok()) return dec.status();
    total_rows += inserted;

    std::vector<std::uint64_t> gids;
    GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "ids", &buffer, &dec));
    dec.VecU64(&gids, capacity);
    if (!dec.ExpectEnd()) return dec.status();
    dec.Check(gids.size() == inserted, "shard id list size mismatch");
    if (!dec.ok()) return dec.status();

    std::vector<core::VectorId>& table = partitioning.shard_ids[s];
    table.reserve(inserted);
    for (std::size_t local = 0; local < gids.size(); ++local) {
      const std::uint64_t gid = gids[local];
      dec.Check(local >= bases[s] || gid < base_n_,
                "shard base row maps beyond the base dataset");
      dec.Check(local < bases[s] || (gid >= base_n_ && gid < next_id),
                "shard live row id outside [base_n, next_id)");
      if (!dec.ok()) return dec.status();
      if (partitioning.assignment[gid] != kNoOwner) {
        return core::Status::Corruption(
            "global id " + std::to_string(gid) + " owned by two shards");
      }
      partitioning.assignment[gid] = static_cast<std::uint32_t>(s);
      table.push_back(static_cast<core::VectorId>(gid));
    }
  }
  if (total_rows != next_id) {
    return core::Status::Corruption(
        "checkpoint shards hold " + std::to_string(total_rows) +
        " rows, next id is " + std::to_string(next_id));
  }

  // Base rows re-materialize from the dataset, live rows from the
  // checkpoint. Every replica attaches from the same checkpoint sections
  // (the graph is stored once per shard; replicas are bit-identical), each
  // getting its own in-memory copy. It loads sealed and is unsealed here,
  // during recovery, rather than by the first insert under the search lock.
  Place(*base_, std::move(partitioning), options_.reserve_per_shard,
        options_.replicas);
  for (std::size_t s = 0; s < k; ++s) {
    const std::string prefix = "live.s" + std::to_string(s) + ".";
    const std::size_t inserted = ids(s).size();
    const std::size_t live_rows = inserted - bases[s];
    GASS_RETURN_IF_ERROR(
        reader.OpenSection(prefix + "vectors", &buffer, &dec));
    if (live_rows > 0) {
      dec.Bytes(
          mutable_rows(s).MutableRow(static_cast<core::VectorId>(bases[s])),
          live_rows * dim_ * sizeof(float));
    }
    if (!dec.ExpectEnd()) return dec.status();

    for (std::size_t r = 0; r < num_replicas(); ++r) {
      auto replica = std::make_unique<methods::HnswIndex>(options_.hnsw);
      GASS_RETURN_IF_ERROR(
          replica->LoadSections(reader, prefix + "index.", rows(s)));
      if (replica->inserted_count() != inserted) {
        return core::Status::Corruption(
            "shard " + std::to_string(s) + " restored " +
            std::to_string(replica->inserted_count()) +
            " nodes, checkpoint recorded " + std::to_string(inserted));
      }
      ReadyShard(*replica);
      replicas(s).SwapIn(r, std::move(replica));
    }
  }

  next_id_ = next_id;
  StartFanOut();
  return core::Status::Ok();
}

}  // namespace gass::shard
