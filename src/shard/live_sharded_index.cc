#include "shard/live_sharded_index.h"

#include <algorithm>
#include <cstring>

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
    : options_(options),
      num_replicas_(options.replicas == 0 ? 1 : options.replicas),
      serial_rng_(options.seed) {
  GASS_CHECK_MSG(options.num_shards >= 1, "need at least one shard");
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
  core::Timer timer;
  methods::BuildStats stats;

  PartitionerParams pparams = options_.partitioner;
  pparams.num_shards = options_.num_shards;
  Partitioning partitioning = Partition(data, pparams, options_.seed);
  stats.distance_computations += partitioning.distance_computations;

  dim_ = data.dim();
  base_n_ = data.size();
  centroids_ = std::move(partitioning.centroids);
  shards_.clear();
  shards_.reserve(options_.num_shards);
  owner_.assign(
      base_n_ + options_.num_shards * options_.reserve_per_shard, kNoOwner);

  for (std::size_t s = 0; s < options_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>(options_.hnsw, num_replicas_);
    shard->global_ids = std::move(partitioning.shard_ids[s]);
    shard->base_rows = shard->global_ids.size();
    for (const core::VectorId gid : shard->global_ids) {
      owner_[gid] = static_cast<std::uint32_t>(s);
    }
    shards_.push_back(std::move(shard));
  }
  // Shard builds are independent and each stays sequential and seeded, so
  // they run on a pool with unchanged results, as in ShardedIndex::Build;
  // a failing build surfaces here through Wait().
  std::vector<methods::BuildStats> sub_stats(shards_.size());
  {
    core::ThreadPool pool(
        std::min(shards_.size(), core::DefaultThreadCount()));
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const bool accepted = pool.Submit([this, &data, &sub_stats, s] {
        Shard& shard = *shards_[s];
        shard.arena = core::Dataset(
            shard.base_rows + options_.reserve_per_shard, dim_);
        for (std::size_t local = 0; local < shard.base_rows; ++local) {
          std::memcpy(
              shard.arena.MutableRow(static_cast<core::VectorId>(local)),
              data.Row(shard.global_ids[local]), dim_ * sizeof(float));
        }
        // Replica 0 builds; the others are copies of it through an
        // in-memory snapshot image over the same arena, so they come out
        // bit-identical and keep extending identically (the copy replays
        // the level stream). A copy loads sealed; unsealing it here keeps
        // that layer-0 expansion out of the first insert, which runs under
        // the updater's exclusive search lock.
        sub_stats[s] =
            shard.primary().BuildPrefix(shard.arena, shard.base_rows);
        if (num_replicas_ > 1) {
          io::SnapshotReader image;
          core::Status status = methods::SnapshotImage(shard.primary(), &image);
          for (std::size_t r = 1; r < num_replicas_ && status.ok(); ++r) {
            methods::HnswIndex& replica = *shard.replicas[r];
            status = methods::LoadIndexFrom(&replica, shard.arena, image);
            if (status.ok()) replica.Extend(replica.inserted_count());
          }
          GASS_CHECK_MSG(status.ok(),
                         "copying live shard %zu to its replicas: %s", s,
                         status.message().c_str());
        }
      });
      GASS_CHECK(accepted);
    }
    pool.Wait();
  }
  for (const methods::BuildStats& sub : sub_stats) {
    stats.distance_computations += sub.distance_computations;
    // Shard builds overlap in time, so their transient peaks can coexist.
    stats.peak_bytes += sub.peak_bytes;
  }
  next_id_ = base_n_;
  data_ = &data;
  StartFanOut();

  stats.index_bytes = IndexBytes();
  stats.elapsed_seconds = timer.Seconds();
  return stats;
}

core::Graph LiveShardedIndex::graph() const {
  GASS_CHECK_MSG(false,
                 "LIVE-SHARDED-HNSW has no single base graph; "
                 "use shard_index(s).graph()");
  __builtin_unreachable();
}

std::size_t LiveShardedIndex::IndexBytes() const {
  std::size_t total = centroids_.SizeBytes() +
                      owner_.size() * sizeof(std::uint32_t);
  for (const auto& shard : shards_) {
    for (const auto& replica : shard->replicas) {
      total += replica->IndexBytes();
    }
    total += shard->global_ids.size() * sizeof(core::VectorId);
  }
  return total;
}

std::size_t LiveShardedIndex::MaxArena() const {
  std::size_t max_arena = 1;
  for (const auto& shard : shards_) {
    max_arena = std::max(max_arena, shard->arena.size());
  }
  return max_arena;
}

void LiveShardedIndex::StartFanOut() {
  serial_rng_ = core::Rng(options_.seed);
  // The caller searches the nearest shard itself, so one pool thread per
  // further probe, but no more than the other cores.
  const std::size_t cores = core::DefaultThreadCount();
  const std::size_t threads = std::min(EffectiveNprobe(), cores) - 1;
  fan_out_ = std::make_unique<FanOut>(
      shards_.size(), num_replicas_, MaxArena(), ShardBreakerOptions(),
      threads, FanOut::Stragglers::kDrain,
      [this](std::uint32_t s, std::uint32_t r, const float* query,
             const methods::SearchParams& params,
             methods::SearchContext* ctx) {
        return shards_[s]->replicas[r]->Search(query, params, ctx);
      },
      [this](std::uint32_t s) -> const std::vector<core::VectorId>& {
        return shards_[s]->global_ids;
      });
}

methods::SearchContext LiveShardedIndex::MakeSearchContext(
    std::uint64_t seed) const {
  return methods::SearchContext(MaxArena(), seed);
}

methods::SearchResult LiveShardedIndex::Search(
    const float* query, const methods::SearchParams& params) {
  return SearchImpl(query, params, &serial_rng_);
}

methods::SearchResult LiveShardedIndex::Search(
    const float* query, const methods::SearchParams& params,
    methods::SearchContext* ctx) const {
  return SearchImpl(query, params, &ctx->rng);
}

std::size_t LiveShardedIndex::EffectiveNprobe() const {
  const std::size_t k = shards_.size();
  return options_.nprobe == 0 ? k : std::min(options_.nprobe, k);
}

methods::SearchResult LiveShardedIndex::SearchImpl(
    const float* query, const methods::SearchParams& params,
    core::Rng* rng) const {
  return fan_out_->Search(query, centroids_, EffectiveNprobe(), params, rng,
                          /*hedge_fraction=*/0.0, /*faults=*/nullptr);
}

std::uint32_t LiveShardedIndex::RouteInsert(const float* vec) const {
  // Nearest centroid among shards with arena room; a full shard spills to
  // the next-nearest. Falls back to shard 0 when everything is full (the
  // updater's CanInsert check then rejects the insert).
  std::uint32_t best = 0;
  float best_dist = 3.402823466e38f;
  bool found = false;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!CanInsert(static_cast<std::uint32_t>(s))) continue;
    const float d =
        core::L2Sq(vec, centroids_.Row(static_cast<core::VectorId>(s)), dim_);
    if (!found || d < best_dist) {
      best = static_cast<std::uint32_t>(s);
      best_dist = d;
      found = true;
    }
  }
  return best;
}

std::uint32_t LiveShardedIndex::RouteDelete(core::VectorId id) const {
  GASS_CHECK_MSG(id < owner_.size() && owner_[id] != kNoOwner,
                 "RouteDelete of uninserted id %u", id);
  return owner_[id];
}

bool LiveShardedIndex::CanInsert(std::uint32_t stream) const {
  const Shard& shard = *shards_[stream];
  return shard.primary().inserted_count() < shard.arena.size();
}

bool LiveShardedIndex::Exists(core::VectorId id) const {
  return id < owner_.size() && owner_[id] != kNoOwner;
}

core::Status LiveShardedIndex::ApplyInsert(std::uint32_t stream,
                                           core::VectorId id,
                                           const float* vec) {
  GASS_CHECK_MSG(id == next_id_, "non-dense live insert id %u (next is %zu)",
                 id, next_id_);
  Shard& shard = *shards_[stream];
  const std::size_t local = shard.primary().inserted_count();
  GASS_CHECK_MSG(local < shard.arena.size(),
                 "live insert beyond shard %u arena capacity", stream);
  std::memcpy(shard.arena.MutableRow(static_cast<core::VectorId>(local)), vec,
              dim_ * sizeof(float));
  shard.global_ids.push_back(id);
  owner_[id] = stream;
  // The row lands in the shared arena once; the graph insert applies to
  // every replica in the same sequence order (the WAL logged it once per
  // shard), keeping the replicas bit-identical through live growth.
  for (auto& replica : shard.replicas) {
    replica->Extend(local + 1);
  }
  next_id_ = id + 1;
  return core::Status::Ok();
}

core::Status LiveShardedIndex::SaveSections(io::SnapshotWriter* writer) const {
  io::Encoder meta;
  meta.U64(shards_.size());
  meta.U64(dim_);
  meta.U64(base_n_);
  meta.U64(next_id_);
  meta.U64(options_.reserve_per_shard);
  GASS_RETURN_IF_ERROR(writer->AddSection("live.meta", std::move(meta)));

  io::Encoder centroids;
  io::EncodeDataset(centroids_, &centroids);
  GASS_RETURN_IF_ERROR(
      writer->AddSection("live.centroids", std::move(centroids)));

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    const std::string prefix = "live.s" + std::to_string(s) + ".";
    const std::size_t inserted = shard.primary().inserted_count();

    io::Encoder smeta;
    smeta.U64(shard.arena.size());
    smeta.U64(shard.base_rows);
    smeta.U64(inserted);
    GASS_RETURN_IF_ERROR(writer->AddSection(prefix + "meta",
                                            std::move(smeta)));

    io::Encoder ids;
    std::vector<std::uint64_t> gids(shard.global_ids.begin(),
                                    shard.global_ids.end());
    ids.VecU64(gids);
    GASS_RETURN_IF_ERROR(writer->AddSection(prefix + "ids", std::move(ids)));

    // Base rows re-materialize from the dataset at load; only live rows
    // (local indices >= base_rows) travel in the checkpoint.
    io::Encoder vectors;
    const std::size_t live_rows = inserted - shard.base_rows;
    if (live_rows > 0) {
      vectors.Bytes(
          shard.arena.Row(static_cast<core::VectorId>(shard.base_rows)),
          live_rows * dim_ * sizeof(float));
    }
    GASS_RETURN_IF_ERROR(writer->AddSection(prefix + "vectors",
                                            std::move(vectors)));

    // Replicas are bit-identical: the checkpoint stores exactly one graph
    // per shard (replica 0), keeping the on-disk format replica-oblivious.
    GASS_RETURN_IF_ERROR(
        shard.primary().SaveSections(writer, prefix + "index."));
  }
  return core::Status::Ok();
}

core::Status LiveShardedIndex::LoadSections(const io::SnapshotReader& reader) {
  GASS_CHECK_MSG(base_ != nullptr,
                 "LoadSections requires a Shell()-constructed index");
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection("live.meta", &buffer, &dec));
  const std::uint64_t num_shards = dec.U64();
  const std::uint64_t dim = dec.U64();
  const std::uint64_t base_n = dec.U64();
  const std::uint64_t next_id = dec.U64();
  const std::uint64_t reserve = dec.U64();
  if (!dec.ExpectEnd()) return dec.status();
  dec.Check(num_shards == options_.num_shards,
            "checkpoint shard count does not match LiveShardedOptions");
  dec.Check(dim == base_->dim(),
            "checkpoint dimension does not match the dataset");
  dec.Check(base_n == base_->size(),
            "checkpoint base row count does not match the dataset");
  dec.Check(reserve == options_.reserve_per_shard,
            "checkpoint reserve does not match LiveShardedOptions");
  if (!dec.ok()) return dec.status();

  dim_ = dim;
  base_n_ = base_n;

  GASS_RETURN_IF_ERROR(reader.OpenSection("live.centroids", &buffer, &dec));
  core::Dataset centroids;
  GASS_RETURN_IF_ERROR(io::DecodeDataset(&dec, &centroids));
  if (!dec.ExpectEnd()) return dec.status();
  dec.Check(centroids.size() == num_shards && centroids.dim() == dim_,
            "checkpoint centroid shape mismatch");
  if (!dec.ok()) return dec.status();

  const std::size_t capacity_total =
      base_n_ + options_.num_shards * options_.reserve_per_shard;
  std::vector<std::uint32_t> owner(capacity_total, kNoOwner);
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(num_shards);

  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::string prefix = "live.s" + std::to_string(s) + ".";
    GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "meta", &buffer, &dec));
    const std::uint64_t capacity = dec.U64();
    const std::uint64_t base_rows = dec.U64();
    const std::uint64_t inserted = dec.U64();
    if (!dec.ExpectEnd()) return dec.status();
    dec.Check(capacity == base_rows + options_.reserve_per_shard,
              "shard arena capacity mismatch");
    dec.Check(inserted >= base_rows && inserted <= capacity,
              "shard inserted count out of range");
    if (!dec.ok()) return dec.status();

    std::vector<std::uint64_t> gids;
    GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "ids", &buffer, &dec));
    dec.VecU64(&gids, capacity);
    if (!dec.ExpectEnd()) return dec.status();
    dec.Check(gids.size() == inserted, "shard id list size mismatch");
    if (!dec.ok()) return dec.status();

    auto shard = std::make_unique<Shard>(options_.hnsw, num_replicas_);
    shard->base_rows = base_rows;
    shard->arena = core::Dataset(capacity, dim_);
    shard->global_ids.reserve(inserted);
    for (std::size_t local = 0; local < gids.size(); ++local) {
      const std::uint64_t gid = gids[local];
      dec.Check(gid < capacity_total, "shard global id out of range");
      dec.Check(local >= base_rows || gid < base_n_,
                "shard base row maps beyond the base dataset");
      if (!dec.ok()) return dec.status();
      if (gid < capacity_total && owner[gid] != kNoOwner) {
        return core::Status::Corruption(
            "global id " + std::to_string(gid) + " owned by two shards");
      }
      owner[gid] = static_cast<std::uint32_t>(s);
      shard->global_ids.push_back(static_cast<core::VectorId>(gid));
      if (local < base_rows) {
        std::memcpy(
            shard->arena.MutableRow(static_cast<core::VectorId>(local)),
            base_->Row(static_cast<core::VectorId>(gid)),
            dim_ * sizeof(float));
      }
    }

    const std::size_t live_rows = inserted - base_rows;
    GASS_RETURN_IF_ERROR(
        reader.OpenSection(prefix + "vectors", &buffer, &dec));
    if (live_rows > 0) {
      dec.Bytes(shard->arena.MutableRow(static_cast<core::VectorId>(base_rows)),
                live_rows * dim_ * sizeof(float));
    }
    if (!dec.ExpectEnd()) return dec.status();

    // Every replica attaches from the same checkpoint sections (the graph
    // is stored once per shard; replicas are bit-identical), each getting
    // its own in-memory copy. It loads sealed and is unsealed here, during
    // recovery, rather than by the first insert under the search lock.
    for (auto& replica : shard->replicas) {
      GASS_RETURN_IF_ERROR(
          replica->LoadSections(reader, prefix + "index.", shard->arena));
      if (replica->inserted_count() != inserted) {
        return core::Status::Corruption(
            "shard " + std::to_string(s) + " restored " +
            std::to_string(replica->inserted_count()) +
            " nodes, checkpoint recorded " + std::to_string(inserted));
      }
      replica->Extend(inserted);
    }
    shards.push_back(std::move(shard));
  }

  centroids_ = std::move(centroids);
  shards_ = std::move(shards);
  owner_ = std::move(owner);
  next_id_ = next_id;
  data_ = base_;
  StartFanOut();
  return core::Status::Ok();
}

}  // namespace gass::shard
