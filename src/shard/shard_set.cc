#include "shard/shard_set.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/macros.h"
#include "core/stats.h"
#include "core/thread_pool.h"
#include "io/serialize.h"
#include "io/snapshot.h"

namespace gass::shard {

namespace {

constexpr char kMetaSection[] = "live.meta";
constexpr char kCentroidsSection[] = "live.centroids";

}  // namespace

ShardSet::ShardSet(std::uint64_t seed) : seed_(seed), serial_rng_(seed) {}

ShardSet::~ShardSet() = default;

void ShardSet::Reset(const core::Dataset& data, Partitioning partitioning,
                     std::size_t reserve, std::size_t replicas) {
  fan_out_.reset();  // Drains stragglers reading the old shards.
  data_ = &data;
  partitioning_ = std::move(partitioning);
  const std::size_t k = partitioning_.num_shards();
  partitioning_.assignment.resize(data.size() + k * reserve, kNoOwner);
  reserve_ = reserve;
  next_id_ = data.size();
  num_replicas_ = replicas == 0 ? 1 : replicas;
  rows_ = std::vector<core::Dataset>(k);
  replicas_.clear();
  replicas_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) replicas_.emplace_back(num_replicas_);
  partition_seconds_ = 0.0;
  build_seconds_.clear();
}

void ShardSet::CopyRows(const core::Dataset& data, std::size_t s,
                        std::size_t base) {
  const std::vector<core::VectorId>& ids = partitioning_.shard_ids[s];
  rows_[s] = core::Dataset(base + reserve_, data.dim());
  for (std::size_t local = 0; local < base; ++local) {
    std::memcpy(rows_[s].MutableRow(static_cast<core::VectorId>(local)),
                data.Row(ids[local]), data.dim() * sizeof(float));
  }
}

methods::BuildStats ShardSet::BuildShards(const core::Dataset& data,
                                          const PartitionerParams& partitioner,
                                          std::size_t reserve,
                                          std::size_t replicas,
                                          std::size_t threads) {
  GASS_CHECK_MSG(replicas_.empty(), "%s::Build called twice",
                 Name().c_str());
  core::Timer timer;
  Partitioning partitioning = Partition(data, partitioner, seed_);
  const double partition_seconds = timer.Seconds();
  const std::uint64_t partition_distances = partitioning.distance_computations;
  Reset(data, std::move(partitioning), reserve, replicas);
  partition_seconds_ = partition_seconds;
  const std::size_t k = num_shards();
  build_seconds_.assign(k, 0.0);
  std::vector<methods::BuildStats> sub_stats(k);
  {
    // Shard builds are independent and each stays sequential and seeded,
    // so they fan out on a pool with unchanged results; a failing build
    // (e.g. std::bad_alloc) surfaces here via Wait()'s exception
    // propagation instead of taking the process down. Replica 0 builds
    // once and the others are copies of it through an in-memory snapshot
    // image over the same rows: bit-identical by construction, at the cost
    // of a serialize and R-1 validated loads instead of R-1 builds.
    core::ThreadPool pool(threads != 0
                              ? threads
                              : std::min(k, core::DefaultThreadCount()));
    for (std::size_t s = 0; s < k; ++s) {
      const bool accepted = pool.Submit([this, &data, &sub_stats, s] {
        core::Timer shard_timer;
        const std::size_t base = partitioning_.shard_ids[s].size();
        CopyRows(data, s, base);
        std::unique_ptr<methods::GraphIndex> index = MakeShard(s);
        sub_stats[s] = BuildShard(*index, rows_[s], base);
        if (num_replicas_ > 1) {
          io::SnapshotReader image;
          core::Status status = methods::SnapshotImage(*index, &image);
          for (std::size_t r = 1; r < num_replicas_ && status.ok(); ++r) {
            std::unique_ptr<methods::GraphIndex> copy;
            status = Attach(s, image, "", &copy);
            replicas_[s].SwapIn(r, std::move(copy));
          }
          GASS_CHECK_MSG(status.ok(), "copying shard %zu to its replicas: %s",
                         s, status.message().c_str());
        }
        replicas_[s].SwapIn(0, std::move(index));
        build_seconds_[s] = shard_timer.Seconds();
      });
      GASS_CHECK(accepted);
    }
    pool.Wait();
  }
  methods::BuildStats out;
  out.distance_computations = partition_distances;
  for (std::size_t s = 0; s < k; ++s) {
    out.distance_computations += sub_stats[s].distance_computations;
    out.peak_bytes += sub_stats[s].peak_bytes + rows_[s].SizeBytes();
  }
  out.index_bytes = IndexBytes();
  out.elapsed_seconds = timer.Seconds();
  return out;
}

std::string ShardSet::ShardPrefix(std::size_t s) {
  return "live.s" + std::to_string(s) + ".";
}

core::Status ShardSet::SaveShards(io::SnapshotWriter* writer) const {
  const std::size_t dim = data_->dim();
  io::Encoder meta;
  meta.U64(num_shards());
  meta.U64(dim);
  meta.U64(data_->size());
  meta.U64(next_id_);
  meta.U64(reserve_);
  GASS_RETURN_IF_ERROR(writer->AddSection(kMetaSection, std::move(meta)));

  io::Encoder routing;
  io::EncodeDataset(centroids(), &routing);
  GASS_RETURN_IF_ERROR(
      writer->AddSection(kCentroidsSection, std::move(routing)));

  for (std::size_t s = 0; s < num_shards(); ++s) {
    const std::string prefix = ShardPrefix(s);
    const std::vector<core::VectorId>& gids = ids(s);
    const std::size_t base = rows_[s].size() - reserve_;

    io::Encoder smeta;
    smeta.U64(rows_[s].size());
    smeta.U64(base);
    smeta.U64(gids.size());
    GASS_RETURN_IF_ERROR(writer->AddSection(prefix + "meta",
                                            std::move(smeta)));

    io::Encoder table;
    table.VecU64(std::vector<std::uint64_t>(gids.begin(), gids.end()));
    GASS_RETURN_IF_ERROR(writer->AddSection(prefix + "ids", std::move(table)));

    // Base rows re-materialize from the dataset at load; only live rows
    // (local indices from `base` on) travel in the snapshot.
    io::Encoder vectors;
    const std::size_t live_rows = gids.size() - base;
    if (live_rows > 0) {
      vectors.Bytes(rows_[s].Row(static_cast<core::VectorId>(base)),
                    live_rows * dim * sizeof(float));
    }
    GASS_RETURN_IF_ERROR(writer->AddSection(prefix + "vectors",
                                            std::move(vectors)));

    GASS_RETURN_IF_ERROR(
        replicas_[s].replica(0).SaveSections(writer, prefix + "index."));
  }
  return core::Status::Ok();
}

core::Status ShardSet::LoadShards(const io::SnapshotReader& reader,
                                  const core::Dataset& data,
                                  std::size_t num_shards, std::size_t reserve,
                                  std::size_t replicas) {
  const core::Status status =
      ReadShards(reader, data, num_shards, reserve, replicas);
  if (!status.ok()) Clear();
  return status;
}

core::Status ShardSet::ReadShards(const io::SnapshotReader& reader,
                                  const core::Dataset& data,
                                  std::size_t num_shards, std::size_t reserve,
                                  std::size_t replicas) {
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection(kMetaSection, &buffer, &dec));
  const std::uint64_t k = dec.U64();
  const std::uint64_t dim = dec.U64();
  const std::uint64_t base_n = dec.U64();
  const std::uint64_t next_id = dec.U64();
  const std::uint64_t stored_reserve = dec.U64();
  if (!dec.ExpectEnd()) return dec.status();
  dec.Check(k == num_shards, "shard count does not match the index options");
  dec.Check(dim == data.dim(), "dimension does not match the dataset");
  dec.Check(base_n == data.size(),
            "base row count does not match the dataset");
  dec.Check(stored_reserve == reserve,
            "reserve does not match the index options");
  const std::size_t capacity_total = data.size() + num_shards * reserve;
  dec.Check(next_id >= base_n && next_id <= capacity_total,
            "next id out of range");
  if (!dec.ok()) return dec.status();

  Partitioning partitioning;
  GASS_RETURN_IF_ERROR(reader.OpenSection(kCentroidsSection, &buffer, &dec));
  GASS_RETURN_IF_ERROR(io::DecodeDataset(&dec, &partitioning.centroids));
  if (!dec.ExpectEnd()) return dec.status();
  const core::Dataset& centroids = partitioning.centroids;
  dec.Check(centroids.size() == k && centroids.dim() == dim,
            "centroid section holds " + std::to_string(centroids.size()) +
                "x" + std::to_string(centroids.dim()) + ", expected " +
                std::to_string(k) + "x" + std::to_string(dim));
  if (!dec.ok()) return dec.status();

  // First the id tables of every shard, checked together: each id is owned
  // once, base rows map into the base dataset and live rows into
  // [base_n, next_id), each table ascends (the partitioner emits ascending
  // base ids and live ids only grow), and the shards hold next_id rows in
  // all, so they cover every id below next_id exactly once.
  partitioning.assignment.assign(capacity_total, kNoOwner);
  partitioning.shard_ids.resize(k);
  std::vector<std::vector<core::VectorId>> base_ids(k);
  std::uint64_t total_rows = 0;
  for (std::size_t s = 0; s < k; ++s) {
    const std::string prefix = ShardPrefix(s);
    GASS_RETURN_IF_ERROR(reader.OpenSection(prefix + "meta", &buffer, &dec));
    const std::uint64_t capacity = dec.U64();
    const std::uint64_t base = dec.U64();
    const std::uint64_t inserted = dec.U64();
    if (!dec.ExpectEnd()) return dec.status();
    dec.Check(capacity == base + reserve, "shard row capacity mismatch");
    dec.Check(inserted >= base && inserted <= capacity,
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
      const char* error = nullptr;
      if (local < base && gid >= base_n) {
        error = "shard base row maps beyond the base dataset";
      } else if (local >= base && (gid < base_n || gid >= next_id)) {
        error = "shard live row id outside [base_n, next_id)";
      } else if (!table.empty() && gid <= table.back()) {
        error = "shard ids not ascending";
      }
      if (error != nullptr) {
        dec.Check(false, error);
        return dec.status();
      }
      if (partitioning.assignment[gid] != kNoOwner) {
        return core::Status::Corruption(
            "global id " + std::to_string(gid) + " owned by two shards");
      }
      partitioning.assignment[gid] = static_cast<std::uint32_t>(s);
      table.push_back(static_cast<core::VectorId>(gid));
    }
    base_ids[s].assign(table.begin(), table.begin() + base);
  }
  if (total_rows != next_id) {
    return core::Status::Corruption(
        "shards hold " + std::to_string(total_rows) + " rows, next id is " +
        std::to_string(next_id));
  }
  // Centroids are a pure function of (data, base members); recomputing and
  // comparing bitwise catches value tampering that a resealed checksum
  // would otherwise let through.
  const core::Dataset recomputed = ComputeCentroids(data, base_ids);
  if (std::memcmp(centroids.data(), recomputed.data(),
                  centroids.SizeBytes()) != 0) {
    return core::Status::Corruption(
        reader.path() + ": stored centroids do not match the shard member "
                        "means");
  }

  // Base rows re-materialize from the dataset, live rows from the
  // snapshot. Every replica attaches from the same sections (the graph is
  // stored once per shard; replicas are bit-identical), each getting its
  // own in-memory copy.
  Reset(data, std::move(partitioning), reserve, replicas);
  next_id_ = next_id;
  for (std::size_t s = 0; s < k; ++s) {
    const std::string prefix = ShardPrefix(s);
    const std::size_t base = base_ids[s].size();
    CopyRows(data, s, base);
    const std::size_t live_rows = ids(s).size() - base;
    GASS_RETURN_IF_ERROR(
        reader.OpenSection(prefix + "vectors", &buffer, &dec));
    if (live_rows > 0) {
      dec.Bytes(rows_[s].MutableRow(static_cast<core::VectorId>(base)),
                live_rows * dim * sizeof(float));
    }
    if (!dec.ExpectEnd()) return dec.status();

    for (std::size_t r = 0; r < num_replicas_; ++r) {
      std::unique_ptr<methods::GraphIndex> replica;
      GASS_RETURN_IF_ERROR(Attach(s, reader, prefix + "index.", &replica));
      replicas_[s].SwapIn(r, std::move(replica));
    }
  }
  return core::Status::Ok();
}

core::Status ShardSet::CheckShardIds(const io::SnapshotReader& reader,
                                     std::size_t s) const {
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(
      reader.OpenSection(ShardPrefix(s) + "ids", &buffer, &dec));
  std::vector<std::uint64_t> gids;
  dec.VecU64(&gids, rows_[s].size());
  if (!dec.ExpectEnd()) return dec.status();
  dec.Check(std::equal(gids.begin(), gids.end(), ids(s).begin(), ids(s).end()),
            "shard " + std::to_string(s) +
                " ids differ from the ones being served");
  return dec.status();
}

core::Status ShardSet::Attach(
    std::size_t s, const io::SnapshotReader& reader, const std::string& prefix,
    std::unique_ptr<methods::GraphIndex>* out) const {
  std::unique_ptr<methods::GraphIndex> fresh = MakeShard(s);
  GASS_RETURN_IF_ERROR(fresh->LoadSections(reader, prefix, rows_[s]));
  GASS_RETURN_IF_ERROR(ReadyShard(s, *fresh));
  *out = std::move(fresh);
  return core::Status::Ok();
}

std::size_t ShardSet::Append(std::size_t s, core::VectorId id,
                             const float* vec) {
  GASS_CHECK_MSG(id == next_id_, "non-dense insert id %u (next is %zu)", id,
                 next_id_);
  std::vector<core::VectorId>& ids = partitioning_.shard_ids[s];
  const std::size_t local = ids.size();
  GASS_CHECK_MSG(local < rows_[s].size(),
                 "insert beyond shard %zu's row block", s);
  GASS_CHECK_MSG(id < partitioning_.assignment.size(),
                 "id %u beyond the owner table", id);
  std::memcpy(rows_[s].MutableRow(static_cast<core::VectorId>(local)), vec,
              rows_[s].dim() * sizeof(float));
  ids.push_back(id);
  partitioning_.assignment[id] = static_cast<std::uint32_t>(s);
  ++next_id_;
  return local;
}

void ShardSet::Serve(const ShardBreakerOptions& breaker, std::size_t threads,
                     FanOut::Stragglers stragglers) {
  serial_rng_ = core::Rng(seed_);
  fan_out_.reset();
  fan_out_ = std::make_unique<FanOut>(*this, breaker, threads, stragglers);
}

void ShardSet::Clear() {
  fan_out_.reset();
  data_ = nullptr;
  next_id_ = 0;
  partitioning_ = Partitioning();
  rows_.clear();
  replicas_.clear();
  partition_seconds_ = 0.0;
  build_seconds_.clear();
}

std::size_t ShardSet::EffectiveNprobe() const {
  GASS_CHECK_MSG(!replicas_.empty(), "EffectiveNprobe before Build");
  const std::size_t k = num_shards();
  return nprobe_ == 0 ? k : std::min(nprobe_, k);
}

methods::SearchResult ShardSet::Search(const float* query,
                                       const methods::SearchParams& params) {
  return SearchWith(query, params, &serial_rng_);
}

methods::SearchResult ShardSet::Search(const float* query,
                                       const methods::SearchParams& params,
                                       methods::SearchContext* ctx) const {
  return SearchWith(query, params, &ctx->rng);
}

methods::SearchResult ShardSet::SearchWith(const float* query,
                                           const methods::SearchParams& params,
                                           core::Rng* rng) const {
  GASS_CHECK_MSG(fan_out_ != nullptr, "Search before Build");
  return fan_out_->Search(query, EffectiveNprobe(), params, rng,
                          hedge_fraction_, faults_);
}

methods::SearchContext ShardSet::MakeSearchContext(std::uint64_t seed) const {
  return methods::SearchContext(MaxRows(), seed);
}

core::Graph ShardSet::graph() const {
  GASS_CHECK_MSG(false, "%s has no single base graph", Name().c_str());
  return core::Graph();
}

std::size_t ShardSet::MaxRows() const {
  std::size_t max_rows = 1;
  for (const core::Dataset& rows : rows_) {
    max_rows = std::max(max_rows, rows.size());
  }
  return max_rows;
}

std::size_t ShardSet::IndexBytes() const {
  std::size_t total =
      partitioning_.centroids.SizeBytes() +
      partitioning_.assignment.size() * sizeof(std::uint32_t);
  for (std::size_t s = 0; s < num_shards(); ++s) {
    total += ids(s).size() * sizeof(core::VectorId) + replicas_[s].IndexBytes();
  }
  return total;
}

FanOut& ShardSet::fan_out() const {
  GASS_CHECK_MSG(fan_out_ != nullptr, "fan-out used before Build");
  return *fan_out_;
}

}  // namespace gass::shard
