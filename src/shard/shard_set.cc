#include "shard/shard_set.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/macros.h"
#include "core/stats.h"
#include "core/thread_pool.h"
#include "io/snapshot.h"

namespace gass::shard {

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
            status = Attach(s, image, &copy);
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

void ShardSet::Place(const core::Dataset& data, Partitioning partitioning,
                     std::size_t reserve, std::size_t replicas) {
  Reset(data, std::move(partitioning), reserve, replicas);
  for (std::size_t s = 0; s < num_shards(); ++s) {
    const std::vector<core::VectorId>& ids = partitioning_.shard_ids[s];
    std::size_t base = 0;
    while (base < ids.size() && ids[base] < data.size()) ++base;
    CopyRows(data, s, base);
  }
}

core::Status ShardSet::Attach(
    std::size_t s, const io::SnapshotReader& image,
    std::unique_ptr<methods::GraphIndex>* out) const {
  std::unique_ptr<methods::GraphIndex> fresh = MakeShard(s);
  GASS_RETURN_IF_ERROR(methods::LoadIndexFrom(fresh.get(), rows_[s], image));
  ReadyShard(*fresh);
  *out = std::move(fresh);
  return core::Status::Ok();
}

std::size_t ShardSet::Append(std::size_t s, core::VectorId id,
                             const float* vec) {
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
