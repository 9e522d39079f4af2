#include "shard/sharded_index.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "core/macros.h"
#include "core/stats.h"
#include "core/thread_pool.h"
#include "io/hash.h"
#include "io/serialize.h"
#include "io/snapshot.h"
#include "methods/factory.h"
#include "methods/fingerprint.h"
#include "serve/fault_injector.h"

namespace gass::shard {

namespace {

/// Golden-ratio odd multiplier (same mix constant as core::Rng).
constexpr std::uint64_t kSeedMix = 0x9E3779B97F4A7C15ULL;
/// Seed for the per-shard whole-file hashes stored in the manifest.
constexpr std::uint64_t kShardFileHashSeed = 0x53484152ULL;  // "SHAR"
/// Decode-time sanity cap on shard counts (far above anything sensible).
constexpr std::uint64_t kMaxShards = 1ULL << 20;

constexpr char kManifestSection[] = "sharded.manifest";
constexpr char kAssignmentSection[] = "sharded.assignment";
constexpr char kCentroidsSection[] = "sharded.centroids";
constexpr char kMethodPrefix[] = "SHARDED:";

core::Status ReadFileBytes(const std::string& path,
                           std::vector<std::uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return core::Status::IoError("cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return core::Status::IoError("cannot stat " + path);
  out->resize(static_cast<std::size_t>(size));
  in.seekg(0, std::ios::beg);
  if (size > 0) {
    in.read(reinterpret_cast<char*>(out->data()), size);
  }
  if (!in) return core::Status::IoError("cannot read " + path);
  return core::Status::Ok();
}

/// Opens `bytes` as an in-memory snapshot image labelled `label`.
core::Status OpenImage(std::vector<std::uint8_t> bytes, std::string label,
                       io::SnapshotReader* out) {
  return io::SnapshotReader::OpenBytes(
      std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes)),
      std::move(label), out);
}

bool IsKnownMethod(const std::string& name) {
  for (const std::string& known : methods::AllMethodNames()) {
    if (known == name) return true;
  }
  return false;
}

}  // namespace

bool IsShardedSnapshotMethod(const std::string& method) {
  return method.rfind(kMethodPrefix, 0) == 0;
}

ShardedIndex::ShardedIndex(const ShardedIndexOptions& options)
    : options_(options), serial_rng_(options.seed) {
  GASS_CHECK_MSG(IsKnownMethod(options_.method),
                 "unknown sub-index method '%s'", options_.method.c_str());
  GASS_CHECK_MSG(options_.partitioner.num_shards >= 1,
                 "num_shards must be >= 1");
}

ShardedIndex::~ShardedIndex() {
  // Background reloads and abandoned fan-out stragglers both touch shards_
  // and the breakers: drain them while every member is still alive.
  WaitForReloads();
  fan_out_.reset();
}

std::string ShardedIndex::Name() const {
  std::string name = kMethodPrefix;
  for (const char c : options_.method) {
    name.push_back(
        static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  }
  return name;
}

std::uint64_t ShardedIndex::SubIndexSeed(std::uint64_t seed, std::size_t s) {
  // s == 0 yields `seed` itself, so a K=1 sharded build constructs its one
  // sub-index exactly as the unsharded CreateIndex(method, seed) would —
  // the foundation of the bit-identity guarantee.
  return seed ^ (kSeedMix * static_cast<std::uint64_t>(s));
}

std::string ShardedIndex::ShardPath(const std::string& path, std::size_t s) {
  return path + ".shard" + std::to_string(s);
}

std::uint64_t ShardedIndex::ParamsFingerprint() const {
  io::Encoder enc;
  enc.Str("sharded");
  enc.Str(options_.method);
  enc.U8(static_cast<std::uint8_t>(options_.partitioner.kind));
  enc.U64(options_.partitioner.num_shards);
  enc.U64(options_.partitioner.kmeans_sample);
  enc.U64(options_.partitioner.kmeans_iters);
  enc.F64(options_.partitioner.balance_slack);
  enc.U64(options_.seed);
  // Fold in the sub-method's own parameter fingerprint (a prototype is
  // enough: every shard uses the same construction knobs, only the seed
  // mix differs and the base seed is already encoded above).
  enc.U64(methods::CreateIndex(options_.method,
                               SubIndexSeed(options_.seed, 0))
              ->ParamsFingerprint());
  return methods::FingerprintBytes(enc);
}

methods::BuildStats ShardedIndex::Build(const core::Dataset& data) {
  GASS_CHECK_MSG(shards_.empty(), "ShardedIndex::Build called twice");
  core::Timer timer;
  partitioning_ = Partition(data, options_.partitioner, options_.seed);
  partition_seconds_ = timer.Seconds();
  const std::size_t k = partitioning_.num_shards();
  const std::size_t replicas = options_.replicas == 0 ? 1 : options_.replicas;
  shard_data_.resize(k);
  shards_.clear();
  shards_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) shards_.emplace_back(replicas);
  shard_build_seconds_.assign(k, 0.0);
  std::vector<double> materialize_seconds(k, 0.0);
  std::vector<methods::BuildStats> sub_stats(k);
  {
    // Shard builds are independent, so they simply fan out on a pool; a
    // failing build (e.g. std::bad_alloc) surfaces here via Wait()'s
    // exception propagation instead of taking the process down. Two
    // phases: every shard's rows materialize first, then every shard
    // builds once and copies that build to its other replicas through an
    // in-memory snapshot image — bit-identical by construction, at the
    // cost of a serialize and R-1 validated loads instead of R-1 builds.
    core::ThreadPool pool(options_.build_threads);
    for (std::size_t s = 0; s < k; ++s) {
      const bool accepted =
          pool.Submit([this, &data, &materialize_seconds, s] {
            core::Timer mat_timer;
            shard_data_[s] = partitioning_.ShardView(data, s).Materialize();
            materialize_seconds[s] = mat_timer.Seconds();
          });
      GASS_CHECK(accepted);
    }
    pool.Wait();
    for (std::size_t s = 0; s < k; ++s) {
      const bool accepted = pool.Submit([this, &sub_stats, s, replicas] {
        core::Timer shard_timer;
        std::unique_ptr<methods::GraphIndex> index = methods::CreateIndex(
            options_.method, SubIndexSeed(options_.seed, s));
        sub_stats[s] = index->Build(shard_data_[s]);
        if (replicas > 1) {
          io::SnapshotReader image;
          core::Status status = methods::SnapshotImage(*index, &image);
          for (std::size_t r = 1; r < replicas && status.ok(); ++r) {
            std::unique_ptr<methods::GraphIndex> copy;
            status = AttachReplica(s, image, &copy);
            shards_[s].Set(r, std::move(copy));
          }
          GASS_CHECK_MSG(status.ok(), "copying shard %zu to its replicas: %s",
                         s, status.message().c_str());
        }
        shards_[s].Set(0, std::move(index));
        shard_build_seconds_[s] = shard_timer.Seconds();
      });
      GASS_CHECK(accepted);
    }
    pool.Wait();
  }
  // The shard's critical-path time: materialization plus its build and
  // replica copies.
  for (std::size_t s = 0; s < k; ++s) {
    shard_build_seconds_[s] += materialize_seconds[s];
  }
  FinishInit(data);

  methods::BuildStats out;
  out.distance_computations = partitioning_.distance_computations;
  for (const methods::BuildStats& s : sub_stats) {
    out.distance_computations += s.distance_computations;
    // Shard builds overlap in time, so the transient peaks can coexist;
    // summing is the conservative bound.
    out.peak_bytes += s.peak_bytes;
  }
  for (const core::Dataset& d : shard_data_) out.peak_bytes += d.SizeBytes();
  out.index_bytes = IndexBytes();
  out.elapsed_seconds = timer.Seconds();
  return out;
}

void ShardedIndex::FinishInit(const core::Dataset& data) {
  WaitForReloads();
  data_ = &data;
  num_replicas_ = options_.replicas == 0 ? 1 : options_.replicas;
  std::size_t max_shard_size = 1;
  for (const core::Dataset& d : shard_data_) {
    max_shard_size = std::max(max_shard_size, d.size());
  }
  serial_rng_ = core::Rng(options_.seed);
  fan_out_ = std::make_unique<FanOut>(
      shards_.size(), num_replicas_, max_shard_size, options_.breaker,
      options_.fanout_threads, FanOut::Stragglers::kAbandon,
      [this](std::uint32_t s, std::uint32_t r, const float* query,
             const methods::SearchParams& params,
             methods::SearchContext* ctx) {
        return shards_[s].Search(r, query, params, ctx);
      },
      [this](std::uint32_t s) -> const std::vector<core::VectorId>& {
        return partitioning_.shard_ids[s];
      });
  {
    std::lock_guard<std::mutex> lock(reload_mutex_);
    reload_inflight_.assign(shards_.size(), 0);
  }
}

core::Status ShardedIndex::AttachReplica(
    std::size_t s, const io::SnapshotReader& image,
    std::unique_ptr<methods::GraphIndex>* out) const {
  std::unique_ptr<methods::GraphIndex> fresh =
      methods::CreateIndex(options_.method, SubIndexSeed(options_.seed, s));
  GASS_RETURN_IF_ERROR(
      methods::LoadIndexFrom(fresh.get(), shard_data_[s], image));
  *out = std::move(fresh);
  return core::Status::Ok();
}

void ShardedIndex::SetBreakerOptions(const ShardBreakerOptions& breaker) {
  options_.breaker = breaker;
  if (fan_out_ != nullptr) fan_out_->SetBreakerOptions(breaker);
}

const ShardHealthTable& ShardedIndex::health() const {
  GASS_CHECK_MSG(fan_out_ != nullptr, "health() before Build");
  return fan_out_->health();
}

void ShardedIndex::SetFanoutThreads(std::size_t threads) {
  options_.fanout_threads = threads;
  if (fan_out_ != nullptr) fan_out_->SetThreads(threads);
}

std::size_t ShardedIndex::EffectiveNprobe() const {
  GASS_CHECK_MSG(!shards_.empty(), "EffectiveNprobe before Build");
  const std::size_t k = shards_.size();
  if (options_.nprobe == 0) return k;
  return std::min(options_.nprobe, k);
}

const methods::GraphIndex& ShardedIndex::shard(std::size_t s) const {
  GASS_CHECK(s < shards_.size());
  return shards_[s].replica(0);
}

const methods::GraphIndex& ShardedIndex::replica(std::size_t s,
                                                 std::size_t r) const {
  GASS_CHECK(s < shards_.size() && r < shards_[s].size());
  return shards_[s].replica(r);
}

std::size_t ShardedIndex::shard_size(std::size_t s) const {
  GASS_CHECK(s < shard_data_.size());
  return shard_data_[s].size();
}

std::uint64_t ShardedIndex::probe_count(std::size_t s) const {
  GASS_CHECK(s < shards_.size());
  return fan_out_->probe_count(s);
}

core::Graph ShardedIndex::graph() const {
  GASS_CHECK_MSG(false, "a SHARDED index has no single base graph");
  return core::Graph();
}

std::size_t ShardedIndex::IndexBytes() const {
  std::size_t total = partitioning_.centroids.SizeBytes() +
                      partitioning_.assignment.size() * sizeof(std::uint32_t);
  for (const std::vector<core::VectorId>& ids : partitioning_.shard_ids) {
    total += ids.size() * sizeof(core::VectorId);
  }
  for (const ReplicaSet& s : shards_) {
    total += s.IndexBytes();
  }
  return total;
}

methods::SearchResult ShardedIndex::Search(
    const float* query, const methods::SearchParams& params) {
  return SearchImpl(query, params, &serial_rng_);
}

methods::SearchResult ShardedIndex::Search(const float* query,
                                           const methods::SearchParams& params,
                                           methods::SearchContext* ctx) const {
  return SearchImpl(query, params, &ctx->rng);
}

methods::SearchResult ShardedIndex::SearchImpl(
    const float* query, const methods::SearchParams& params,
    core::Rng* rng) const {
  GASS_CHECK_MSG(fan_out_ != nullptr, "Search before Build");
  return fan_out_->Search(query, partitioning_.centroids, EffectiveNprobe(),
                          params, rng, options_.hedge_fraction, faults_);
}

core::Status ShardedIndex::ReloadShard(std::size_t s) {
  GASS_CHECK(s < shards_.size());
  if (snapshot_path_.empty()) {
    return core::Status::InvalidArgument(
        "no recovery snapshot recorded for " + Name() +
        " (LoadSnapshot records one; after Build + SaveSnapshot call "
        "SetRecoverySnapshot)");
  }
  if (faults_ != nullptr &&
      faults_->OnShardReload(static_cast<std::uint32_t>(s))) {
    return core::Status::Corruption("injected reload corruption for shard " +
                                    std::to_string(s));
  }
  const std::string shard_path = ShardPath(snapshot_path_, s);
  // The shard file is read and opened once (replicas are bit-identical,
  // and the snapshot stores one copy per shard); every replica attaches
  // from those bytes and is swapped in under its own writer lock, so
  // searches keep flowing on the replicas not currently swapping. The
  // open and each attach re-validate the snapshot's checksums, method
  // name, params fingerprint, and dataset binding, so a corrupted shard
  // file fails here and the old (quarantined) sub-indexes keep serving.
  std::vector<std::uint8_t> bytes;
  GASS_RETURN_IF_ERROR(ReadFileBytes(shard_path, &bytes));
  io::SnapshotReader image;
  GASS_RETURN_IF_ERROR(OpenImage(std::move(bytes), shard_path, &image));
  for (std::size_t r = 0; r < num_replicas_; ++r) {
    std::unique_ptr<methods::GraphIndex> fresh;
    GASS_RETURN_IF_ERROR(AttachReplica(s, image, &fresh));
    shards_[s].SwapIn(r, std::move(fresh));
    // Re-enter rotation through the half-open path: the next routing
    // decision probes this replica, and only a passing probe closes the
    // breaker (generation bump included).
    fan_out_->health().OnReloaded(s, r);
  }
  return core::Status::Ok();
}

core::Status ShardedIndex::RebuildReplica(std::size_t s, std::size_t r) {
  GASS_CHECK(s < shards_.size());
  GASS_CHECK(r < num_replicas_);
  if (faults_ != nullptr &&
      faults_->OnShardReload(static_cast<std::uint32_t>(s))) {
    return core::Status::Corruption("injected rebuild corruption for shard " +
                                    std::to_string(s));
  }
  io::SnapshotReader image;
  if (!snapshot_path_.empty()) {
    // Snapshot-backed: the shard file is the canonical copy.
    GASS_RETURN_IF_ERROR(
        io::SnapshotReader::Open(ShardPath(snapshot_path_, s), &image));
  } else {
    if (num_replicas_ < 2) {
      return core::Status::InvalidArgument(
          "cannot rebuild the only replica of shard " + std::to_string(s) +
          " without a recovery snapshot");
    }
    // Copy-from-healthy-peer: serialize a peer replica — preferring one
    // whose breaker is closed — into an in-memory snapshot image and
    // restore the quarantined slot from it. The image passes the full
    // checksum and bounds validation of a load, so a corrupt peer fails
    // here instead of propagating its corruption.
    std::size_t peer = num_replicas_;
    for (std::size_t cand = 0; cand < num_replicas_; ++cand) {
      if (cand == r) continue;
      if (peer == num_replicas_) peer = cand;
      if (fan_out_->health().state(s, cand) == BreakerState::kClosed) {
        peer = cand;
        break;
      }
    }
    GASS_RETURN_IF_ERROR(shards_[s].Image(peer, &image));
  }
  std::unique_ptr<methods::GraphIndex> fresh;
  GASS_RETURN_IF_ERROR(AttachReplica(s, image, &fresh));
  shards_[s].SwapIn(r, std::move(fresh));
  // Rebuilt but not yet trusted: generation bump + forced half-open probe;
  // only a passing probe re-closes the breaker.
  fan_out_->health().OnReloaded(s, r);
  return core::Status::Ok();
}

ScrubReport ShardedIndex::ScrubReplicas(bool rebuild) {
  GASS_CHECK_MSG(!shards_.empty(), "ScrubReplicas before Build");
  ScrubReport report;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t reps = shards_[s].size();
    report.replicas_checked += reps;
    if (reps < 2) continue;  // No peer group to compare against.
    std::vector<std::uint64_t> digests(reps);
    for (std::size_t r = 0; r < reps; ++r) {
      digests[r] = shards_[s].Digest(r);
    }
    const std::uint64_t majority = MajorityDigest(digests);
    for (std::size_t r = 0; r < reps; ++r) {
      if (digests[r] == majority) continue;
      // Replicas are bit-identical by construction, so divergence from the
      // peer majority is corruption by definition: force the breaker open
      // (routing stops using the replica immediately), then restore it
      // online while the healthy replicas keep serving.
      ++report.divergent;
      fan_out_->health().Quarantine(s, r);
      ++report.quarantined;
      if (rebuild) {
        if (RebuildReplica(s, r).ok()) {
          ++report.rebuilt;
        } else {
          ++report.rebuild_failures;
        }
      }
    }
  }
  return report;
}

bool ShardedIndex::StartShardReload(std::size_t s) {
  GASS_CHECK(s < shards_.size());
  std::lock_guard<std::mutex> lock(reload_mutex_);
  if (reload_inflight_[s] != 0) return false;
  reload_inflight_[s] = 1;
  reload_threads_.emplace_back([this, s] {
    {
      std::unique_lock<std::mutex> held(reload_mutex_);
      reloads_released_.wait(held, [this] { return !reloads_held_; });
    }
    // Status intentionally discarded: a failed background reload leaves
    // the breaker open, which is the observable signal.
    (void)ReloadShard(s);
    std::lock_guard<std::mutex> inner(reload_mutex_);
    reload_inflight_[s] = 0;
  });
  return true;
}

void ShardedIndex::WaitForReloads() {
  // Swap the threads out before joining: a finishing worker re-takes
  // reload_mutex_ to clear its in-flight flag, so joining under the lock
  // would deadlock.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(reload_mutex_);
    threads.swap(reload_threads_);
    reloads_held_ = false;
  }
  reloads_released_.notify_all();
  for (std::thread& t : threads) t.join();
}

void ShardedIndex::HoldReloadsForTest() {
  std::lock_guard<std::mutex> lock(reload_mutex_);
  reloads_held_ = true;
}

core::Status ShardedIndex::SaveSnapshot(const std::string& path) const {
  if (shards_.empty() || data_ == nullptr) {
    return core::Status::InvalidArgument("cannot save an unbuilt " + Name() +
                                         " index");
  }
  const std::size_t k = shards_.size();
  // Shard files first, manifest last: a crash mid-save can orphan shard
  // files but never publish a manifest whose shards are missing, because
  // the manifest itself is written crash-safely after all of them exist.
  std::vector<std::uint64_t> shard_sizes(k);
  std::vector<std::uint64_t> shard_hashes(k);
  for (std::size_t s = 0; s < k; ++s) {
    const std::string shard_path = ShardPath(path, s);
    // Replicas are bit-identical, so the snapshot stores exactly one copy
    // per shard (replica 0) — the on-disk format is replica-oblivious and
    // unchanged from the unreplicated layout.
    GASS_RETURN_IF_ERROR(
        methods::SaveIndex(shards_[s].replica(0), shard_path));
    std::vector<std::uint8_t> bytes;
    GASS_RETURN_IF_ERROR(ReadFileBytes(shard_path, &bytes));
    shard_sizes[s] = shard_data_[s].size();
    shard_hashes[s] = io::Hash64(bytes.data(), bytes.size(),
                                 kShardFileHashSeed);
  }

  io::SnapshotWriter writer(Name(), ParamsFingerprint(), data_->size(),
                            data_->dim());
  io::Encoder manifest;
  manifest.Str(options_.method);
  manifest.U8(static_cast<std::uint8_t>(options_.partitioner.kind));
  manifest.U64(k);
  manifest.U64(options_.partitioner.kmeans_sample);
  manifest.U64(options_.partitioner.kmeans_iters);
  manifest.F64(options_.partitioner.balance_slack);
  manifest.VecU64(shard_sizes);
  manifest.VecU64(shard_hashes);
  GASS_RETURN_IF_ERROR(
      writer.AddSection(kManifestSection, std::move(manifest)));

  io::Encoder assignment;
  assignment.VecU32(partitioning_.assignment);
  GASS_RETURN_IF_ERROR(
      writer.AddSection(kAssignmentSection, std::move(assignment)));

  io::Encoder centroids;
  io::EncodeDataset(partitioning_.centroids, &centroids);
  GASS_RETURN_IF_ERROR(
      writer.AddSection(kCentroidsSection, std::move(centroids)));
  return writer.WriteTo(path);
}

core::Status ShardedIndex::LoadSnapshot(const std::string& path,
                                        const core::Dataset& data) {
  const core::Status status = LoadSnapshotImpl(path, data);
  if (!status.ok()) {
    shards_.clear();
    shard_data_.clear();
    partition_seconds_ = 0.0;
    shard_build_seconds_.clear();
    partitioning_ = Partitioning();
    data_ = nullptr;
    fan_out_.reset();
    snapshot_path_.clear();
  }
  return status;
}

core::Status ShardedIndex::LoadSnapshotImpl(const std::string& path,
                                            const core::Dataset& data) {
  io::SnapshotReader reader;
  GASS_RETURN_IF_ERROR(io::SnapshotReader::Open(path, &reader));
  if (reader.method() != Name()) {
    return core::Status::InvalidArgument(path + ": snapshot holds a " +
                                         reader.method() +
                                         " index, cannot load into " + Name());
  }
  if (reader.params_fingerprint() != ParamsFingerprint()) {
    return core::Status::InvalidArgument(
        path + ": snapshot was built with different " + Name() +
        " parameters (fingerprint mismatch)");
  }
  if (reader.data_n() != data.size() || reader.data_dim() != data.dim()) {
    return core::Status::InvalidArgument(
        path + ": snapshot was built over a " +
        std::to_string(reader.data_n()) + "x" +
        std::to_string(reader.data_dim()) + " dataset, got " +
        std::to_string(data.size()) + "x" + std::to_string(data.dim()));
  }

  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection(kManifestSection, &buffer, &dec));
  std::string method;
  dec.Str(&method, io::kMaxMethodName);
  const std::uint8_t kind = dec.U8();
  const std::uint64_t k = dec.U64();
  const std::uint64_t kmeans_sample = dec.U64();
  const std::uint64_t kmeans_iters = dec.U64();
  const double balance_slack = dec.F64();
  std::vector<std::uint64_t> shard_sizes;
  std::vector<std::uint64_t> shard_hashes;
  dec.VecU64(&shard_sizes, kMaxShards);
  dec.VecU64(&shard_hashes, kMaxShards);
  if (!dec.ExpectEnd()) return dec.status();
  // Semantic cross-checks. Every field below is also covered by the header
  // fingerprint (already verified), so a disagreement means the manifest
  // payload was altered behind a resealed checksum — reject loudly.
  if (method != options_.method ||
      kind != static_cast<std::uint8_t>(options_.partitioner.kind) ||
      k != options_.partitioner.num_shards ||
      kmeans_sample != options_.partitioner.kmeans_sample ||
      kmeans_iters != options_.partitioner.kmeans_iters ||
      balance_slack != options_.partitioner.balance_slack) {
    return core::Status::Corruption(
        path + ": manifest partitioner state contradicts the fingerprinted "
               "construction parameters");
  }
  if (shard_sizes.size() != k || shard_hashes.size() != k) {
    return core::Status::Corruption(
        path + ": manifest shard table length does not match shard count");
  }
  std::uint64_t total = 0;
  for (const std::uint64_t size : shard_sizes) total += size;
  if (total != data.size()) {
    return core::Status::Corruption(
        path + ": manifest shard sizes do not cover the dataset (" +
        std::to_string(total) + " of " + std::to_string(data.size()) +
        " rows)");
  }

  GASS_RETURN_IF_ERROR(reader.OpenSection(kAssignmentSection, &buffer, &dec));
  std::vector<std::uint32_t> assignment;
  dec.VecU32(&assignment, data.size());
  if (!dec.ExpectEnd()) return dec.status();
  if (assignment.size() != data.size()) {
    return core::Status::Corruption(
        path + ": assignment covers " + std::to_string(assignment.size()) +
        " rows, dataset has " + std::to_string(data.size()));
  }
  std::vector<std::vector<core::VectorId>> shard_ids(k);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] >= k) {
      return core::Status::Corruption(
          path + ": assignment references shard " +
          std::to_string(assignment[i]) + " of " + std::to_string(k));
    }
    shard_ids[assignment[i]].push_back(static_cast<core::VectorId>(i));
  }
  for (std::size_t s = 0; s < k; ++s) {
    if (shard_ids[s].size() != shard_sizes[s]) {
      return core::Status::Corruption(
          path + ": shard " + std::to_string(s) + " has " +
          std::to_string(shard_ids[s].size()) +
          " assigned rows but the manifest declares " +
          std::to_string(shard_sizes[s]));
    }
  }

  GASS_RETURN_IF_ERROR(reader.OpenSection(kCentroidsSection, &buffer, &dec));
  core::Dataset centroids;
  GASS_RETURN_IF_ERROR(io::DecodeDataset(&dec, &centroids));
  if (!dec.ExpectEnd()) return dec.status();
  if (centroids.size() != k || centroids.dim() != data.dim()) {
    return core::Status::Corruption(
        path + ": centroid section holds " +
        std::to_string(centroids.size()) + "x" +
        std::to_string(centroids.dim()) + ", expected " + std::to_string(k) +
        "x" + std::to_string(data.dim()));
  }
  // Centroids are a pure function of (data, assignment); recomputing and
  // comparing bitwise catches value tampering that a resealed checksum
  // would otherwise let through.
  const core::Dataset recomputed = ComputeCentroids(data, shard_ids);
  if (centroids.size() > 0 &&
      std::memcmp(centroids.data(), recomputed.data(),
                  centroids.SizeBytes()) != 0) {
    return core::Status::Corruption(
        path + ": stored centroids do not match the shard member means");
  }

  shard_data_.clear();
  shards_.clear();
  partition_seconds_ = 0.0;
  shard_build_seconds_.clear();
  shard_data_.resize(k);
  const std::size_t replicas = options_.replicas == 0 ? 1 : options_.replicas;
  shards_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) shards_.emplace_back(replicas);
  for (std::size_t s = 0; s < k; ++s) {
    const std::string shard_path = ShardPath(path, s);
    std::vector<std::uint8_t> bytes;
    core::Status read = ReadFileBytes(shard_path, &bytes);
    if (!read.ok()) {
      return core::Status::Corruption(path + ": shard file " + shard_path +
                                      " is missing or unreadable (" +
                                      read.message() + ")");
    }
    if (io::Hash64(bytes.data(), bytes.size(), kShardFileHashSeed) !=
        shard_hashes[s]) {
      return core::Status::Corruption(
          path + ": shard file " + shard_path +
          " does not match the hash recorded in the manifest");
    }
    shard_data_[s] = data.Select(shard_ids[s]);
    // The snapshot stores one copy per shard; every replica attaches from
    // the bytes just read and hash-checked, so the file is read once.
    io::SnapshotReader image;
    GASS_RETURN_IF_ERROR(OpenImage(std::move(bytes), shard_path, &image));
    for (std::size_t r = 0; r < replicas; ++r) {
      std::unique_ptr<methods::GraphIndex> sub;
      GASS_RETURN_IF_ERROR(AttachReplica(s, image, &sub));
      shards_[s].Set(r, std::move(sub));
    }
  }

  partitioning_.assignment = std::move(assignment);
  partitioning_.shard_ids = std::move(shard_ids);
  partitioning_.centroids = std::move(centroids);
  partitioning_.distance_computations = 0;
  FinishInit(data);
  // Record where the shards live so ReloadShard can recover any one of
  // them online later.
  snapshot_path_ = path;
  return core::Status::Ok();
}

core::Status LoadShardedIndex(const std::string& path,
                              const core::Dataset& data, std::uint64_t seed,
                              std::size_t replicas,
                              std::unique_ptr<ShardedIndex>* out) {
  io::SnapshotReader reader;
  GASS_RETURN_IF_ERROR(io::SnapshotReader::Open(path, &reader));
  if (!IsShardedSnapshotMethod(reader.method())) {
    return core::Status::InvalidArgument(
        path + ": not a sharded snapshot (method " + reader.method() + ")");
  }
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(reader.OpenSection(kManifestSection, &buffer, &dec));
  ShardedIndexOptions options;
  options.seed = seed;
  options.replicas = replicas == 0 ? 1 : replicas;
  dec.Str(&options.method, io::kMaxMethodName);
  const std::uint8_t kind = dec.U8();
  const std::uint64_t num_shards = dec.U64();
  const std::uint64_t kmeans_sample = dec.U64();
  const std::uint64_t kmeans_iters = dec.U64();
  const double balance_slack = dec.F64();
  if (!dec.ok()) return dec.status();
  if (!IsKnownMethod(options.method)) {
    return core::Status::Corruption(path + ": manifest names unknown method '" +
                                    options.method + "'");
  }
  if (kind > static_cast<std::uint8_t>(PartitionerKind::kKMeans)) {
    return core::Status::Corruption(path +
                                    ": manifest names an unknown partitioner");
  }
  if (num_shards == 0 || num_shards > kMaxShards) {
    return core::Status::Corruption(path + ": manifest shard count " +
                                    std::to_string(num_shards) +
                                    " is out of range");
  }
  options.partitioner.kind = static_cast<PartitionerKind>(kind);
  options.partitioner.num_shards = static_cast<std::size_t>(num_shards);
  options.partitioner.kmeans_sample = static_cast<std::size_t>(kmeans_sample);
  options.partitioner.kmeans_iters = static_cast<std::size_t>(kmeans_iters);
  options.partitioner.balance_slack = balance_slack;

  auto index = std::make_unique<ShardedIndex>(options);
  GASS_RETURN_IF_ERROR(index->LoadSnapshot(path, data));
  *out = std::move(index);
  return core::Status::Ok();
}

}  // namespace gass::shard
