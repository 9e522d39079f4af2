#include "shard/sharded_index.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "core/macros.h"
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

/// Decodes the manifest's construction fields (method and partitioner).
void DecodeManifestHead(io::Decoder* dec, ShardedIndexOptions* options) {
  dec->Str(&options->method, io::kMaxMethodName);
  options->partitioner.kind = static_cast<PartitionerKind>(dec->U8());
  options->partitioner.num_shards = dec->U64();
  options->partitioner.kmeans_sample = dec->U64();
  options->partitioner.kmeans_iters = dec->U64();
  options->partitioner.balance_slack = dec->F64();
}

}  // namespace

bool IsShardedSnapshotMethod(const std::string& method) {
  return method.rfind(kMethodPrefix, 0) == 0;
}

ShardedIndex::ShardedIndex(const ShardedIndexOptions& options)
    : ShardSet(options.seed), options_(options) {
  GASS_CHECK_MSG(IsKnownMethod(options_.method),
                 "unknown sub-index method '%s'", options_.method.c_str());
  GASS_CHECK_MSG(options_.partitioner.num_shards >= 1,
                 "num_shards must be >= 1");
  SetNprobe(options_.nprobe);
  SetHedgeFraction(options_.hedge_fraction);
}

ShardedIndex::~ShardedIndex() {
  // Background reloads touch the shards and the breakers: drain them while
  // every member is still alive. The ShardSet then drains abandoned
  // fan-out stragglers before it releases anything they read.
  WaitForReloads();
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

std::unique_ptr<methods::GraphIndex> ShardedIndex::MakeShard(
    std::size_t s) const {
  return methods::CreateIndex(options_.method, SubIndexSeed(options_.seed, s));
}

methods::BuildStats ShardedIndex::BuildShard(methods::GraphIndex& index,
                                             const core::Dataset& rows,
                                             std::size_t /*base_rows*/) const {
  return index.Build(rows);
}

methods::BuildStats ShardedIndex::Build(const core::Dataset& data) {
  const methods::BuildStats stats =
      BuildShards(data, options_.partitioner, /*reserve=*/0, options_.replicas,
                  options_.build_threads);
  FinishInit();
  return stats;
}

void ShardedIndex::FinishInit() {
  Serve(options_.breaker, options_.fanout_threads,
        FanOut::Stragglers::kAbandon);
  std::lock_guard<std::mutex> lock(reload_mutex_);
  reload_inflight_.assign(num_shards(), 0);
}

void ShardedIndex::SetBreakerOptions(const ShardBreakerOptions& breaker) {
  options_.breaker = breaker;
  if (serving()) fan_out().SetBreakerOptions(breaker);
}

void ShardedIndex::SetFanoutThreads(std::size_t threads) {
  options_.fanout_threads = threads;
  if (serving()) fan_out().SetThreads(threads);
}

const methods::GraphIndex& ShardedIndex::replica(std::size_t s,
                                                 std::size_t r) const {
  GASS_CHECK(s < num_shards() && r < num_replicas());
  return replicas(s).replica(r);
}

std::size_t ShardedIndex::shard_size(std::size_t s) const {
  GASS_CHECK(s < num_shards());
  return ids(s).size();
}

std::uint64_t ShardedIndex::probe_count(std::size_t s) const {
  GASS_CHECK(s < num_shards());
  return fan_out().probe_count(s);
}

core::Status ShardedIndex::ReloadShard(std::size_t s) {
  GASS_CHECK(s < num_shards());
  if (snapshot_path_.empty()) {
    return core::Status::InvalidArgument(
        "no recovery snapshot recorded for " + Name() +
        " (LoadSnapshot records one; after Build + SaveSnapshot call "
        "SetRecoverySnapshot)");
  }
  if (faults() != nullptr &&
      faults()->OnShardReload(static_cast<std::uint32_t>(s))) {
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
  for (std::size_t r = 0; r < num_replicas(); ++r) {
    std::unique_ptr<methods::GraphIndex> fresh;
    GASS_RETURN_IF_ERROR(Attach(s, image, &fresh));
    replicas(s).SwapIn(r, std::move(fresh));
    // Re-enter rotation through the half-open path: the next routing
    // decision probes this replica, and only a passing probe closes the
    // breaker (generation bump included).
    fan_out().health().OnReloaded(s, r);
  }
  return core::Status::Ok();
}

core::Status ShardedIndex::RebuildReplica(std::size_t s, std::size_t r) {
  const std::size_t reps = num_replicas();
  GASS_CHECK(s < num_shards());
  GASS_CHECK(r < reps);
  if (faults() != nullptr &&
      faults()->OnShardReload(static_cast<std::uint32_t>(s))) {
    return core::Status::Corruption("injected rebuild corruption for shard " +
                                    std::to_string(s));
  }
  io::SnapshotReader image;
  if (!snapshot_path_.empty()) {
    // Snapshot-backed: the shard file is the canonical copy.
    GASS_RETURN_IF_ERROR(
        io::SnapshotReader::Open(ShardPath(snapshot_path_, s), &image));
  } else {
    if (reps < 2) {
      return core::Status::InvalidArgument(
          "cannot rebuild the only replica of shard " + std::to_string(s) +
          " without a recovery snapshot");
    }
    // Copy-from-healthy-peer: serialize a peer replica — preferring one
    // whose breaker is closed — into an in-memory snapshot image and
    // restore the quarantined slot from it. The image passes the full
    // checksum and bounds validation of a load, so a corrupt peer fails
    // here instead of propagating its corruption.
    std::size_t peer = reps;
    for (std::size_t cand = 0; cand < reps; ++cand) {
      if (cand == r) continue;
      if (peer == reps) peer = cand;
      if (health().state(s, cand) == BreakerState::kClosed) {
        peer = cand;
        break;
      }
    }
    GASS_RETURN_IF_ERROR(replicas(s).Image(peer, &image));
  }
  std::unique_ptr<methods::GraphIndex> fresh;
  GASS_RETURN_IF_ERROR(Attach(s, image, &fresh));
  replicas(s).SwapIn(r, std::move(fresh));
  // Rebuilt but not yet trusted: generation bump + forced half-open probe;
  // only a passing probe re-closes the breaker.
  fan_out().health().OnReloaded(s, r);
  return core::Status::Ok();
}

ScrubReport ShardedIndex::ScrubReplicas(bool rebuild) {
  GASS_CHECK_MSG(num_shards() > 0, "ScrubReplicas before Build");
  ScrubReport report;
  for (std::size_t s = 0; s < num_shards(); ++s) {
    const ReplicaSet& set = replicas(s);
    const std::size_t reps = set.size();
    report.replicas_checked += reps;
    if (reps < 2) continue;  // No peer group to compare against.
    std::vector<std::uint64_t> digests(reps);
    for (std::size_t r = 0; r < reps; ++r) {
      digests[r] = set.Digest(r);
    }
    const std::uint64_t majority = MajorityDigest(digests);
    for (std::size_t r = 0; r < reps; ++r) {
      if (digests[r] == majority) continue;
      // Replicas are bit-identical by construction, so divergence from the
      // peer majority is corruption by definition: force the breaker open
      // (routing stops using the replica immediately), then restore it
      // online while the healthy replicas keep serving.
      ++report.divergent;
      fan_out().health().Quarantine(s, r);
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
  GASS_CHECK(s < num_shards());
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
  if (num_shards() == 0 || data_ == nullptr) {
    return core::Status::InvalidArgument("cannot save an unbuilt " + Name() +
                                         " index");
  }
  const std::size_t k = num_shards();
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
        methods::SaveIndex(shard(s), shard_path));
    std::vector<std::uint8_t> bytes;
    GASS_RETURN_IF_ERROR(ReadFileBytes(shard_path, &bytes));
    shard_sizes[s] = shard_size(s);
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
  assignment.VecU32(partitioning().assignment);
  GASS_RETURN_IF_ERROR(
      writer.AddSection(kAssignmentSection, std::move(assignment)));

  io::Encoder centroids;
  io::EncodeDataset(partitioning().centroids, &centroids);
  GASS_RETURN_IF_ERROR(
      writer.AddSection(kCentroidsSection, std::move(centroids)));
  return writer.WriteTo(path);
}

core::Status ShardedIndex::LoadSnapshot(const std::string& path,
                                        const core::Dataset& data) {
  WaitForReloads();
  const core::Status status = LoadSnapshotImpl(path, data);
  if (!status.ok()) {
    Clear();
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
  ShardedIndexOptions stored;
  DecodeManifestHead(&dec, &stored);
  const PartitionerParams& part = stored.partitioner;
  const std::size_t k = part.num_shards;
  std::vector<std::uint64_t> shard_sizes;
  std::vector<std::uint64_t> shard_hashes;
  dec.VecU64(&shard_sizes, kMaxShards);
  dec.VecU64(&shard_hashes, kMaxShards);
  if (!dec.ExpectEnd()) return dec.status();
  // Semantic cross-checks. Every field below is also covered by the header
  // fingerprint (already verified), so a disagreement means the manifest
  // payload was altered behind a resealed checksum — reject loudly.
  if (stored.method != options_.method ||
      part.kind != options_.partitioner.kind ||
      k != options_.partitioner.num_shards ||
      part.kmeans_sample != options_.partitioner.kmeans_sample ||
      part.kmeans_iters != options_.partitioner.kmeans_iters ||
      part.balance_slack != options_.partitioner.balance_slack) {
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

  Partitioning partitioning;
  partitioning.assignment = std::move(assignment);
  partitioning.shard_ids = std::move(shard_ids);
  partitioning.centroids = std::move(centroids);
  Place(data, std::move(partitioning), /*reserve=*/0, options_.replicas);
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
    // The snapshot stores one copy per shard; every replica attaches from
    // the bytes just read and hash-checked, so the file is read once.
    io::SnapshotReader image;
    GASS_RETURN_IF_ERROR(OpenImage(std::move(bytes), shard_path, &image));
    for (std::size_t r = 0; r < num_replicas(); ++r) {
      std::unique_ptr<methods::GraphIndex> sub;
      GASS_RETURN_IF_ERROR(Attach(s, image, &sub));
      replicas(s).SwapIn(r, std::move(sub));
    }
  }
  FinishInit();
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
  DecodeManifestHead(&dec, &options);
  if (!dec.ok()) return dec.status();
  const std::size_t num_shards = options.partitioner.num_shards;
  if (!IsKnownMethod(options.method)) {
    return core::Status::Corruption(path + ": manifest names unknown method '" +
                                    options.method + "'");
  }
  if (options.partitioner.kind > PartitionerKind::kKMeans) {
    return core::Status::Corruption(path +
                                    ": manifest names an unknown partitioner");
  }
  if (num_shards == 0 || num_shards > kMaxShards) {
    return core::Status::Corruption(path + ": manifest shard count " +
                                    std::to_string(num_shards) +
                                    " is out of range");
  }

  auto index = std::make_unique<ShardedIndex>(options);
  GASS_RETURN_IF_ERROR(index->LoadSnapshot(path, data));
  *out = std::move(index);
  return core::Status::Ok();
}

}  // namespace gass::shard
