#include "shard/sharded_index.h"

#include <cctype>
#include <utility>

#include "core/macros.h"
#include "io/serialize.h"
#include "io/snapshot.h"
#include "methods/factory.h"
#include "methods/fingerprint.h"
#include "serve/fault_injector.h"

namespace gass::shard {

namespace {

/// Golden-ratio odd multiplier (same mix constant as core::Rng).
constexpr std::uint64_t kSeedMix = 0x9E3779B97F4A7C15ULL;
/// Decode-time sanity cap on shard counts (far above anything sensible).
constexpr std::uint64_t kMaxShards = 1ULL << 20;

/// The method and partitioner, beside the shard-set layout.
constexpr char kConstructionSection[] = "sharded.construction";
/// The first section of the retired manifest-plus-shard-files layout.
constexpr char kManifestSection[] = "sharded.manifest";
constexpr char kMethodPrefix[] = "SHARDED:";

bool IsKnownMethod(const std::string& name) {
  for (const std::string& known : methods::AllMethodNames()) {
    if (known == name) return true;
  }
  return false;
}

/// The construction fields (method and partitioner) a sharded snapshot
/// stores beside its shard set.
io::Encoder EncodeConstruction(const ShardedIndexOptions& options) {
  io::Encoder enc;
  enc.Str(options.method);
  enc.U8(static_cast<std::uint8_t>(options.partitioner.kind));
  enc.U64(options.partitioner.num_shards);
  enc.U64(options.partitioner.kmeans_sample);
  enc.U64(options.partitioner.kmeans_iters);
  enc.F64(options.partitioner.balance_slack);
  return enc;
}

/// Reads the construction fields (method and partitioner) of the sharded
/// snapshot `reader` holds. A file in the retired manifest layout is
/// refused: its shards live in other files, which nothing reads any more.
core::Status ReadConstruction(const io::SnapshotReader& reader,
                              ShardedIndexOptions* options) {
  if (reader.HasSection(kManifestSection)) {
    return core::Status::InvalidArgument(
        reader.path() + ": sharded manifests with per-shard files are no "
        "longer readable; rebuild the index and save it again");
  }
  io::AlignedBytes buffer;
  io::Decoder dec(nullptr, 0, "");
  GASS_RETURN_IF_ERROR(
      reader.OpenSection(kConstructionSection, &buffer, &dec));
  dec.Str(&options->method, io::kMaxMethodName);
  options->partitioner.kind = static_cast<PartitionerKind>(dec.U8());
  options->partitioner.num_shards = dec.U64();
  options->partitioner.kmeans_sample = dec.U64();
  options->partitioner.kmeans_iters = dec.U64();
  options->partitioner.balance_slack = dec.F64();
  dec.ExpectEnd();
  return dec.status();
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

std::uint64_t ShardedIndex::ParamsFingerprint() const {
  io::Encoder enc;
  enc.Str("sharded");
  const io::Encoder construction = EncodeConstruction(options_);
  enc.Bytes(construction.bytes().data(), construction.size());
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

core::Status ShardedIndex::OpenRecovery(std::size_t s,
                                        io::SnapshotReader* reader) const {
  GASS_RETURN_IF_ERROR(io::SnapshotReader::Open(snapshot_path_, reader));
  GASS_RETURN_IF_ERROR(methods::CheckSnapshotHeader(*this, *data_, *reader));
  return CheckShardIds(*reader, s);
}

core::Status ShardedIndex::ReloadShard(std::size_t s) {
  GASS_CHECK(s < num_shards());
  if (snapshot_path_.empty()) {
    return core::Status::InvalidArgument(
        "no recovery snapshot recorded for " + Name() +
        " (loading one records it; after Build + SaveIndex call "
        "SetRecoverySnapshot)");
  }
  if (faults() != nullptr &&
      faults()->OnShardReload(static_cast<std::uint32_t>(s))) {
    return core::Status::Corruption("injected reload corruption for shard " +
                                    std::to_string(s));
  }
  // The snapshot stores one copy per shard (replicas are bit-identical);
  // every replica attaches from those sections and is swapped in under its
  // own writer lock, so searches keep flowing on the replicas not
  // currently swapping. The header, the shard's id table and each section
  // read are checked, so a corrupted or foreign file fails here and the
  // old (quarantined) sub-indexes keep serving.
  io::SnapshotReader reader;
  GASS_RETURN_IF_ERROR(OpenRecovery(s, &reader));
  for (std::size_t r = 0; r < num_replicas(); ++r) {
    std::unique_ptr<methods::GraphIndex> fresh;
    GASS_RETURN_IF_ERROR(Attach(s, reader, ShardPrefix(s) + "index.", &fresh));
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
  io::SnapshotReader source;
  std::string prefix;
  if (!snapshot_path_.empty()) {
    // Snapshot-backed: the recovery file is the canonical copy.
    GASS_RETURN_IF_ERROR(OpenRecovery(s, &source));
    prefix = ShardPrefix(s) + "index.";
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
    GASS_RETURN_IF_ERROR(replicas(s).Image(peer, &source));
  }
  std::unique_ptr<methods::GraphIndex> fresh;
  GASS_RETURN_IF_ERROR(Attach(s, source, prefix, &fresh));
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

core::Status ShardedIndex::SaveSections(io::SnapshotWriter* writer,
                                        const std::string& prefix) const {
  GASS_CHECK_MSG(prefix.empty(), "%s does not nest under a section prefix",
                 Name().c_str());
  GASS_RETURN_IF_ERROR(writer->AddSection(kConstructionSection,
                                          EncodeConstruction(options_)));
  return SaveShards(writer);
}

core::Status ShardedIndex::LoadSections(const io::SnapshotReader& reader,
                                        const std::string& prefix,
                                        const core::Dataset& data) {
  GASS_CHECK_MSG(prefix.empty(), "%s does not nest under a section prefix",
                 Name().c_str());
  // A rejected snapshot leaves the index unbuilt, never half-loaded.
  WaitForReloads();
  Clear();
  snapshot_path_.clear();
  ShardedIndexOptions stored;
  GASS_RETURN_IF_ERROR(ReadConstruction(reader, &stored));
  // Every field is also covered by the header fingerprint (already
  // verified), so a disagreement means the section was altered behind a
  // resealed checksum: reject loudly.
  if (EncodeConstruction(stored).bytes() !=
      EncodeConstruction(options_).bytes()) {
    return core::Status::Corruption(
        reader.path() + ": stored method and partitioner contradict the "
                        "fingerprinted construction parameters");
  }
  GASS_RETURN_IF_ERROR(LoadShards(reader, data,
                                  options_.partitioner.num_shards,
                                  /*reserve=*/0, options_.replicas));
  FinishInit();
  // Record where the shards live so ReloadShard can recover any one of
  // them online later.
  snapshot_path_ = reader.path();
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
  ShardedIndexOptions options;
  options.seed = seed;
  options.replicas = replicas == 0 ? 1 : replicas;
  GASS_RETURN_IF_ERROR(ReadConstruction(reader, &options));
  const std::size_t num_shards = options.partitioner.num_shards;
  if (!IsKnownMethod(options.method)) {
    return core::Status::Corruption(path + ": snapshot names unknown method '" +
                                    options.method + "'");
  }
  if (options.partitioner.kind > PartitionerKind::kKMeans) {
    return core::Status::Corruption(path +
                                    ": snapshot names an unknown partitioner");
  }
  if (num_shards == 0 || num_shards > kMaxShards) {
    return core::Status::Corruption(path + ": snapshot shard count " +
                                    std::to_string(num_shards) +
                                    " is out of range");
  }

  auto index = std::make_unique<ShardedIndex>(options);
  GASS_RETURN_IF_ERROR(methods::LoadIndexFrom(index.get(), data, reader));
  *out = std::move(index);
  return core::Status::Ok();
}

}  // namespace gass::shard
