// LiveShardedIndex: centroid routing, per-shard WAL streams, tombstone
// filtering inside each sub-search, recovery of sequence-interleaved
// streams, the one-shard index pinned to a bare HnswIndex, pooled builds
// and fan-out pinned to a serial reference, and searches racing updates
// through serve::Frontend (a TSan target under the shard and wal labels).

#include "shard/live_sharded_index.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/deadline.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/tombstones.h"
#include "io/fs.h"
#include "io/hash.h"
#include "io/open_index.h"
#include "io/serialize.h"
#include "io/snapshot.h"
#include "io/wal.h"
#include "serve/frontend.h"
#include "serve/updater.h"
#include "../snapshot_edit.h"
#include "../test_util.h"

namespace gass::shard {
namespace {

constexpr std::size_t kBaseN = 96;
constexpr std::size_t kDim = 8;
constexpr std::size_t kShards = 3;

std::string TempDirFor(const char* name) {
  // One directory per SIMD level: the forced-scalar ctest variant runs
  // concurrently with the native one.
  const char* level = std::getenv("GASS_SIMD_LEVEL");
  const std::string dir = std::string(::testing::TempDir()) + "/" + name +
                          "_" + (level != nullptr ? level : "native");
  EXPECT_TRUE(io::CreateDirectory(dir).ok());
  return dir;
}

LiveShardedOptions ShardOptions(std::size_t reserve_per_shard) {
  LiveShardedOptions options;
  options.num_shards = kShards;
  options.reserve_per_shard = reserve_per_shard;
  return options;
}

std::unique_ptr<LiveShardedIndex> BuildLive(const LiveShardedOptions& options,
                                            const core::Dataset& base) {
  auto live = std::make_unique<LiveShardedIndex>(options);
  live->Build(base);
  return live;
}

std::unique_ptr<LiveShardedIndex> BuildLive(const core::Dataset& base,
                                            std::size_t reserve_per_shard) {
  return BuildLive(ShardOptions(reserve_per_shard), base);
}

std::uint32_t FloatBits(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(LiveShardTest, RouteInsertPicksTheNearestShardWithRoom) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 41);
  std::unique_ptr<LiveShardedIndex> live = BuildLive(base, 4);

  // A base row routes to a shard whose centroid is nearest among those
  // with room — with fresh arenas that is the globally nearest centroid.
  const std::uint32_t home = live->RouteInsert(base.Row(0));
  ASSERT_LT(home, kShards);
  EXPECT_TRUE(live->CanInsert(home));

  // Fill the home shard; the same vector must now spill elsewhere.
  core::VectorId id = static_cast<core::VectorId>(live->next_id());
  while (live->CanInsert(home)) {
    ASSERT_TRUE(live->ApplyInsert(home, id, base.Row(0)).ok());
    ++id;
  }
  const std::uint32_t spill = live->RouteInsert(base.Row(0));
  EXPECT_NE(spill, home);
  EXPECT_TRUE(live->CanInsert(spill));

  // Deletes route to the owning shard, wherever the insert landed.
  EXPECT_EQ(live->RouteDelete(static_cast<core::VectorId>(kBaseN)), home);
}

TEST(LiveShardTest, EveryShardIsAWalStream) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 42);
  const std::string dir = TempDirFor("live_shard_streams");
  std::unique_ptr<LiveShardedIndex> live = BuildLive(base, 32);

  serve::UpdaterOptions options;
  options.directory = dir;
  std::unique_ptr<serve::Updater> updater;
  ASSERT_TRUE(serve::Updater::Create(live.get(), options, &updater).ok());

  // One WAL file per shard, each starting as a bare header.
  for (std::uint32_t s = 0; s < kShards; ++s) {
    std::uint64_t size = 0;
    ASSERT_TRUE(
        io::FileSize(serve::Updater::WalPath(options, s), &size).ok());
    EXPECT_EQ(size, io::kWalFileHeaderBytes) << "stream " << s;
  }

  // Inserts near every cluster: records must spread across streams, and
  // each record lands in exactly the stream RouteInsert named.
  core::Rng rng(43);
  std::set<std::uint32_t> streams_used;
  for (std::size_t i = 0; i < 24; ++i) {
    const float* row = base.Row(rng.UniformInt(base.size()));
    const std::uint32_t expected_stream = live->RouteInsert(row);
    const serve::UpdateResult result = updater->Insert(row);
    ASSERT_TRUE(result.status.ok());
    streams_used.insert(expected_stream);
  }
  EXPECT_GT(streams_used.size(), 1u) << "clustered inserts on one shard";
  for (const std::uint32_t s : streams_used) {
    std::uint64_t size = 0;
    ASSERT_TRUE(
        io::FileSize(serve::Updater::WalPath(options, s), &size).ok());
    EXPECT_GT(size, io::kWalFileHeaderBytes) << "stream " << s;
  }
}

TEST(LiveShardTest, MergeFiltersTombstonedGlobalIds) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 44);
  const std::string dir = TempDirFor("live_shard_tombstones");
  // One probe: the answer is that one shard's, with no other shard's
  // results to make up for a dropped tombstone.
  LiveShardedOptions live_options = ShardOptions(16);
  live_options.nprobe = 1;
  std::unique_ptr<LiveShardedIndex> live = BuildLive(live_options, base);

  serve::UpdaterOptions options;
  options.directory = dir;
  std::unique_ptr<serve::Updater> updater;
  ASSERT_TRUE(serve::Updater::Create(live.get(), options, &updater).ok());

  // Row 7 queried by itself must come back first — then vanish once
  // deleted, the sub-search filtering its GLOBAL id and filling k live
  // answers from the rest of its beam.
  methods::SearchParams params = methods::SearchParams{.k = 5, .beam_width = 50, .num_seeds = 8};
  params.tombstones = &updater->tombstones();
  {
    const methods::SearchResult result = live->Search(base.Row(7), params);
    ASSERT_FALSE(result.neighbors.empty());
    EXPECT_EQ(result.neighbors[0].id, 7u);
  }
  ASSERT_TRUE(updater->Delete(7).status.ok());
  {
    const methods::SearchResult result = live->Search(base.Row(7), params);
    EXPECT_EQ(result.neighbors.size(), params.k);
    for (const auto& nb : result.neighbors) {
      EXPECT_NE(nb.id, 7u) << "tombstoned id leaked through the merge";
    }
  }
}

// Answers of `live` and the bare `reference` HNSW over the same rows, both
// filtering `tombstones`: identical ids, bitwise distances and hops, and
// one more distance on the live side (ranking its single centroid).
// Returns how many queries had a tombstoned id in the unfiltered answer.
std::size_t ExpectMatchesReference(const LiveShardedIndex& live,
                                   const methods::HnswIndex& reference,
                                   const core::TombstoneSet& tombstones,
                                   const core::Dataset& queries,
                                   const std::string& context) {
  methods::SearchParams params{.k = 10, .beam_width = 32};
  params.tombstones = &tombstones;
  methods::SearchParams unfiltered = params;
  unfiltered.tombstones = nullptr;
  std::size_t touched = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const float* query = queries.Row(static_cast<core::VectorId>(q));
    methods::SearchContext ctx = live.MakeSearchContext(q);
    const methods::SearchResult got = live.Search(query, params, &ctx);
    const methods::SearchResult want =
        reference.Search(query, params, &ctx);
    EXPECT_EQ(got.neighbors.size(), want.neighbors.size())
        << context << " query " << q;
    if (got.neighbors.size() != want.neighbors.size()) continue;
    for (std::size_t i = 0; i < want.neighbors.size(); ++i) {
      EXPECT_EQ(got.neighbors[i].id, want.neighbors[i].id)
          << context << " query " << q;
      EXPECT_EQ(FloatBits(got.neighbors[i].distance),
                FloatBits(want.neighbors[i].distance))
          << context << " query " << q;
    }
    EXPECT_EQ(got.stats.hops, want.stats.hops) << context << " query " << q;
    EXPECT_EQ(got.stats.distance_computations,
              want.stats.distance_computations + 1)
        << context << " query " << q;
    for (const core::Neighbor& nb :
         reference.Search(query, unfiltered, &ctx).neighbors) {
      if (tombstones.Contains(nb.id)) {
        ++touched;
        break;
      }
    }
  }
  return touched;
}

// The one-shard live index is a plain live HNSW: through a fixed script of
// inserts and deletes, and again after recovery from a checkpoint plus the
// WAL tail, every answer matches a bare HnswIndex grown by BuildPrefix and
// Extend over the same rows and filtered by the same tombstones.
TEST(LiveShardTest, OneShardMatchesABareHnswIndex) {
  constexpr std::size_t kN = 400;
  constexpr std::size_t kReserve = 64;
  constexpr std::size_t kInserts = 60;
  const core::Dataset base = testing::SmallClustered(kN, kDim, 56);
  const std::string dir = TempDirFor("live_shard_one_shard");
  LiveShardedOptions options;
  options.num_shards = 1;
  options.reserve_per_shard = kReserve;
  serve::UpdaterOptions updater_options;
  updater_options.directory = dir;

  core::Dataset arena(kN + kReserve, kDim);
  std::memcpy(arena.mutable_data(), base.data(), base.SizeBytes());
  methods::HnswIndex reference(options.hnsw);
  reference.BuildPrefix(arena, kN);

  std::unique_ptr<LiveShardedIndex> live = BuildLive(options, base);
  std::unique_ptr<serve::Updater> updater;
  ASSERT_TRUE(
      serve::Updater::Create(live.get(), updater_options, &updater).ok());
  // Queries sit on base rows, so deleting rows near them changes answers.
  const core::Dataset queries = base.Select([] {
    std::vector<core::VectorId> ids;
    for (core::VectorId id = 0; id < kN; id += 4) ids.push_back(id);
    return ids;
  }());

  // The script: each insert is a perturbed base row; after every insert
  // two base rows are deleted, and every fifth insert deletes the
  // previous live row too. A checkpoint halfway makes recovery load it
  // and replay the rest of the log.
  core::Rng rng(57);
  std::vector<float> vec(kDim);
  for (std::size_t i = 0; i < kInserts; ++i) {
    const float* row = base.Row(rng.UniformInt(kN));
    for (std::size_t d = 0; d < kDim; ++d) {
      vec[d] = row[d] + rng.UniformFloat(-0.05F, 0.05F);
    }
    const serve::UpdateResult inserted = updater->Insert(vec.data());
    ASSERT_TRUE(inserted.status.ok());
    ASSERT_EQ(inserted.id, kN + i);
    std::memcpy(arena.MutableRow(inserted.id), vec.data(),
                kDim * sizeof(float));
    reference.Extend(inserted.id + 1);
    for (int d = 0; d < 2; ++d) {
      // A repeat comes back InvalidArgument and deletes nothing.
      (void)updater->Delete(static_cast<core::VectorId>(rng.UniformInt(kN)));
    }
    if (i % 5 == 4) {
      ASSERT_TRUE(updater->Delete(inserted.id - 1).status.ok());
    }
    if (i == kInserts / 2) {
      ASSERT_TRUE(updater->Checkpoint().ok());
    }
  }
  ASSERT_GT(updater->tombstones().count(), kInserts);

  EXPECT_GT(ExpectMatchesReference(*live, reference, updater->tombstones(),
                                   queries, "live"),
            0u)
      << "no query's answer held a deleted id";

  updater.reset();
  live.reset();
  std::unique_ptr<LiveShardedIndex> shell =
      LiveShardedIndex::Shell(base, options);
  serve::RecoveryReport report;
  ASSERT_TRUE(
      serve::Updater::Open(shell.get(), updater_options, &updater, &report)
          .ok());
  EXPECT_GT(report.records_applied, 0u);
  EXPECT_GT(ExpectMatchesReference(*shell, reference, updater->tombstones(),
                                   queries, "recovered"),
            0u);
}

// Replica copies and checkpoint loads come out sealed; the live index
// unseals them up front, so the first insert does not expand layer 0 under
// the updater's search lock.
TEST(LiveShardTest, ReplicasAreUnsealedAfterBuildAndLoad) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 58);
  const std::string dir = TempDirFor("live_shard_unsealed");
  LiveShardedOptions options = ShardOptions(8);
  options.replicas = 2;
  serve::UpdaterOptions updater_options;
  updater_options.directory = dir;
  {
    std::unique_ptr<LiveShardedIndex> live = BuildLive(options, base);
    for (std::size_t s = 0; s < kShards; ++s) {
      for (std::size_t r = 0; r < options.replicas; ++r) {
        EXPECT_FALSE(live->shard_replica(s, r).layered_graph().sealed())
            << "shard " << s << " replica " << r;
      }
    }
    std::unique_ptr<serve::Updater> updater;
    ASSERT_TRUE(
        serve::Updater::Create(live.get(), updater_options, &updater).ok());
  }
  std::unique_ptr<LiveShardedIndex> shell =
      LiveShardedIndex::Shell(base, options);
  std::unique_ptr<serve::Updater> updater;
  serve::RecoveryReport report;
  ASSERT_TRUE(
      serve::Updater::Open(shell.get(), updater_options, &updater, &report)
          .ok());
  for (std::size_t s = 0; s < kShards; ++s) {
    for (std::size_t r = 0; r < options.replicas; ++r) {
      EXPECT_FALSE(shell->shard_replica(s, r).layered_graph().sealed())
          << "shard " << s << " replica " << r;
    }
  }
}

// A live index's footprint is exact: per replica, n packed layer-0 slots
// over its whole arena (a bit_width(2M)-bit degree and 2M ids of
// bit_width(n - 1) bits in whole u64 words, plus a spare word), the packed
// M-id upper slots and two u32 tables; per shard its global ids; and the
// centroids and the owner table. bench/e2e's `deep-live` index_mib is this
// number.
TEST(LiveShardTest, IndexBytesCountsThePackedSlots) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 60);
  LiveShardedOptions options = ShardOptions(40);
  options.replicas = 2;
  std::unique_ptr<LiveShardedIndex> live = BuildLive(options, base);
  const std::size_t m = options.hnsw.m;

  std::size_t expected = kShards * kDim * sizeof(float) +
                         (kBaseN + kShards * 40) * sizeof(std::uint32_t);
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::size_t n = live->shard_global_ids(s).size() + 40;
    const std::size_t width = static_cast<std::size_t>(std::bit_width(n - 1));
    const std::size_t base_stride =
        (std::bit_width(2 * m) + 2 * m * width + 63) / 64;
    const std::size_t upper_stride =
        (std::bit_width(m) + m * width + 63) / 64;
    for (std::size_t r = 0; r < options.replicas; ++r) {
      const methods::HnswGraph& graph =
          live->shard_replica(s, r).layered_graph();
      ASSERT_EQ(graph.size(), n);
      std::size_t upper_slots = 0;
      for (core::VectorId v = 0; v < n; ++v) upper_slots += graph.level(v);
      expected += (n * base_stride + 1) * sizeof(std::uint64_t) +
                  (upper_slots * upper_stride + 1) * sizeof(std::uint64_t) +
                  2 * n * sizeof(std::uint32_t);
    }
    expected += live->shard_global_ids(s).size() * sizeof(core::VectorId);
  }
  EXPECT_EQ(live->IndexBytes(), expected);
}

// Pinned outputs of one K=2, R=2 live index: the XXH64 of its checkpoint
// sections after a few inserts, and the footprint and build distances of
// the fresh build. A change that alters how shards are partitioned, built,
// copied to replicas, grown or checkpointed moves one of them. Distances
// are bit-identical across SIMD levels, so the pins hold under
// forced-scalar kernels too.
constexpr std::uint64_t kPinnedCheckpointHash = 0x94620307e6461bdeULL;
constexpr std::size_t kPinnedIndexBytes = 11744;
constexpr std::uint64_t kPinnedBuildDistances = 7607;

TEST(LiveShardTest, CheckpointMatchesPinnedHash) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 61);
  LiveShardedOptions options = ShardOptions(16);
  options.num_shards = 2;
  options.replicas = 2;
  LiveShardedIndex live(options);
  EXPECT_EQ(live.Build(base).distance_computations, kPinnedBuildDistances);
  EXPECT_EQ(live.IndexBytes(), kPinnedIndexBytes);

  core::Rng rng(62);
  std::vector<float> vec(kDim);
  for (std::size_t i = 0; i < 6; ++i) {
    const float* row = base.Row(rng.UniformInt(kBaseN));
    for (std::size_t d = 0; d < kDim; ++d) {
      vec[d] = row[d] + rng.UniformFloat(-0.05F, 0.05F);
    }
    const auto id = static_cast<core::VectorId>(live.next_id());
    ASSERT_TRUE(
        live.ApplyInsert(live.RouteInsert(vec.data()), id, vec.data()).ok());
  }
  io::SnapshotWriter writer(live.MethodName(), live.ParamsFingerprint(),
                            live.next_id(), live.dim());
  ASSERT_TRUE(live.SaveSections(&writer).ok());
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(writer.ToBytes(&bytes).ok());
  EXPECT_EQ(io::Hash64(bytes.data(), bytes.size()), kPinnedCheckpointHash);
}

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// A checkpoint whose id bookkeeping was edited behind valid checksums is
// refused: a next id the shards' rows do not add up to (resealed in
// live.meta, upd.meta and the file header's data_n alike, so the updater's
// own cross-checks agree), or a live row's id moved past the next id.
// Accepted, the first would let the next insert write past the owner
// table, the second would hand one id to two shards.
TEST(LiveShardTest, CheckpointWithInconsistentIdsRejected) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 63);
  LiveShardedOptions options = ShardOptions(8);
  options.num_shards = 2;
  serve::UpdaterOptions updater_options;
  updater_options.directory = TempDirFor("live_shard_crafted_ids");
  constexpr std::size_t kInserts = 4;
  {
    std::unique_ptr<LiveShardedIndex> live = BuildLive(options, base);
    std::unique_ptr<serve::Updater> updater;
    ASSERT_TRUE(
        serve::Updater::Create(live.get(), updater_options, &updater).ok());
    for (core::VectorId i = 0; i < kInserts; ++i) {
      ASSERT_TRUE(updater->Insert(base.Row(i)).status.ok());
    }
    ASSERT_TRUE(updater->Checkpoint().ok());
  }
  const std::string ckpt = serve::Updater::CheckpointPath(updater_options);
  const std::vector<std::uint8_t> clean = ReadFileBytes(ckpt);
  io::SnapshotReader layout;
  ASSERT_TRUE(io::SnapshotReader::Open(ckpt, &layout).ok());
  const auto section = [&](const std::string& name) {
    for (const io::SectionInfo& info : layout.sections()) {
      if (info.name == name) return info;
    }
    ADD_FAILURE() << "no section " << name;
    return io::SectionInfo{};
  };
  const auto open = [&](const std::vector<std::uint8_t>& bytes) {
    WriteFileBytes(ckpt, bytes);
    std::unique_ptr<LiveShardedIndex> shell =
        LiveShardedIndex::Shell(base, options);
    std::unique_ptr<serve::Updater> updater;
    serve::RecoveryReport report;
    return serve::Updater::Open(shell.get(), updater_options, &updater,
                                &report);
  };
  ASSERT_TRUE(open(clean).ok());

  // (a) Next id one past the rows the shards hold. live.meta is (K, dim,
  // base_n, next_id, reserve), upd.meta (watermark, next_id); the file
  // header keeps data_n at byte 64.
  constexpr std::uint64_t kNextId = kBaseN + kInserts;
  std::vector<std::uint8_t> bumped = clean;
  const io::SectionInfo live_meta = section("live.meta");
  testing::PutU64At(&bumped, live_meta.payload_offset + 24, kNextId + 1);
  testing::ResealSectionPayload(&bumped, live_meta);
  const io::SectionInfo upd_meta = section("upd.meta");
  testing::PutU64At(&bumped, upd_meta.payload_offset + 8, kNextId + 1);
  testing::ResealSectionPayload(&bumped, upd_meta);
  testing::PutU64At(&bumped, 64, kNextId + 1);
  testing::ResealFileHeader(&bumped);
  const core::Status bumped_status = open(bumped);
  EXPECT_EQ(bumped_status.code(), core::StatusCode::kCorruption)
      << bumped_status.message();

  // (b) The last live row's id moved past the next id, into room no shard
  // owns. The ids payload is a u64 count, then the ids.
  std::vector<std::uint8_t> moved = clean;
  bool edited = false;
  for (std::size_t s = 0; s < options.num_shards && !edited; ++s) {
    const io::SectionInfo ids = section("live.s" + std::to_string(s) + ".ids");
    std::uint64_t count = 0;
    std::memcpy(&count, clean.data() + ids.payload_offset, sizeof(count));
    const std::size_t last = ids.payload_offset + count * sizeof(std::uint64_t);
    std::uint64_t gid = 0;
    std::memcpy(&gid, clean.data() + last, sizeof(gid));
    if (count == 0 || gid < kBaseN) continue;  // No live row here.
    testing::PutU64At(&moved, last, kNextId + 2);
    testing::ResealSectionPayload(&moved, ids);
    edited = true;
  }
  ASSERT_TRUE(edited) << "no shard took a live row";
  const core::Status moved_status = open(moved);
  EXPECT_EQ(moved_status.code(), core::StatusCode::kCorruption)
      << moved_status.message();
}

// A checkpoint of the retired single-HNSW live layout cannot be replayed
// (other sections, another WAL fingerprint): OpenLiveIndex refuses it and
// says to rebuild.
TEST(LiveShardTest, OpenLiveIndexRefusesTheRetiredSingleHnswLayout) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 59);
  io::OpenLiveIndexOptions open_options;
  open_options.updater.directory = TempDirFor("live_shard_old_layout");
  io::SnapshotWriter writer("LIVE-HNSW", 1, base.size(), base.dim());
  io::Encoder meta;
  meta.U64(0);
  ASSERT_TRUE(writer.AddSection("live.meta", std::move(meta)).ok());
  ASSERT_TRUE(
      writer.WriteTo(serve::Updater::CheckpointPath(open_options.updater))
          .ok());

  std::unique_ptr<serve::LiveIndex> live;
  std::unique_ptr<serve::Updater> updater;
  serve::RecoveryReport report;
  const core::Status status =
      io::OpenLiveIndex(base, open_options, &live, &updater, &report);
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("rebuild"), std::string::npos)
      << status.message();
  EXPECT_TRUE(updater == nullptr);
}

TEST(LiveShardTest, InterleavedStreamsRecoverInGlobalSequenceOrder) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 45);
  const std::string dir = TempDirFor("live_shard_recovery");
  constexpr std::size_t kInserts = 30;

  io::OpenLiveIndexOptions open_options;
  open_options.updater.directory = dir;
  open_options.sharded = ShardOptions(32);

  // Drive inserts that bounce between clusters so consecutive sequence
  // numbers land in different WAL streams — recovery must merge the
  // streams back into global order (ids are assigned densely).
  std::vector<std::vector<float>> vectors;
  std::vector<core::VectorId> dead;
  {
    std::unique_ptr<LiveShardedIndex> live = BuildLive(base, 32);
    std::unique_ptr<serve::Updater> updater;
    ASSERT_TRUE(
        serve::Updater::Create(live.get(), open_options.updater, &updater)
            .ok());
    core::Rng rng(46);
    for (std::size_t i = 0; i < kInserts; ++i) {
      std::vector<float> vec(kDim);
      const float* row = base.Row(rng.UniformInt(base.size()));
      for (std::size_t d = 0; d < kDim; ++d) {
        vec[d] = row[d] + rng.UniformFloat(-0.05F, 0.05F);
      }
      const serve::UpdateResult result = updater->Insert(vec.data());
      ASSERT_TRUE(result.status.ok());
      vectors.push_back(std::move(vec));
    }
    // A couple of deletes: one base row, one live insert.
    ASSERT_TRUE(updater->Delete(5).status.ok());
    dead.push_back(5);
    ASSERT_TRUE(
        updater->Delete(static_cast<core::VectorId>(kBaseN + 2)).status.ok());
    dead.push_back(static_cast<core::VectorId>(kBaseN + 2));
  }

  std::unique_ptr<serve::LiveIndex> live;
  std::unique_ptr<serve::Updater> updater;
  serve::RecoveryReport report;
  ASSERT_TRUE(
      io::OpenLiveIndex(base, open_options, &live, &updater, &report).ok());
  EXPECT_EQ(report.records_applied, kInserts + dead.size());
  EXPECT_EQ(live->next_id(), kBaseN + kInserts);
  EXPECT_EQ(updater->tombstones().count(), dead.size());
  EXPECT_EQ(updater->last_sequence(), kInserts + dead.size());

  // Every surviving insert self-retrieves through the sharded merge.
  methods::SearchParams params = methods::SearchParams{.k = 5, .beam_width = 50, .num_seeds = 8};
  params.tombstones = &updater->tombstones();
  for (std::size_t i = 0; i < kInserts; ++i) {
    const auto id = static_cast<core::VectorId>(kBaseN + i);
    bool deleted = false;
    for (const core::VectorId d : dead) deleted |= d == id;
    const methods::SearchResult result =
        live->MutableSearchIndex()->Search(vectors[i].data(), params);
    bool present = false;
    for (const auto& nb : result.neighbors) {
      EXPECT_FALSE(updater->tombstones().Contains(nb.id));
      present |= nb.id == id;
    }
    EXPECT_EQ(present, !deleted) << "id " << id;
  }
}

TEST(LiveShardTest, CheckpointRoundTripPreservesShardState) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 47);
  const std::string dir = TempDirFor("live_shard_checkpoint");

  io::OpenLiveIndexOptions open_options;
  open_options.updater.directory = dir;
  open_options.sharded = ShardOptions(16);

  std::vector<float> vec(kDim, 1.5F);
  {
    std::unique_ptr<LiveShardedIndex> live = BuildLive(base, 16);
    std::unique_ptr<serve::Updater> updater;
    ASSERT_TRUE(
        serve::Updater::Create(live.get(), open_options.updater, &updater)
            .ok());
    ASSERT_TRUE(updater->Insert(vec.data()).status.ok());
    ASSERT_TRUE(updater->Delete(9).status.ok());
    ASSERT_TRUE(updater->Checkpoint().ok());
    // Post-checkpoint updates land in the rotated logs.
    ASSERT_TRUE(updater->Insert(vec.data()).status.ok());
  }

  std::unique_ptr<serve::LiveIndex> live;
  std::unique_ptr<serve::Updater> updater;
  serve::RecoveryReport report;
  ASSERT_TRUE(
      io::OpenLiveIndex(base, open_options, &live, &updater, &report).ok());
  EXPECT_EQ(report.watermark, 2u);
  EXPECT_EQ(report.records_applied, 1u);  // Only the post-rotation insert.
  EXPECT_EQ(live->next_id(), kBaseN + 2);
  EXPECT_TRUE(updater->tombstones().Contains(9));

  // The recovered sharded index keeps serving and updating.
  ASSERT_TRUE(updater->Insert(vec.data()).status.ok());
  EXPECT_EQ(updater->last_sequence(), 4u);
}

std::uint64_t ImageHash(const methods::HnswIndex& index) {
  std::vector<std::uint8_t> image;
  EXPECT_TRUE(methods::SerializeIndex(index, &image).ok());
  return io::Hash64(image.data(), image.size());
}

// The pooled Build and the pooled fan-out change no answer: every shard
// (and its replica copy) is the graph a standalone BuildPrefix makes over
// the same rows, and every query returns exactly the merge of the
// shard-by-shard searches, work counters included.
TEST(LiveShardTest, PooledBuildAndFanOutMatchASerialReference) {
  constexpr std::size_t kN = 900;
  constexpr std::size_t kReserve = 32;
  const core::Dataset base = testing::SmallClustered(kN, kDim, 48);
  LiveShardedOptions options = ShardOptions(kReserve);
  options.replicas = 2;
  LiveShardedIndex live(options);
  live.Build(base);

  for (std::size_t s = 0; s < kShards; ++s) {
    const std::vector<core::VectorId>& ids = live.shard_global_ids(s);
    core::Dataset arena(ids.size() + kReserve, kDim);
    for (std::size_t local = 0; local < ids.size(); ++local) {
      std::memcpy(arena.MutableRow(static_cast<core::VectorId>(local)),
                  base.Row(ids[local]), kDim * sizeof(float));
    }
    methods::HnswIndex standalone(options.hnsw);
    standalone.BuildPrefix(arena, ids.size());
    const std::uint64_t expected = ImageHash(standalone);
    EXPECT_EQ(ImageHash(live.shard_index(s)), expected) << "shard " << s;
    EXPECT_EQ(ImageHash(live.shard_replica(s, 1)), expected) << "shard " << s;
  }

  // Live rows too: the merge must map them through the grown id tables.
  core::Rng rng(49);
  std::vector<float> vec(kDim);
  for (std::size_t i = 0; i < 24; ++i) {
    const float* row = base.Row(rng.UniformInt(kN));
    for (std::size_t d = 0; d < kDim; ++d) {
      vec[d] = row[d] + rng.UniformFloat(-0.05F, 0.05F);
    }
    const auto id = static_cast<core::VectorId>(live.next_id());
    ASSERT_TRUE(live.ApplyInsert(live.RouteInsert(vec.data()), id, vec.data())
                    .ok());
  }

  const core::Dataset queries =
      testing::UniformQueries(40, kDim, -2.0F, 34.0F, 50);
  const methods::SearchParams params{.k = 10, .beam_width = 48};
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const float* query = queries.Row(static_cast<core::VectorId>(q));
    methods::SearchContext ctx = live.MakeSearchContext(q);
    const methods::SearchResult pooled = live.Search(query, params, &ctx);

    // Reference: each shard searched on this thread, ids mapped to global,
    // merged by (distance, id) and cut to k. HNSW search draws nothing
    // from the context's RNG, so the per-probe seeds do not matter here.
    std::vector<core::Neighbor> merged;
    std::uint64_t distances = kShards;  // One per centroid, for routing.
    std::uint64_t hops = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      methods::SearchContext sub_ctx = live.MakeSearchContext(0);
      const methods::SearchResult sub =
          live.shard_index(s).Search(query, params, &sub_ctx);
      distances += sub.stats.distance_computations;
      hops += sub.stats.hops;
      for (const core::Neighbor& nb : sub.neighbors) {
        merged.emplace_back(live.shard_global_ids(s)[nb.id], nb.distance);
      }
    }
    std::sort(merged.begin(), merged.end());
    if (merged.size() > params.k) merged.resize(params.k);

    ASSERT_EQ(pooled.neighbors.size(), merged.size()) << "query " << q;
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(pooled.neighbors[i].id, merged[i].id) << "query " << q;
      EXPECT_EQ(FloatBits(pooled.neighbors[i].distance),
                FloatBits(merged[i].distance))
          << "query " << q;
    }
    EXPECT_EQ(pooled.stats.distance_computations, distances) << "query " << q;
    EXPECT_EQ(pooled.stats.hops, hops) << "query " << q;
    EXPECT_EQ(pooled.stats.shards_probed, kShards);
    EXPECT_FALSE(pooled.expired);
  }
}

// Searches through serve::Frontend race inserts and deletes on a pooled
// K=3 live index, half of them under deadlines that expire mid-query. The
// index must not return from a search while a sub-search still reads a
// shard: the frontend then releases the updater's search lock and the next
// insert rewrites that shard's arena and graph, which TSan reports as a
// race (as it does with FanOut::Stragglers::kAbandon on this index).
TEST(LiveShardTest, FrontendSearchesRaceUpdatesWithoutStragglers) {
  constexpr std::size_t kN = 1500;
  constexpr std::size_t kRaceDim = 16;
  constexpr std::size_t kInsertThreads = 2;
  constexpr std::size_t kInsertsPerThread = 150;
  constexpr std::size_t kInserts = kInsertThreads * kInsertsPerThread;
  constexpr std::size_t kDeleteAttempts = 40;
  constexpr std::size_t kSearchThreads = 3;
  constexpr std::size_t kSearchesPerThread = 200;
  const core::Dataset base = testing::SmallClustered(kN, kRaceDim, 51);
  const core::Dataset queries =
      testing::UniformQueries(kSearchesPerThread, kRaceDim, -2.0F, 34.0F, 52);

  const std::string dir = TempDirFor("live_shard_race");
  serve::UpdaterOptions updater_options;
  updater_options.directory = dir;
  updater_options.wal.policy = io::WalFsyncPolicy::kInterval;
  // Cheap inserts, so many land while sub-searches run.
  LiveShardedOptions options = ShardOptions(kInserts);
  options.hnsw.ef_construction = 32;
  auto live = std::make_unique<LiveShardedIndex>(options);
  live->Build(base);
  std::unique_ptr<serve::Updater> updater;
  ASSERT_TRUE(
      serve::Updater::Create(live.get(), updater_options, &updater).ok());

  serve::FrontendOptions frontend_options;
  frontend_options.threads = 3;
  frontend_options.queue_capacity = 256;
  frontend_options.shed_predicted_late = false;

  std::vector<std::vector<float>> inserted(kInserts);
  std::vector<core::VectorId> inserted_ids(kInserts);
  std::atomic<std::size_t> acked_inserts{0};
  std::mutex deleted_mutex;
  std::set<core::VectorId> deleted;  // Acknowledged deletes.
  std::atomic<std::size_t> expired{0};
  {
    serve::Frontend frontend(*updater, frontend_options);
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < kInsertThreads; ++t) {
      clients.emplace_back([&, t] {
        core::Rng rng(53 + t);
        for (std::size_t j = 0; j < kInsertsPerThread; ++j) {
          const std::size_t i = t * kInsertsPerThread + j;
          std::vector<float>& vec = inserted[i];
          vec.resize(kRaceDim);
          const float* row = base.Row(rng.UniformInt(kN));
          for (std::size_t d = 0; d < kRaceDim; ++d) {
            vec[d] = row[d] + rng.UniformFloat(-0.05F, 0.05F);
          }
          const serve::UpdateResult result =
              frontend.SubmitInsert(vec.data(), kRaceDim).get();
          if (!result.status.ok()) continue;
          inserted_ids[i] = result.id;
          acked_inserts.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    clients.emplace_back([&] {
      core::Rng rng(54);
      for (std::size_t i = 0; i < kDeleteAttempts; ++i) {
        // Base rows only; a repeat comes back InvalidArgument.
        const auto id = static_cast<core::VectorId>(rng.UniformInt(kN));
        if (frontend.SubmitDelete(id).get().status.ok()) {
          std::lock_guard<std::mutex> lock(deleted_mutex);
          deleted.insert(id);
        }
      }
    });
    for (std::size_t t = 0; t < kSearchThreads; ++t) {
      clients.emplace_back([&, t] {
        core::Rng rng(55 + t);
        const methods::SearchParams params{.k = 10, .beam_width = 96};
        double unbounded_seconds = 0.0;  // Latest query without a deadline.
        for (std::size_t q = 0; q < kSearchesPerThread; ++q) {
          std::set<core::VectorId> dead;
          {
            std::lock_guard<std::mutex> lock(deleted_mutex);
            dead = deleted;
          }
          const float* query =
              queries.Row(static_cast<core::VectorId>(q % queries.size()));
          // Every other query gets a budget of 10-90% of the previous
          // unbounded one's latency, so at any machine speed most expire
          // mid-query, while sub-searches are still running.
          const core::Timer timer;
          const serve::SearchResponse response =
              q % 2 == 0
                  ? frontend.Submit(query, kRaceDim, params).get()
                  : frontend
                        .Submit(query, kRaceDim, params,
                                core::Deadline::After(
                                    unbounded_seconds *
                                    (0.1 + 0.8 * rng.UniformDouble())))
                        .get();
          if (q % 2 == 0) unbounded_seconds = timer.Seconds();
          if (response.outcome == methods::ServeOutcome::kExpired) {
            expired.fetch_add(1, std::memory_order_relaxed);
          }
          EXPECT_LE(response.neighbors.size(), params.k);
          for (const core::Neighbor& nb : response.neighbors) {
            EXPECT_EQ(dead.count(nb.id), 0u)
                << "deleted id " << nb.id << " returned";
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    frontend.Drain();
  }
  EXPECT_EQ(acked_inserts.load(), kInserts);
  EXPECT_GE(deleted.size(), 1u);
  EXPECT_GE(expired.load(), 1u) << "no deadline expired mid-query";
  EXPECT_EQ(live->next_id(), kN + kInserts);
  EXPECT_EQ(updater->tombstones().count(), deleted.size());

  // Every acknowledged insert is found afterwards; no tombstone surfaces.
  methods::SearchParams params{.k = 10, .beam_width = 64};
  params.tombstones = &updater->tombstones();
  for (std::size_t i = 0; i < kInserts; ++i) {
    const methods::SearchResult result =
        live->Search(inserted[i].data(), params);
    bool found = false;
    for (const core::Neighbor& nb : result.neighbors) {
      EXPECT_FALSE(updater->tombstones().Contains(nb.id));
      found |= nb.id == inserted_ids[i];
    }
    EXPECT_TRUE(found) << "acknowledged insert " << inserted_ids[i];
  }
}

}  // namespace
}  // namespace gass::shard
