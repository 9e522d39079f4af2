// Crash-recovery harness for the WAL-backed live update path.
//
// The contract under test (docs/PERSISTENCE.md "Durability & live
// updates"): every acknowledged insert is findable after recovery, every
// acknowledged delete stays deleted, and replay is idempotent — recovering
// twice yields bit-identical search results. Crashes are simulated with
// deterministic WalFaultPlans (torn tails, bit flips, duplicated records)
// and writer-side fsync failures.

#include "serve/updater.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/rng.h"
#include "io/fs.h"
#include "io/wal.h"
#include "obs/exporter.h"
#include "serve/live_hnsw.h"
#include "../test_util.h"

namespace gass::serve {
namespace {

constexpr std::size_t kBaseN = 80;
constexpr std::size_t kDim = 8;

std::string TempDirFor(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  EXPECT_TRUE(io::CreateDirectory(dir).ok());
  return dir;
}

std::vector<unsigned char> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<unsigned char> bytes(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path,
               const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// One scripted op of the deterministic workload.
struct Op {
  bool is_insert;
  core::VectorId delete_id;       // Deletes only.
  std::vector<float> vec;         // Inserts only.
  std::uint64_t record_bytes() const {
    return io::kWalRecordHeaderBytes + 8 +
           (is_insert ? kDim * sizeof(float) : 0);
  }
};

// 8 inserts, 2 deletes (one base row, one live row), 4 more inserts — a
// fixed script so every record's byte offset in the WAL is computable.
std::vector<Op> Workload() {
  core::Rng rng(2024);
  std::vector<Op> ops;
  for (int i = 0; i < 8; ++i) {
    Op op;
    op.is_insert = true;
    op.vec.resize(kDim);
    for (float& x : op.vec) x = rng.UniformFloat(-1.0F, 1.0F);
    ops.push_back(std::move(op));
  }
  ops.push_back(Op{false, 3, {}});                  // A base row.
  ops.push_back(Op{false, kBaseN + 1, {}});         // A live row.
  for (int i = 0; i < 4; ++i) {
    Op op;
    op.is_insert = true;
    op.vec.resize(kDim);
    for (float& x : op.vec) x = rng.UniformFloat(-1.0F, 1.0F);
    ops.push_back(std::move(op));
  }
  return ops;
}

UpdaterOptions OptionsFor(const std::string& dir) {
  UpdaterOptions options;
  options.directory = dir;
  options.name = "live";
  return options;
}

LiveHnswOptions LiveOptions() {
  LiveHnswOptions options;
  options.reserve = 32;
  return options;
}

// Runs the scripted workload against a fresh updater in `dir`; every op
// must be acknowledged.
void RunWorkload(const core::Dataset& base, const UpdaterOptions& options,
                 const std::vector<Op>& ops) {
  std::unique_ptr<LiveHnsw> live = LiveHnsw::Build(base, LiveOptions());
  std::unique_ptr<Updater> updater;
  ASSERT_TRUE(Updater::Create(live.get(), options, &updater).ok());
  for (const Op& op : ops) {
    const UpdateResult result = op.is_insert
                                    ? updater->Insert(op.vec.data())
                                    : updater->Delete(op.delete_id);
    ASSERT_TRUE(result.status.ok()) << result.status.message();
  }
}

// The state the first `applied_ops` script ops produce.
struct ExpectedState {
  std::size_t next_id = kBaseN;
  std::vector<core::VectorId> dead;
};

ExpectedState ExpectAfter(const std::vector<Op>& ops,
                          std::size_t applied_ops) {
  ExpectedState state;
  for (std::size_t i = 0; i < applied_ops; ++i) {
    if (ops[i].is_insert) {
      ++state.next_id;
    } else {
      state.dead.push_back(ops[i].delete_id);
    }
  }
  return state;
}

// Self-retrieval: each live insert, queried by its own vector, must appear
// in the top k; each dead id must not appear for any probe.
void VerifySearches(LiveHnsw* live, Updater* updater,
                    const std::vector<Op>& ops, std::size_t applied_ops,
                    const std::string& context) {
  const ExpectedState state = ExpectAfter(ops, applied_ops);
  EXPECT_EQ(live->next_id(), state.next_id) << context;
  EXPECT_EQ(updater->tombstones().count(), state.dead.size()) << context;
  for (const core::VectorId id : state.dead) {
    EXPECT_TRUE(updater->tombstones().Contains(id)) << context;
  }
  methods::SearchParams params = methods::SearchParams{.k = 5, .beam_width = 50, .num_seeds = 8};
  params.tombstones = &updater->tombstones();
  core::VectorId id = kBaseN;
  for (std::size_t i = 0; i < applied_ops; ++i) {
    if (!ops[i].is_insert) continue;
    const core::VectorId self = id++;
    bool deleted = false;
    for (const core::VectorId d : state.dead) deleted |= d == self;
    const methods::SearchResult result =
        live->MutableSearchIndex()->Search(ops[i].vec.data(), params);
    bool present = false;
    for (const auto& nb : result.neighbors) {
      EXPECT_FALSE(updater->tombstones().Contains(nb.id))
          << context << ": tombstoned id emitted";
      present |= nb.id == self;
    }
    if (deleted) {
      EXPECT_FALSE(present) << context << ": deleted id " << self;
    } else {
      EXPECT_TRUE(present) << context << ": lost insert " << self;
    }
  }
}

TEST(UpdaterTest, CleanRecoveryServesEveryAcknowledgedUpdate) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 21);
  const std::string dir = TempDirFor("updater_clean");
  const UpdaterOptions options = OptionsFor(dir);
  const std::vector<Op> ops = Workload();
  RunWorkload(base, options, ops);

  std::unique_ptr<LiveHnsw> shell = LiveHnsw::Shell(base, LiveOptions());
  std::unique_ptr<Updater> updater;
  RecoveryReport report;
  ASSERT_TRUE(Updater::Open(shell.get(), options, &updater, &report).ok());
  EXPECT_EQ(report.records_applied, ops.size());
  EXPECT_EQ(report.torn_tails, 0u);
  EXPECT_EQ(updater->last_sequence(), ops.size());
  VerifySearches(shell.get(), updater.get(), ops, ops.size(), "clean");

  // Recovery binds counters too.
  EXPECT_EQ(updater->metrics().count(ServeCounter::kWalReplayRecords),
            ops.size());
}

TEST(UpdaterTest, FaultGridRecoversExactlyTheSurvivingPrefix) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 22);
  const std::vector<Op> ops = Workload();

  // Byte offset where record i starts (header = record 0's offset).
  std::vector<std::uint64_t> offset(ops.size() + 1);
  offset[0] = io::kWalFileHeaderBytes;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    offset[i + 1] = offset[i] + ops[i].record_bytes();
  }

  struct Case {
    const char* name;
    io::WalFaultPlan plan;
    std::size_t surviving_ops;
  };
  std::vector<Case> cases;
  // Torn tails: mid-header, mid-payload, one byte short of complete.
  cases.push_back({"torn_mid_header_rec5",
                   {.truncate_to = offset[5] + 10}, 5});
  cases.push_back({"torn_mid_payload_rec9",
                   {.truncate_to = offset[9] + io::kWalRecordHeaderBytes + 3},
                   9});
  cases.push_back({"torn_last_byte_rec13",
                   {.truncate_to = offset[13] - 1}, 12});
  // Bit flips: record header, record payload, sequence field.
  cases.push_back({"flip_header_rec3", {.flip_offset = offset[3] + 1}, 3});
  cases.push_back({"flip_payload_rec7",
                   {.flip_offset = offset[7] + io::kWalRecordHeaderBytes + 9},
                   7});
  cases.push_back(
      {"flip_checksum_rec10", {.flip_offset = offset[10] + 24}, 10});
  // Duplicated (stale-sequence) records: skipped, full state survives.
  {
    io::WalFaultPlan plan;
    plan.duplicate_record = 4;
    cases.push_back({"duplicate_rec4", plan, ops.size()});
  }
  {
    io::WalFaultPlan plan;
    plan.duplicate_record = ops.size() - 1;
    cases.push_back({"duplicate_last", plan, ops.size()});
  }

  for (const Case& c : cases) {
    const std::string dir = TempDirFor(std::string("updater_grid_") + c.name);
    const UpdaterOptions options = OptionsFor(dir);
    RunWorkload(base, options, ops);
    ASSERT_TRUE(
        io::ApplyWalFaults(Updater::WalPath(options, 0), c.plan).ok());

    std::unique_ptr<LiveHnsw> shell = LiveHnsw::Shell(base, LiveOptions());
    std::unique_ptr<Updater> updater;
    RecoveryReport report;
    ASSERT_TRUE(Updater::Open(shell.get(), options, &updater, &report).ok())
        << c.name;
    EXPECT_EQ(report.records_applied, c.surviving_ops) << c.name;
    VerifySearches(shell.get(), updater.get(), ops, c.surviving_ops, c.name);
    ASSERT_TRUE(shell->hnsw().graph().Validate().ok()) << c.name;
  }
}

TEST(UpdaterTest, DoubleReplayIsBitIdentical) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 23);
  const std::string dir = TempDirFor("updater_double_replay");
  const UpdaterOptions options = OptionsFor(dir);
  const std::vector<Op> ops = Workload();
  RunWorkload(base, options, ops);

  // Tear the log mid-way so the first recovery also truncates.
  io::WalFaultPlan plan;
  plan.truncate_to = io::kWalFileHeaderBytes + 200;
  ASSERT_TRUE(
      io::ApplyWalFaults(Updater::WalPath(options, 0), plan).ok());

  const core::Dataset probes =
      testing::UniformQueries(16, kDim, -2.0F, 34.0F, 5);
  methods::SearchParams params = methods::SearchParams{.k = 10, .beam_width = 64, .num_seeds = 8};

  // Two independent recoveries over the same on-disk state.
  std::vector<std::vector<std::pair<core::VectorId, float>>> runs;
  std::uint64_t first_applied = 0;
  for (int run = 0; run < 2; ++run) {
    std::unique_ptr<LiveHnsw> shell = LiveHnsw::Shell(base, LiveOptions());
    std::unique_ptr<Updater> updater;
    RecoveryReport report;
    ASSERT_TRUE(Updater::Open(shell.get(), options, &updater, &report).ok());
    if (run == 0) {
      first_applied = report.records_applied;
      EXPECT_EQ(report.torn_tails, 1u);
    } else {
      // The first recovery truncated the tail; the second sees a clean log
      // holding the same records.
      EXPECT_EQ(report.records_applied, first_applied);
      EXPECT_EQ(report.torn_tails, 0u);
    }
    methods::SearchParams query = params;
    query.tombstones = &updater->tombstones();
    for (core::VectorId q = 0; q < probes.size(); ++q) {
      const methods::SearchResult result =
          shell->MutableSearchIndex()->Search(probes.Row(q), query);
      std::vector<std::pair<core::VectorId, float>> flat;
      for (const auto& nb : result.neighbors) {
        flat.emplace_back(nb.id, nb.distance);
      }
      runs.push_back(std::move(flat));
    }
  }
  // Bit-identical: same ids, same distances, same order, every probe.
  const std::size_t half = runs.size() / 2;
  for (std::size_t q = 0; q < half; ++q) {
    EXPECT_EQ(runs[q], runs[half + q]) << "probe " << q;
  }
}

TEST(UpdaterTest, FailedFsyncRefusesAcknowledgmentAndRecovers) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 24);
  const std::string dir = TempDirFor("updater_fsync_fail");
  const UpdaterOptions options = OptionsFor(dir);

  std::vector<float> vec(kDim, 0.5F);
  std::size_t acked = 0;
  {
    std::unique_ptr<LiveHnsw> live = LiveHnsw::Build(base, LiveOptions());
    std::unique_ptr<Updater> updater;
    ASSERT_TRUE(Updater::Create(live.get(), options, &updater).ok());
    ASSERT_TRUE(updater->Insert(vec.data()).status.ok());
    ++acked;
    updater->wal_for_test(0)->FailNextSyncAfter(0);
    // The append's sync fails: NOT acknowledged, and the stream is wedged
    // (a lost sync leaves the durable length unknown).
    EXPECT_FALSE(updater->Insert(vec.data()).status.ok());
    EXPECT_FALSE(updater->Insert(vec.data()).status.ok());
    EXPECT_FALSE(updater->Delete(0).status.ok());
    // The in-memory index never saw the unacknowledged updates.
    EXPECT_EQ(live->next_id(), kBaseN + acked);
    EXPECT_TRUE(updater->tombstones().empty());
  }
  // Recovery: everything acknowledged survives; nothing unacknowledged is
  // required to (a record that reached the file without its ack may
  // legitimately replay — the guarantee is one-directional).
  std::unique_ptr<LiveHnsw> shell = LiveHnsw::Shell(base, LiveOptions());
  std::unique_ptr<Updater> updater;
  RecoveryReport report;
  ASSERT_TRUE(Updater::Open(shell.get(), options, &updater, &report).ok());
  EXPECT_GE(shell->next_id(), kBaseN + acked);
  methods::SearchParams params = methods::SearchParams{.k = 5, .beam_width = 50, .num_seeds = 8};
  params.tombstones = &updater->tombstones();
  const methods::SearchResult result =
      shell->MutableSearchIndex()->Search(vec.data(), params);
  bool present = false;
  for (const auto& nb : result.neighbors) {
    present |= nb.id == static_cast<core::VectorId>(kBaseN);
  }
  EXPECT_TRUE(present);
  // And the recovered stream accepts new updates.
  EXPECT_TRUE(updater->Insert(vec.data()).status.ok());
}

TEST(UpdaterTest, CheckpointRotationCoversTheOldLog) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 25);
  const std::string dir = TempDirFor("updater_checkpoint");
  const UpdaterOptions options = OptionsFor(dir);
  const std::vector<Op> ops = Workload();

  std::vector<unsigned char> old_wal;
  {
    std::unique_ptr<LiveHnsw> live = LiveHnsw::Build(base, LiveOptions());
    std::unique_ptr<Updater> updater;
    ASSERT_TRUE(Updater::Create(live.get(), options, &updater).ok());
    for (const Op& op : ops) {
      ASSERT_TRUE((op.is_insert ? updater->Insert(op.vec.data())
                                : updater->Delete(op.delete_id))
                      .status.ok());
    }
    old_wal = ReadFile(Updater::WalPath(options, 0));  // Pre-rotation log.
    ASSERT_TRUE(updater->Checkpoint().ok());
    EXPECT_EQ(updater->updates_since_checkpoint(), 0u);

    // Post-rotation log is empty, based at the watermark.
    std::uint64_t size = 0;
    ASSERT_TRUE(
        io::FileSize(Updater::WalPath(options, 0), &size).ok());
    EXPECT_EQ(size, io::kWalFileHeaderBytes);
  }

  // Normal reopen: nothing to replay, full state from the checkpoint.
  {
    std::unique_ptr<LiveHnsw> shell = LiveHnsw::Shell(base, LiveOptions());
    std::unique_ptr<Updater> updater;
    RecoveryReport report;
    ASSERT_TRUE(Updater::Open(shell.get(), options, &updater, &report).ok());
    EXPECT_EQ(report.records_applied, 0u);
    EXPECT_EQ(report.watermark, ops.size());
    VerifySearches(shell.get(), updater.get(), ops, ops.size(),
                   "post-checkpoint");
  }

  // Crash mid-rotation: the checkpoint was written but the old log never
  // got replaced. Every old record is <= the watermark and must be skipped
  // — replay onto the checkpoint is idempotent.
  WriteFile(Updater::WalPath(options, 0), old_wal);
  {
    std::unique_ptr<LiveHnsw> shell = LiveHnsw::Shell(base, LiveOptions());
    std::unique_ptr<Updater> updater;
    RecoveryReport report;
    ASSERT_TRUE(Updater::Open(shell.get(), options, &updater, &report).ok());
    EXPECT_EQ(report.records_applied, 0u);
    EXPECT_EQ(report.records_skipped, ops.size());
    VerifySearches(shell.get(), updater.get(), ops, ops.size(),
                   "mid-rotation crash");
  }
}

TEST(UpdaterTest, AutomaticCheckpointEveryNUpdates) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 26);
  const std::string dir = TempDirFor("updater_auto_checkpoint");
  UpdaterOptions options = OptionsFor(dir);
  options.checkpoint_every = 4;

  std::unique_ptr<LiveHnsw> live = LiveHnsw::Build(base, LiveOptions());
  std::unique_ptr<Updater> updater;
  ASSERT_TRUE(Updater::Create(live.get(), options, &updater).ok());
  std::vector<float> vec(kDim, 0.1F);
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(updater->Insert(vec.data()).status.ok());
  }
  EXPECT_EQ(updater->metrics().checkpoints(), 2u);  // After 4 and 8.
  EXPECT_EQ(updater->updates_since_checkpoint(), 1u);
}

TEST(UpdaterTest, UpdateCountersFlowThroughTheExporter) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 27);
  const std::string dir = TempDirFor("updater_counters");
  const UpdaterOptions options = OptionsFor(dir);

  std::unique_ptr<LiveHnsw> live = LiveHnsw::Build(base, LiveOptions());
  std::unique_ptr<Updater> updater;
  ASSERT_TRUE(Updater::Create(live.get(), options, &updater).ok());
  std::vector<float> vec(kDim, 0.9F);
  ASSERT_TRUE(updater->Insert(vec.data()).status.ok());
  ASSERT_TRUE(updater->Insert(vec.data()).status.ok());
  ASSERT_TRUE(updater->Delete(kBaseN).status.ok());
  ASSERT_TRUE(updater->Checkpoint().ok());

  const ServeMetrics& metrics = updater->metrics();
  EXPECT_EQ(metrics.count(ServeCounter::kUpdatesApplied), 2u);
  EXPECT_EQ(metrics.count(ServeCounter::kDeletesApplied), 1u);
  EXPECT_GT(metrics.wal_bytes_written(), 0u);
  EXPECT_EQ(metrics.checkpoints(), 1u);

  obs::Exporter exporter;
  metrics.ExportTo(&exporter, "gass_serve_");
  const std::string prom = exporter.ToPrometheus();
  EXPECT_NE(prom.find("gass_serve_updates_applied_total 2"),
            std::string::npos);
  EXPECT_NE(prom.find("gass_serve_deletes_applied_total 1"),
            std::string::npos);
  EXPECT_NE(prom.find("gass_serve_wal_bytes_written_total"),
            std::string::npos);
  EXPECT_NE(prom.find("gass_serve_checkpoints_total 1"), std::string::npos);
  const std::string dump = metrics.Dump();
  EXPECT_NE(dump.find("updates applied"), std::string::npos);
  EXPECT_NE(dump.find("checkpoints"), std::string::npos);
}

}  // namespace
}  // namespace gass::serve
