// Concurrent search during live updates, through the serve::Frontend.
//
// Multiple client threads submit searches while insert and delete threads
// stream acknowledged updates through the same admission queue. The
// invariants: every acknowledged insert is in the index afterwards, no
// search ever emits a tombstoned id, and nothing crashes or races (this
// test is the wal-label TSan target). Run under ctest -L wal.

#include <atomic>
#include <cstddef>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/rng.h"
#include "io/fs.h"
#include "serve/frontend.h"
#include "serve/live_hnsw.h"
#include "serve/updater.h"
#include "../test_util.h"

namespace gass::serve {
namespace {

constexpr std::size_t kBaseN = 128;
constexpr std::size_t kDim = 12;
constexpr std::size_t kInsertThreads = 2;
constexpr std::size_t kInsertsPerThread = 40;
constexpr std::size_t kSearchThreads = 3;
constexpr std::size_t kSearchesPerThread = 60;
constexpr std::size_t kDeleteAttempts = 30;

TEST(UpdateConcurrencyTest, SearchesRunAgainstAMutatingIndex) {
  const core::Dataset base = testing::SmallClustered(kBaseN, kDim, 31);
  const core::Dataset queries =
      testing::UniformQueries(kSearchesPerThread, kDim, -2.0F, 34.0F, 32);

  const std::string dir =
      std::string(::testing::TempDir()) + "/update_concurrency";
  ASSERT_TRUE(io::CreateDirectory(dir).ok());
  UpdaterOptions updater_options;
  updater_options.directory = dir;
  updater_options.wal.policy = io::WalFsyncPolicy::kEveryN;
  updater_options.wal.sync_every_n = 8;

  LiveHnswOptions live_options;
  live_options.reserve = kInsertThreads * kInsertsPerThread + 8;
  std::unique_ptr<LiveHnsw> live = LiveHnsw::Build(base, live_options);
  std::unique_ptr<Updater> updater;
  ASSERT_TRUE(Updater::Create(live.get(), updater_options, &updater).ok());

  FrontendOptions frontend_options;
  frontend_options.threads = 4;
  frontend_options.queue_capacity = 256;
  frontend_options.shed_predicted_late = false;

  std::atomic<std::uint64_t> acked_inserts{0};
  std::atomic<std::uint64_t> acked_deletes{0};
  std::atomic<std::uint64_t> full_searches{0};
  {
    Frontend frontend(*updater, frontend_options);

    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < kInsertThreads; ++t) {
      clients.emplace_back([&frontend, &base, &acked_inserts, t] {
        core::Rng rng(100 + t);
        std::vector<float> vec(kDim);
        for (std::size_t i = 0; i < kInsertsPerThread; ++i) {
          const float* row = base.Row(rng.UniformInt(base.size()));
          for (std::size_t d = 0; d < kDim; ++d) {
            vec[d] = row[d] + rng.UniformFloat(-0.05F, 0.05F);
          }
          const UpdateResult result =
              frontend.SubmitInsert(vec.data(), kDim).get();
          if (result.status.ok()) {
            acked_inserts.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    clients.emplace_back([&frontend, &acked_deletes] {
      core::Rng rng(200);
      for (std::size_t i = 0; i < kDeleteAttempts; ++i) {
        // Base rows only; repeats come back InvalidArgument — fine.
        const auto id = static_cast<core::VectorId>(rng.UniformInt(kBaseN));
        const UpdateResult result = frontend.SubmitDelete(id).get();
        if (result.status.ok()) {
          acked_deletes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    for (std::size_t t = 0; t < kSearchThreads; ++t) {
      clients.emplace_back([&frontend, &queries, &full_searches] {
        const methods::SearchParams params =
            methods::SearchParams{.k = 10, .beam_width = 64, .num_seeds = 8};
        for (std::size_t q = 0; q < kSearchesPerThread; ++q) {
          const SearchResponse response =
              frontend.Submit(queries.Row(q), kDim, params).get();
          if (response.outcome == methods::ServeOutcome::kRejected) continue;
          full_searches.fetch_add(1, std::memory_order_relaxed);
          EXPECT_LE(response.neighbors.size(), params.k);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    frontend.Drain();

    EXPECT_EQ(acked_inserts.load(), kInsertThreads * kInsertsPerThread);
    EXPECT_GE(acked_deletes.load(), 1u);
    EXPECT_GE(full_searches.load(), 1u);
    EXPECT_EQ(live->next_id(), kBaseN + acked_inserts.load());
    EXPECT_EQ(updater->tombstones().count(), acked_deletes.load());
    EXPECT_EQ(frontend.metrics().count(ServeCounter::kUpdatesApplied),
              acked_inserts.load());
    EXPECT_EQ(frontend.metrics().count(ServeCounter::kDeletesApplied),
              acked_deletes.load());
  }

  // Steady state after the storm: no search may emit any tombstoned id.
  const methods::SearchParams params = methods::SearchParams{.k = 10, .beam_width = 64, .num_seeds = 8};
  methods::SearchParams filtered = params;
  filtered.tombstones = &updater->tombstones();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const methods::SearchResult result =
        live->MutableSearchIndex()->Search(queries.Row(q), filtered);
    for (const auto& nb : result.neighbors) {
      EXPECT_FALSE(updater->tombstones().Contains(nb.id));
    }
  }

  // Crash-free shutdown + recovery agree with the acknowledged history.
  const std::uint64_t inserts = acked_inserts.load();
  const std::uint64_t deletes = acked_deletes.load();
  updater.reset();
  live.reset();
  std::unique_ptr<LiveHnsw> shell = LiveHnsw::Shell(base, live_options);
  std::unique_ptr<Updater> recovered;
  RecoveryReport report;
  ASSERT_TRUE(
      Updater::Open(shell.get(), updater_options, &recovered, &report).ok());
  EXPECT_EQ(shell->next_id(), kBaseN + inserts);
  EXPECT_EQ(recovered->tombstones().count(), deletes);
  EXPECT_EQ(recovered->last_sequence(), inserts + deletes);
}

TEST(UpdateConcurrencyTest, RejectedUpdatesResolveWithAnError) {
  const core::Dataset base = testing::SmallClustered(64, 8, 33);
  const std::string dir =
      std::string(::testing::TempDir()) + "/update_reject";
  ASSERT_TRUE(io::CreateDirectory(dir).ok());
  UpdaterOptions updater_options;
  updater_options.directory = dir;

  LiveHnswOptions live_options;
  live_options.reserve = 64;
  std::unique_ptr<LiveHnsw> live = LiveHnsw::Build(base, live_options);
  std::unique_ptr<Updater> updater;
  ASSERT_TRUE(Updater::Create(live.get(), updater_options, &updater).ok());

  FrontendOptions frontend_options;
  frontend_options.threads = 1;
  frontend_options.queue_capacity = 1;
  Frontend frontend(*updater, frontend_options);

  // Flood a capacity-1 queue from one thread: some tickets must come back
  // rejected, and every ticket must resolve either way.
  std::vector<float> vec(8, 0.5F);
  std::vector<Frontend::UpdateTicket> tickets;
  tickets.reserve(64);
  for (int i = 0; i < 64; ++i) {
    tickets.push_back(frontend.SubmitInsert(vec.data(), 8));
  }
  std::size_t acked = 0;
  std::size_t rejected = 0;
  for (auto& ticket : tickets) {
    const UpdateResult result = ticket.get();
    if (result.status.ok()) {
      ++acked;
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(acked + rejected, 64u);
  EXPECT_EQ(live->next_id(), 64 + acked);
  EXPECT_EQ(frontend.metrics().count(ServeCounter::kUpdatesApplied), acked);
}

}  // namespace
}  // namespace gass::serve
