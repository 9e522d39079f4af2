#include "serve/executor.h"

#include <vector>

#include <gtest/gtest.h>

#include "eval/ground_truth.h"
#include "eval/recall.h"
#include "methods/hnsw_index.h"
#include "serve/search_session.h"
#include "synth/generators.h"

namespace gass::serve {
namespace {

using core::Dataset;
using methods::HnswIndex;
using methods::HnswParams;
using methods::SearchParams;

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = synth::UniformHypercube(1200, 10, 11);
    queries_ = synth::UniformHypercube(80, 10, 12);
    index_ = std::make_unique<HnswIndex>(HnswParams{});
    index_->Build(data_);
  }

  Dataset data_;
  Dataset queries_;
  std::unique_ptr<HnswIndex> index_;
};

TEST_F(ExecutorTest, BatchAnswersEveryQueryWithGoodRecall) {
  ExecutorOptions options;
  options.threads = 4;
  QueryExecutor executor(*index_, options);
  SearchParams params;
  params.k = 10;
  params.beam_width = 100;
  const BatchResult batch = executor.SearchBatch(
      queries_.data(), queries_.size(), queries_.dim(), params);

  ASSERT_EQ(batch.results.size(), queries_.size());
  std::vector<std::vector<core::Neighbor>> answers;
  for (const auto& r : batch.results) {
    EXPECT_EQ(r.neighbors.size(), params.k);
    answers.push_back(r.neighbors);
  }
  const auto truth = eval::BruteForceKnn(data_, queries_, 10, 1);
  EXPECT_GE(eval::MeanRecall(answers, truth, 10), 0.9);
  EXPECT_EQ(batch.expired, 0u);
  EXPECT_GT(batch.elapsed_seconds, 0.0);
  EXPECT_GT(batch.Qps(), 0.0);
}

TEST_F(ExecutorTest, ResultsIndependentOfThreadCount) {
  SearchParams params;
  params.k = 10;
  params.beam_width = 80;

  ExecutorOptions serial_options;
  serial_options.threads = 1;
  QueryExecutor serial(*index_, serial_options);
  ExecutorOptions parallel_options;
  parallel_options.threads = 4;
  QueryExecutor parallel(*index_, parallel_options);

  const BatchResult a = serial.SearchBatch(queries_.data(), queries_.size(),
                                           queries_.dim(), params);
  const BatchResult b = parallel.SearchBatch(queries_.data(), queries_.size(),
                                             queries_.dim(), params);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t q = 0; q < a.results.size(); ++q) {
    const auto& na = a.results[q].neighbors;
    const auto& nb = b.results[q].neighbors;
    ASSERT_EQ(na.size(), nb.size()) << "query " << q;
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].id, nb[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(na[i].distance, nb[i].distance);
    }
  }
}

TEST_F(ExecutorTest, ExpiredDeadlineYieldsPartialResults) {
  ExecutorOptions options;
  options.threads = 2;
  options.timeout_seconds = 1e-9;  // Expires before the first beam hop.
  QueryExecutor executor(*index_, options);
  SearchParams params;
  params.k = 10;
  params.beam_width = 100;
  const BatchResult batch = executor.SearchBatch(
      queries_.data(), queries_.size(), queries_.dim(), params);

  ASSERT_EQ(batch.results.size(), queries_.size());
  EXPECT_EQ(batch.expired, queries_.size());
  for (const auto& r : batch.results) {
    // Graceful degradation: best-so-far answers (at least the seeds), never
    // an error or an empty set.
    EXPECT_FALSE(r.neighbors.empty());
    EXPECT_LE(r.neighbors.size(), params.k);
    EXPECT_EQ(r.stats.deadline_expiries, 1u);
    // Per-query truncation flag, so batch consumers need not dig through
    // stats to tell partial results apart.
    EXPECT_TRUE(r.expired);
  }
  EXPECT_EQ(executor.metrics().count(ServeCounter::kExpired), queries_.size());
}

TEST_F(ExecutorTest, CallerDeadlineHonoredWhenExecutorHasNoTimeout) {
  // Regression: SearchBatch used to overwrite a caller-set params.deadline
  // with its own (here: absent) timeout, silently loosening the budget. The
  // contract is min(caller deadline, executor timeout).
  ExecutorOptions options;
  options.threads = 2;  // No timeout_seconds: executor side is unlimited.
  QueryExecutor executor(*index_, options);
  SearchParams params;
  params.k = 10;
  params.beam_width = 100;
  const core::Deadline expired = core::Deadline::Expired();
  params.deadline = &expired;
  const BatchResult batch = executor.SearchBatch(
      queries_.data(), queries_.size(), queries_.dim(), params);
  EXPECT_EQ(batch.expired, queries_.size());
  for (const auto& r : batch.results) EXPECT_TRUE(r.expired);
}

TEST_F(ExecutorTest, TighterExecutorTimeoutStillAppliesUnderCallerDeadline) {
  // The other direction of the min: a generous caller deadline must not
  // loosen a tight executor timeout.
  ExecutorOptions options;
  options.threads = 2;
  options.timeout_seconds = 1e-9;
  QueryExecutor executor(*index_, options);
  SearchParams params;
  params.k = 10;
  params.beam_width = 100;
  const core::Deadline generous = core::Deadline::After(3600.0);
  params.deadline = &generous;
  const BatchResult batch = executor.SearchBatch(
      queries_.data(), queries_.size(), queries_.dim(), params);
  EXPECT_EQ(batch.expired, queries_.size());
}

TEST_F(ExecutorTest, UnlimitedDeadlineNeverFlagsExpired) {
  ExecutorOptions options;
  options.threads = 2;
  QueryExecutor executor(*index_, options);
  SearchParams params;
  params.k = 10;
  const BatchResult batch = executor.SearchBatch(
      queries_.data(), queries_.size(), queries_.dim(), params);
  for (const auto& r : batch.results) EXPECT_FALSE(r.expired);
  EXPECT_EQ(executor.metrics().count(ServeCounter::kExpired), 0u);
}

TEST_F(ExecutorTest, MetricsAccumulateAcrossBatches) {
  ExecutorOptions options;
  options.threads = 2;
  QueryExecutor executor(*index_, options);
  SearchParams params;
  params.k = 5;
  executor.SearchBatch(queries_.data(), 40, queries_.dim(), params);
  executor.SearchBatch(queries_.data(), 40, queries_.dim(), params);

  const ServeMetrics& metrics = executor.metrics();
  EXPECT_EQ(metrics.queries(), 80u);
  EXPECT_GT(metrics.TotalStats().distance_computations, 0u);
  EXPECT_GT(metrics.LatencyQuantileSeconds(0.5), 0.0);
  EXPECT_GT(metrics.Qps(), 0.0);
}

TEST_F(ExecutorTest, EmptyBatchIsFine) {
  QueryExecutor executor(*index_);
  SearchParams params;
  const BatchResult batch =
      executor.SearchBatch(queries_.data(), 0, queries_.dim(), params);
  EXPECT_TRUE(batch.results.empty());
  EXPECT_EQ(batch.expired, 0u);
}

TEST(SearchSessionPoolTest, ReusesReleasedContexts) {
  const Dataset data = synth::UniformHypercube(300, 8, 5);
  HnswIndex index(HnswParams{});
  index.Build(data);
  SearchSessionPool pool(index);
  EXPECT_EQ(pool.created_count(), 0u);
  {
    SearchSessionPool::Lease a = pool.Acquire();
    SearchSessionPool::Lease b = pool.Acquire();
    EXPECT_EQ(pool.created_count(), 2u);
    EXPECT_EQ(pool.idle_count(), 0u);
    EXPECT_EQ(a->visited.size(), data.size());
  }
  EXPECT_EQ(pool.idle_count(), 2u);
  {
    SearchSessionPool::Lease c = pool.Acquire();
    EXPECT_EQ(pool.created_count(), 2u);  // Recycled, not newly built.
    EXPECT_EQ(pool.idle_count(), 1u);
  }
}

}  // namespace
}  // namespace gass::serve
