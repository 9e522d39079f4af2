#include "serve/retry.h"

#include <vector>

#include <gtest/gtest.h>

#include "methods/hnsw_index.h"
#include "serve/fault_injector.h"
#include "synth/generators.h"

namespace gass::serve {
namespace {

using methods::ServeOutcome;

TEST(RetryBackoffTest, CappedExponentialGrowthWithoutJitter) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.001;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.008;
  policy.jitter_fraction = 0.0;
  // 1ms, 2ms, 4ms, then capped at 8ms forever.
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 1, nullptr), 0.001);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 2, nullptr), 0.002);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 3, nullptr), 0.004);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 4, nullptr), 0.008);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 5, nullptr), 0.008);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 100, nullptr), 0.008);
}

TEST(RetryBackoffTest, JitterStaysWithinConfiguredBounds) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.001;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.064;
  policy.jitter_fraction = 0.25;
  core::Rng rng(7);
  for (std::size_t retry = 1; retry <= 12; ++retry) {
    const double base = BackoffSeconds(policy, retry, nullptr);
    const double jittered = BackoffSeconds(policy, retry, &rng);
    EXPECT_GE(jittered, base * 0.75) << "retry " << retry;
    EXPECT_LT(jittered, base * 1.25) << "retry " << retry;
  }
}

TEST(RetryBackoffTest, DeterministicSequenceUnderFixedSeed) {
  RetryPolicy policy;
  policy.jitter_fraction = 0.5;
  std::vector<double> first, second;
  core::Rng rng_a(42), rng_b(42);
  for (std::size_t retry = 1; retry <= 8; ++retry) {
    first.push_back(BackoffSeconds(policy, retry, &rng_a));
    second.push_back(BackoffSeconds(policy, retry, &rng_b));
  }
  EXPECT_EQ(first, second);
  // And a different seed gives a different (jittered) sequence.
  core::Rng rng_c(43);
  bool any_different = false;
  for (std::size_t retry = 1; retry <= 8; ++retry) {
    if (BackoffSeconds(policy, retry, &rng_c) != first[retry - 1]) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(RetryBackoffTest, NeverRetriesPastTheDeadline) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  // 5ms of budget covers a 1ms backoff but not a 50ms one.
  const core::Deadline deadline = core::Deadline::After(0.005);
  EXPECT_TRUE(ShouldRetry(policy, 1, 0.001, deadline));
  EXPECT_FALSE(ShouldRetry(policy, 1, 0.050, deadline));
  // An expired deadline never retries, whatever the backoff.
  EXPECT_FALSE(ShouldRetry(policy, 1, 0.0, core::Deadline::Expired()));
  // An unlimited deadline always has budget; only the attempt cap stops it.
  EXPECT_TRUE(ShouldRetry(policy, 9, 1000.0, core::Deadline()));
  EXPECT_FALSE(ShouldRetry(policy, 10, 0.0, core::Deadline()));
}

TEST(RetryBackoffTest, AttemptCapIsTotalAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 1;  // The first attempt is the only attempt.
  EXPECT_FALSE(ShouldRetry(policy, 1, 0.0, core::Deadline()));
}

class RetryLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = synth::UniformHypercube(600, 8, 21);
    queries_ = synth::UniformHypercube(8, 8, 22);
    index_ = std::make_unique<methods::HnswIndex>(methods::HnswParams{});
    index_->Build(data_);
    params_.k = 5;
    params_.beam_width = 32;
  }

  core::Dataset data_;
  core::Dataset queries_;
  std::unique_ptr<methods::HnswIndex> index_;
  methods::SearchParams params_;
};

TEST_F(RetryLoopTest, RetriesThroughForcedRejectionToSuccess) {
  // Every even admission id rejects: the first attempt (id 0) sheds, the
  // retry (id 1) succeeds.
  FaultPlan plan;
  plan.reject_period = 2;
  FaultInjector faults(plan);
  FrontendOptions options;
  options.threads = 1;
  Frontend frontend(*index_, options, &faults);

  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_seconds = 1e-4;
  core::Rng rng(5);
  std::size_t attempts = 0;
  const methods::SearchResult result =
      SearchWithRetry(frontend, queries_.data(), queries_.dim(), params_,
                      core::Deadline(), policy, &rng, &attempts);
  EXPECT_EQ(attempts, 2u);
  EXPECT_EQ(result.outcome, ServeOutcome::kFull);
  EXPECT_EQ(result.neighbors.size(), params_.k);
  EXPECT_EQ(frontend.metrics().count(ServeCounter::kShed), 1u);
}

TEST_F(RetryLoopTest, ExhaustsAttemptsAgainstAPersistentRejector) {
  FaultPlan plan;
  plan.reject_period = 1;  // Everything rejects.
  FaultInjector faults(plan);
  FrontendOptions options;
  options.threads = 1;
  Frontend frontend(*index_, options, &faults);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 1e-4;
  core::Rng rng(5);
  std::size_t attempts = 0;
  const methods::SearchResult result =
      SearchWithRetry(frontend, queries_.data(), queries_.dim(), params_,
                      core::Deadline(), policy, &rng, &attempts);
  EXPECT_EQ(attempts, 3u);
  EXPECT_EQ(result.outcome, ServeOutcome::kRejected);
  EXPECT_EQ(frontend.metrics().count(ServeCounter::kShed), 3u);
}

TEST_F(RetryLoopTest, GivesUpWhenBackoffWouldCrossTheDeadline) {
  FaultPlan plan;
  plan.reject_period = 1;
  FaultInjector faults(plan);
  FrontendOptions options;
  options.threads = 1;
  options.shed_predicted_late = false;
  Frontend frontend(*index_, options, &faults);

  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff_seconds = 10.0;  // Far beyond the budget.
  policy.max_backoff_seconds = 10.0;      // Keep the cap from shrinking it.
  policy.jitter_fraction = 0.0;
  std::size_t attempts = 0;
  const methods::SearchResult result =
      SearchWithRetry(frontend, queries_.data(), queries_.dim(), params_,
                      core::Deadline::After(0.050), policy, nullptr,
                      &attempts);
  // One attempt, then the 10s backoff cannot fit in 50ms: stop.
  EXPECT_EQ(attempts, 1u);
  EXPECT_EQ(result.outcome, ServeOutcome::kRejected);
}

}  // namespace
}  // namespace gass::serve
