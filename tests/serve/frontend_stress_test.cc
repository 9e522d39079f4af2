// Long-running overload stress for serve::Frontend (ctest label: stress).
//
// Eight submitter threads drive a small frontend far past its queue bound
// while a FaultInjector adds latency spikes, forced rejections, and
// session-acquire failures. The invariant under test: every submission
// resolves exactly once, as full-effort, degraded, expired, or shed — and
// the aggregate accounting closes: accepted + shed + expired == submitted.
// Run under the tsan/asan presets (which enable GASS_STRESS_TESTS) to turn
// "the accounting closes" into "the accounting closes with no data races".

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "methods/hnsw_index.h"
#include "serve/fault_injector.h"
#include "serve/frontend.h"
#include "serve/retry.h"
#include "synth/generators.h"

namespace gass::serve {
namespace {

using methods::ServeOutcome;

struct OutcomeCounts {
  std::atomic<std::uint64_t> full{0};
  std::atomic<std::uint64_t> degraded{0};
  std::atomic<std::uint64_t> expired{0};
  std::atomic<std::uint64_t> rejected{0};

  void Count(ServeOutcome outcome) {
    switch (outcome) {
      case ServeOutcome::kFull: full.fetch_add(1); break;
      case ServeOutcome::kDegraded: degraded.fetch_add(1); break;
      case ServeOutcome::kExpired: expired.fetch_add(1); break;
      case ServeOutcome::kRejected: rejected.fetch_add(1); break;
    }
  }
  std::uint64_t Total() const {
    return full.load() + degraded.load() + expired.load() + rejected.load();
  }
};

class FrontendStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = synth::UniformHypercube(2000, 12, 31);
    queries_ = synth::UniformHypercube(64, 12, 32);
    index_ = std::make_unique<methods::HnswIndex>(methods::HnswParams{});
    index_->Build(data_);
    params_.k = 10;
    params_.beam_width = 64;
  }

  core::Dataset data_;
  core::Dataset queries_;
  std::unique_ptr<methods::HnswIndex> index_;
  methods::SearchParams params_;
};

TEST_F(FrontendStressTest, EightThreadsPastQueueBoundAccountingCloses) {
  constexpr std::size_t kSubmitters = 8;
  constexpr std::size_t kPerThread = 400;

  FaultPlan plan;
  plan.latency_spike_period = 97;  // Occasional 2ms stalls.
  plan.latency_spike_seconds = 0.002;
  plan.reject_period = 113;
  plan.session_fail_period = 131;
  FaultInjector faults(plan);

  FrontendOptions options;
  options.threads = 2;         // Few workers...
  options.queue_capacity = 16; // ...tiny queue: overload is guaranteed.
  options.deadline_seconds = 0.005;
  options.max_degrade_step = 3;
  options.min_service_samples = 16;
  Frontend frontend(*index_, options, &faults);

  OutcomeCounts counts;
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t q = (t * kPerThread + i) % queries_.size();
        counts.Count(frontend
                         .Submit(queries_.data() + q * queries_.dim(),
                                 queries_.dim(), params_)
                         .get()
                         .outcome);
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  frontend.Drain();

  const std::uint64_t submitted = kSubmitters * kPerThread;
  EXPECT_EQ(frontend.submitted(), submitted);
  // Every submission resolved exactly once.
  EXPECT_EQ(counts.Total(), submitted);
  // The frontend's own books agree with the client-side tally...
  const ServeMetrics& metrics = frontend.metrics();
  EXPECT_EQ(metrics.count(ServeCounter::kShed), counts.rejected.load());
  EXPECT_EQ(metrics.count(ServeCounter::kExpired), counts.expired.load());
  EXPECT_EQ(metrics.count(ServeCounter::kDegraded), counts.degraded.load());
  EXPECT_EQ(metrics.queries(), counts.full.load() + counts.degraded.load() +
                                   counts.expired.load());
  // ...and the headline invariant closes: accepted + shed + expired ==
  // submitted, so no query was dropped silently or counted twice.
  const std::uint64_t accepted = counts.full.load() + counts.degraded.load();
  EXPECT_EQ(accepted + counts.rejected.load() + counts.expired.load(),
            submitted);
  // Degrade-step occupancy covers exactly the executed queries.
  std::uint64_t occupancy = 0;
  for (std::size_t s = 0; s < ServeMetrics::kMaxDegradeSteps; ++s) {
    occupancy += frontend.metrics().degrade_step_count(s);
  }
  EXPECT_EQ(occupancy, frontend.metrics().queries());
  // The queue respected its bound.
  EXPECT_LE(frontend.metrics().queue_depth_high_water(),
            options.queue_capacity);
  // The injected faults actually fired.
  EXPECT_GT(faults.count(FaultCounter::kRejections), 0u);
  EXPECT_GT(faults.count(FaultCounter::kSessionFailures), 0u);
  EXPECT_GT(faults.count(FaultCounter::kSpikes), 0u);
}

TEST_F(FrontendStressTest, RetryLoopUnderOverloadStillCloses) {
  constexpr std::size_t kSubmitters = 8;
  constexpr std::size_t kPerThread = 100;

  FrontendOptions options;
  options.threads = 2;
  options.queue_capacity = 8;
  options.deadline_seconds = 0.020;
  Frontend frontend(*index_, options);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 1e-4;
  policy.max_backoff_seconds = 1e-3;

  std::atomic<std::uint64_t> answered{0}, gave_up{0};
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      core::Rng rng(1000 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t q = (t * kPerThread + i) % queries_.size();
        const methods::SearchResult result = SearchWithRetry(
            frontend, queries_.data() + q * queries_.dim(), queries_.dim(),
            params_, core::Deadline::After(options.deadline_seconds), policy,
            &rng);
        if (result.outcome == ServeOutcome::kRejected) {
          gave_up.fetch_add(1);
        } else {
          answered.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  frontend.Drain();

  EXPECT_EQ(answered.load() + gave_up.load(), kSubmitters * kPerThread);
  // Retries mean total submissions >= client requests; the frontend's
  // executed + shed books must still cover every submission.
  EXPECT_EQ(frontend.metrics().queries() +
                frontend.metrics().count(ServeCounter::kShed),
            frontend.submitted());
  EXPECT_GT(answered.load(), 0u);
}

}  // namespace
}  // namespace gass::serve
