#include "serve/frontend.h"

#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "methods/hnsw_index.h"
#include "serve/fault_injector.h"
#include "synth/generators.h"

namespace gass::serve {
namespace {

using core::Dataset;
using methods::HnswIndex;
using methods::HnswParams;
using methods::SearchParams;
using methods::ServeOutcome;

class FrontendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = synth::UniformHypercube(1200, 10, 11);
    queries_ = synth::UniformHypercube(64, 10, 12);
    index_ = std::make_unique<HnswIndex>(HnswParams{});
    index_->Build(data_);
    params_.k = 10;
    params_.beam_width = 64;
  }

  const float* Query(std::size_t q) const {
    return queries_.data() + q * queries_.dim();
  }

  Dataset data_;
  Dataset queries_;
  std::unique_ptr<HnswIndex> index_;
  SearchParams params_;
};

TEST_F(FrontendTest, UnloadedServerServesFullEffort) {
  FrontendOptions options;
  options.threads = 2;
  // Large enough that a 16-query burst stays below the low watermark
  // (queue_capacity * degrade_low_fraction = 64): no degradation triggers.
  options.queue_capacity = 256;
  Frontend frontend(*index_, options);
  std::vector<Frontend::Ticket> tickets;
  for (std::size_t q = 0; q < 16; ++q) {
    tickets.push_back(frontend.Submit(Query(q), queries_.dim(), params_));
  }
  for (auto& ticket : tickets) {
    const methods::SearchResult result = ticket.get();
    EXPECT_EQ(result.outcome, ServeOutcome::kFull);
    EXPECT_EQ(result.degrade_step, 0u);
    EXPECT_EQ(result.neighbors.size(), params_.k);
    EXPECT_FALSE(result.expired);
  }
  frontend.Drain();
  EXPECT_EQ(frontend.metrics().queries(), 16u);
  EXPECT_EQ(frontend.metrics().count(ServeCounter::kShed), 0u);
  EXPECT_EQ(frontend.metrics().count(ServeCounter::kDegraded), 0u);
}

// The acceptance-criteria test: with the execution gate closed (a
// FaultInjector stand-in for "every worker is stuck on a latency spike"),
// a frontend at queue bound Q sheds exactly the overflow submissions —
// the same query set on every run — and no query both sheds and executes.
TEST_F(FrontendTest, QueueBoundShedsDeterministically) {
  constexpr std::size_t kCapacity = 4;
  constexpr std::size_t kOverflow = 5;
  for (int run = 0; run < 2; ++run) {
    FaultPlan plan;
    plan.gate_execution = true;  // Gate starts closed: the worker wedges.
    FaultInjector faults(plan);
    FrontendOptions options;
    options.threads = 1;
    options.queue_capacity = kCapacity;
    options.max_degrade_step = 2;
    Frontend frontend(*index_, options, &faults);

    // Query 0 is dequeued and parks at the gate; wait until it provably
    // has, so the queue is empty when the fill starts.
    std::vector<Frontend::Ticket> tickets;
    tickets.push_back(frontend.Submit(Query(0), queries_.dim(), params_));
    faults.WaitForArrivals(1);
    ASSERT_EQ(frontend.queue_depth(), 0u);

    // Fill the queue to the bound, then overflow it.
    for (std::size_t q = 1; q <= kCapacity + kOverflow; ++q) {
      tickets.push_back(frontend.Submit(Query(q), queries_.dim(), params_));
    }
    EXPECT_EQ(frontend.queue_depth(), kCapacity);
    EXPECT_EQ(frontend.metrics().queue_depth_high_water(), kCapacity);

    faults.OpenGate();
    frontend.Drain();

    std::set<std::size_t> shed, executed;
    for (std::size_t q = 0; q < tickets.size(); ++q) {
      const methods::SearchResult result = tickets[q].get();
      if (result.outcome == ServeOutcome::kRejected) {
        EXPECT_TRUE(result.neighbors.empty());
        shed.insert(q);
      } else {
        EXPECT_FALSE(result.neighbors.empty());
        executed.insert(q);
      }
    }
    // Exactly the overflow sheds, on every run; shed and executed are
    // disjoint by construction of the one-outcome-per-ticket API, and
    // jointly cover every submission.
    const std::set<std::size_t> expected_shed{5, 6, 7, 8, 9};
    EXPECT_EQ(shed, expected_shed) << "run " << run;
    EXPECT_EQ(shed.size() + executed.size(), tickets.size());
    EXPECT_EQ(frontend.metrics().count(ServeCounter::kShed), kOverflow);
    EXPECT_EQ(frontend.metrics().queries(), 1 + kCapacity);
  }
}

// Degradation mapping is a pure, pinned function of queue depth.
TEST_F(FrontendTest, DegradeStepMappingIsMonotoneAndPinned) {
  FrontendOptions options;
  options.threads = 1;
  options.queue_capacity = 16;
  options.max_degrade_step = 3;
  options.degrade_low_fraction = 0.25;   // <= 4 queued: full effort.
  options.degrade_high_fraction = 0.75;  // >= 12 queued: max step.
  Frontend frontend(*index_, options);

  EXPECT_EQ(frontend.DegradeStepForDepth(0), 0u);
  EXPECT_EQ(frontend.DegradeStepForDepth(4), 0u);
  EXPECT_EQ(frontend.DegradeStepForDepth(5), 1u);
  EXPECT_EQ(frontend.DegradeStepForDepth(7), 1u);
  EXPECT_EQ(frontend.DegradeStepForDepth(8), 2u);
  EXPECT_EQ(frontend.DegradeStepForDepth(11), 2u);
  EXPECT_EQ(frontend.DegradeStepForDepth(12), 3u);
  EXPECT_EQ(frontend.DegradeStepForDepth(16), 3u);
  std::size_t last = 0;
  for (std::size_t depth = 0; depth <= 16; ++depth) {
    const std::size_t step = frontend.DegradeStepForDepth(depth);
    EXPECT_GE(step, last);
    last = step;
  }
}

// With the gate closed and the queue filled to a known depth, the drain
// order (single worker, FIFO) pins each query's degradation step exactly.
TEST_F(FrontendTest, QueuePressureDegradesAndRestores) {
  FaultPlan plan;
  plan.gate_execution = true;
  FaultInjector faults(plan);
  FrontendOptions options;
  options.threads = 1;
  options.queue_capacity = 8;
  options.max_degrade_step = 2;
  options.degrade_low_fraction = 0.25;   // <= 2 queued: full.
  options.degrade_high_fraction = 0.75;  // >= 6 queued: step 2.
  Frontend frontend(*index_, options, &faults);

  std::vector<Frontend::Ticket> tickets;
  tickets.push_back(frontend.Submit(Query(0), queries_.dim(), params_));
  faults.WaitForArrivals(1);
  for (std::size_t q = 1; q <= 8; ++q) {
    tickets.push_back(frontend.Submit(Query(q), queries_.dim(), params_));
  }
  faults.OpenGate();
  frontend.Drain();

  // Query 0 was dequeued with an empty queue behind it -> full effort.
  // Queries 1..8 are dequeued at depths 7, 6, 5, 4, 3, 2, 1, 0.
  const std::uint32_t expected_steps[9] = {0, 2, 2, 1, 1, 1, 0, 0, 0};
  for (std::size_t q = 0; q < tickets.size(); ++q) {
    const methods::SearchResult result = tickets[q].get();
    EXPECT_EQ(result.degrade_step, expected_steps[q]) << "query " << q;
    EXPECT_EQ(result.outcome, expected_steps[q] > 0 ? ServeOutcome::kDegraded
                                                    : ServeOutcome::kFull)
        << "query " << q;
    // Degraded answers are still answers.
    EXPECT_EQ(result.neighbors.size(), params_.k);
  }
  EXPECT_EQ(frontend.metrics().count(ServeCounter::kDegraded), 5u);
  EXPECT_EQ(frontend.metrics().degrade_step_count(0), 4u);
  EXPECT_EQ(frontend.metrics().degrade_step_count(1), 3u);
  EXPECT_EQ(frontend.metrics().degrade_step_count(2), 2u);
}

TEST_F(FrontendTest, PredictedLateQueriesAreShedAtAdmission) {
  FrontendOptions options;
  options.threads = 1;
  options.queue_capacity = 8;
  options.min_service_samples = 4;
  options.shed_safety_factor = 1.0;
  Frontend frontend(*index_, options);

  // Teach the frontend a 10ms p50 with synthetic completions.
  core::SearchStats slow;
  slow.elapsed_seconds = 0.010;
  for (int i = 0; i < 8; ++i) frontend.metrics().RecordQuery(slow);

  // 1ms of budget cannot cover a 10ms median: shed without executing.
  const methods::SearchResult shed =
      frontend
          .Submit(Query(0), queries_.dim(), params_,
                  core::Deadline::After(0.001))
          .get();
  EXPECT_EQ(shed.outcome, ServeOutcome::kRejected);

  // A comfortable budget is admitted and served.
  const methods::SearchResult ok =
      frontend
          .Submit(Query(1), queries_.dim(), params_,
                  core::Deadline::After(10.0))
          .get();
  EXPECT_EQ(ok.outcome, ServeOutcome::kFull);
  // An unlimited deadline is never predicted late.
  const methods::SearchResult unlimited =
      frontend.Submit(Query(2), queries_.dim(), params_).get();
  EXPECT_EQ(unlimited.outcome, ServeOutcome::kFull);
  EXPECT_EQ(frontend.metrics().count(ServeCounter::kShed), 1u);
}

TEST_F(FrontendTest, ForcedRejectionsShedExactlyThePlannedSet) {
  FaultPlan plan;
  plan.reject_period = 3;  // Admission ids 0, 3, 6, ... reject.
  FaultInjector faults(plan);
  FrontendOptions options;
  options.threads = 2;
  options.queue_capacity = 32;
  Frontend frontend(*index_, options, &faults);

  std::vector<Frontend::Ticket> tickets;
  for (std::size_t q = 0; q < 12; ++q) {
    tickets.push_back(frontend.Submit(Query(q), queries_.dim(), params_));
  }
  for (std::size_t q = 0; q < tickets.size(); ++q) {
    const methods::SearchResult result = tickets[q].get();
    EXPECT_EQ(result.outcome == ServeOutcome::kRejected, q % 3 == 0)
        << "query " << q;
  }
  EXPECT_EQ(faults.count(FaultCounter::kRejections), 4u);
  EXPECT_EQ(frontend.metrics().count(ServeCounter::kShed), 4u);
}

TEST_F(FrontendTest, SessionAcquireFailuresShedWorkerSide) {
  FaultPlan plan;
  plan.session_fail_period = 4;  // Ids 0, 4, 8 fail to acquire a session.
  FaultInjector faults(plan);
  FrontendOptions options;
  options.threads = 1;
  options.queue_capacity = 32;
  Frontend frontend(*index_, options, &faults);

  std::vector<Frontend::Ticket> tickets;
  for (std::size_t q = 0; q < 10; ++q) {
    tickets.push_back(frontend.Submit(Query(q), queries_.dim(), params_));
  }
  std::size_t shed = 0;
  for (std::size_t q = 0; q < tickets.size(); ++q) {
    const methods::SearchResult result = tickets[q].get();
    if (q % 4 == 0) {
      EXPECT_EQ(result.outcome, ServeOutcome::kRejected) << "query " << q;
      ++shed;
    } else {
      EXPECT_EQ(result.outcome, ServeOutcome::kFull) << "query " << q;
    }
  }
  EXPECT_EQ(shed, 3u);
  EXPECT_EQ(faults.count(FaultCounter::kSessionFailures), 3u);
  EXPECT_EQ(frontend.metrics().count(ServeCounter::kShed), 3u);
}

TEST_F(FrontendTest, LatencySpikesExpireDeadlinedQueries) {
  FaultPlan plan;
  plan.latency_spike_period = 2;  // Ids 0, 2, 4, ... spike 30ms.
  plan.latency_spike_seconds = 0.030;
  FaultInjector faults(plan);
  FrontendOptions options;
  options.threads = 1;
  options.queue_capacity = 32;
  options.deadline_seconds = 0.010;
  options.shed_predicted_late = false;  // Isolate the expiry path.
  Frontend frontend(*index_, options, &faults);

  std::vector<Frontend::Ticket> tickets;
  for (std::size_t q = 0; q < 6; ++q) {
    tickets.push_back(frontend.Submit(Query(q), queries_.dim(), params_));
    // Serialize: each query's deadline starts at its own submission, so
    // queue wait must not eat the budget of the even, spiked queries.
    tickets.back().wait();
  }
  for (std::size_t q = 0; q < tickets.size(); ++q) {
    const methods::SearchResult result = tickets[q].get();
    if (q % 2 == 0) {
      // The 30ms spike burned the 10ms budget before the search began:
      // deadline-expired, best-so-far answers, never empty.
      EXPECT_EQ(result.outcome, ServeOutcome::kExpired) << "query " << q;
      EXPECT_TRUE(result.expired);
      EXPECT_FALSE(result.neighbors.empty());
    } else {
      EXPECT_EQ(result.outcome, ServeOutcome::kFull) << "query " << q;
    }
  }
  EXPECT_EQ(faults.count(FaultCounter::kSpikes), 3u);
  EXPECT_EQ(frontend.metrics().count(ServeCounter::kExpired), 3u);
}

TEST_F(FrontendTest, DegradedResultsMatchDirectDegradedSearch) {
  // A frontend-degraded query must return exactly what a direct search
  // with the same degrade_step and seed would: degradation is a parameter,
  // not a different code path.
  FaultPlan plan;
  plan.gate_execution = true;
  FaultInjector faults(plan);
  FrontendOptions options;
  options.threads = 1;
  options.queue_capacity = 4;
  options.max_degrade_step = 2;
  options.degrade_low_fraction = 0.0;
  options.degrade_high_fraction = 1.0;
  Frontend frontend(*index_, options, &faults);

  std::vector<Frontend::Ticket> tickets;
  tickets.push_back(frontend.Submit(Query(0), queries_.dim(), params_));
  faults.WaitForArrivals(1);
  for (std::size_t q = 1; q <= 4; ++q) {
    tickets.push_back(frontend.Submit(Query(q), queries_.dim(), params_));
  }
  faults.OpenGate();
  frontend.Drain();

  for (std::size_t q = 1; q <= 4; ++q) {
    const methods::SearchResult served = tickets[q].get();
    methods::SearchContext ctx = index_->MakeSearchContext(0);
    ctx.rng = core::Rng(options.seed ^ (0x9E3779B97F4A7C15ULL * (q + 1)));
    methods::SearchParams direct = params_;
    direct.degrade_step = served.degrade_step;
    const methods::SearchResult expected =
        index_->Search(Query(q), direct, &ctx);
    ASSERT_EQ(served.neighbors.size(), expected.neighbors.size());
    for (std::size_t i = 0; i < served.neighbors.size(); ++i) {
      EXPECT_EQ(served.neighbors[i].id, expected.neighbors[i].id);
      EXPECT_EQ(served.neighbors[i].distance, expected.neighbors[i].distance);
    }
  }
}

TEST_F(FrontendTest, DrainOnIdleFrontendReturnsImmediately) {
  FrontendOptions options;
  options.threads = 1;
  Frontend frontend(*index_, options);
  frontend.Drain();
  EXPECT_EQ(frontend.submitted(), 0u);
}

}  // namespace
}  // namespace gass::serve
