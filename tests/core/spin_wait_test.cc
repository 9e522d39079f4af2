#include "core/spin_wait.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "core/thread_pool.h"
#include "methods/hnsw_index.h"
#include "serve/frontend.h"
#include "synth/generators.h"

namespace gass::core {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::nanoseconds;
using Clock = std::chrono::steady_clock;

/// A flag guarded by a mutex, with the lock-free mirror the spin reads:
/// the protocol every spin-then-park site follows.
struct Flag {
  std::mutex mutex;
  std::condition_variable cv;
  bool set = false;  // Guarded by mutex.
  std::atomic<bool> mirror{false};

  void Set() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      set = true;
      mirror.store(true, std::memory_order_release);
    }
    cv.notify_all();
  }

  /// Waits for the flag; returns whether the waiter parked.
  bool Wait(nanoseconds budget, int* ready_calls = nullptr) {
    std::unique_lock<std::mutex> lock(mutex, std::defer_lock);
    return SpinThenPark(
        lock, cv,
        [&] {
          if (ready_calls != nullptr) ++*ready_calls;
          return mirror.load(std::memory_order_acquire);
        },
        [&] { return set; }, budget);
  }
};

TEST(SpinWaitTest, BudgetIsConstantOrZeroOnOneCore) {
  const nanoseconds expected = std::thread::hardware_concurrency() <= 1
                                   ? nanoseconds(0)
                                   : nanoseconds(kSpinBudget);
  EXPECT_EQ(SpinBudget(), expected);
}

TEST(SpinWaitTest, PredicateAlreadyTrueReturnsWithoutParking) {
  Flag flag;
  flag.Set();
  EXPECT_FALSE(flag.Wait(SpinBudget()));
}

TEST(SpinWaitTest, PredicateTurningTrueDuringSpinReturnsWithoutParking) {
  // A budget far longer than the setter's delay: the spin must see the
  // mirror flip and return before it would ever park.
  Flag flag;
  std::thread setter([&flag] {
    std::this_thread::sleep_for(milliseconds(2));
    flag.Set();
  });
  EXPECT_FALSE(flag.Wait(std::chrono::seconds(30)));
  setter.join();
}

TEST(SpinWaitTest, PastTheBudgetParksAndIsWokenByNotify) {
  Flag flag;
  std::thread setter([&flag] {
    std::this_thread::sleep_for(milliseconds(20));
    flag.Set();
  });
  const Clock::time_point begin = Clock::now();
  EXPECT_TRUE(flag.Wait(microseconds(50)));
  EXPECT_GE(Clock::now() - begin, milliseconds(20));
  setter.join();
}

TEST(SpinWaitTest, ZeroBudgetParksAtOnce) {
  // The one-core path: the mirror is never polled.
  Flag flag;
  int ready_calls = 0;
  std::thread setter([&flag] {
    std::this_thread::sleep_for(milliseconds(5));
    flag.Set();
  });
  EXPECT_TRUE(flag.Wait(nanoseconds(0), &ready_calls));
  EXPECT_EQ(ready_calls, 0);
  setter.join();
}

TEST(SpinWaitTest, SpinUntilPastDeadlineNeverCallsReady) {
  int calls = 0;
  EXPECT_FALSE(SpinUntil([&calls] { return ++calls > 0; },
                         Clock::now() - milliseconds(1)));
  EXPECT_EQ(calls, 0);
}

/// Two threads hand a turn back and forth `rounds` times through one
/// spin-then-park wait each; a lost wake-up would hang the test. Returns
/// how many of the waits parked.
std::uint64_t PingPong(std::uint64_t rounds, nanoseconds budget) {
  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t turn = 0;  // Guarded by mutex; even = ping, odd = pong.
  std::atomic<std::uint64_t> turn_mirror{0};
  std::atomic<std::uint64_t> parks{0};
  const auto player = [&](std::uint64_t parity) {
    for (std::uint64_t i = parity; i < 2 * rounds; i += 2) {
      std::unique_lock<std::mutex> lock(mutex, std::defer_lock);
      const bool parked = SpinThenPark(
          lock, cv,
          [&] { return turn_mirror.load(std::memory_order_acquire) == i; },
          [&] { return turn == i; }, budget);
      if (parked) parks.fetch_add(1, std::memory_order_relaxed);
      ++turn;
      turn_mirror.store(turn, std::memory_order_release);
      lock.unlock();
      cv.notify_one();
    }
  };
  std::thread pong(player, 1);
  player(0);
  pong.join();
  EXPECT_EQ(turn, 2 * rounds);
  return parks.load();
}

TEST(SpinWaitTest, PingPongLosesNoWakeUpWhenParking) {
  // Zero budget: nearly every hand-off goes through the park path.
  EXPECT_GT(PingPong(100000, nanoseconds(0)), 0u);
}

TEST(SpinWaitTest, PingPongLosesNoWakeUpWithShortSpin) {
  // A budget near one hand-off's length mixes spun and parked waits.
  PingPong(100000, microseconds(2));
}

TEST(SpinWaitTest, PingPongLosesNoWakeUpWithDefaultBudget) {
  PingPong(100000, SpinBudget());
}

TEST(SpinWaitTest, IdleThreadPoolWithSpinningWorkersShutsDownPromptly) {
  for (int round = 0; round < 20; ++round) {
    auto pool = std::make_unique<ThreadPool>(3);
    std::atomic<int> ran{0};
    for (int t = 0; t < 3; ++t) {
      ASSERT_TRUE(pool->Submit([&ran] { ran.fetch_add(1); }));
    }
    pool->Wait();
    // The workers that just ran a task are now mid-spin.
    const Clock::time_point begin = Clock::now();
    pool.reset();
    EXPECT_LT(Clock::now() - begin, std::chrono::seconds(2));
    EXPECT_EQ(ran.load(), 3);
  }
}

TEST(SpinWaitTest, IdleFrontendWithSpinningWorkersShutsDownPromptly) {
  const Dataset data = synth::UniformHypercube(500, 8, 3);
  methods::HnswIndex index(methods::HnswParams{});
  index.Build(data);
  methods::SearchParams params;
  params.k = 5;
  params.beam_width = 16;
  for (int round = 0; round < 20; ++round) {
    serve::FrontendOptions options;
    options.threads = 3;
    auto frontend = std::make_unique<serve::Frontend>(index, options);
    for (std::size_t q = 0; q < 3; ++q) {
      const methods::SearchResult result =
          frontend->Search(data.Row(static_cast<VectorId>(q)), data.dim(),
                           params);
      EXPECT_EQ(result.neighbors.size(), params.k);
    }
    const Clock::time_point begin = Clock::now();
    frontend.reset();
    EXPECT_LT(Clock::now() - begin, std::chrono::seconds(2));
  }
}

}  // namespace
}  // namespace gass::core
