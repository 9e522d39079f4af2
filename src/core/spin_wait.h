// Spin-then-park waiting for short thread hand-offs on the query path.
//
// A condition-variable wait costs a futex sleep on one side and a futex
// wake plus a scheduler round trip on the other: a few microseconds each
// time. A sharded query hands off four times (client -> frontend worker ->
// fan-out workers -> coordinator -> client), and its sub-searches take
// only tens of microseconds, so those wake-ups are a large share of its
// latency. A waiter that expects its predicate to turn true soon first
// spins on a lock-free mirror of the predicate, with a CPU pause hint, for
// at most kSpinBudget; only then does it take the mutex and park on the
// condition variable exactly as before.
//
// Protocol for a spin-then-park site:
//   * the waker changes the guarded state and the atomic mirror together,
//     under the mutex, and notifies as before;
//   * the waiter spins on the mirror outside the lock, then always locks
//     and re-checks the real predicate before returning or parking.
// The mirror is only a hint: a stale read costs one more spin iteration or
// one park, never a lost wake-up, because the park path is unchanged.
//
// On a machine with one hardware thread a spinner only delays the thread
// it waits for, so SpinBudget() is zero there and every wait parks at once.

#ifndef GASS_CORE_SPIN_WAIT_H_
#define GASS_CORE_SPIN_WAIT_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace gass::core {

/// How long a waiter spins before it parks. Long enough to cover one
/// short sub-search (tens of microseconds) with room to spare. A longer
/// budget keeps idle waiters on a core longer: on a 4-core host 250 us
/// helped where whole queries outlast 100 us, but slowed a live index
/// whose idle second frontend worker then spun beside the busy threads.
inline constexpr std::chrono::microseconds kSpinBudget{100};

/// The spin budget on this machine: kSpinBudget, or zero when it has a
/// single hardware thread.
inline std::chrono::nanoseconds SpinBudget() {
  static const std::chrono::nanoseconds budget =
      std::thread::hardware_concurrency() <= 1 ? std::chrono::nanoseconds(0)
                                               : kSpinBudget;
  return budget;
}

/// Tells the CPU this is a spin-wait loop (x86 `pause`, ARM `yield`).
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__) || defined(__arm__)
  __asm__ __volatile__("yield");
#endif
}

/// Spins until `ready()` returns true or `until` passes, whichever comes
/// first; returns whether `ready()` held. An `until` already in the past
/// returns false without calling `ready()`. `ready` must be cheap and must
/// not take the lock it mirrors.
template <typename Ready>
bool SpinUntil(const Ready& ready,
               std::chrono::steady_clock::time_point until) {
  while (std::chrono::steady_clock::now() < until) {
    if (ready()) return true;
    CpuRelax();
  }
  return false;
}

/// Spins until `ready()` holds and `lock`'s mutex can be taken without
/// sleeping, or until `until` passes; then owns `lock` either way (taking
/// it blocking after a spin that ran out). `lock` must be deferred
/// (unlocked). The try-lock matters: the waker flips the mirror under the
/// mutex and may still hold it when the spinner sees the flip, and a plain
/// lock() would then sleep on the mutex instead.
template <typename Ready>
void SpinThenLock(std::unique_lock<std::mutex>& lock, const Ready& ready,
                  std::chrono::steady_clock::time_point until) {
  if (!SpinUntil([&] { return ready() && lock.try_lock(); }, until)) {
    lock.lock();
  }
}

/// Spin-then-park wait on `cv`: spins for `budget` on `ready` (the
/// lock-free mirror of `pred`), then waits on `cv` until `pred` holds.
/// `lock` must be deferred (unlocked) and is returned locked. Returns true
/// when the waiter had to park, false when `pred` held once it had the
/// lock.
template <typename Ready, typename Pred>
bool SpinThenPark(std::unique_lock<std::mutex>& lock,
                  std::condition_variable& cv, const Ready& ready, Pred pred,
                  std::chrono::nanoseconds budget = SpinBudget()) {
  SpinThenLock(lock, ready, std::chrono::steady_clock::now() + budget);
  if (pred()) return false;
  cv.wait(lock, pred);
  return true;
}

}  // namespace gass::core

#endif  // GASS_CORE_SPIN_WAIT_H_
