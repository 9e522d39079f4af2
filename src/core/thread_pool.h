// Minimal work-stealing-free thread pool with a ParallelFor convenience.
//
// The surveyed methods all build multithreaded indexes; builders in this
// library use ParallelFor over node ranges, and the serving layer
// (shard::FanOut) dispatches work through Submit.
// ParallelFor with one thread (or one item) runs inline with no thread
// overhead. ThreadPool always hands a submitted task to one of its
// workers, on any number of cores; an idle worker waits spin-then-park
// (core/spin_wait.h): it spins for up to kSpinBudget after its last task
// so the next one starts without a futex wake-up, then sleeps on a
// condition variable. On a single-core machine it parks at once.

#ifndef GASS_CORE_THREAD_POOL_H_
#define GASS_CORE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gass::core {

/// Fixed-size thread pool executing submitted closures FIFO.
///
/// Lifecycle contract: the pool accepts tasks from construction until
/// Shutdown() begins (the destructor calls Shutdown()). Tasks already
/// queued when Shutdown() starts are drained and run to completion;
/// Submit() during or after shutdown returns false and the task is
/// dropped, never enqueued into a dying pool. Submit/Wait may be called
/// from any thread; tasks must not themselves block on the pool.
///
/// Exception contract: a throwing task does NOT take the process down (the
/// historical behavior — an exception escaping a worker thread is
/// std::terminate). The worker catches it, the remaining tasks still run,
/// and the *first* captured exception is rethrown to the caller of the
/// next Wait(). Parallel shard builds (shard::ShardedIndex) rely on this:
/// one shard's std::bad_alloc surfaces in the coordinating thread as an
/// ordinary exception instead of aborting the server. Exceptions still
/// pending when Shutdown() runs without a Wait() are dropped.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task; returns false (dropping the task) once shutdown has
  /// begun. A true return guarantees the task will run.
  [[nodiscard]] bool Submit(std::function<void()> task);

  /// Blocks until every accepted task has completed, then rethrows the
  /// first exception any task threw since the last Wait() (clearing it).
  void Wait();

  /// Stops accepting tasks, drains the queue, and joins the workers.
  /// Idempotent; called by the destructor.
  void Shutdown();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  /// Lock-free mirror of the workers' wait predicate (shutting down or a
  /// task queued), written under mutex_ for their spin phase.
  std::atomic<bool> work_ready_{false};
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  std::exception_ptr first_exception_;  // Guarded by mutex_.
  bool shutting_down_ = false;
  bool joined_ = false;
};

/// Runs fn(worker_index, i) for i in [0, count), split into contiguous
/// chunks across `threads` workers (0 = hardware concurrency; 1 = inline).
///
/// `worker_index` is in [0, threads) and is stable within a chunk, letting
/// callers keep per-worker scratch (DistanceComputer, VisitedTable) without
/// locking.
///
/// An exception thrown by `fn` ends that worker's chunk (other chunks run
/// to completion) and the first one captured is rethrown on the calling
/// thread after the join — same contract as ThreadPool::Wait().
void ParallelFor(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t, std::size_t)>& fn);

/// Number of workers ParallelFor(count, 0, ...) would use.
std::size_t DefaultThreadCount();

}  // namespace gass::core

#endif  // GASS_CORE_THREAD_POOL_H_
