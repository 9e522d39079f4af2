#include "core/thread_pool.h"

#include <algorithm>

#include "core/spin_wait.h"

namespace gass::core {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = DefaultThreadCount();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
    work_ready_.store(true, std::memory_order_release);
    if (joined_) return;
    joined_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // A task accepted here is guaranteed to run: workers drain the queue
    // before exiting, and shutdown cannot begin between this push and the
    // notify because shutting_down_ flips under the same mutex.
    if (shutting_down_) return false;
    tasks_.push(std::move(task));
    work_ready_.store(true, std::memory_order_release);
    ++in_flight_;
  }
  task_available_.notify_one();
  return true;
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_exception_ != nullptr) {
    std::exception_ptr pending = first_exception_;
    first_exception_ = nullptr;
    lock.unlock();
    std::rethrow_exception(pending);
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
      SpinThenPark(
          lock, task_available_,
          [this] { return work_ready_.load(std::memory_order_acquire); },
          [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // Only reachable when shutting down.
      task = std::move(tasks_.front());
      tasks_.pop();
      work_ready_.store(shutting_down_ || !tasks_.empty(),
                        std::memory_order_release);
    }
    try {
      task();
    } catch (...) {
      // An exception escaping a worker would std::terminate the process;
      // capture the first one for the next Wait() instead (see the header
      // contract). Later tasks still run.
      std::unique_lock<std::mutex> lock(mutex_);
      if (first_exception_ == nullptr) {
        first_exception_ = std::current_exception();
      }
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

std::size_t DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ParallelFor(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  if (threads == 0) threads = DefaultThreadCount();
  threads = std::min(threads, count);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(0, i);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(threads);
  std::mutex exception_mutex;
  std::exception_ptr first_exception;
  const std::size_t chunk = (count + threads - 1) / threads;
  for (std::size_t w = 0; w < threads; ++w) {
    const std::size_t begin = w * chunk;
    const std::size_t end = std::min(begin + chunk, count);
    if (begin >= end) break;
    workers.emplace_back(
        [w, begin, end, &fn, &exception_mutex, &first_exception] {
          try {
            for (std::size_t i = begin; i < end; ++i) fn(w, i);
          } catch (...) {
            std::unique_lock<std::mutex> lock(exception_mutex);
            if (first_exception == nullptr) {
              first_exception = std::current_exception();
            }
          }
        });
  }
  for (auto& worker : workers) worker.join();
  if (first_exception != nullptr) std::rethrow_exception(first_exception);
}

}  // namespace gass::core
