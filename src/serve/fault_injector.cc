#include "serve/fault_injector.h"

#include <chrono>
#include <thread>

namespace gass::serve {

void FaultInjector::OnExecute(std::uint64_t id) {
  {
    std::unique_lock<std::mutex> lock(gate_mutex_);
    ++arrivals_;
    gate_cv_.notify_all();
    gate_cv_.wait(lock, [this] { return gate_open_; });
  }
  const double spike = LatencySpikeSeconds(id);
  if (spike > 0) {
    Count(FaultCounter::kSpikes);
    std::this_thread::sleep_for(std::chrono::duration<double>(spike));
  }
}

void FaultInjector::OnShardSearch(std::uint64_t id, std::uint32_t shard,
                                  std::uint32_t attempt) {
  const double delay = ShardSearchDelaySeconds(id, shard, attempt);
  if (delay > 0) {
    Count(FaultCounter::kShardDelays);
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
}

bool FaultInjector::OnShardReload(std::uint32_t shard) {
  for (std::size_t i = 0; i < plan_.shard_faults.size(); ++i) {
    const ShardFaultPlan& p = plan_.shard_faults[i];
    if (p.shard != shard || p.reload_corrupt_times == 0) continue;
    const std::uint64_t attempt =
        reload_attempts_[i].fetch_add(1, std::memory_order_relaxed);
    if (attempt < p.reload_corrupt_times) {
      Count(FaultCounter::kReloadCorruptions);
      return true;
    }
  }
  return false;
}

void FaultInjector::CloseGate() {
  std::lock_guard<std::mutex> lock(gate_mutex_);
  gate_open_ = false;
}

void FaultInjector::OpenGate() {
  std::lock_guard<std::mutex> lock(gate_mutex_);
  gate_open_ = true;
  gate_cv_.notify_all();
}

void FaultInjector::WaitForArrivals(std::uint64_t n) {
  std::unique_lock<std::mutex> lock(gate_mutex_);
  gate_cv_.wait(lock, [this, n] { return arrivals_ >= n; });
}

}  // namespace gass::serve
