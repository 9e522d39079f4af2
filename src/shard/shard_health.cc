#include "shard/shard_health.h"

#include <cstdio>

namespace gass::shard {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

ShardHealthTable::ShardHealthTable(std::size_t num_shards,
                                   std::size_t num_replicas,
                                   const ShardBreakerOptions& options)
    : options_(options),
      num_shards_(num_shards),
      num_replicas_(num_replicas == 0 ? 1 : num_replicas),
      slots_(std::make_unique<Slot[]>(num_shards_ * num_replicas_)) {}

ShardRoute ShardHealthTable::RouteDecision(std::size_t s, std::size_t r) {
  if (!enabled()) return ShardRoute::kSearch;
  Slot& slot_ref = slot(s, r);
  const BreakerState state = slot_ref.state.load(std::memory_order_acquire);
  if (state == BreakerState::kClosed) return ShardRoute::kSearch;
  if (state == BreakerState::kOpen) {
    bool want_probe = false;
    if (slot_ref.force_probe.load(std::memory_order_relaxed)) {
      bool expected = true;
      want_probe = slot_ref.force_probe.compare_exchange_strong(
          expected, false, std::memory_order_relaxed);
    }
    if (!want_probe) {
      const std::uint64_t period =
          options_.probe_period == 0 ? 1 : options_.probe_period;
      const std::uint64_t tick =
          slot_ref.open_ticks.fetch_add(1, std::memory_order_relaxed) + 1;
      want_probe = tick % period == 0;
    }
    if (want_probe) {
      BreakerState expected = BreakerState::kOpen;
      if (slot_ref.state.compare_exchange_strong(expected,
                                                 BreakerState::kHalfOpen,
                                                 std::memory_order_acq_rel)) {
        probes_.fetch_add(1, std::memory_order_relaxed);
        return ShardRoute::kProbe;
      }
    }
  }
  // Open without a probe grant, or half-open with a probe already in
  // flight: the query routes around the slot.
  skips_.fetch_add(1, std::memory_order_relaxed);
  return ShardRoute::kSkip;
}

bool ShardHealthTable::OnResult(std::size_t s, std::size_t r, bool ok) {
  if (!enabled()) return false;
  Slot& slot_ref = slot(s, r);
  if (ok) {
    slot_ref.consecutive_failures.store(0, std::memory_order_relaxed);
    // A success always closes the breaker: the normal case is a half-open
    // probe passing; the rare case is an in-flight search that outlived a
    // trip and proved the replica healthy after all.
    const BreakerState prev = slot_ref.state.exchange(
        BreakerState::kClosed, std::memory_order_acq_rel);
    if (prev != BreakerState::kClosed) {
      recoveries_.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }
  const BreakerState state = slot_ref.state.load(std::memory_order_acquire);
  if (state == BreakerState::kHalfOpen) {
    // The probe failed: back to open, and the probe countdown restarts so
    // the next probe is a full probe_period away.
    slot_ref.open_ticks.store(0, std::memory_order_relaxed);
    slot_ref.state.store(BreakerState::kOpen, std::memory_order_release);
    return false;
  }
  const std::uint32_t failures =
      slot_ref.consecutive_failures.fetch_add(1, std::memory_order_relaxed) +
      1;
  if (failures >= options_.failure_threshold) {
    BreakerState expected = BreakerState::kClosed;
    if (slot_ref.state.compare_exchange_strong(expected, BreakerState::kOpen,
                                               std::memory_order_acq_rel)) {
      slot_ref.open_ticks.store(0, std::memory_order_relaxed);
      trips_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ShardHealthTable::OnProbeAbandoned(std::size_t s, std::size_t r) {
  BreakerState expected = BreakerState::kHalfOpen;
  slot(s, r).state.compare_exchange_strong(expected, BreakerState::kOpen,
                                           std::memory_order_acq_rel);
}

void ShardHealthTable::OnReloaded(std::size_t s, std::size_t r) {
  Slot& slot_ref = slot(s, r);
  slot_ref.consecutive_failures.store(0, std::memory_order_relaxed);
  slot_ref.generation.fetch_add(1, std::memory_order_relaxed);
  slot_ref.force_probe.store(true, std::memory_order_relaxed);
}

void ShardHealthTable::Quarantine(std::size_t s, std::size_t r) {
  quarantines_.fetch_add(1, std::memory_order_relaxed);
  if (!enabled()) return;
  Slot& slot_ref = slot(s, r);
  const BreakerState prev =
      slot_ref.state.exchange(BreakerState::kOpen, std::memory_order_acq_rel);
  if (prev != BreakerState::kOpen) {
    slot_ref.open_ticks.store(0, std::memory_order_relaxed);
    trips_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::string ShardHealthTable::Summary() const {
  std::size_t closed = 0, open = 0, half_open = 0;
  const std::size_t total = num_shards_ * num_replicas_;
  for (std::size_t i = 0; i < total; ++i) {
    switch (slots_[i].state.load(std::memory_order_acquire)) {
      case BreakerState::kClosed:
        ++closed;
        break;
      case BreakerState::kOpen:
        ++open;
        break;
      case BreakerState::kHalfOpen:
        ++half_open;
        break;
    }
  }
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "breaker: %zu/%zu closed, %zu open, %zu half-open | "
                "trips %llu recoveries %llu probes %llu skips %llu",
                closed, total, open, half_open,
                static_cast<unsigned long long>(trips()),
                static_cast<unsigned long long>(recoveries()),
                static_cast<unsigned long long>(probes_granted()),
                static_cast<unsigned long long>(skips()));
  return std::string(buffer);
}

}  // namespace gass::shard
