// Per-query time budgets for serving.
//
// A Deadline is a fixed point on the steady clock; search loops poll it at a
// coarse granularity (every few dozen hops) and return their best-so-far
// answers when it passes, so an expiring query degrades to a partial result
// instead of blocking the serving thread.

#ifndef GASS_CORE_DEADLINE_H_
#define GASS_CORE_DEADLINE_H_

#include <chrono>
#include <limits>

namespace gass::core {

/// A point in time after which a search should stop and return what it has.
///
/// Default-constructed deadlines never expire, so callers can thread one
/// through unconditionally. Copyable and immutable; safe to share across
/// threads.
class Deadline {
 public:
  /// Never expires.
  Deadline() : at_(Clock::time_point::max()) {}

  /// Expires `seconds` from now. Non-positive budgets expire immediately.
  static Deadline After(double seconds) {
    return Deadline(Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds)));
  }

  /// An already-expired deadline (for tests and load-shedding).
  static Deadline Expired() { return Deadline(Clock::time_point::min()); }

  bool unlimited() const { return at_ == Clock::time_point::max(); }

  bool IsExpired() const {
    return !unlimited() && Clock::now() >= at_;
  }

  /// Seconds until expiry (negative when past; +inf when unlimited, -inf
  /// for Expired()).
  double RemainingSeconds() const {
    if (unlimited()) return std::numeric_limits<double>::infinity();
    // time_point::min() - now would overflow the int64 tick count and wrap
    // positive, making an Expired() deadline look like infinite budget.
    if (at_ == Clock::time_point::min()) {
      return -std::numeric_limits<double>::infinity();
    }
    return std::chrono::duration<double>(at_ - Clock::now()).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  explicit Deadline(Clock::time_point at) : at_(at) {}
  Clock::time_point at_;
};

}  // namespace gass::core

#endif  // GASS_CORE_DEADLINE_H_
