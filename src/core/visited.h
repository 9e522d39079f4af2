// Epoch-stamped visited-set, reusable across searches without clearing.

#ifndef GASS_CORE_VISITED_H_
#define GASS_CORE_VISITED_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/types.h"

namespace gass::core {

/// Tracks which vertices a traversal has touched.
///
/// Instead of clearing an n-bit array per query, each search bumps an epoch;
/// a vertex is "visited" when its stamp equals the current epoch. Reset is
/// O(1) amortized (a full clear happens only on epoch wrap, every ~2^32
/// searches — long-running serving processes do reach it).
///
/// Not thread-safe: concurrent searches use one table per thread (see
/// methods::SearchContext).
class VisitedTable {
 public:
  explicit VisitedTable(std::size_t n) : stamps_(n, 0), epoch_(1) {}

  /// Begins a new traversal; all vertices become unvisited.
  void NewEpoch() {
    if (epoch_ == kMaxEpoch) {
      // Wrapped: stale stamps from the previous cycle would alias the new
      // epoch values, so clear everything and restart. Stamp 0 is reserved
      // as "never visited", epoch 0 is never current.
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
      return;
    }
    ++epoch_;
  }

  bool Visited(VectorId id) const { return stamps_[id] == epoch_; }

  void MarkVisited(VectorId id) { stamps_[id] = epoch_; }

  /// Marks visited; returns true if this was the first visit this epoch.
  /// Branch-free (the stamp is written either way), so gather loops can
  /// write every id and advance only on a first visit.
  bool TryVisit(VectorId id) { return TryVisit(id, epoch_); }

  /// TryVisit under an `epoch` the caller read once from epoch(). A stamp
  /// store may alias epoch_, so the one-argument form reloads it per id;
  /// a loop over many ids passes it in instead.
  bool TryVisit(VectorId id, std::uint32_t epoch) {
    const bool first = stamps_[id] != epoch;
    stamps_[id] = epoch;
    return first;
  }

  std::size_t size() const { return stamps_.size(); }

  std::uint32_t epoch() const { return epoch_; }

  /// Jumps the counter to just below the wrap point so tests can exercise
  /// the overflow reset without 2^32 NewEpoch() calls. Existing stamps are
  /// left untouched (they become stale, exactly as after that many real
  /// epochs with no visits).
  void JumpToEpochForTesting(std::uint32_t epoch) { epoch_ = epoch; }

  static constexpr std::uint32_t kMaxEpoch = 0xFFFFFFFFu;

 private:
  std::vector<std::uint32_t> stamps_;
  std::uint32_t epoch_;
};

}  // namespace gass::core

#endif  // GASS_CORE_VISITED_H_
