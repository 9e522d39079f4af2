// Neighbor record and the two sorted candidate buffers built from it.
//
// The paper harmonizes all methods onto "a single linear buffer as a priority
// queue" (Section 4.1). BeamPool is that buffer for beam search: the frontier
// of width L, kept as parallel sorted distance and id arrays with each
// candidate's explored flag in its id. CandidatePool is the plain bounded
// top-k buffer used wherever nothing is expanded (brute force, evaluation,
// k-NN graph construction, trees).

#ifndef GASS_CORE_NEIGHBOR_H_
#define GASS_CORE_NEIGHBOR_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "core/macros.h"
#include "core/types.h"

namespace gass::core {

/// A candidate neighbor: vector id plus its (squared) distance to the query.
struct Neighbor {
  VectorId id = kInvalidVectorId;
  float distance = 0.0f;

  Neighbor() = default;
  Neighbor(VectorId id_in, float distance_in)
      : id(id_in), distance(distance_in) {}

  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  }
  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.id == b.id && a.distance == b.distance;
  }
};

/// Sorted fixed-capacity top-k buffer (ascending distance) of (id, distance)
/// pairs: the best `capacity` candidates offered so far. It has no notion of
/// exploration; beam search's frontier is BeamPool.
///
/// Insert is O(L) via memmove — for the sizes used in practice (L ≤ a few
/// thousand) this beats heap-based queues on real hardware, which is exactly
/// why the surveyed implementations use it.
class CandidatePool {
 public:
  explicit CandidatePool(std::size_t capacity) : capacity_(capacity) {
    GASS_CHECK(capacity > 0);
    pool_.reserve(capacity + 1);
  }

  std::size_t size() const { return pool_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return pool_.empty(); }
  bool full() const { return pool_.size() == capacity_; }

  const Neighbor& operator[](std::size_t i) const { return pool_[i]; }
  Neighbor& operator[](std::size_t i) { return pool_[i]; }

  /// Distance of the current worst (last) candidate; +inf when not full.
  /// Once full, an external prune bound (SetPruneBound) caps the value —
  /// it behaves like pre-inserted "virtual answers" at the bound distance,
  /// the mechanism by which a search warmed by earlier answers (ELPIS's
  /// cross-leaf best-so-far) tightens its pruning. The bound deliberately
  /// does not apply while the pool is filling: early far-away candidates
  /// are kept as routing anchors, exactly as real warm queue entries would
  /// allow.
  float WorstDistance() const {
    if (!full()) return kInfinity;
    return pool_.back().distance < bound_ ? pool_.back().distance : bound_;
  }

  /// Installs an upper bound on acceptable candidate distances (effective
  /// once the pool is full).
  void SetPruneBound(float bound) { bound_ = bound; }

  /// Inserts a candidate, keeping the buffer sorted and capped.
  ///
  /// Returns the insertion position, or capacity() if the candidate was
  /// rejected (worse than the current worst of a full pool). Duplicate ids
  /// at equal distance are rejected.
  std::size_t Insert(Neighbor candidate) {
    if (full() && candidate.distance >= WorstDistance()) {
      return capacity_;
    }
    // Binary search for the insertion point.
    std::size_t lo = 0, hi = pool_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (pool_[mid].distance < candidate.distance) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    // Reject exact duplicates (same id within the equal-distance run, which
    // starts at `lo` since lo is the first entry not closer than candidate).
    for (std::size_t probe = lo;
         probe < pool_.size() && pool_[probe].distance == candidate.distance;
         ++probe) {
      if (pool_[probe].id == candidate.id) return capacity_;
    }
    pool_.insert(pool_.begin() + static_cast<std::ptrdiff_t>(lo), candidate);
    if (pool_.size() > capacity_) pool_.pop_back();
    return lo;
  }

  /// Copies out the best `k` candidates (fewer if the pool is smaller).
  std::vector<Neighbor> TopK(std::size_t k) const {
    const std::size_t count = k < pool_.size() ? k : pool_.size();
    return std::vector<Neighbor>(pool_.begin(),
                                 pool_.begin() + static_cast<std::ptrdiff_t>(count));
  }

  const std::vector<Neighbor>& contents() const { return pool_; }

  void Clear() { pool_.clear(); }

 private:
  static constexpr float kInfinity = 3.402823466e38f;

  std::size_t capacity_;
  float bound_ = kInfinity;
  std::vector<Neighbor> pool_;
};

/// Beam search's frontier: Algorithm 1's sorted candidate pool of width L,
/// stored as a structure of arrays — ascending distances beside their ids,
/// with each candidate's explored flag in the top bit of its id.
///
/// The layout keeps every step of the loop short:
/// - the insert position is a branch-free count of closer distances over the
///   distance array alone, which the compiler vectorises;
/// - an insert shifts 8 bytes per displaced candidate (one memmove per
///   array);
/// - a cursor stays on the closest unexplored candidate, so the next
///   expansion is found (and can be prefetched) without rescanning the
///   pool.
///
/// Ordering and admission match CandidatePool exactly, so traversal is
/// bit-identical to a record-array frontier: a candidate goes before every
/// entry at an equal distance, an equal-distance entry with the same id is
/// rejected, and the prune bound applies only once the pool is full.
class BeamPool {
 public:
  /// Largest id range whose ids leave the explored bit free.
  static constexpr std::size_t kMaxIdRange = std::size_t{1} << 31;

  /// Ids inserted must lie below `id_range` (the vertex count of the
  /// searched graph), which may not exceed kMaxIdRange.
  BeamPool(std::size_t capacity, std::size_t id_range)
      : capacity_(capacity),
        distances_(std::make_unique_for_overwrite<float[]>(capacity)),
        ids_(std::make_unique_for_overwrite<VectorId[]>(capacity)) {
    GASS_CHECK(capacity > 0);
    GASS_CHECK_MSG(id_range <= kMaxIdRange,
                   "id range %zu leaves no bit for the explored flag",
                   id_range);
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool full() const { return size_ == capacity_; }

  float distance(std::size_t i) const {
    GASS_DCHECK(i < size_);
    return distances_[i];
  }
  VectorId id(std::size_t i) const {
    GASS_DCHECK(i < size_);
    return ids_[i] & ~kExploredBit;
  }
  bool explored(std::size_t i) const {
    GASS_DCHECK(i < size_);
    return (ids_[i] & kExploredBit) != 0;
  }

  /// Same contract as CandidatePool::WorstDistance: +inf while filling,
  /// then min(last distance, prune bound).
  float WorstDistance() const {
    if (!full()) return kInfinity;
    const float back = distances_[size_ - 1];
    return back < bound_ ? back : bound_;
  }

  void SetPruneBound(float bound) { bound_ = bound; }

  /// Number of candidates strictly closer than `dist` — the lower-bound
  /// insert position, counted without branches. The 32-bit counter keeps
  /// the vectorised count at the full lane width.
  std::size_t Rank(float dist) const {
    std::uint32_t closer = 0;
    for (std::size_t i = 0; i < size_; ++i) closer += distances_[i] < dist;
    return closer;
  }

  /// Inserts an unexplored candidate, keeping the pool sorted and capped.
  /// Returns its position, or capacity() if it was rejected (not better
  /// than the worst of a full pool, or a duplicate id at equal distance).
  std::size_t Insert(VectorId vertex, float dist) {
    GASS_DCHECK((vertex & kExploredBit) == 0);
    if (full() && dist >= WorstDistance()) return capacity_;
    const std::size_t pos = Rank(dist);
    for (std::size_t p = pos; p < size_ && distances_[p] == dist; ++p) {
      if (id(p) == vertex) return capacity_;
    }
    // Shift the tail right by one; a full pool drops its last candidate,
    // which is never at `pos` because the candidate beat it.
    const std::size_t kept = full() ? capacity_ - 1 : size_;
    GASS_DCHECK(pos <= kept);
    std::memmove(distances_.get() + pos + 1, distances_.get() + pos,
                 (kept - pos) * sizeof(float));
    std::memmove(ids_.get() + pos + 1, ids_.get() + pos,
                 (kept - pos) * sizeof(VectorId));
    distances_[pos] = dist;
    ids_[pos] = vertex;
    size_ = kept + 1;
    if (pos < cursor_) cursor_ = pos;
    return pos;
  }

  /// True while some candidate is unexplored.
  bool HasUnexplored() const { return cursor_ < size_; }

  /// Id of the closest unexplored candidate: the next ExploreNext() unless
  /// a closer candidate is inserted first.
  VectorId PeekNext() const {
    GASS_DCHECK(HasUnexplored());
    return ids_[cursor_];
  }

  /// Marks the closest unexplored candidate explored and returns its id.
  VectorId ExploreNext() {
    GASS_DCHECK(HasUnexplored());
    const VectorId v = ids_[cursor_];
    ids_[cursor_] = v | kExploredBit;
    do {
      ++cursor_;
    } while (cursor_ < size_ && (ids_[cursor_] & kExploredBit) != 0);
    return v;
  }

  /// Copies out the best `k` candidates (fewer if the pool is smaller).
  std::vector<Neighbor> TopK(std::size_t k) const {
    const std::size_t count = k < size_ ? k : size_;
    std::vector<Neighbor> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      out.emplace_back(id(i), distances_[i]);
    }
    return out;
  }

 private:
  static constexpr float kInfinity = 3.402823466e38f;
  static constexpr VectorId kExploredBit = VectorId{1} << 31;

  std::size_t capacity_;
  std::size_t size_ = 0;
  // Index of the closest unexplored candidate (size_ when there is none):
  // every candidate before it is explored.
  std::size_t cursor_ = 0;
  float bound_ = kInfinity;
  std::unique_ptr<float[]> distances_;
  std::unique_ptr<VectorId[]> ids_;
};

}  // namespace gass::core

#endif  // GASS_CORE_NEIGHBOR_H_
