// Tombstone set for logically deleted vectors.
//
// Graph indexes cannot cheaply unlink a node: removing it would tear the
// navigable small-world structure the paper's methods depend on (and HNSW's
// layer entry points may route through it). Deletes are therefore logical —
// the node stays in the graph as a waypoint but its id is recorded here and
// filtered out of search *results* at core::BeamSearch emission, the one
// place tombstones are applied: a sharded sub-search looks its shard-local
// ids up through the shard's id table (SearchParams::global_ids). The node
// is physically dropped at the next full rebuild.
//
// Externally synchronized: serve::Updater mutates it under its exclusive
// update lock while searches read it under the shared lock.

#ifndef GASS_CORE_TOMBSTONES_H_
#define GASS_CORE_TOMBSTONES_H_

#include <cstdint>
#include <vector>

#include "core/types.h"

namespace gass::core {

/// Dense bitset over vector ids [0, capacity).
class TombstoneSet {
 public:
  TombstoneSet() = default;
  explicit TombstoneSet(std::size_t capacity) { Resize(capacity); }

  /// Grows the id space (never shrinks; new ids start live).
  void Resize(std::size_t capacity) {
    if (capacity > capacity_) {
      bits_.resize((capacity + 63) / 64, 0);
      capacity_ = capacity;
    }
  }

  /// Marks `id` deleted. Returns false when it already was.
  bool Insert(VectorId id) {
    Resize(static_cast<std::size_t>(id) + 1);
    std::uint64_t& word = bits_[id >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++count_;
    return true;
  }

  /// Whether `id` is deleted. Ids beyond capacity are live — the hot path
  /// in beam-search emission, kept branch-light.
  bool Contains(VectorId id) const {
    return static_cast<std::size_t>(id) < capacity_ &&
           (bits_[id >> 6] & (std::uint64_t{1} << (id & 63))) != 0;
  }

  bool empty() const { return count_ == 0; }
  std::size_t count() const { return count_; }
  std::size_t capacity() const { return capacity_; }

  /// Deleted ids in ascending order (checkpoint serialization).
  std::vector<std::uint64_t> ToVector() const {
    std::vector<std::uint64_t> ids;
    ids.reserve(count_);
    for (std::size_t id = 0; id < capacity_; ++id) {
      if ((bits_[id >> 6] & (std::uint64_t{1} << (id & 63))) != 0) {
        ids.push_back(id);
      }
    }
    return ids;
  }

  void Clear() {
    bits_.assign(bits_.size(), 0);
    count_ = 0;
  }

 private:
  std::vector<std::uint64_t> bits_;
  std::size_t capacity_ = 0;
  std::size_t count_ = 0;
};

}  // namespace gass::core

#endif  // GASS_CORE_TOMBSTONES_H_
