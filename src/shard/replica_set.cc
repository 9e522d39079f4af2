#include "shard/replica_set.h"

#include "io/hash.h"

namespace gass::shard {

namespace {

/// SplitMix64 finalizer: full-avalanche mix for the candidate draws.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Lower is healthier; drives the power-of-two comparison.
int StateRank(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return 0;
    case BreakerState::kHalfOpen:
      return 1;
    case BreakerState::kOpen:
      return 2;
  }
  return 3;
}

}  // namespace

std::uint64_t ReplicaDigest(const methods::GraphIndex& index) {
  // Nothing serializable to compare: every replica reports the same
  // sentinel and the scrubber sees agreement rather than phantom
  // divergence.
  std::vector<std::uint8_t> image;
  if (!methods::SerializeIndex(index, &image).ok()) {
    return 0x5245504C4943ULL;  // "REPLIC"
  }
  return io::Hash64(image.data(), image.size());
}

std::uint64_t MajorityDigest(const std::vector<std::uint64_t>& digests) {
  std::size_t best = 0;
  std::size_t best_count = 0;
  for (std::size_t i = 0; i < digests.size(); ++i) {
    std::size_t count = 0;
    for (std::size_t j = 0; j < digests.size(); ++j) {
      if (digests[j] == digests[i]) ++count;
    }
    // Strict > keeps the earliest replica holding a maximal group, so the
    // verdict is independent of scan order.
    if (count > best_count) {
      best = i;
      best_count = count;
    }
  }
  return digests[best];
}

std::size_t PickReplica(std::uint64_t key, std::size_t s,
                        std::size_t num_replicas,
                        const ShardHealthTable& health) {
  if (num_replicas <= 1) return 0;
  const std::uint64_t mixed =
      Mix64(key ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(s) + 1)));
  const std::size_t a = static_cast<std::size_t>(mixed % num_replicas);
  std::size_t b = static_cast<std::size_t>((mixed >> 32) % num_replicas);
  if (b == a) b = (a + 1) % num_replicas;
  // A freshly rebuilt replica sits open with a forced probe pending; pure
  // health ranking would starve it forever (open ranks last, so it is
  // never routed to while a peer stays healthy). Steering the draw at a
  // probe-pending candidate hands exactly one query to RouteDecision's
  // probe CAS; the grant clears the flag and selection reverts to ranking.
  if (health.probe_pending(s, a)) return a;
  if (health.probe_pending(s, b)) return b;
  const int rank_a = StateRank(health.state(s, a));
  const int rank_b = StateRank(health.state(s, b));
  if (rank_a != rank_b) return rank_a < rank_b ? a : b;
  const std::uint32_t fail_a = health.consecutive_failures(s, a);
  const std::uint32_t fail_b = health.consecutive_failures(s, b);
  if (fail_a != fail_b) return fail_a < fail_b ? a : b;
  return a;
}

}  // namespace gass::shard
