#include "shard/fan_out.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/distance.h"
#include "core/macros.h"
#include "core/spin_wait.h"
#include "core/stats.h"
#include "obs/trace.h"
#include "serve/fault_injector.h"
#include "shard/replica_set.h"
#include "shard/shard_set.h"

namespace gass::shard {

namespace {

/// Golden-ratio odd multiplier (same mix constant as core::Rng).
constexpr std::uint64_t kSeedMix = 0x9E3779B97F4A7C15ULL;

/// The calling thread's sub-search context, grown to the largest `size` it
/// has been asked for. One per thread rather than one shared freelist: the
/// VisitedTable's stamps stay in the cache of the core that wrote them
/// instead of moving with each probe, and it is epoch-stamped, so one table
/// serves any smaller shard (of any engine) without clearing.
methods::SearchContext& ThreadContext(std::size_t size) {
  thread_local std::optional<methods::SearchContext> ctx;
  if (!ctx.has_value() || ctx->visited.size() < size) {
    ctx.emplace(size, /*seed=*/0);
  }
  return *ctx;
}

}  // namespace

/// One attempt at a slot: 0 = primary, 1 = hedged backup.
struct FanOut::Attempt {
  methods::SearchResult result;
  /// Seconds since State::timer: start, length, and each failover.
  double start = 0.0;
  double duration = 0.0;
  std::vector<double> failover_at;
  bool ok = false;
  /// The deadline had expired before the attempt started; nothing ran.
  bool skipped = false;
  /// Taken by the one thread that runs the attempt (see RunAttempt).
  std::atomic<bool> claimed{false};
};

/// One selected shard: its routed replica and up to two racing attempts.
struct FanOut::Slot {
  std::uint32_t shard = 0;
  std::uint32_t replica = 0;
  bool probe_granted = false;
  Attempt attempts[2];
  /// Attempt that resolved the slot (-1 = outstanding); the release CAS
  /// publishes that attempt's fields to the coordinator.
  std::atomic<int> winner{-1};
};

/// Heap-shared state of one query, kept alive by every attempt in flight:
/// a straggler abandoned at the deadline finishes against it after the
/// caller's frame (query, deadline, params) is gone.
struct FanOut::State {
  std::vector<float> query;
  core::Deadline deadline;
  methods::SearchParams params;  // No trace; deadline = &deadline.
  std::uint64_t query_seed = 0;
  serve::FaultInjector* faults = nullptr;
  std::vector<Slot> slots;
  core::Timer timer;

  std::mutex mutex;
  std::condition_variable cv;
  /// Written under mutex; atomic so the coordinator can spin on it.
  std::atomic<std::size_t> unresolved{0};
};

FanOut::FanOut(const ShardSet& shards, const ShardBreakerOptions& breaker,
               std::size_t threads, Stragglers stragglers)
    : shards_(shards),
      num_shards_(shards.num_shards()),
      num_replicas_(shards.num_replicas()),
      max_shard_size_(shards.MaxRows()),
      stragglers_(stragglers),
      health_(std::make_unique<ShardHealthTable>(num_shards_, num_replicas_,
                                                 breaker)),
      probe_counts_(  // Value-initialized: every counter starts at 0.
          std::make_unique<std::atomic<std::uint64_t>[]>(num_shards_)) {
  SetThreads(threads);
}

void FanOut::SetThreads(std::size_t threads) {
  pool_.reset();  // Joins the old pool's stragglers.
  if (threads > 0) pool_ = std::make_unique<core::ThreadPool>(threads);
}

void FanOut::SetBreakerOptions(const ShardBreakerOptions& breaker) {
  // Stragglers report to the table being replaced: drain them first.
  if (pool_ != nullptr) SetThreads(pool_->thread_count());
  health_ = std::make_unique<ShardHealthTable>(num_shards_, num_replicas_,
                                               breaker);
}

methods::SearchResult FanOut::Search(const float* query, std::size_t nprobe,
                                     const methods::SearchParams& params,
                                     core::Rng* rng, double hedge_fraction,
                                     serve::FaultInjector* faults) const {
  GASS_CHECK_MSG(stragglers_ == Stragglers::kAbandon || hedge_fraction <= 0.0,
                 "a draining fan-out does not hedge");
  // Sub-searches read the caller's tombstones: an abandoned straggler
  // would go on reading them after the query returned.
  GASS_CHECK_MSG(
      stragglers_ == Stragglers::kDrain || params.tombstones == nullptr,
      "only a draining fan-out filters tombstones");
  core::Timer timer;
  obs::QueryTrace* trace = params.trace;
  const core::Dataset& centroids = shards_.centroids();
  const std::size_t dim = centroids.dim();

  // --- Route ---
  obs::StageTimer route_timer(trace, obs::Stage::kRoute);
  auto state = std::make_shared<State>();
  std::vector<std::pair<float, std::uint32_t>> ranked(num_shards_);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    const auto id = static_cast<core::VectorId>(s);
    ranked[s] = {core::L2Sq(query, centroids.Row(id), dim), id};
  }
  std::sort(ranked.begin(), ranked.end());
  // One draw per query, fanned into per-probe streams by selection
  // position. Drawn before selection because it also keys replica choice;
  // routing itself consumes no RNG.
  state->query_seed = rng->Next();
  state->slots = std::vector<Slot>(std::min(nprobe, num_shards_));
  std::size_t n = 0;
  std::size_t empty = 0;
  std::size_t breaker_skips = 0;
  for (std::size_t i = 0; i < num_shards_ && n + empty < nprobe; ++i) {
    const std::uint32_t s = ranked[i].second;
    if (shards_.ids(s).empty()) {
      ++empty;
      continue;
    }
    const std::size_t start =
        PickReplica(state->query_seed, s, num_replicas_, *health_);
    ShardRoute route = ShardRoute::kSkip;
    std::uint32_t r = 0;
    for (std::size_t hop = 0;
         hop < num_replicas_ && route == ShardRoute::kSkip; ++hop) {
      r = static_cast<std::uint32_t>((start + hop) % num_replicas_);
      route = health_->RouteDecision(s, r);
    }
    if (route == ShardRoute::kSkip) {
      ++breaker_skips;
      continue;
    }
    Slot& slot = state->slots[n++];
    slot.shard = s;
    slot.replica = r;
    slot.probe_granted = route == ShardRoute::kProbe;
  }
  core::SearchStats route_stats;
  route_stats.distance_computations = num_shards_;  // One per centroid.
  route_timer.SetStats(route_stats);
  route_timer.Stop();

  // --- Execute ---
  state->query.assign(query, query + dim);
  if (params.deadline != nullptr) state->deadline = *params.deadline;
  // Sub-searches report through one shard_search span per probe, so the
  // trace stays out of them. Each filters the tombstones itself, through
  // its shard's id table (see RunAttempt), so it fills k live answers as
  // an unsharded search would.
  state->params = params;
  state->params.trace = nullptr;
  state->params.deadline =
      params.deadline != nullptr ? &state->deadline : nullptr;
  state->faults = faults;
  state->unresolved = n;
  const bool hedge = hedge_fraction > 0.0 && pool_ != nullptr &&
                     !state->deadline.unlimited() && n > 0;
  const std::uint64_t fanout_begin_ns =
      trace != nullptr ? trace->ElapsedNs() : 0;
  state->timer.Reset();
  // With no backup to launch, the caller searches the nearest shard itself;
  // the pooled probes go out first so they overlap it.
  const bool caller_probes = !hedge && pool_ != nullptr && n > 0;
  for (std::size_t idx = caller_probes ? 1 : 0; idx < n; ++idx) {
    Launch(state, idx, 0);
  }
  if (caller_probes) RunAttempt(*state, 0, 0);
  if (caller_probes && stragglers_ == Stragglers::kDrain) {
    // Having to wait for every probe anyway, a draining coordinator runs
    // any the pool has not taken up yet instead of waiting for a thread
    // to free up (behind another query's probe) or to wake.
    for (std::size_t idx = 1; idx < n; ++idx) RunAttempt(*state, idx, 0);
  }

  std::size_t hedges = 0;
  std::uint64_t hedge_begin_ns = 0;
  bool hedge_fired = false;
  {
    using Clock = std::chrono::steady_clock;
    const auto resolved = [&] {
      return state->unresolved.load(std::memory_order_acquire) == 0;
    };
    // No hedging is an infinite backup delay: the hedge wait never happens.
    const Clock::time_point wait_begin = Clock::now();
    const double remaining = state->deadline.RemainingSeconds();
    const double delay = hedge ? hedge_fraction * std::max(0.0, remaining)
                               : std::numeric_limits<double>::infinity();
    // Spin-then-park: spin for the budget first, but never past the hedge
    // delay or the deadline, so neither fires late.
    const double spin = std::min(
        {std::chrono::duration<double>(core::SpinBudget()).count(), delay,
         remaining});
    const auto after = [&](double seconds) {
      return wait_begin + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    };
    std::unique_lock<std::mutex> lock(state->mutex, std::defer_lock);
    core::SpinThenLock(lock, resolved, after(std::max(0.0, spin)));
    if (hedge) {
      hedge_fired = !state->cv.wait_until(lock, after(delay), resolved);
    }
    if (hedge_fired) {
      lock.unlock();
      hedge_begin_ns = trace != nullptr ? trace->ElapsedNs() : 0;
      for (std::size_t idx = 0; idx < n; ++idx) {
        if (state->slots[idx].winner.load(std::memory_order_acquire) != -1) {
          continue;
        }
        // A backup the deadline already killed would only be skipped:
        // never launch or count it, so hedge_wins <= shards_hedged holds.
        if (state->deadline.IsExpired()) break;
        ++hedges;
        Launch(state, idx, 1);
      }
      lock.lock();
    }
    // kAbandon: the coordinator stops waiting at the deadline; abandoned
    // stragglers finish against `state` and count as deadline misses.
    // kDrain: it waits for every attempt, all of which are running or done
    // by now (it ran the unclaimed ones itself). A running one polls the
    // deadline every few hops, so the wait outlasts the deadline by at
    // most a few hops.
    while (!resolved()) {
      if (state->deadline.unlimited() || stragglers_ == Stragglers::kDrain) {
        state->cv.wait(lock, resolved);
        break;
      }
      const double remaining = state->deadline.RemainingSeconds();
      if (remaining <= 0.0) break;
      state->cv.wait_for(lock, std::chrono::duration<double>(remaining),
                         resolved);
    }
  }
  if (hedge_fired && trace != nullptr) {
    trace->AddSpan({.stage = obs::Stage::kHedge,
                    .start_ns = hedge_begin_ns,
                    .duration_ns = trace->ElapsedNs() - hedge_begin_ns});
  }

  // --- Merge ---
  obs::StageTimer merge_timer(trace, obs::Stage::kMerge);
  methods::SearchResult merged;
  merged.degrade_step = params.degrade_step;
  std::size_t probed = 0;
  std::size_t failed = 0;
  std::size_t missed = 0;
  bool sub_expired = false;
  const auto offset_ns = [&](double seconds) {
    return fanout_begin_ns + static_cast<std::uint64_t>(seconds * 1e9);
  };
  for (std::size_t idx = 0; idx < n; ++idx) {
    const Slot& slot = state->slots[idx];
    const auto shard = static_cast<std::int32_t>(slot.shard);
    const int w = slot.winner.load(std::memory_order_acquire);
    // Abandoned at the deadline, or never started: a deadline miss.
    if (w < 0 || slot.attempts[w].skipped) {
      ++missed;
      continue;
    }
    const Attempt& att = slot.attempts[w];
    merged.stats.replica_failovers += att.failover_at.size();
    if (trace != nullptr) {
      for (const double at : att.failover_at) {
        trace->AddSpan({.stage = obs::Stage::kReplicaFailover,
                        .shard = shard,
                        .start_ns = offset_ns(at)});
      }
    }
    // A failed shard costs the query that shard's contribution, never the
    // query: it becomes per-shard status (already fed to the breakers).
    if (!att.ok) {
      ++failed;
      continue;
    }
    ++probed;
    if (w == 1) ++merged.stats.hedge_wins;
    const core::SearchStats& sub = att.result.stats;
    merged.stats.distance_computations += sub.distance_computations;
    merged.stats.hops += sub.hops;
    merged.stats.prefetches += sub.prefetches;
    if (sub.deadline_expiries > 0) sub_expired = true;
    if (trace != nullptr) {
      trace->AddSpan(
          {.stage = obs::Stage::kShardSearch,
           .shard = shard,
           .start_ns = offset_ns(att.start),
           .duration_ns = static_cast<std::uint64_t>(att.duration * 1e9),
           .distance_computations = sub.distance_computations,
           .hops = sub.hops,
           .prefetches = sub.prefetches});
    }
    const std::vector<core::VectorId>& global = shards_.ids(slot.shard);
    for (const core::Neighbor& nb : att.result.neighbors) {
      merged.neighbors.emplace_back(global[nb.id], nb.distance);
    }
  }
  // One completed probe passes through in its own order. Several merge by
  // Neighbor's (distance, id) order: cross-shard ties resolve to the lower
  // global id, independent of completion order.
  if (probed > 1) {
    std::sort(merged.neighbors.begin(), merged.neighbors.end());
    if (merged.neighbors.size() > params.k) merged.neighbors.resize(params.k);
  }
  // The per-query state is fan-out work too: its allocation is timed as
  // part of route, and its release (whose result buffers the pool threads
  // allocated) as part of merge.
  state.reset();
  merge_timer.Stop();

  merged.stats.distance_computations += num_shards_;  // Centroid ranking.
  merged.stats.shards_probed = probed;
  merged.stats.shards_failed = failed + breaker_skips;
  merged.stats.shards_hedged = hedges;
  // `expired` is deadline-caused (a truncated sub-search, a probe that
  // never ran, an abandoned straggler); `partial` is fault-caused (a
  // failed sub-search, or every replica of a wanted shard breaker-skipped).
  merged.expired = sub_expired || missed > 0;
  merged.partial = failed + breaker_skips > 0;
  merged.stats.deadline_expiries = merged.expired ? 1 : 0;
  merged.stats.elapsed_seconds = timer.Seconds();
  return merged;
}

void FanOut::Launch(const std::shared_ptr<State>& state, std::size_t idx,
                    int attempt) const {
  if (pool_ == nullptr || !pool_->Submit([this, state, idx, attempt] {
        RunAttempt(*state, idx, attempt);
      })) {
    RunAttempt(*state, idx, attempt);
  }
}

void FanOut::RunAttempt(State& state, std::size_t idx, int attempt) const {
  Slot& slot = state.slots[idx];
  Attempt& att = slot.attempts[attempt];
  // An attempt runs once: a pooled one the coordinator already ran is a
  // no-op when its pool thread takes it up, and vice versa.
  if (att.claimed.exchange(true)) return;
  const std::uint32_t s = slot.shard;
  att.start = state.timer.Seconds();
  if (state.deadline.IsExpired()) {
    att.skipped = true;
    // A granted half-open probe that never ran goes back to open, with no
    // failure counted against the replica.
    if (attempt == 0 && slot.probe_granted) {
      health_->OnProbeAbandoned(s, slot.replica);
    }
  } else {
    std::vector<bool> tried(num_replicas_, false);
    std::uint32_t r = slot.replica;
    if (attempt == 1) {
      // The backup races the next routable replica (when R > 1 and one
      // routes), not the one the primary may be struggling on.
      const std::uint32_t peer = NextRoutable(s, r, &tried);
      if (peer < num_replicas_) r = peer;
    }
    // Failover walk: every hop reports its outcome to its own replica's
    // breaker; a failure retries the next routable replica under the same
    // deadline. Replicas are bit-identical and every hop reseeds from the
    // slot's stream, so failover changes availability, never answers.
    const std::uint64_t seed = state.query_seed ^ (kSeedMix * (idx + 1));
    const std::uint64_t id = state.params.admission_id;
    methods::SearchParams params = state.params;
    params.global_ids = shards_.ids(s).data();
    for (;;) {
      tried[r] = true;
      if (state.faults != nullptr) {
        state.faults->OnShardSearch(id, s, static_cast<std::uint32_t>(attempt));
      }
      try {
        if (state.faults != nullptr &&
            state.faults->ShouldFailShardSearch(
                id, s, static_cast<std::int32_t>(r))) {
          state.faults->Count(serve::FaultCounter::kShardFailures);
          // Thrown, so injected failures take a real failure's path.
          throw std::runtime_error("injected shard fault");
        }
        methods::SearchContext& ctx = ThreadContext(max_shard_size_);
        ctx.rng = core::Rng(seed);
        att.result =
            shards_.replicas(s).Search(r, state.query.data(), params, &ctx);
        att.ok = true;
      } catch (...) {
        att.ok = false;
      }
      probe_counts_[s].fetch_add(1, std::memory_order_relaxed);
      health_->OnResult(s, r, att.ok);
      if (att.ok || state.deadline.IsExpired()) break;
      r = NextRoutable(s, r, &tried);
      if (r == num_replicas_) break;  // Every replica failed or skips.
      att.failover_at.push_back(state.timer.Seconds());
    }
  }
  att.duration = state.timer.Seconds() - att.start;
  int expected = -1;
  if (!slot.winner.compare_exchange_strong(expected, attempt,
                                           std::memory_order_acq_rel)) {
    return;  // The other attempt resolved the slot (same seed, same answer).
  }
  std::lock_guard<std::mutex> lock(state.mutex);
  state.unresolved.fetch_sub(1, std::memory_order_release);
  state.cv.notify_all();
}

std::uint32_t FanOut::NextRoutable(std::uint32_t s, std::uint32_t from,
                                   std::vector<bool>* tried) const {
  for (std::size_t step = 1; step < num_replicas_; ++step) {
    const auto cand = static_cast<std::uint32_t>((from + step) % num_replicas_);
    if ((*tried)[cand]) continue;
    if (health_->RouteDecision(s, cand) != ShardRoute::kSkip) return cand;
    // Its breaker said no: asking again within this probe would only grant
    // spurious probes.
    (*tried)[cand] = true;
  }
  return static_cast<std::uint32_t>(num_replicas_);
}

}  // namespace gass::shard
