// Per-query tracing: stage spans, steady-clock timers, and a deterministic
// sampler — the observability layer behind serve::SearchRequest::trace.
//
// Design constraints (see docs/OBSERVABILITY.md):
//
//  * Zero heap allocation on the untraced path. A null QueryTrace* is the
//    "tracing off" signal everywhere: StageTimer with a null trace never
//    reads the clock, Tracer::StartTrace for an unsampled query returns
//    nullptr after one SplitMix64 hash (no lock, no allocation), and
//    QueryTrace itself is a fixed-size object — spans live in an inline
//    array, never a growing vector.
//
//  * Deterministic sampling. Whether a query is traced depends only on
//    (sampler seed, admission id): SplitMix64(seed ^ id) % period == 0.
//    Two runs that assign the same admission ids trace the same query set,
//    so per-stage counters (distance computations, hops, prefetches —
//    which are themselves deterministic) compare bit-for-bit run-to-run.
//
//  * Thread-safe span append. One query's trace may receive spans from
//    several threads at once (sharded fan-out workers); AddSpan claims a
//    slot with a CAS and never blocks. Spans past the inline capacity are
//    counted in dropped(), not silently lost.
//
// Stages mirror the serve path: queue wait and session acquire in
// serve::Frontend, then either one opaque search span
// (unsharded index) or route + per-shard search + merge spans (the
// shard::FanOut engine behind both sharded indexes).

#ifndef GASS_OBS_TRACE_H_
#define GASS_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/stats.h"

namespace gass::obs {

/// Serve-path stages a span can cover.
enum class Stage : std::uint8_t {
  kQueue = 0,     ///< Admission-queue wait (submit → worker dequeue).
  kSession,       ///< Session acquire + per-query param/RNG preparation.
  kSearch,        ///< Whole index search (unsharded indexes only).
  kRoute,         ///< Centroid ranking / shard selection (sharded).
  kShardSearch,   ///< One shard's sub-search (one span per probe).
  kMerge,         ///< Per-shard top-k merge into the global result.
  kHedge,         ///< Hedged fan-out window: backup launch → resolution.
  kWalAppend,     ///< Update path: WAL record append + fsync (durability).
  kApply,         ///< Update path: in-memory apply under the update lock.
  kReplicaFailover,  ///< Failed replica attempt retried on a peer replica
                     ///< of the same shard (one span per failover).
};

inline constexpr std::size_t kNumStages = 10;

/// Short lowercase label ("queue", "session", "search", "route",
/// "shard_search", "merge", "hedge", "wal_append", "apply",
/// "replica_failover") — stable: exported in JSON and metric names.
const char* StageName(Stage stage);

/// One timed stage of one query, with the stage's work counters.
struct TraceSpan {
  Stage stage = Stage::kSearch;
  /// Shard probed (kShardSearch spans); -1 elsewhere.
  std::int32_t shard = -1;
  /// Offset from the trace's Begin(), and the span's length, both in
  /// steady-clock nanoseconds.
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  // Work counters attributed to this stage (0 when not applicable).
  std::uint64_t distance_computations = 0;
  std::uint64_t hops = 0;
  std::uint64_t prefetches = 0;
};

/// One sampled query's spans. Fixed-size: no allocation after construction.
///
/// Lifecycle: Begin(id) (stamps the reference clock) → AddSpan from any
/// thread → Finish() (stamps total_ns) → read-only. Readers must not race
/// AddSpan; the serve tier guarantees that by finishing the trace only
/// after the query's result future is fulfilled.
class QueryTrace {
 public:
  /// Enough for queue + session + route + merge plus ~90 shard probes;
  /// deeper fan-outs count overflow spans in dropped().
  static constexpr std::size_t kMaxSpans = 96;

  QueryTrace() = default;
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  /// Re-arms the trace for a new query: clears spans, stamps the
  /// steady-clock origin all span offsets are measured from.
  void Begin(std::uint64_t admission_id);

  /// Nanoseconds since Begin() (steady clock).
  std::uint64_t ElapsedNs() const;

  /// Claims a slot and stores `span`. Lock-free; safe from concurrent
  /// fan-out threads. Over-capacity spans increment dropped().
  void AddSpan(const TraceSpan& span);

  /// Stamps total_ns = ElapsedNs(). Call once, after all AddSpan calls.
  void Finish() { total_ns_ = ElapsedNs(); }

  std::uint64_t admission_id() const { return admission_id_; }
  std::uint64_t total_ns() const { return total_ns_; }
  std::size_t size() const {
    const std::uint32_t n = count_.load(std::memory_order_acquire);
    return n < kMaxSpans ? n : kMaxSpans;
  }
  const TraceSpan& span(std::size_t i) const { return spans_[i]; }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t admission_id_ = 0;
  std::uint64_t total_ns_ = 0;
  std::chrono::steady_clock::time_point start_{};
  std::atomic<std::uint32_t> count_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::array<TraceSpan, kMaxSpans> spans_{};
};

/// RAII stage timer. Null `trace` = no-op: no clock read, no allocation,
/// nothing stored — the untraced fast path compiles down to two pointer
/// checks. Otherwise records one TraceSpan on Stop()/destruction.
class StageTimer {
 public:
  StageTimer(QueryTrace* trace, Stage stage, std::int32_t shard = -1)
      : trace_(trace), stage_(stage), shard_(shard) {
    if (trace_ != nullptr) start_ns_ = trace_->ElapsedNs();
  }
  ~StageTimer() { Stop(); }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Attributes work counters to the span (typically from the stage's
  /// SearchStats delta).
  void SetStats(const core::SearchStats& stats) {
    if (trace_ == nullptr) return;
    dists_ = stats.distance_computations;
    hops_ = stats.hops;
    prefetches_ = stats.prefetches;
  }

  /// Records the span now (idempotent; destructor calls it).
  void Stop() {
    if (trace_ == nullptr) return;
    TraceSpan span;
    span.stage = stage_;
    span.shard = shard_;
    span.start_ns = start_ns_;
    span.duration_ns = trace_->ElapsedNs() - start_ns_;
    span.distance_computations = dists_;
    span.hops = hops_;
    span.prefetches = prefetches_;
    trace_->AddSpan(span);
    trace_ = nullptr;
  }

  /// Discards the pending span without recording it (used by callers that
  /// learn mid-stage that a finer-grained breakdown was already recorded).
  void Cancel() { trace_ = nullptr; }

 private:
  QueryTrace* trace_;
  Stage stage_;
  std::int32_t shard_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t dists_ = 0;
  std::uint64_t hops_ = 0;
  std::uint64_t prefetches_ = 0;
};

struct TracerOptions {
  /// Sampling period: 0 = tracing disabled, 1 = trace every query,
  /// N = trace the deterministic 1-in-N subset of admission ids.
  std::uint64_t sample_period = 0;
  /// Sampler key. The sampled set is a pure function of (seed, id).
  std::uint64_t seed = 0x0B5ED5EEDULL;
  /// Retained-trace cap: slots are preallocated up front, and each slot is
  /// used once — after max_traces sampled queries finish, further sampled
  /// queries fall back to untraced (counted in overflowed()).
  std::size_t max_traces = 256;
};

/// Owns the trace slot pool and the sampling decision.
///
/// Hot path (StartTrace on an unsampled query) is lock-free and
/// allocation-free. Sampled queries take a mutex to pop a preallocated
/// slot — off the common path by construction when sample_period is large,
/// and bounded by max_traces either way.
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(const TracerOptions& options) { Configure(options); }

  /// (Re)configures and preallocates slots. Not safe concurrently with
  /// StartTrace/FinishTrace. Discards previously completed traces.
  void Configure(const TracerOptions& options);

  bool enabled() const { return options_.sample_period > 0; }
  const TracerOptions& options() const { return options_; }

  /// Pure sampling decision for `admission_id` (no state touched).
  bool ShouldSample(std::uint64_t admission_id) const;

  /// Begins a trace for a sampled query; returns nullptr when tracing is
  /// disabled, the id is not sampled, or the slot pool is exhausted.
  QueryTrace* StartTrace(std::uint64_t admission_id);

  /// Finishes `trace` (stamps its total) and retires it to the completed
  /// list. Null is a no-op, so callers can pass their handle untested.
  void FinishTrace(QueryTrace* trace);

  /// Completed traces, in completion order. Valid once tracing threads
  /// have quiesced; pointers live until Configure()/Reset().
  std::vector<const QueryTrace*> Completed() const;

  /// Sampled queries that found no free slot (trace lost to the cap).
  std::uint64_t overflowed() const {
    return overflowed_.load(std::memory_order_relaxed);
  }

  /// Returns all slots to the free list and clears counters. Not safe
  /// concurrently with StartTrace/FinishTrace.
  void Reset();

 private:
  TracerOptions options_;
  std::vector<std::unique_ptr<QueryTrace>> slots_;
  std::vector<QueryTrace*> free_;
  std::vector<QueryTrace*> completed_;
  mutable std::mutex mutex_;
  std::atomic<std::uint64_t> overflowed_{0};
};

}  // namespace gass::obs

#endif  // GASS_OBS_TRACE_H_
