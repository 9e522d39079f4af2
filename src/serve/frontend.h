// The serving frontend: the one path that turns a SearchRequest into a
// SearchResponse. It owns the worker threads, a SearchSessionPool and the
// trace sampler; it reseeds each query's RNG from (seed, admission id), so
// an answer never depends on which worker ran it or how many there are,
// and it owns each query's deadline.
//
// It faces an *open-loop* world, where clients do not wait for the
// previous answer before sending the next query, and degrades gracefully
// instead of collapsing:
//
//   * Bounded admission queue — work beyond `queue_capacity` is rejected
//     immediately (shed), so queue delay is bounded and memory cannot grow
//     without limit.
//   * Deadline-aware load shedding — a query whose remaining budget cannot
//     cover the observed p50 service time is shed up front (at admission
//     and again at dequeue, where queue wait may have consumed the budget)
//     rather than executed to certain expiry.
//   * Adaptive degradation — as the queue fills, the effective beam width
//     shrinks in discrete steps (SearchParams::degrade_step, each step
//     halves the beam, never below k), restoring automatically as pressure
//     drains. Cheaper answers for everyone beats no answers for most.
//
// Every query's disposition is explicit in its SearchResult::outcome —
// kFull / kDegraded / kExpired / kRejected — and aggregated in ServeMetrics
// (shed/degraded counts, per-step occupancy, queue high-water mark). See
// docs/SERVING.md for how to read them and pick settings.
//
// A closed-loop batch (the CLI's thread sweep, the tests) is the same
// frontend with a queue that holds every query in flight and shedding and
// degradation off: each query then runs at full effort and its answer
// depends only on (seed, admission id).

#ifndef GASS_SERVE_FRONTEND_H_
#define GASS_SERVE_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/deadline.h"
#include "methods/graph_index.h"
#include "obs/trace.h"
#include "serve/fault_injector.h"
#include "serve/metrics.h"
#include "serve/request.h"
#include "serve/search_session.h"
#include "serve/updater.h"

namespace gass::serve {

struct FrontendOptions {
  /// Worker threads; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Admission-queue bound (clamped to >= 1). Submissions beyond it shed.
  std::size_t queue_capacity = 64;
  /// Default per-query budget applied at admission; <= 0 = unlimited.
  /// The Submit overload taking a Deadline overrides it per query.
  double deadline_seconds = 0.0;
  /// Shed queries predicted to miss their deadline: remaining budget <
  /// shed_safety_factor * observed p50 service time. Needs at least
  /// min_service_samples completed queries before it activates (a cold
  /// server has no p50 to predict with).
  bool shed_predicted_late = true;
  double shed_safety_factor = 1.0;
  std::size_t min_service_samples = 32;
  /// Deepest degradation step (0 disables degradation). Step s halves the
  /// effective beam width s times (never below k).
  std::size_t max_degrade_step = 3;
  /// Queue-fill fractions mapping depth to degradation step: at or below
  /// `low` fill the frontend serves full effort, at or above `high` it
  /// serves max_degrade_step, with evenly spaced discrete steps between
  /// (see DegradeStepForDepth).
  double degrade_low_fraction = 0.25;
  double degrade_high_fraction = 0.75;
  /// Base seed for per-query RNG reseeding: a query's answer depends only
  /// on (seed, admission id).
  std::uint64_t seed = 0xF207E7DULL;
  /// Trace sampling (obs::TracerOptions::sample_period 0 = off). Sampled
  /// queries get per-stage spans recorded into the frontend's tracer and
  /// fed into the per-stage latency histograms; the sampled set is a pure
  /// function of (trace.seed, admission id).
  obs::TracerOptions trace;
};

/// Open-loop serving frontend over one shared, built index.
///
/// Thread-safe: Submit may be called from any number of client threads.
/// The queried vectors must stay alive until the returned ticket resolves.
/// The index must support concurrent search and outlive the frontend.
///
/// Destruction drains the queue (accepted queries still run) and joins the
/// workers; a closed FaultInjector gate must be opened first or the
/// destructor will wait on it forever.
class Frontend {
 public:
  /// Resolves to the query's SearchResponse (a methods::SearchResult plus
  /// admission id and trace); outcome tells full / degraded / expired /
  /// rejected apart. Rejected tickets resolve immediately.
  using Ticket = std::future<SearchResponse>;

  /// An update-resolving ticket: ok status = acknowledged (the WAL record
  /// is durable per the updater's fsync policy).
  using UpdateTicket = std::future<UpdateResult>;

  Frontend(const methods::GraphIndex& index, const FrontendOptions& options,
           FaultInjector* faults = nullptr);

  /// Live-serving mode: searches run over updater.index() under the
  /// updater's search lock (shared side) with its tombstones filtered, and
  /// SubmitInsert / SubmitDelete are admitted through the same bounded
  /// queue as queries. The updater (and its LiveIndex) must outlive the
  /// frontend; its counters are bound to this frontend's ServeMetrics
  /// unless UpdaterOptions::metrics pinned another sink.
  Frontend(Updater& updater, const FrontendOptions& options,
           FaultInjector* faults = nullptr);
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Admission of one SearchRequest — the primary entry point. The
  /// request's deadline is honored when has_deadline is set, otherwise the
  /// default budget (options.deadline_seconds) applies; any caller-set
  /// params.deadline is ignored — the frontend owns deadlines (they must
  /// survive the queue wait, so they cannot point into the caller's
  /// stack). An auto admission id is resolved to the submission counter.
  Ticket Submit(const SearchRequest& request);

  /// Forwarding overload: admission with the default deadline.
  Ticket Submit(const float* query, std::size_t dim,
                const methods::SearchParams& params);

  /// Forwarding overload: admission with an explicit per-query deadline.
  Ticket Submit(const float* query, std::size_t dim,
                const methods::SearchParams& params,
                const core::Deadline& deadline);

  /// Blocking convenience: Submit + wait. The wait spins for up to
  /// core::kSpinBudget on the ticket before it blocks (core/spin_wait.h),
  /// so a short query's answer is picked up without a futex wake-up.
  SearchResponse Search(const SearchRequest& request);
  methods::SearchResult Search(const float* query, std::size_t dim,
                               const methods::SearchParams& params);

  /// Admits one insert (updater mode only). The vector is copied at
  /// admission, so the caller's buffer may be reused immediately. Updates
  /// respect the queue bound (full queue = rejected ticket) but are never
  /// shed by deadline prediction — durability work is not droppable for
  /// latency. Workers funnel them into the updater, whose own mutex
  /// serializes the log-then-apply protocol.
  UpdateTicket SubmitInsert(const float* vec, std::size_t dim);

  /// Admits one delete (updater mode only); same admission rules.
  UpdateTicket SubmitDelete(core::VectorId id);

  /// Blocks until every admitted query has resolved and the queue is empty.
  void Drain();

  /// The degradation step a query dequeued at `depth` runs with: 0 at or
  /// below the low watermark, max_degrade_step at or above the high one,
  /// evenly spaced discrete steps between. Pure function of (options,
  /// depth) — exposed so tests and benches can pin the mapping.
  std::size_t DegradeStepForDepth(std::size_t depth) const;

  const ServeMetrics& metrics() const { return metrics_; }
  ServeMetrics& metrics() { return metrics_; }

  /// The frontend's trace sampler (configured from options.trace).
  /// Completed traces accumulate here until tracer().Reset().
  const obs::Tracer& tracer() const { return tracer_; }
  obs::Tracer& tracer() { return tracer_; }

  /// Queries currently waiting for a worker (excludes in-service).
  std::size_t queue_depth() const;
  /// Total queries ever submitted (accepted or shed).
  std::uint64_t submitted() const {
    return submitted_.load(std::memory_order_relaxed);
  }
  std::size_t thread_count() const { return workers_.size(); }
  const FrontendOptions& options() const { return options_; }

  /// The updater behind SubmitInsert/SubmitDelete (null in search-only
  /// mode).
  Updater* updater() { return updater_; }

 private:
  enum class TaskKind : std::uint8_t { kSearch, kInsert, kDelete };

  struct Task {
    TaskKind kind = TaskKind::kSearch;
    const float* query = nullptr;
    std::size_t dim = 0;
    methods::SearchParams params;
    core::Deadline deadline;
    std::uint64_t id = 0;
    /// Trace sink for this query (null = untraced); owned_trace marks a
    /// tracer slot that must be retired via FinishTrace.
    obs::QueryTrace* trace = nullptr;
    bool owned_trace = false;
    /// A search's ticket; set only on search tasks. A promise allocates
    /// its shared state when built, so each task builds only its own.
    std::optional<std::promise<SearchResponse>> promise;
    /// Update-task payload: the copied vector (inserts) or target id
    /// (deletes), resolved through update_promise (set only on update
    /// tasks) instead of promise.
    std::vector<float> update_vector;
    core::VectorId delete_id = core::kInvalidVectorId;
    std::optional<std::promise<UpdateResult>> update_promise;
  };

  Frontend(const methods::GraphIndex& index, const FrontendOptions& options,
           FaultInjector* faults, Updater* updater);

  void WorkerLoop();
  /// Executes one update task against the updater and resolves its ticket.
  void ServeUpdate(Task* task);
  /// Admits one update task (shared tail of SubmitInsert/SubmitDelete).
  UpdateTicket SubmitUpdate(Task task);
  /// Fulfills a ticket as shed (kRejected) and records the metrics.
  void Reject(Task* task);
  /// Finishes the task's trace (if any): stamps the total, feeds the
  /// per-stage histograms, retires tracer-owned slots, and points the
  /// response at the trace.
  void FinishTaskTrace(Task* task, SearchResponse* response);
  /// True when the remaining budget cannot cover the observed p50 service
  /// time (and prediction is active).
  bool PredictedLate(const core::Deadline& deadline) const;

  const methods::GraphIndex& index_;
  FrontendOptions options_;
  FaultInjector* faults_;        // Not owned; null = no injection.
  Updater* updater_ = nullptr;   // Not owned; null = search-only mode.
  SearchSessionPool sessions_;
  ServeMetrics metrics_;
  obs::Tracer tracer_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // Queue non-empty or stopping.
  std::condition_variable drain_cv_;  // Queue empty and nothing in service.
  std::deque<Task> queue_;
  std::size_t in_service_ = 0;  // Dequeued, promise not yet fulfilled.
  bool stop_ = false;
  /// Lock-free mirror of work_cv_'s predicate (stopping or queue
  /// non-empty), written under mutex_ for the workers' spin phase.
  std::atomic<bool> work_ready_{false};

  std::atomic<std::uint64_t> submitted_{0};
  std::vector<std::thread> workers_;
};

}  // namespace gass::serve

#endif  // GASS_SERVE_FRONTEND_H_
