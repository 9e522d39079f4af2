#include "serve/frontend.h"

#include <shared_mutex>

#include "core/macros.h"
#include "core/rng.h"
#include "core/spin_wait.h"
#include "core/thread_pool.h"
#include "methods/search_params.h"

namespace gass::serve {

namespace {

/// The client side of a hand-off: spins on the ticket for the spin budget,
/// then blocks in get() as before.
SearchResponse SpinThenGet(Frontend::Ticket ticket) {
  core::SpinUntil(
      [&ticket] {
        return ticket.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
      },
      std::chrono::steady_clock::now() + core::SpinBudget());
  return ticket.get();
}

}  // namespace

Frontend::Frontend(const methods::GraphIndex& index,
                   const FrontendOptions& options, FaultInjector* faults)
    : Frontend(index, options, faults, nullptr) {}

Frontend::Frontend(Updater& updater, const FrontendOptions& options,
                   FaultInjector* faults)
    : Frontend(updater.index(), options, faults, &updater) {}

Frontend::Frontend(const methods::GraphIndex& index,
                   const FrontendOptions& options, FaultInjector* faults,
                   Updater* updater)
    : index_(index),
      options_(options),
      faults_(faults),
      updater_(updater),
      sessions_(index, options.seed ^ 0xF207E7D5E55105ULL),
      tracer_(options.trace) {
  // One exporter for the whole serving stack: the updater's WAL/apply
  // counters land in this frontend's ServeMetrics (no-op if the updater
  // was configured with an explicit sink).
  if (updater_ != nullptr) updater_->BindMetrics(&metrics_);
  GASS_CHECK_MSG(index.SupportsConcurrentSearch(),
                 "%s does not support concurrent search; clone one instance "
                 "per thread instead (see docs/SERVING.md)",
                 index.Name().c_str());
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  std::size_t threads = options_.threads;
  if (threads == 0) threads = core::DefaultThreadCount();
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Frontend::~Frontend() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    work_ready_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void Frontend::Reject(Task* task) {
  metrics_.Add(ServeCounter::kShed);
  if (task->kind != TaskKind::kSearch) {
    if (task->trace != nullptr && task->owned_trace) {
      tracer_.FinishTrace(task->trace);
      task->trace = nullptr;
    }
    UpdateResult result;
    result.status = core::Status::Error(
        "update rejected: admission queue full or frontend stopping");
    task->update_promise.set_value(std::move(result));
    return;
  }
  SearchResponse response;
  response.outcome = methods::ServeOutcome::kRejected;
  response.admission_id = task->id;
  FinishTaskTrace(task, &response);
  task->promise.set_value(std::move(response));
}

void Frontend::FinishTaskTrace(Task* task, SearchResponse* response) {
  if (task->trace == nullptr) return;
  if (task->owned_trace) {
    tracer_.FinishTrace(task->trace);
  } else {
    task->trace->Finish();
  }
  // Traced queries feed the per-stage latency histograms; the untraced
  // majority never touches them.
  for (std::size_t i = 0; i < task->trace->size(); ++i) {
    const obs::TraceSpan& span = task->trace->span(i);
    metrics_.RecordStageNanos(span.stage, span.duration_ns);
  }
  response->trace = task->trace;
  task->trace = nullptr;
}

bool Frontend::PredictedLate(const core::Deadline& deadline) const {
  if (!options_.shed_predicted_late || deadline.unlimited()) return false;
  if (metrics_.queries() < options_.min_service_samples) return false;
  const double p50 = metrics_.LatencyQuantileSeconds(0.5);
  return deadline.RemainingSeconds() < options_.shed_safety_factor * p50;
}

std::size_t Frontend::DegradeStepForDepth(std::size_t depth) const {
  const std::size_t max_step = options_.max_degrade_step;
  if (max_step == 0) return 0;
  const double fill = static_cast<double>(depth) /
                      static_cast<double>(options_.queue_capacity);
  const double low = options_.degrade_low_fraction;
  const double high = options_.degrade_high_fraction;
  if (fill <= low || high <= low) return fill >= high ? max_step : 0;
  if (fill >= high) return max_step;
  // Evenly spaced interior steps: (low, high) splits into max_step - 1
  // bands mapping to steps 1 .. max_step - 1.
  const double t = (fill - low) / (high - low);
  const std::size_t step =
      1 + static_cast<std::size_t>(t * static_cast<double>(max_step - 1));
  return step > max_step ? max_step : step;
}

Frontend::Ticket Frontend::Submit(const float* query, std::size_t dim,
                                  const methods::SearchParams& params) {
  SearchRequest request;
  request.query = query;
  request.dim = dim;
  request.params = params;
  return Submit(request);
}

Frontend::Ticket Frontend::Submit(const float* query, std::size_t dim,
                                  const methods::SearchParams& params,
                                  const core::Deadline& deadline) {
  SearchRequest request;
  request.query = query;
  request.dim = dim;
  request.params = params;
  request.deadline = deadline;
  request.has_deadline = true;
  return Submit(request);
}

Frontend::Ticket Frontend::Submit(const SearchRequest& request) {
  Task task;
  task.query = request.query;
  task.dim = request.dim;
  task.params = request.params;
  task.params.deadline = nullptr;  // The frontend owns the deadline.
  task.params.trace = nullptr;     // Likewise the trace attachment.
  task.deadline = request.has_deadline
                      ? request.deadline
                      : (options_.deadline_seconds > 0
                             ? core::Deadline::After(options_.deadline_seconds)
                             : core::Deadline());
  const std::uint64_t auto_id =
      submitted_.fetch_add(1, std::memory_order_relaxed);
  task.id =
      request.admission_id == kAutoAdmissionId ? auto_id : request.admission_id;
  // The trace clock starts at admission, so queue wait is span #1. A
  // caller-provided sink wins over the sampler; either way the untraced
  // path costs one hash, no lock, no allocation.
  if (request.trace != nullptr) {
    task.trace = request.trace;
    task.trace->Begin(task.id);
    task.owned_trace = false;
  } else {
    task.trace = tracer_.StartTrace(task.id);
    task.owned_trace = task.trace != nullptr;
  }
  Ticket ticket = task.promise.get_future();

  if (faults_ != nullptr && faults_->ShouldRejectAdmission(task.id)) {
    faults_->Count(FaultCounter::kRejections);
    Reject(&task);
    return ticket;
  }
  // Predicted-late shedding at admission: if the budget already cannot
  // cover a median service, reject now instead of queueing doomed work.
  if (PredictedLate(task.deadline)) {
    Reject(&task);
    return ticket;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ || queue_.size() >= options_.queue_capacity) {
      Reject(&task);
      return ticket;
    }
    queue_.push_back(std::move(task));
    work_ready_.store(true, std::memory_order_release);
    metrics_.RecordQueueDepth(queue_.size());
  }
  work_cv_.notify_one();
  return ticket;
}

Frontend::UpdateTicket Frontend::SubmitInsert(const float* vec,
                                              std::size_t dim) {
  GASS_CHECK_MSG(updater_ != nullptr,
                 "SubmitInsert needs the updater-mode Frontend constructor");
  Task task;
  task.kind = TaskKind::kInsert;
  task.update_vector.assign(vec, vec + dim);
  return SubmitUpdate(std::move(task));
}

Frontend::UpdateTicket Frontend::SubmitDelete(core::VectorId id) {
  GASS_CHECK_MSG(updater_ != nullptr,
                 "SubmitDelete needs the updater-mode Frontend constructor");
  Task task;
  task.kind = TaskKind::kDelete;
  task.delete_id = id;
  return SubmitUpdate(std::move(task));
}

Frontend::UpdateTicket Frontend::SubmitUpdate(Task task) {
  task.id = submitted_.fetch_add(1, std::memory_order_relaxed);
  // Updates ride the query trace sampler: a sampled update records its
  // queue wait plus the updater's wal_append / apply spans.
  task.trace = tracer_.StartTrace(task.id);
  task.owned_trace = task.trace != nullptr;
  UpdateTicket ticket = task.update_promise.get_future();
  // No deadline shedding: an update is durability work, not a query whose
  // value decays — the only admission control is the queue bound.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ || queue_.size() >= options_.queue_capacity) {
      Reject(&task);
      return ticket;
    }
    queue_.push_back(std::move(task));
    work_ready_.store(true, std::memory_order_release);
    metrics_.RecordQueueDepth(queue_.size());
  }
  work_cv_.notify_one();
  return ticket;
}

SearchResponse Frontend::Search(const SearchRequest& request) {
  return SpinThenGet(Submit(request));
}

methods::SearchResult Frontend::Search(const float* query, std::size_t dim,
                                       const methods::SearchParams& params) {
  return SpinThenGet(Submit(query, dim, params));
}

void Frontend::WorkerLoop() {
  for (;;) {
    Task task;
    std::size_t depth_after_pop = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
      core::SpinThenPark(
          lock, work_cv_,
          [this] { return work_ready_.load(std::memory_order_acquire); },
          [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and all accepted work done.
      task = std::move(queue_.front());
      queue_.pop_front();
      depth_after_pop = queue_.size();
      work_ready_.store(stop_ || depth_after_pop > 0,
                        std::memory_order_release);
      ++in_service_;
    }

    // Queue-wait span: the trace clock started at admission, so the wait
    // is simply the elapsed time at dequeue.
    if (task.trace != nullptr) {
      obs::TraceSpan queue_span;
      queue_span.stage = obs::Stage::kQueue;
      queue_span.start_ns = 0;
      queue_span.duration_ns = task.trace->ElapsedNs();
      task.trace->AddSpan(queue_span);
    }

    if (task.kind != TaskKind::kSearch) {
      ServeUpdate(&task);
      std::lock_guard<std::mutex> lock(mutex_);
      --in_service_;
      if (queue_.empty() && in_service_ == 0) drain_cv_.notify_all();
      continue;
    }

    // Pressure is sampled when service starts: the depth left behind in
    // the queue decides this query's degradation step.
    const std::size_t step = DegradeStepForDepth(depth_after_pop);

    bool shed = false;
    if (faults_ != nullptr && faults_->ShouldFailSessionAcquire(task.id)) {
      faults_->Count(FaultCounter::kSessionFailures);
      shed = true;
    } else if (task.deadline.IsExpired() || PredictedLate(task.deadline)) {
      // Queue wait consumed the budget (or the p50 prediction says the
      // rest of it cannot cover a median service): shed instead of
      // executing to certain expiry.
      shed = true;
    }

    if (shed) {
      Reject(&task);
    } else {
      if (faults_ != nullptr) faults_->OnExecute(task.id);
      obs::StageTimer session_timer(task.trace, obs::Stage::kSession);
      SearchSessionPool::Lease lease = sessions_.Acquire();
      // Same determinism contract as QueryExecutor: results depend only on
      // (seed, admission id), never on which worker ran the query.
      lease->rng =
          core::Rng(options_.seed ^ (0x9E3779B97F4A7C15ULL * (task.id + 1)));
      methods::SearchParams query_params = task.params;
      query_params.admission_id = task.id;
      query_params.degrade_step = static_cast<std::uint32_t>(step);
      query_params.deadline =
          task.deadline.unlimited() ? nullptr : &task.deadline;
      query_params.trace = task.trace;
      // Live mode: hold the updater's search lock shared for the duration
      // of the query (in-memory applies take it exclusive, briefly) and
      // filter its tombstones at result emission. Taken inside the session
      // span, so a wait behind an apply stays traced even when the index
      // records its own breakdown and the search span is cancelled.
      std::shared_lock<std::shared_mutex> live_guard;
      if (updater_ != nullptr) {
        live_guard = std::shared_lock<std::shared_mutex>(
            updater_->search_mutex());
        query_params.tombstones = &updater_->tombstones();
      }
      session_timer.Stop();

      const std::size_t spans_before =
          task.trace != nullptr ? task.trace->size() : 0;
      obs::StageTimer search_timer(task.trace, obs::Stage::kSearch);
      SearchResponse response(
          index_.Search(task.query, query_params, lease.get()));
      if (live_guard.owns_lock()) live_guard.unlock();
      if (task.trace != nullptr && task.trace->size() > spans_before) {
        // A trace-aware index (shard::ShardedIndex) already recorded its
        // own finer-grained breakdown; an enclosing search span would
        // double-count those nanoseconds in the stage histograms.
        search_timer.Cancel();
      } else {
        search_timer.SetStats(response.stats);
        search_timer.Stop();
      }
      response.admission_id = task.id;
      response.expired = response.stats.deadline_expiries > 0;
      response.shards_ok = response.stats.shards_probed;
      response.shards_failed = response.stats.shards_failed;
      response.shards_hedged = response.stats.shards_hedged;
      response.replica_failovers = response.stats.replica_failovers;
      response.degrade_step = static_cast<std::uint32_t>(step);
      response.outcome = response.expired ? methods::ServeOutcome::kExpired
                         : step > 0       ? methods::ServeOutcome::kDegraded
                                          : methods::ServeOutcome::kFull;
      metrics_.RecordQuery(response.stats, response.expired, response.partial);
      metrics_.RecordDegradeStep(
          step, response.outcome == methods::ServeOutcome::kDegraded);
      FinishTaskTrace(&task, &response);
      task.promise.set_value(std::move(response));
    }

    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_service_;
      if (queue_.empty() && in_service_ == 0) drain_cv_.notify_all();
    }
  }
}

void Frontend::ServeUpdate(Task* task) {
  UpdateResult result =
      task->kind == TaskKind::kInsert
          ? updater_->Insert(task->update_vector.data(), task->trace)
          : updater_->Delete(task->delete_id, task->trace);
  if (task->trace != nullptr) {
    if (task->owned_trace) {
      tracer_.FinishTrace(task->trace);
    } else {
      task->trace->Finish();
    }
    for (std::size_t i = 0; i < task->trace->size(); ++i) {
      const obs::TraceSpan& span = task->trace->span(i);
      metrics_.RecordStageNanos(span.stage, span.duration_ns);
    }
    task->trace = nullptr;
  }
  task->update_promise.set_value(std::move(result));
}

void Frontend::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] { return queue_.empty() && in_service_ == 0; });
}

std::size_t Frontend::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace gass::serve
