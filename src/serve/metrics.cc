#include "serve/metrics.h"

#include <cstdio>

#include "obs/exporter.h"

namespace gass::serve {

double ServeMetrics::Qps() const {
  const double elapsed = window_.Seconds();
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(queries()) / elapsed;
}

std::string ServeMetrics::Dump() const {
  const core::SearchStats totals = TotalStats();
  const std::uint64_t n = queries();
  const double nq = n == 0 ? 1.0 : static_cast<double>(n);
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "queries          %llu\n"
                "qps              %.1f\n"
                "latency p50      %.3f ms\n"
                "latency p95      %.3f ms\n"
                "latency p99      %.3f ms\n"
                "dists/query      %.1f\n"
                "hops/query       %.1f\n",
                static_cast<unsigned long long>(n), Qps(),
                1e3 * LatencyQuantileSeconds(0.50),
                1e3 * LatencyQuantileSeconds(0.95),
                1e3 * LatencyQuantileSeconds(0.99),
                static_cast<double>(totals.distance_computations) / nq,
                static_cast<double>(totals.hops) / nq);
  std::string out = buffer;
  const auto line = [&](const char* label, std::uint64_t value) {
    std::snprintf(buffer, sizeof(buffer), "%-16s %llu\n", label,
                  static_cast<unsigned long long>(value));
    out += buffer;
  };
  for (const core::SearchStats::Counter& c : core::SearchStats::kCounters) {
    line(c.label, totals.*c.field);
  }
  for (const ServeCounterInfo& c : kServeCounters) {
    line(c.label, count(c.counter));
  }
  line("queue high-water", queue_depth_high_water());
  return out;
}

void ServeMetrics::ExportTo(obs::Exporter* exporter,
                            const std::string& prefix) const {
  const core::SearchStats totals = TotalStats();
  exporter->AddCounter(prefix + "queries_total",
                       static_cast<double>(queries()),
                       "Queries executed and recorded");
  for (const core::SearchStats::Counter& c : core::SearchStats::kCounters) {
    exporter->AddCounter(prefix + c.name + "_total",
                         static_cast<double>(totals.*c.field), c.help);
  }
  for (const ServeCounterInfo& c : kServeCounters) {
    exporter->AddCounter(prefix + c.name + "_total",
                         static_cast<double>(count(c.counter)), c.help);
  }
  for (std::size_t step = 0; step < kMaxDegradeSteps; ++step) {
    const std::uint64_t n = degrade_step_count(step);
    if (n == 0 && step > 0) continue;  // Step 0 always exported.
    char labels[24];
    std::snprintf(labels, sizeof(labels), "step=\"%zu\"", step);
    exporter->AddCounter(prefix + "degrade_step_queries_total",
                         static_cast<double>(n),
                         "Executed queries by degradation step", labels);
  }
  exporter->AddGauge(prefix + "queue_depth_high_water",
                     static_cast<double>(queue_depth_high_water()),
                     "Deepest admission queue observed");
  exporter->AddHistogram(prefix + "latency_seconds", histogram_,
                         "End-to-end query latency");
  for (std::size_t s = 0; s < obs::kNumStages; ++s) {
    if (stage_histograms_[s].count() == 0) continue;
    exporter->AddHistogram(
        prefix + "stage_seconds_" +
            obs::StageName(static_cast<obs::Stage>(s)),
        stage_histograms_[s], "Per-stage latency (traced queries)");
  }
}

void ServeMetrics::Reset() {
  stats_.Reset();
  histogram_.Reset();
  for (auto& h : stage_histograms_) h.Reset();
  for (auto& counter : counters_) counter.store(0, std::memory_order_relaxed);
  queue_high_water_.store(0, std::memory_order_relaxed);
  for (auto& slot : degrade_occupancy_) {
    slot.store(0, std::memory_order_relaxed);
  }
  window_.Reset();
}

}  // namespace gass::serve
