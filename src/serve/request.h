// The serve-path request/response pair that serve::Frontend, the one
// serving path, takes and returns.
//
// SearchRequest is everything the serving tier needs to know about one
// query, in one struct: the vector and params an index's Search takes,
// plus the per-query concerns the index does not see directly — a
// deadline, a stable admission id and a trace handle. The Frontend's
// (query, dim, params[, deadline]) Submit overloads forward to it.
//
// SearchResponse extends methods::SearchResult (publicly, so existing
// callers that slice into a SearchResult or read .outcome / .neighbors
// through the base keep compiling) with the admission id the query ran
// under and the trace captured for it, if any.

#ifndef GASS_SERVE_REQUEST_H_
#define GASS_SERVE_REQUEST_H_

#include <cstdint>

#include "core/deadline.h"
#include "methods/graph_index.h"
#include "obs/trace.h"

namespace gass::serve {

/// "Assign me an id": the frontend substitutes its submission count.
/// Explicit ids exist so replayed workloads (and batches that must not
/// depend on submission order) hit the same deterministic RNG/sampling
/// streams.
inline constexpr std::uint64_t kAutoAdmissionId = ~std::uint64_t{0};

struct SearchRequest {
  /// The query vector (`dim` floats); must stay alive until the response
  /// resolves.
  const float* query = nullptr;
  std::size_t dim = 0;
  methods::SearchParams params;
  /// Per-query deadline, honored only when `has_deadline` is true (a
  /// default-constructed Deadline means "explicitly unlimited", which is
  /// different from "use the server's default budget" — the flag keeps the
  /// two apart). params.deadline is ignored: the frontend owns deadline
  /// storage, since a deadline must survive the queue wait.
  core::Deadline deadline;
  bool has_deadline = false;
  /// Identity for RNG reseeding and trace sampling; kAutoAdmissionId lets
  /// the serving tier assign the next sequential id.
  std::uint64_t admission_id = kAutoAdmissionId;
  /// Caller-owned trace sink. Null (the default) delegates the decision to
  /// the server's obs::Tracer sampler; non-null forces this query traced
  /// into the given object.
  obs::QueryTrace* trace = nullptr;
};

struct SearchResponse : methods::SearchResult {
  SearchResponse() = default;
  explicit SearchResponse(methods::SearchResult&& result)
      : methods::SearchResult(std::move(result)) {}

  /// The admission id the query actually ran under (auto ids resolved).
  std::uint64_t admission_id = 0;
  /// The query's trace: the request's own, or the server tracer's slot
  /// (valid until that tracer is Reset/reconfigured). Null = not sampled.
  const obs::QueryTrace* trace = nullptr;
  /// Fan-out accounting (0 for unsharded indexes): shards whose results
  /// merged into `neighbors`, shards that contributed nothing because they
  /// failed or were breaker-skipped (fault-caused — pairs with the
  /// inherited `partial` flag, as deadline-caused misses pair with
  /// `expired`), and hedged backup sub-searches launched. Filled from
  /// stats.shards_* by the frontend.
  std::uint64_t shards_ok = 0;
  std::uint64_t shards_failed = 0;
  std::uint64_t shards_hedged = 0;
  /// Sub-searches that failed on one replica and were answered by a peer
  /// replica of the same shard (replicated indexes only). A query with
  /// failovers but shards_failed == 0 lost nothing — replication absorbed
  /// the fault.
  std::uint64_t replica_failovers = 0;
};

}  // namespace gass::serve

#endif  // GASS_SERVE_REQUEST_H_
