// Batch serving through serve::Frontend for the test suite.

#ifndef GASS_TESTS_SERVE_TEST_UTIL_H_
#define GASS_TESTS_SERVE_TEST_UTIL_H_

#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "methods/graph_index.h"
#include "serve/frontend.h"
#include "serve/request.h"

namespace gass::testing {

/// A frontend that serves a batch whole: the queue holds `capacity`
/// queries, and nothing is shed or degraded, so each answer depends only
/// on (seed, admission id) and never on the thread count.
inline serve::FrontendOptions BatchFrontendOptions(std::size_t threads,
                                                   std::size_t capacity,
                                                   std::uint64_t seed) {
  serve::FrontendOptions options;
  options.threads = threads;
  options.queue_capacity = capacity;
  options.shed_predicted_late = false;
  options.max_degrade_step = 0;
  options.seed = seed;
  return options;
}

/// Submits every row of `queries`, then waits for all the answers. On a
/// fresh frontend row q runs as admission id q.
inline std::vector<serve::SearchResponse> ServeBatch(
    serve::Frontend& frontend, const core::Dataset& queries,
    const methods::SearchParams& params) {
  std::vector<serve::Frontend::Ticket> tickets;
  tickets.reserve(queries.size());
  for (core::VectorId q = 0; q < queries.size(); ++q) {
    tickets.push_back(frontend.Submit(queries.Row(q), queries.dim(), params));
  }
  std::vector<serve::SearchResponse> responses;
  responses.reserve(tickets.size());
  for (serve::Frontend::Ticket& ticket : tickets) {
    responses.push_back(ticket.get());
  }
  return responses;
}

}  // namespace gass::testing

#endif  // GASS_TESTS_SERVE_TEST_UTIL_H_
