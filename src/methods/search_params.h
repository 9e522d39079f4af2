// Construction, parsing, and formatting of methods::SearchParams, shared by
// the CLI, the benchmark drivers, and the serving frontend so "k=10,beam=64,
// seeds=48" means the same thing everywhere.

#ifndef GASS_METHODS_SEARCH_PARAMS_H_
#define GASS_METHODS_SEARCH_PARAMS_H_

#include <cstddef>
#include <string>

#include "methods/graph_index.h"

namespace gass::methods {

/// SearchParams with the three common knobs set and everything else at its
/// default (no prune bound, no deadline).
SearchParams MakeSearchParams(std::size_t k, std::size_t beam_width,
                              std::size_t num_seeds);

/// Parses a comma-separated "key=value" spec into `*params` (on top of
/// whatever `*params` already holds, so callers can layer a spec over
/// defaults). Recognized keys: `k`, `beam` (beam width L), `seeds` (seed
/// count), `prune` (squared-distance prune bound, float), `degrade`
/// (degradation step, halves the effective beam per step). Each key may
/// appear at most once per spec; a repeated key is rejected rather than
/// letting the last entry silently win. Returns false — leaving `*params`
/// partially updated — and describes the problem in `*error` (when
/// non-null), always naming the offending key and its value, for unknown
/// keys, duplicate keys, malformed numbers, or zero k/beam.
bool ParseSearchParams(const std::string& spec, SearchParams* params,
                       std::string* error = nullptr);

/// Formats params as a spec string ParseSearchParams accepts, e.g.
/// "k=10,beam=64,seeds=48". The prune bound and degrade step are included
/// only when set; the deadline (a caller-owned pointer) is never part of
/// the round trip.
std::string SearchParamsToString(const SearchParams& params);

}  // namespace gass::methods

#endif  // GASS_METHODS_SEARCH_PARAMS_H_
