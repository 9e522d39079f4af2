// The public index interface shared by every method.

#ifndef GASS_METHODS_GRAPH_INDEX_H_
#define GASS_METHODS_GRAPH_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/deadline.h"
#include "core/distance.h"
#include "core/graph.h"
#include "core/neighbor.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/status.h"
#include "core/tombstones.h"
#include "core/visited.h"
#include "io/snapshot.h"
#include "seeds/seed_selector.h"

namespace gass::obs {
class QueryTrace;  // obs/trace.h; methods/ only carries the pointer.
}  // namespace gass::obs

namespace gass::methods {

/// Per-query search knobs.
struct SearchParams {
  std::size_t k = 10;          ///< Neighbors to return.
  std::size_t beam_width = 64; ///< L of Algorithm 1.
  std::size_t num_seeds = 16;  ///< Advisory seed count for the SS strategy.
  /// Upper bound on acceptable squared distances; candidates at or beyond
  /// it are rejected without entering the pool. Used by coordinators that
  /// already hold answers (ELPIS warms later leaf searches with the current
  /// k-th best-so-far). Default: no bound.
  float prune_bound = 3.402823466e38f;
  /// Optional time budget (owned by the caller, e.g. serve::Frontend).
  /// On expiry the search stops and returns its best-so-far answers,
  /// flagging `stats.deadline_expiries`. Null = unlimited.
  const core::Deadline* deadline = nullptr;
  /// Adaptive-degradation step: 0 = full effort; each step halves the
  /// effective beam width, never below k (see EffectiveBeamWidth()).
  /// Set by serve::Frontend under queue pressure so an overloaded server
  /// trades recall for latency instead of missing every deadline at once.
  std::uint32_t degrade_step = 0;
  /// Per-query trace sink (owned by the caller's obs::Tracer; null = not
  /// traced, the common case). Trace-aware indexes (shard::ShardedIndex)
  /// append stage spans to it; plain indexes ignore it and the serving
  /// tier records one whole-search span instead. Carried here — not as a
  /// fourth Search argument — so the span plumbing crosses the GraphIndex
  /// virtual boundary without touching twelve method signatures.
  obs::QueryTrace* trace = nullptr;
  /// Admission id of the enclosing serve request (serve::Frontend assigns
  /// one per query; 0 = unserved/unknown).
  /// Carried here, like `trace`, so composite indexes can key deterministic
  /// per-shard decisions — fault injection, trace sampling — on the query
  /// identity. Never part of the ParseSearchParams round trip.
  std::uint64_t admission_id = 0;
  /// Logically deleted ids to filter out of the returned neighbors (owned
  /// by the caller, e.g. serve::Updater, which keeps it consistent under
  /// its search lock). Traversal still walks tombstoned nodes — they
  /// remain graph waypoints — and the answer fills up from the rest of
  /// the beam, so it is short of k only when the beam is. Null (the
  /// default) is the exact pre-delete code path. Like `trace`, never part
  /// of the ParseSearchParams round trip.
  const core::TombstoneSet* tombstones = nullptr;
  /// The searched index's id → global id table that `tombstones` is keyed
  /// by (element i is row i's global id). Only shard::FanOut sets it, on
  /// each sub-search, from the probed shard's id table; null means the
  /// index's ids are global. Never part of the ParseSearchParams round
  /// trip.
  const core::VectorId* global_ids = nullptr;
};

/// The beam width a search actually runs with: `beam_width >> degrade_step`,
/// clamped to at least `k`. Every method's query path consumes the beam
/// width through this helper, so the serving tier's degradation knob applies
/// uniformly. With degrade_step == 0 this is exactly `max(beam_width, k)`,
/// the historic behavior.
inline std::size_t EffectiveBeamWidth(const SearchParams& params) {
  const std::size_t width =
      params.degrade_step >= 63 ? 0 : params.beam_width >> params.degrade_step;
  return width > params.k ? width : params.k;
}

/// How the serving tier handled a query. Plain (non-serving) searches always
/// report kFull; serve::Frontend distinguishes the four overload outcomes so
/// clients can tell a complete answer from a cheapened, truncated, or shed
/// one (see docs/SERVING.md).
enum class ServeOutcome : std::uint8_t {
  kFull = 0,   ///< Full-effort result.
  kDegraded,   ///< Served at a reduced effort step (see degrade_step).
  kExpired,    ///< Deadline truncated the search; best-so-far answers.
  kRejected,   ///< Shed before execution; no answers.
};

/// Short lowercase label ("full", "degraded", "expired", "rejected").
const char* ServeOutcomeName(ServeOutcome outcome);

/// One query's answers plus its costs.
struct SearchResult {
  std::vector<core::Neighbor> neighbors;
  core::SearchStats stats;
  /// True when a deadline cut the search short: `neighbors` holds the
  /// best-so-far answers, not a full-effort result. Set by deadline-running
  /// callers (serve::Frontend) so consumers can tell truncated results
  /// apart without digging through stats.
  bool expired = false;
  /// True when a fault — not a deadline — cost the query some shard's
  /// contribution: a sub-search failed, a fault was injected, or an open
  /// circuit breaker skipped the shard at routing time. Independent of
  /// `expired`: a query can be partial without being expired (a shard
  /// failed fast, the rest completed) and expired without being partial
  /// (every shard answered, some truncated by the deadline). Set by
  /// shard::ShardedIndex; see docs/SHARDING.md "Failure semantics".
  bool partial = false;
  /// Overload disposition, set by the serving tier (kExpired wins over
  /// kDegraded when both apply; kRejected results carry no neighbors).
  ServeOutcome outcome = ServeOutcome::kFull;
  /// Degradation step the query actually ran with (0 = full effort).
  std::uint32_t degrade_step = 0;
};

/// Costs of one index construction.
struct BuildStats {
  double elapsed_seconds = 0.0;
  std::uint64_t distance_computations = 0;
  std::size_t index_bytes = 0;  ///< Final index footprint (excl. raw data).
  std::size_t peak_bytes = 0;   ///< Peak transient footprint during build.
};

/// Per-thread scratch for searching a shared, read-only index.
///
/// Holds everything a query mutates — the visited table and the RNG feeding
/// stochastic seed selection — so a single built index can be searched from
/// many threads at once, each thread bringing its own context (see
/// serve::SearchSessionPool for pooling/reuse). Contexts are cheap relative
/// to the index (4 bytes per vector) but not free; reuse them across
/// queries rather than constructing per query.
struct SearchContext {
  core::VisitedTable visited;
  core::Rng rng;

  SearchContext(std::size_t n, std::uint64_t seed)
      : visited(n), rng(seed) {}
};

/// A built graph-based vector index.
///
/// Lifecycle: construct with method parameters, call Build(data) once (the
/// dataset must outlive the index), then Search per query.
///
/// Thread-safety: the two-argument Search keeps per-query state inside the
/// index and is single-threaded — one instance per thread, or use the
/// three-argument const overload, which routes all mutable state through a
/// caller-owned SearchContext and may run concurrently from many threads on
/// one shared instance when SupportsConcurrentSearch() is true. Builds are
/// never concurrent with searches. See docs/SERVING.md for the per-method
/// contract.
class GraphIndex {
 public:
  virtual ~GraphIndex() = default;

  virtual std::string Name() const = 0;

  virtual BuildStats Build(const core::Dataset& data) = 0;

  virtual SearchResult Search(const float* query,
                              const SearchParams& params) = 0;

  /// Concurrent search: const, all per-query mutable state in `*ctx`.
  /// Aborts when SupportsConcurrentSearch() is false (composite indexes
  /// whose sub-indexes hold private query state, e.g. ELPIS).
  virtual SearchResult Search(const float* query, const SearchParams& params,
                              SearchContext* ctx) const;

  /// Whether the three-argument Search may be called, concurrently, on a
  /// shared instance.
  virtual bool SupportsConcurrentSearch() const { return false; }

  /// Creates a context sized for this (built) index. Virtual so composite
  /// indexes whose sub-searches run over a different vertex range than the
  /// bound dataset (shard::LiveShardedIndex sizes by its largest shard
  /// arena) can widen the visited table.
  virtual SearchContext MakeSearchContext(std::uint64_t seed) const;

  /// A copy of the searchable base graph as adjacency lists, for tools,
  /// tests, flat re-layout and LSH-APG's build. HNSW materializes it from
  /// its arena, so no search, build, copy or digest path calls this.
  /// Indexes with no single base graph (ELPIS) abort; check HasBaseGraph().
  virtual core::Graph graph() const = 0;
  virtual bool HasBaseGraph() const { return true; }

  /// Final index footprint in bytes (graph + auxiliary seed structures),
  /// excluding the raw vectors.
  virtual std::size_t IndexBytes() const = 0;

  const core::Dataset* data() const { return data_; }

  // --- Persistence (see docs/PERSISTENCE.md) ---

  /// Stable 64-bit hash of the construction parameters (including the
  /// build seed). Stored in snapshot headers; LoadIndex() rejects a
  /// snapshot whose fingerprint differs from the target index's, so an
  /// index can never silently adopt a graph built with other knobs.
  virtual std::uint64_t ParamsFingerprint() const { return 0; }

  /// Writes the built index's state as snapshot sections named under
  /// `prefix` (composite indexes nest: HVS saves its base HNSW under
  /// "base.", ELPIS each leaf under "leaf<i>."). Default: kUnimplemented.
  virtual core::Status SaveSections(io::SnapshotWriter* writer,
                                    const std::string& prefix) const;

  /// Restores state from sections under `prefix`, binding the index to
  /// `data` (which must be the dataset the snapshot was built over and must
  /// outlive the index). Every count, offset, and neighbor id is validated
  /// before use. Default: kUnimplemented.
  virtual core::Status LoadSections(const io::SnapshotReader& reader,
                                    const std::string& prefix,
                                    const core::Dataset& data);

 protected:
  const core::Dataset* data_ = nullptr;
};

/// Saves a built index to `path` as one crash-safe snapshot file (header +
/// SaveSections, written to "<path>.tmp", fsynced, atomically renamed).
/// Every index, sharded ones included, saves to this one file.
core::Status SaveIndex(const GraphIndex& index, const std::string& path);

/// Loads a snapshot into an unbuilt (or rebuilt) index. Fails with a
/// descriptive error when the snapshot's method name, params fingerprint,
/// or dataset shape (n, dim) does not match `index`/`data`.
core::Status LoadIndex(GraphIndex* index, const core::Dataset& data,
                       const std::string& path);

/// The single-file snapshot image of a built index (header +
/// SaveSections), in memory. With io::SnapshotReader::OpenBytes and
/// LoadSections this is how indexes are copied and digested: nothing
/// touches the filesystem, and every copy passes the checksum and bounds
/// checks a load does.
core::Status SerializeIndex(const GraphIndex& index,
                            std::vector<std::uint8_t>* out);

/// SerializeIndex's image, opened in memory (io::SnapshotReader::OpenBytes):
/// the source copies of `index` are restored from.
core::Status SnapshotImage(const GraphIndex& index, io::SnapshotReader* out);

/// Fails unless the snapshot `reader` opened holds an index of `index`'s
/// method name and params fingerprint, built over a dataset of `data`'s
/// shape.
core::Status CheckSnapshotHeader(const GraphIndex& index,
                                 const core::Dataset& data,
                                 const io::SnapshotReader& reader);

/// LoadIndex's checks (CheckSnapshotHeader) and restore, from an already
/// opened snapshot — a file or an in-memory image.
core::Status LoadIndexFrom(GraphIndex* index, const core::Dataset& data,
                           const io::SnapshotReader& reader);

/// Common implementation: a single base graph searched with Algorithm 1,
/// seeded by a pluggable SS strategy. Subclasses implement BuildGraph(),
/// which installs their seed selector; Build seals the graph it returns
/// into a bit-packed core::FlatGraph, the only form kept and searched.
class SingleGraphIndex : public GraphIndex {
 public:
  /// Binds `data`, runs BuildGraph, then seals its graph and frees it.
  BuildStats Build(const core::Dataset& data) final;
  SearchResult Search(const float* query, const SearchParams& params) override;
  SearchResult Search(const float* query, const SearchParams& params,
                      SearchContext* ctx) const override;
  bool SupportsConcurrentSearch() const override { return true; }

  /// The sealed graph, expanded into adjacency lists.
  core::Graph graph() const override;
  /// The sealed graph plus the seed selector's structures.
  std::size_t IndexBytes() const override;

  /// Saves the base graph under "<prefix>graph" plus any method sections
  /// (SaveAux); the inverse decodes and validates the graph straight into
  /// its sealed form, rebinds `data`, and delegates seed-structure
  /// restoration to LoadAux.
  core::Status SaveSections(io::SnapshotWriter* writer,
                            const std::string& prefix) const override;
  core::Status LoadSections(const io::SnapshotReader& reader,
                            const std::string& prefix,
                            const core::Dataset& data) override;

 protected:
  /// The method's construction over data_: returns its base graph
  /// (build-time scratch, which Build seals and frees) and installs
  /// seed_selector_, charging every distance to `dc`. `*transient_bytes`
  /// starts at 0; a method that held more at its peak than that graph and
  /// the selector (base graphs, candidate pools) sets it to the excess.
  virtual core::Graph BuildGraph(core::DistanceComputer& dc,
                                 std::size_t* transient_bytes) = 0;

  /// Method-specific auxiliary sections (seed trees, hash tables). The
  /// defaults save nothing / fail with kUnimplemented — every method that
  /// snapshots must override LoadAux to reinstall its seed selector.
  virtual core::Status SaveAux(io::SnapshotWriter* writer,
                               const std::string& prefix) const;
  virtual core::Status LoadAux(const io::SnapshotReader& reader,
                               const std::string& prefix);

  /// Shared implementation behind both Search overloads. `rng` null means
  /// "use the seed selector's internal serial stream" (the classic
  /// single-threaded path, bit-for-bit identical to historic behavior).
  SearchResult SearchWith(const float* query, const SearchParams& params,
                          core::VisitedTable* visited, core::Rng* rng) const;

  core::FlatGraph graph_;
  std::unique_ptr<seeds::SeedSelector> seed_selector_;
  std::unique_ptr<core::VisitedTable> visited_;
};

}  // namespace gass::methods

#endif  // GASS_METHODS_GRAPH_INDEX_H_
