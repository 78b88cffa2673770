// Vertex programs: the generalization of the Enterprise machinery beyond
// BFS. A program defines per-vertex state, a per-vertex edge relax, a
// superstep apply function, a frontier-emission predicate, a convergence
// test, and a per-program invariant set; the enterprise superstep loop (TS
// queue generation, WB degree-classified dispatch, the HC hub cache —
// enterprise/program_engine) runs any such program through the full
// decorator stack.
//
// Three programs ship built in, each validated against an independent host
// reference (host_reference below):
//   sssp      delta-stepping single-source shortest paths over synthetic
//             deterministic edge weights (sssp_edge_weight); validated
//             against host Dijkstra.  Params: delta (bucket width, default 4).
//   cc        min-label propagation (weakly connected components on directed
//             graphs); validated against host union-find.  No params.
//   pagerank  synchronous push iteration with an L1 convergence epsilon and
//             uniform dangling redistribution; validated against host power
//             iteration.  Params: epsilon (default 1e-8), damping (default
//             0.85), max_iters (default 100).
//
// The invariant set is the SDC-defense hook: audit() is called per superstep
// under bfs::IntegrityOptions (SSSP distance-monotone relaxations, CC
// label-decrease-only, PageRank mass conservation within tolerance) and
// validate() checks a finished run's self-consistency against the graph —
// the program analog of Graph500 tree validation, used by the resilient
// decorator before accepting a fault-recovered result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bfs/integrity.hpp"
#include "bfs/result.hpp"
#include "bfs/validate.hpp"
#include "graph/csr.hpp"
#include "util/random.hpp"

namespace ent::bfs {

// Program knobs carried by the engine-spec param list (bfs/spec.hpp).
struct ProgramParams {
  std::vector<std::pair<std::string, std::string>> entries;

  std::optional<std::string> get(std::string_view key) const;
  double get_double(std::string_view key, double fallback) const;
};

// Traversal-shape declaration consulted by the guard and serving layers: it
// is the program's own statement of which BFS-era limits make sense for it
// (bfs/guarded.hpp routes its post-run checks through this — the fix for
// non-BFS programs being falsely tripped by level/frontier limits).
struct ProgramTraits {
  // Supersteps are structural levels (bounded by a diameter-like quantity);
  // a max_levels guard limit applies. False for fixpoint iterations whose
  // superstep count is a convergence artifact (pagerank).
  bool bounded_depth = true;
  // The frontier is a shrinking visited-style set; a max_frontier guard
  // limit applies. False when every superstep legitimately touches all
  // vertices (cc's first superstep, pagerank's every superstep).
  bool bounded_frontier = true;
  // Relaxations must also flow along in-edges on directed graphs (label
  // propagation computing *weakly* connected components).
  bool symmetric = false;
  // The result depends on the source vertex (false: cc, pagerank — any
  // source yields the same answer).
  bool needs_source = true;
  // Every in-range edge u->v relaxed improves v (pagerank's push adds a
  // share to every neighbor). relax_edges then appends nothing: the engine
  // takes the in-range entries of the relaxed span as the improved list.
  bool every_edge_improves = false;

  bool operator==(const ProgramTraits&) const = default;
};

class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  virtual std::string_view name() const = 0;
  virtual ProgramTraits traits() const = 0;

  // Resets per-vertex state for a run from `source` and fills the initial
  // frontier (ascending vertex order).
  virtual void init(graph::vertex_t source,
                    std::vector<graph::vertex_t>& frontier) = 0;

  // Relaxes u's edges to `nbrs` in order, appending v to `improved` once per
  // edge u->v that improved v's state (v becomes a candidate for the next
  // frontier), in edge order. Entries v >= num_vertices (injected adjacency
  // flips) are skipped without touching state. Returns the number of
  // in-range edges inspected. Must tolerate duplicate edges and
  // re-relaxation. One call per frontier vertex keeps the per-u value
  // (distance, label, rank share) out of the edge loop. A program whose
  // traits declare every_edge_improves appends nothing: every in-range
  // entry of `nbrs` is an improvement, and the engine reads them from there.
  virtual graph::edge_t relax_edges(graph::vertex_t u,
                                    std::span<const graph::vertex_t> nbrs,
                                    std::vector<graph::vertex_t>& improved) = 0;

  // Frontier-emission predicate: an improved vertex joins the next frontier
  // only while this holds (pagerank: pending change still above threshold).
  virtual bool emit(graph::vertex_t v) const;

  // Superstep barrier: applies deferred per-vertex updates (pagerank swaps
  // its accumulators into ranks here). Returns true when per-vertex apply
  // work ran — the engine then charges an O(n) apply kernel.
  virtual bool apply(int superstep);

  // Chooses the next frontier from this superstep's improved vertices
  // (deduplicated, ascending). The default emits every improved vertex that
  // passes emit(); delta-stepping overrides it to bucket by distance and
  // release only the closest non-empty bucket.
  virtual void select_frontier(const std::vector<graph::vertex_t>& improved,
                               std::vector<graph::vertex_t>& out);

  // Convergence test, checked after apply(); returning true ends the run
  // even when the next frontier is non-empty. The default converges when
  // the frontier drains.
  virtual bool converged(int superstep, std::size_t next_frontier) const;

  // Mutable view of the primary per-vertex state bytes, registered with the
  // fault injector's silent-flip machinery (FlipTarget::kStatus).
  virtual std::span<std::byte> raw_state_bytes() = 0;
  // Device-resident footprint of all program state, for the memory model's
  // working-set accounting and guarded admission.
  virtual std::size_t state_footprint_bytes() const = 0;

  // --- invariant set ------------------------------------------------------
  // Audits the current state; returns a description of the first violation,
  // empty when clean. kFull checks every vertex; kSampled spot-checks
  // `sample_size` rng-drawn vertices. Non-const so monotone programs may
  // refresh their decrease-only shadow after a clean pass.
  virtual std::string audit(AuditMode mode, std::size_t sample_size,
                            SplitMix64& rng) = 0;

  // Self-consistency of a finished run against the graph — the program
  // analog of Graph500 tree validation (triangle inequality for sssp, edge
  // label agreement for cc, one-iteration residual for pagerank).
  virtual ValidationReport validate(const graph::Csr& g,
                                    const BfsResult& r) const = 0;

  // Fills the program-specific result fields (program name, values,
  // parents, vertices_visited); the engine fills timing and traces.
  virtual void finalize(BfsResult& r) const = 0;
};

// --- registry ---------------------------------------------------------------

// Builds a registered program over `g` (which must outlive it). Returns
// nullptr — with a message in `*error` when given — for unknown names or
// unknown/invalid param keys.
std::unique_ptr<VertexProgram> make_program(const std::string& name,
                                            const graph::Csr& g,
                                            const ProgramParams& params = {},
                                            std::string* error = nullptr);

// Registered program names, sorted: cc, pagerank, sssp.
std::vector<std::string> program_names();
bool is_program_name(const std::string& name);

// Traits without instantiating (guarded admission/post-run checks).
std::optional<ProgramTraits> program_traits(const std::string& name);

// Device-resident per-vertex state estimate for admission, in bytes.
std::uint64_t program_state_bytes(const std::string& name,
                                  graph::vertex_t num_vertices);

// --- shared helpers ---------------------------------------------------------

// Deterministic synthetic edge weight in [1, 16], symmetric in (u, v); the
// CSR stores no weights, so the sssp engine and the host Dijkstra reference
// derive identical weights from the endpoint ids.
double sssp_edge_weight(graph::vertex_t u, graph::vertex_t v);

// Independent host reference for a program: Dijkstra (sssp), union-find
// (cc), power iteration (pagerank). Used for validation in tests, as the
// serving layer's truth, and as the resilient cascade's host floor. Throws
// std::invalid_argument for unknown names or params.
BfsResult host_reference(const std::string& name, const graph::Csr& g,
                         graph::vertex_t source,
                         const ProgramParams& params = {});

}  // namespace ent::bfs
