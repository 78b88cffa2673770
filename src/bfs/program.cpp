#include "bfs/program.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <utility>

#include "util/timer.hpp"

namespace ent::bfs {

namespace {

using graph::vertex_t;

constexpr double kUnreachedSentinel = -1.0;
constexpr double kInf = std::numeric_limits<double>::infinity();
// Weights are integers in [1, 16], so distance sums are exact in double;
// the epsilon only absorbs hostile values after a bit flip.
constexpr double kDistEps = 1e-6;

bool reached(double value) { return value >= 0.0; }

std::string bad_param(const std::string& program, const std::string& key) {
  return "program '" + program + "' does not accept param '" + key + "'";
}

// Numeric param with validation; returns false (filling *error) when the
// value is present but unparseable or out of range.
bool read_param(const ProgramParams& params, const std::string& program,
                std::string_view key, double min_exclusive,
                double max_exclusive, double* out, std::string* error) {
  const auto raw = params.get(key);
  if (!raw) return true;
  const char* begin = raw->c_str();
  char* end = nullptr;
  const double parsed = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || !(parsed > min_exclusive) ||
      !(parsed < max_exclusive)) {
    if (error != nullptr) {
      *error = "program '" + program + "': bad value '" + *raw +
               "' for param '" + std::string(key) + "'";
    }
    return false;
  }
  *out = parsed;
  return true;
}

bool keys_allowed(const ProgramParams& params, const std::string& program,
                  std::initializer_list<std::string_view> allowed,
                  std::string* error) {
  for (const auto& [key, value] : params.entries) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      if (error != nullptr) *error = bad_param(program, key);
      return false;
    }
  }
  return true;
}

// --- sssp -------------------------------------------------------------------

class SsspProgram final : public VertexProgram {
 public:
  SsspProgram(const graph::Csr& g, double delta) : g_(&g), delta_(delta) {}

  static constexpr ProgramTraits kTraits{.bounded_depth = true,
                                         .bounded_frontier = true,
                                         .symmetric = false,
                                         .needs_source = true};
  // Distance plus parent.
  static constexpr std::uint64_t kBytesPerVertex =
      sizeof(double) + sizeof(vertex_t);

  std::string_view name() const override { return "sssp"; }
  ProgramTraits traits() const override { return kTraits; }

  void init(vertex_t source, std::vector<vertex_t>& frontier) override {
    const vertex_t n = g_->num_vertices();
    source_ = source;
    dist_.assign(n, kInf);
    parent_.assign(n, graph::kInvalidVertex);
    dist_[source] = 0.0;
    parent_[source] = source;
    buckets_.clear();
    shadow_ready_ = false;
    frontier.assign(1, source);
  }

  graph::edge_t relax_edges(vertex_t u, std::span<const vertex_t> nbrs,
                            std::vector<vertex_t>& improved) override {
    const auto n = static_cast<vertex_t>(dist_.size());
    // Weights are at least 1, so no edge of u (a self-loop included) can
    // lower dist_[u] while its edges relax.
    const double du = dist_[u];
    graph::edge_t inspected = 0;
    for (const vertex_t v : nbrs) {
      if (v >= n) continue;
      ++inspected;
      const double candidate = du + sssp_edge_weight(u, v);
      if (candidate < dist_[v]) {
        dist_[v] = candidate;
        parent_[v] = u;
        improved.push_back(v);
      }
    }
    return inspected;
  }

  void select_frontier(const std::vector<vertex_t>& improved,
                       std::vector<vertex_t>& out) override {
    // Delta-stepping: improved vertices drop into the bucket of their
    // current tentative distance; the frontier is the closest non-empty
    // bucket. Entries left stale by a later improvement are skipped at pop
    // time (their distance no longer maps to the popped bucket).
    for (const vertex_t v : improved) {
      const std::size_t b = bucket_of(dist_[v]);
      if (b >= buckets_.size()) buckets_.resize(b + 1);
      buckets_[b].push_back(v);
    }
    // Scan from bucket 0: earlier buckets are normally empty, but an
    // in-superstep re-relaxation can drop a vertex below the bucket being
    // settled, and a monotone cursor would strand it.
    out.clear();
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      std::vector<vertex_t> pending = std::move(buckets_[b]);
      buckets_[b].clear();
      for (const vertex_t v : pending) {
        if (std::isfinite(dist_[v]) && bucket_of(dist_[v]) == b) {
          out.push_back(v);
        }
      }
      if (!out.empty()) {
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        return;
      }
    }
  }

  std::span<std::byte> raw_state_bytes() override {
    return std::as_writable_bytes(std::span<double>(dist_));
  }

  std::size_t state_footprint_bytes() const override {
    return dist_.size() * sizeof(double) + parent_.size() * sizeof(vertex_t);
  }

  std::string audit(AuditMode mode, std::size_t sample_size,
                    SplitMix64& rng) override {
    const vertex_t n = g_->num_vertices();
    if (n == 0) return {};
    if (dist_[source_] != 0.0 || parent_[source_] != source_) {
      return "sssp: source distance perturbed";
    }
    if (!shadow_ready_) {
      shadow_ = dist_;
      shadow_ready_ = true;
    }
    const auto check = [&](vertex_t v) -> std::string {
      const double d = dist_[v];
      if (std::isnan(d) || d < 0.0) {
        return "sssp: negative or NaN distance at vertex " +
               std::to_string(v);
      }
      // Distances only decrease between audit points (monotone relaxation).
      if (d > shadow_[v] + kDistEps) {
        return "sssp: distance at vertex " + std::to_string(v) +
               " increased between audits";
      }
      shadow_[v] = d;
      if (!std::isfinite(d) || v == source_) return {};
      const vertex_t p = parent_[v];
      if (p >= n || !std::isfinite(dist_[p])) {
        return "sssp: reached vertex " + std::to_string(v) +
               " has an unreached or invalid parent";
      }
      // A relaxation can only have produced d from a parent distance that
      // was at most the parent's current (monotone) distance.
      if (d + kDistEps < dist_[p] + sssp_edge_weight(p, v)) {
        return "sssp: distance at vertex " + std::to_string(v) +
               " undercuts its parent relaxation";
      }
      return {};
    };
    if (mode == AuditMode::kFull) {
      for (vertex_t v = 0; v < n; ++v) {
        if (std::string err = check(v); !err.empty()) return err;
      }
    } else {
      for (std::size_t i = 0; i < sample_size; ++i) {
        const auto v = static_cast<vertex_t>(rng.next_below(n));
        if (std::string err = check(v); !err.empty()) return err;
      }
    }
    return {};
  }

  ValidationReport validate(const graph::Csr& g,
                            const BfsResult& r) const override {
    const vertex_t n = g.num_vertices();
    if (r.values.size() != n || r.parents.size() != n) {
      return {false, "sssp: result arrays are missing or mis-sized"};
    }
    if (r.source >= n || r.values[r.source] != 0.0) {
      return {false, "sssp: source distance is not zero"};
    }
    for (vertex_t u = 0; u < n; ++u) {
      if (!reached(r.values[u])) continue;
      // Triangle inequality along every out-edge of a reached vertex; this
      // also proves every out-neighbor was reached.
      for (const vertex_t v : g.neighbors(u)) {
        if (v >= n) continue;  // tolerated corrupt adjacency (see cpu_bfs)
        if (!reached(r.values[v]) ||
            r.values[v] > r.values[u] + sssp_edge_weight(u, v) + kDistEps) {
          return {false,
                  "sssp: edge " + std::to_string(u) + "->" +
                      std::to_string(v) + " violates the triangle inequality"};
        }
      }
      if (u == r.source) continue;
      const vertex_t p = r.parents[u];
      if (p >= n || !reached(r.values[p]) ||
          std::abs(r.values[p] + sssp_edge_weight(p, u) - r.values[u]) >
              kDistEps) {
        return {false, "sssp: parent edge of vertex " + std::to_string(u) +
                           " does not produce its distance"};
      }
    }
    return {};
  }

  void finalize(BfsResult& r) const override {
    r.program = "sssp";
    const vertex_t n = g_->num_vertices();
    r.values.assign(n, kUnreachedSentinel);
    vertex_t visited = 0;
    for (vertex_t v = 0; v < n; ++v) {
      if (std::isfinite(dist_[v])) {
        r.values[v] = dist_[v];
        ++visited;
      }
    }
    r.parents = parent_;
    r.vertices_visited = visited;
  }

 private:
  std::size_t bucket_of(double dist) const {
    return static_cast<std::size_t>(dist / delta_);
  }

  const graph::Csr* g_;
  double delta_;
  vertex_t source_ = 0;
  std::vector<double> dist_;
  std::vector<vertex_t> parent_;
  std::vector<std::vector<vertex_t>> buckets_;
  // Decrease-only shadow refreshed by audits.
  std::vector<double> shadow_;
  bool shadow_ready_ = false;
};

// --- cc ---------------------------------------------------------------------

class CcProgram final : public VertexProgram {
 public:
  explicit CcProgram(const graph::Csr& g) : g_(&g) {}

  static constexpr ProgramTraits kTraits{
      .bounded_depth = true,
      .bounded_frontier = false,  // the first frontier is every vertex
      .symmetric = true,          // weakly connected on directed graphs
      .needs_source = false};
  static constexpr std::uint64_t kBytesPerVertex = sizeof(vertex_t);

  std::string_view name() const override { return "cc"; }
  ProgramTraits traits() const override { return kTraits; }

  void init(vertex_t source, std::vector<vertex_t>& frontier) override {
    (void)source;  // label propagation is source-independent
    const vertex_t n = g_->num_vertices();
    labels_.resize(n);
    std::iota(labels_.begin(), labels_.end(), vertex_t{0});
    shadow_ready_ = false;
    frontier.resize(n);
    std::iota(frontier.begin(), frontier.end(), vertex_t{0});
  }

  graph::edge_t relax_edges(vertex_t u, std::span<const vertex_t> nbrs,
                            std::vector<vertex_t>& improved) override {
    const auto n = static_cast<vertex_t>(labels_.size());
    // A self-loop cannot lower labels_[u] below itself.
    const vertex_t label = labels_[u];
    graph::edge_t inspected = 0;
    for (const vertex_t v : nbrs) {
      if (v >= n) continue;
      ++inspected;
      if (label < labels_[v]) {
        labels_[v] = label;
        improved.push_back(v);
      }
    }
    return inspected;
  }

  std::span<std::byte> raw_state_bytes() override {
    return std::as_writable_bytes(std::span<vertex_t>(labels_));
  }

  std::size_t state_footprint_bytes() const override {
    return labels_.size() * sizeof(vertex_t);
  }

  std::string audit(AuditMode mode, std::size_t sample_size,
                    SplitMix64& rng) override {
    const vertex_t n = g_->num_vertices();
    if (n == 0) return {};
    if (!shadow_ready_) {
      shadow_ = labels_;
      shadow_ready_ = true;
    }
    const auto check = [&](vertex_t v) -> std::string {
      const vertex_t label = labels_[v];
      // Labels start at the vertex id and only ever decrease.
      if (label > v) {
        return "cc: label at vertex " + std::to_string(v) +
               " exceeds the vertex id";
      }
      if (label > shadow_[v]) {
        return "cc: label at vertex " + std::to_string(v) +
               " increased between audits";
      }
      shadow_[v] = label;
      if (labels_[label] > label) {
        return "cc: label chain at vertex " + std::to_string(v) +
               " is not monotone";
      }
      return {};
    };
    if (mode == AuditMode::kFull) {
      for (vertex_t v = 0; v < n; ++v) {
        if (std::string err = check(v); !err.empty()) return err;
      }
    } else {
      for (std::size_t i = 0; i < sample_size; ++i) {
        const auto v = static_cast<vertex_t>(rng.next_below(n));
        if (std::string err = check(v); !err.empty()) return err;
      }
    }
    return {};
  }

  ValidationReport validate(const graph::Csr& g,
                            const BfsResult& r) const override {
    const vertex_t n = g.num_vertices();
    if (r.values.size() != n) {
      return {false, "cc: result values are missing or mis-sized"};
    }
    for (vertex_t u = 0; u < n; ++u) {
      const double label = r.values[u];
      if (!(label >= 0.0) || label > static_cast<double>(u)) {
        return {false,
                "cc: label at vertex " + std::to_string(u) + " out of range"};
      }
      const auto root = static_cast<vertex_t>(label);
      if (r.values[root] != label) {
        return {false, "cc: label at vertex " + std::to_string(u) +
                           " is not a fixpoint root"};
      }
      for (const vertex_t v : g.neighbors(u)) {
        if (v >= n) continue;
        if (r.values[v] != label) {
          return {false, "cc: edge " + std::to_string(u) + "-" +
                             std::to_string(v) +
                             " spans two different labels"};
        }
      }
    }
    return {};
  }

  void finalize(BfsResult& r) const override {
    r.program = "cc";
    r.values.assign(labels_.begin(), labels_.end());
    r.parents.clear();
    r.vertices_visited = g_->num_vertices();
  }

 private:
  const graph::Csr* g_;
  std::vector<vertex_t> labels_;
  std::vector<vertex_t> shadow_;
  bool shadow_ready_ = false;
};

// --- pagerank ---------------------------------------------------------------

class PagerankProgram final : public VertexProgram {
 public:
  PagerankProgram(const graph::Csr& g, double epsilon, double damping,
                  int max_iters)
      : g_(&g), epsilon_(epsilon), damping_(damping), max_iters_(max_iters) {}

  static constexpr ProgramTraits kTraits{
      .bounded_depth = false,     // supersteps = convergence artifact
      .bounded_frontier = false,  // every superstep touches all vertices
      .symmetric = false,
      .needs_source = false};
  // Rank plus next-superstep accumulator.
  static constexpr std::uint64_t kBytesPerVertex = 2 * sizeof(double);

  std::string_view name() const override { return "pagerank"; }
  ProgramTraits traits() const override { return kTraits; }

  void init(vertex_t source, std::vector<vertex_t>& frontier) override {
    (void)source;  // global pagerank is source-independent
    const vertex_t n = g_->num_vertices();
    const double uniform = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
    rank_.assign(n, uniform);
    next_.assign(n, 0.0);
    dangling_.clear();
    for (vertex_t v = 0; v < n; ++v) {
      if (g_->out_degree(v) == 0) dangling_.push_back(v);
    }
    last_diff_ = kInf;
    frontier.resize(n);
    std::iota(frontier.begin(), frontier.end(), vertex_t{0});
  }

  graph::edge_t relax_edges(vertex_t u, std::span<const vertex_t> nbrs,
                            std::vector<vertex_t>& improved) override {
    if (nbrs.empty()) return 0;
    const auto n = static_cast<vertex_t>(next_.size());
    // Pushes accumulate into next_; rank_ only changes in apply().
    const double share = rank_[u] / static_cast<double>(g_->out_degree(u));
    graph::edge_t inspected = 0;
    for (const vertex_t v : nbrs) {
      if (v >= n) continue;
      ++inspected;
      next_[v] += share;
      improved.push_back(v);
    }
    return inspected;
  }

  bool apply(int superstep) override {
    (void)superstep;
    const vertex_t n = g_->num_vertices();
    if (n == 0) return false;
    double dangling_mass = 0.0;
    for (const vertex_t v : dangling_) dangling_mass += rank_[v];
    const double teleport = (1.0 - damping_) / static_cast<double>(n);
    const double spread =
        damping_ * dangling_mass / static_cast<double>(n);
    double diff = 0.0;
    for (vertex_t v = 0; v < n; ++v) {
      const double updated = teleport + damping_ * next_[v] + spread;
      diff += std::abs(updated - rank_[v]);
      rank_[v] = updated;
      next_[v] = 0.0;
    }
    last_diff_ = diff;
    return true;
  }

  void select_frontier(const std::vector<vertex_t>& improved,
                       std::vector<vertex_t>& out) override {
    (void)improved;
    // Synchronous iteration: every vertex pushes every superstep until the
    // L1 movement converges (the test below ends the run).
    out.resize(g_->num_vertices());
    std::iota(out.begin(), out.end(), vertex_t{0});
  }

  bool converged(int superstep, std::size_t next_frontier) const override {
    (void)next_frontier;
    return last_diff_ < epsilon_ || superstep + 1 >= max_iters_;
  }

  std::span<std::byte> raw_state_bytes() override {
    return std::as_writable_bytes(std::span<double>(rank_));
  }

  std::size_t state_footprint_bytes() const override {
    return (rank_.size() + next_.size()) * sizeof(double);
  }

  std::string audit(AuditMode mode, std::size_t sample_size,
                    SplitMix64& rng) override {
    const vertex_t n = g_->num_vertices();
    if (n == 0) return {};
    // Mass conservation: ranks always sum to 1 at a superstep boundary.
    double mass = 0.0;
    for (const double r : rank_) mass += r;
    if (std::abs(mass - 1.0) >
        1e-9 * static_cast<double>(n) + 1e-9) {
      return "pagerank: rank mass " + std::to_string(mass) +
             " is not conserved";
    }
    const auto check = [&](vertex_t v) -> std::string {
      if (!(rank_[v] >= 0.0) || rank_[v] > 1.0) {
        return "pagerank: rank at vertex " + std::to_string(v) +
               " outside [0, 1]";
      }
      if (!(next_[v] >= 0.0)) {
        return "pagerank: negative accumulator at vertex " +
               std::to_string(v);
      }
      return {};
    };
    if (mode == AuditMode::kFull) {
      for (vertex_t v = 0; v < n; ++v) {
        if (std::string err = check(v); !err.empty()) return err;
      }
    } else {
      for (std::size_t i = 0; i < sample_size; ++i) {
        const auto v = static_cast<vertex_t>(rng.next_below(n));
        if (std::string err = check(v); !err.empty()) return err;
      }
    }
    return {};
  }

  ValidationReport validate(const graph::Csr& g,
                            const BfsResult& r) const override {
    const vertex_t n = g.num_vertices();
    if (r.values.size() != n) {
      return {false, "pagerank: result values are missing or mis-sized"};
    }
    double mass = 0.0;
    for (const double rank : r.values) {
      if (!(rank >= 0.0) || rank > 1.0) {
        return {false, "pagerank: a rank lies outside [0, 1]"};
      }
      mass += rank;
    }
    if (std::abs(mass - 1.0) > 1e-9 * static_cast<double>(n) + 1e-9) {
      return {false, "pagerank: rank mass " + std::to_string(mass) +
                         " is not conserved"};
    }
    // One extra iteration moves a converged vector by less than the
    // convergence epsilon (scaled for the contraction); a run cut off by
    // max_iters is exempt — mass conservation is all it promises.
    if (r.depth + 1 < max_iters_ && n > 0) {
      std::vector<double> pushed(n, 0.0);
      double dangling_mass = 0.0;
      for (vertex_t u = 0; u < n; ++u) {
        const auto degree = g.out_degree(u);
        if (degree == 0) {
          dangling_mass += r.values[u];
          continue;
        }
        const double share = r.values[u] / static_cast<double>(degree);
        for (const vertex_t v : g.neighbors(u)) {
          if (v < n) pushed[v] += share;
        }
      }
      const double teleport = (1.0 - damping_) / static_cast<double>(n);
      const double spread =
          damping_ * dangling_mass / static_cast<double>(n);
      double residual = 0.0;
      for (vertex_t v = 0; v < n; ++v) {
        residual += std::abs(teleport + damping_ * pushed[v] + spread -
                             r.values[v]);
      }
      if (residual > 10.0 * epsilon_ + 1e-12) {
        return {false, "pagerank: converged vector fails the one-iteration "
                       "residual check"};
      }
    }
    return {};
  }

  void finalize(BfsResult& r) const override {
    r.program = "pagerank";
    r.values = rank_;
    r.parents.clear();
    r.vertices_visited = g_->num_vertices();
  }

 private:
  const graph::Csr* g_;
  double epsilon_;
  double damping_;
  int max_iters_;
  std::vector<double> rank_;
  std::vector<double> next_;
  std::vector<vertex_t> dangling_;
  double last_diff_ = kInf;
};

// --- registry ---------------------------------------------------------------

struct ProgramEntry {
  ProgramTraits traits;
  // Per-vertex state bytes (admission estimate).
  std::uint64_t bytes_per_vertex;
  std::unique_ptr<VertexProgram> (*factory)(const graph::Csr&,
                                            const ProgramParams&,
                                            std::string*);
};

std::unique_ptr<VertexProgram> make_sssp(const graph::Csr& g,
                                         const ProgramParams& params,
                                         std::string* error) {
  if (!keys_allowed(params, "sssp", {"delta"}, error)) return nullptr;
  double delta = 4.0;
  if (!read_param(params, "sssp", "delta", 0.0, 1e9, &delta, error)) {
    return nullptr;
  }
  return std::make_unique<SsspProgram>(g, delta);
}

std::unique_ptr<VertexProgram> make_cc(const graph::Csr& g,
                                       const ProgramParams& params,
                                       std::string* error) {
  if (!keys_allowed(params, "cc", {}, error)) return nullptr;
  return std::make_unique<CcProgram>(g);
}

std::unique_ptr<VertexProgram> make_pagerank(const graph::Csr& g,
                                             const ProgramParams& params,
                                             std::string* error) {
  if (!keys_allowed(params, "pagerank", {"epsilon", "damping", "max_iters"},
                    error)) {
    return nullptr;
  }
  double epsilon = 1e-8;
  double damping = 0.85;
  double max_iters = 100.0;
  if (!read_param(params, "pagerank", "epsilon", 0.0, 1.0, &epsilon, error) ||
      !read_param(params, "pagerank", "damping", 0.0, 1.0, &damping, error) ||
      !read_param(params, "pagerank", "max_iters", 0.0, 1e6, &max_iters,
                  error)) {
    return nullptr;
  }
  return std::make_unique<PagerankProgram>(g, epsilon, damping,
                                           static_cast<int>(max_iters));
}

const std::map<std::string, ProgramEntry>& program_registry() {
  // Each program's class constants, so callers can ask about a program
  // without a graph to instantiate it over.
  static const std::map<std::string, ProgramEntry> registry = {
      {"sssp",
       {SsspProgram::kTraits, SsspProgram::kBytesPerVertex, &make_sssp}},
      {"cc", {CcProgram::kTraits, CcProgram::kBytesPerVertex, &make_cc}},
      {"pagerank",
       {PagerankProgram::kTraits, PagerankProgram::kBytesPerVertex,
        &make_pagerank}},
  };
  return registry;
}

// --- host references --------------------------------------------------------

BfsResult host_sssp(const graph::Csr& g, vertex_t source) {
  Timer timer;
  const vertex_t n = g.num_vertices();
  BfsResult r;
  r.source = source;
  std::vector<double> dist(n, kInf);
  r.parents.assign(n, graph::kInvalidVertex);
  r.levels.assign(n, -1);
  dist[source] = 0.0;
  r.parents[source] = source;
  r.levels[source] = 0;
  using Item = std::pair<double, vertex_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;  // stale entry
    for (const vertex_t v : g.neighbors(u)) {
      if (v >= n) continue;
      const double candidate = d + sssp_edge_weight(u, v);
      if (candidate < dist[v]) {
        dist[v] = candidate;
        r.parents[v] = u;
        r.levels[v] = r.levels[u] + 1;
        heap.emplace(candidate, v);
      }
    }
  }
  r.values.assign(n, kUnreachedSentinel);
  vertex_t visited = 0;
  graph::edge_t traversed = 0;
  std::int32_t depth = 0;
  for (vertex_t v = 0; v < n; ++v) {
    if (!std::isfinite(dist[v])) {
      r.levels[v] = -1;
      r.parents[v] = graph::kInvalidVertex;
      continue;
    }
    r.values[v] = dist[v];
    ++visited;
    traversed += g.out_degree(v);
    depth = std::max(depth, r.levels[v]);
  }
  r.vertices_visited = visited;
  r.edges_traversed = traversed;
  r.depth = depth;
  r.program = "sssp";
  r.time_ms = timer.millis();
  return r;
}

BfsResult host_cc(const graph::Csr& g, vertex_t source) {
  Timer timer;
  const vertex_t n = g.num_vertices();
  BfsResult r;
  r.source = source;
  // Union-find with path halving over the undirected closure of the edges.
  std::vector<vertex_t> uf(n);
  std::iota(uf.begin(), uf.end(), vertex_t{0});
  const auto find = [&](vertex_t v) {
    while (uf[v] != v) {
      uf[v] = uf[uf[v]];
      v = uf[v];
    }
    return v;
  };
  for (vertex_t u = 0; u < n; ++u) {
    for (const vertex_t v : g.neighbors(u)) {
      if (v >= n) continue;
      const vertex_t ru = find(u);
      const vertex_t rv = find(v);
      if (ru != rv) uf[std::max(ru, rv)] = std::min(ru, rv);
    }
  }
  // Roots carry the minimum id of their component by construction (unions
  // always point the larger root at the smaller).
  r.values.resize(n);
  r.levels.assign(n, 0);
  for (vertex_t v = 0; v < n; ++v) r.values[v] = find(v);
  r.vertices_visited = n;
  r.edges_traversed = g.num_edges();
  r.depth = 0;
  r.program = "cc";
  r.time_ms = timer.millis();
  return r;
}

BfsResult host_pagerank(const graph::Csr& g, vertex_t source, double epsilon,
                        double damping, int max_iters) {
  Timer timer;
  const vertex_t n = g.num_vertices();
  BfsResult r;
  r.source = source;
  const double uniform = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  std::vector<double> rank(n, uniform);
  std::vector<double> next(n, 0.0);
  int iters = 0;
  for (; iters < max_iters; ++iters) {
    double dangling_mass = 0.0;
    for (vertex_t u = 0; u < n; ++u) {
      const auto degree = g.out_degree(u);
      if (degree == 0) {
        dangling_mass += rank[u];
        continue;
      }
      const double share = rank[u] / static_cast<double>(degree);
      for (const vertex_t v : g.neighbors(u)) {
        if (v < n) next[v] += share;
      }
    }
    const double teleport =
        n > 0 ? (1.0 - damping) / static_cast<double>(n) : 0.0;
    const double spread =
        n > 0 ? damping * dangling_mass / static_cast<double>(n) : 0.0;
    double diff = 0.0;
    for (vertex_t v = 0; v < n; ++v) {
      const double updated = teleport + damping * next[v] + spread;
      diff += std::abs(updated - rank[v]);
      rank[v] = updated;
      next[v] = 0.0;
    }
    if (diff < epsilon) {
      ++iters;
      break;
    }
  }
  r.values = std::move(rank);
  r.levels.assign(n, 0);
  r.vertices_visited = n;
  r.edges_traversed = g.num_edges() * static_cast<graph::edge_t>(
                                          iters > 0 ? iters : 1);
  r.depth = iters;
  r.program = "pagerank";
  r.time_ms = timer.millis();
  return r;
}

}  // namespace

std::optional<std::string> ProgramParams::get(std::string_view key) const {
  for (const auto& [k, v] : entries) {
    if (k == key) return v;
  }
  return std::nullopt;
}

double ProgramParams::get_double(std::string_view key, double fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  const char* begin = value->c_str();
  char* end = nullptr;
  const double parsed = std::strtod(begin, &end);
  if (end == begin || *end != '\0') return fallback;
  return parsed;
}

bool VertexProgram::emit(graph::vertex_t v) const {
  (void)v;
  return true;
}

bool VertexProgram::apply(int superstep) {
  (void)superstep;
  return false;
}

void VertexProgram::select_frontier(const std::vector<graph::vertex_t>& improved,
                                    std::vector<graph::vertex_t>& out) {
  out.clear();
  for (const graph::vertex_t v : improved) {
    if (emit(v)) out.push_back(v);
  }
}

bool VertexProgram::converged(int superstep, std::size_t next_frontier) const {
  (void)superstep;
  return next_frontier == 0;
}

std::unique_ptr<VertexProgram> make_program(const std::string& name,
                                            const graph::Csr& g,
                                            const ProgramParams& params,
                                            std::string* error) {
  const auto& registry = program_registry();
  const auto it = registry.find(name);
  if (it == registry.end()) {
    if (error != nullptr) *error = "unknown program '" + name + "'";
    return nullptr;
  }
  return it->second.factory(g, params, error);
}

std::vector<std::string> program_names() {
  std::vector<std::string> names;
  names.reserve(program_registry().size());
  for (const auto& [name, entry] : program_registry()) names.push_back(name);
  return names;
}

bool is_program_name(const std::string& name) {
  return program_registry().count(name) != 0;
}

std::optional<ProgramTraits> program_traits(const std::string& name) {
  const auto& registry = program_registry();
  const auto it = registry.find(name);
  if (it == registry.end()) return std::nullopt;
  return it->second.traits;
}

std::uint64_t program_state_bytes(const std::string& name,
                                  graph::vertex_t num_vertices) {
  const auto& registry = program_registry();
  const auto it = registry.find(name);
  if (it == registry.end()) return 0;
  return it->second.bytes_per_vertex * num_vertices;
}

double sssp_edge_weight(graph::vertex_t u, graph::vertex_t v) {
  const std::uint64_t lo = std::min(u, v);
  const std::uint64_t hi = std::max(u, v);
  const std::uint64_t h = mix64((lo << 32) | hi);
  return 1.0 + static_cast<double>(h % 16);
}

BfsResult host_reference(const std::string& name, const graph::Csr& g,
                         graph::vertex_t source, const ProgramParams& params) {
  std::string error;
  // Param validation goes through the same per-program gate as the engine.
  if (make_program(name, g, params, &error) == nullptr) {
    throw std::invalid_argument("host_reference: " + error);
  }
  if (name == "sssp") return host_sssp(g, source);
  if (name == "cc") return host_cc(g, source);
  return host_pagerank(g, source, params.get_double("epsilon", 1e-8),
                       params.get_double("damping", 0.85),
                       static_cast<int>(params.get_double("max_iters", 100)));
}

}  // namespace ent::bfs
