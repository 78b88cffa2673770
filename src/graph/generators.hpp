// Graph generators.
//
// The paper evaluates on two synthetic families it defines precisely —
// Kronecker with (A,B,C) = (0.57,0.19,0.19) and R-MAT with (0.45,0.15,0.15)
// — plus real-world graphs we cannot redistribute. The real graphs are
// replaced by SocialProfile stand-ins: a configuration-model power-law
// generator parameterized by vertex count, average degree, maximum degree
// and hub concentration, matched per graph to the published statistics
// (Table 1, Figs. 5/6). High-diameter comparators for Fig. 14 (audikw1,
// roadCA, europe.osm) are replaced by a mesh, a 2-D road grid, and a
// long-path generator with matching degree character.
#pragma once

#include <cstdint>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace ent::graph {

// --- Paper-defined synthetic families -------------------------------------

struct RmatParams {
  int scale = 16;          // 2^scale vertices
  int edge_factor = 16;    // average out-degree before symmetrization
  double a = 0.45;
  double b = 0.15;
  double c = 0.15;         // d = 1 - a - b - c
  std::uint64_t seed = 1;
  bool symmetrize = false;  // Kronecker/Graph500 symmetrizes; GTgraph R-MAT
                            // emits directed edges
};

// Recursive-matrix edge sampling (Chakrabarti et al.); the Graph500
// Kronecker generator is the symmetrized special case below.
Csr generate_rmat(const RmatParams& params);

// One level of an R-MAT draw: the quadrant that uniform r in [0, 1) falls
// in, given the cumulative thresholds a, a+b and a+b+c. Top-left is
// r < a, top-right r < a+b, bottom-left r < a+b+c, bottom-right the rest.
// Computed without branches: a draw's quadrant is unpredictable, so an
// if-chain mispredicts on most levels of most edges.
struct RmatQuadrant {
  vertex_t src_bit;  // bottom half
  vertex_t dst_bit;  // right half
};

inline RmatQuadrant rmat_quadrant(double r, double a, double ab,
                                  double abc) {
  const bool past_a = r >= a;
  const bool past_ab = r >= ab;
  const bool past_abc = r >= abc;
  return {static_cast<vertex_t>(past_ab),
          static_cast<vertex_t>(past_a ^ past_ab ^ past_abc)};
}

struct KroneckerParams {
  int scale = 16;
  int edge_factor = 16;
  std::uint64_t seed = 1;
};

// Graph500-style Kron-Scale-EdgeFactor graph: (A,B,C) = (0.57,0.19,0.19),
// symmetrized, vertex labels shuffled so vertex id does not correlate with
// degree.
Csr generate_kronecker(const KroneckerParams& params);

// --- Real-graph stand-ins ---------------------------------------------------

struct SocialProfile {
  vertex_t num_vertices = 1 << 17;
  double average_degree = 16.0;   // directed-edge count / vertex count
  double exponent = 2.2;          // power-law exponent of the degree tail
  edge_t min_degree = 1;          // degree floor (Orkut-like dense cores)
  edge_t max_degree = 1 << 14;    // cap (the paper's "long tail" endpoint)
  // Fraction of vertices promoted to hubs with degree near max_degree. The
  // paper's Fig. 6 observation ("0.03% of vertices contribute 10% of
  // edges") comes from this mass.
  double hub_fraction = 3e-4;
  bool directed = false;
  std::uint64_t seed = 1;
};

// Configuration-model power-law graph matching the profile's degree
// character. Duplicate edges and self-loops are kept (§5: the paper performs
// no such pre-processing).
Csr generate_social(const SocialProfile& profile);

// --- High-diameter comparators (Fig. 14) ------------------------------------

// roadCA-like: 2-D grid road network with a fraction of streets removed and
// occasional diagonal shortcuts; degree <= 4-5, huge diameter.
Csr generate_road_grid(vertex_t width, vertex_t height, std::uint64_t seed);

// audikw1-like: finite-element mesh; near-uniform degree `k` over a ring
// lattice with local randomization, moderate diameter.
Csr generate_mesh(vertex_t num_vertices, unsigned k, std::uint64_t seed);

// europe.osm-like: mostly a collection of long paths (mean degree ~2.1, max
// ~12) with sparse junctions; extreme diameter.
Csr generate_long_path(vertex_t num_vertices, double shortcut_fraction,
                       std::uint64_t seed);

// europe.osm-like with a *bounded* diameter suitable for repeated BFS runs:
// a spine path of `spine` vertices, each growing a tooth path of `tooth`
// vertices (n = spine x (tooth + 1)). Mean degree ~2.1, max 3-4, diameter
// ~ spine + 2 x tooth.
Csr generate_comb(vertex_t spine, vertex_t tooth, std::uint64_t seed);

// Erdos-Renyi G(n, M)-style uniform random graph (test utility).
Csr generate_erdos_renyi(vertex_t num_vertices, edge_t num_edges,
                         bool directed, std::uint64_t seed);

}  // namespace ent::graph
