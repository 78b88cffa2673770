// Edge-list -> CSR builder.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace ent::graph {

struct BuildOptions {
  // Treat every input edge as two directed edges (the paper counts each
  // undirected edge twice).
  bool symmetrize = false;
  // Drop (u, u) edges. The paper keeps them; off by default.
  bool remove_self_loops = false;
  // Drop repeated (u, v) pairs. The paper keeps them; off by default.
  bool remove_duplicates = false;
  // Whether the resulting Csr reports itself directed.
  bool directed = true;
  // Allocation-bomb guard: the CSR row-offset array is num_vertices+1
  // 8-byte entries, allocated before any edge is inspected, so a corrupt
  // header claiming ~2^32 vertices would commit tens of GB on the word of
  // a 4-byte field. Vertex counts above this cap throw the typed
  // GraphFormatError every other malformed input throws. The default
  // (256 Mi vertices, a 2 GiB offset array) is far above anything the
  // simulator can traverse; raise it deliberately for bigger inputs.
  vertex_t max_vertices = 1u << 28;
};

// Builds a CSR over vertices [0, num_vertices) in linear time. Every
// adjacency list comes out sorted ascending (the paper notes most inputs
// arrive sorted; sorted lists also make adjacency loads sequential), and
// the directed-edge multiset is kept exactly unless the options drop
// self-loops or duplicates. Edges referencing vertices outside the range
// throw graph::GraphFormatError (graph/errors.hpp) naming the offending
// edge's index in `edges` and its endpoints.
Csr build_csr(vertex_t num_vertices, std::vector<Edge> edges,
              const BuildOptions& options = {});

}  // namespace ent::graph
