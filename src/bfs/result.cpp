#include "bfs/result.hpp"

#include <algorithm>
#include <utility>

namespace ent::bfs {

const char* to_string(Direction d) {
  return d == Direction::kTopDown ? "top-down" : "bottom-up";
}

void finish_result(BfsResult& result, const graph::Csr& g,
                   std::vector<std::int32_t> levels,
                   std::vector<graph::vertex_t> parents) {
  // One pass: any level but -1 counts as visited (a corrupted negative
  // level included), while only levels >= 0 raise the depth and add their
  // out-degree to the TEPS numerator.
  std::int32_t depth = 0;
  graph::vertex_t visited = 0;
  graph::edge_t traversed = 0;
  for (graph::vertex_t v = 0; v < g.num_vertices(); ++v) {
    const std::int32_t l = levels[v];
    visited += l != -1 ? 1 : 0;
    if (l < 0) continue;
    depth = std::max(depth, l);
    traversed += g.out_degree(v);
  }
  result.depth = depth;
  result.vertices_visited = visited;
  result.edges_traversed = traversed;
  result.levels = std::move(levels);
  result.parents = std::move(parents);
}

}  // namespace ent::bfs
