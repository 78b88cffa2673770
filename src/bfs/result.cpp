#include "bfs/result.hpp"

#include <algorithm>
#include <utility>

namespace ent::bfs {

const char* to_string(Direction d) {
  return d == Direction::kTopDown ? "top-down" : "bottom-up";
}

graph::edge_t count_traversed_edges(const graph::Csr& g,
                                    const std::vector<std::int32_t>& levels) {
  graph::edge_t m = 0;
  for (graph::vertex_t v = 0; v < g.num_vertices(); ++v) {
    if (levels[v] >= 0) m += g.out_degree(v);
  }
  return m;
}

void finish_result(BfsResult& result, const graph::Csr& g,
                   std::vector<std::int32_t> levels,
                   std::vector<graph::vertex_t> parents) {
  result.depth = 0;
  result.vertices_visited = 0;
  for (const std::int32_t l : levels) {
    if (l != -1) {
      ++result.vertices_visited;
      result.depth = std::max(result.depth, l);
    }
  }
  result.levels = std::move(levels);
  result.parents = std::move(parents);
  result.edges_traversed = count_traversed_edges(g, result.levels);
}

}  // namespace ent::bfs
