#include "baselines/cpu_bfs.hpp"

#include <vector>

#include "util/assert.hpp"
#include "util/timer.hpp"

namespace ent::baselines {

bfs::BfsResult cpu_bfs(const graph::Csr& g, graph::vertex_t source) {
  using graph::vertex_t;
  const vertex_t n = g.num_vertices();
  ENT_ASSERT(source < n);

  Timer timer;
  bfs::BfsResult result;
  result.source = source;
  result.levels.assign(n, -1);
  result.parents.assign(n, graph::kInvalidVertex);
  result.levels[source] = 0;
  result.parents[source] = source;

  std::vector<vertex_t> current{source};
  std::vector<vertex_t> next;
  std::int32_t level = 0;
  // Depth, visited count and the TEPS numerator are counted here, apart
  // from finish_result, so engines checked against this reference are
  // checked against an independent count.
  result.vertices_visited = 1;
  result.edges_traversed = 0;
  while (!current.empty()) {
    next.clear();
    for (vertex_t v : current) {
      result.edges_traversed += g.out_degree(v);
      for (vertex_t w : g.neighbors(v)) {
        // Never fires on a valid CSR; tolerates a silently corrupted
        // adjacency entry when this engine runs as a fallback (the digest
        // scrub reports the corruption itself).
        if (w >= n) continue;
        if (result.levels[w] == -1) {
          result.levels[w] = level + 1;
          result.parents[w] = v;
          next.push_back(w);
        }
      }
    }
    current.swap(next);
    if (!current.empty()) {
      ++level;
      result.vertices_visited += static_cast<vertex_t>(current.size());
    }
  }
  result.depth = level;
  result.time_ms = timer.millis();
  return result;
}

}  // namespace ent::baselines
