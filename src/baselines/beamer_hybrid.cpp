#include "baselines/beamer_hybrid.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/timer.hpp"

namespace ent::baselines {

using graph::edge_t;
using graph::vertex_t;

bfs::BfsResult beamer_hybrid_bfs(const graph::Csr& g,
                                 const graph::Csr& in_edges,
                                 vertex_t source,
                                 const BeamerOptions& options) {
  const vertex_t n = g.num_vertices();
  ENT_ASSERT(source < n);
  ENT_ASSERT(in_edges.num_vertices() == n);

  Timer timer;
  bfs::BfsResult result;
  result.source = source;
  result.levels.assign(n, -1);
  result.parents.assign(n, graph::kInvalidVertex);
  result.levels[source] = 0;
  result.parents[source] = source;

  std::vector<vertex_t> frontier{source};
  std::size_t prev_frontier_size = 0;
  bool bottom_up = false;
  std::int32_t level = 0;
  edge_t visited_degree_sum = g.out_degree(source);
  const edge_t total_edges = g.num_edges();

  while (!frontier.empty()) {
    bfs::LevelTrace trace;
    trace.level = level;
    trace.frontier_count = static_cast<vertex_t>(frontier.size());

    edge_t m_f = 0;
    for (vertex_t v : frontier) m_f += g.out_degree(v);
    const edge_t m_u = total_edges - visited_degree_sum;
    trace.alpha = m_f == 0 ? 0.0
                           : static_cast<double>(m_u) /
                                 static_cast<double>(m_f);

    if (!bottom_up && level > 0 &&
        frontier.size() > prev_frontier_size &&
        trace.alpha < options.alpha) {
      bottom_up = true;
    } else if (bottom_up &&
               static_cast<double>(frontier.size()) <
                   static_cast<double>(n) / options.beta) {
      bottom_up = false;
    }
    trace.direction =
        bottom_up ? bfs::Direction::kBottomUp : bfs::Direction::kTopDown;

    std::vector<vertex_t> next;
    if (!bottom_up) {
      for (vertex_t v : frontier) {
        for (vertex_t w : g.neighbors(v)) {
          ++trace.edges_inspected;
          if (result.levels[w] == -1) {
            result.levels[w] = level + 1;
            result.parents[w] = v;
            next.push_back(w);
          }
        }
      }
    } else {
      for (vertex_t v = 0; v < n; ++v) {
        if (result.levels[v] != -1) continue;
        for (vertex_t u : in_edges.neighbors(v)) {
          ++trace.edges_inspected;
          if (result.levels[u] != -1 && result.levels[u] <= level) {
            result.levels[v] = level + 1;
            result.parents[v] = u;
            next.push_back(v);
            break;
          }
        }
      }
    }
    for (vertex_t v : next) visited_degree_sum += g.out_degree(v);
    result.level_trace.push_back(std::move(trace));
    prev_frontier_size = frontier.size();
    frontier.swap(next);
    ++level;
  }

  bfs::finish_result(result, g, std::move(result.levels),
                     std::move(result.parents));
  result.time_ms = timer.millis();
  return result;
}

}  // namespace ent::baselines
