#include "enterprise/direction.hpp"

namespace ent::enterprise {

double compute_alpha(graph::edge_t unexplored_edges,
                     graph::edge_t frontier_edges) {
  if (frontier_edges == 0) return 0.0;
  return static_cast<double>(unexplored_edges) /
         static_cast<double>(frontier_edges);
}

graph::edge_t frontier_out_edges(const graph::Csr& g,
                                 std::span<const graph::vertex_t> frontier) {
  graph::edge_t sum = 0;
  for (graph::vertex_t v : frontier) {
    if (v < g.num_vertices()) sum += g.out_degree(v);
  }
  return sum;
}

double compute_gamma(std::span<const graph::vertex_t> frontier,
                     const std::vector<std::uint8_t>& hub_flags,
                     graph::vertex_t total_hubs) {
  if (total_hubs == 0) return 0.0;
  graph::vertex_t in_queue = 0;
  // Bounds guard: never fires on a valid frontier, keeps an injected
  // silent flip in the queue from reading past the flag table.
  for (graph::vertex_t v : frontier) {
    if (v < hub_flags.size() && hub_flags[v] != 0) ++in_queue;
  }
  return 100.0 * static_cast<double>(in_queue) /
         static_cast<double>(total_hubs);
}

bool should_switch_to_bottom_up(const DirectionPolicy& policy, double alpha,
                                double gamma, bool frontier_growing) {
  if (policy.use_gamma) return gamma > policy.gamma_threshold_percent;
  return frontier_growing && alpha < policy.alpha_threshold;
}

}  // namespace ent::enterprise
