#include "graph/degree.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ent::graph {

std::vector<double> degree_sequence(const Csr& g) {
  std::vector<double> out(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    out[v] = static_cast<double>(g.out_degree(v));
  }
  return out;
}

HubStats hub_stats_for_threshold(const Csr& g, edge_t tau) {
  HubStats s;
  s.threshold = tau;
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    const edge_t d = g.out_degree(v);
    if (d > tau) {
      ++s.num_hubs;
      s.hub_edges += d;
    }
  }
  if (g.num_vertices() > 0) {
    s.hub_vertex_share =
        static_cast<double>(s.num_hubs) / static_cast<double>(g.num_vertices());
  }
  if (g.num_edges() > 0) {
    s.hub_edge_share =
        static_cast<double>(s.hub_edges) / static_cast<double>(g.num_edges());
  }
  return s;
}

HubStats select_hub_threshold(const Csr& g, vertex_t target_hubs) {
  ENT_ASSERT(target_hubs >= 1);
  std::vector<edge_t> degrees(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) degrees[v] = g.out_degree(v);

  // tau = degree of the (target_hubs)-th highest vertex; everything strictly
  // above it qualifies, which keeps the hub count at or below the target
  // even when ties cross the boundary. Only that one order statistic is
  // needed, so a selection replaces a full sort.
  edge_t tau = 0;
  if (g.num_vertices() > target_hubs) {
    const auto nth = degrees.begin() + target_hubs;
    std::nth_element(degrees.begin(), nth, degrees.end(), std::greater<>());
    tau = *nth;
  }
  return hub_stats_for_threshold(g, tau);
}

std::vector<std::uint8_t> hub_flags(const Csr& g, edge_t tau) {
  std::vector<std::uint8_t> flags(g.num_vertices(), 0);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    flags[v] = g.out_degree(v) > tau ? 1 : 0;
  }
  return flags;
}

}  // namespace ent::graph
