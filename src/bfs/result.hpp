// BFS result and per-level trace types shared by every BFS implementation
// (Enterprise, baselines, comparator models).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace ent::bfs {

enum class Direction { kTopDown, kBottomUp };

const char* to_string(Direction d);

// One kernel's contribution to a level, for the Fig. 8 timeline.
struct KernelTime {
  std::string name;
  double time_ms = 0.0;
};

struct LevelTrace {
  int level = 0;
  Direction direction = Direction::kTopDown;
  graph::vertex_t frontier_count = 0;     // vertices expanded this level
  graph::edge_t edges_inspected = 0;      // adjacency entries examined
  double queue_gen_ms = 0.0;              // frontier-queue generation
  double expand_ms = 0.0;                 // expansion + inspection kernels
  double comm_ms = 0.0;                   // multi-GPU status all-gather
  double total_ms = 0.0;
  // Direction-switch indicators observed before this level ran.
  double alpha = 0.0;                     // m_u / m_f  (Beamer)
  double gamma = 0.0;                     // F_h / T_h x 100%  (Enterprise)
  std::vector<KernelTime> kernels;
};

struct BfsResult {
  graph::vertex_t source = 0;
  std::vector<std::int32_t> levels;       // -1 = unvisited
  std::vector<graph::vertex_t> parents;   // kInvalidVertex = unvisited
  graph::vertex_t vertices_visited = 0;
  graph::edge_t edges_traversed = 0;      // directed edges counted for TEPS
  int depth = 0;                          // deepest level reached
  double time_ms = 0.0;                   // simulated device time
  std::vector<LevelTrace> level_trace;

  // --- vertex programs (bfs/program.hpp; empty for plain BFS) -------------
  std::string program;              // program that produced the run ("" =
                                    // classic BFS; "sssp", "cc", "pagerank")
  std::vector<double> values;       // per-vertex program output: distances
                                    // (sssp, -1 = unreached), component
                                    // labels (cc), ranks (pagerank)

  // --- resilience (bfs/resilient.hpp; defaults describe a clean run) ------
  int attempts = 1;                 // traversal attempts, including replays
  int faults_survived = 0;          // injected faults recovered from
  bool degraded = false;            // finished on a fallback engine
  std::string completed_by;         // engine that produced the tree ("" =
                                    // the engine originally asked for)

  double teps() const {
    return time_ms > 0.0
               ? static_cast<double>(edges_traversed) / (time_ms * 1e-3)
               : 0.0;
  }
};

// TEPS numerator (§5): directed edges traversed by the search, counting
// multiple edges and self-loops — the sum of out-degrees of visited
// vertices.
graph::edge_t count_traversed_edges(const graph::Csr& g,
                                    const std::vector<std::int32_t>& levels);

// Completes a finished search's result: stores `levels` (-1 = unvisited)
// and `parents`, and derives depth, vertices_visited and edges_traversed.
void finish_result(BfsResult& result, const graph::Csr& g,
                   std::vector<std::int32_t> levels,
                   std::vector<graph::vertex_t> parents);

}  // namespace ent::bfs
