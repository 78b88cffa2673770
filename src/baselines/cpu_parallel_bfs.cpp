#include "baselines/cpu_parallel_bfs.hpp"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "util/assert.hpp"
#include "util/timer.hpp"

namespace ent::baselines {

using graph::vertex_t;

bfs::BfsResult cpu_parallel_bfs(const graph::Csr& g, vertex_t source,
                                const CpuParallelOptions& options) {
  const vertex_t n = g.num_vertices();
  ENT_ASSERT(source < n);
  unsigned threads = options.num_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }

  Timer timer;
  // Atomic level array: -1 unvisited; a successful CAS claims the vertex.
  std::unique_ptr<std::atomic<std::int32_t>[]> levels(
      new std::atomic<std::int32_t>[n]);
  for (vertex_t v = 0; v < n; ++v) {
    levels[v].store(-1, std::memory_order_relaxed);
  }
  std::vector<vertex_t> parents(n, graph::kInvalidVertex);
  levels[source].store(0, std::memory_order_relaxed);
  parents[source] = source;

  std::vector<vertex_t> frontier{source};
  std::vector<std::vector<vertex_t>> next_per_thread(threads);
  std::int32_t level = 0;

  while (!frontier.empty()) {
    const std::int32_t next_level = level + 1;
    auto worker = [&](unsigned tid) {
      auto& local_next = next_per_thread[tid];
      // Contiguous slice of the frontier per thread.
      const std::size_t chunk = (frontier.size() + threads - 1) / threads;
      const std::size_t lo = tid * chunk;
      const std::size_t hi = std::min(lo + chunk, frontier.size());
      for (std::size_t i = lo; i < hi; ++i) {
        const vertex_t v = frontier[i];
        for (vertex_t w : g.neighbors(v)) {
          if (w >= n) continue;  // corrupted adjacency entry (fallback duty)
          std::int32_t expected = -1;
          if (levels[w].load(std::memory_order_relaxed) == -1 &&
              levels[w].compare_exchange_strong(expected, next_level,
                                                std::memory_order_relaxed)) {
            parents[w] = v;  // the claiming thread owns the slot
            local_next.push_back(w);
          }
        }
      }
    };
    if (threads == 1) {
      worker(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(threads);
      for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
      for (std::thread& t : pool) t.join();
    }
    frontier.clear();
    for (auto& local : next_per_thread) {
      frontier.insert(frontier.end(), local.begin(), local.end());
      local.clear();
    }
    if (!frontier.empty()) ++level;
  }

  bfs::BfsResult result;
  result.source = source;
  std::vector<std::int32_t> final_levels(n);
  for (vertex_t v = 0; v < n; ++v) {
    final_levels[v] = levels[v].load(std::memory_order_relaxed);
  }
  bfs::finish_result(result, g, std::move(final_levels), std::move(parents));
  result.time_ms = timer.millis();
  return result;
}

}  // namespace ent::baselines
