#include "graph/builder.hpp"

#include "graph/errors.hpp"

namespace ent::graph {

// Two-pass counting sort. Pass 1 buckets every directed edge's source by
// its destination; pass 2 walks the destinations in ascending order and
// appends each one to its sources' rows, so every row comes out sorted
// without a comparison sort. A symmetric twin is counted and bucketed in
// place rather than appended to `edges`, and a dropped self-loop is skipped
// in both passes. The edge multiset is kept exactly (the paper keeps
// duplicates and self-loops) unless the options drop them.
Csr build_csr(vertex_t num_vertices, std::vector<Edge> edges,
              const BuildOptions& options) {
  if (num_vertices > options.max_vertices) {
    // Checked before the offsets allocation below: this is the only
    // num_vertices-proportional allocation a corrupt header can trigger.
    throw GraphFormatError(
        {"<memory>", 0, 0},
        "vertex count " + std::to_string(num_vertices) +
            " exceeds BuildOptions.max_vertices=" +
            std::to_string(options.max_vertices) +
            " (likely corrupt header; raise the cap for genuine inputs)");
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.src >= num_vertices || e.dst >= num_vertices) {
      // Typed (not aborting): loaded edge lists reach here unchecked, and a
      // corrupt file must surface as a catchable ingestion error. The
      // "<memory>" location is rebound to the file path by load_csr_file.
      throw GraphFormatError(
          {"<memory>", i, 0},
          "edge " + std::to_string(i) + " endpoint out of range: (" +
              std::to_string(e.src) + ", " + std::to_string(e.dst) +
              ") with num_vertices=" + std::to_string(num_vertices));
    }
  }
  const std::size_t n = num_vertices;
  const bool twins = options.symmetrize;
  const bool drop_loops = options.remove_self_loops;

  // Pass 1: count each row (by source) and each bucket (by destination),
  // then bucket the sources into `cols`. `into[d]` is bucket d's fill
  // cursor; once filled it holds the bucket's end, bucket d+1's start.
  std::vector<edge_t> offsets(n + 1, 0);
  std::vector<edge_t> into(n + 1, 0);
  for (const Edge& e : edges) {
    const bool loop = e.src == e.dst;
    if (loop && drop_loops) continue;
    ++offsets[e.src + 1];
    ++into[e.dst + 1];
    if (twins && !loop) {
      ++offsets[e.dst + 1];
      ++into[e.src + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    offsets[v + 1] += offsets[v];
    into[v + 1] += into[v];
  }
  const edge_t total = offsets[n];
  std::vector<vertex_t> cols(total);
  for (const Edge& e : edges) {
    const bool loop = e.src == e.dst;
    if (loop && drop_loops) continue;
    cols[into[e.dst]++] = e.src;
    if (twins && !loop) cols[into[e.src]++] = e.dst;
  }

  // Pass 2: destinations in ascending order, appended to their sources'
  // rows. The edge list is spent, and its storage (two ids per Edge, at
  // least `total` ids) holds the rows while they fill, so the build needs
  // no third edge-sized array. `offsets[s]` is row s's fill cursor; once
  // filled it holds row s+1's start, so one shift restores the offsets.
  const auto row_slot = [&edges](edge_t k) -> vertex_t& {
    Edge& pair = edges[k >> 1];
    return (k & 1) != 0 ? pair.dst : pair.src;
  };
  edge_t begin = 0;
  for (std::size_t d = 0; d < n; ++d) {
    const edge_t end = into[d];
    for (edge_t k = begin; k < end; ++k) {
      row_slot(offsets[cols[k]]++) = static_cast<vertex_t>(d);
    }
    begin = end;
  }
  for (edge_t k = 0; k < total; ++k) cols[k] = row_slot(k);
  for (std::size_t v = n; v > 0; --v) offsets[v] = offsets[v - 1];
  offsets[0] = 0;

  if (options.remove_duplicates) {
    // Rows are sorted, so repeats are adjacent: one compaction pass.
    edge_t kept = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const edge_t row_begin = offsets[v];
      const edge_t row_end = offsets[v + 1];
      offsets[v] = kept;
      for (edge_t k = row_begin; k < row_end; ++k) {
        if (k == row_begin || cols[k] != cols[kept - 1]) {
          cols[kept++] = cols[k];
        }
      }
    }
    offsets[n] = kept;
    cols.resize(kept);
  }
  return Csr(num_vertices, std::move(offsets), std::move(cols),
             options.directed);
}

}  // namespace ent::graph
