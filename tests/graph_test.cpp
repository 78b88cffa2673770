// Tests for the CSR graph, builder, I/O, degree analytics, and partitioner.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/degree.hpp"
#include "graph/errors.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "util/random.hpp"

namespace ent::graph {
namespace {

Csr diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
  return build_csr(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
}

TEST(Csr, BasicAccessors) {
  const Csr g = diamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(3), 0u);
  const auto n0 = g.neighbors(0);
  EXPECT_EQ(std::vector<vertex_t>(n0.begin(), n0.end()),
            (std::vector<vertex_t>{1, 2}));
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.0);
  EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Csr, ReversedSwapsDirections) {
  const Csr g = diamond();
  const Csr r = g.reversed();
  EXPECT_EQ(r.num_edges(), g.num_edges());
  const auto in3 = r.neighbors(3);
  EXPECT_EQ(std::vector<vertex_t>(in3.begin(), in3.end()),
            (std::vector<vertex_t>{1, 2}));
  EXPECT_EQ(r.out_degree(0), 0u);
}

TEST(Csr, ReverseOfReverseIsIdentity) {
  const Csr g = diamond();
  const Csr rr = g.reversed().reversed();
  ASSERT_EQ(rr.num_vertices(), g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = rr.neighbors(v);
    EXPECT_EQ(std::vector<vertex_t>(a.begin(), a.end()),
              std::vector<vertex_t>(b.begin(), b.end()));
  }
}

TEST(Builder, SymmetrizeDoublesEdges) {
  BuildOptions opts;
  opts.symmetrize = true;
  opts.directed = false;
  const Csr g = build_csr(3, {{0, 1}, {1, 2}}, opts);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(1), 2u);
}

TEST(Builder, SelfLoopSymmetrizedOnce) {
  BuildOptions opts;
  opts.symmetrize = true;
  const Csr g = build_csr(2, {{0, 0}, {0, 1}}, opts);
  // (0,0) stays single; (0,1) gains (1,0).
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Builder, KeepsDuplicatesByDefault) {
  const Csr g = build_csr(2, {{0, 1}, {0, 1}, {0, 0}});
  EXPECT_EQ(g.num_edges(), 3u);  // the paper performs no pre-processing
}

TEST(Builder, RemoveDuplicatesAndSelfLoops) {
  BuildOptions opts;
  opts.remove_duplicates = true;
  opts.remove_self_loops = true;
  const Csr g = build_csr(2, {{0, 1}, {0, 1}, {0, 0}}, opts);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Builder, SortsNeighbors) {
  const Csr g = build_csr(4, {{0, 3}, {0, 1}, {0, 2}});
  const auto n = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
}

// The sort-based builder build_csr replaced, kept as the oracle: append
// twins, erase self-loops, globally sort and unique for duplicates, scatter
// by source, then sort every row.
Csr sorting_reference(vertex_t n, std::vector<Edge> edges,
                      const BuildOptions& options) {
  if (options.symmetrize) {
    const std::size_t original = edges.size();
    for (std::size_t i = 0; i < original; ++i) {
      if (edges[i].src != edges[i].dst) {
        edges.push_back({edges[i].dst, edges[i].src});
      }
    }
  }
  if (options.remove_self_loops) {
    std::erase_if(edges, [](const Edge& e) { return e.src == e.dst; });
  }
  if (options.remove_duplicates) {
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return a.src != b.src ? a.src < b.src : a.dst < b.dst;
    });
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }
  std::vector<edge_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges) ++offsets[e.src + 1];
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<vertex_t> cols(edges.size());
  std::vector<edge_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) cols[cursor[e.src]++] = e.dst;
  for (vertex_t v = 0; v < n; ++v) {
    std::sort(cols.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              cols.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
  }
  return Csr(n, std::move(offsets), std::move(cols), options.directed);
}

// Seeded edge list over n vertices: uniform edges plus self-loops, exact
// repeats and a hub (vertex n/2) on both ends of many edges.
std::vector<Edge> messy_edges(vertex_t n, std::size_t count,
                              std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<vertex_t>(rng.next_below(n));
    const auto v = static_cast<vertex_t>(rng.next_below(n));
    switch (rng.next_below(5)) {
      case 0: edges.push_back({u, u}); break;
      case 1: edges.push_back({n / 2, v}); break;
      case 2: edges.push_back({u, n / 2}); break;
      default: edges.push_back({u, v}); break;
    }
    if (rng.next_below(4) == 0) edges.push_back(edges.back());
  }
  return edges;
}

TEST(Builder, MatchesSortingReference) {
  struct Case {
    vertex_t n;
    std::vector<Edge> edges;
  };
  std::vector<Case> cases;
  cases.push_back({1, {}});
  cases.push_back({1, {{0, 0}, {0, 0}}});
  cases.push_back({5, {}});
  cases.push_back({3, {{2, 1}, {1, 2}, {2, 1}, {0, 0}, {2, 2}, {1, 0}}});
  cases.push_back({7, messy_edges(7, 60, 1)});
  cases.push_back({64, messy_edges(64, 500, 2)});
  cases.push_back({1000, messy_edges(1000, 5000, 3)});
  for (int mask = 0; mask < 8; ++mask) {
    BuildOptions opts;
    opts.symmetrize = (mask & 1) != 0;
    opts.remove_self_loops = (mask & 2) != 0;
    opts.remove_duplicates = (mask & 4) != 0;
    opts.directed = !opts.symmetrize;
    for (const Case& c : cases) {
      SCOPED_TRACE("options mask " + std::to_string(mask) + ", n " +
                   std::to_string(c.n) + ", " +
                   std::to_string(c.edges.size()) + " edges");
      const Csr want = sorting_reference(c.n, c.edges, opts);
      const Csr got = build_csr(c.n, c.edges, opts);
      EXPECT_EQ(got.num_vertices(), want.num_vertices());
      EXPECT_EQ(got.directed(), want.directed());
      EXPECT_TRUE(std::ranges::equal(got.row_offsets(), want.row_offsets()));
      EXPECT_TRUE(std::ranges::equal(got.col_indices(), want.col_indices()));
    }
  }
}

TEST(Builder, OutOfRangeNamesInputIndexUnderEveryOption) {
  // The range check runs on the input before any twin, drop or dedupe, so
  // the reported index is the edge's position in the caller's list.
  for (int mask = 0; mask < 8; ++mask) {
    BuildOptions opts;
    opts.symmetrize = (mask & 1) != 0;
    opts.remove_self_loops = (mask & 2) != 0;
    opts.remove_duplicates = (mask & 4) != 0;
    try {
      build_csr(4, {{1, 1}, {3, 2}, {3, 2}, {2, 9}, {5, 0}}, opts);
      FAIL() << "expected GraphFormatError, mask " << mask;
    } catch (const GraphFormatError& e) {
      EXPECT_EQ(e.offset(), 3u) << "mask " << mask;
      EXPECT_NE(std::string(e.what()).find("(2, 9)"), std::string::npos);
    }
  }
}

// ---- degree / hubs ------------------------------------------------------------

TEST(Degree, SequenceMatchesOutDegrees) {
  const Csr g = diamond();
  const auto seq = degree_sequence(g);
  EXPECT_EQ(seq, (std::vector<double>{2, 1, 1, 0}));
}

TEST(Degree, HubThresholdSelectsTopVertices) {
  // Star: vertex 0 has degree 10, others degree 0.
  std::vector<Edge> edges;
  for (vertex_t i = 1; i <= 10; ++i) edges.push_back({0, i});
  const Csr g = build_csr(11, std::move(edges));
  const HubStats hubs = select_hub_threshold(g, 1);
  EXPECT_EQ(hubs.num_hubs, 1u);
  EXPECT_EQ(hubs.hub_edges, 10u);
  EXPECT_DOUBLE_EQ(hubs.hub_edge_share, 1.0);
  const auto flags = hub_flags(g, hubs.threshold);
  EXPECT_EQ(flags[0], 1);
  EXPECT_EQ(flags[1], 0);
}

TEST(Degree, HubCountNeverExceedsTarget) {
  std::vector<Edge> edges;
  for (vertex_t v = 0; v < 64; ++v) {
    for (vertex_t k = 0; k <= v % 8; ++k) edges.push_back({v, (v + k + 1) % 64});
  }
  const Csr g = build_csr(64, std::move(edges));
  for (vertex_t target : {1u, 4u, 16u}) {
    const HubStats hubs = select_hub_threshold(g, target);
    EXPECT_LE(hubs.num_hubs, target) << "target " << target;
  }
}

TEST(Degree, HubThresholdMatchesFullSort) {
  // Many vertices share each degree, so ties straddle every cut; tau must be
  // the (target+1)-th largest degree exactly as a full descending sort has it.
  std::vector<Edge> edges;
  SplitMix64 rng(5);
  const vertex_t n = 300;
  for (vertex_t v = 0; v < n; ++v) {
    const auto degree = static_cast<vertex_t>(rng.next_below(6) * 4);
    for (vertex_t k = 0; k < degree; ++k) {
      edges.push_back({v, static_cast<vertex_t>(rng.next_below(n))});
    }
  }
  const Csr g = build_csr(n, std::move(edges));
  std::vector<edge_t> sorted(n);
  for (vertex_t v = 0; v < n; ++v) sorted[v] = g.out_degree(v);
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  for (vertex_t target : {1u, 7u, 49u, 50u, 51u, 150u, 299u, 300u, 400u}) {
    const edge_t want = target < n ? sorted[target] : 0;
    const HubStats hubs = select_hub_threshold(g, target);
    EXPECT_EQ(hubs.threshold, want) << "target " << target;
    EXPECT_EQ(hubs.num_hubs,
              static_cast<vertex_t>(std::count_if(
                  sorted.begin(), sorted.end(),
                  [&](edge_t d) { return d > want; })))
        << "target " << target;
  }
}

// ---- io -----------------------------------------------------------------------

TEST(Io, TextRoundTrip) {
  EdgeList list;
  list.num_vertices = 5;
  list.edges = {{0, 1}, {3, 4}, {2, 2}};
  std::stringstream ss;
  write_edge_list_text(ss, list);
  const EdgeList back = read_edge_list_text(ss);
  EXPECT_EQ(back.num_vertices, 5u);
  EXPECT_EQ(back.edges, list.edges);
}

TEST(Io, TextSkipsComments) {
  std::stringstream ss("# header\n0 1\n% other comment\n1 2\n");
  const EdgeList list = read_edge_list_text(ss);
  EXPECT_EQ(list.edges.size(), 2u);
  EXPECT_EQ(list.num_vertices, 3u);
}

TEST(Io, BinaryRoundTrip) {
  EdgeList list;
  list.num_vertices = 100;
  for (vertex_t i = 0; i + 1 < 100; ++i) list.edges.push_back({i, i + 1});
  std::stringstream ss;
  write_edge_list_binary(ss, list);
  const EdgeList back = read_edge_list_binary(ss);
  EXPECT_EQ(back.num_vertices, list.num_vertices);
  EXPECT_EQ(back.edges, list.edges);
}

TEST(Io, BinaryRejectsBadMagic) {
  std::stringstream ss("XXXXgarbage");
  EXPECT_THROW(read_edge_list_binary(ss), std::runtime_error);
}

TEST(Io, MatrixMarketPattern) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% comment\n"
      "3 3 2\n"
      "1 2\n"
      "3 1\n");
  const EdgeList list = read_matrix_market(ss);
  EXPECT_EQ(list.num_vertices, 3u);
  ASSERT_EQ(list.edges.size(), 2u);
  EXPECT_EQ(list.edges[0], (Edge{0, 1}));
  EXPECT_EQ(list.edges[1], (Edge{2, 0}));
}

TEST(Io, MatrixMarketRejectsMissingBanner) {
  std::stringstream ss("3 3 1\n1 2\n");
  EXPECT_THROW(read_matrix_market(ss), std::runtime_error);
}

// ---- partition ----------------------------------------------------------------

class PartitionTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PartitionTest, EqualVerticesCoversAll) {
  const unsigned parts = GetParam();
  const auto ranges = partition_equal_vertices(1003, parts);
  ASSERT_EQ(ranges.size(), parts);
  EXPECT_TRUE(covers_all(ranges, 1003));
  // Near-equal: sizes differ by at most one.
  vertex_t lo = ranges[0].size();
  vertex_t hi = ranges[0].size();
  for (const auto& r : ranges) {
    lo = std::min(lo, r.size());
    hi = std::max(hi, r.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST_P(PartitionTest, EqualEdgesCoversAll) {
  std::vector<Edge> edges;
  for (vertex_t v = 0; v < 200; ++v) {
    for (vertex_t k = 0; k < (v % 13); ++k) edges.push_back({v, (v + k) % 200});
  }
  const Csr g = build_csr(200, std::move(edges));
  const auto ranges = partition_equal_edges(g, GetParam());
  ASSERT_EQ(ranges.size(), GetParam());
  EXPECT_TRUE(covers_all(ranges, g.num_vertices()));
}

INSTANTIATE_TEST_SUITE_P(Parts, PartitionTest, ::testing::Values(1, 2, 3, 8));

TEST(Partition, ExtractPreservesOwnedEdges) {
  const Csr g = diamond();
  const auto ranges = partition_equal_vertices(4, 2);
  const Csr p0 = extract_partition(g, ranges[0]);
  const Csr p1 = extract_partition(g, ranges[1]);
  EXPECT_EQ(p0.num_edges() + p1.num_edges(), g.num_edges());
  EXPECT_EQ(p0.num_vertices(), g.num_vertices());  // global id space kept
  EXPECT_EQ(p0.out_degree(0), 2u);
  EXPECT_EQ(p0.out_degree(2), 0u);  // owned by partition 1
  EXPECT_EQ(p1.out_degree(2), 1u);
}

}  // namespace
}  // namespace ent::graph
