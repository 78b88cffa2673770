// End-to-end correctness: every BFS implementation must produce the exact
// BFS level assignment of the sequential CPU reference and a valid parent
// tree, across graph families, sizes, directedness, and technique toggles.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "baselines/cpu_bfs.hpp"
#include "bfs/validate.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "gpusim/spec.hpp"

namespace ent {
namespace {

using graph::Csr;
using graph::vertex_t;

Csr make_graph(const std::string& family, std::uint64_t seed) {
  if (family == "kron") {
    graph::KroneckerParams p;
    p.scale = 11;
    p.edge_factor = 8;
    p.seed = seed;
    return graph::generate_kronecker(p);
  }
  if (family == "rmat") {
    graph::RmatParams p;
    p.scale = 11;
    p.edge_factor = 8;
    p.seed = seed;
    return graph::generate_rmat(p);  // directed
  }
  if (family == "social_undirected") {
    graph::SocialProfile p;
    p.num_vertices = 3000;
    p.average_degree = 10;
    p.directed = false;
    p.seed = seed;
    return graph::generate_social(p);
  }
  if (family == "social_directed") {
    graph::SocialProfile p;
    p.num_vertices = 3000;
    p.average_degree = 10;
    p.directed = true;
    p.seed = seed;
    return graph::generate_social(p);
  }
  if (family == "road") {
    return graph::generate_road_grid(48, 48, seed);
  }
  if (family == "comb") {
    return graph::generate_comb(64, 15, seed);
  }
  if (family == "er_directed") {
    return graph::generate_erdos_renyi(2048, 8192, true, seed);
  }
  ADD_FAILURE() << "unknown family " << family;
  return Csr();
}

void expect_matches_reference(const Csr& g, const bfs::BfsResult& got,
                              vertex_t source, const std::string& what) {
  const bfs::BfsResult ref = baselines::cpu_bfs(g, source);
  const auto levels = bfs::validate_levels(got.levels, ref.levels);
  EXPECT_TRUE(levels.ok) << what << ": " << levels.error;

  const Csr reverse = g.directed() ? g.reversed() : Csr();
  const auto tree =
      bfs::validate_tree(g, g.directed() ? reverse : g, got);
  EXPECT_TRUE(tree.ok) << what << ": " << tree.error;
  EXPECT_EQ(got.vertices_visited, ref.vertices_visited) << what;
  EXPECT_EQ(got.depth, ref.depth) << what;
  EXPECT_EQ(got.edges_traversed, ref.edges_traversed) << what;
}

// Sweep: family x (WB, HC, switch) toggles.
using Config = std::tuple<std::string, bool, bool, bool>;

class EnterpriseCorrectness : public ::testing::TestWithParam<Config> {};

TEST_P(EnterpriseCorrectness, MatchesCpuReference) {
  const auto& [family, wb, hc, allow_switch] = GetParam();
  const Csr g = make_graph(family, 99);
  enterprise::EnterpriseOptions opt;
  opt.workload_balancing = wb;
  opt.hub_cache = hc;
  opt.allow_direction_switch = allow_switch;
  enterprise::EnterpriseBfs bfs_sys(g, opt);

  for (vertex_t source : {vertex_t{0}, vertex_t{17}, vertex_t{1001}}) {
    if (source >= g.num_vertices() || g.out_degree(source) == 0) continue;
    const bfs::BfsResult got = bfs_sys.run(source);
    expect_matches_reference(g, got, source,
                             family + " src=" + std::to_string(source));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnterpriseCorrectness,
    ::testing::Combine(
        ::testing::Values("kron", "rmat", "social_undirected",
                          "social_directed", "road", "comb", "er_directed"),
        ::testing::Bool(),   // workload balancing
        ::testing::Bool(),   // hub cache
        ::testing::Bool()),  // direction switch
    [](const ::testing::TestParamInfo<Config>& param_info) {
      return std::get<0>(param_info.param) +
             (std::get<1>(param_info.param) ? "_wb" : "_nowb") +
             (std::get<2>(param_info.param) ? "_hc" : "_nohc") +
             (std::get<3>(param_info.param) ? "_hybrid" : "_topdown");
    });

// finish_result derives depth, vertices_visited and edges_traversed in one
// pass; it must agree with the two passes it replaced (depth and visited
// count over the levels, then the out-degree sum of levels >= 0), also for
// a level corrupted to a negative value other than -1.
TEST(BfsResult, FinishResultMatchesTwoPassFold) {
  const Csr g = make_graph("kron", 5);
  const vertex_t n = g.num_vertices();
  std::vector<std::int32_t> levels = baselines::cpu_bfs(g, 0).levels;
  ASSERT_NE(std::find(levels.begin(), levels.end(), -1), levels.end())
      << "the graph needs unvisited vertices";
  levels[n - 1] = -7;

  std::int32_t depth = 0;
  vertex_t visited = 0;
  for (const std::int32_t l : levels) {
    if (l != -1) {
      ++visited;
      depth = std::max(depth, l);
    }
  }
  graph::edge_t traversed = 0;
  for (vertex_t v = 0; v < n; ++v) {
    if (levels[v] >= 0) traversed += g.out_degree(v);
  }

  bfs::BfsResult r;
  const std::vector<vertex_t> parents(n, graph::kInvalidVertex);
  bfs::finish_result(r, g, levels, parents);
  EXPECT_EQ(r.depth, depth);
  EXPECT_EQ(r.vertices_visited, visited);
  EXPECT_EQ(r.edges_traversed, traversed);
  EXPECT_EQ(r.levels, levels);
  EXPECT_EQ(r.parents, parents);
}

TEST(EnterpriseBfs, IsolatedSourceVisitsOnlyItself) {
  // Vertex 5 has no edges at all.
  const Csr g = graph::build_csr(6, {{0, 1}, {1, 2}});
  enterprise::EnterpriseBfs bfs_sys(g);
  const auto r = bfs_sys.run(5);
  EXPECT_EQ(r.vertices_visited, 1u);
  EXPECT_EQ(r.depth, 0);
  EXPECT_EQ(r.levels[5], 0);
}

TEST(EnterpriseBfs, DisconnectedComponentStaysUnvisited) {
  const Csr g = graph::build_csr(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  enterprise::EnterpriseBfs bfs_sys(g);
  const auto r = bfs_sys.run(0);
  EXPECT_EQ(r.vertices_visited, 3u);
  EXPECT_EQ(r.levels[3], -1);
  EXPECT_EQ(r.parents[4], graph::kInvalidVertex);
}

TEST(EnterpriseBfs, SelfLoopsAndDuplicateEdgesAreHarmless) {
  const Csr g =
      graph::build_csr(4, {{0, 0}, {0, 1}, {0, 1}, {1, 2}, {2, 2}, {2, 3}});
  enterprise::EnterpriseBfs bfs_sys(g);
  const auto r = bfs_sys.run(0);
  expect_matches_reference(g, r, 0, "self-loops");
}

TEST(EnterpriseBfs, AlphaPolicyAlsoCorrect) {
  const Csr g = make_graph("kron", 3);
  enterprise::EnterpriseOptions opt;
  opt.direction.use_gamma = false;  // Beamer-style alpha switching
  enterprise::EnterpriseBfs bfs_sys(g, opt);
  const auto r = bfs_sys.run(1);
  expect_matches_reference(g, r, 1, "alpha policy");
}

TEST(EnterpriseBfs, RunIsRepeatable) {
  const Csr g = make_graph("social_undirected", 5);
  enterprise::EnterpriseBfs bfs_sys(g);
  const auto a = bfs_sys.run(3);
  const auto b = bfs_sys.run(3);
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_DOUBLE_EQ(a.time_ms, b.time_ms);  // simulator is deterministic
}

TEST(EnterpriseBfs, TracksLevelTrace) {
  const Csr g = make_graph("kron", 21);
  enterprise::EnterpriseBfs bfs_sys(g);
  vertex_t source = 0;
  while (g.out_degree(source) < 4) ++source;  // a source inside the core
  const auto r = bfs_sys.run(source);
  ASSERT_FALSE(r.level_trace.empty());
  graph::edge_t inspected = 0;
  for (const auto& t : r.level_trace) {
    EXPECT_GE(t.total_ms, 0.0);
    inspected += t.edges_inspected;
  }
  EXPECT_GT(inspected, 0u);
  // A Kronecker run should have switched to bottom-up at some level.
  bool saw_bottom_up = false;
  for (const auto& t : r.level_trace) {
    saw_bottom_up |= t.direction == bfs::Direction::kBottomUp;
  }
  EXPECT_TRUE(saw_bottom_up);
}

TEST(EnterpriseBfs, TepsPositiveAndConsistent) {
  const Csr g = make_graph("kron", 8);
  enterprise::EnterpriseBfs bfs_sys(g);
  const auto r = bfs_sys.run(0);
  EXPECT_GT(r.time_ms, 0.0);
  EXPECT_GT(r.teps(), 0.0);
  EXPECT_NEAR(r.teps(),
              static_cast<double>(r.edges_traversed) / (r.time_ms * 1e-3),
              1e-6);
}

}  // namespace
}  // namespace ent
