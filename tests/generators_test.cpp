// Tests for the graph generators: determinism, size targets, degree
// character (power-law tails, hub mass), and the structural properties the
// high-diameter stand-ins rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace ent::graph {
namespace {

TEST(Rmat, SizeAndDeterminism) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 3;
  const Csr a = generate_rmat(p);
  const Csr b = generate_rmat(p);
  EXPECT_EQ(a.num_vertices(), 1024u);
  EXPECT_EQ(a.num_edges(), 1024u * 8u);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::equal(a.col_indices().begin(), a.col_indices().end(),
                         b.col_indices().begin()));
}

TEST(Rmat, SeedChangesGraph) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 3;
  const Csr a = generate_rmat(p);
  p.seed = 4;
  const Csr b = generate_rmat(p);
  EXPECT_FALSE(std::equal(a.col_indices().begin(), a.col_indices().end(),
                          b.col_indices().begin()));
}

// The R-MAT draw's quadrant if-chain the branch-free rmat_quadrant replaced.
RmatQuadrant if_chain_quadrant(double r, double a, double b, double c) {
  if (r < a) return {0, 0};
  if (r < a + b) return {0, 1};
  if (r < a + b + c) return {1, 0};
  return {1, 1};
}

TEST(Generators, RmatQuadrantMatchesIfChain) {
  struct Params {
    double a, b, c;
  };
  const Params params[] = {{0.45, 0.15, 0.15},  // generate_rmat default
                           {0.57, 0.19, 0.19},  // Graph500 Kronecker
                           {0.25, 0.25, 0.25},
                           {0.0, 0.5, 0.0},
                           {0.3, 0.0, 0.7}};
  SplitMix64 rng(17);
  for (const Params& p : params) {
    const double ab = p.a + p.b;
    const double abc = ab + p.c;
    std::vector<double> draws = {0.0, std::nextafter(1.0, 0.0)};
    for (const double t : {p.a, ab, abc}) {
      // Exactly on each threshold and one ulp either side of it.
      draws.insert(draws.end(), {t, std::nextafter(t, 0.0),
                                 std::nextafter(t, 1.0)});
    }
    for (int i = 0; i < 10000; ++i) draws.push_back(rng.next_double());
    for (const double r : draws) {
      const RmatQuadrant want = if_chain_quadrant(r, p.a, p.b, p.c);
      const RmatQuadrant got = rmat_quadrant(r, p.a, ab, abc);
      EXPECT_EQ(got.src_bit, want.src_bit) << "r " << r << " a " << p.a;
      EXPECT_EQ(got.dst_bit, want.dst_bit) << "r " << r << " a " << p.a;
    }
  }
}

TEST(Kronecker, SymmetrizedAndSkewed) {
  KroneckerParams p;
  p.scale = 12;
  p.edge_factor = 16;
  p.seed = 5;
  const Csr g = generate_kronecker(p);
  EXPECT_EQ(g.num_vertices(), 4096u);
  EXPECT_FALSE(g.directed());
  // Symmetrization roughly doubles the edge factor (self-loops excepted).
  EXPECT_GT(g.num_edges(), 4096u * 16u);
  // Kronecker graphs are heavy-tailed: max degree far above the mean.
  EXPECT_GT(static_cast<double>(g.max_degree()), 10.0 * g.average_degree());
}

TEST(Kronecker, UndirectedEdgesComeInPairs) {
  KroneckerParams p;
  p.scale = 9;
  p.edge_factor = 4;
  p.seed = 11;
  const Csr g = generate_kronecker(p);
  // Every directed edge u->v (u != v) must have a matching v->u.
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    for (vertex_t v : g.neighbors(u)) {
      if (v == u) continue;
      const auto back = g.neighbors(v);
      EXPECT_TRUE(std::find(back.begin(), back.end(), u) != back.end())
          << u << "->" << v;
    }
  }
}

class SocialProfileTest : public ::testing::TestWithParam<double> {};

TEST_P(SocialProfileTest, HitsAverageDegree) {
  SocialProfile p;
  p.num_vertices = 1 << 14;
  p.average_degree = GetParam();
  p.max_degree = 4096;
  p.directed = false;
  p.seed = 7;
  const Csr g = generate_social(p);
  EXPECT_EQ(g.num_vertices(), p.num_vertices);
  // Undirected build symmetrizes the stub pairing, so the directed-edge
  // average lands near 2x the profile target over 2 (i.e., the target).
  EXPECT_NEAR(g.average_degree(), p.average_degree, p.average_degree * 0.25);
}

INSTANTIATE_TEST_SUITE_P(AvgDegrees, SocialProfileTest,
                         ::testing::Values(4.0, 16.0, 64.0));

TEST(SocialProfile, PowerLawTail) {
  SocialProfile p;
  p.num_vertices = 1 << 15;
  p.average_degree = 16.0;
  p.exponent = 2.1;
  p.max_degree = 8192;
  p.hub_fraction = 5e-4;
  p.seed = 13;
  const Csr g = generate_social(p);
  const auto degrees = degree_sequence(g);
  // Small-world character (§2.3): most vertices small, hubs own outsized
  // edge share.
  EXPECT_GT(fraction_below(degrees, 32.0), 0.5);
  const HubStats hubs = select_hub_threshold(g, 64);
  EXPECT_GT(hubs.hub_edge_share, 0.05);
  EXPECT_LT(hubs.hub_vertex_share, 0.01);
}

TEST(SocialProfile, DirectedGraphIsDirected) {
  SocialProfile p;
  p.num_vertices = 4096;
  p.directed = true;
  p.seed = 2;
  const Csr g = generate_social(p);
  EXPECT_TRUE(g.directed());
}

TEST(RoadGrid, DegreeBoundedAndUndirected) {
  const Csr g = generate_road_grid(50, 40, 3);
  EXPECT_EQ(g.num_vertices(), 2000u);
  EXPECT_FALSE(g.directed());
  EXPECT_LE(g.max_degree(), 10u);  // 4-grid + sparse diagonals, symmetrized
  EXPECT_GT(g.num_edges(), 2u * 2000u);
}

TEST(Mesh, NearUniformDegree) {
  const Csr g = generate_mesh(2048, 16, 9);
  const auto degrees = degree_sequence(g);
  const Summary s = summarize(degrees);
  EXPECT_NEAR(s.mean, 16.0, 1.5);
  EXPECT_LT(s.stddev, 3.0);
}

TEST(LongPath, MeanDegreeNearTwo) {
  const Csr g = generate_long_path(10000, 0.05, 1);
  EXPECT_NEAR(g.average_degree(), 2.1, 0.3);
}

TEST(Comb, SizeAndDegreeCharacter) {
  const Csr g = generate_comb(128, 15, 4);
  EXPECT_EQ(g.num_vertices(), 128u * 16u);
  EXPECT_NEAR(g.average_degree(), 2.1, 0.4);
  EXPECT_LE(g.max_degree(), 6u);
}

TEST(ErdosRenyi, EdgeCountExact) {
  const Csr g = generate_erdos_renyi(1000, 5000, /*directed=*/true, 17);
  EXPECT_EQ(g.num_edges(), 5000u);
  EXPECT_TRUE(g.directed());
}

// ---- suite ---------------------------------------------------------------------

TEST(Suite, AllTable1EntriesBuild) {
  SuiteOptions opt;
  opt.scale = 1.0 / 64.0;  // tiny versions for the test
  for (const std::string& abbr : table1_abbreviations()) {
    const SuiteEntry entry = make_suite_graph(abbr, opt);
    EXPECT_EQ(entry.abbr, abbr);
    EXPECT_GT(entry.graph.num_vertices(), 0u) << abbr;
    EXPECT_GT(entry.graph.num_edges(), 0u) << abbr;
    entry.graph.check_invariants();
  }
}

TEST(Suite, HighDiameterEntriesBuild) {
  SuiteOptions opt;
  opt.scale = 1.0 / 64.0;
  for (const std::string& abbr : high_diameter_abbreviations()) {
    const SuiteEntry entry = make_suite_graph(abbr, opt);
    EXPECT_GT(entry.graph.num_edges(), 0u) << abbr;
    EXPECT_FALSE(entry.graph.directed()) << abbr;
  }
}

TEST(Suite, DirectednessMatchesTable1) {
  SuiteOptions opt;
  opt.scale = 1.0 / 64.0;
  // Table 1: LJ, PK, TW, WK, WT are directed; FB, FR, GO, HW, Kron, OR, YT
  // are not.
  EXPECT_TRUE(make_suite_graph("TW", opt).graph.directed());
  EXPECT_TRUE(make_suite_graph("WT", opt).graph.directed());
  EXPECT_FALSE(make_suite_graph("FB", opt).graph.directed());
  EXPECT_FALSE(make_suite_graph("KR0", opt).graph.directed());
}

class SuiteScaleSweep : public ::testing::TestWithParam<double> {};

TEST_P(SuiteScaleSweep, EveryEntryBuildsAndScales) {
  SuiteOptions opt;
  opt.scale = GetParam();
  for (const std::string& abbr : {std::string("FB"), std::string("KR2"),
                                  std::string("TW"), std::string("WT")}) {
    const SuiteEntry entry = make_suite_graph(abbr, opt);
    entry.graph.check_invariants();
    EXPECT_GT(entry.graph.num_edges(), 0u) << abbr;
    // Average degree is scale-invariant by design (vertex counts shrink,
    // degree character does not).
    SuiteOptions full;
    full.scale = 1.0 / 8.0;
    const SuiteEntry reference = make_suite_graph(abbr, full);
    EXPECT_NEAR(entry.graph.average_degree(),
                reference.graph.average_degree(),
                reference.graph.average_degree() * 0.5)
        << abbr;
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, SuiteScaleSweep,
                         ::testing::Values(1.0 / 64.0, 1.0 / 16.0,
                                           1.0 / 4.0));

TEST(Suite, DeterministicForSeed) {
  SuiteOptions opt;
  opt.scale = 1.0 / 64.0;
  const SuiteEntry a = make_suite_graph("YT", opt);
  const SuiteEntry b = make_suite_graph("YT", opt);
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_TRUE(std::equal(a.graph.col_indices().begin(),
                         a.graph.col_indices().end(),
                         b.graph.col_indices().begin()));
}

// ---- golden digests ---------------------------------------------------------

// Every graph the suite builds is pinned byte for byte: the CSR is the input
// of every simulated figure, so a generator or builder rewrite must leave
// (n, directedness, row offsets, column indices) identical. A change here is
// a change of every graph-dependent number in the repository, not noise.
std::uint64_t csr_digest(const Csr& g) {
  std::uint64_t h = mix64(g.num_vertices());
  h = mix64(h ^ (g.directed() ? 1u : 0u));
  h = mix64(h ^ g.row_offsets().size());
  for (const edge_t o : g.row_offsets()) h = mix64(h ^ o);
  h = mix64(h ^ g.col_indices().size());
  for (const vertex_t v : g.col_indices()) h = mix64(h ^ v);
  return h;
}

struct GoldenGraph {
  const char* name;
  double scale;
  std::uint64_t digest;
};

std::string digest_row(const char* name, double scale, const Csr& g) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "{\"%s\", %g, 0x%016llxull}", name, scale,
                static_cast<unsigned long long>(csr_digest(g)));
  return buf;
}

constexpr GoldenGraph kGoldenSuite[] = {
    {"FB", 1.0 / 32.0, 0x2320d459651cb4a1ull},
    {"FR", 1.0 / 32.0, 0xd086bcddb7dccbf6ull},
    {"GO", 1.0 / 32.0, 0xcaff3cf33b0dc65cull},
    {"HW", 1.0 / 32.0, 0xc8e70bb9457f53cfull},
    {"KR0", 1.0 / 32.0, 0x9f923f60a7e24a20ull},
    {"KR1", 1.0 / 32.0, 0x7cf5392f842e61fbull},
    {"KR2", 1.0 / 32.0, 0x8b4227825fc80a46ull},
    {"KR3", 1.0 / 32.0, 0xcbcfdd93c883c73eull},
    {"KR4", 1.0 / 32.0, 0x738c4dee81199967ull},
    {"LJ", 1.0 / 32.0, 0x0f08c38c6090b9bcull},
    {"OR", 1.0 / 32.0, 0xa9623619130fcb6eull},
    {"PK", 1.0 / 32.0, 0x5427fa4c35d5877aull},
    {"RM", 1.0 / 32.0, 0x801be502a64b469dull},
    {"TW", 1.0 / 32.0, 0xdc1662bcaad0b176ull},
    {"WK", 1.0 / 32.0, 0x8a92558082515d05ull},
    {"WT", 1.0 / 32.0, 0x90ed44ee6b69c8b9ull},
    {"YT", 1.0 / 32.0, 0xb07820a7dea9b8e5ull},
    {"AUDI", 1.0 / 32.0, 0xd3c48de0f089f9e1ull},
    {"ROAD", 1.0 / 32.0, 0x89c0a88ddca379e1ull},
    {"OSM", 1.0 / 32.0, 0xb86844ad7cce48d0ull},
    {"LJ", 0.25, 0xb7634745c98c255bull},
    {"KR2", 0.25, 0xe4001a4576b25221ull},
};

TEST(Graph, SuiteGraphsMatchGoldenDigests) {
  std::vector<std::pair<std::string, double>> wanted;
  for (const auto& abbr : table1_abbreviations()) {
    wanted.emplace_back(abbr, 1.0 / 32.0);
  }
  for (const auto& abbr : high_diameter_abbreviations()) {
    wanted.emplace_back(abbr, 1.0 / 32.0);
  }
  wanted.emplace_back("LJ", 0.25);
  wanted.emplace_back("KR2", 0.25);
  ASSERT_EQ(std::size(kGoldenSuite), wanted.size());
  for (std::size_t i = 0; i < wanted.size(); ++i) {
    const GoldenGraph& want = kGoldenSuite[i];
    EXPECT_EQ(want.name, wanted[i].first);
    EXPECT_EQ(want.scale, wanted[i].second);
    SuiteOptions opt;
    opt.scale = want.scale;
    const Csr g = make_suite_graph(want.name, opt).graph;
    SCOPED_TRACE("actual " + digest_row(want.name, want.scale, g));
    EXPECT_EQ(csr_digest(g), want.digest);
  }
}

TEST(Graph, GeneratorsMatchGoldenDigests) {
  const Csr rmat = generate_rmat(RmatParams{});
  EXPECT_TRUE(rmat.directed());
  EXPECT_EQ(csr_digest(rmat), 0xa2ae63319a55c95dull)
      << digest_row("rmat", 1, rmat);
  const Csr er_directed = generate_erdos_renyi(5000, 40000, true, 11);
  EXPECT_EQ(csr_digest(er_directed), 0x02f6c2cd33f9e037ull)
      << digest_row("er-directed", 1, er_directed);
  const Csr er_undirected = generate_erdos_renyi(5000, 40000, false, 12);
  EXPECT_EQ(csr_digest(er_undirected), 0xfa317c2c55cbf51full)
      << digest_row("er-undirected", 1, er_undirected);
  const Csr path = generate_long_path(20000, 0.05, 13);
  EXPECT_EQ(csr_digest(path), 0x09e6381ba0213170ull)
      << digest_row("long-path", 1, path);
}

}  // namespace
}  // namespace ent::graph
