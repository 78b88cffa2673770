// Tests for the vertex-program layer (bfs/program.hpp) and its run through
// the Enterprise superstep engine: SSSP against host Dijkstra, CC against
// host union-find, PageRank against host power iteration, fault-plan
// recovery through the resilient decorator, per-program audits catching
// injected bit flips, and the guard layer's trait-routed limits.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bfs/engine.hpp"
#include "bfs/guard.hpp"
#include "bfs/program.hpp"
#include "bfs/spec.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "gpusim/fault.hpp"
#include "obs/run_report.hpp"
#include "util/random.hpp"

namespace ent {
namespace {

using graph::Csr;
using graph::vertex_t;

Csr test_graph(std::uint64_t seed) {
  graph::KroneckerParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::generate_kronecker(p);
}

vertex_t connected_source(const Csr& g) {
  vertex_t v = 0;
  while (g.out_degree(v) < 4) ++v;
  return v;
}

// --- registry ---------------------------------------------------------------

TEST(Programs, RegistryListsBuiltInsSorted) {
  const auto names = bfs::program_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "cc");
  EXPECT_EQ(names[1], "pagerank");
  EXPECT_EQ(names[2], "sssp");
  for (const auto& name : names) {
    EXPECT_TRUE(bfs::is_program_name(name));
    EXPECT_TRUE(bfs::program_traits(name).has_value());
  }
  EXPECT_FALSE(bfs::is_program_name("bfs"));
  EXPECT_FALSE(bfs::program_traits("nope").has_value());
}

TEST(Programs, ProgramsAreNotEngineRegistryEntries) {
  // Programs dispatch through the spec grammar (bare-name alias included),
  // never through the engine registry — engine_names() stays BFS-only.
  const auto engines = bfs::engine_names();
  for (const auto& name : bfs::program_names()) {
    EXPECT_EQ(std::find(engines.begin(), engines.end(), name), engines.end())
        << name;
  }
}

TEST(Programs, TraitsDeclareTraversalShape) {
  const auto sssp = bfs::program_traits("sssp");
  ASSERT_TRUE(sssp.has_value());
  EXPECT_TRUE(sssp->needs_source);
  const auto cc = bfs::program_traits("cc");
  ASSERT_TRUE(cc.has_value());
  EXPECT_FALSE(cc->needs_source);
  EXPECT_TRUE(cc->symmetric);  // weakly connected components
  const auto pagerank = bfs::program_traits("pagerank");
  ASSERT_TRUE(pagerank.has_value());
  EXPECT_FALSE(pagerank->bounded_depth);
  EXPECT_FALSE(pagerank->bounded_frontier);
}

TEST(Programs, MakeProgramRejectsUnknownNamesAndParams) {
  const Csr g = test_graph(21);
  std::string error;
  EXPECT_EQ(bfs::make_program("nope", g, {}, &error), nullptr);
  EXPECT_FALSE(error.empty());
  bfs::ProgramParams bad;
  bad.entries = {{"no_such_key", "1"}};
  error.clear();
  EXPECT_EQ(bfs::make_program("sssp", g, bad, &error), nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_THROW(bfs::host_reference("nope", g, 0), std::invalid_argument);
}

TEST(Programs, StateBytesScaleWithVertices) {
  EXPECT_EQ(bfs::program_state_bytes("sssp", 100), 1200u);     // 8B + 4B
  EXPECT_EQ(bfs::program_state_bytes("cc", 100), 400u);        // 4B label
  EXPECT_EQ(bfs::program_state_bytes("pagerank", 100), 1600u); // 2 x 8B
  EXPECT_EQ(bfs::program_state_bytes("nope", 100), 0u);
}

TEST(Programs, RegistryAgreesWithInstances) {
  // program_traits() and program_state_bytes() answer without a graph; they
  // must say exactly what an instantiated program says about itself.
  const Csr g = test_graph(32);
  for (const auto& name : bfs::program_names()) {
    const auto program = bfs::make_program(name, g);
    ASSERT_NE(program, nullptr) << name;
    EXPECT_EQ(bfs::program_traits(name), program->traits()) << name;
    std::vector<vertex_t> frontier;
    program->init(connected_source(g), frontier);
    EXPECT_EQ(bfs::program_state_bytes(name, g.num_vertices()),
              program->state_footprint_bytes())
        << name;
  }
}

// --- relax_edges contract ---------------------------------------------------

std::vector<std::byte> state_copy(bfs::VertexProgram& program) {
  const auto bytes = program.raw_state_bytes();
  return {bytes.begin(), bytes.end()};
}

// Injected adjacency flips surface as neighbor ids >= n; relax_edges must
// skip them without counting, reporting or touching state.
TEST(Programs, RelaxEdgesSkipsOutOfRangeNeighbors) {
  const Csr g = test_graph(33);
  const vertex_t n = g.num_vertices();
  const vertex_t u = connected_source(g);
  const auto nbrs = g.neighbors(u);
  ASSERT_GE(nbrs.size(), 2u);
  const std::vector<vertex_t> flipped = {n, n + 7};
  const std::vector<vertex_t> clean = {nbrs[0], nbrs[1]};
  const std::vector<vertex_t> mixed = {n, nbrs[0], n + 7, nbrs[1]};
  for (const auto& name : bfs::program_names()) {
    SCOPED_TRACE(name);
    const auto program = bfs::make_program(name, g);
    const auto twin = bfs::make_program(name, g);
    ASSERT_NE(program, nullptr);
    ASSERT_NE(twin, nullptr);
    std::vector<vertex_t> frontier;
    program->init(u, frontier);
    twin->init(u, frontier);

    std::vector<vertex_t> improved;
    const auto before = state_copy(*program);
    EXPECT_EQ(program->relax_edges(u, flipped, improved), 0u);
    EXPECT_TRUE(improved.empty());
    EXPECT_EQ(state_copy(*program), before);

    // Interleaved with real edges, the flips change nothing the real edges
    // would not: same count, same improvements in the same order.
    std::vector<vertex_t> want;
    EXPECT_EQ(program->relax_edges(u, mixed, improved), 2u);
    EXPECT_EQ(twin->relax_edges(u, clean, want), 2u);
    EXPECT_EQ(improved, want);
    EXPECT_EQ(state_copy(*program), state_copy(*twin));

    // Deferred state (pagerank's accumulators) surfaces at the barrier.
    program->apply(0);
    twin->apply(0);
    bfs::BfsResult got, expected;
    program->finalize(got);
    twin->finalize(expected);
    EXPECT_EQ(got.values, expected.values);
    EXPECT_EQ(got.parents, expected.parents);
  }
}

// --- engine runs vs independent host references -----------------------------

TEST(Programs, SsspMatchesHostDijkstra) {
  const Csr g = test_graph(22);
  const vertex_t source = connected_source(g);
  const auto engine = bfs::make_engine("enterprise/sssp", g);
  ASSERT_NE(engine, nullptr);
  const auto r = engine->run(source);
  EXPECT_EQ(r.program, "sssp");
  const auto ref = bfs::host_reference("sssp", g, source);
  ASSERT_EQ(r.values.size(), ref.values.size());
  // Weights are small integers, so both exact algorithms produce bitwise
  // identical distances.
  EXPECT_EQ(r.values, ref.values);
}

TEST(Programs, SsspDeltaVariantsAgreeOnDistances) {
  const Csr g = test_graph(23);
  const vertex_t source = connected_source(g);
  const auto narrow = bfs::make_engine("enterprise/sssp?delta=1", g);
  const auto wide = bfs::make_engine("enterprise/sssp?delta=16", g);
  ASSERT_NE(narrow, nullptr);
  ASSERT_NE(wide, nullptr);
  EXPECT_EQ(narrow->run(source).values, wide->run(source).values);
}

TEST(Programs, CcMatchesHostUnionFind) {
  const Csr g = test_graph(24);
  const auto engine = bfs::make_engine("enterprise/cc", g);
  ASSERT_NE(engine, nullptr);
  const auto r = engine->run(0);
  EXPECT_EQ(r.program, "cc");
  // Both sides label every vertex with its component's minimum id.
  EXPECT_EQ(r.values, bfs::host_reference("cc", g, 0).values);
}

TEST(Programs, CcIsSourceIndependent) {
  const Csr g = test_graph(25);
  const auto engine = bfs::make_engine("enterprise/cc", g);
  ASSERT_NE(engine, nullptr);
  const auto a = engine->run(0);
  const auto b = engine->run(connected_source(g) + 1);
  EXPECT_EQ(a.values, b.values);
}

TEST(Programs, PagerankMatchesHostPowerIteration) {
  const Csr g = test_graph(26);
  const auto engine = bfs::make_engine("enterprise/pagerank?epsilon=1e-10", g);
  ASSERT_NE(engine, nullptr);
  const auto r = engine->run(0);
  EXPECT_EQ(r.program, "pagerank");
  bfs::ProgramParams params;
  params.entries = {{"epsilon", "1e-10"}};
  const auto ref = bfs::host_reference("pagerank", g, 0, params);
  ASSERT_EQ(r.values.size(), ref.values.size());
  double mass = 0.0;
  for (std::size_t v = 0; v < r.values.size(); ++v) {
    EXPECT_NEAR(r.values[v], ref.values[v], 1e-6) << "vertex " << v;
    mass += r.values[v];
  }
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(Programs, CpuBaseIsTheHostReference) {
  const Csr g = test_graph(27);
  const vertex_t source = connected_source(g);
  const auto engine = bfs::make_engine("cpu/sssp", g);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->run(source).values,
            bfs::host_reference("sssp", g, source).values);
}

// --- validation and the decorator stack -------------------------------------

TEST(Programs, ValidateAcceptsEngineResultsAndRejectsTampering) {
  const Csr g = test_graph(28);
  const vertex_t source = connected_source(g);
  for (const char* name : {"sssp", "cc", "pagerank"}) {
    const auto engine =
        bfs::make_engine("enterprise/" + std::string(name), g);
    ASSERT_NE(engine, nullptr) << name;
    auto r = engine->run(source);
    const auto program = bfs::make_program(name, g);
    ASSERT_NE(program, nullptr) << name;
    EXPECT_TRUE(program->validate(g, r).ok) << name;
    // Tamper with one value: every program's invariant set must notice.
    ASSERT_FALSE(r.values.empty()) << name;
    r.values[r.values.size() / 2] += 1000.0;
    EXPECT_FALSE(program->validate(g, r).ok) << name;
  }
}

TEST(Programs, ResilientSsspRecoversFromTransientFaults) {
  const Csr g = test_graph(29);
  const vertex_t source = connected_source(g);
  const auto plan = sim::FaultPlan::parse("transient@index=3;ecc@index=7");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);
  bfs::EngineConfig config;
  config.fault_injector = &injector;
  const auto engine =
      bfs::make_engine("resilient:enterprise/sssp?delta=4", g, config);
  ASSERT_NE(engine, nullptr);
  const auto r = engine->run(source);
  EXPECT_GT(injector.faults_injected(), 0u);
  // Recovery must reproduce the exact host-Dijkstra distances.
  EXPECT_EQ(r.values, bfs::host_reference("sssp", g, source).values);
}

TEST(Programs, GuardedProgramIgnoresInapplicableLimits) {
  const Csr g = test_graph(30);
  bfs::EngineConfig config;
  // Tight BFS-era limits: pagerank declares bounded_depth=false and
  // bounded_frontier=false, so neither may trip it (the pre-redesign bug).
  config.guards.max_levels = 3;
  config.guards.max_frontier = 4;
  const auto engine = bfs::make_engine("guarded:enterprise/pagerank", g,
                                       config);
  ASSERT_NE(engine, nullptr);
  EXPECT_NO_THROW({
    const auto r = engine->run(0);
    EXPECT_EQ(r.program, "pagerank");
  });
  // The same limits still bind a depth-bounded program.
  const auto sssp = bfs::make_engine("guarded:enterprise/sssp", g, config);
  ASSERT_NE(sssp, nullptr);
  EXPECT_THROW(sssp->run(connected_source(g)), bfs::GuardTripped);
}

// --- audits under injected corruption ---------------------------------------

// Flip one pinned state byte per program and require the program's own
// invariant set to flag it under a full audit.
TEST(Programs, AuditsDetectInjectedFlips) {
  const Csr g = test_graph(31);
  SplitMix64 rng(7);
  std::vector<vertex_t> frontier;

  // sssp: perturb the source distance (exponent byte of dist[source]).
  {
    const auto p = bfs::make_program("sssp", g);
    ASSERT_NE(p, nullptr);
    p->init(0, frontier);
    EXPECT_TRUE(p->audit(bfs::AuditMode::kFull, 0, rng).empty());
    auto bytes = p->raw_state_bytes();
    bytes[6] ^= std::byte{0x40};
    EXPECT_FALSE(p->audit(bfs::AuditMode::kFull, 0, rng).empty());
  }
  // cc: blow a label above its vertex id (high byte of labels[1]).
  {
    const auto p = bfs::make_program("cc", g);
    ASSERT_NE(p, nullptr);
    p->init(0, frontier);
    EXPECT_TRUE(p->audit(bfs::AuditMode::kFull, 0, rng).empty());
    auto bytes = p->raw_state_bytes();
    bytes[1 * sizeof(vertex_t) + 3] ^= std::byte{0x80};
    EXPECT_FALSE(p->audit(bfs::AuditMode::kFull, 0, rng).empty());
  }
  // pagerank: break mass conservation (exponent byte of rank[0]).
  {
    const auto p = bfs::make_program("pagerank", g);
    ASSERT_NE(p, nullptr);
    p->init(0, frontier);
    EXPECT_TRUE(p->audit(bfs::AuditMode::kFull, 0, rng).empty());
    auto bytes = p->raw_state_bytes();
    bytes[7] ^= std::byte{0x20};
    EXPECT_FALSE(p->audit(bfs::AuditMode::kFull, 0, rng).empty());
  }
}

// --- golden simulated clock -------------------------------------------------

// The simulated clock is the reproduction's output and is deterministic, so
// host-side rewrites of the program engine (relax loop, hub-cache probing,
// improved-set bookkeeping) must leave every simulated figure bit-identical.
// These literals pin one run of each program on a directed stand-in (LJ) and
// an undirected one (KR2); a change here is a behaviour change, not noise.
struct GoldenRun {
  const char* graph;
  const char* program;
  double time_ms;
  std::uint64_t edges_inspected;
  std::size_t supersteps;
  std::uint64_t gld_transactions;
  std::uint64_t gst_transactions;
  std::uint64_t digest;  // mix64 fold of values, then parents
};

constexpr GoldenRun kGoldenRuns[] = {
    {"LJ", "sssp", 0.22680501038271367, 69479, 21, 102196, 35220,
     0x74d9535f6356e1bfull},
    {"LJ", "cc", 0.041655024608501116, 266595, 3, 318554, 36321,
     0xf058594157eb0264ull},
    {"LJ", "pagerank", 0.32992644295302009, 1066400, 16, 2088912, 1290544,
     0x0fba548dc18ec557ull},
    {"KR2", "sssp", 0.10514118517680215, 79489, 11, 86780, 5849,
     0xdb43c83030f558e6ull},
    {"KR2", "cc", 0.026564841608707743, 130487, 3, 140592, 6133,
     0x33a0669eabf5e3b9ull},
    {"KR2", "pagerank", 0.3014899591019215, 1109029, 17, 1950699, 1146599,
     0x5efd8358a39a659bull},
};

std::uint64_t result_digest(const bfs::BfsResult& r) {
  std::uint64_t h = mix64(r.values.size());
  for (const double v : r.values) {
    h = mix64(h ^ std::bit_cast<std::uint64_t>(v));
  }
  h = mix64(h ^ r.parents.size());
  for (const vertex_t p : r.parents) h = mix64(h ^ p);
  return h;
}

TEST(Programs, SimulatedClockMatchesGoldenRuns) {
  graph::SuiteOptions opt;
  opt.scale = 1.0 / 32.0;
  opt.seed = 42;
  std::map<std::string, Csr> graphs;
  for (const GoldenRun& want : kGoldenRuns) {
    auto it = graphs.find(want.graph);
    if (it == graphs.end()) {
      it = graphs.emplace(want.graph,
                          graph::make_suite_graph(want.graph, opt).graph)
               .first;
    }
    const Csr& g = it->second;
    const auto engine =
        bfs::make_engine("enterprise/" + std::string(want.program), g);
    ASSERT_NE(engine, nullptr) << want.program;
    const auto r = engine->run(connected_source(g));
    std::uint64_t inspected = 0;
    for (const auto& t : r.level_trace) inspected += t.edges_inspected;
    const auto counters = engine->counters();
    ASSERT_TRUE(counters.has_value()) << want.program;
    char actual[256];
    std::snprintf(actual, sizeof(actual),
                  "{\"%s\", \"%s\", %.17g, %llu, %zu, %llu, %llu, "
                  "0x%016llxull}",
                  want.graph, want.program, r.time_ms,
                  static_cast<unsigned long long>(inspected),
                  r.level_trace.size(),
                  static_cast<unsigned long long>(counters->gld_transactions),
                  static_cast<unsigned long long>(counters->gst_transactions),
                  static_cast<unsigned long long>(result_digest(r)));
    SCOPED_TRACE(std::string("actual ") + actual);
    EXPECT_EQ(r.time_ms, want.time_ms);
    EXPECT_EQ(inspected, want.edges_inspected);
    EXPECT_EQ(r.level_trace.size(), want.supersteps);
    EXPECT_EQ(counters->gld_transactions, want.gld_transactions);
    EXPECT_EQ(counters->gst_transactions, want.gst_transactions);
    EXPECT_EQ(result_digest(r), want.digest);
  }
}

// --- report schema ----------------------------------------------------------

TEST(Programs, RunReportOmitsProgramKeyForPlainBfs) {
  obs::RunReport report;
  report.system = "enterprise";
  const obs::Json plain = report.to_json();
  EXPECT_EQ(plain.dump().find("\"program\""), std::string::npos);

  report.system = "enterprise/sssp";
  report.program = "sssp";
  const obs::Json with = report.to_json();
  EXPECT_NE(with.dump().find("\"program\""), std::string::npos);
  const auto parsed = obs::RunReport::from_json(with);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->program, "sssp");
}

}  // namespace
}  // namespace ent
