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
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bfs/engine.hpp"
#include "bfs/guard.hpp"
#include "bfs/program.hpp"
#include "bfs/spec.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "gpusim/fault.hpp"
#include "obs/metrics.hpp"
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
  // Only pagerank's push improves every neighbor it reaches.
  EXPECT_TRUE(pagerank->every_edge_improves);
  EXPECT_FALSE(sssp->every_edge_improves);
  EXPECT_FALSE(cc->every_edge_improves);
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
// skip them without counting, reporting or touching state. A program that
// declares every_edge_improves appends nothing at all: the engine reads its
// improvements from the in-range entries of the span.
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
    const bfs::ProgramTraits traits = program->traits();
    EXPECT_EQ(bfs::program_traits(name), traits);
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
    if (traits.every_edge_improves) {
      EXPECT_TRUE(improved.empty());
      EXPECT_EQ(program->relax_edges(u, nbrs, improved), nbrs.size());
      EXPECT_EQ(twin->relax_edges(u, nbrs, want), nbrs.size());
      EXPECT_TRUE(improved.empty());
    }

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

// The program's own superstep loop on the host, without the engine: each
// frontier vertex relaxes its out-edges in ascending order, the improved set
// is deduplicated, and the program applies, selects and votes. Returns the
// superstep count, the in-range edges the program reports inspecting and
// the final values.
struct HostProgramRun {
  std::size_t supersteps = 0;
  std::uint64_t edges_inspected = 0;
  std::vector<double> values;
};

HostProgramRun run_program_on_host(const std::string& name, const Csr& g,
                                   vertex_t source) {
  const auto program = bfs::make_program(name, g);
  EXPECT_NE(program, nullptr);
  if (program == nullptr) return {};
  const vertex_t n = g.num_vertices();
  const bfs::ProgramTraits traits = program->traits();
  HostProgramRun out;
  std::vector<vertex_t> frontier;
  program->init(source, frontier);
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<vertex_t> relaxed;
  bool converged = false;
  for (int step = 0; !frontier.empty() && !converged; ++step) {
    for (const vertex_t u : frontier) {
      const auto nbrs = g.neighbors(u);
      relaxed.clear();
      out.edges_inspected += program->relax_edges(u, nbrs, relaxed);
      if (traits.every_edge_improves) {
        for (const vertex_t v : nbrs) {
          if (v < n) relaxed.push_back(v);
        }
      }
      for (const vertex_t v : relaxed) seen[v] = 1;
    }
    program->apply(step);
    std::vector<vertex_t> improved;
    for (vertex_t v = 0; v < n; ++v) {
      if (seen[v] != 0) improved.push_back(v);
      seen[v] = 0;
    }
    std::vector<vertex_t> next;
    program->select_frontier(improved, next);
    converged = program->converged(step, next.size());
    frontier = std::move(next);
    ++out.supersteps;
  }
  bfs::BfsResult r;
  program->finalize(r);
  out.values = std::move(r.values);
  return out;
}

// An adjacency entry corrupted past the vertex space (the way a high-bit
// flip lands) reaches the engine's relax and improved-set path on every
// pagerank superstep. Both engines must skip it exactly as the program's
// own loop does: a clean finish, the same supersteps and the same in-range
// edge count. Under AddressSanitizer this also checks that no per-vertex
// engine array is indexed by the bad id.
TEST(Programs, EnginesSkipOutOfRangeAdjacencyEntryLikeTheProgram) {
  Csr g = test_graph(41);
  const vertex_t n = g.num_vertices();
  const vertex_t u = connected_source(g);
  const auto neighbors = g.neighbors(u);
  auto bytes = g.raw_adjacency_bytes();
  const auto offset = static_cast<std::size_t>(
      reinterpret_cast<const std::byte*>(neighbors.data()) - bytes.data());
  const vertex_t bad = n + 7;
  std::memcpy(bytes.data() + offset, &bad, sizeof(bad));
  ASSERT_EQ(g.neighbors(u)[0], bad);

  const HostProgramRun want = run_program_on_host("pagerank", g, u);
  ASSERT_GT(want.supersteps, 1u);
  for (const char* spec : {"enterprise/pagerank", "multi-gpu/pagerank"}) {
    SCOPED_TRACE(spec);
    const auto engine = bfs::make_engine(spec, g);
    ASSERT_NE(engine, nullptr);
    const auto r = engine->run(u);
    std::uint64_t inspected = 0;
    for (const auto& t : r.level_trace) inspected += t.edges_inspected;
    EXPECT_EQ(r.level_trace.size(), want.supersteps);
    EXPECT_EQ(inspected, want.edges_inspected);
    ASSERT_EQ(r.values.size(), want.values.size());
    for (vertex_t v = 0; v < n; ++v) {
      // Engines relax the frontier in queue order, so rank sums may round
      // differently from the host's ascending order.
      EXPECT_NEAR(r.values[v], want.values[v], 1e-12) << v;
    }
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
// an undirected one (KR2), single-device and 4-GPU (the improved set is
// shared across devices); a change here is a behaviour change, not noise.
// Besides the clock they pin the result (values, then parents), the
// first-touch superstep of every vertex (`levels`) and the hub-cache
// counters the engine reports to an attached MetricsRegistry.
struct GoldenRun {
  const char* graph;
  const char* engine;
  double time_ms;
  std::uint64_t edges_inspected;
  std::size_t supersteps;
  std::uint64_t gld_transactions;
  std::uint64_t gst_transactions;
  std::uint64_t digest;  // mix64 fold of values, then parents
  std::uint64_t levels_digest;  // mix64 fold of levels (first touch)
  std::uint64_t hub_probes;
  std::uint64_t hub_hits;
};

constexpr GoldenRun kGoldenRuns[] = {
    {"LJ", "enterprise/sssp", 0.22680501038271367, 69479, 21, 102196, 35220,
     0x74d9535f6356e1bfull, 0x61d5a2427886a222ull, 43, 8},
    {"LJ", "enterprise/cc", 0.041655024608501116, 266595, 3, 318554, 36321,
     0xf058594157eb0264ull, 0x4fd83143cf4f78d5ull, 38, 20},
    {"LJ", "enterprise/pagerank", 0.32992644295302009, 1066400, 16, 2088912,
     1290544, 0x0fba548dc18ec557ull, 0x4fd83143cf4f78d5ull, 250960, 244176},
    {"KR2", "enterprise/sssp", 0.10514118517680215, 79489, 11, 86780, 5849,
     0xdb43c83030f558e6ull, 0xcb125dd14b23d6abull, 43, 10},
    {"KR2", "enterprise/cc", 0.026564841608707743, 130487, 3, 140592, 6133,
     0x33a0669eabf5e3b9ull, 0xa5de49a87ba6009cull, 65, 49},
    {"KR2", "enterprise/pagerank", 0.3014899591019215, 1109029, 17, 1950699,
     1146599, 0x5efd8358a39a659bull, 0xa5de49a87ba6009cull, 331075, 330803},
    {"KR2", "multi-gpu/sssp", 0.44019192702483678, 79339, 11, 30343, 2170,
     0x88fdbb9db11433c9ull, 0xcb125dd14b23d6abull, 44, 4},
    {"KR2", "multi-gpu/cc", 0.11818626281658015, 130522, 3, 44898, 3217,
     0x33a0669eabf5e3b9ull, 0xa5de49a87ba6009cull, 56, 25},
    {"KR2", "multi-gpu/pagerank", 0.81460390054064125, 1109029, 17, 615672,
     369478, 0xfda6a941607a691aull, 0xa5de49a87ba6009cull, 331075, 329987},
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

std::uint64_t levels_digest(const bfs::BfsResult& r) {
  std::uint64_t h = mix64(r.levels.size());
  for (const std::int32_t l : r.levels) {
    h = mix64(h ^ static_cast<std::uint32_t>(l));
  }
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
    obs::MetricsRegistry metrics;
    bfs::EngineConfig config;
    config.multi_gpu.num_gpus = 4;
    config.metrics = &metrics;
    const auto engine = bfs::make_engine(want.engine, g, config);
    ASSERT_NE(engine, nullptr) << want.engine;
    const auto r = engine->run(connected_source(g));
    std::uint64_t inspected = 0;
    for (const auto& t : r.level_trace) inspected += t.edges_inspected;
    const auto counters = engine->counters();
    ASSERT_TRUE(counters.has_value()) << want.engine;
    const auto hub = [&](const char* name) -> std::uint64_t {
      const auto c = metrics.counters().find(name);
      return c == metrics.counters().end() ? 0 : c->second.value();
    };
    const std::uint64_t probes = hub("enterprise.hub_cache.probes");
    const std::uint64_t hits = hub("enterprise.hub_cache.hits");
    char actual[320];
    std::snprintf(actual, sizeof(actual),
                  "{\"%s\", \"%s\", %.17g, %llu, %zu, %llu, %llu, "
                  "0x%016llxull, 0x%016llxull, %llu, %llu}",
                  want.graph, want.engine, r.time_ms,
                  static_cast<unsigned long long>(inspected),
                  r.level_trace.size(),
                  static_cast<unsigned long long>(counters->gld_transactions),
                  static_cast<unsigned long long>(counters->gst_transactions),
                  static_cast<unsigned long long>(result_digest(r)),
                  static_cast<unsigned long long>(levels_digest(r)),
                  static_cast<unsigned long long>(probes),
                  static_cast<unsigned long long>(hits));
    SCOPED_TRACE(std::string("actual ") + actual);
    EXPECT_EQ(r.time_ms, want.time_ms);
    EXPECT_EQ(inspected, want.edges_inspected);
    EXPECT_EQ(r.level_trace.size(), want.supersteps);
    EXPECT_EQ(counters->gld_transactions, want.gld_transactions);
    EXPECT_EQ(counters->gst_transactions, want.gst_transactions);
    EXPECT_EQ(result_digest(r), want.digest);
    EXPECT_EQ(levels_digest(r), want.levels_digest);
    EXPECT_EQ(probes, want.hub_probes);
    EXPECT_EQ(hits, want.hub_hits);
  }
}

// The BFS engines are pinned the same way: single-device enterprise and the
// 4-GPU multi-gpu system on two undirected stand-ins, on ROAD (hundreds of
// top-down levels, never switching direction) and on TW. TW is directed, so
// enterprise's bottom-up levels walk its reversed CSR; multi-gpu requires an
// undirected graph and runs on "TW+sym", TW with every edge doubled back.
// Rewrites of the level loop, its per-level hooks or the host-side scans
// must leave every literal here untouched.
struct GoldenBfsRun {
  const char* graph;
  const char* engine;
  double time_ms;
  std::size_t levels;
  std::uint64_t edges_inspected;
  std::uint64_t digest;  // mix64 fold of levels, then parents
};

constexpr GoldenBfsRun kGoldenBfsRuns[] = {
    {"KR2", "enterprise", 0.039433784116331097, 5, 5030,
     0x2b1929cf24434eb0ull},
    {"KR2", "multi-gpu", 0.15970631841909022, 5, 5030, 0xc146b3265112f9b0ull},
    {"FB", "enterprise", 0.05642485234899329, 4, 44807, 0x001265842464f425ull},
    {"FB", "multi-gpu", 0.17756888590604025, 4, 44807, 0x67746f1bf4106df5ull},
    {"ROAD", "enterprise", 0.6219483276171629, 78, 7376,
     0xfd20126d73d914c3ull},
    {"ROAD", "multi-gpu", 2.9631061622075774, 78, 7376, 0x369544040e137cacull},
    {"TW", "enterprise", 0.11363057140193883, 7, 35670, 0xd97ffe6109bc2fd9ull},
    {"TW+sym", "multi-gpu", 0.20579113432140195, 3, 49809,
     0x1c05bc21210025efull},
};

// Suite stand-in `name`, or with a "+sym" suffix the stand-in symmetrized.
Csr golden_graph(const std::string& name, const graph::SuiteOptions& opt) {
  const std::size_t plus = name.find('+');
  Csr g = graph::make_suite_graph(name.substr(0, plus), opt).graph;
  if (plus == std::string::npos) return g;
  std::vector<graph::Edge> edges;
  edges.reserve(g.num_edges());
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    for (const vertex_t v : g.neighbors(u)) edges.push_back({u, v});
  }
  graph::BuildOptions build;
  build.symmetrize = true;
  build.directed = false;
  return graph::build_csr(g.num_vertices(), std::move(edges), build);
}

std::uint64_t bfs_digest(const bfs::BfsResult& r) {
  std::uint64_t h = mix64(r.levels.size());
  for (const std::int32_t l : r.levels) {
    h = mix64(h ^ static_cast<std::uint32_t>(l));
  }
  h = mix64(h ^ r.parents.size());
  for (const vertex_t p : r.parents) h = mix64(h ^ p);
  return h;
}

TEST(Programs, BfsEnginesMatchGoldenRuns) {
  graph::SuiteOptions opt;
  opt.scale = 1.0 / 32.0;
  opt.seed = 42;
  bfs::EngineConfig config;
  config.multi_gpu.num_gpus = 4;
  std::map<std::string, Csr> graphs;
  for (const GoldenBfsRun& want : kGoldenBfsRuns) {
    auto it = graphs.find(want.graph);
    if (it == graphs.end()) {
      it = graphs.emplace(want.graph, golden_graph(want.graph, opt)).first;
    }
    const Csr& g = it->second;
    const auto engine = bfs::make_engine(want.engine, g, config);
    ASSERT_NE(engine, nullptr) << want.engine;
    const auto r = engine->run(connected_source(g));
    std::uint64_t inspected = 0;
    for (const auto& t : r.level_trace) inspected += t.edges_inspected;
    char actual[256];
    std::snprintf(actual, sizeof(actual),
                  "{\"%s\", \"%s\", %.17g, %zu, %llu, 0x%016llxull}",
                  want.graph, want.engine, r.time_ms, r.level_trace.size(),
                  static_cast<unsigned long long>(inspected),
                  static_cast<unsigned long long>(bfs_digest(r)));
    SCOPED_TRACE(std::string("actual ") + actual);
    EXPECT_EQ(r.time_ms, want.time_ms);
    EXPECT_EQ(r.level_trace.size(), want.levels);
    EXPECT_EQ(inspected, want.edges_inspected);
    EXPECT_EQ(bfs_digest(r), want.digest);
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
