// Cross-cutting property tests: validator rejection of corrupted trees,
// memory-model conservation laws, kernel-equivalence invariants (every
// granularity and workflow visits the same set), and cost-model
// monotonicity.
#include <gtest/gtest.h>

#include "baselines/cpu_bfs.hpp"
#include "bfs/validate.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "enterprise/frontier_queue.hpp"
#include "enterprise/kernels.hpp"
#include "graph/builder.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "gpusim/device.hpp"
#include "util/stats.hpp"

namespace ent {
namespace {

using graph::Csr;
using graph::vertex_t;

Csr small_kron(std::uint64_t seed) {
  graph::KroneckerParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::generate_kronecker(p);
}

// ---- validator catches corruption ----------------------------------------------

class ValidatorRejection : public ::testing::Test {
 protected:
  ValidatorRejection() : g_(small_kron(2)) {
    source_ = 0;
    while (g_.out_degree(source_) == 0) ++source_;
    good_ = baselines::cpu_bfs(g_, source_);
  }

  Csr g_;
  vertex_t source_ = 0;
  bfs::BfsResult good_;
};

TEST_F(ValidatorRejection, AcceptsCorrectTree) {
  EXPECT_TRUE(bfs::validate_tree(g_, g_, good_).ok);
}

TEST_F(ValidatorRejection, CatchesWrongSourceLevel) {
  bfs::BfsResult bad = good_;
  bad.levels[source_] = 1;
  EXPECT_FALSE(bfs::validate_tree(g_, g_, bad).ok);
}

TEST_F(ValidatorRejection, CatchesSkippedLevel) {
  bfs::BfsResult bad = good_;
  for (vertex_t v = 0; v < g_.num_vertices(); ++v) {
    if (bad.levels[v] == 2) {
      bad.levels[v] = 3;  // vertex claims to be deeper than its BFS level
      break;
    }
  }
  EXPECT_FALSE(bfs::validate_tree(g_, g_, bad).ok);
}

TEST_F(ValidatorRejection, CatchesNonEdgeParent) {
  bfs::BfsResult bad = good_;
  for (vertex_t v = 0; v < g_.num_vertices(); ++v) {
    if (v != source_ && bad.levels[v] > 0) {
      // Point the parent at a vertex at the right level that is (almost
      // surely) not a neighbor; find one explicitly.
      for (vertex_t p = 0; p < g_.num_vertices(); ++p) {
        if (bad.levels[p] != bad.levels[v] - 1) continue;
        const auto nb = g_.neighbors(p);
        if (std::find(nb.begin(), nb.end(), v) == nb.end()) {
          bad.parents[v] = p;
          EXPECT_FALSE(bfs::validate_tree(g_, g_, bad).ok);
          return;
        }
      }
    }
  }
  GTEST_SKIP() << "graph too dense to construct a non-edge parent";
}

TEST_F(ValidatorRejection, CatchesVisitedWithoutParent) {
  bfs::BfsResult bad = good_;
  for (vertex_t v = 0; v < g_.num_vertices(); ++v) {
    if (v != source_ && bad.levels[v] > 0) {
      bad.parents[v] = graph::kInvalidVertex;
      break;
    }
  }
  EXPECT_FALSE(bfs::validate_tree(g_, g_, bad).ok);
}

TEST_F(ValidatorRejection, CatchesLevelMismatch) {
  std::vector<std::int32_t> other = good_.levels;
  other[source_] = 7;
  EXPECT_FALSE(bfs::validate_levels(good_.levels, other).ok);
  EXPECT_TRUE(bfs::validate_levels(good_.levels, good_.levels).ok);
}

// ---- memory model conservation -----------------------------------------------------

class MemoryConservation
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>> {};

TEST_P(MemoryConservation, RequestedBytesExact) {
  const auto [count, elem] = GetParam();
  const sim::DeviceSpec spec = sim::k40();
  sim::MemoryModel mm(spec);
  mm.set_working_set(1ull << 30);
  for (auto pattern :
       {sim::AccessPattern::kSequential, sim::AccessPattern::kStrided,
        sim::AccessPattern::kRandom}) {
    sim::MemoryCounters c;
    mm.record_load(c, pattern, count, elem);
    EXPECT_EQ(c.requested_bytes, count * elem);
    // DRAM bytes never undercut a single transaction's worth, and dram
    // transactions never exceed replayed line count.
    if (count > 0) {
      EXPECT_GT(c.dram_transactions, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MemoryConservation,
    ::testing::Combine(::testing::Values(1u, 31u, 32u, 1000u, 100000u),
                       ::testing::Values(1u, 4u, 8u, 16u)));

TEST(MemoryModel, StridedCostsMoreDramThanSequential) {
  const sim::DeviceSpec spec = sim::k40();
  sim::MemoryModel mm(spec);
  sim::MemoryCounters seq;
  sim::MemoryCounters str;
  mm.record_load(seq, sim::AccessPattern::kSequential, 100000, 4);
  mm.record_load(str, sim::AccessPattern::kStrided, 100000, 4);
  EXPECT_GT(str.dram_bytes, seq.dram_bytes);
  EXPECT_GE(static_cast<double>(str.dram_bytes) /
                static_cast<double>(seq.dram_bytes),
            2.0);  // the §4.1 chunked-scan penalty regime
}

// ---- kernel equivalence: every granularity visits the same set ------------------------

class GranularityEquivalence
    : public ::testing::TestWithParam<enterprise::Granularity> {};

TEST_P(GranularityEquivalence, TopDownVisitsSameSet) {
  const Csr g = small_kron(5);
  sim::Device dev(sim::k40());
  vertex_t source = 0;
  while (g.out_degree(source) == 0) ++source;

  // Reference expansion at Thread granularity.
  enterprise::StatusArray ref_status(g.num_vertices());
  std::vector<vertex_t> ref_parents(g.num_vertices(), graph::kInvalidVertex);
  ref_status.visit(source, 0);
  std::vector<vertex_t> queue{source};
  sim::KernelRecord ref_rec;
  BitArray ref_visits(g.num_vertices());
  enterprise::expand_top_down(g, ref_status, ref_visits, ref_parents, queue,
                              enterprise::Granularity::kThread, 1,
                              dev.memory(), ref_rec);

  enterprise::StatusArray status(g.num_vertices());
  std::vector<vertex_t> parents(g.num_vertices(), graph::kInvalidVertex);
  status.visit(source, 0);
  sim::KernelRecord rec;
  BitArray visits(g.num_vertices());
  enterprise::expand_top_down(g, status, visits, parents, queue, GetParam(),
                              1, dev.memory(), rec);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(status.level(v), ref_status.level(v)) << v;
    EXPECT_EQ(visits.get(v), ref_visits.get(v)) << v;
    EXPECT_EQ(visits.get(v), status.level(v) == 1) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Granularities, GranularityEquivalence,
                         ::testing::Values(enterprise::Granularity::kThread,
                                           enterprise::Granularity::kWarp,
                                           enterprise::Granularity::kCta,
                                           enterprise::Granularity::kGrid));

TEST(KernelEquivalence, BottomUpCacheNeverChangesVisitedSet) {
  const Csr g = small_kron(6);
  sim::Device dev(sim::k40());
  vertex_t source = 0;
  while (g.out_degree(source) < 4) ++source;

  // Visit two top-down levels, then run one bottom-up level with and
  // without a hub cache seeded from level-1 hubs.
  const auto setup = [&](enterprise::StatusArray& status,
                         std::vector<vertex_t>& parents) {
    status.visit(source, 0);
    parents[source] = source;
    std::vector<vertex_t> q{source};
    sim::KernelRecord rec;
    BitArray visits(g.num_vertices());
    enterprise::expand_top_down(g, status, visits, parents, q,
                                enterprise::Granularity::kThread, 1,
                                dev.memory(), rec);
  };
  enterprise::StatusArray a(g.num_vertices());
  std::vector<vertex_t> pa(g.num_vertices(), graph::kInvalidVertex);
  setup(a, pa);
  enterprise::StatusArray b(g.num_vertices());
  std::vector<vertex_t> pb(g.num_vertices(), graph::kInvalidVertex);
  setup(b, pb);

  std::vector<vertex_t> unvisited;
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    if (!a.visited(v)) unvisited.push_back(v);
  }
  enterprise::HubCache cache(256);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    if (a.level(v) == 1 && g.out_degree(v) > 16) cache.insert(v);
  }
  sim::KernelRecord ra;
  sim::KernelRecord rb;
  BitArray bits_a = a.parent_bits(2);
  BitArray bits_b = b.parent_bits(2);
  const auto out_a = enterprise::expand_bottom_up(
      g, a, bits_a, pa, unvisited, enterprise::Granularity::kThread, 2,
      nullptr, dev.memory(), ra);
  const auto out_b = enterprise::expand_bottom_up(
      g, b, bits_b, pb, unvisited, enterprise::Granularity::kThread, 2,
      &cache, dev.memory(), rb);
  EXPECT_EQ(out_a.newly_visited, out_b.newly_visited);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(a.level(v), b.level(v)) << v;
  }
  // The cache must have removed some random status loads.
  EXPECT_LE(rb.mem.random_transactions, ra.mem.random_transactions);
}

TEST(KernelEquivalence, BottomUpParentBitsFollowAdoptions) {
  // A queued vertex that is already visited (a silent flip can put one
  // there) is re-adopted at next_level, so it stops being a valid parent
  // for the rest of the level: the parent bitmap must drop it on adoption,
  // exactly as the status read it stands for would.
  const Csr g = graph::build_csr(3, {{0, 1}, {1, 2}},
                                 {.symmetrize = true, .directed = false});
  sim::Device dev(sim::k40());
  enterprise::StatusArray status(3);
  status.visit(0, 0);
  status.visit(1, 0);
  std::vector<vertex_t> parents(3, graph::kInvalidVertex);
  BitArray bits = status.parent_bits(1);
  const std::vector<vertex_t> queue{1, 2};
  sim::KernelRecord rec;
  const auto out = enterprise::expand_bottom_up(
      g, status, bits, parents, queue, enterprise::Granularity::kThread, 1,
      nullptr, dev.memory(), rec);
  EXPECT_EQ(out.newly_visited, 1u);
  EXPECT_EQ(status.level(1), 1);
  EXPECT_FALSE(bits.get(1));
  EXPECT_FALSE(status.visited(2));
  EXPECT_EQ(parents[2], graph::kInvalidVertex);
}

TEST(KernelEquivalence, StatusArrayMatchesQueueExpansion) {
  const Csr g = small_kron(7);
  sim::Device dev(sim::k40());
  vertex_t source = 0;
  while (g.out_degree(source) == 0) ++source;

  enterprise::StatusArray a(g.num_vertices());
  std::vector<vertex_t> pa(g.num_vertices(), graph::kInvalidVertex);
  a.visit(source, 0);
  std::vector<vertex_t> q{source};
  sim::KernelRecord r1;
  BitArray visits(g.num_vertices());
  enterprise::expand_top_down(g, a, visits, pa, q,
                              enterprise::Granularity::kCta, 1, dev.memory(),
                              r1);

  enterprise::StatusArray b(g.num_vertices());
  std::vector<vertex_t> pb(g.num_vertices(), graph::kInvalidVertex);
  b.visit(source, 0);
  sim::KernelRecord r2;
  enterprise::expand_status_top_down(g, b, pb,
                                     enterprise::Granularity::kCta, 1,
                                     dev.memory(), r2);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(a.level(v), b.level(v)) << v;
  }
  // The status-array variant launches a group per *vertex*, the queue
  // variant only per frontier: over-commitment shows in launched threads.
  EXPECT_GT(r2.launched_threads, r1.launched_threads);
}

// ---- cost-model monotonicity --------------------------------------------------------------

TEST(CostModel, TimeMonotoneInDramBytes) {
  const sim::DeviceSpec spec = sim::k40();
  const sim::KernelCostModel model(spec);
  double last = 0.0;
  for (std::uint64_t mb : {1u, 4u, 16u, 64u}) {
    sim::KernelRecord r;
    r.warp_cycles = 1000;
    r.launched_threads = 4096;
    r.active_threads = 4096;
    r.mem.dram_bytes = mb * (1ull << 20);
    const double t = model.price(r);
    EXPECT_GT(t, last);
    last = t;
  }
}

TEST(CostModel, CriticalPathDominatesMonsterItem) {
  const sim::DeviceSpec spec = sim::k40();
  const sim::KernelCostModel model(spec);
  sim::KernelRecord balanced;
  balanced.warp_cycles = 100000;
  balanced.launched_threads = 1 << 20;
  balanced.active_threads = 1 << 20;
  sim::KernelRecord monster = balanced;
  monster.critical_cycles = 50'000'000;  // one item's serial chain
  EXPECT_GT(model.price(monster), model.price(balanced) * 10.0);
}

TEST(CostModel, ScaledDeviceIsSlower) {
  sim::KernelRecord r;
  r.warp_cycles = 10'000'000;
  r.launched_threads = 1 << 16;
  r.active_threads = 1 << 16;
  r.mem.dram_bytes = 256ull << 20;
  sim::KernelRecord r2 = r;
  const sim::KernelCostModel full(sim::k40());
  const sim::DeviceSpec scaled_spec = sim::k40_sim();
  const sim::KernelCostModel scaled(scaled_spec);
  EXPECT_GT(scaled.price(r2), full.price(r) * 8.0);
  EXPECT_EQ(scaled_spec.num_smx, 1u);
}

// ---- suite degree character matches the paper's statistics ---------------------------------

TEST(SuiteCharacter, GowallaAndOrkutDegreeBreakpoints) {
  graph::SuiteOptions opt;
  opt.scale = 1.0 / 8.0;
  const auto go = graph::make_suite_graph("GO", opt);
  const auto go_deg = graph::degree_sequence(go.graph);
  // Paper Fig. 5: Gowalla 86.7% < 32; Orkut only 37.5% < 32.
  EXPECT_GT(fraction_below(go_deg, 32.0), 0.75);
  const auto orkut = graph::make_suite_graph("OR", opt);
  const auto or_deg = graph::degree_sequence(orkut.graph);
  EXPECT_LT(fraction_below(or_deg, 32.0), 0.65);
  EXPECT_GT(orkut.graph.average_degree(), 2.5 * go.graph.average_degree());
}

TEST(SuiteCharacter, HubConcentrationOnYoutubeLike) {
  graph::SuiteOptions opt;
  opt.scale = 1.0 / 8.0;
  const auto yt = graph::make_suite_graph("YT", opt);
  // Paper Fig. 6: a sub-0.1% hub set owns ~10% of YouTube's edges.
  const auto hubs = graph::select_hub_threshold(
      yt.graph, std::max<vertex_t>(4, yt.graph.num_vertices() / 2000));
  EXPECT_GT(hubs.hub_edge_share, 0.05);
}

TEST(SuiteCharacter, TwitterMostlySmallDegrees) {
  graph::SuiteOptions opt;
  opt.scale = 1.0 / 8.0;
  const auto tw = graph::make_suite_graph("TW", opt);
  const auto deg = graph::degree_sequence(tw.graph);
  // Paper §4.2: 96% of Twitter's vertices have fewer than 32 edges.
  EXPECT_GT(fraction_below(deg, 32.0), 0.85);
}

}  // namespace
}  // namespace ent
