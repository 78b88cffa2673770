// Tests for the streamed (out-of-core) BFS extension: exact results, LRU
// behaviour, transfer accounting, the expected cost ordering against the
// fully-resident system, and the per-level hooks (level-scoped fault rules,
// run guards, integrity audits) it shares with the other engines.
#include <gtest/gtest.h>

#include "baselines/cpu_bfs.hpp"
#include "bfs/guard.hpp"
#include "bfs/runner.hpp"
#include "bfs/validate.hpp"
#include "enterprise/streamed_bfs.hpp"
#include "graph/generators.hpp"
#include "gpusim/fault.hpp"

namespace ent::enterprise {
namespace {

using graph::Csr;
using graph::vertex_t;

Csr test_graph(std::uint64_t seed) {
  graph::KroneckerParams p;
  p.scale = 12;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::generate_kronecker(p);
}

StreamedOptions options(unsigned partitions, unsigned resident) {
  StreamedOptions opt;
  opt.core.device = sim::k40_sim();
  opt.num_partitions = partitions;
  opt.resident_partitions = resident;
  return opt;
}

class StreamedCorrectness
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(StreamedCorrectness, MatchesCpuReference) {
  const auto [partitions, resident] = GetParam();
  const Csr g = test_graph(1);
  StreamedBfs sys(g, options(partitions, resident));
  for (vertex_t s : bfs::sample_sources(g, 2, 3)) {
    const auto got = sys.run(s);
    const auto ref = baselines::cpu_bfs(g, s);
    const auto rep = bfs::validate_levels(got.levels, ref.levels);
    EXPECT_TRUE(rep.ok) << partitions << "/" << resident << ": "
                        << rep.error;
    EXPECT_TRUE(bfs::validate_tree(g, g, got).ok);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, StreamedCorrectness,
    ::testing::Values(std::make_tuple(2u, 1u), std::make_tuple(8u, 2u),
                      std::make_tuple(8u, 8u), std::make_tuple(16u, 3u)));

TEST(Streamed, PartitionsCoverVertexSpace) {
  const Csr g = test_graph(2);
  StreamedBfs sys(g, options(8, 2));
  EXPECT_TRUE(graph::covers_all(sys.partitions(), g.num_vertices()));
}

TEST(Streamed, FullyResidentHasMinimalFaults) {
  const Csr g = test_graph(3);
  StreamedBfs sys(g, options(8, 8));
  sys.run(bfs::sample_sources(g, 1, 5).at(0));
  const auto& stats = sys.last_run_stats();
  // Each partition faults at most once (cold) when everything fits.
  EXPECT_LE(stats.partition_faults, 8u);
  EXPECT_GT(stats.partition_hits, 0u);
}

TEST(Streamed, TightMemoryFaultsMore) {
  const Csr g = test_graph(4);
  const auto src = bfs::sample_sources(g, 1, 7).at(0);
  StreamedBfs roomy(g, options(8, 8));
  roomy.run(src);
  StreamedBfs tight(g, options(8, 1));
  tight.run(src);
  EXPECT_GT(tight.last_run_stats().partition_faults,
            roomy.last_run_stats().partition_faults);
  EXPECT_GT(tight.last_run_stats().bytes_transferred,
            roomy.last_run_stats().bytes_transferred);
}

TEST(Streamed, TransfersCostTime) {
  const Csr g = test_graph(5);
  const auto src = bfs::sample_sources(g, 1, 9).at(0);
  StreamedBfs roomy(g, options(8, 8));
  const double t_roomy = roomy.run(src).time_ms;
  StreamedBfs tight(g, options(8, 1));
  const double t_tight = tight.run(src).time_ms;
  EXPECT_GT(t_tight, t_roomy);
  EXPECT_GT(tight.last_run_stats().transfer_ms, 0.0);
}

TEST(Streamed, CommTimeAppearsInTrace) {
  const Csr g = test_graph(6);
  StreamedBfs sys(g, options(8, 1));
  const auto r = sys.run(bfs::sample_sources(g, 1, 11).at(0));
  double comm = 0.0;
  for (const auto& t : r.level_trace) comm += t.comm_ms;
  EXPECT_NEAR(comm, sys.last_run_stats().transfer_ms, 1e-9);
}

TEST(Streamed, RejectsDirectedGraphs) {
  graph::RmatParams p;
  p.scale = 8;
  p.edge_factor = 4;
  const Csr g = graph::generate_rmat(p);
  EXPECT_DEATH(StreamedBfs(g, options(4, 2)), "undirected");
}

TEST(StreamedHooks, LevelScopedCommTimeoutTripsALevelOneTransfer) {
  const Csr g = test_graph(7);
  const auto src = bfs::sample_sources(g, 1, 13).at(0);
  // Clean baseline: level 1 really does fault partitions in.
  StreamedBfs clean(g, options(8, 1));
  const auto r = clean.run(src);
  ASSERT_GE(r.level_trace.size(), 2u);
  ASSERT_GT(r.level_trace[1].comm_ms, 0.0);

  const auto plan = sim::FaultPlan::parse("comm-timeout@level=1");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);
  StreamedOptions opt = options(8, 1);
  opt.core.fault_injector = &injector;
  StreamedBfs sys(g, opt);
  try {
    sys.run(src);
    FAIL() << "comm-timeout@level=1 never fired";
  } catch (const sim::SimFault& f) {
    EXPECT_EQ(f.type(), sim::FaultType::kCommTimeout);
    // Level 0 transferred the source's partition without tripping.
    EXPECT_GE(f.launch_index(), 1u);
  }
  EXPECT_EQ(injector.faults_injected(), 1u);
}

TEST(StreamedHooks, RunGuardMaxLevelsTrips) {
  const Csr g = test_graph(8);
  const auto src = bfs::sample_sources(g, 1, 15).at(0);
  bfs::GuardLimits limits;
  limits.max_levels = 1;
  bfs::RunGuard guard(limits);
  StreamedOptions opt = options(8, 2);
  opt.core.guard = &guard;
  StreamedBfs sys(g, opt);
  try {
    sys.run(src);
    FAIL() << "max_levels=1 never tripped";
  } catch (const bfs::GuardTripped& t) {
    EXPECT_EQ(t.kind(), bfs::GuardKind::kLevels);
  }
}

TEST(StreamedHooks, FullAuditCatchesAFrontierFlip) {
  const Csr g = test_graph(9);
  const auto src = bfs::sample_sources(g, 1, 17).at(0);
  const auto plan =
      sim::FaultPlan::parse("flip@target=frontier,level=1,offset=5,bit=6");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector injector(*plan);
  StreamedOptions opt = options(8, 2);
  opt.core.fault_injector = &injector;
  opt.core.integrity.audit = bfs::AuditMode::kFull;
  StreamedBfs sys(g, opt);
  try {
    sys.run(src);
    FAIL() << "the frontier flip went undetected";
  } catch (const sim::IntegrityFault& f) {
    EXPECT_EQ(f.component(), "frontier");
    EXPECT_EQ(f.level(), 1);
  }
  EXPECT_EQ(injector.flips_injected(), 1u);
}

}  // namespace
}  // namespace ent::enterprise
