// Component tests for the Enterprise building blocks: status array, hub
// cache, classification, direction policy, and the three queue-generation
// workflows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "enterprise/classify.hpp"
#include "enterprise/direction.hpp"
#include "enterprise/frontier_queue.hpp"
#include "enterprise/hub_cache.hpp"
#include "enterprise/program_engine.hpp"
#include "enterprise/status_array.hpp"
#include "graph/builder.hpp"
#include "gpusim/device.hpp"
#include "util/random.hpp"

namespace ent::enterprise {
namespace {

using graph::vertex_t;

// ---- status array ---------------------------------------------------------------

TEST(StatusArray, VisitAndQuery) {
  StatusArray sa(10);
  EXPECT_EQ(sa.size(), 10u);
  EXPECT_FALSE(sa.visited(3));
  EXPECT_EQ(sa.level(3), kUnvisited);
  sa.visit(3, 2);
  EXPECT_TRUE(sa.visited(3));
  EXPECT_EQ(sa.level(3), 2);
  EXPECT_EQ(sa.visited_count(), 1u);
}

// ---- hub cache ------------------------------------------------------------------

TEST(HubCache, InsertAndProbe) {
  HubCache cache(64);
  EXPECT_FALSE(cache.contains(5));
  cache.insert(5);
  EXPECT_TRUE(cache.contains(5));
  EXPECT_EQ(cache.occupancy(), 1u);
  EXPECT_EQ(cache.probes(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(HubCache, DirectMappedEviction) {
  HubCache cache(1);  // every insert collides
  cache.insert(1);
  EXPECT_FALSE(cache.insert(2));  // evicts 1
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_EQ(cache.occupancy(), 1u);
}

TEST(HubCache, NoFalsePositives) {
  HubCache cache(128);
  for (vertex_t v = 0; v < 100; v += 2) cache.insert(v);
  for (vertex_t v = 1; v < 100; v += 2) {
    EXPECT_FALSE(cache.contains(v)) << v;  // full-id compare, never aliases
  }
}

TEST(HubCache, ClearResets) {
  HubCache cache(16);
  cache.insert(3);
  cache.clear();
  EXPECT_EQ(cache.occupancy(), 0u);
  EXPECT_EQ(cache.probes(), 0u);
  EXPECT_FALSE(cache.contains(3));
}

TEST(HubCache, ProbeInsertMatchesContainsThenInsert) {
  // The one-hash probe_insert must be indistinguishable from the two-call
  // idiom it replaces: same answers, same statistics, same residents.
  constexpr vertex_t kUniverse = 200;
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{64}}) {
    HubCache fused(capacity);
    HubCache twin(capacity);
    SplitMix64 rng(0x5eed + capacity);
    for (int i = 0; i < 10000; ++i) {
      const auto v = static_cast<vertex_t>(rng.next_below(kUniverse));
      const bool hit = twin.contains(v);
      if (!hit) twin.insert(v);
      ASSERT_EQ(fused.probe_insert(v), hit) << "draw " << i;
    }
    EXPECT_EQ(fused.probes(), twin.probes()) << capacity;
    EXPECT_EQ(fused.hits(), twin.hits()) << capacity;
    EXPECT_GT(fused.hits(), 0u) << capacity;
    EXPECT_LT(fused.hits(), fused.probes()) << capacity;
    // Every id lives only in its own slot, so equal residency over the id
    // universe means equal slot contents.
    EXPECT_EQ(fused.occupancy(), twin.occupancy()) << capacity;
    for (vertex_t v = 0; v < kUniverse; ++v) {
      EXPECT_EQ(fused.contains(v), twin.contains(v))
          << "capacity " << capacity << " id " << v;
    }
  }
}

TEST(HubCache, MatchesModuloTwinAtAnyCapacity) {
  // Slot v is mix64(v) % capacity at every capacity; power-of-two ones
  // mask instead of dividing. A plain modulo twin must agree on every
  // answer and statistic, at non-powers of two (1000, the paper's "~1,000
  // entries", and 7) as well as at 1 and the default 1024.
  constexpr vertex_t kUniverse = 5000;
  for (const std::size_t capacity :
       {std::size_t{1}, std::size_t{7}, std::size_t{1000}, std::size_t{1024}}) {
    HubCache cache(capacity);
    std::vector<vertex_t> twin(capacity, graph::kInvalidVertex);
    std::uint64_t twin_hits = 0;
    SplitMix64 rng(0xcafe + capacity);
    for (int i = 0; i < 20000; ++i) {
      const auto v = static_cast<vertex_t>(rng.next_below(kUniverse));
      vertex_t& slot = twin[mix64(v) % capacity];
      if (rng.next_below(2) == 0) {
        const bool clean = slot == graph::kInvalidVertex || slot == v;
        slot = v;
        ASSERT_EQ(cache.insert(v), clean) << "draw " << i;
      } else {
        const bool hit = slot == v;
        twin_hits += hit ? 1 : 0;
        ASSERT_EQ(cache.contains(v), hit) << "draw " << i;
      }
    }
    EXPECT_EQ(cache.hits(), twin_hits) << capacity;
    EXPECT_GT(cache.hits(), 0u) << capacity;
    EXPECT_EQ(cache.occupancy(),
              static_cast<std::size_t>(std::count_if(
                  twin.begin(), twin.end(),
                  [](vertex_t v) { return v != graph::kInvalidVertex; })))
        << capacity;
  }
}

// The program engine's end-of-superstep scan reads the mark bytes 8 per
// word; it must emit and clear exactly what a per-byte loop would, keep
// every hub bit, and handle a short last word (n = 1, 7, 9) as well as an
// exact one (n = 8).
TEST(ProgramMarks, ImprovedScanMatchesPerByteLoop) {
  SplitMix64 rng(17);
  for (const graph::vertex_t n : {1u, 7u, 8u, 9u, 1000u}) {
    SCOPED_TRACE(n);
    std::vector<std::uint8_t> marks(n);
    for (auto& m : marks) {
      m = static_cast<std::uint8_t>(rng.next_below(4));  // hub | improved
    }
    marks[n - 1] = enterprise::kHubMark | enterprise::kImprovedMark;
    if (n == 1000) {
      std::fill(marks.begin() + 16, marks.begin() + 40, 0);  // empty words
    }
    std::vector<std::uint8_t> want_marks = marks;
    std::vector<graph::vertex_t> want;
    for (graph::vertex_t v = 0; v < n; ++v) {
      if ((want_marks[v] & enterprise::kImprovedMark) == 0) continue;
      want_marks[v] &= static_cast<std::uint8_t>(~enterprise::kImprovedMark);
      want.push_back(v);
    }
    std::vector<graph::vertex_t> got = {123};  // appends, never clears
    enterprise::take_improved(marks, got);
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got.front(), 123u);
    got.erase(got.begin());
    EXPECT_EQ(got, want);
    EXPECT_EQ(marks, want_marks);
    EXPECT_EQ(marks[n - 1], enterprise::kHubMark);
    got.clear();
    enterprise::take_improved(marks, got);  // a second scan finds nothing
    EXPECT_TRUE(got.empty());
  }
}

TEST(HubCache, FootprintMatchesPaperBudget) {
  // ~1000 entries fit the ~6 KB per-CTA budget of §4.3 (4 B ids).
  HubCache cache(1024);
  EXPECT_LE(cache.footprint_bytes(), 6u * 1024u);
}

// ---- classification -------------------------------------------------------------

TEST(Classify, DegreeThresholds) {
  EXPECT_EQ(classify_degree(0), Granularity::kThread);
  EXPECT_EQ(classify_degree(31), Granularity::kThread);
  EXPECT_EQ(classify_degree(32), Granularity::kWarp);
  EXPECT_EQ(classify_degree(255), Granularity::kWarp);
  EXPECT_EQ(classify_degree(256), Granularity::kCta);
  EXPECT_EQ(classify_degree(65535), Granularity::kCta);
  EXPECT_EQ(classify_degree(65536), Granularity::kGrid);
  EXPECT_EQ(classify_degree(2'500'000), Granularity::kGrid);  // KR2's monster
}

TEST(Classify, SplitsFrontiersByDegree) {
  // Vertex 0: degree 2 (thread), vertex 1: degree 40 (warp).
  std::vector<graph::Edge> edges;
  edges.push_back({0, 1});
  edges.push_back({0, 2});
  for (vertex_t i = 0; i < 40; ++i) edges.push_back({1, 2 + (i % 50)});
  const graph::Csr g = graph::build_csr(64, std::move(edges));

  sim::Device dev(sim::k40());
  sim::KernelRecord rec;
  const std::vector<vertex_t> frontier{0, 1};
  const ClassifiedQueues q =
      classify_frontiers(g, frontier, dev.memory(), rec);
  EXPECT_EQ(q.of(Granularity::kThread),
            (std::vector<vertex_t>{0}));
  EXPECT_EQ(q.of(Granularity::kWarp), (std::vector<vertex_t>{1}));
  EXPECT_TRUE(q.of(Granularity::kCta).empty());
  EXPECT_EQ(q.total(), 2u);
  EXPECT_GT(rec.warp_cycles, 0u);
}

TEST(Classify, GranularityNames) {
  EXPECT_STREQ(to_string(Granularity::kThread), "Thread");
  EXPECT_STREQ(to_string(Granularity::kGrid), "Grid");
}

// ---- direction policy -----------------------------------------------------------

TEST(Direction, AlphaRatio) {
  EXPECT_DOUBLE_EQ(compute_alpha(100, 10), 10.0);
  EXPECT_DOUBLE_EQ(compute_alpha(100, 0), 0.0);
}

TEST(Direction, GammaPercentage) {
  std::vector<std::uint8_t> flags{1, 0, 1, 0};
  const std::vector<vertex_t> frontier{0, 1, 2};
  EXPECT_DOUBLE_EQ(compute_gamma(frontier, flags, 2), 100.0);  // both hubs in
  const std::vector<vertex_t> partial{0, 1};
  EXPECT_DOUBLE_EQ(compute_gamma(partial, flags, 2), 50.0);
  EXPECT_DOUBLE_EQ(compute_gamma(partial, flags, 0), 0.0);
}

TEST(Direction, PolicySelectsIndicator) {
  DirectionPolicy gamma_policy;
  gamma_policy.use_gamma = true;
  gamma_policy.gamma_threshold_percent = 30.0;
  EXPECT_TRUE(should_switch_to_bottom_up(gamma_policy, 0.0, 35.0));
  EXPECT_FALSE(should_switch_to_bottom_up(gamma_policy, 100.0, 10.0));

  DirectionPolicy alpha_policy;
  alpha_policy.use_gamma = false;
  alpha_policy.alpha_threshold = 15.0;
  // Beamer semantics: switch once m_u/m_f has dropped below the threshold
  // (the frontier's edge mass rivals the unexplored mass)...
  EXPECT_TRUE(should_switch_to_bottom_up(alpha_policy, 10.0, 0.0));
  EXPECT_FALSE(should_switch_to_bottom_up(alpha_policy, 20.0, 99.0));
  // ...and only while the frontier is still growing.
  EXPECT_FALSE(should_switch_to_bottom_up(alpha_policy, 10.0, 0.0, false));
}

// ---- queue generation -------------------------------------------------------------

class QueueGenTest : public ::testing::Test {
 protected:
  QueueGenTest() : dev_(sim::k40()), gen_(dev_.memory(), 256) {}

  sim::Device dev_;
  FrontierQueueGenerator gen_;
};

TEST_F(QueueGenTest, TopDownCollectsExactlyTheLevel) {
  StatusArray sa(100);
  for (vertex_t v = 0; v < 100; v += 3) sa.visit(v, 1);
  for (vertex_t v = 1; v < 100; v += 3) sa.visit(v, 2);
  sim::KernelRecord rec;
  const auto queue = gen_.top_down(sa, 2, rec);
  EXPECT_EQ(queue.size(), 33u);
  for (vertex_t v : queue) EXPECT_EQ(sa.level(v), 2);
  EXPECT_GT(rec.mem.load_transactions, 0u);
}

TEST_F(QueueGenTest, TopDownRangeRestricts) {
  StatusArray sa(100);
  sa.visit(5, 1);
  sa.visit(55, 1);
  sim::KernelRecord rec;
  const auto queue = gen_.top_down(sa, 1, 0, 50, rec);
  EXPECT_EQ(queue, (std::vector<vertex_t>{5}));
}

TEST_F(QueueGenTest, SwitchQueueIsSortedUnvisited) {
  StatusArray sa(100);
  for (vertex_t v = 0; v < 100; v += 2) sa.visit(v, 0);
  sim::KernelRecord rec;
  const auto queue = gen_.direction_switch(sa, {}, rec);
  EXPECT_EQ(queue.size(), 50u);
  EXPECT_TRUE(std::is_sorted(queue.begin(), queue.end()));
  for (vertex_t v : queue) EXPECT_FALSE(sa.visited(v));
}

TEST_F(QueueGenTest, SwitchScanIsStridedAndSlower) {
  // §4.1: the chunked scan moves more transactions than the interleaved one
  // for the same array.
  StatusArray sa(100000);
  sim::KernelRecord interleaved;
  sim::KernelRecord chunked;
  gen_.top_down(sa, 0, interleaved);
  gen_.direction_switch(sa, {}, chunked);
  EXPECT_GT(chunked.mem.dram_bytes, interleaved.mem.dram_bytes);
}

TEST_F(QueueGenTest, SwitchRefillsHubCache) {
  StatusArray sa(100);
  sa.visit(7, 3);   // hub, just visited
  sa.visit(9, 3);   // not a hub
  sa.visit(11, 2);  // hub, but visited earlier
  std::vector<std::uint8_t> hubs(100, 0);
  hubs[7] = 1;
  hubs[11] = 1;
  HubCache cache(32);
  HubRefill refill{&cache, &hubs, 3};
  sim::KernelRecord rec;
  gen_.direction_switch(sa, refill, rec);
  EXPECT_TRUE(cache.contains(7));
  EXPECT_FALSE(cache.contains(9));
  EXPECT_FALSE(cache.contains(11));
}

// Statuses a scan must treat exactly as a per-element loop does: unvisited,
// ordinary levels, and the corrupt values a silent flip can leave (negative
// other than kUnvisited, and huge).
StatusArray mixed_status(vertex_t n, std::uint64_t seed) {
  constexpr std::int32_t kValues[] = {
      kUnvisited, 0, 1, 2, 3, 3, 3, -7, std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::max(), 1 << 30};
  StatusArray sa(n);
  SplitMix64 rng(seed);
  for (vertex_t v = 0; v < n; ++v) {
    sa.visit(v, kValues[rng.next_below(std::size(kValues))]);
  }
  return sa;
}

TEST(FrontierQueue, TopDownMatchesScalarScan) {
  sim::Device dev(sim::k40());
  const FrontierQueueGenerator gen(dev.memory(), 256);
  constexpr vertex_t kN = 1007;  // not a multiple of the 64-status word
  const StatusArray sa = mixed_status(kN, 3);
  const std::pair<vertex_t, vertex_t> ranges[] = {
      {0, kN}, {3, 1000}, {17, 18}, {5, 5}, {64, 128}, {63, kN}, {0, 64},
      {1000, kN}};
  for (const std::int32_t level :
       {kUnvisited, 0, 3, -7, std::numeric_limits<std::int32_t>::min(),
        std::numeric_limits<std::int32_t>::max(), 1 << 30, 9}) {
    for (const auto& [begin, end] : ranges) {
      std::vector<vertex_t> want;
      for (vertex_t v = begin; v < end; ++v) {
        if (sa.level(v) == level) want.push_back(v);
      }
      sim::KernelRecord rec;
      EXPECT_EQ(gen.top_down(sa, level, begin, end, rec), want)
          << "level " << level << " [" << begin << ", " << end << ")";
    }
  }
}

TEST(FrontierQueue, DirectionSwitchMatchesScalarScan) {
  sim::Device dev(sim::k40());
  const FrontierQueueGenerator gen(dev.memory(), 256);
  constexpr vertex_t kN = 1007;
  const StatusArray sa = mixed_status(kN, 5);
  std::vector<std::uint8_t> hubs(kN, 0);
  for (vertex_t v = 0; v < kN; v += 3) hubs[v] = 1;
  for (const auto& [begin, end] :
       {std::pair<vertex_t, vertex_t>{0, kN}, {9, 700}, {64, 65}}) {
    // The per-element loop the scan replaces, refilling its own cache.
    std::vector<vertex_t> want;
    HubCache want_cache(64);
    for (vertex_t v = begin; v < end; ++v) {
      if (!sa.visited(v)) {
        want.push_back(v);
      } else if (sa.level(v) == 2 && hubs[v] != 0) {
        want_cache.insert(v);
      }
    }
    HubCache cache(64);
    sim::KernelRecord rec;
    EXPECT_EQ(gen.direction_switch(sa, {&cache, &hubs, 2}, begin, end, rec),
              want);
    for (vertex_t v = 0; v < kN; ++v) {
      EXPECT_EQ(cache.contains(v), want_cache.contains(v)) << v;
    }
  }
}

TEST(StatusArray, BitScansMatchScalarLoops) {
  for (const vertex_t n : {0u, 1u, 63u, 64u, 65u, 1007u}) {
    const StatusArray sa = mixed_status(n, 7 + n);
    for (const std::int32_t level : {kUnvisited, 0, 3, -7, 1 << 30}) {
      const BitArray at = sa.level_bits(level);
      const BitArray parents = sa.parent_bits(level);
      ASSERT_EQ(at.size(), n);
      ASSERT_EQ(parents.size(), n);
      for (vertex_t v = 0; v < n; ++v) {
        const std::int32_t l = sa.level(v);
        EXPECT_EQ(at.get(v), l == level) << "n " << n << " v " << v;
        EXPECT_EQ(parents.get(v), l != kUnvisited && l < level)
            << "n " << n << " v " << v << " next level " << level;
      }
      // Padding bits of the last word stay clear.
      EXPECT_EQ(at.popcount(), static_cast<std::size_t>(std::count(
                                   sa.data().begin(), sa.data().end(), level)));
    }
  }
}

TEST_F(QueueGenTest, BottomUpFilterRemovesVisited) {
  StatusArray sa(100);
  const std::vector<vertex_t> prev{1, 2, 3, 4, 5};
  sa.visit(2, 4);
  sa.visit(4, 4);
  sim::KernelRecord rec;
  const auto queue = gen_.bottom_up_filter(prev, sa, {}, rec);
  EXPECT_EQ(queue, (std::vector<vertex_t>{1, 3, 5}));
}

TEST_F(QueueGenTest, FilterRefillsCacheWithRemovedHubs) {
  StatusArray sa(100);
  const std::vector<vertex_t> prev{1, 2, 3};
  sa.visit(2, 5);
  std::vector<std::uint8_t> hubs(100, 0);
  hubs[2] = 1;
  HubCache cache(32);
  HubRefill refill{&cache, &hubs, 5};
  sim::KernelRecord rec;
  const auto queue = gen_.bottom_up_filter(prev, sa, refill, rec);
  EXPECT_EQ(queue, (std::vector<vertex_t>{1, 3}));
  EXPECT_TRUE(cache.contains(2));
}

TEST_F(QueueGenTest, FilterOnlyScansPreviousQueue) {
  // §4.1 bottom-up workflow: cost scales with the previous queue, not n.
  StatusArray sa(1 << 20);
  std::vector<vertex_t> small_prev{1, 2, 3};
  sim::KernelRecord filter_rec;
  gen_.bottom_up_filter(small_prev, sa, {}, filter_rec);
  sim::KernelRecord full_scan_rec;
  gen_.direction_switch(sa, {}, full_scan_rec);
  EXPECT_LT(filter_rec.mem.dram_bytes, full_scan_rec.mem.dram_bytes / 100);
}

}  // namespace
}  // namespace ent::enterprise
