#include "enterprise/program_engine.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <utility>

#include "bfs/telemetry.hpp"
#include "enterprise/cost_constants.hpp"
#include "enterprise/frontier_queue.hpp"
#include "enterprise/hub_cache.hpp"
#include "enterprise/kernels.hpp"
#include "enterprise/status_array.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "util/assert.hpp"
#include "util/random.hpp"

namespace ent::enterprise {

using graph::edge_t;
using graph::vertex_t;

namespace {

// Accounted element size of one per-vertex program-state slot; the widest
// resident state (sssp/pagerank doubles) — cc's narrower labels are charged
// at the same width to keep program comparisons structural.
constexpr unsigned kStateBytes = 8;
// Per-element cost of the O(n) apply barrier (load, combine, store).
constexpr std::uint64_t kApplyCycles = kPrefixSumCycles;

}  // namespace

void take_improved(std::span<std::uint8_t> marks,
                   std::vector<vertex_t>& improved) {
  // A word only skips 8 vertices at once when none is improved; the bytes
  // of a word with an improved bit are walked one by one.
  constexpr std::uint64_t kImprovedBits = 0x0101010101010101ull * kImprovedMark;
  const std::size_t n = marks.size();
  for (std::size_t v = 0; v < n; v += 8) {
    const std::size_t end = std::min(v + 8, n);
    if (end - v == 8) {
      std::uint64_t word;
      std::memcpy(&word, marks.data() + v, sizeof(word));
      if ((word & kImprovedBits) == 0) continue;
    }
    for (std::size_t i = v; i < end; ++i) {
      if ((marks[i] & kImprovedMark) == 0) continue;
      marks[i] &= static_cast<std::uint8_t>(~kImprovedMark);
      improved.push_back(static_cast<vertex_t>(i));
    }
  }
}

ProgramRunner::ProgramRunner(const graph::Csr& g,
                             std::unique_ptr<bfs::VertexProgram> program,
                             EnterpriseOptions options, unsigned num_devices,
                             sim::InterconnectSpec interconnect,
                             std::vector<unsigned> device_ids)
    : graph_(&g),
      program_(std::move(program)),
      options_(std::move(options)),
      device_ids_(std::move(device_ids)),
      system_(options_.device, num_devices, interconnect),
      ranges_(graph::partition_equal_vertices(g.num_vertices(), num_devices)),
      hubs_(select_hubs(g, options_)),
      supervisor_(g, options_) {
  ENT_ASSERT_MSG(program_ != nullptr, "ProgramRunner needs a program");
  // In-edge view for symmetric relaxations (cc on directed graphs); on
  // undirected graphs the out-edges already carry both directions.
  if (program_->traits().symmetric && g.directed()) {
    in_storage_.emplace(g.reversed());
    in_edges_ = &*in_storage_;
  }

  if (device_ids_.empty()) {
    device_ids_.resize(num_devices);
    for (unsigned p = 0; p < num_devices; ++p) {
      device_ids_[p] = num_devices == 1 ? options_.device_ordinal : p;
    }
  }
  ENT_ASSERT_MSG(device_ids_.size() == num_devices,
                 "device_ids must name one physical id per device");
  for (unsigned p = 0; p < system_.size(); ++p) {
    system_.device(p).set_trace_sink(options_.sink);
    system_.device(p).set_device_id(device_ids_[p]);
    system_.device(p).set_fault_injector(options_.fault_injector);
  }
  if (num_devices > 1) {
    system_.interconnect().set_fault_injector(options_.fault_injector,
                                              device_ids_);
  }
}

bfs::BfsResult ProgramRunner::run(vertex_t source) {
  const graph::Csr& g = *graph_;
  const vertex_t n = g.num_vertices();
  const unsigned P = system_.size();
  ENT_ASSERT(source < n);

  system_.reset();
  const std::uint64_t state_bytes = program_->state_footprint_bytes();
  for (unsigned p = 0; p < P; ++p) {
    system_.device(p).memory().set_working_set(
        g.footprint_bytes() / P + state_bytes +
        static_cast<std::uint64_t>(n));  // improved flags, 1 B per vertex
  }

  // Fresh program state and initial frontier (resilient replays re-enter
  // here, so nothing survives from a faulted attempt).
  std::vector<vertex_t> frontier;
  program_->init(source, frontier);

  // The selected frontier as a bitmap, in the status array's role: the TS
  // scan regenerates the dense per-device queues from it and clears it.
  BitArray active(n);
  std::vector<std::int32_t> first_touch(n, -1);
  for (const vertex_t v : frontier) first_touch[v] = 0;

  const unsigned scan_threads_total =
      scan_width(options_.scan_threads, options_.device);
  const unsigned scan_threads =
      P == 1 ? scan_threads_total : scan_threads_total / P + 1;

  std::vector<HubCache> caches(P, HubCache(options_.hub_cache_capacity));
  const bool use_hub = options_.hub_cache && hubs_.total > 0;
  // One mark byte per vertex, shared by all devices: the hub bit (only when
  // the hub cache is on) and this superstep's improved bit.
  std::vector<std::uint8_t> marks(n, 0);
  if (use_hub) {
    for (vertex_t v = 0; v < n; ++v) {
      if (hubs_.flags[v] != 0) marks[v] = kHubMark;
    }
  }

  bfs::BfsResult result;
  result.source = source;

  obs::TraceSink* const sink = options_.sink;
  obs::MetricsRegistry* const metrics = options_.metrics;
  const auto emit_span = [&](int step, const char* phase, std::string detail,
                             double start_ms, double duration_ms,
                             std::uint64_t value) {
    if (sink == nullptr) return;
    sink->span({step, phase, std::move(detail), start_ms, duration_ms, value});
  };

  // Engine-level frontier checks plus the program's own invariant set.
  const bfs::IntegrityOptions& integ = options_.integrity;
  SplitMix64 draws(integ.audit_seed ^ static_cast<std::uint64_t>(source) ^
                   0x70726f6772616dull);  // "program"
  supervisor_.begin_run([&](std::int32_t step) {
    const auto fail = [&](const char* component, std::string detail) {
      supervisor_.audit_failed(step, device_ids_[0], component,
                               std::move(detail));
    };
    // Frontier invariant: select_frontier emits strictly ascending in-range
    // vertex ids, so any injected flip breaks range or order (a flip that
    // kept both would have to land exactly between its neighbors).
    const auto check_entry = [&](std::size_t i) {
      const vertex_t v = frontier[i];
      if (v >= n) {
        fail("frontier",
             "frontier entry " + std::to_string(v) + " out of range");
      }
      if (i > 0 && frontier[i - 1] >= v) {
        fail("frontier", "frontier not strictly ascending at entry " +
                             std::to_string(i));
      }
    };
    if (integ.audit == bfs::AuditMode::kFull) {
      for (std::size_t i = 0; i < frontier.size(); ++i) check_entry(i);
    } else if (!frontier.empty()) {
      for (std::uint32_t i = 0; i < integ.sample_size; ++i) {
        check_entry(
            static_cast<std::size_t>(draws.next_below(frontier.size())));
      }
    }
    // The program's own invariant set (sssp monotone relaxations, cc
    // decrease-only labels, pagerank mass conservation).
    if (std::string err =
            program_->audit(integ.audit, integ.sample_size, draws);
        !err.empty()) {
      fail("program", std::move(err));
    }
  });

  // Relax one classified sub-queue at `gran`, charging the same SIMT and
  // memory streams the BFS expansion kernels charge (kernels.cpp), plus a
  // random program-state load per inspected edge and a random store per
  // improvement. Hub improvements go through the shared-memory cache;
  // non-hubs pay the global improved-flag traffic. Improvements are marked
  // in edge order, so the hub-cache hits and evictions below replay exactly
  // as an edge-at-a-time kernel would see them.
  const bfs::ProgramTraits traits = program_->traits();
  std::vector<vertex_t> relaxed;
  std::int32_t superstep = 0;
  const auto relax_queue = [&](std::span<const vertex_t> sub, Granularity gran,
                               HubCache& cache, const sim::MemoryModel& mm,
                               sim::KernelRecord& rec) -> edge_t {
    std::uint64_t adj_long = 0, adj_short = 0;
    std::uint64_t state_loads = 0, state_stores = 0;
    std::uint64_t flag_loads = 0, flag_stores = 0, cache_probes = 0;
    edge_t inspected_total = 0;
    sim::WarpAccumulator acc(mm.spec().warp_size);
    const auto chain = [&](std::uint64_t work) {
      const std::uint64_t iters = work / kInspectCycles + 1;
      return iters * (1 + mm.spec().global_latency_cycles / 8);
    };
    // §4.3 adapted: a hub improvement probes the cache, and a hit proves the
    // hub was already marked this superstep (the cache starts each superstep
    // empty), so only a miss pays the global flag store. A non-hub loads its
    // flag and stores it when unset. Either way the mark ends up set.
    const auto mark = [&](vertex_t v) {
      const std::uint8_t m = marks[v];
      if ((m & kHubMark) != 0) {
        ++cache_probes;
        flag_stores += cache.probe_insert(v) ? 0u : 1u;
      } else {
        ++flag_loads;
        flag_stores += (m & kImprovedMark) != 0 ? 0u : 1u;
      }
      marks[v] = m | kImprovedMark;
    };
    for (const vertex_t u : sub) {
      // Bounds guard against injected frontier flips; never fires on valid
      // data (see expand_top_down).
      if (u >= n) continue;
      std::uint64_t work = 0;
      const std::uint64_t probes_before = cache_probes;
      const graph::Csr* views[2] = {&g, in_edges_};
      for (const graph::Csr* view : views) {
        if (view == nullptr) continue;
        const auto neighbors = view->neighbors(u);
        const auto degree = static_cast<edge_t>(neighbors.size());
        if (degree >= 32) {
          adj_long += degree;
        } else {
          adj_short += degree;
        }
        relaxed.clear();
        const edge_t inspected = program_->relax_edges(u, neighbors, relaxed);
        const std::uint64_t improvements =
            traits.every_edge_improves ? inspected : relaxed.size();
        inspected_total += inspected;
        state_loads += inspected;
        state_stores += improvements;
        work += inspected * kInspectCycles + improvements * kVisitCycles;
        if (traits.every_edge_improves) {
          for (const vertex_t v : neighbors) {
            if (v < n) mark(v);
          }
        } else {
          for (const vertex_t v : relaxed) mark(v);
        }
      }
      work += (cache_probes - probes_before) * kCacheProbeCycles;
      if (gran == Granularity::kThread) {
        acc.add_thread(kExpandSetupCycles + work);
        rec.critical_cycles = std::max(rec.critical_cycles, chain(work));
      } else {
        charge_group_work(rec, mm.spec(), gran, work);
      }
    }
    acc.finish();
    rec.warp_cycles += acc.warp_cycles();
    rec.thread_cycles += acc.thread_cycles();
    rec.launched_threads += acc.threads();
    rec.active_threads += acc.active_threads();

    using sim::AccessPattern;
    mm.record_load(rec.mem, AccessPattern::kSequential, sub.size(),
                   sizeof(vertex_t));
    mm.record_load(rec.mem, AccessPattern::kStrided, sub.size(),
                   2 * sizeof(edge_t));
    mm.record_load(rec.mem, AccessPattern::kSequential, adj_long,
                   sizeof(vertex_t));
    mm.record_load(rec.mem, AccessPattern::kStrided, adj_short,
                   sizeof(vertex_t));
    mm.record_load(rec.mem, AccessPattern::kRandom, state_loads, kStateBytes);
    mm.record_store(rec.mem, AccessPattern::kRandom, state_stores,
                    kStateBytes);
    mm.record_load(rec.mem, AccessPattern::kRandom, flag_loads, 1);
    mm.record_store(rec.mem, AccessPattern::kRandom, flag_stores, 1);
    mm.record_shared(rec.mem, cache_probes);
    return inspected_total;
  };

  edge_t total_inspected = 0;
  bool converged = false;
  const std::uint64_t bitmap_bytes_each =
      (static_cast<std::uint64_t>(n) / P + 7) / 8 + 1;

  // Guard limits are routed through the program's traits: an unbounded-depth
  // fixpoint (pagerank) masks the level count so max_levels cannot trip, an
  // all-vertices frontier (cc, pagerank) masks the frontier size. Deadline
  // and cancellation always apply. The program's resident state plays the
  // kStatus flip-target role, the selected frontier the kFrontier role.
  std::vector<bfs::LevelShard> shards(P);
  std::vector<vertex_t> improved;
  while (!frontier.empty() && !converged) {
    for (unsigned p = 0; p < P; ++p) {
      shards[p] = {device_ids_[p], program_->raw_state_bytes(),
                   std::as_writable_bytes(std::span<vertex_t>(frontier))};
    }
    supervisor_.level_top(superstep, traits.bounded_depth ? superstep : 0,
                          traits.bounded_frontier ? frontier.size() : 0,
                          system_.elapsed_ms(), shards);

    bfs::LevelTrace trace;
    trace.level = superstep;
    trace.direction = bfs::Direction::kTopDown;
    trace.frontier_count = static_cast<vertex_t>(frontier.size());
    const double step_start_ms = system_.elapsed_ms();

    // (1) TS queue generation: mark the selected frontier in the active
    // bitmap and read each device's slice of it into a dense queue. The
    // device model charges the marking stores and a status scan.
    for (const vertex_t v : frontier) {
      if (v < n) active.set(v);
    }
    std::vector<std::vector<vertex_t>> queues(P);
    double max_qgen = 0.0;
    for (unsigned p = 0; p < P; ++p) {
      sim::Device& dev = system_.device(p);
      FrontierQueueGenerator gen(dev.memory(), scan_threads);
      sim::KernelRecord qrec;
      qrec.name = "queue_gen(program)";
      dev.memory().record_store(qrec.mem, sim::AccessPattern::kRandom,
                                frontier.size() / P + 1, kStatusBytes);
      queues[p] = gen.top_down(active, ranges_[p].begin, ranges_[p].end,
                               frontier.size() / P, qrec);
      const std::string qname = qrec.name;
      const double qstart = dev.elapsed_ms();
      const double qms = dev.run_kernel(std::move(qrec));
      trace.kernels.push_back({qname, qms});
      emit_span(superstep, "queue_gen", qname, qstart, qms, queues[p].size());
      max_qgen = std::max(max_qgen, qms);
    }
    trace.queue_gen_ms = max_qgen;

    // (2) WB relax: classify each device's slice and run the granularity
    // kernels as one Hyper-Q group.
    for (unsigned p = 0; p < P; ++p) caches[p].clear();
    double max_expand = 0.0;
    for (unsigned p = 0; p < P; ++p) {
      if (queues[p].empty()) continue;
      sim::Device& dev = system_.device(p);
      double device_ms = 0.0;
      if (options_.workload_balancing) {
        sim::KernelRecord crec;
        crec.name = "classify";
        const ClassifiedQueues classified =
            classify_frontiers(g, queues[p], dev.memory(), crec);
        std::vector<sim::KernelRecord> recs;
        recs.push_back(std::move(crec));
        std::vector<std::uint64_t> rec_items{queues[p].size()};
        for (Granularity gran : {Granularity::kThread, Granularity::kWarp,
                                 Granularity::kCta, Granularity::kGrid}) {
          const auto& sub = classified.of(gran);
          if (metrics != nullptr) {
            metrics
                ->counter(std::string("enterprise.queue.") + to_string(gran))
                .add(sub.size());
          }
          if (sub.empty()) continue;
          sim::KernelRecord rec;
          rec.name = to_string(gran);
          trace.edges_inspected +=
              relax_queue(sub, gran, caches[p], dev.memory(), rec);
          recs.push_back(std::move(rec));
          rec_items.push_back(sub.size());
        }
        const std::size_t count = recs.size();
        const double group_start = dev.elapsed_ms();
        device_ms += dev.run_concurrent(std::move(recs));
        const auto timeline = dev.timeline();
        for (std::size_t i = timeline.size() - count; i < timeline.size();
             ++i) {
          trace.kernels.push_back({timeline[i].name, timeline[i].time_ms});
          const std::size_t member = i - (timeline.size() - count);
          emit_span(superstep, member == 0 ? "classify" : "relax",
                    timeline[i].name, group_start, timeline[i].time_ms,
                    rec_items[member]);
        }
      } else {
        const Granularity gran = options_.fixed_granularity;
        sim::KernelRecord rec;
        rec.name = std::string("Relax(") + to_string(gran) + ")";
        trace.edges_inspected +=
            relax_queue(queues[p], gran, caches[p], dev.memory(), rec);
        const std::string rname = rec.name;
        const double rstart = dev.elapsed_ms();
        const double rms = dev.run_kernel(std::move(rec));
        device_ms += rms;
        trace.kernels.push_back({rname, rms});
        emit_span(superstep, "relax", rname, rstart, rms, queues[p].size());
      }
      max_expand = std::max(max_expand, device_ms);
    }
    trace.expand_ms = max_expand;
    total_inspected += trace.edges_inspected;

    if (use_hub && metrics != nullptr) {
      std::uint64_t probes = 0, hits = 0;
      for (const HubCache& c : caches) {
        probes += c.probes();
        hits += c.hits();
      }
      if (probes != 0) {
        metrics->counter("enterprise.hub_cache.probes").add(probes);
        metrics->counter("enterprise.hub_cache.hits").add(hits);
      }
    }

    // (3) Multi-device sync: the improved flags all-gather as one bit per
    // vertex, the same __ballot() compression the BFS all-gather uses.
    double comm_ms = 0.0;
    if (P > 1) {
      comm_ms = system_.interconnect().allgather_ms(bitmap_bytes_each, P,
                                                    system_.elapsed_ms());
      trace.comm_ms = comm_ms;
      emit_span(superstep, "comm", "improved-allgather",
                system_.elapsed_ms(), comm_ms,
                bitmap_bytes_each * (P - 1) * P);
    }

    // (4) Apply barrier: deferred per-vertex updates (pagerank's rank swap)
    // cost one O(n) streaming kernel on every device.
    double max_apply = 0.0;
    if (program_->apply(superstep)) {
      for (unsigned p = 0; p < P; ++p) {
        sim::Device& dev = system_.device(p);
        sim::KernelRecord arec;
        arec.name = "apply";
        const std::uint64_t warps =
            static_cast<std::uint64_t>(n) / dev.spec().warp_size + 1;
        arec.warp_cycles = warps * kApplyCycles;
        arec.thread_cycles = static_cast<std::uint64_t>(n) * kApplyCycles;
        arec.launched_threads = n;
        arec.active_threads = n;
        dev.memory().record_load(arec.mem, sim::AccessPattern::kSequential, n,
                                 kStateBytes);
        dev.memory().record_store(arec.mem, sim::AccessPattern::kSequential,
                                  n, kStateBytes);
        const double astart = dev.elapsed_ms();
        const double ams = dev.run_kernel(std::move(arec));
        trace.kernels.push_back({"apply", ams});
        emit_span(superstep, "apply", "apply", astart, ams, n);
        max_apply = std::max(max_apply, ams);
      }
    }

    // (5) Next frontier: the program selects from this superstep's improved
    // set (ascending for determinism), then votes on convergence. One scan
    // of the marks emits the set in order and clears it; a vertex improved
    // for the first time records this superstep as its first touch.
    improved.clear();
    take_improved(marks, improved);
    for (const vertex_t v : improved) {
      if (first_touch[v] < 0) first_touch[v] = superstep + 1;
    }
    std::vector<vertex_t> next;
    program_->select_frontier(improved, next);
    converged = program_->converged(superstep, next.size());
    frontier = std::move(next);

    system_.advance_step(max_qgen + max_expand + max_apply, comm_ms);
    trace.total_ms = system_.elapsed_ms() - step_start_ms;
    if (sink != nullptr) sink->level(bfs::to_level_event(trace));
    result.level_trace.push_back(std::move(trace));
    ++superstep;
  }

  supervisor_.finish(superstep, system_.elapsed_ms());

  result.levels = std::move(first_touch);
  result.depth = superstep;
  result.edges_traversed = total_inspected;
  result.time_ms = system_.elapsed_ms();
  program_->finalize(result);

  if (metrics != nullptr) {
    metrics->counter("program.supersteps").add(result.level_trace.size());
  }
  return result;
}

}  // namespace ent::enterprise
