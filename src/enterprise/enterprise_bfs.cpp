#include "enterprise/enterprise_bfs.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <span>

#include "bfs/checkpoint.hpp"
#include "bfs/telemetry.hpp"
#include "enterprise/cost_constants.hpp"
#include "enterprise/frontier_queue.hpp"
#include "enterprise/hub_cache.hpp"
#include "enterprise/kernels.hpp"
#include "enterprise/status_array.hpp"
#include "graph/degree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "util/assert.hpp"

namespace ent::enterprise {

using graph::edge_t;
using graph::vertex_t;

unsigned scan_width(unsigned scan_threads, const sim::DeviceSpec& device) {
  return scan_threads != 0 ? scan_threads : device.num_smx * 4096;
}

HubSet select_hubs(const graph::Csr& g, const EnterpriseOptions& options) {
  vertex_t target = options.hub_target_count;
  if (target == 0) {
    target = std::clamp<vertex_t>(g.num_vertices() / 1024, 16,
                                  options.hub_cache_capacity);
  }
  const graph::HubStats stats = graph::select_hub_threshold(g, target);
  return {stats.threshold, stats.num_hubs,
          graph::hub_flags(g, stats.threshold)};
}

EnterpriseBfs::EnterpriseBfs(const graph::Csr& g, EnterpriseOptions options)
    : graph_(&g),
      options_(std::move(options)),
      hubs_(select_hubs(g, options_)),
      supervisor_(g, options_) {
  if (g.directed()) {
    in_storage_.emplace(g.reversed());
    in_edges_ = &*in_storage_;
  } else {
    in_edges_ = graph_;
  }
  device_ = std::make_unique<sim::Device>(options_.device);
  device_->set_trace_sink(options_.sink);
  device_->set_device_id(options_.device_ordinal);
  device_->set_fault_injector(options_.fault_injector);
}

bfs::BfsResult EnterpriseBfs::run(vertex_t source) {
  const graph::Csr& g = *graph_;
  const vertex_t n = g.num_vertices();
  ENT_ASSERT(source < n);

  device_->reset();
  device_->memory().set_working_set(
      g.footprint_bytes() + static_cast<std::uint64_t>(n) * kStatusBytes +
      static_cast<std::uint64_t>(n) * sizeof(vertex_t));

  StatusArray status(n);
  std::vector<vertex_t> parents(n, graph::kInvalidVertex);
  status.visit(source, 0);
  parents[source] = source;
  // The next frontier as a bitmap: marked by each top-down expansion and
  // emptied again by the queue generated from it.
  BitArray visits(n);

  FrontierQueueGenerator gen(
      device_->memory(), scan_width(options_.scan_threads, options_.device));
  HubCache cache(options_.hub_cache_capacity);

  bfs::BfsResult result;
  result.source = source;

  std::vector<vertex_t> queue{source};
  bool bottom_up = false;
  bool switched = false;
  // Order of the bottom-up queue: sorted with the chunked switch scan,
  // scattered under the interleaved-scan ablation.
  QueueOrder bu_order = QueueOrder::kSorted;
  std::int32_t level = 0;  // level of the frontiers being expanded
  vertex_t last_newly_visited = 1;
  std::size_t prev_queue_size = 0;
  edge_t visited_degree_sum = g.out_degree(source);
  const edge_t total_edges = g.num_edges();

  // Resume from a level snapshot when the resilience layer replays this
  // source (bfs/checkpoint.hpp). The snapshot replaces the fresh-start state
  // above; the device clock stays at zero — the caller accounts for the time
  // already spent on the faulted attempt. The hub cache restarts cold, which
  // only costs simulated time (probes fall through to the status array).
  if (options_.checkpointer != nullptr) {
    if (const bfs::LevelCheckpoint* cp = options_.checkpointer->restore();
        cp != nullptr && cp->source == source) {
      status = StatusArray(cp->levels);
      parents = cp->parents;
      queue = cp->frontier;
      bottom_up = cp->bottom_up;
      switched = cp->switched;
      bu_order = cp->sorted_frontier ? QueueOrder::kSorted
                                     : QueueOrder::kScattered;
      level = cp->next_level;
      last_newly_visited = cp->last_newly_visited;
      prev_queue_size = static_cast<std::size_t>(cp->prev_frontier_size);
      visited_degree_sum = cp->visited_degree_sum;
      result.level_trace = cp->level_trace;
    }
  }

  obs::TraceSink* const sink = options_.sink;
  obs::MetricsRegistry* const metrics = options_.metrics;
  const auto emit_span = [&](int lvl, const char* phase,
                             std::string detail, double start_ms,
                             double duration_ms, std::uint64_t value) {
    if (sink == nullptr) return;
    sink->span({lvl, phase, std::move(detail), start_ms, duration_ms, value});
  };
  std::uint64_t hub_probes_seen = cache.probes();
  std::uint64_t hub_hits_seen = cache.hits();

  bfs::BfsAudit audit;
  supervisor_.begin_run([&](std::int32_t lvl) {
    audit.check(supervisor_, lvl, {&options_.device_ordinal, 1}, {&status, 1},
                {&queue, 1}, bottom_up);
  });
  audit.start(supervisor_, status, level, source);

  while (!queue.empty()) {
    const bfs::LevelShard shard{
        options_.device_ordinal, status.raw_bytes(),
        std::as_writable_bytes(std::span<vertex_t>(queue))};
    supervisor_.level_top(level, level, queue.size(), device_->elapsed_ms(),
                          {&shard, 1});
    bfs::LevelTrace trace;
    trace.level = level;
    const double level_start_ms = device_->elapsed_ms();

    if (!bottom_up) {
      const edge_t m_f = frontier_out_edges(g, queue);
      trace.alpha = compute_alpha(total_edges - visited_degree_sum, m_f);
      trace.gamma = compute_gamma(queue, hubs_.flags, hubs_.total);
      if (options_.allow_direction_switch && !switched && level > 0 &&
          should_switch_to_bottom_up(options_.direction, trace.alpha,
                                     trace.gamma,
                                     queue.size() > prev_queue_size)) {
        // One-time switch at the explosion level: regenerate the queue as
        // the unvisited set with the chunked (direction-switching) scan,
        // seeding the hub cache with the hubs just visited.
        bottom_up = true;
        switched = true;
        sim::KernelRecord qrec;
        qrec.name = "queue_gen(switch)";
        const HubRefill refill =
            hubs_.refill(options_.hub_cache ? &cache : nullptr, level);
        const ScanLayout layout = options_.chunked_switch_scan
                                      ? ScanLayout::kChunked
                                      : ScanLayout::kInterleaved;
        bu_order = options_.chunked_switch_scan ? QueueOrder::kSorted
                                                : QueueOrder::kScattered;
        queue = gen.direction_switch(status, refill, qrec, layout);
        const std::string qname = qrec.name;
        const double switch_start_ms = device_->elapsed_ms();
        const double qms = device_->run_kernel(std::move(qrec));
        trace.queue_gen_ms += qms;
        trace.kernels.push_back({qname, qms});
        emit_span(level, "switch", "top-down->bottom-up", switch_start_ms,
                  qms, queue.size());
        if (metrics != nullptr) {
          metrics->gauge("enterprise.gamma_at_switch").set(trace.gamma);
          metrics->gauge("enterprise.switch_level")
              .set(static_cast<double>(level));
        }
        if (queue.empty()) break;
      }
    } else if (options_.switch_back_beta > 0.0 &&
               static_cast<double>(last_newly_visited) <
                   static_cast<double>(n) / options_.switch_back_beta) {
      // Ablated [10]-style switch-back: resume top-down once the visited
      // frontier is small. Enterprise proper never does this (§2.1: "neither
      // necessary nor beneficial").
      bottom_up = false;
      sim::KernelRecord qrec;
      qrec.name = "queue_gen(switch-back)";
      BitArray at_level = status.level_bits(level);
      queue = gen.top_down(at_level, 0, n, last_newly_visited, qrec);
      const std::string qname = qrec.name;
      const double qms = device_->run_kernel(std::move(qrec));
      trace.queue_gen_ms += qms;
      trace.kernels.push_back({qname, qms});
      if (queue.empty()) break;
    }
    trace.direction =
        bottom_up ? bfs::Direction::kBottomUp : bfs::Direction::kTopDown;
    const std::int32_t next_level = level + 1;

    vertex_t newly_visited = 0;
    const graph::Csr& expand_graph = bottom_up ? *in_edges_ : g;
    HubCache* probe_cache =
        (bottom_up && options_.hub_cache) ? &cache : nullptr;
    const QueueOrder order = bottom_up ? bu_order : QueueOrder::kScattered;
    BitArray parent_bits =
        bottom_up ? status.parent_bits(next_level) : BitArray();

    if (options_.workload_balancing) {
      // Classification happens alongside queue generation (§4.2: each scan
      // thread routes discovered frontiers into one of four bins by
      // out-degree), so its work joins the level's concurrent group rather
      // than paying a separate launch.
      sim::KernelRecord crec;
      crec.name = "classify";
      const ClassifiedQueues classified = classify_frontiers(
          expand_graph, queue, device_->memory(), crec);

      std::vector<sim::KernelRecord> recs;
      recs.push_back(std::move(crec));
      // Parallel to `recs`: frontier count behind each kernel, for the span
      // stream and the per-class occupancy counters.
      std::vector<std::uint64_t> rec_items{queue.size()};
      for (Granularity gran : {Granularity::kThread, Granularity::kWarp,
                               Granularity::kCta, Granularity::kGrid}) {
        const auto& sub = classified.of(gran);
        if (metrics != nullptr) {
          metrics
              ->counter(std::string("enterprise.queue.") +
                        to_string(gran))
              .add(sub.size());
        }
        if (sub.empty()) continue;
        sim::KernelRecord rec;
        rec.name = std::string(bottom_up ? "BU-" : "") + to_string(gran);
        const ExpandOutput out =
            bottom_up
                ? expand_bottom_up(expand_graph, status, parent_bits,
                                   parents, sub, gran, next_level,
                                   probe_cache, device_->memory(), rec, order)
                : expand_top_down(expand_graph, status, visits, parents,
                                  sub, gran, next_level, device_->memory(),
                                  rec, order);
        newly_visited += out.newly_visited;
        trace.edges_inspected += out.edges_inspected;
        recs.push_back(std::move(rec));
        rec_items.push_back(sub.size());
      }
      if (!recs.empty()) {
        const std::size_t count = recs.size();
        const double group_start_ms = device_->elapsed_ms();
        trace.expand_ms += device_->run_concurrent(std::move(recs));
        // Standalone per-kernel times (for the Fig. 8 timeline) are on the
        // device timeline tail after the concurrent launch.
        const auto timeline = device_->timeline();
        for (std::size_t i = timeline.size() - count; i < timeline.size();
             ++i) {
          trace.kernels.push_back({timeline[i].name, timeline[i].time_ms});
          const std::size_t member = i - (timeline.size() - count);
          emit_span(level, member == 0 ? "classify" : "expand",
                    timeline[i].name, group_start_ms, timeline[i].time_ms,
                    rec_items[member]);
        }
      }
    } else {
      // Fixed-granularity configuration: one kernel for every frontier (the
      // paper's TS-only setup uses CTA, mirroring the BL baseline; Thread
      // and Warp are kept for the classification ablation).
      const Granularity gran = options_.fixed_granularity;
      sim::KernelRecord rec;
      rec.name = std::string(bottom_up ? "BU-Expand(" : "Expand(") +
                 to_string(gran) + ")";
      ExpandOutput out =
          bottom_up ? expand_bottom_up(expand_graph, status, parent_bits,
                                       parents, queue, gran, next_level,
                                       probe_cache, device_->memory(), rec,
                                       order)
                    : expand_top_down(expand_graph, status, visits, parents,
                                      queue, gran, next_level,
                                      device_->memory(), rec, order);
      newly_visited += out.newly_visited;
      trace.edges_inspected += out.edges_inspected;
      const std::string rname = rec.name;
      const double expand_start_ms = device_->elapsed_ms();
      const double rms = device_->run_kernel(std::move(rec));
      trace.expand_ms += rms;
      trace.kernels.push_back({rname, rms});
      emit_span(level, "expand", rname, expand_start_ms, rms, queue.size());
    }
    trace.frontier_count = static_cast<vertex_t>(queue.size());

    // Hub-cache telemetry: probe/hit deltas from this level's bottom-up
    // inspection (§4.3's HC effect, the Fig. 12 series).
    if (bottom_up && options_.hub_cache &&
        cache.probes() != hub_probes_seen) {
      const std::uint64_t probes = cache.probes() - hub_probes_seen;
      const std::uint64_t hits = cache.hits() - hub_hits_seen;
      hub_probes_seen = cache.probes();
      hub_hits_seen = cache.hits();
      emit_span(level, "hub_cache", "hit", device_->elapsed_ms(), 0.0, hits);
      emit_span(level, "hub_cache", "miss", device_->elapsed_ms(), 0.0,
                probes - hits);
      if (metrics != nullptr) {
        metrics->counter("enterprise.hub_cache.probes").add(probes);
        metrics->counter("enterprise.hub_cache.hits").add(hits);
      }
    }

    // Next level's queue.
    if (!bottom_up) {
      sim::KernelRecord qrec;
      qrec.name = "queue_gen(top-down)";
      // A silent flip at the level top can lift a status to next_level
      // without a visit; the status scan the device models finds it, so
      // with flips armed the queue comes from the statuses themselves.
      if (supervisor_.flips_armed()) visits = status.level_bits(next_level);
      queue = gen.top_down(visits, 0, n, newly_visited, qrec);
      visited_degree_sum += frontier_out_edges(g, queue);
      const std::string qname = qrec.name;
      const double qgen_start_ms = device_->elapsed_ms();
      const double qms = device_->run_kernel(std::move(qrec));
      trace.queue_gen_ms += qms;
      trace.kernels.push_back({qname, qms});
      emit_span(level, "queue_gen", qname, qgen_start_ms, qms, queue.size());
    } else {
      if (newly_visited == 0) {
        // Remaining queued vertices are unreachable from the source.
        trace.total_ms = device_->elapsed_ms() - level_start_ms;
        if (sink != nullptr) sink->level(bfs::to_level_event(trace));
        result.level_trace.push_back(std::move(trace));
        break;
      }
      sim::KernelRecord qrec;
      const HubRefill refill =
          hubs_.refill(options_.hub_cache ? &cache : nullptr, next_level);
      if (options_.bottom_up_filter) {
        qrec.name = "queue_gen(filter)";
        queue = gen.bottom_up_filter(queue, status, refill, qrec);
      } else {
        // Ablation: rescan the whole status array every bottom-up level
        // instead of exploiting the subset property.
        qrec.name = "queue_gen(rescan)";
        queue = gen.direction_switch(status, refill, qrec);
        bu_order = QueueOrder::kSorted;
      }
      const std::string qname = qrec.name;
      const double qgen_start_ms = device_->elapsed_ms();
      const double qms = device_->run_kernel(std::move(qrec));
      trace.queue_gen_ms += qms;
      trace.kernels.push_back({qname, qms});
      emit_span(level, "queue_gen", qname, qgen_start_ms, qms, queue.size());
    }

    last_newly_visited = newly_visited;
    audit.record(newly_visited);
    prev_queue_size = trace.frontier_count;
    trace.total_ms = device_->elapsed_ms() - level_start_ms;
    if (sink != nullptr) sink->level(bfs::to_level_event(trace));
    result.level_trace.push_back(std::move(trace));
    level = next_level;

    if (options_.checkpointer != nullptr) {
      bfs::LevelCheckpoint cp;
      cp.source = source;
      cp.next_level = level;
      cp.levels.assign(status.data().begin(), status.data().end());
      cp.parents = parents;
      cp.frontier = queue;
      cp.bottom_up = bottom_up;
      cp.switched = switched;
      cp.sorted_frontier = bu_order == QueueOrder::kSorted;
      cp.last_newly_visited = last_newly_visited;
      cp.prev_frontier_size = prev_queue_size;
      cp.visited_degree_sum = visited_degree_sum;
      cp.level_trace = result.level_trace;
      options_.checkpointer->save(std::move(cp));
    }
  }

  supervisor_.finish(level, device_->elapsed_ms());

  // Finalize.
  bfs::finish_result(result, g, std::move(status).take(), std::move(parents));
  result.time_ms = device_->elapsed_ms();

  if (metrics != nullptr) {
    metrics->counter("enterprise.levels").add(result.level_trace.size());
    const std::uint64_t probes = cache.probes();
    if (probes != 0) {
      metrics->gauge("enterprise.hub_cache.hit_rate")
          .set(static_cast<double>(cache.hits()) /
               static_cast<double>(probes));
    }
  }
  return result;
}

}  // namespace ent::enterprise
