// The three benchmark workloads. Each one builds its inputs from the seed,
// sets up several times (the median is `setup_s`), warms every engine with
// one untimed traversal, then measures for the requested number of seconds
// while checking every answer. Layers are timed from outside, around calls
// into their public functions; the simulated clock is read from the
// per-level traces and hardware counters every result already carries.
// Every host time is scaled by the SpeedProbe (probe.hpp), sampled between
// stretches of work, so the shared host's slow and fast stretches cancel.
#include <algorithm>
#include <array>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "bench.hpp"
#include "probe.hpp"
#include "bfs/engine.hpp"
#include "bfs/program.hpp"
#include "bfs/runner.hpp"
#include "bfs/spec.hpp"
#include "bfs/validate.hpp"
#include "graph/snapshot.hpp"
#include "graph/suite.hpp"
#include "gpusim/spec.hpp"
#include "serve/service.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

using ent::bfs::BfsResult;
using ent::bfs::ValidationReport;
using ent::graph::Csr;
using ent::graph::edge_t;
using ent::graph::vertex_t;
using ent::obs::Json;

constexpr int kSetupRepeats = 5;

double percentile(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : ent::quantile(v, q);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

// Simulated GTEPS of a group of traversals: their edges over their simulated
// time. The benchmark's sim_gteps_hmean is the harmonic mean of these group
// values (one group per graph and engine, or per request workload), not of
// single traversals: a source whose search reaches only a few edges (a
// directed-graph source pointing at a sink) has a TEPS thousands of times
// below the rest and would make a per-traversal harmonic mean report that
// one source alone.
struct SimTeps {
  double edges = 0.0;
  double sim_ms = 0.0;

  void add(double e, double ms) {
    edges += e;
    sim_ms += ms;
  }
  double gteps() const { return ratio(edges, sim_ms * 1e-3) / 1e9; }
};

double gteps_hmean(const std::vector<SimTeps>& groups) {
  std::vector<double> values;
  for (const SimTeps& g : groups) values.push_back(g.gteps());
  return ent::harmonic_mean(values);
}

// Computed, not measured: row offsets plus column indices.
double csr_mib(const Csr& g) {
  return mib((static_cast<double>(g.num_vertices()) + 1.0) * sizeof(edge_t) +
             static_cast<double>(g.num_edges()) * sizeof(vertex_t));
}

// Independent input streams (sources, requests, updates) of one seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return ent::mix64(seed * 0x100000001b3ull + stream);
}

// The bench binaries' device: a K40 scaled down 16x (EXPERIMENTS.md).
ent::bfs::EngineConfig base_config() {
  ent::bfs::EngineConfig config;
  config.device = ent::sim::scaled_down(ent::sim::k40(), 16.0);
  config.enterprise.device = config.device;
  config.multi_gpu.per_device = config.enterprise;
  return config;
}

// ---------------------------------------------------------------------------
// Single-threaded traversal workloads (paper-bfs, programs).

// Simulated-clock record of one traversal of the first pass.
struct SimRecord {
  double sim_ms = 0.0;
  edge_t traversed = 0;
  edge_t inspected = 0;
  std::size_t levels = 0;
  std::size_t bottom_up = 0;
  double queue_gen_ms = 0.0;
  double expand_ms = 0.0;
  double comm_ms = 0.0;
  std::optional<ent::sim::HardwareCounters> counters;

  bool same_clock(const SimRecord& o) const {
    return sim_ms == o.sim_ms && traversed == o.traversed &&
           inspected == o.inspected && levels == o.levels;
  }
};

SimRecord sim_record(const BfsResult& r) {
  SimRecord s;
  s.sim_ms = r.time_ms;
  s.traversed = r.edges_traversed;
  s.levels = r.level_trace.size();
  for (const auto& level : r.level_trace) {
    s.inspected += level.edges_inspected;
    if (level.direction == ent::bfs::Direction::kBottomUp) ++s.bottom_up;
    s.queue_gen_ms += level.queue_gen_ms;
    s.expand_ms += level.expand_ms;
    s.comm_ms += level.comm_ms;
  }
  return s;
}

struct GraphSlot {
  std::string abbr;
  Csr graph;
  std::optional<Csr> reverse;
  std::vector<vertex_t> sources;

  const Csr& reverse_or_self() const { return reverse ? *reverse : graph; }
};

struct RowSpec {
  std::string abbr;
  std::string spec;
  std::string kind;  // enterprise, multigpu, or the program name
  unsigned gpus = 1;
};

struct Row {
  RowSpec spec;
  GraphSlot* slot = nullptr;
  std::unique_ptr<ent::bfs::Engine> engine;
  std::unique_ptr<ent::bfs::VertexProgram> validator;  // programs only
  std::vector<SimRecord> first;  // first pass, one per source
  std::vector<double> run_ms;
  double run_ms_sum = 0.0;
  edge_t inspected_sum = 0;
  std::size_t levels_sum = 0;

  std::string label() const { return spec.abbr + " " + spec.spec; }
};

struct Setup {
  std::vector<std::unique_ptr<GraphSlot>> graphs;
  std::vector<Row> rows;
  double seconds = 0.0;
  double generate_ms = 0.0;
  double reverse_ms = 0.0;
  double make_engine_ms = 0.0;
};

// Generates the graphs, reverses the directed ones when `reverse_directed`,
// and constructs one engine per row: everything `setup_s` times.
Setup build_setup(const std::vector<RowSpec>& specs, double scale,
                  std::uint64_t seed, bool reverse_directed,
                  Tracer& tracer) {
  Setup s;
  const std::uint64_t setup_id = tracer.next_id();
  const Clock::time_point start = Clock::now();
  for (const RowSpec& rs : specs) {
    const bool have = std::any_of(
        s.graphs.begin(), s.graphs.end(),
        [&](const auto& slot) { return slot->abbr == rs.abbr; });
    if (have) continue;
    double ms = 0.0;
    auto slot = std::make_unique<GraphSlot>();
    slot->abbr = rs.abbr;
    slot->graph = timed(tracer, ms, "make_suite_graph", "graph", setup_id, 0,
                        rs.abbr, [&] {
                          return ent::graph::make_suite_graph(
                                     rs.abbr, {scale, seed})
                              .graph;
                        });
    s.generate_ms += ms;
    if (reverse_directed && slot->graph.directed()) {
      slot->reverse = timed(tracer, ms, "Csr::reversed", "graph", setup_id, 0,
                            rs.abbr, [&] { return slot->graph.reversed(); });
      s.reverse_ms += ms;
    }
    s.graphs.push_back(std::move(slot));
  }
  for (const RowSpec& rs : specs) {
    Row row;
    row.spec = rs;
    for (const auto& slot : s.graphs) {
      if (slot->abbr == rs.abbr) row.slot = slot.get();
    }
    ent::bfs::EngineConfig config = base_config();
    config.multi_gpu.num_gpus = rs.gpus;
    double ms = 0.0;
    row.engine = timed(tracer, ms, "make_engine", "bfs", setup_id, 0,
                       row.label(), [&] {
                         return ent::bfs::make_engine(rs.spec,
                                                      row.slot->graph, config);
                       });
    s.make_engine_ms += ms;
    if (row.engine == nullptr) {
      throw std::invalid_argument("make_engine rejected " + rs.spec);
    }
    s.rows.push_back(std::move(row));
  }
  const Clock::time_point end = Clock::now();
  s.seconds = ms_between(start, end) / 1e3;
  if (tracer.recording()) {
    tracer.add({"setup", "bench", start, end, setup_id, 0, 0, 0, ""});
  }
  return s;
}

// Repeats the set-up and keeps the last one; the medians are reported.
struct SetupTimes {
  std::vector<double> seconds, generate_ms, reverse_ms, make_engine_ms;

  void add(const Setup& s, double scale) {
    seconds.push_back(s.seconds * scale);
    generate_ms.push_back(s.generate_ms * scale);
    reverse_ms.push_back(s.reverse_ms * scale);
    make_engine_ms.push_back(s.make_engine_ms * scale);
  }
};

// Per-kind aggregates over the timed loop and the first pass.
struct KindStats {
  std::vector<double> run_ms;
  double run_ms_sum = 0.0;
  edge_t inspected_sum = 0;
  std::size_t levels_sum = 0;
  SimRecord first;  // sums over the first pass
  std::size_t first_runs = 0;
  std::uint64_t gld = 0, gst = 0;
  std::size_t counted = 0;  // first-pass runs with hardware counters
};

std::map<std::string, KindStats> by_kind(const std::vector<Row>& rows) {
  std::map<std::string, KindStats> kinds;
  for (const Row& row : rows) {
    KindStats& k = kinds[row.spec.kind];
    k.run_ms.insert(k.run_ms.end(), row.run_ms.begin(), row.run_ms.end());
    k.run_ms_sum += row.run_ms_sum;
    k.inspected_sum += row.inspected_sum;
    k.levels_sum += row.levels_sum;
    for (const SimRecord& r : row.first) {
      ++k.first_runs;
      k.first.sim_ms += r.sim_ms;
      k.first.traversed += r.traversed;
      k.first.inspected += r.inspected;
      k.first.levels += r.levels;
      k.first.bottom_up += r.bottom_up;
      k.first.queue_gen_ms += r.queue_gen_ms;
      k.first.expand_ms += r.expand_ms;
      k.first.comm_ms += r.comm_ms;
      if (r.counters) {
        ++k.counted;
        k.gld += r.counters->gld_transactions;
        k.gst += r.counters->gst_transactions;
      }
    }
  }
  return kinds;
}

struct LoopStats {
  std::vector<double> run_ms, e2e_ms, validate_ms;
  std::vector<double> run_ms_traced, run_ms_untraced;
  double host_s = 0.0;
  double wall_s = 0.0;
  edge_t traversed = 0;
  std::uint64_t traversals = 0;
};

// One checked traversal: run, read counters, validate, and compare with
// `first_pass` when given. With `stats`, the run is counted in the timed
// loop, and a null `first_pass` records it as the row's first-pass run.
// Returns the host ms of Engine::run; the loop records it times `scale`.
double traverse(Row& row, vertex_t source, std::uint64_t flow, Tracer& tracer,
                RunResult& out, LoopStats* stats, SimRecord* first_pass,
                double scale = 1.0) {
  double run_ms = 0.0;
  const char* layer = row.spec.kind == "cpu" ? "baselines" : "enterprise";
  const BfsResult r = timed(tracer, run_ms, "Engine::run", layer, 0, flow,
                            row.label(),
                            [&] { return row.engine->run(source); });
  SimRecord sim = sim_record(r);
  if (row.spec.kind != "multigpu") sim.counters = row.engine->counters();

  double validate_ms = 0.0;
  const ValidationReport report =
      row.validator
          ? timed(tracer, validate_ms, "VertexProgram::validate", "bfs", 0,
                  flow, row.label(),
                  [&] { return row.validator->validate(row.slot->graph, r); })
          : timed(tracer, validate_ms, "validate_tree", "bfs", 0, flow,
                  row.label(), [&] {
                    return ent::bfs::validate_tree(
                        row.slot->graph, row.slot->reverse_or_self(), r);
                  });
  ++out.attempted;
  const std::string where =
      row.label() + " source " + std::to_string(source) + ": ";
  if (!report.ok) {
    out.fail(where + report.error, true);
  } else if (r.source != source || r.edges_traversed == 0) {
    out.fail(where + "empty or mislabelled result", true);
  } else if (first_pass != nullptr && !first_pass->same_clock(sim)) {
    out.fail(where + "simulated clock differs from the first pass", true);
  }
  if (stats == nullptr) return run_ms;

  run_ms *= scale;
  validate_ms *= scale;
  row.run_ms.push_back(run_ms);
  row.run_ms_sum += run_ms;
  row.inspected_sum += sim.inspected;
  row.levels_sum += sim.levels;
  stats->run_ms.push_back(run_ms);
  (tracer.recording() ? stats->run_ms_traced : stats->run_ms_untraced)
      .push_back(run_ms);
  stats->e2e_ms.push_back(run_ms + validate_ms);
  stats->validate_ms.push_back(validate_ms);
  stats->host_s += run_ms / 1e3;
  stats->traversed += r.edges_traversed;
  ++stats->traversals;
  if (first_pass == nullptr) row.first.push_back(std::move(sim));
  return run_ms;
}

// Warms every engine, then runs passes over every row's sources, in rounds
// of one traversal per row (sources interleaved across rows): the first
// pass always, and then as many more as fit in `seconds`, judged by the
// length of the pass before. The probe runs before every round and scales
// that round's times. In a traced run, odd rounds are traced and even
// rounds are not, for trace.overhead_frac.
LoopStats run_loop(Setup& s, const Options& opt, Tracer& tracer,
                   RunResult& out, std::uint64_t& flow, SpeedProbe& probe) {
  tracer.set_recording(false);
  for (Row& row : s.rows) {
    traverse(row, row.slot->sources.front(), ++flow, tracer, out, nullptr,
             nullptr);
  }
  probe.refill();
  LoopStats stats;
  std::size_t pass_rounds = 0;
  for (const auto& slot : s.graphs) {
    pass_rounds = std::max(pass_rounds, slot->sources.size());
  }
  const Clock::time_point start = Clock::now();
  Clock::time_point pass_start = start;
  for (std::size_t round = 0;; ++round) {
    if (round > 0 && round % pass_rounds == 0) {
      // Whole passes only, so every source weighs the same in the metrics.
      const Clock::time_point now = Clock::now();
      const double elapsed = ms_between(start, now) / 1e3;
      const double pass = ms_between(pass_start, now) / 1e3;
      pass_start = now;
      if (elapsed + pass > opt.seconds) break;
    }
    probe.sample();
    const double scale = probe.scale();
    tracer.set_recording(opt.trace && round % 2 == 1);
    const Clock::time_point round_start = Clock::now();
    for (Row& row : s.rows) {
      const auto& sources = row.slot->sources;
      const std::size_t i = round % sources.size();
      SimRecord* first = round < sources.size() ? nullptr : &row.first[i];
      traverse(row, sources[i], ++flow, tracer, out, &stats, first, scale);
    }
    stats.wall_s += ms_between(round_start, Clock::now()) / 1e3 * scale;
  }
  tracer.set_recording(true);
  return stats;
}

void draw_sources(Setup& s, std::uint64_t seed, unsigned count) {
  for (std::size_t i = 0; i < s.graphs.size(); ++i) {
    GraphSlot& slot = *s.graphs[i];
    slot.sources = ent::bfs::sample_sources(slot.graph, count,
                                            stream_seed(seed, 100 + i));
    if (slot.sources.empty()) {
      throw std::runtime_error("no eligible sources in " + slot.abbr);
    }
  }
}

void end_to_end(RunResult& out, const SetupTimes& setup,
                const LoopStats& loop, double sim_gteps) {
  out.set("setup_s", percentile(setup.seconds, 0.5), "s");
  out.set("traversal_ms_p50", percentile(loop.run_ms, 0.5), "ms");
  out.set("traversal_ms_p95", percentile(loop.run_ms, 0.95), "ms");
  out.set("host_mteps",
          ratio(static_cast<double>(loop.traversed), loop.host_s) / 1e6,
          "MTEPS");
  out.set("sim_gteps_hmean", sim_gteps, "GTEPS");
  out.set("serve_rps", ratio(static_cast<double>(loop.traversals), loop.wall_s),
          "1/s");
  out.set("serve_e2e_ms_p50", percentile(loop.e2e_ms, 0.5), "ms");
  out.set("serve_e2e_ms_p95", percentile(loop.e2e_ms, 0.95), "ms");
  out.samples.set("traversals", Json(loop.traversals));
  out.samples.set("setups",
                  Json(static_cast<std::uint64_t>(setup.seconds.size())));
}

// Layer metrics shared by all workloads; a layer a workload bypasses reads 0.
struct Layers {
  double generate_ms = 0, reverse_ms = 0, csr_mb = 0, make_engine_ms = 0;
  double validate_ms_p50 = 0, decorator_overhead_frac = 0;
  std::map<std::string, KindStats> kinds;
  double sim_overhead_vs_cpu = 0;
  double overhead_frac = 0;
  double queue_wait_p50 = 0, queue_wait_p95 = 0, run_p50 = 0, run_p95 = 0;
  double busy_frac = 0, apply_p50 = 0, apply_max = 0;
  double promoted = 0, snap_rejected = 0;
  double rejected = 0, timed_out = 0, failed = 0, cancelled = 0;
  double probe_ms_p50 = 0;
};

void per_layer(RunResult& out, const Layers& l) {
  out.set("graph.generate_ms", l.generate_ms, "ms");
  out.set("graph.reverse_ms", l.reverse_ms, "ms");
  out.set("graph.csr_mb", l.csr_mb, "MiB_computed");
  out.set("bfs.make_engine_ms", l.make_engine_ms, "ms");
  out.set("bfs.validate_ms_p50", l.validate_ms_p50, "ms");
  out.set("bfs.decorator_overhead_frac", l.decorator_overhead_frac, "frac");

  const auto kind = [&](const std::string& name) -> const KindStats& {
    static const KindStats empty;
    const auto it = l.kinds.find(name);
    return it == l.kinds.end() ? empty : it->second;
  };
  const KindStats& ent = kind("enterprise");
  const KindStats& mgpu = kind("multigpu");
  const auto runs = [](const KindStats& k) {
    return static_cast<double>(k.first_runs);
  };
  out.set("enterprise.run_ms_p50", percentile(ent.run_ms, 0.5), "ms");
  out.set("multigpu.run_ms_p50", percentile(mgpu.run_ms, 0.5), "ms");
  double prog_ms = 0.0, prog_edges = 0.0;
  for (const char* p : {"sssp", "cc", "pagerank"}) {
    const KindStats& k = kind(p);
    out.set(std::string("program.") + p + ".run_ms_p50",
            percentile(k.run_ms, 0.5), "ms");
    prog_ms += k.run_ms_sum;
    prog_edges += static_cast<double>(k.inspected_sum);
  }
  out.set("enterprise.host_ns_per_edge",
          ratio(ent.run_ms_sum * 1e6, static_cast<double>(ent.inspected_sum)),
          "ns/edge");
  out.set("program.host_ns_per_edge", ratio(prog_ms * 1e6, prog_edges),
          "ns/edge");
  out.set("enterprise.host_ms_per_level",
          ratio(ent.run_ms_sum, static_cast<double>(ent.levels_sum)),
          "ms/level");
  out.set("enterprise.sim_overhead_vs_cpu", l.sim_overhead_vs_cpu, "ratio");
  out.set("enterprise.sim_queue_gen_ms",
          ratio(ent.first.queue_gen_ms, runs(ent)), "ms");
  out.set("enterprise.sim_expand_ms", ratio(ent.first.expand_ms, runs(ent)),
          "ms");
  out.set("multigpu.sim_comm_ms", ratio(mgpu.first.comm_ms, runs(mgpu)),
          "ms");
  out.set("enterprise.levels_bottom_up_frac",
          ratio(static_cast<double>(ent.first.bottom_up),
                static_cast<double>(ent.first.levels)),
          "frac");
  out.set("enterprise.edges_inspected_per_traversed",
          ratio(static_cast<double>(ent.first.inspected),
                static_cast<double>(ent.first.traversed)),
          "ratio");
  for (const char* p : {"sssp", "cc", "pagerank"}) {
    const KindStats& k = kind(p);
    out.set(std::string("program.") + p + ".supersteps",
            ratio(static_cast<double>(k.first.levels), runs(k)), "count");
  }
  double gld = 0.0, gst = 0.0, counted = 0.0;
  for (const auto& [name, k] : l.kinds) {
    gld += static_cast<double>(k.gld);
    gst += static_cast<double>(k.gst);
    counted += static_cast<double>(k.counted);
  }
  out.set("gpusim.gld_transactions", ratio(gld, counted), "count");
  out.set("gpusim.gst_transactions", ratio(gst, counted), "count");

  out.set("serve.queue_wait_ms_p50", l.queue_wait_p50, "ms");
  out.set("serve.queue_wait_ms_p95", l.queue_wait_p95, "ms");
  out.set("serve.run_ms_p50", l.run_p50, "ms");
  out.set("serve.run_ms_p95", l.run_p95, "ms");
  out.set("serve.worker_busy_frac", l.busy_frac, "frac");
  out.set("serve.store_apply_ms_p50", l.apply_p50, "ms");
  out.set("serve.store_apply_ms_max", l.apply_max, "ms");
  out.set("serve.snapshots_promoted", l.promoted, "count");
  out.set("serve.snapshots_rejected", l.snap_rejected, "count");
  out.set("serve.rejected", l.rejected, "count");
  out.set("serve.timed_out", l.timed_out, "count");
  out.set("serve.failed", l.failed, "count");
  out.set("serve.cancelled", l.cancelled, "count");
  out.set("trace.overhead_frac", l.overhead_frac, "frac");
  out.set("host.probe_ms_p50", l.probe_ms_p50, "ms");
}

// Simulated-clock values of the first pass: bit-exact for one seed.
void record_sim(RunResult& out,
                const std::map<std::string, KindStats>& kinds) {
  const auto count = [](auto v) { return Json(static_cast<std::uint64_t>(v)); };
  for (const auto& [name, k] : kinds) {
    Json j = Json::object();
    j.set("runs", count(k.first_runs));
    j.set("sim_ms", Json(k.first.sim_ms));
    j.set("edges_traversed", count(k.first.traversed));
    j.set("edges_inspected", count(k.first.inspected));
    j.set("levels", count(k.first.levels));
    j.set("bottom_up_levels", count(k.first.bottom_up));
    j.set("queue_gen_ms", Json(k.first.queue_gen_ms));
    j.set("expand_ms", Json(k.first.expand_ms));
    j.set("comm_ms", Json(k.first.comm_ms));
    j.set("gld_transactions", Json(k.gld));
    j.set("gst_transactions", Json(k.gst));
    out.sim.set(name, std::move(j));
  }
}

Layers setup_layers(const SetupTimes& times, const Setup& s) {
  Layers l;
  l.generate_ms = percentile(times.generate_ms, 0.5);
  l.reverse_ms = percentile(times.reverse_ms, 0.5);
  l.make_engine_ms = percentile(times.make_engine_ms, 0.5);
  for (const auto& slot : s.graphs) {
    l.csr_mb += csr_mib(slot->graph);
    if (slot->reverse) l.csr_mb += csr_mib(*slot->reverse);
  }
  return l;
}

double overhead(const LoopStats& loop) {
  const double untraced = percentile(loop.run_ms_untraced, 0.5);
  return ratio(percentile(loop.run_ms_traced, 0.5) - untraced, untraced);
}

// Shared loop of the two single-threaded traversal workloads.
RunResult run_traversals(const std::vector<RowSpec>& specs, double scale,
                         unsigned sources, bool reverse_directed,
                         const Options& opt, Tracer& tracer,
                         const std::function<void(Setup&, RunResult&, Layers&,
                                                  std::uint64_t&)>& extra) {
  RunResult out;
  SpeedProbe probe;
  SetupTimes times;
  std::optional<Setup> setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    setup.reset();
    probe.refill();
    setup.emplace(build_setup(specs, scale, opt.seed, reverse_directed,
                              tracer));
    times.add(*setup, probe.scale());
  }
  Setup& s = *setup;
  draw_sources(s, opt.seed, sources);
  for (Row& row : s.rows) {
    const auto spec = ent::bfs::EngineSpec::parse(row.spec.spec);
    if (spec && spec->has_program()) {
      std::string error;
      row.validator = ent::bfs::make_program(spec->program, row.slot->graph,
                                             {spec->params}, &error);
      if (!row.validator) throw std::invalid_argument(error);
    }
  }
  std::uint64_t flow = 0;
  const LoopStats loop = run_loop(s, opt, tracer, out, flow, probe);
  std::vector<SimTeps> groups(s.rows.size());
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    for (const SimRecord& r : s.rows[i].first) {
      groups[i].add(static_cast<double>(r.traversed), r.sim_ms);
    }
  }
  const double sim_gteps = gteps_hmean(groups);
  end_to_end(out, times, loop, sim_gteps);
  out.samples.set("probes", Json(static_cast<std::uint64_t>(
                                probe.history().size())));
  record_sim(out, by_kind(s.rows));
  out.sim.set("sim_gteps_hmean", Json(sim_gteps));
  if (!opt.trace) return out;

  Layers l = setup_layers(times, s);
  l.validate_ms_p50 = percentile(loop.validate_ms, 0.5);
  l.overhead_frac = overhead(loop);
  l.probe_ms_p50 = percentile(probe.history(), 0.5);
  if (extra) extra(s, out, l, flow);
  l.kinds = by_kind(s.rows);
  per_layer(out, l);
  return out;
}

// ---------------------------------------------------------------------------
// serve-live

constexpr unsigned kServeWorkers = 3;
constexpr std::size_t kOutstanding = 4;
constexpr std::uint64_t kUpdateEvery = 200;  // completions per update batch
constexpr unsigned kUpdateBatches = 128;
constexpr unsigned kDecoratorSources = 32;
constexpr double kProbeEveryMs = 100.0;  // client-side speed probe period

// Member order matters: the service holds a reference to the graph.
struct ServeSetup {
  std::unique_ptr<Csr> graph;
  std::unique_ptr<ent::serve::BfsService> service;
  double seconds = 0.0;
  double generate_ms = 0.0;
  double construct_ms = 0.0;
};

ServeSetup build_serve(std::uint64_t seed, Tracer& tracer) {
  ServeSetup s;
  const std::uint64_t setup_id = tracer.next_id();
  const Clock::time_point start = Clock::now();
  s.graph = std::make_unique<Csr>(timed(
      tracer, s.generate_ms, "make_suite_graph", "graph", setup_id, 0, "KR2",
      [&] {
        return ent::graph::make_suite_graph("KR2", {1.0, seed}).graph;
      }));
  ent::serve::ServiceOptions options;
  options.engine = "guarded:resilient:enterprise";
  options.workers = kServeWorkers;
  options.validate_trees = true;
  options.config = base_config();
  s.service = timed(tracer, s.construct_ms, "BfsService::BfsService", "serve",
                    setup_id, 0, options.engine, [&] {
                      return std::make_unique<ent::serve::BfsService>(
                          *s.graph, options);
                    });
  const Clock::time_point end = Clock::now();
  s.seconds = ms_between(start, end) / 1e3;
  if (tracer.recording()) {
    tracer.add({"setup", "bench", start, end, setup_id, 0, 0, 0, ""});
  }
  return s;
}

// Bare `enterprise` against `guarded:resilient:enterprise` on the same KR2
// sources, outside the service; also times validate_tree.
void decorator_pass(const Csr& g, std::uint64_t seed, Tracer& tracer,
                    RunResult& out, Layers& l, std::uint64_t& flow) {
  const std::vector<vertex_t> sources = ent::bfs::sample_sources(
      g, kDecoratorSources, stream_seed(seed, 300));
  const ent::bfs::EngineConfig config = base_config();
  Row bare, decorated;
  bare.spec = {"KR2", "enterprise", "enterprise", 1};
  decorated.spec = {"KR2", "guarded:resilient:enterprise", "decorated", 1};
  bare.engine = ent::bfs::make_engine(bare.spec.spec, g, config);
  decorated.engine = ent::bfs::make_engine(decorated.spec.spec, g, config);
  if (!bare.engine || !decorated.engine) {
    throw std::invalid_argument("make_engine rejected the decorator pass");
  }
  const auto run_checked = [&](Row& row, vertex_t source, bool keep) {
    double run_ms = 0.0;
    const std::uint64_t id = ++flow;
    const BfsResult r =
        timed(tracer, run_ms, "Engine::run",
              row.spec.kind == "enterprise" ? "enterprise" : "bfs", 0, id,
              row.label(), [&] { return row.engine->run(source); });
    SimRecord sim = sim_record(r);
    sim.counters = row.engine->counters();
    double validate_ms = 0.0;
    const ValidationReport report =
        timed(tracer, validate_ms, "validate_tree", "bfs", 0, id, row.label(),
              [&] { return ent::bfs::validate_tree(g, g, r); });
    ++out.attempted;
    if (!report.ok) out.fail(row.label() + ": " + report.error, true);
    if (keep) {
      row.run_ms.push_back(run_ms);
      row.run_ms_sum += run_ms;
      row.inspected_sum += sim.inspected;
      row.levels_sum += sim.levels;
      row.first.push_back(std::move(sim));
    }
    return std::pair{run_ms, validate_ms};
  };
  run_checked(bare, sources.front(), false);  // warm-up
  run_checked(decorated, sources.front(), false);
  std::vector<double> extra, validate_ms;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    // Alternate which side runs first so drift favours neither.
    const bool bare_first = i % 2 == 0;
    Row& a = bare_first ? bare : decorated;
    Row& b = bare_first ? decorated : bare;
    const auto ra = run_checked(a, sources[i], true);
    const auto rb = run_checked(b, sources[i], true);
    const double bare_ms = bare_first ? ra.first : rb.first;
    const double dec_ms = bare_first ? rb.first : ra.first;
    extra.push_back(ratio(dec_ms, bare_ms) - 1.0);
    validate_ms.push_back(ra.second);
    validate_ms.push_back(rb.second);
  }
  l.decorator_overhead_frac = percentile(extra, 0.5);
  l.validate_ms_p50 = percentile(validate_ms, 0.5);
  std::vector<Row> rows;
  rows.push_back(std::move(bare));
  l.kinds = by_kind(rows);
}

}  // namespace

RunResult run_paper_bfs(const Options& opt, Tracer& tracer) {
  const std::vector<RowSpec> specs = {
      {"KR2", "enterprise", "enterprise", 1},
      {"TW", "enterprise", "enterprise", 1},
      {"FR", "enterprise", "enterprise", 1},
      {"ROAD", "enterprise", "enterprise", 1},
      {"KR2", "multi-gpu", "multigpu", 4},
  };
  // Single-threaded host baseline on the same graphs and sources.
  const auto cpu_baseline = [&](Setup& s, RunResult& out, Layers& l,
                                std::uint64_t& flow) {
    double ent_ms = 0.0, cpu_ms = 0.0;
    for (Row& row : s.rows) {
      if (row.spec.kind != "enterprise") continue;
      Row cpu;
      cpu.spec = {row.spec.abbr, "cpu", "cpu", 1};
      cpu.slot = row.slot;
      cpu.engine = ent::bfs::make_engine("cpu", row.slot->graph, base_config());
      if (!cpu.engine) throw std::invalid_argument("make_engine rejected cpu");
      const auto& sources = row.slot->sources;
      traverse(cpu, sources.front(), ++flow, tracer, out, nullptr, nullptr);
      for (std::size_t i = 0; i < std::min<std::size_t>(8, sources.size());
           ++i) {
        ent_ms += traverse(row, sources[i], ++flow, tracer, out, nullptr,
                           &row.first[i]);
        cpu_ms += traverse(cpu, sources[i], ++flow, tracer, out, nullptr,
                           nullptr);
      }
    }
    l.sim_overhead_vs_cpu = ratio(ent_ms, cpu_ms);
  };
  return run_traversals(specs, 1.0, 128, true, opt, tracer, cpu_baseline);
}

RunResult run_programs(const Options& opt, Tracer& tracer) {
  std::vector<RowSpec> specs;
  for (const char* abbr : {"LJ", "KR2"}) {
    specs.push_back({abbr, "enterprise/sssp?delta=4", "sssp", 1});
    specs.push_back({abbr, "enterprise/cc", "cc", 1});
    specs.push_back({abbr, "enterprise/pagerank?epsilon=1e-6", "pagerank", 1});
  }
  // Quarter-size stand-ins keep a PageRank run near 0.15 s, so a pass over
  // 40 sources per graph (240 traversals, 12 beyond p95) fits in a run.
  return run_traversals(specs, 0.25, 40, false, opt, tracer, nullptr);
}

RunResult run_serve_live(const Options& opt, Tracer& tracer) {
  using ent::serve::OutcomeKind;
  using ent::serve::ServeOutcome;
  using ent::serve::ServeRequest;
  RunResult out;
  SpeedProbe probe;
  std::vector<double> setup_s, generate_ms, construct_ms;
  std::optional<ServeSetup> setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    setup.reset();
    probe.refill();
    setup.emplace(build_serve(opt.seed, tracer));
    const double scale = probe.scale();
    setup_s.push_back(setup->seconds * scale);
    generate_ms.push_back(setup->generate_ms * scale);
    construct_ms.push_back(setup->construct_ms * scale);
  }
  const Csr& g = *setup->graph;
  ent::serve::BfsService& service = *setup->service;

  ent::graph::RandomUpdateParams up;
  up.batches = kUpdateBatches;
  up.seed = stream_seed(opt.seed, 200);
  const ent::graph::UpdateTrace updates =
      ent::graph::UpdateTrace::random(up, g);

  ent::SplitMix64 draw(stream_seed(opt.seed, 201));
  const auto next_request = [&] {
    ServeRequest q;
    do {
      q.source = static_cast<vertex_t>(draw.next_below(g.num_vertices()));
    } while (g.out_degree(q.source) == 0);
    q.workload = draw.next_double() < 0.2 ? "sssp" : "bfs";
    return q;
  };

  // Warm-up: a few requests of each workload per worker, untimed, so every
  // worker has built its sssp sibling stack before timing starts.
  {
    std::vector<std::future<ServeOutcome>> warm;
    for (unsigned i = 0; i < 2 * kServeWorkers; ++i) {
      for (const char* w : {"bfs", "sssp"}) {
        ServeRequest q = next_request();
        q.workload = w;
        warm.push_back(service.submit(q));
      }
    }
    for (auto& f : warm) {
      ++out.attempted;
      const ServeOutcome o = f.get();
      if (!o.ok()) out.fail("warm-up: " + o.detail, true);
    }
  }

  struct InFlight {
    std::future<ServeOutcome> future;
    ServeRequest request;
    std::uint64_t id = 0;
    Clock::time_point sent;
    bool traced = false;
  };
  std::array<std::optional<InFlight>, kOutstanding> slots;
  std::uint64_t flow = 0;
  const auto send = [&](std::size_t k) {
    InFlight f;
    f.request = next_request();
    f.id = ++flow;
    f.traced = opt.trace && f.id % 2 == 1;
    f.sent = Clock::now();
    f.future = service.submit(f.request);
    slots[k] = std::move(f);
  };

  std::vector<double> queue_wait, total, run, run_traced, run_untraced,
      apply_ms;
  // Generation-0 requests by id: (workload, edges, simulated ms).
  std::map<std::uint64_t, std::tuple<std::string, edge_t, double>> gen0;
  double run_ms_sum = 0.0;
  edge_t traversed = 0;
  std::uint64_t completed = 0, since_update = 0;
  std::uint64_t rejected = 0, timed_out = 0, failed = 0, cancelled = 0;
  std::uint64_t snap_rejected = 0;
  std::size_t next_batch = 0;
  // The client thread probes the host every kProbeEveryMs; the service's
  // times and the loop's wall time are scaled by the latest probe window.
  probe.refill();
  double scale = probe.scale();
  double wall_s = 0.0;

  const auto handle = [&](InFlight& f, std::size_t slot) {
    const ServeOutcome o = f.future.get();
    const Clock::time_point done = Clock::now();
    if (f.traced) {
      tracer.add({"BfsService::submit", "serve", f.sent, done,
                  tracer.next_id(), 0, f.id,
                  static_cast<int>(slot) + 1,
                  f.request.workload});
    }
    ++out.attempted;
    const std::string where = "request " + std::to_string(f.id) + " (" +
                              f.request.workload + " from " +
                              std::to_string(f.request.source) + "): ";
    switch (o.kind) {
      case OutcomeKind::kCompleted: {
        const BfsResult& r = *o.result;
        const std::string program =
            f.request.workload == "bfs" ? "" : f.request.workload;
        if (r.source != f.request.source || r.program != program ||
            r.vertices_visited == 0) {
          out.fail(where + "mislabelled result", true);
          break;
        }
        ++completed;
        ++since_update;
        queue_wait.push_back(o.queue_wait_ms * scale);
        total.push_back(o.total_ms * scale);
        const double run_ms = (o.total_ms - o.queue_wait_ms) * scale;
        run.push_back(run_ms);
        (f.traced ? run_traced : run_untraced).push_back(run_ms);
        run_ms_sum += run_ms;
        traversed += r.edges_traversed;
        // Requests sent before the first update batch all run on generation
        // 0, so their simulated clock is fixed by the seed.
        if (f.id <= kUpdateEvery) {
          gen0[f.id] = {f.request.workload, r.edges_traversed, r.time_ms};
        }
        break;
      }
      case OutcomeKind::kRejected:
        ++rejected;
        out.fail(where + "rejected", false);
        break;
      case OutcomeKind::kTimedOut:
        ++timed_out;
        out.fail(where + "timed out", false);
        break;
      case OutcomeKind::kFailed:
        ++failed;
        // The service turns a failed validation into kFailed "validate: ...".
        out.fail(where + o.detail, o.detail.rfind("validate", 0) == 0);
        break;
      case OutcomeKind::kCancelled:
        ++cancelled;
        out.fail(where + "cancelled", false);
        break;
    }
  };

  const Clock::time_point start = Clock::now();
  Clock::time_point last_done = start, stretch = start;
  for (std::size_t k = 0; k < kOutstanding; ++k) send(k);
  bool stopping = false;
  for (;;) {
    if (!stopping && ms_between(stretch, Clock::now()) >= kProbeEveryMs) {
      const Clock::time_point now = Clock::now();
      wall_s += ms_between(stretch, now) / 1e3 * scale;
      stretch = now;
      probe.sample();
      scale = probe.scale();
    }
    bool any = false, busy = false;
    for (std::size_t k = 0; k < kOutstanding; ++k) {
      if (!slots[k]) continue;
      busy = true;
      if (slots[k]->future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        continue;
      }
      handle(*slots[k], k);
      last_done = Clock::now();
      slots[k].reset();
      any = true;
      if (!stopping) send(k);
    }
    // Every generation-0 request (id <= kUpdateEvery) is sent before the
    // loop may stop; after that it only drains the outstanding requests.
    if (!stopping && flow >= kUpdateEvery &&
        ms_between(start, Clock::now()) / 1e3 >= opt.seconds) {
      stopping = true;
    }
    if (stopping && !busy) break;
    if (!stopping && since_update >= kUpdateEvery &&
        next_batch < updates.batches.size()) {
      since_update = 0;
      ++out.attempted;
      double ms = 0.0;
      try {
        timed(tracer, ms, "BfsService::apply_updates", "serve", 0, 0,
              "batch " + std::to_string(next_batch), [&] {
                return service.apply_updates(updates.batches[next_batch]);
              });
        apply_ms.push_back(ms * scale);
      } catch (const ent::serve::SnapshotRejected& e) {
        ++snap_rejected;
        out.fail(std::string("update batch rejected: ") + e.what(), false);
      }
      ++next_batch;
      continue;
    }
    if (!any) {
      for (auto& f : slots) {
        if (f) {
          f->future.wait_for(std::chrono::microseconds(200));
          break;
        }
      }
    }
  }
  wall_s += std::max(0.0, ms_between(stretch, last_done)) / 1e3 * scale;
  service.shutdown(ent::serve::DrainMode::kGraceful);
  const ent::serve::ServiceStats stats = service.stats();
  if (!stats.accounting_ok()) out.fail("service accounting broken", true);
  const ent::serve::StoreStats store = service.snapshot_stats();

  out.set("setup_s", percentile(setup_s, 0.5), "s");
  out.set("traversal_ms_p50", percentile(run, 0.5), "ms");
  out.set("traversal_ms_p95", percentile(run, 0.95), "ms");
  out.set("host_mteps",
          ratio(static_cast<double>(traversed), run_ms_sum / 1e3) / 1e6,
          "MTEPS");
  // Summed in request-id order, so the value is bit-exact for a seed.
  std::map<std::string, SimTeps> by_workload;
  for (const auto& [id, req] : gen0) {
    const auto& [workload, edges, sim_ms] = req;
    by_workload[workload].add(static_cast<double>(edges), sim_ms);
  }
  std::vector<SimTeps> groups;
  for (const auto& [workload, group] : by_workload) groups.push_back(group);
  const double sim_gteps = gteps_hmean(groups);
  out.set("sim_gteps_hmean", sim_gteps, "GTEPS");
  out.sim.set("sim_gteps_hmean", Json(sim_gteps));
  out.sim.set("gen0_requests", Json(static_cast<std::uint64_t>(gen0.size())));
  out.set("serve_rps", ratio(static_cast<double>(completed), wall_s), "1/s");
  out.set("serve_e2e_ms_p50", percentile(total, 0.5), "ms");
  out.set("serve_e2e_ms_p95", percentile(total, 0.95), "ms");
  out.samples.set("requests", Json(completed));
  out.samples.set("update_batches",
                  Json(static_cast<std::uint64_t>(next_batch)));
  out.samples.set("setups", Json(static_cast<std::uint64_t>(setup_s.size())));
  out.samples.set("probes", Json(static_cast<std::uint64_t>(
                                probe.history().size())));
  if (!opt.trace) return out;

  Layers l;
  l.generate_ms = percentile(generate_ms, 0.5);
  l.make_engine_ms = percentile(construct_ms, 0.5);
  l.csr_mb = csr_mib(g);
  decorator_pass(g, opt.seed, tracer, out, l, flow);
  l.overhead_frac = ratio(percentile(run_traced, 0.5) -
                              percentile(run_untraced, 0.5),
                          percentile(run_untraced, 0.5));
  l.queue_wait_p50 = percentile(queue_wait, 0.5);
  l.queue_wait_p95 = percentile(queue_wait, 0.95);
  l.run_p50 = percentile(run, 0.5);
  l.run_p95 = percentile(run, 0.95);
  l.busy_frac = ratio(run_ms_sum / 1e3, wall_s * kServeWorkers);
  l.apply_p50 = percentile(apply_ms, 0.5);
  l.apply_max = apply_ms.empty()
                    ? 0.0
                    : *std::max_element(apply_ms.begin(), apply_ms.end());
  l.promoted = static_cast<double>(store.promoted);
  l.snap_rejected = static_cast<double>(store.rejected);
  l.rejected = static_cast<double>(rejected);
  l.timed_out = static_cast<double>(timed_out);
  l.failed = static_cast<double>(failed);
  l.cancelled = static_cast<double>(cancelled);
  l.probe_ms_p50 = percentile(probe.history(), 0.5);
  per_layer(out, l);
  return out;
}

}  // namespace perfbench
