// The perfbench binary. Runs one workload for a fixed number of seconds
// and prints one JSON object on the last line of stdout: the correctness
// verdict, attempted/failed operation counts, every metric computed for the
// run (end-to-end metrics always, per-layer metrics when traced), the
// simulated-clock values that must repeat bit-exactly for one seed, and the
// sample counts behind the percentiles.
//
//   perfbench --workload=paper-bfs|programs|serve-live --seed=N
//             --seconds=S [--trace=0|1] [--trace-out=PATH]
//
// With --trace=1 the run also records wall-clock spans around every call
// into the library and writes them to --trace-out as Chrome trace-event
// JSON. Exit status: 0 when every answer was correct, 1 on any wrong answer,
// 2 on bad arguments or a run that could not complete.
#include <sys/resource.h>

#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "util/args.hpp"

namespace {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  using ent::obs::Json;
  const ent::Args args(argc, argv);
  perfbench::Options opt;
  opt.workload = args.get("workload", "");
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opt.seconds = args.get_double("seconds", 10.0);
  opt.trace = args.get_int("trace", 0) != 0;
  const std::string trace_out = args.get("trace-out", "");
  if (opt.trace && trace_out.empty()) {
    std::cerr << "perfbench: --trace=1 needs --trace-out=PATH\n";
    return 2;
  }

  perfbench::Tracer tracer(opt.trace);
  perfbench::RunResult result;
  try {
    if (opt.workload == "paper-bfs") {
      result = perfbench::run_paper_bfs(opt, tracer);
    } else if (opt.workload == "programs") {
      result = perfbench::run_programs(opt, tracer);
    } else if (opt.workload == "serve-live") {
      result = perfbench::run_serve_live(opt, tracer);
    } else {
      std::cerr << "perfbench: unknown --workload '" << opt.workload
                << "' (paper-bfs, programs, serve-live)\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }
  if (!opt.trace) result.set("peak_rss_mb", peak_rss_mb(), "MB");
  if (opt.trace && !tracer.write_chrome_trace(trace_out)) {
    std::cerr << "perfbench: cannot write " << trace_out << "\n";
    return 2;
  }

  Json metrics = Json::object();
  for (const perfbench::Metric& m : result.metrics) {
    Json entry = Json::object();
    entry.set("value", Json(m.value));
    entry.set("unit", Json(m.unit));
    metrics.set(m.name, std::move(entry));
  }
  for (const std::string& e : result.errors) {
    std::cerr << "perfbench: " << e << "\n";
  }
  Json out = Json::object();
  out.set("workload", Json(opt.workload));
  out.set("seed", Json(opt.seed));
  out.set("correct", Json(result.wrong == 0));
  out.set("attempted", Json(result.attempted));
  out.set("failed", Json(result.failed));
  out.set("metrics", std::move(metrics));
  out.set("sim", std::move(result.sim));
  out.set("samples", std::move(result.samples));
  std::cout << out.dump() << std::endl;
  return result.wrong == 0 ? 0 : 1;
}
