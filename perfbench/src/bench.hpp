// Shared declarations of the perfbench binary: options, the per-run result
// and the three workloads (workloads.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Wrong answers (validation or determinism failures); any one makes the
  // run incorrect. Refused or unfinished requests only count as failed.
  std::uint64_t wrong = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  std::vector<Metric> metrics;
  // Simulated-clock values that must repeat bit-exactly for one seed.
  ent::obs::Json sim = ent::obs::Json::object();
  // Sample counts behind the percentiles.
  ent::obs::Json samples = ent::obs::Json::object();

  void set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(std::string error, bool wrong_answer) {
    ++failed;
    if (wrong_answer) ++wrong;
    if (errors.size() < 8) errors.push_back(std::move(error));
  }
};

RunResult run_paper_bfs(const Options& opt, Tracer& tracer);
RunResult run_programs(const Options& opt, Tracer& tracer);
RunResult run_serve_live(const Options& opt, Tracer& tracer);

}  // namespace perfbench
