// Host-speed probe. The benchmark runs on a shared host whose other tenants
// slow memory-bound code by 1.2x to 1.7x for seconds to minutes at a time
// (compute-bound code stays within 2%), so a whole run can land in a slow or
// a fast stretch. The probe runs one fixed traversal, a plain queue BFS
// written here and independent of the seed and of the library, on a 4 MiB
// R-MAT graph built here, between stretches of measured work. The
// benchmark's host times are scaled by kNominalMs over the median of the
// latest probe times, so they read as times on the host at a fixed probe
// speed: a change to the library moves them, the host's stretches do not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace perfbench {

class SpeedProbe {
 public:
  // The probe's median time inside the traversal workloads on the machine
  // the bounds in BENCHMARK.json were set on (perfbench/README.md), so the
  // reported times read close to wall time there. It only fixes the scale.
  static constexpr double kNominalMs = 4.5;
  // Probe times in the moving median.
  static constexpr std::size_t kWindow = 9;

  // Builds the probe graph (about 0.1 s).
  SpeedProbe();

  // Runs the probe traversal once and records its wall ms. Throws if the
  // traversal does not reach the vertex count it reached when built.
  void sample();
  // Samples until the moving window holds kWindow fresh times.
  void refill();

  // kNominalMs over the median of the latest kWindow probe times; 1 before
  // the first sample.
  double scale() const;

  // Every probe time of the run.
  const std::vector<double>& history() const { return history_; }

 private:
  std::size_t traverse();

  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> targets_;
  std::vector<std::uint32_t> depth_;
  std::vector<std::uint32_t> queue_;
  std::uint32_t source_ = 0;
  std::size_t reached_ = 0;
  std::deque<double> recent_;
  std::vector<double> history_;
};

}  // namespace perfbench
