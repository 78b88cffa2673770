#include "probe.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "spans.hpp"

namespace perfbench {
namespace {

constexpr int kScale = 16;       // 2^16 vertices
constexpr int kEdgeFactor = 8;   // undirected edges per vertex
constexpr std::uint32_t kUnseen = std::numeric_limits<std::uint32_t>::max();

// Fixed here so that no change to the library moves the probe.
std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

SpeedProbe::SpeedProbe() {
  const std::uint32_t n = 1u << kScale;
  const std::size_t m = static_cast<std::size_t>(n) * kEdgeFactor;
  // R-MAT quadrant probabilities 0.57 / 0.19 / 0.19 / 0.05, as Graph 500.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges(m);
  std::uint64_t state = 0x5eed5eedull;
  for (auto& [u, v] : edges) {
    u = v = 0;
    for (int bit = kScale - 1; bit >= 0; --bit) {
      const double r = static_cast<double>(splitmix(state) >> 11) * 0x1p-53;
      const bool down = r >= 0.57 + 0.19;
      const bool right = (r >= 0.57 && r < 0.57 + 0.19) || r >= 0.95;
      u |= static_cast<std::uint32_t>(down) << bit;
      v |= static_cast<std::uint32_t>(right) << bit;
    }
  }
  offsets_.assign(n + 1, 0);
  for (const auto& [u, v] : edges) {
    ++offsets_[u + 1];
    ++offsets_[v + 1];
  }
  for (std::uint32_t i = 0; i < n; ++i) offsets_[i + 1] += offsets_[i];
  targets_.resize(offsets_[n]);
  std::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    targets_[fill[u]++] = v;
    targets_[fill[v]++] = u;
  }
  depth_.resize(n);
  queue_.resize(n);
  std::uint32_t best = 0;
  for (std::uint32_t i = 1; i < n; ++i) {
    if (offsets_[i + 1] - offsets_[i] > offsets_[best + 1] - offsets_[best]) {
      best = i;
    }
  }
  source_ = best;
  reached_ = traverse();
}

std::size_t SpeedProbe::traverse() {
  std::fill(depth_.begin(), depth_.end(), kUnseen);
  std::size_t head = 0, tail = 0;
  depth_[source_] = 0;
  queue_[tail++] = source_;
  while (head < tail) {
    const std::uint32_t u = queue_[head++];
    for (std::uint32_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
      const std::uint32_t v = targets_[e];
      if (depth_[v] == kUnseen) {
        depth_[v] = depth_[u] + 1;
        queue_[tail++] = v;
      }
    }
  }
  return tail;
}

void SpeedProbe::sample() {
  const Clock::time_point start = Clock::now();
  const std::size_t reached = traverse();
  const double ms = ms_between(start, Clock::now());
  if (reached != reached_) {
    throw std::runtime_error("speed probe traversal reached a different "
                             "vertex count than when it was built");
  }
  history_.push_back(ms);
  recent_.push_back(ms);
  if (recent_.size() > kWindow) recent_.pop_front();
}

void SpeedProbe::refill() {
  for (std::size_t i = 0; i < kWindow; ++i) sample();
}

double SpeedProbe::scale() const {
  if (recent_.empty()) return 1.0;
  std::vector<double> v(recent_.begin(), recent_.end());
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return kNominalMs / v[v.size() / 2];
}

}  // namespace perfbench
