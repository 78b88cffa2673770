#include "bfs/level_supervisor.hpp"

#include <utility>

#include "bfs/guard.hpp"
#include "enterprise/enterprise_bfs.hpp"
#include "enterprise/status_array.hpp"
#include "gpusim/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"

namespace ent::bfs {

using graph::vertex_t;
using enterprise::kUnvisited;

LevelSupervisor::LevelSupervisor(const graph::Csr& g,
                                 const enterprise::EnterpriseOptions& options)
    : graph_(&g),
      injector_(options.fault_injector),
      guard_(options.guard),
      sink_(options.sink),
      metrics_(options.metrics),
      integrity_(options.integrity) {
  // Host-side hashing, no simulated kernels; skipped when scrubbing is off.
  if (integrity_.scrub_interval != 0) {
    digests_ = graph::SegmentDigests::compute(g);
  }
}

void LevelSupervisor::begin_run(Audit audit) {
  audit_ = std::move(audit);
  flips_armed_ = injector_ != nullptr && injector_->plan().has_flip_rules();
  audits_on_ = integrity_.audits_active();
  scrubs_on_ = integrity_.scrubs_active();
}

void LevelSupervisor::level_top(std::int32_t level, std::int32_t guard_level,
                                std::uint64_t guard_frontier, double now_ms,
                                std::span<const LevelShard> shards) {
  now_ms_ = now_ms;
  if (!shards.empty()) device_ = shards.front().device;
  if (injector_ != nullptr) injector_->set_level(level);
  if (guard_ != nullptr) {
    guard_->check_level(guard_level, guard_frontier, now_ms);
  }
  if (flips_armed_) {
    for (const LevelShard& s : shards) {
      injector_->register_flip_target(sim::FlipTarget::kStatus, s.device,
                                      s.status);
      injector_->register_flip_target(sim::FlipTarget::kFrontier, s.device,
                                      s.frontier);
    }
    injector_->flip_pass(level, now_ms);
  }
  const auto every = static_cast<std::int32_t>(integrity_.scrub_interval);
  check(level, scrubs_on_ && level % every == 0);
}

void LevelSupervisor::finish(std::int32_t level, double now_ms) {
  now_ms_ = now_ms;
  check(level, scrubs_on_);
}

void LevelSupervisor::audit_failed(std::int32_t level, unsigned device,
                                   const std::string& component,
                                   std::string detail) const {
  detect(sim::IntegrityKind::kAudit, component, level, device,
         std::move(detail));
}

void LevelSupervisor::detect(sim::IntegrityKind kind,
                             const std::string& component, std::int32_t level,
                             unsigned device, std::string detail) const {
  const bool digest = kind == sim::IntegrityKind::kDigest;
  if (metrics_ != nullptr) {
    metrics_
        ->counter(digest ? "integrity.scrub.mismatches"
                         : "integrity.audit.failures")
        .increment();
    metrics_->counter("integrity.detections").increment();
  }
  if (sink_ != nullptr) {
    sink_->integrity({digest ? "scrub" : "audit",
                      digest ? "mismatch" : "failed", component, detail, level,
                      device, now_ms_});
  }
  throw sim::IntegrityFault(kind, component, level, now_ms_,
                            std::move(detail));
}

void LevelSupervisor::check(std::int32_t level, bool scrub) const {
  // The scrub re-verifies the load-time CSR digests (host-side hashing, no
  // simulated kernels — mirrors a DMA'd scrubber that does not occupy SMXs).
  if (scrub) {
    if (metrics_ != nullptr) {
      metrics_->counter("integrity.scrub.passes").increment();
    }
    if (const auto mm = digests_.verify(*graph_)) {
      detect(sim::IntegrityKind::kDigest, mm->segment, level, device_,
             "block " + std::to_string(mm->block) + " expected " +
                 std::to_string(mm->expected) + " got " +
                 std::to_string(mm->actual));
    }
  }
  if (audits_on_) {
    if (metrics_ != nullptr) {
      metrics_->counter("integrity.audit.checks").increment();
    }
    audit_(level);
  }
}

// --- BFS audit ---------------------------------------------------------------

void BfsAudit::start(const LevelSupervisor& sup,
                     const enterprise::StatusArray& status,
                     std::int32_t level, std::uint64_t source) {
  started_ = sup.audits_on();
  if (!started_) return;
  tallies_.assign(static_cast<std::size_t>(level) + 1, 0);
  for (vertex_t v = 0; v < status.size(); ++v) {
    const std::int32_t s = status.level(v);
    if (s >= 0 && s <= level) ++tallies_[static_cast<std::size_t>(s)];
  }
  rng_ = SplitMix64(sup.integrity().audit_seed ^ source ^
                    0x6d756c7469677075ull);
}

void BfsAudit::check(const LevelSupervisor& sup, std::int32_t level,
                     std::span<const unsigned> devices,
                     std::span<const enterprise::StatusArray> statuses,
                     std::span<const std::vector<vertex_t>> queues,
                     bool bottom_up) {
  const auto N = static_cast<unsigned>(statuses.size());
  const vertex_t n = statuses[0].size();
  const std::string lvl = std::to_string(level);
  // Shard p's name in failure details; the single-device engine has none.
  const auto gpu = [&](unsigned p) {
    return N == 1 ? std::string() : "gpu" + std::to_string(p) + " ";
  };
  const auto fail = [&](unsigned p, const char* component,
                        std::string detail) {
    sup.audit_failed(level, devices[p], component, std::move(detail));
  };
  const auto check_status = [&](unsigned p, vertex_t v) {
    const std::int32_t s = statuses[p].level(v);
    if (s != kUnvisited && (s < 0 || s > level)) {
      fail(p, "status", gpu(p) + "vertex " + std::to_string(v) +
                            " has level " + std::to_string(s) +
                            " outside [-1, " + lvl + "]");
    }
  };
  // Per-entry agreement: a top-down queue holds level-`level` vertices, a
  // bottom-up queue unvisited ones.
  const auto check_entry = [&](unsigned p, vertex_t q) {
    if (q >= n) {
      fail(p, "frontier",
           gpu(p) + "queue entry " + std::to_string(q) + " out of range");
    }
    const std::int32_t s = statuses[p].level(q);
    if (!bottom_up && s != level) {
      fail(p, "frontier", gpu(p) + "queue entry " + std::to_string(q) +
                              " has status level " + std::to_string(s) +
                              ", expected " + lvl);
    }
    if (bottom_up && s != kUnvisited) {
      fail(p, "frontier", gpu(p) + "bottom-up queue entry " +
                              std::to_string(q) + " is already visited");
    }
  };

  if (sup.integrity().audit != AuditMode::kFull) {
    // Sampled: spot-check random (shard, vertex) and (shard, queue entry)
    // pairs.
    for (std::uint32_t i = 0; i < sup.integrity().sample_size; ++i) {
      const auto p = static_cast<unsigned>(rng_.next_below(N));
      check_status(p, static_cast<vertex_t>(rng_.next_below(n)));
      if (!queues[p].empty()) {
        check_entry(p, queues[p][rng_.next_below(queues[p].size())]);
      }
    }
    return;
  }

  // Full. `seen` is global because the queues partition the frontier: a
  // duplicate catches an in-range flip that collides with another frontier
  // vertex (on power-of-two vertex counts a high-bit flip can stay in
  // range, so the range check alone proves nothing).
  std::vector<std::uint8_t> seen(n, 0);
  std::size_t frontier_size = 0;
  for (const auto& q : queues) frontier_size += q.size();
  for (unsigned p = 0; p < N; ++p) {
    // Monotonicity and conservation: every status value is kUnvisited or
    // in [0, level], and each level's population matches its tally.
    std::vector<vertex_t> hist(static_cast<std::size_t>(level) + 1, 0);
    vertex_t unvisited = 0;
    for (vertex_t v = 0; v < n; ++v) {
      const std::int32_t s = statuses[p].level(v);
      if (s == kUnvisited) {
        ++unvisited;
      } else {
        check_status(p, v);
        ++hist[static_cast<std::size_t>(s)];
      }
    }
    for (std::int32_t l = 0; l <= level; ++l) {
      const auto idx = static_cast<std::size_t>(l);
      if (hist[idx] != tallies_[idx]) {
        fail(p, "status", gpu(p) + "level " + std::to_string(l) + " holds " +
                              std::to_string(hist[idx]) +
                              " vertices, tally recorded " +
                              std::to_string(tallies_[idx]));
      }
    }
    // Frontier conservation: the top-down frontier is exactly the
    // level-`level` vertex set, the bottom-up frontier the unvisited set.
    const std::size_t expect =
        bottom_up ? unvisited : hist[static_cast<std::size_t>(level)];
    if (p == 0 && frontier_size != expect) {
      fail(p, "frontier",
           std::string(N == 1 ? "queue" : "global frontier") + " holds " +
               std::to_string(frontier_size) +
               " entries, status array implies " + std::to_string(expect));
    }
    for (const vertex_t q : queues[p]) {
      check_entry(p, q);
      if (seen[q] != 0) {
        fail(p, "frontier",
             "duplicate queue entry " + std::to_string(q) +
                 (N == 1 ? "" : " on gpu" + std::to_string(p)));
      }
      seen[q] = 1;
    }
  }
}

}  // namespace ent::bfs
