// Per-level hardening shared by every level-synchronous engine (enterprise,
// multi-GPU, streamed, vertex programs). At the top of each level the engine
// hands its resident shards to LevelSupervisor::level_top, which runs, in
// this order:
//
//   1. FaultInjector::set_level, so level-scoped fault rules can match;
//   2. the cooperative RunGuard check (bfs/guard.hpp);
//   3. the silent-flip window: each shard's status and frontier bytes are
//      registered as flip targets and one flip pass runs;
//   4. the digest scrub of the resident CSR, on every scrub_interval-th
//      level (bfs/integrity.hpp, graph/digest.hpp);
//   5. the engine's audit.
//
// Flips land before the scrub and audit so corruption is caught at the
// level top it lands on, ahead of the kernels that would consume it.
// finish() repeats the scrub and audit once after the loop, so corruption
// on the last level is still caught before a result is reported.
//
// Every hook is host-side and gated on its knob: with no injector, guard,
// audit or scrub armed nothing runs, no counter is created and the device
// clock never moves, so reports stay byte-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bfs/integrity.hpp"
#include "graph/csr.hpp"
#include "graph/digest.hpp"
#include "util/random.hpp"

namespace ent::obs {
class MetricsRegistry;
class TraceSink;
}  // namespace ent::obs

namespace ent::sim {
class FaultInjector;
enum class IntegrityKind;
}  // namespace ent::sim

namespace ent::enterprise {
struct EnterpriseOptions;
class StatusArray;
}  // namespace ent::enterprise

namespace ent::bfs {

class RunGuard;

// What one device holds during a level: its physical id and the spans a
// silent flip may strike.
struct LevelShard {
  unsigned device = 0;
  std::span<std::byte> status;    // status array or program state
  std::span<std::byte> frontier;  // the frontier queue
};

class LevelSupervisor {
 public:
  // Runs the engine's invariant checks at a level; reports a failure
  // through audit_failed(), which throws.
  using Audit = std::function<void(std::int32_t level)>;

  // Copies the hook pointers and integrity knobs out of `options`; computes
  // the load-time segment digests of `g` when a scrub interval is set.
  LevelSupervisor(const graph::Csr& g,
                  const enterprise::EnterpriseOptions& options);

  // Starts one run: samples the brownout taps (serve/overload.hpp) once,
  // so a mid-storm ladder step lands at a request boundary and never
  // splits one traversal's accounting, and installs the engine's audit.
  void begin_run(Audit audit);
  bool audits_on() const { return audits_on_; }
  // Whether this run's fault plan has silent-flip rules, which may rewrite
  // status bytes at any level top.
  bool flips_armed() const { return flips_armed_; }

  // The level top described above. `guard_level` / `guard_frontier` are
  // what the guard's limits see (an engine may mask either); `now_ms` is the
  // engine's simulated clock; the first shard's device is the one scrub
  // verdicts name.
  void level_top(std::int32_t level, std::int32_t guard_level,
                 std::uint64_t guard_frontier, double now_ms,
                 std::span<const LevelShard> shards);

  // The final scrub and audit after the loop.
  void finish(std::int32_t level, double now_ms);

  // Bumps the failure and detection counters, emits an IntegrityEvent and
  // throws sim::IntegrityFault. The counters land before the throw, so a
  // detection still reaches the report when a resilience layer recovers.
  [[noreturn]] void audit_failed(std::int32_t level, unsigned device,
                                 const std::string& component,
                                 std::string detail) const;

  const IntegrityOptions& integrity() const { return integrity_; }

 private:
  [[noreturn]] void detect(sim::IntegrityKind kind,
                           const std::string& component, std::int32_t level,
                           unsigned device, std::string detail) const;
  // The due scrub (when `scrub`) and the audit (when audits are on).
  void check(std::int32_t level, bool scrub) const;

  const graph::Csr* graph_;
  sim::FaultInjector* injector_;
  RunGuard* guard_;
  obs::TraceSink* sink_;
  obs::MetricsRegistry* metrics_;
  IntegrityOptions integrity_;
  graph::SegmentDigests digests_;
  // Per-run state.
  Audit audit_;
  bool flips_armed_ = false;
  bool audits_on_ = false;
  bool scrubs_on_ = false;
  double now_ms_ = 0.0;
  unsigned device_ = 0;
};

// The BFS status/queue audit over N shards. Each shard holds a private
// status array and frontier queue; the status arrays agree at every level
// top and the queues partition the global frontier (N = 1 is the
// single-device engine). Checks level monotonicity, per-level population
// against the traversal's own newly-visited tallies, frontier-count
// conservation and status/queue agreement — exhaustively under kFull, as
// `sample_size` random (shard, vertex, queue entry) draws under kSampled.
class BfsAudit {
 public:
  // When `sup` audits this run: rebuilds the tallies from `status` up to
  // `level` (a fresh start or a checkpoint restore) and seeds the sampled
  // draws from the audit seed and `source`.
  void start(const LevelSupervisor& sup, const enterprise::StatusArray& status,
             std::int32_t level, std::uint64_t source);
  // Records the vertices first visited by the level just expanded.
  void record(graph::vertex_t newly_visited) {
    if (started_) tallies_.push_back(newly_visited);
  }

  void check(const LevelSupervisor& sup, std::int32_t level,
             std::span<const unsigned> devices,
             std::span<const enterprise::StatusArray> statuses,
             std::span<const std::vector<graph::vertex_t>> queues,
             bool bottom_up);

 private:
  bool started_ = false;
  std::vector<graph::vertex_t> tallies_;
  SplitMix64 rng_{0};
};

}  // namespace ent::bfs
