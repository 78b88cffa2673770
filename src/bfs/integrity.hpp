// Knobs and plumbing for the silent-data-corruption defense that
// bfs::LevelSupervisor runs at every level top: per-level traversal audits
// (frontier-count conservation, level monotonicity, status-array/queue
// agreement) and periodic digest scrubs of the resident CSR segments
// (graph/digest.hpp). Both are detection-only — a failed check throws the
// typed sim::IntegrityFault; recovery policy lives in bfs::ResilientEngine.
//
// Everything here is opt-in and zero-overhead when off: with audit == kOff
// and scrub_interval == 0 no extra branch touches the device timeline, no
// metric is created and no event is emitted — reports are byte-identical
// to a build without the subsystem (asserted by sdc_test).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "obs/run_report.hpp"

namespace ent::obs {
class MetricsRegistry;
}  // namespace ent::obs

namespace ent::bfs {

enum class AuditMode {
  kOff,      // no per-level checks at all
  kSampled,  // O(sample_size) spot checks per level
  kFull,     // O(V) histogram + full queue/status agreement per level
};

const char* to_string(AuditMode mode);
std::optional<AuditMode> audit_mode_from_string(const std::string& name);

struct IntegrityOptions {
  AuditMode audit = AuditMode::kOff;
  // Digest-scrub the CSR segments at the top of every Nth level (and once
  // after the loop). 0 = never.
  std::uint32_t scrub_interval = 0;
  // Vertices/queue entries spot-checked per level in kSampled mode.
  std::uint32_t sample_size = 64;
  // Seeds the sampled-audit draws. Independent of the fault-plan RNG, so
  // arming audits never perturbs an injection schedule.
  std::uint64_t audit_seed = 0x5dc0ffeeull;
  // Brownout taps (serve/overload.hpp): the serving layer's overload
  // controller publishes suspension through these flags so a pressure
  // episode can shed audit/scrub work WITHOUT rebuilding worker engines.
  // Drivers sample them once at run start (suspension takes effect at
  // request boundaries, keeping per-run counters coherent). Null = never
  // suspended — byte-identical behaviour to a build without the taps.
  const std::atomic<bool>* suspend_audits = nullptr;
  const std::atomic<bool>* suspend_scrubs = nullptr;

  bool enabled() const {
    return audit != AuditMode::kOff || scrub_interval != 0;
  }

  // Armed AND not currently browned out. The run-start sample drivers use.
  bool audits_active() const {
    return audit != AuditMode::kOff &&
           (suspend_audits == nullptr ||
            !suspend_audits->load(std::memory_order_acquire));
  }
  bool scrubs_active() const {
    return scrub_interval != 0 &&
           (suspend_scrubs == nullptr ||
            !suspend_scrubs->load(std::memory_order_acquire));
  }
};

// Assembles the optional `integrity` RunReport section from the integrity.*
// counters in `metrics`. Returns nullopt when nothing was armed and nothing
// happened — the caller then omits the section entirely, preserving
// byte-identical reports for plain runs. Purely reads existing counters;
// never creates one. `flips_detected` is min(injected, detections) and
// `flips_missed` the remainder: with a single-flip plan the missed counter
// is exact, which is what sdc_test uses as ground truth.
std::optional<obs::IntegritySection> collect_integrity(
    const obs::MetricsRegistry& metrics, const IntegrityOptions& options);

}  // namespace ent::bfs
