// Wall-clock spans recorded by the benchmark around its calls into the
// library's public functions. Spans stay in memory and are written once, at
// the end of a traced run, as Chrome trace-event JSON (loadable in
// chrome://tracing or Perfetto). Each span carries its layer (the trace
// event's `cat`), a parent span id and the id of the traversal or request it
// belongs to, so per-layer self times can be computed from the file alone.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  std::string name;    // public call, e.g. "Engine::run"
  std::string layer;   // graph, bfs, enterprise, baselines, serve, bench
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t flow = 0;    // traversal or request id, 0 = none
  int track = 0;             // trace-viewer row (tid)
  std::string detail;        // graph / spec label
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  // A disabled tracer records nothing. `recording` gates timed(), so a
  // traced run can alternate traced and untraced stretches and compare them.
  bool recording() const { return enabled_ && recording_; }
  void set_recording(bool on) { recording_ = on; }

  std::uint64_t next_id() { return ++last_id_; }

  // Records a finished span when enabled.
  void add(Span span);

  // Writes every span as a Chrome trace-event JSON object. Returns false
  // when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  bool recording_ = true;
  Clock::time_point epoch_;
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

// Times one call; when the tracer is recording, also records it as a span.
// `parent` and `flow` link the span to its cause and its traversal/request.
template <class F>
auto timed(Tracer& tracer, double& elapsed_ms, const char* name,
           const char* layer, std::uint64_t parent, std::uint64_t flow,
           const std::string& detail, F&& call) {
  const Clock::time_point start = Clock::now();
  auto result = call();
  const Clock::time_point end = Clock::now();
  elapsed_ms = ms_between(start, end);
  if (tracer.recording()) {
    tracer.add({name, layer, start, end, tracer.next_id(), parent, flow, 0,
                detail});
  }
  return result;
}

}  // namespace perfbench
