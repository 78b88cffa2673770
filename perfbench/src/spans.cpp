#include "spans.hpp"

#include <chrono>
#include <fstream>
#include <set>

#include "obs/json.hpp"

namespace perfbench {

void Tracer::add(Span span) {
  if (enabled_) spans_.push_back(std::move(span));
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  using ent::obs::Json;
  const auto micros = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  Json events = Json::array();
  std::set<int> tracks;
  for (const Span& s : spans_) {
    tracks.insert(s.track);
    Json args = Json::object();
    args.set("id", Json(s.id));
    args.set("parent", Json(s.parent));
    args.set("flow", Json(s.flow));
    if (!s.detail.empty()) args.set("detail", Json(s.detail));
    Json e = Json::object();
    e.set("name", Json(s.name));
    e.set("cat", Json(s.layer));
    e.set("ph", Json("X"));
    e.set("ts", Json(micros(s.start)));
    e.set("dur", Json(micros(s.end) - micros(s.start)));
    e.set("pid", Json(1));
    e.set("tid", Json(s.track));
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  for (const int track : tracks) {
    Json args = Json::object();
    args.set("name", Json(track == 0 ? std::string("main")
                                     : "request slot " +
                                           std::to_string(track)));
    Json e = Json::object();
    e.set("name", Json("thread_name"));
    e.set("ph", Json("M"));
    e.set("pid", Json(1));
    e.set("tid", Json(track));
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  Json root = Json::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", Json("ms"));
  std::ofstream out(path);
  if (!out) return false;
  out << root.dump() << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
