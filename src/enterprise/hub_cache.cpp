#include "enterprise/hub_cache.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/random.hpp"

namespace ent::enterprise {

HubCache::HubCache(std::size_t capacity)
    : slots_(capacity, graph::kInvalidVertex) {
  ENT_ASSERT(capacity >= 1);
}

void HubCache::clear() {
  std::fill(slots_.begin(), slots_.end(), graph::kInvalidVertex);
  hits_ = 0;
  probes_ = 0;
}

std::size_t HubCache::slot_for(graph::vertex_t v) const {
  return static_cast<std::size_t>(mix64(v) % slots_.size());
}

bool HubCache::insert(graph::vertex_t v) {
  graph::vertex_t& slot = slots_[slot_for(v)];
  const bool clean = slot == graph::kInvalidVertex || slot == v;
  slot = v;
  return clean;
}

bool HubCache::contains(graph::vertex_t v) const {
  ++probes_;
  const bool hit = slots_[slot_for(v)] == v;
  if (hit) ++hits_;
  return hit;
}

bool HubCache::probe_insert(graph::vertex_t v) {
  ++probes_;
  graph::vertex_t& slot = slots_[slot_for(v)];
  if (slot == v) {
    ++hits_;
    return true;
  }
  slot = v;
  return false;
}

std::size_t HubCache::occupancy() const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(), [](graph::vertex_t v) {
        return v != graph::kInvalidVertex;
      }));
}

}  // namespace ent::enterprise
