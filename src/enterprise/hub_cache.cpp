#include "enterprise/hub_cache.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace ent::enterprise {

HubCache::HubCache(std::size_t capacity)
    : slots_(capacity, graph::kInvalidVertex),
      pow2_(std::has_single_bit(capacity)) {
  ENT_ASSERT(capacity >= 1);
}

void HubCache::clear() {
  std::fill(slots_.begin(), slots_.end(), graph::kInvalidVertex);
  hits_ = 0;
  probes_ = 0;
}

bool HubCache::insert(graph::vertex_t v) {
  graph::vertex_t& slot = slots_[slot_for(v)];
  const bool clean = slot == graph::kInvalidVertex || slot == v;
  slot = v;
  return clean;
}

std::size_t HubCache::occupancy() const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(), [](graph::vertex_t v) {
        return v != graph::kInvalidVertex;
      }));
}

}  // namespace ent::enterprise
