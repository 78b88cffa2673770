// Hub-vertex cache (§4.3): a direct-mapped hash table of vertex ids held in
// GPU shared memory. During queue generation Enterprise inserts the ids of
// vertices that were just visited at the preceding level and have high
// out-degree (HC[hash(id)] = id); during bottom-up inspection a frontier
// probes the cache with each neighbor's id and, on a hit, adopts that
// neighbor as parent and terminates early — avoiding the random
// global-memory status read.
//
// The paper allocates ~6 KB per CTA (~1,000 entries) and broadcasts the same
// hot hub set to every CTA; we model one logical cache of that capacity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace ent::enterprise {

class HubCache {
 public:
  explicit HubCache(std::size_t capacity);

  std::size_t capacity() const { return slots_.size(); }

  // Shared-memory bytes this cache occupies (4 B per slot).
  std::size_t footprint_bytes() const {
    return slots_.size() * sizeof(graph::vertex_t);
  }

  void clear();

  // Direct-mapped overwrite insert. Returns true if the slot was empty or
  // already held `v` (i.e., no eviction happened).
  bool insert(graph::vertex_t v);

  bool contains(graph::vertex_t v) const;

  // contains(v) followed by insert(v) on a miss, hashing `v` once. Returns
  // whether `v` was already cached; probes() and hits() count it exactly
  // as contains() does.
  bool probe_insert(graph::vertex_t v);

  // Occupied slots (diagnostics).
  std::size_t occupancy() const;

  // Statistics since the last clear().
  std::uint64_t hits() const { return hits_; }
  std::uint64_t probes() const { return probes_; }

 private:
  std::size_t slot_for(graph::vertex_t v) const;

  std::vector<graph::vertex_t> slots_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t probes_ = 0;
};

}  // namespace ent::enterprise
