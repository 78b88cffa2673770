#include "enterprise/status_array.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace ent::enterprise {
namespace {

using graph::vertex_t;

// Four int32 lanes (GCC/Clang vector extensions; SSE2 and NEON compile the
// compares to packed instructions). A scan word is 64 statuses: 16 vectors,
// one 64-bit mask, one BitArray word.
using Lanes = std::int32_t __attribute__((vector_size(16)));
using Halves = std::uint64_t __attribute__((vector_size(16)));
constexpr unsigned kLanes = 4;
constexpr unsigned kWord = 64;

constexpr Lanes splat(std::int32_t x) { return Lanes{x, x, x, x}; }

Lanes load(const std::int32_t* levels) {
  Lanes x;
  std::memcpy(&x, levels, sizeof(x));
  return x;
}

// Whether the lane compare `hit` (all ones or zero per lane) holds for any
// of the kWord statuses at `levels`.
template <class Hit>
bool word_any(const std::int32_t* levels, Hit hit) {
  Lanes acc = hit(load(levels));
  for (unsigned k = kLanes; k < kWord; k += kLanes) {
    acc |= hit(load(levels + k));
  }
  const auto halves = reinterpret_cast<Halves>(acc);
  return (halves[0] | halves[1]) != 0;
}

// `hit` for each of the `count` (at most kWord) statuses at `levels`,
// status i at bit i.
template <class Hit>
std::uint64_t word_mask(const std::int32_t* levels, std::size_t count,
                        Hit hit) {
  if (count < kWord) {
    std::int32_t padded[kWord] = {};
    std::memcpy(padded, levels, count * sizeof(std::int32_t));
    return word_mask(padded, kWord, hit) & ((std::uint64_t{1} << count) - 1);
  }
  constexpr Lanes kWeight = {1, 2, 4, 8};
  std::uint64_t mask = 0;
  for (unsigned k = 0; k < kWord; k += 4 * kLanes) {
    const Lanes t = (hit(load(levels + k)) & kWeight) |
                    (hit(load(levels + k + 4)) & (kWeight << 4)) |
                    (hit(load(levels + k + 8)) & (kWeight << 8)) |
                    (hit(load(levels + k + 12)) & (kWeight << 12));
    mask |= static_cast<std::uint64_t>(t[0] | t[1] | t[2] | t[3]) << k;
  }
  return mask;
}

template <class Hit>
BitArray to_bits(std::span<const std::int32_t> levels, Hit hit) {
  BitArray bits(levels.size());
  const std::span<std::uint64_t> words = bits.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::size_t first = w * kWord;
    words[w] = word_mask(levels.data() + first,
                         std::min<std::size_t>(kWord, levels.size() - first),
                         hit);
  }
  return bits;
}

}  // namespace

vertex_t StatusArray::visited_count() const {
  vertex_t count = 0;
  for (std::int32_t l : levels_) {
    if (l != kUnvisited) ++count;
  }
  return count;
}

std::vector<vertex_t> StatusArray::vertices_at(std::int32_t level,
                                               vertex_t begin,
                                               vertex_t end) const {
  std::vector<vertex_t> out;
  const auto at_level = [want = splat(level)](Lanes x) { return x == want; };
  for (vertex_t v = begin; v < end;) {
    const vertex_t count = std::min<vertex_t>(kWord, end - v);
    const std::int32_t* const word = levels_.data() + v;
    // Most words of a sparse frontier hold no match: one OR-reduced
    // compare rejects them before the mask is packed.
    if (count < kWord || word_any(word, at_level)) {
      for (std::uint64_t m = word_mask(word, count, at_level); m != 0;
           m &= m - 1) {
        out.push_back(v + static_cast<vertex_t>(std::countr_zero(m)));
      }
    }
    v += count;
  }
  return out;
}

BitArray StatusArray::level_bits(std::int32_t level) const {
  return to_bits(levels_,
                 [want = splat(level)](Lanes x) { return x == want; });
}

BitArray StatusArray::parent_bits(std::int32_t next_level) const {
  return to_bits(levels_, [unvisited = splat(kUnvisited),
                           below = splat(next_level)](Lanes x) {
    return (x != unvisited) & (x < below);
  });
}

}  // namespace ent::enterprise
