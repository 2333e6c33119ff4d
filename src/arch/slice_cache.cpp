#include "arch/slice_cache.h"

#include <algorithm>
#include <stdexcept>

namespace tcim::arch {

std::string ToString(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kLru:
      return "LRU";
    case ReplacementPolicy::kFifo:
      return "FIFO";
    case ReplacementPolicy::kRandom:
      return "random";
  }
  return "?";
}

SliceCache::SliceCache(std::uint64_t num_sets, std::uint32_t associativity,
                       ReplacementPolicy policy, std::uint64_t seed)
    : associativity_(associativity), policy_(policy), rng_(seed) {
  if (num_sets == 0 || associativity == 0) {
    throw std::invalid_argument(
        "SliceCache: need at least one set and one way");
  }
  sets_.resize(num_sets);  // empty sets: no per-way storage yet
}

std::size_t SliceCache::Home(std::uint64_t tag, std::size_t mask) noexcept {
  // Fibonacci hashing: slice tags are dense ordinals, so mix the high
  // product bits down before masking.
  const std::uint64_t h = tag * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(h ^ (h >> 32)) & mask;
}

std::uint32_t SliceCache::Find(const Set& set, std::uint64_t tag) noexcept {
  if (set.index.empty()) return kNone;
  const std::size_t mask = set.index.size() - 1;
  for (std::size_t i = Home(tag, mask);; i = (i + 1) & mask) {
    const std::uint32_t way = set.index[i];
    if (way == kNone || set.ways[way].tag == tag) return way;
  }
}

void SliceCache::IndexInsert(Set& set, std::uint32_t way) {
  // Keep the load <= 3/4 so probes stay short; growing rehashes the
  // resident ways (amortized O(1) per fill).
  if (4 * set.ways.size() > 3 * set.index.size()) {
    set.index.assign(std::max<std::size_t>(4, 2 * set.index.size()), kNone);
    for (std::uint32_t w = 0; w < set.ways.size(); ++w) {
      if (w != way) Place(set, w);
    }
  }
  Place(set, way);
}

void SliceCache::Place(Set& set, std::uint32_t way) noexcept {
  const std::size_t mask = set.index.size() - 1;
  std::size_t i = Home(set.ways[way].tag, mask);
  while (set.index[i] != kNone) i = (i + 1) & mask;
  set.index[i] = way;
}

void SliceCache::IndexErase(Set& set, std::uint32_t way) noexcept {
  // Backward-shift deletion: pull each later entry of the probe run
  // into the hole unless that would move it before its home slot.
  const std::size_t mask = set.index.size() - 1;
  std::size_t hole = Home(set.ways[way].tag, mask);
  while (set.index[hole] != way) hole = (hole + 1) & mask;
  for (std::size_t j = (hole + 1) & mask; set.index[j] != kNone;
       j = (j + 1) & mask) {
    const std::size_t home = Home(set.ways[set.index[j]].tag, mask);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      set.index[hole] = set.index[j];
      hole = j;
    }
  }
  set.index[hole] = kNone;
}

void SliceCache::MoveToMru(Set& set, std::uint32_t way) noexcept {
  if (set.mru == way) return;
  Way& w = set.ways[way];
  // A linked way that is not the head has a newer neighbour; a way
  // just filled has none and is not linked yet.
  if (w.newer != kNone) {
    set.ways[w.newer].older = w.older;
    if (w.older != kNone) {
      set.ways[w.older].newer = w.newer;
    } else {
      set.lru = w.newer;
    }
  }
  w.newer = kNone;
  w.older = set.mru;
  if (set.mru != kNone) {
    set.ways[set.mru].newer = way;
  } else {
    set.lru = way;
  }
  set.mru = way;
}

std::uint32_t SliceCache::PickVictim(Set& set) {
  switch (policy_) {
    case ReplacementPolicy::kLru:
      return set.lru;
    case ReplacementPolicy::kFifo: {
      const std::uint32_t victim = set.fifo_next;
      set.fifo_next = victim + 1 == associativity_ ? 0 : victim + 1;
      return victim;
    }
    case ReplacementPolicy::kRandom:
      return static_cast<std::uint32_t>(rng_.UniformBelow(associativity_));
  }
  return 0;
}

void SliceCache::CheckSet(std::uint64_t set_id, const char* what) const {
  if (set_id >= sets_.size()) {
    throw std::out_of_range(std::string("SliceCache::") + what +
                            ": set out of range");
  }
}

AccessResult SliceCache::AccessImpl(std::uint64_t set_id, std::uint64_t tag,
                                    bool count_stats) {
  CheckSet(set_id, "Access");
  Set& set = sets_[set_id];
  if (count_stats) ++stats_.lookups;

  const std::uint32_t resident = Find(set, tag);
  if (resident != kNone) {
    MoveToMru(set, resident);
    if (count_stats) ++stats_.hits;
    return {.hit = true, .way = resident, .evicted = false, .evicted_tag = 0};
  }

  if (count_stats) {
    ++stats_.misses;
    ++stats_.inserts;
  }
  const auto occupancy = static_cast<std::uint32_t>(set.ways.size());
  if (occupancy < associativity_) {
    // Cold fill into the first invalid way. Grow geometrically but
    // never past the associativity, so a full set holds exactly
    // `associativity_` Way records.
    if (set.ways.size() == set.ways.capacity()) {
      set.ways.reserve(std::min<std::size_t>(
          associativity_, std::max<std::size_t>(4, 2 * set.ways.size())));
    }
    set.ways.push_back(Way{.tag = tag});
    IndexInsert(set, occupancy);
    MoveToMru(set, occupancy);
    return {.hit = false, .way = occupancy, .evicted = false,
            .evicted_tag = 0};
  }
  // Full set: evict per policy (the paper's "data exchange").
  const std::uint32_t victim = PickVictim(set);
  const std::uint64_t old_tag = set.ways[victim].tag;
  IndexErase(set, victim);
  set.ways[victim].tag = tag;
  IndexInsert(set, victim);
  MoveToMru(set, victim);
  if (count_stats) ++stats_.exchanges;
  return {.hit = false, .way = victim, .evicted = true,
          .evicted_tag = old_tag};
}

AccessResult SliceCache::Access(std::uint64_t set_id, std::uint64_t tag) {
  return AccessImpl(set_id, tag, /*count_stats=*/true);
}

AccessResult SliceCache::Install(std::uint64_t set_id, std::uint64_t tag) {
  return AccessImpl(set_id, tag, /*count_stats=*/false);
}

bool SliceCache::Contains(std::uint64_t set_id, std::uint64_t tag) const {
  CheckSet(set_id, "Contains");
  return Find(sets_[set_id], tag) != kNone;
}

std::uint32_t SliceCache::Occupancy(std::uint64_t set_id) const {
  CheckSet(set_id, "Occupancy");
  return static_cast<std::uint32_t>(sets_[set_id].ways.size());
}

}  // namespace tcim::arch
