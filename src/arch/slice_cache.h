// Column-slice cache implementing the paper's data reuse & exchange
// policy (§IV-A, Algorithm 1).
//
// The computational array is managed as a set-associative cache of
// column slices: slice index k maps to a fixed set (a (subarray,
// column-group) pair — the multi-row-activation constraint makes this
// mapping *mandatory*, see arch/mapper.h), and the rows of that set
// are the ways. On a full set the paper replaces the least recently
// used column ("We choose the least recently used (LRU) column for
// replacement, and more optimized replacement strategy could be
// possible" — the alternative policies exist for exactly that
// ablation).
//
// Taxonomy (Fig. 5): a lookup is a *hit* if the slice is resident; a
// *miss* otherwise; a miss that must evict a resident slice to make
// room is additionally an *exchange*.
//
// Bookkeeping is expected O(1) per Access/Install (amortized over a
// set's growth), and its memory grows with the resident slices, not
// with capacity (the default 16 MB array has 4096 sets of 340 ways).
// Per set it keeps the resident ways' tags, a doubly linked recency
// list over them, a FIFO rotor, and an open-addressing tag -> way
// index. Placement is identical to the textbook argmin scans
// (tests/arch_test.cpp keeps one as the oracle) because no way is
// ever invalidated:
//   - a set's ways fill in index order, so the resident ways are
//     exactly [0, occupancy) and a cold fill takes way `occupancy`
//     (the first invalid way);
//   - every touch moves a way to the recency list's head, so its tail
//     is the way with the oldest last use (the argmin over last-use
//     stamps of a strictly increasing clock);
//   - once full, every fill replaces the oldest insert, so FIFO
//     victims cycle 0, 1, ..., ways-1 and the rotor is that argmin;
//   - random draws exactly one UniformBelow(ways) per exchange, as a
//     scanning cache does.
// At full occupancy the heap is <= 16 B per way plus a 4-byte index
// entry at load <= 3/4 (about 22 B per way at 340 ways).
//
// Layer: §7 arch — see docs/ARCHITECTURE.md. Units: CacheStats fields
// are dimensionless counts; HitRate() lies in [0, 1].
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace tcim::arch {

enum class ReplacementPolicy : std::uint8_t {
  kLru,     ///< paper default
  kFifo,    ///< insertion order
  kRandom,  ///< uniform victim (seeded, deterministic)
};

[[nodiscard]] std::string ToString(ReplacementPolicy policy);

/// Statistics of one run (also the Fig. 5 data source).
struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;     ///< = lookups - hits
  std::uint64_t exchanges = 0;  ///< misses that evicted a resident slice
  std::uint64_t inserts = 0;    ///< = misses (every miss loads the slice)

  [[nodiscard]] double HitRate() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
  [[nodiscard]] double ExchangeRate() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(exchanges) /
                              static_cast<double>(lookups);
  }
  /// Cold-miss fraction (miss but no eviction needed).
  [[nodiscard]] double ColdMissRate() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(misses - exchanges) /
                              static_cast<double>(lookups);
  }
};

/// Result of one cache access.
struct AccessResult {
  bool hit = false;
  std::uint32_t way = 0;       ///< way now holding the slice
  bool evicted = false;        ///< an older slice was displaced
  std::uint64_t evicted_tag = 0;
};

/// Set-associative cache of slice tags. Pure bookkeeping — data
/// movement is the controller's job; this class only decides placement
/// and victims.
class SliceCache {
 public:
  /// num_sets sets of `associativity` ways each.
  SliceCache(std::uint64_t num_sets, std::uint32_t associativity,
             ReplacementPolicy policy, std::uint64_t seed = 1);

  [[nodiscard]] std::uint64_t num_sets() const noexcept {
    return sets_.size();
  }
  [[nodiscard]] std::uint32_t associativity() const noexcept {
    return associativity_;
  }
  [[nodiscard]] std::uint64_t capacity_slices() const noexcept {
    return num_sets() * associativity_;
  }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] ReplacementPolicy policy() const noexcept { return policy_; }

  /// Looks up `tag` in `set`; on miss, allocates a way (evicting per
  /// policy when full). The returned way is where the slice data must
  /// reside after the call.
  AccessResult Access(std::uint64_t set, std::uint64_t tag);

  /// Same placement/eviction as Access but WITHOUT touching the run
  /// statistics — the hub-replica warm-up path of the 2D runtime
  /// (load-time work, so it must not count as lookups/misses in the
  /// Fig. 5 accounting). Installed slices still enter the recency
  /// order, so warmed slices age normally against later fills.
  AccessResult Install(std::uint64_t set, std::uint64_t tag);

  /// Lookup without allocation (tests/diagnostics).
  [[nodiscard]] bool Contains(std::uint64_t set, std::uint64_t tag) const;
  /// Number of resident slices in one set.
  [[nodiscard]] std::uint32_t Occupancy(std::uint64_t set) const;

  void ResetStats() noexcept { stats_ = {}; }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFU;
  struct Way {
    std::uint64_t tag = 0;
    std::uint32_t newer = kNone;  // recency list, toward the head (MRU)
    std::uint32_t older = kNone;  // toward the tail (LRU)
  };
  struct Set {
    std::vector<Way> ways;             // the resident ways, [0, occupancy)
    std::vector<std::uint32_t> index;  // linear-probing tag -> way
    std::uint32_t mru = kNone;
    std::uint32_t lru = kNone;
    std::uint32_t fifo_next = 0;       // FIFO rotor: next full-set victim
  };

  [[nodiscard]] static std::size_t Home(std::uint64_t tag,
                                        std::size_t mask) noexcept;
  [[nodiscard]] static std::uint32_t Find(const Set& set,
                                          std::uint64_t tag) noexcept;
  static void IndexInsert(Set& set, std::uint32_t way);
  static void Place(Set& set, std::uint32_t way) noexcept;
  static void IndexErase(Set& set, std::uint32_t way) noexcept;
  static void MoveToMru(Set& set, std::uint32_t way) noexcept;
  [[nodiscard]] std::uint32_t PickVictim(Set& set);
  void CheckSet(std::uint64_t set_id, const char* what) const;
  AccessResult AccessImpl(std::uint64_t set, std::uint64_t tag,
                          bool count_stats);

  std::uint32_t associativity_;
  ReplacementPolicy policy_;
  std::vector<Set> sets_;
  CacheStats stats_;
  util::Xoshiro256 rng_;
};

}  // namespace tcim::arch
