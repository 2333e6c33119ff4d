// Tests for the architecture layer: set-associative slice cache
// (policies, stats invariants, lockstep equivalence with the
// linear-scan reference), the slice mapper's physical consistency,
// and the Algorithm-1 controller on known inputs and pinned stats.
#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "arch/controller.h"
#include "arch/mapper.h"
#include "arch/slice_cache.h"
#include "bitmatrix/sliced_matrix.h"
#include "util/rng.h"

namespace tcim::arch {
namespace {

TEST(SliceCache, ColdMissesThenHits) {
  SliceCache cache(4, 2, ReplacementPolicy::kLru);
  EXPECT_FALSE(cache.Access(0, 100).hit);
  EXPECT_TRUE(cache.Access(0, 100).hit);
  EXPECT_FALSE(cache.Access(0, 200).hit);
  EXPECT_TRUE(cache.Access(0, 200).hit);
  EXPECT_EQ(cache.stats().lookups, 4u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().exchanges, 0u);
}

TEST(SliceCache, LruEvictsLeastRecentlyUsed) {
  SliceCache cache(1, 2, ReplacementPolicy::kLru);
  (void)cache.Access(0, 1);  // miss, fill
  (void)cache.Access(0, 2);  // miss, fill
  (void)cache.Access(0, 1);  // hit: 1 is now MRU
  const AccessResult r = cache.Access(0, 3);  // must evict 2
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_tag, 2u);
  EXPECT_TRUE(cache.Contains(0, 1));
  EXPECT_TRUE(cache.Contains(0, 3));
  EXPECT_FALSE(cache.Contains(0, 2));
}

TEST(SliceCache, FifoEvictsOldestInsert) {
  SliceCache cache(1, 2, ReplacementPolicy::kFifo);
  (void)cache.Access(0, 1);
  (void)cache.Access(0, 2);
  (void)cache.Access(0, 1);  // hit does NOT refresh FIFO order
  const AccessResult r = cache.Access(0, 3);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_tag, 1u);  // oldest insert, despite recent hit
}

TEST(SliceCache, RandomPolicyIsDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    SliceCache cache(1, 4, ReplacementPolicy::kRandom, seed);
    util::Xoshiro256 rng(9);
    std::vector<std::uint64_t> evictions;
    for (int i = 0; i < 200; ++i) {
      const AccessResult r = cache.Access(0, rng.UniformBelow(32));
      if (r.evicted) evictions.push_back(r.evicted_tag);
    }
    return evictions;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(SliceCache, SetsAreIndependent) {
  SliceCache cache(2, 1, ReplacementPolicy::kLru);
  (void)cache.Access(0, 7);
  (void)cache.Access(1, 7);
  EXPECT_TRUE(cache.Contains(0, 7));
  EXPECT_TRUE(cache.Contains(1, 7));
  (void)cache.Access(0, 8);  // evicts only in set 0
  EXPECT_FALSE(cache.Contains(0, 7));
  EXPECT_TRUE(cache.Contains(1, 7));
}

TEST(SliceCache, OccupancyNeverExceedsAssociativity) {
  SliceCache cache(4, 3, ReplacementPolicy::kLru);
  util::Xoshiro256 rng(10);
  for (int i = 0; i < 1000; ++i) {
    (void)cache.Access(rng.UniformBelow(4), rng.UniformBelow(100));
    for (std::uint64_t s = 0; s < 4; ++s) {
      ASSERT_LE(cache.Occupancy(s), 3u);
    }
  }
}

struct PolicyCase {
  ReplacementPolicy policy;
};

class CacheInvariantTest : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(CacheInvariantTest, StatsConservationUnderRandomWorkload) {
  SliceCache cache(8, 4, GetParam().policy, 3);
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 5000; ++i) {
    (void)cache.Access(rng.UniformBelow(8), rng.UniformBelow(64));
  }
  const CacheStats& s = cache.stats();
  EXPECT_EQ(s.lookups, 5000u);
  EXPECT_EQ(s.hits + s.misses, s.lookups);
  EXPECT_EQ(s.inserts, s.misses);
  EXPECT_LE(s.exchanges, s.misses);
  EXPECT_NEAR(s.HitRate() + s.ColdMissRate() + s.ExchangeRate(), 1.0,
              1e-12);
}

TEST_P(CacheInvariantTest, NoExchangesWhenWorkingSetFits) {
  SliceCache cache(2, 8, GetParam().policy, 3);
  util::Xoshiro256 rng(12);
  for (int i = 0; i < 2000; ++i) {
    // 8 distinct tags per set, capacity 8: never overflows.
    (void)cache.Access(rng.UniformBelow(2), rng.UniformBelow(8));
  }
  EXPECT_EQ(cache.stats().exchanges, 0u);
  // Each of the 16 (set, tag) pairs misses exactly once.
  EXPECT_EQ(cache.stats().misses, 16u);
}

INSTANTIATE_TEST_SUITE_P(Policies, CacheInvariantTest,
                         ::testing::Values(PolicyCase{ReplacementPolicy::kLru},
                                           PolicyCase{ReplacementPolicy::kFifo},
                                           PolicyCase{
                                               ReplacementPolicy::kRandom}),
                         [](const auto& info) {
                           return ToString(info.param.policy);
                         });

TEST(SliceCache, LruBeatsRandomOnSkewedReuse) {
  // Zipf-ish stream: a hot set of tags reused heavily. LRU should keep
  // them; random eviction loses them regularly.
  const auto hit_rate = [](ReplacementPolicy policy) {
    SliceCache cache(1, 16, policy, 4);
    util::Xoshiro256 rng(13);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t tag = rng.Bernoulli(0.8)
                                    ? rng.UniformBelow(12)    // hot set
                                    : 12 + rng.UniformBelow(500);
      (void)cache.Access(0, tag);
    }
    return cache.stats().HitRate();
  };
  EXPECT_GT(hit_rate(ReplacementPolicy::kLru),
            hit_rate(ReplacementPolicy::kRandom));
}

TEST(SliceCache, RejectsDegenerateGeometry) {
  EXPECT_THROW(SliceCache(0, 1, ReplacementPolicy::kLru),
               std::invalid_argument);
  EXPECT_THROW(SliceCache(1, 0, ReplacementPolicy::kLru),
               std::invalid_argument);
  SliceCache cache(1, 1, ReplacementPolicy::kLru);
  EXPECT_THROW(cache.Access(1, 0), std::out_of_range);
  EXPECT_THROW((void)cache.Contains(1, 0), std::out_of_range);
}

// --- reference cache ---------------------------------------------------------

// The textbook linear-scan cache SliceCache replaced: every lookup
// scans the set's ways for the tag, a miss scans again for the first
// invalid way, and a full set evicts the argmin last-use (LRU) or
// argmin insert time (FIFO) way, or a uniform draw (random). Kept as
// the placement oracle for the O(1) bookkeeping.
class ReferenceSliceCache {
 public:
  ReferenceSliceCache(std::uint64_t num_sets, std::uint32_t associativity,
                      ReplacementPolicy policy, std::uint64_t seed)
      : associativity_(associativity),
        policy_(policy),
        sets_(num_sets, std::vector<Way>(associativity)),
        rng_(seed) {}

  AccessResult Access(std::uint64_t set, std::uint64_t tag) {
    return AccessImpl(set, tag, true);
  }
  AccessResult Install(std::uint64_t set, std::uint64_t tag) {
    return AccessImpl(set, tag, false);
  }
  [[nodiscard]] bool Contains(std::uint64_t set, std::uint64_t tag) const {
    return std::any_of(sets_[set].begin(), sets_[set].end(),
                       [&](const Way& w) { return w.valid && w.tag == tag; });
  }
  [[nodiscard]] std::uint32_t Occupancy(std::uint64_t set) const {
    return static_cast<std::uint32_t>(
        std::count_if(sets_[set].begin(), sets_[set].end(),
                      [](const Way& w) { return w.valid; }));
  }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    bool valid = false;
    std::uint64_t last_use = 0;
    std::uint64_t inserted = 0;
  };

  AccessResult AccessImpl(std::uint64_t set_id, std::uint64_t tag,
                          bool count_stats) {
    std::vector<Way>& set = sets_[set_id];
    if (count_stats) ++stats_.lookups;
    ++clock_;
    for (std::uint32_t w = 0; w < associativity_; ++w) {
      if (set[w].valid && set[w].tag == tag) {
        set[w].last_use = clock_;
        if (count_stats) ++stats_.hits;
        return {.hit = true, .way = w};
      }
    }
    if (count_stats) {
      ++stats_.misses;
      ++stats_.inserts;
    }
    const Way fresh{.tag = tag, .valid = true, .last_use = clock_,
                    .inserted = clock_};
    for (std::uint32_t w = 0; w < associativity_; ++w) {
      if (!set[w].valid) {
        set[w] = fresh;
        return {.hit = false, .way = w};
      }
    }
    std::uint32_t victim = 0;
    switch (policy_) {
      case ReplacementPolicy::kLru:
        for (std::uint32_t w = 1; w < associativity_; ++w) {
          if (set[w].last_use < set[victim].last_use) victim = w;
        }
        break;
      case ReplacementPolicy::kFifo:
        for (std::uint32_t w = 1; w < associativity_; ++w) {
          if (set[w].inserted < set[victim].inserted) victim = w;
        }
        break;
      case ReplacementPolicy::kRandom:
        victim = static_cast<std::uint32_t>(rng_.UniformBelow(associativity_));
        break;
    }
    const std::uint64_t old_tag = set[victim].tag;
    set[victim] = fresh;
    if (count_stats) ++stats_.exchanges;
    return {.hit = false, .way = victim, .evicted = true,
            .evicted_tag = old_tag};
  }

  std::uint32_t associativity_;
  ReplacementPolicy policy_;
  std::vector<std::vector<Way>> sets_;
  CacheStats stats_;
  std::uint64_t clock_ = 0;
  util::Xoshiro256 rng_;
};

class CacheOracleTest : public ::testing::TestWithParam<ReplacementPolicy> {};

TEST_P(CacheOracleTest, PlacementMatchesTheLinearScanReference) {
  const ReplacementPolicy policy = GetParam();
  for (const std::uint64_t num_sets : {1, 2, 7, 64}) {
    for (const std::uint32_t ways : {1u, 2u, 3u, 8u, 33u, 340u}) {
      for (const std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE("sets " + std::to_string(num_sets) + " ways " +
                     std::to_string(ways) + " seed " + std::to_string(seed));
        SliceCache cache(num_sets, ways, policy, seed);
        ReferenceSliceCache reference(num_sets, ways, policy, seed);
        util::Xoshiro256 rng(seed * 1000 + ways);
        // Skewed tags: a hot quarter of the ways is reused most of the
        // time, and the cold universe of 3x the ways forces exchanges.
        const std::uint64_t hot = std::max<std::uint64_t>(1, ways / 4);
        const std::uint64_t cold = 3ULL * ways + 2;
        const std::uint64_t steps = 4 * num_sets * ways + 2000;
        std::uint64_t hits = 0;
        std::uint64_t cold_fills = 0;
        std::uint64_t exchanges = 0;
        for (std::uint64_t step = 0; step < steps; ++step) {
          const std::uint64_t set = rng.UniformBelow(num_sets);
          const std::uint64_t tag = rng.Bernoulli(0.6)
                                        ? rng.UniformBelow(hot)
                                        : rng.UniformBelow(cold);
          const bool install = rng.Bernoulli(0.1);
          const AccessResult got =
              install ? cache.Install(set, tag) : cache.Access(set, tag);
          const AccessResult want = install ? reference.Install(set, tag)
                                            : reference.Access(set, tag);
          ASSERT_EQ(got.hit, want.hit) << "step " << step;
          ASSERT_EQ(got.way, want.way) << "step " << step;
          ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
          ASSERT_EQ(got.evicted_tag, want.evicted_tag) << "step " << step;
          hits += got.hit ? 1 : 0;
          cold_fills += !got.hit && !got.evicted ? 1 : 0;
          exchanges += got.evicted ? 1 : 0;
          ASSERT_EQ(cache.Occupancy(set), reference.Occupancy(set));
          const std::uint64_t probe_set = rng.UniformBelow(num_sets);
          const std::uint64_t probe_tag = rng.UniformBelow(cold);
          ASSERT_EQ(cache.Contains(probe_set, probe_tag),
                    reference.Contains(probe_set, probe_tag))
              << "step " << step;
        }
        for (std::uint64_t set = 0; set < num_sets; ++set) {
          ASSERT_EQ(cache.Occupancy(set), reference.Occupancy(set));
        }
        const CacheStats& got = cache.stats();
        const CacheStats& want = reference.stats();
        EXPECT_EQ(got.lookups, want.lookups);
        EXPECT_EQ(got.hits, want.hits);
        EXPECT_EQ(got.misses, want.misses);
        EXPECT_EQ(got.exchanges, want.exchanges);
        EXPECT_EQ(got.inserts, want.inserts);
        // The workload exercises every placement path.
        EXPECT_GT(hits, 0u);
        EXPECT_GT(cold_fills, 0u);
        EXPECT_GT(exchanges, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, CacheOracleTest,
                         ::testing::Values(ReplacementPolicy::kLru,
                                           ReplacementPolicy::kFifo,
                                           ReplacementPolicy::kRandom),
                         [](const auto& info) {
                           return ToString(info.param);
                         });

// Bytes the process heap holds right now (0 where unmeasurable).
std::size_t HeapBytesInUse() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

TEST(SliceCache, HeapGrowsWithResidentSlicesAndStaysUnder32BytesPerWay) {
  {
    const std::size_t before = HeapBytesInUse();
    const std::vector<std::uint64_t> probe(1 << 17);
    if (HeapBytesInUse() < before + probe.size() * sizeof(std::uint64_t)) {
      GTEST_SKIP() << "the allocator does not report heap usage";
    }
  }
  // The default 16 MB array's geometry.
  constexpr std::uint64_t kSets = 4096;
  constexpr std::uint32_t kWays = 340;
  const std::size_t before = HeapBytesInUse();
  SliceCache cache(kSets, kWays, ReplacementPolicy::kLru);
  // An empty cache holds per-set headers only, no per-way storage.
  EXPECT_LE(HeapBytesInUse() - before, kSets * 128);
  for (std::uint64_t set = 0; set < kSets; ++set) {
    for (std::uint64_t tag = 0; tag < kWays; ++tag) {
      (void)cache.Access(set, tag);
    }
  }
  ASSERT_EQ(cache.stats().misses, kSets * kWays);
  EXPECT_EQ(cache.stats().exchanges, 0u);
  // Full occupancy: at most the 32 B per way of the old way table.
  EXPECT_LE(HeapBytesInUse() - before, kSets * kWays * 32);
}

// --- mapper ----------------------------------------------------------------

TEST(SliceMapper, SetsCoverAllSubarrayColumnPairs) {
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  const SliceMapper mapper(config);
  EXPECT_EQ(mapper.num_sets(), config.total_subarrays() * 8);
  EXPECT_EQ(mapper.ways_per_set(), config.subarray_rows - 1);
}

TEST(SliceMapper, StagingAndWaysShareSetGeometry) {
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  const SliceMapper mapper(config);
  for (std::uint64_t set = 0; set < mapper.num_sets(); set += 17) {
    const pim::SliceAddr staging = mapper.StagingAddr(set);
    EXPECT_EQ(staging.row, 0u);
    for (std::uint32_t way = 0; way < 5; ++way) {
      const pim::SliceAddr w = mapper.WayAddr(set, way);
      // Same subarray + column group as staging: AND-compatible.
      EXPECT_EQ(w.subarray, staging.subarray);
      EXPECT_EQ(w.col_group, staging.col_group);
      EXPECT_EQ(w.row, way + 1);  // never collides with staging
    }
  }
}

TEST(SliceMapper, MinimalSpreadMapsSliceIndexToOneSet) {
  nvsim::ArrayConfig config;
  const SliceMapper mapper(config);
  for (std::uint32_t k = 0; k < 10000; k += 7) {
    // spread = 1: every column of slice index k lands in the same set.
    EXPECT_EQ(mapper.SetOf(k, 3, 1), k % mapper.num_sets());
    EXPECT_EQ(mapper.SetOf(k, 900, 1), mapper.SetOf(k, 17, 1));
  }
}

TEST(SliceMapper, SpreadFansColumnsAcrossSets) {
  nvsim::ArrayConfig config;
  const SliceMapper mapper(config);
  // Deterministic per (k, j)...
  EXPECT_EQ(mapper.SetOf(5, 123, 8), mapper.SetOf(5, 123, 8));
  // ...and distributing across `spread` distinct sets for one k.
  std::set<std::uint64_t> sets;
  for (std::uint32_t j = 0; j < 64; ++j) {
    sets.insert(mapper.SetOf(5, j, 8));
  }
  EXPECT_EQ(sets.size(), 8u);
}

TEST(SliceMapper, SpreadForFillsArray) {
  nvsim::ArrayConfig config;  // 16 MB -> 4096 sets
  const SliceMapper mapper(config);
  EXPECT_EQ(mapper.SpreadFor(4096), 1u);
  EXPECT_EQ(mapper.SpreadFor(10000), 1u);   // more indices than sets
  EXPECT_EQ(mapper.SpreadFor(64), 64u);     // small graph: fan out
  EXPECT_EQ(mapper.SpreadFor(0), 1u);       // degenerate
}

// --- controller -------------------------------------------------------------

bit::SlicedMatrix Fig2Matrix() {
  const std::vector<std::uint64_t> offsets = {0, 2, 4, 5, 5};
  const std::vector<std::uint32_t> neighbors = {1, 2, 2, 3, 3};
  return bit::SlicedMatrix::FromCsr(4, offsets, neighbors, 64);
}

TEST(Controller, Fig2WalkthroughCounts) {
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray array(config);
  ControllerConfig controller_config;
  controller_config.spread_override = 1;  // the paper's minimal mapping
  Controller controller(array, controller_config);
  const ExecStats stats = controller.Run(Fig2Matrix());

  EXPECT_EQ(stats.accumulated_bitcount, 2u);  // two triangles
  EXPECT_EQ(stats.edges_processed, 5u);
  EXPECT_EQ(stats.valid_pairs, 5u);  // all 5 non-zeros, single slice
  // Columns C1, C2, C3 loaded once each (misses), reused twice total:
  // C2 at step 3 and C3 at step 5 (paper Fig. 2 discussion).
  EXPECT_EQ(stats.col_slice_writes, 3u);
  EXPECT_EQ(stats.cache.hits, 2u);
  EXPECT_EQ(stats.cache.exchanges, 0u);
  // Rows R0, R1, R2 staged once each (n=4 -> one slice per row).
  EXPECT_EQ(stats.row_slice_writes, 3u);
}

TEST(Controller, Fig2CommandSequence) {
  // The paper's five-step walkthrough at array-command granularity:
  //   step 1: load R0, load C1, AND      step 4: load C3, AND
  //   step 2: load C2, AND               step 5: load R2, AND (C3 hit)
  //   step 3: load R1, AND (C2 hit)
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray array(config);
  array.EnableTrace(64);
  ControllerConfig cc;
  cc.spread_override = 1;
  Controller controller(array, cc);
  (void)controller.Run(Fig2Matrix());

  using Op = pim::TraceEntry::Op;
  std::vector<Op> ops;
  for (const pim::TraceEntry& e : array.trace()) ops.push_back(e.op);
  EXPECT_EQ(ops, (std::vector<Op>{
                     Op::kWrite, Op::kWrite, Op::kAnd,   // R0, C1, AND
                     Op::kWrite, Op::kAnd,               // C2, AND
                     Op::kWrite, Op::kAnd,               // R1, AND (C2 hit)
                     Op::kWrite, Op::kAnd,               // C3, AND
                     Op::kWrite, Op::kAnd}));            // R2, AND (C3 hit)
  EXPECT_FALSE(array.trace_truncated());
  // Every AND pairs the staging row (row 0) with a cache way.
  for (const pim::TraceEntry& e : array.trace()) {
    if (e.op == Op::kAnd) {
      EXPECT_EQ(e.a.row, 0u);
      EXPECT_GT(e.b.row, 0u);
      EXPECT_EQ(e.a.subarray, e.b.subarray);
      EXPECT_EQ(e.a.col_group, e.b.col_group);
    }
  }
}

TEST(Controller, AccumulatorMatchesSoftwareEquation5) {
  util::Xoshiro256 rng(21);
  // Random upper-triangular CSR over 300 vertices.
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t i = 0; i < 300; ++i) {
    for (std::uint32_t j = i + 1; j < 300; ++j) {
      if (rng.Bernoulli(0.05)) neighbors.push_back(j);
    }
    offsets.push_back(neighbors.size());
  }
  const bit::SlicedMatrix matrix =
      bit::SlicedMatrix::FromCsr(300, offsets, neighbors, 64);

  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray array(config);
  Controller controller(array, ControllerConfig{});
  const ExecStats stats = controller.Run(matrix);
  EXPECT_EQ(stats.accumulated_bitcount, matrix.AndPopcountAllEdges());
}

TEST(Controller, StatsConservationLaws) {
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray array(config);
  Controller controller(array, ControllerConfig{});

  util::Xoshiro256 rng(22);
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t i = 0; i < 500; ++i) {
    for (std::uint32_t j = i + 1; j < 500; ++j) {
      if (rng.Bernoulli(0.02)) neighbors.push_back(j);
    }
    offsets.push_back(neighbors.size());
  }
  const bit::SlicedMatrix matrix =
      bit::SlicedMatrix::FromCsr(500, offsets, neighbors, 64);
  const ExecStats stats = controller.Run(matrix);

  EXPECT_EQ(stats.cache.lookups, stats.valid_pairs);
  EXPECT_EQ(stats.col_slice_writes, stats.cache.misses);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, stats.cache.lookups);
  EXPECT_EQ(array.counts().ands, stats.valid_pairs);
  EXPECT_EQ(array.counts().writes, stats.TotalWrites());
  // Per-subarray counts sum to totals.
  std::uint64_t and_sum = 0;
  for (const auto a : stats.per_subarray_ands) and_sum += a;
  EXPECT_EQ(and_sum, stats.valid_pairs);
  std::uint64_t write_sum = 0;
  for (const auto w : stats.per_subarray_writes) write_sum += w;
  EXPECT_EQ(write_sum, stats.TotalWrites());
  // Row staging writes: at least one per touched row slice, at most
  // one per valid pair (full spread replication).
  EXPECT_LE(stats.row_slice_writes, stats.valid_pairs);
  EXPECT_GE(stats.spread, 1u);
}

TEST(Controller, SpreadOneStagesOncePerRowSlice) {
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray array(config);
  ControllerConfig cc;
  cc.spread_override = 1;
  Controller controller(array, cc);

  util::Xoshiro256 rng(29);
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t i = 0; i < 400; ++i) {
    for (std::uint32_t j = i + 1; j < 400; ++j) {
      if (rng.Bernoulli(0.03)) neighbors.push_back(j);
    }
    offsets.push_back(neighbors.size());
  }
  const bit::SlicedMatrix matrix =
      bit::SlicedMatrix::FromCsr(400, offsets, neighbors, 64);
  const ExecStats stats = controller.Run(matrix);
  // With spread 1 each row slice is staged at most once per row
  // iteration: bounded by the touched row slices.
  EXPECT_LE(stats.row_slice_writes, matrix.rows().valid_slice_count());
  EXPECT_EQ(stats.spread, 1u);
  EXPECT_EQ(stats.accumulated_bitcount, matrix.AndPopcountAllEdges());
}

TEST(Controller, AutoSpreadFillsSmallGraphIntoBigArray) {
  // 400-vertex graph: 7 slice indices; a 1 MB array has 256 sets.
  // Auto spread must exceed 1 and counts must be unchanged.
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray a1(config);
  pim::ComputationalArray a2(config);
  ControllerConfig auto_cfg;  // spread_override = 0
  ControllerConfig minimal;
  minimal.spread_override = 1;

  util::Xoshiro256 rng(30);
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t i = 0; i < 400; ++i) {
    for (std::uint32_t j = i + 1; j < 400; ++j) {
      if (rng.Bernoulli(0.05)) neighbors.push_back(j);
    }
    offsets.push_back(neighbors.size());
  }
  const bit::SlicedMatrix matrix =
      bit::SlicedMatrix::FromCsr(400, offsets, neighbors, 64);

  Controller c_auto(a1, auto_cfg);
  Controller c_min(a2, minimal);
  const ExecStats s_auto = c_auto.Run(matrix);
  const ExecStats s_min = c_min.Run(matrix);
  EXPECT_GT(s_auto.spread, 1u);
  EXPECT_EQ(s_auto.accumulated_bitcount, s_min.accumulated_bitcount);
  // Spreading can only help column retention (more usable ways).
  EXPECT_GE(s_auto.cache.hits, s_min.cache.hits);
}

// Random strictly-upper CSR over n vertices: row i draws `draws`
// targets from (i, i + span] (clipped to n), deduplicated; when
// `hubs` > 0 every row also links to each of the last `hubs` vertices
// with probability 1/2.
bit::SlicedMatrix RandomUpperMatrix(std::uint32_t n, std::uint32_t draws,
                                    std::uint32_t span, std::uint32_t hubs,
                                    std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto begin = static_cast<std::ptrdiff_t>(neighbors.size());
    for (std::uint32_t d = 0; d < draws; ++d) {
      const std::uint32_t j =
          i + 1 + static_cast<std::uint32_t>(rng.UniformBelow(span));
      if (j < n) neighbors.push_back(j);
    }
    for (std::uint32_t h = n - hubs; h < n; ++h) {
      if (h > i && rng.Bernoulli(0.5)) neighbors.push_back(h);
    }
    std::sort(neighbors.begin() + begin, neighbors.end());
    neighbors.erase(std::unique(neighbors.begin() + begin, neighbors.end()),
                    neighbors.end());
    offsets.push_back(neighbors.size());
  }
  return bit::SlicedMatrix::FromCsr(n, offsets, neighbors, 64);
}

TEST(Controller, TinyArrayForcesExchanges) {
  // 64 KiB array: 2 subarrays, 16 sets; column slices of a dense-ish
  // matrix must thrash.
  nvsim::ArrayConfig config;
  config.capacity_bytes = 64ULL << 10;
  pim::ComputationalArray array(config);
  Controller controller(array, ControllerConfig{});
  const bit::SlicedMatrix matrix = RandomUpperMatrix(4096, 40, 2048, 0, 23);
  const ExecStats stats = controller.Run(matrix);
  EXPECT_GT(stats.cache.exchanges, 0u);
  EXPECT_EQ(stats.accumulated_bitcount, matrix.AndPopcountAllEdges());
}

// Every cache-dependent ExecStats field of one RunPlan.
struct PinnedStats {
  std::uint64_t valid_pairs;
  std::uint64_t row_slice_writes;
  std::uint64_t col_slice_writes;
  std::uint64_t replica_slice_writes;
  std::uint64_t lookups;
  std::uint64_t hits;
  std::uint64_t misses;
  std::uint64_t exchanges;
  std::uint64_t inserts;
  std::uint64_t accumulated_bitcount;
  std::vector<std::uint64_t> per_subarray_ands;
  std::vector<std::uint64_t> per_subarray_writes;
};

TEST(Controller, PinnedStatsWithExchangesUnderEveryPolicy) {
  // 64 KiB array (16 sets x 340 ways): all three graphs exchange.
  // "wide" is TinyArrayForcesExchanges' thrashing graph, "local" is
  // road-like, and "hub2d" runs a 2D plan whose 8 hub columns are
  // warmed through Install before the hub lane and two tail tiles.
  // Golden values were recorded with the linear-scan cache
  // (ReferenceSliceCache above).
  const bit::SlicedMatrix wide = RandomUpperMatrix(4096, 40, 2048, 0, 23);
  const bit::SlicedMatrix local = RandomUpperMatrix(2000, 12, 300, 0, 41);
  const bit::SlicedMatrix hub2d = RandomUpperMatrix(1500, 8, 400, 8, 43);
  struct Case {
    const char* graph;
    ReplacementPolicy policy;
    PinnedStats want;
  };
  const std::vector<Case> cases = {
      {"wide", ReplacementPolicy::kLru,
       {918690, 68876, 673008, 0, 918690, 245682, 673008, 667568, 673008,
        40595, {458962, 459728}, {369974, 371910}}},
      {"wide", ReplacementPolicy::kFifo,
       {918690, 68876, 673683, 0, 918690, 245007, 673683, 668243, 673683,
        40595, {458962, 459728}, {370242, 372317}}},
      {"wide", ReplacementPolicy::kRandom,
       {918690, 68876, 676914, 0, 918690, 241776, 676914, 671474, 676914,
        40595, {458962, 459728}, {371699, 374091}}},
      {"local", ReplacementPolicy::kLru,
       {52281, 8376, 8091, 0, 52281, 44190, 8091, 2719, 8091,
        4493, {26706, 25575}, {8424, 8043}}},
      {"local", ReplacementPolicy::kFifo,
       {52281, 8376, 8091, 0, 52281, 44190, 8091, 2719, 8091,
        4493, {26706, 25575}, {8424, 8043}}},
      {"local", ReplacementPolicy::kRandom,
       {52281, 8376, 9706, 0, 52281, 42575, 9706, 4334, 9706,
        4493, {26706, 25575}, {9450, 8632}}},
      {"hub2d", ReplacementPolicy::kLru,
       {50276, 13199, 5200, 192, 50276, 45076, 5200, 597, 5200,
        25238, {32230, 18046}, {11627, 6772}}},
      {"hub2d", ReplacementPolicy::kFifo,
       {50276, 13199, 5200, 192, 50276, 45076, 5200, 597, 5200,
        25238, {32230, 18046}, {11627, 6772}}},
      {"hub2d", ReplacementPolicy::kRandom,
       {50276, 13199, 5441, 192, 50276, 44835, 5441, 838, 5441,
        25238, {32230, 18046}, {11868, 6772}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.graph) + " " + ToString(c.policy));
    const std::string graph = c.graph;
    const bit::SlicedMatrix& matrix =
        graph == "wide" ? wide : graph == "local" ? local : hub2d;
    const std::uint32_t n = matrix.num_vertices();
    BankExecPlan plan = BankExecPlan::RowRange(0, n, n);
    std::vector<std::uint8_t> is_hub(n, 0);
    if (graph == "hub2d") {
      for (std::uint32_t h = n - 8; h < n; ++h) {
        plan.hub_cols.push_back(h);
        is_hub[h] = 1;
      }
      plan.is_hub = is_hub.data();
      plan.hub_row_end = n;
      plan.tiles = {{0, n / 2, 0, n}, {n / 2, n, 0, n}};
    }
    nvsim::ArrayConfig config;
    config.capacity_bytes = 64ULL << 10;
    pim::ComputationalArray array(config);
    ControllerConfig cc;
    cc.policy = c.policy;
    Controller controller(array, cc);
    const ExecStats got = controller.RunPlan(matrix, plan);
    const PinnedStats& want = c.want;
    EXPECT_EQ(got.valid_pairs, want.valid_pairs);
    EXPECT_EQ(got.row_slice_writes, want.row_slice_writes);
    EXPECT_EQ(got.col_slice_writes, want.col_slice_writes);
    EXPECT_EQ(got.replica_slice_writes, want.replica_slice_writes);
    EXPECT_EQ(got.cache.lookups, want.lookups);
    EXPECT_EQ(got.cache.hits, want.hits);
    EXPECT_EQ(got.cache.misses, want.misses);
    EXPECT_EQ(got.cache.exchanges, want.exchanges);
    EXPECT_EQ(got.cache.inserts, want.inserts);
    EXPECT_EQ(got.accumulated_bitcount, want.accumulated_bitcount);
    EXPECT_EQ(got.accumulated_bitcount, matrix.AndPopcountAllEdges());
    EXPECT_EQ(got.per_subarray_ands, want.per_subarray_ands);
    EXPECT_EQ(got.per_subarray_writes, want.per_subarray_writes);
  }
}

TEST(Controller, CapacityModelShrinksWays) {
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray a1(config);
  pim::ComputationalArray a2(config);
  ControllerConfig with_index;
  with_index.capacity_model = CapacityModel::kWithIndexOverhead;
  ControllerConfig data_only;
  data_only.capacity_model = CapacityModel::kDataOnly;
  const Controller c1(a1, with_index);
  const Controller c2(a2, data_only);
  EXPECT_LT(c1.cache().associativity(), c2.cache().associativity());
  // |S|=64: 8B data + 4B index -> 2/3 of the data-only ways.
  EXPECT_EQ(c1.cache().associativity(),
            static_cast<std::uint32_t>((config.subarray_rows - 1) * 8.0 /
                                       12.0));
}

TEST(Controller, SliceIndexAliasingRegression) {
  // Regression: with more slice indices than sets, distinct k alias
  // onto one set (k mod num_sets); consecutive aliased groups within a
  // row must each restage their own RiSk or the AND reads a stale row
  // slice. n >> 64 * num_sets triggers the aliasing densely.
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;  // 256 sets
  pim::ComputationalArray array(config);
  Controller controller(array, ControllerConfig{});

  util::Xoshiro256 rng(31);
  const std::uint32_t n = 40000;
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t begin = neighbors.size();
    for (int d = 0; d < 6; ++d) {
      const std::uint32_t j =
          i + 1 + static_cast<std::uint32_t>(rng.UniformBelow(n - i));
      if (j < n) neighbors.push_back(j);
    }
    std::sort(neighbors.begin() + static_cast<std::ptrdiff_t>(begin),
              neighbors.end());
    neighbors.erase(
        std::unique(neighbors.begin() + static_cast<std::ptrdiff_t>(begin),
                    neighbors.end()),
        neighbors.end());
    offsets.push_back(neighbors.size());
  }
  const bit::SlicedMatrix matrix =
      bit::SlicedMatrix::FromCsr(n, offsets, neighbors, 64);
  const ExecStats stats = controller.Run(matrix);
  EXPECT_EQ(stats.accumulated_bitcount, matrix.AndPopcountAllEdges());
}

TEST(Controller, RejectsSliceWidthMismatch) {
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray array(config);  // 64-bit access
  Controller controller(array, ControllerConfig{});
  const std::vector<std::uint64_t> offsets = {0, 1, 1};
  const std::vector<std::uint32_t> neighbors = {1};
  const bit::SlicedMatrix matrix =
      bit::SlicedMatrix::FromCsr(2, offsets, neighbors, 32);
  EXPECT_THROW((void)controller.Run(matrix), std::invalid_argument);
}

}  // namespace
}  // namespace tcim::arch
