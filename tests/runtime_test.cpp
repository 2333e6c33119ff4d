// Multi-bank runtime tests: partitioner invariants, count-exactness of
// the bank pool against the single-accelerator path (the PR's core
// acceptance property), the matrix-direct serving read path, stats
// aggregation, latency percentiles, and seed derivation — plus a
// compact concurrency stress section (the heavy version lives in
// stress_test under the `stress` ctest label).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "baseline/cpu_tc.h"
#include "core/accelerator.h"
#include "core/bitwise_tc.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/orientation.h"
#include "runtime/aggregate.h"
#include "runtime/bank_pool.h"
#include "runtime/epoch_manager.h"
#include "runtime/partitioner.h"
#include "runtime/stream_session.h"
#include "stream/edge_delta.h"
#include "util/rng.h"

namespace tcim {
namespace {

using graph::Graph;
using graph::Orientation;
using runtime::BankPool;
using runtime::BankPoolConfig;
using runtime::GraphPartition;
using runtime::PartitionStrategy;

core::TcimConfig SmallConfig() {
  core::TcimConfig config;
  config.array.capacity_bytes = 1ULL << 20;  // 1 MB: forces exchanges
  return config;
}

BankPoolConfig PoolConfig(std::uint32_t banks, PartitionStrategy strategy) {
  BankPoolConfig config;
  config.num_banks = banks;
  config.partition = strategy;
  config.accelerator = SmallConfig();
  return config;
}

// --- partitioner -----------------------------------------------------------

/// The 1D plan invariants: bank b runs tile b, a whole-width row range,
/// with no hubs; the tiles cover [0, n) in order.
void ExpectOneDimensionalPlan(const GraphPartition& p, std::uint32_t n) {
  ASSERT_NE(p.plan2d, nullptr);
  const runtime::TilePlan2d& plan = *p.plan2d;
  EXPECT_EQ(plan.num_vertices, n);
  EXPECT_EQ(plan.col_stripes, 1u);
  EXPECT_EQ(plan.row_stripes, p.num_banks());
  EXPECT_TRUE(plan.hubs.empty());
  EXPECT_TRUE(plan.is_hub.empty());
  ASSERT_EQ(plan.bank_tiles.size(), p.num_banks());
  ASSERT_EQ(plan.tiles.size(), p.num_banks());
  graph::VertexId cursor = 0;
  for (std::uint32_t b = 0; b < p.num_banks(); ++b) {
    EXPECT_EQ(plan.bank_tiles[b], std::vector<std::uint32_t>{b});
    const runtime::TileInfo& tile = plan.tiles[b];
    EXPECT_EQ(tile.bank, b);
    EXPECT_EQ(tile.row_begin, cursor);
    EXPECT_LE(tile.row_begin, tile.row_end);
    EXPECT_EQ(tile.col_begin, 0u);
    EXPECT_EQ(tile.col_end, n);
    EXPECT_EQ(tile.row_begin, p.shards[b].row_begin);
    EXPECT_EQ(tile.row_end, p.shards[b].row_end);
    EXPECT_EQ(tile.arcs, p.shards[b].owned_arcs);
    cursor = tile.row_end;
  }
  EXPECT_EQ(cursor, n);
}

TEST(PartitionerTest, RangesCoverVertexSpaceDisjointly) {
  const Graph g = graph::Rmat(700, 5000, graph::RmatParams{}, 7);
  const bit::SlicedMatrix matrix =
      core::BuildSlicedMatrix(g, Orientation::kUpper, 64);
  for (const auto strategy :
       {PartitionStrategy::kContiguous, PartitionStrategy::kDegreeBalanced}) {
    for (const std::uint32_t banks : {1u, 2u, 5u, 16u}) {
      const GraphPartition p =
          runtime::PartitionMatrix(matrix, banks, strategy);
      ASSERT_EQ(p.num_banks(), banks);
      ExpectOneDimensionalPlan(p, matrix.num_vertices());
      std::uint64_t arcs = 0;
      graph::VertexId cursor = 0;
      for (const runtime::ShardInfo& shard : p.shards) {
        EXPECT_EQ(shard.row_begin, cursor);
        EXPECT_LE(shard.row_begin, shard.row_end);
        cursor = shard.row_end;
        arcs += shard.owned_arcs;
        EXPECT_LE(shard.cut_arcs, shard.owned_arcs);
        EXPECT_LE(shard.remote_cols, shard.needed_cols);
      }
      EXPECT_EQ(cursor, matrix.num_vertices());
      EXPECT_EQ(arcs, matrix.edge_count());
      EXPECT_EQ(p.stats.total_arcs, matrix.edge_count());
      EXPECT_GE(p.stats.LoadImbalance(), 1.0);
      EXPECT_GE(p.stats.ColReplicationFactor(), 1.0);
    }
  }
}

TEST(PartitionerTest, DegreeBalancedBeatsContiguousOnSkewedGraph) {
  // Upper orientation on an R-MAT graph concentrates arcs in low ids:
  // the naive equal-width split is badly imbalanced there.
  const Graph g = graph::Rmat(2000, 16000, graph::RmatParams{}, 11);
  const bit::SlicedMatrix matrix =
      core::BuildSlicedMatrix(g, Orientation::kUpper, 64);
  const GraphPartition naive =
      runtime::PartitionMatrix(matrix, 8, PartitionStrategy::kContiguous);
  const GraphPartition balanced =
      runtime::PartitionMatrix(matrix, 8, PartitionStrategy::kDegreeBalanced);
  EXPECT_LT(balanced.stats.LoadImbalance(), naive.stats.LoadImbalance());
  EXPECT_LT(balanced.stats.LoadImbalance(), 1.5);
}

TEST(PartitionerTest, MoreBanksThanVerticesYieldsEmptyShards) {
  const Graph g = graph::Complete(5);
  const bit::SlicedMatrix matrix =
      core::BuildSlicedMatrix(g, Orientation::kUpper, 64);
  const GraphPartition p =
      runtime::PartitionMatrix(matrix, 9, PartitionStrategy::kDegreeBalanced);
  ASSERT_EQ(p.num_banks(), 9u);
  ExpectOneDimensionalPlan(p, matrix.num_vertices());
  std::uint64_t arcs = 0;
  for (const auto& shard : p.shards) arcs += shard.owned_arcs;
  EXPECT_EQ(arcs, matrix.edge_count());
}

TEST(PartitionerTest, ZeroBanksThrows) {
  const bit::SlicedMatrix matrix =
      core::BuildSlicedMatrix(graph::Complete(4), Orientation::kUpper, 64);
  for (const auto strategy :
       {PartitionStrategy::kContiguous, PartitionStrategy::kDegreeBalanced,
        PartitionStrategy::k2dHubReplicated}) {
    EXPECT_THROW((void)runtime::PartitionMatrix(matrix, 0, strategy),
                 std::invalid_argument);
  }
}

// --- bank pool exactness (tentpole acceptance property) --------------------

struct FamilyCase {
  const char* name;
  Graph (*make)(std::uint64_t seed);
};

const FamilyCase kFamilies[] = {
    {"erdos", [](std::uint64_t s) { return graph::ErdosRenyi(400, 1800, s); }},
    {"rmat",
     [](std::uint64_t s) {
       return graph::Rmat(512, 4000, graph::RmatParams{}, s);
     }},
    {"holmekim",
     [](std::uint64_t s) { return graph::HolmeKim(350, 2600, 0.8, s); }},
    {"smallworld",
     [](std::uint64_t s) { return graph::WattsStrogatz(500, 4, 0.3, s); }},
    {"road",
     [](std::uint64_t s) {
       return graph::GeometricRoad(900, graph::RoadParams{}, s);
     }},
    {"community",
     [](std::uint64_t s) {
       return graph::CommunityCliques(600, 5000, graph::CommunityParams{}, s);
     }},
    {"complete", [](std::uint64_t) { return graph::Complete(60); }},
};

class BankCountExactnessTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, PartitionStrategy>> {};

TEST_P(BankCountExactnessTest, MultiBankEqualsSingleAcceleratorEverywhere) {
  const auto [banks, strategy] = GetParam();
  const core::TcimAccelerator single{SmallConfig()};
  const BankPool pool{PoolConfig(banks, strategy)};
  for (const FamilyCase& family : kFamilies) {
    const Graph g = family.make(/*seed=*/123);
    const core::TcimResult reference = single.Run(g);
    const runtime::ClusterResult cluster = pool.Count(g);
    EXPECT_EQ(cluster.triangles, reference.triangles) << family.name;
    // The shards partition the work, so the merged op counters must
    // reproduce the single run's totals exactly (cache fills differ —
    // each bank starts cold — but the algorithmic counts cannot).
    EXPECT_EQ(cluster.exec.edges_processed, reference.exec.edges_processed)
        << family.name;
    EXPECT_EQ(cluster.exec.valid_pairs, reference.exec.valid_pairs)
        << family.name;
    EXPECT_EQ(cluster.exec.accumulated_bitcount,
              reference.exec.accumulated_bitcount)
        << family.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BanksByStrategy, BankCountExactnessTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 7u),
                       ::testing::Values(PartitionStrategy::kContiguous,
                                         PartitionStrategy::kDegreeBalanced)));

TEST(BankPoolTest, OneBankPlanReproducesTheWholeMatrixRun) {
  // A 1-bank pool runs its whole plan on one accelerator, so EVERY
  // ExecStats field must match the single-accelerator run, not just
  // the algorithmic totals: the one-tile 1D plan is the old row loop,
  // and a hub-free 2D plan's tiles are whole-width row stripes run in
  // row order.
  const core::TcimAccelerator single{SmallConfig()};
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kContiguous, PartitionStrategy::kDegreeBalanced,
        PartitionStrategy::k2dHubReplicated}) {
    BankPoolConfig config = PoolConfig(1, strategy);
    config.partition2d.hub_k = 0;
    const BankPool pool{config};
    for (const FamilyCase& family : kFamilies) {
      SCOPED_TRACE(::testing::Message() << family.name << " "
                                        << runtime::ToString(strategy));
      const Graph g = family.make(/*seed=*/123);
      const arch::ExecStats want = single.Run(g).exec;
      const runtime::ClusterResult cluster = pool.Count(g);
      ASSERT_EQ(cluster.banks.size(), 1u);
      const arch::ExecStats& got = cluster.banks[0].exec;
      EXPECT_EQ(got.edges_processed, want.edges_processed);
      EXPECT_EQ(got.valid_pairs, want.valid_pairs);
      EXPECT_EQ(got.row_slice_writes, want.row_slice_writes);
      EXPECT_EQ(got.col_slice_writes, want.col_slice_writes);
      EXPECT_EQ(got.replica_slice_writes, want.replica_slice_writes);
      EXPECT_EQ(got.spread, want.spread);
      EXPECT_EQ(got.bitcount_words, want.bitcount_words);
      EXPECT_EQ(got.cache.lookups, want.cache.lookups);
      EXPECT_EQ(got.cache.hits, want.cache.hits);
      EXPECT_EQ(got.cache.misses, want.cache.misses);
      EXPECT_EQ(got.cache.exchanges, want.cache.exchanges);
      EXPECT_EQ(got.cache.inserts, want.cache.inserts);
      EXPECT_EQ(got.accumulated_bitcount, want.accumulated_bitcount);
      EXPECT_EQ(got.per_subarray_ands, want.per_subarray_ands);
      EXPECT_EQ(got.per_subarray_writes, want.per_subarray_writes);
    }
  }
}

TEST(BankPoolTest, FullSymmetricOrientationAggregatesExactly) {
  // Under kFullSymmetric a *shard's* bitcount need not divide by 6 —
  // only the cluster sum does. This is the regression test for
  // aggregating raw bitcounts instead of per-bank triangle counts.
  core::TcimConfig config = SmallConfig();
  config.orientation = Orientation::kFullSymmetric;
  BankPoolConfig pool_config;
  pool_config.num_banks = 3;
  pool_config.accelerator = config;
  const BankPool pool{pool_config};
  const Graph g = graph::HolmeKim(300, 2200, 0.7, 5);
  EXPECT_EQ(pool.Count(g).triangles, core::CountTrianglesDense(g));
}

TEST(BankPoolTest, PaperDatasetStandInsMatchSingleAccelerator) {
  // The ISSUE's registered acceptance check: >= 2 banks reproduce the
  // single-accelerator count on every PaperDataset synthetic stand-in.
  const core::TcimAccelerator single{SmallConfig()};
  const BankPool pool{
      PoolConfig(4, PartitionStrategy::kDegreeBalanced)};
  for (const graph::PaperRef& ref : graph::AllPaperRefs()) {
    const graph::DatasetInstance inst =
        graph::SynthesizePaperGraph(ref.id, /*scale=*/0.02, /*seed=*/42);
    const runtime::ClusterResult cluster = pool.Count(inst.graph);
    EXPECT_EQ(cluster.triangles, single.Run(inst.graph).triangles)
        << ref.name;
    EXPECT_GT(cluster.Speedup(), 1.0) << ref.name;
  }
}

TEST(BankPoolTest, MoreBanksThanVerticesStillExact) {
  const Graph g = graph::Complete(6);  // 20 triangles, 6 vertices
  const BankPool pool{PoolConfig(11, PartitionStrategy::kContiguous)};
  EXPECT_EQ(pool.Count(g).triangles, 20u);
}

/// The host-kernel count of `g` through the pool's one host entry
/// point: slice `g` under `orientation` and count the matrix as a
/// freshly published epoch would be counted.
std::uint64_t HostCountOf(const BankPool& pool, const Graph& g,
                          Orientation orientation) {
  runtime::EpochSnapshot epoch;
  epoch.orientation = orientation;
  epoch.matrix = std::make_shared<const bit::SlicedMatrix>(
      core::BuildSlicedMatrix(g, orientation,
                              pool.config().accelerator.slice_bits));
  return pool.HostCountEpoch(epoch);
}

TEST(BankPoolTest, HostCountMatchesSimulatedCountEverywhere) {
  // HostCountEpoch runs the host Eq. (5) kernel per shard instead of
  // the functional array; the two pipelines must agree exactly on
  // every family x bank count x strategy combination.
  for (const FamilyCase& family : kFamilies) {
    const Graph g = family.make(21);
    const std::uint64_t expected =
        core::TcimAccelerator{SmallConfig()}.Run(g).triangles;
    for (const std::uint32_t banks : {1u, 3u}) {
      for (const PartitionStrategy strategy :
           {PartitionStrategy::kContiguous,
            PartitionStrategy::kDegreeBalanced}) {
        const BankPool pool{PoolConfig(banks, strategy)};
        EXPECT_EQ(HostCountOf(pool, g, Orientation::kUpper), expected)
            << family.name << " banks=" << banks;
        EXPECT_EQ(pool.Count(g).triangles, expected)
            << family.name << " banks=" << banks;
      }
    }
  }
}

TEST(BankPoolTest, HostCountExactUnderFullSymmetricOrientation) {
  // Raw shard bitcounts must be summed before the /6 divide: a single
  // kFullSymmetric shard's bitcount need not be divisible by 6.
  core::TcimConfig config = SmallConfig();
  config.orientation = Orientation::kFullSymmetric;
  BankPoolConfig pool_config;
  pool_config.num_banks = 3;
  pool_config.accelerator = config;
  const BankPool pool{pool_config};
  const Graph g = graph::HolmeKim(300, 2200, 0.7, 5);
  EXPECT_EQ(HostCountOf(pool, g, Orientation::kFullSymmetric),
            core::CountTrianglesDense(g));
}

TEST(BankPoolTest, HostCountExactOnEveryFamilyAndOrientation) {
  // The serving read path counts an already-sliced matrix directly; it
  // must agree with the CPU reference on every family and orientation.
  const BankPool pool{PoolConfig(3, PartitionStrategy::kDegreeBalanced)};
  for (const FamilyCase& family : kFamilies) {
    const Graph g = family.make(33);
    const std::uint64_t expected = baseline::CountTrianglesReference(g);
    for (const Orientation orientation :
         {Orientation::kUpper, Orientation::kDegree,
          Orientation::kFullSymmetric}) {
      EXPECT_EQ(HostCountOf(pool, g, orientation), expected)
          << family.name << " " << graph::ToString(orientation);
    }
  }
}

TEST(BankPoolTest, HostCountWithMoreBanksThanVerticesStillExact) {
  // Most shards own no rows; the empty shards must add nothing to the
  // raw sum that is divided by the orientation multiplier.
  const Graph g = graph::Complete(6);  // 20 triangles, 6 vertices
  const BankPool pool{PoolConfig(11, PartitionStrategy::kContiguous)};
  for (const Orientation orientation :
       {Orientation::kUpper, Orientation::kDegree,
        Orientation::kFullSymmetric}) {
    EXPECT_EQ(HostCountOf(pool, g, orientation), 20u)
        << graph::ToString(orientation);
  }
  EXPECT_EQ(HostCountOf(pool, graph::Complete(1), Orientation::kUpper), 0u);
}

TEST(BankPoolTest, FewerThreadsThanBanksStillExact) {
  BankPoolConfig config = PoolConfig(6, PartitionStrategy::kDegreeBalanced);
  config.num_threads = 2;
  const BankPool pool{config};
  const Graph g = graph::HolmeKim(400, 3000, 0.6, 9);
  EXPECT_EQ(pool.Count(g).triangles,
            core::TcimAccelerator{SmallConfig()}.Run(g).triangles);
}

TEST(BankPoolTest, DerivedSeedsAreDistinctAcrossBanks) {
  std::set<std::uint64_t> seeds;
  for (std::uint32_t b = 0; b < 64; ++b) {
    seeds.insert(runtime::DeriveBankSeed(1, b));
  }
  EXPECT_EQ(seeds.size(), 64u);
  EXPECT_EQ(runtime::DeriveBankSeed(1, 0), 1u);  // bank 0 keeps the base
  EXPECT_NE(runtime::DeriveBankSeed(1, 3), runtime::DeriveBankSeed(2, 3));
}

TEST(BankPoolTest, BanksCarryDerivedControllerSeeds) {
  BankPoolConfig config = PoolConfig(4, PartitionStrategy::kContiguous);
  config.accelerator.controller.rng_seed = 77;
  const BankPool pool{config};
  std::set<std::uint64_t> seeds;
  for (std::uint32_t b = 0; b < pool.num_banks(); ++b) {
    seeds.insert(pool.bank(b).config().controller.rng_seed);
  }
  EXPECT_EQ(seeds.size(), 4u);
  EXPECT_EQ(pool.bank(0).config().controller.rng_seed, 77u);
}

TEST(BankPoolTest, RandomReplacementStaysExactWithDerivedSeeds) {
  BankPoolConfig config = PoolConfig(3, PartitionStrategy::kDegreeBalanced);
  config.accelerator.controller.policy = arch::ReplacementPolicy::kRandom;
  const BankPool pool{config};
  const Graph g = graph::Rmat(600, 5000, graph::RmatParams{}, 3);
  core::TcimConfig single_config = SmallConfig();
  single_config.controller.policy = arch::ReplacementPolicy::kRandom;
  EXPECT_EQ(pool.Count(g).triangles,
            core::TcimAccelerator{single_config}.Run(g).triangles);
}

// --- controller range plumbing ---------------------------------------------

TEST(RunRowsTest, DisjointRangesPartitionTheBitcount) {
  const Graph g = graph::HolmeKim(250, 1800, 0.8, 21);
  const core::TcimAccelerator accel{SmallConfig()};
  const bit::SlicedMatrix matrix =
      core::BuildSlicedMatrix(g, Orientation::kUpper, 64);
  const std::uint32_t n = matrix.num_vertices();
  const core::TcimResult full =
      accel.RunOnMatrix(matrix, Orientation::kUpper);
  const core::TcimResult lo =
      accel.RunOnMatrixRows(matrix, Orientation::kUpper, 0, n / 3);
  const core::TcimResult hi =
      accel.RunOnMatrixRows(matrix, Orientation::kUpper, n / 3, n);
  EXPECT_EQ(lo.exec.accumulated_bitcount + hi.exec.accumulated_bitcount,
            full.exec.accumulated_bitcount);
  EXPECT_EQ(lo.exec.valid_pairs + hi.exec.valid_pairs,
            full.exec.valid_pairs);
}

TEST(RunRowsTest, InvalidRangeThrows) {
  const Graph g = graph::Complete(10);
  const core::TcimAccelerator accel{SmallConfig()};
  const bit::SlicedMatrix matrix =
      core::BuildSlicedMatrix(g, Orientation::kUpper, 64);
  EXPECT_THROW(
      (void)accel.RunOnMatrixRows(matrix, Orientation::kUpper, 5, 3),
      std::out_of_range);
  EXPECT_THROW(
      (void)accel.RunOnMatrixRows(matrix, Orientation::kUpper, 0, 11),
      std::out_of_range);
}

// --- aggregation -----------------------------------------------------------

TEST(AggregateTest, MergeExecStatsSumsCounters) {
  arch::ExecStats a;
  a.edges_processed = 10;
  a.valid_pairs = 4;
  a.row_slice_writes = 3;
  a.col_slice_writes = 2;
  a.accumulated_bitcount = 7;
  a.cache.lookups = 2;
  a.cache.hits = 1;
  a.per_subarray_ands = {1, 2};
  arch::ExecStats b;
  b.edges_processed = 5;
  b.valid_pairs = 6;
  b.accumulated_bitcount = 8;
  b.cache.lookups = 3;
  b.per_subarray_ands = {4, 0, 9};
  const std::vector<arch::ExecStats> shards = {a, b};
  const arch::ExecStats merged = runtime::MergeExecStats(shards);
  EXPECT_EQ(merged.edges_processed, 15u);
  EXPECT_EQ(merged.valid_pairs, 10u);
  EXPECT_EQ(merged.row_slice_writes, 3u);
  EXPECT_EQ(merged.col_slice_writes, 2u);
  EXPECT_EQ(merged.accumulated_bitcount, 15u);
  EXPECT_EQ(merged.cache.lookups, 5u);
  EXPECT_EQ(merged.cache.hits, 1u);
  ASSERT_EQ(merged.per_subarray_ands.size(), 3u);
  EXPECT_EQ(merged.per_subarray_ands[0], 5u);
  EXPECT_EQ(merged.per_subarray_ands[1], 2u);
  EXPECT_EQ(merged.per_subarray_ands[2], 9u);
}

TEST(AggregateTest, LatencyViewsAreSumAndMax) {
  GraphPartition partition;
  partition.shards.resize(2);
  std::vector<core::TcimResult> banks(2);
  banks[0].perf.serial_seconds = 3.0;
  banks[0].perf.parallel_seconds = 1.0;
  banks[0].perf.energy_joules = 0.5;
  banks[1].perf.serial_seconds = 5.0;
  banks[1].perf.parallel_seconds = 2.0;
  banks[1].perf.energy_joules = 0.25;
  core::PerfModelParams params;
  params.host_platform_power = 2.0;
  const runtime::ClusterResult cluster = runtime::AggregateClusterResult(
      std::move(partition), Orientation::kUpper, std::move(banks), {},
      params);
  EXPECT_DOUBLE_EQ(cluster.serial_sum_seconds, 8.0);
  EXPECT_DOUBLE_EQ(cluster.critical_path_seconds, 5.0);
  EXPECT_DOUBLE_EQ(cluster.parallel_critical_path_seconds, 2.0);
  EXPECT_DOUBLE_EQ(cluster.energy_joules, 0.75);
  EXPECT_DOUBLE_EQ(cluster.platform_joules, 0.75 + 2.0 * 5.0);
  EXPECT_DOUBLE_EQ(cluster.Speedup(), 8.0 / 5.0);
}

TEST(AggregateTest, LatencyRecorderNearestRankPercentiles) {
  runtime::LatencyRecorder recorder;
  EXPECT_EQ(recorder.count(), 0u);
  EXPECT_EQ(recorder.Percentile(99.0), 0.0);
  // Record 1ms..10ms out of order. count/mean/max stay exact (the
  // backing obs::Histogram keeps exact sum/min/max atomics); the
  // nearest-rank percentiles come from the log2-bucketed histogram, so
  // they match the exact sample to the bucket's relative width (<= 1%
  // at 64 sub-buckets per octave — parity pinned in tests/obs_test).
  for (const double ms : {4., 1., 9., 2., 7., 5., 10., 3., 8., 6.}) {
    recorder.Record(ms / 1e3);
  }
  EXPECT_EQ(recorder.count(), 10u);
  EXPECT_DOUBLE_EQ(recorder.mean(), 5.5e-3);
  EXPECT_DOUBLE_EQ(recorder.max(), 10e-3);
  EXPECT_NEAR(recorder.Percentile(50.0), 5e-3, 5e-3 * 0.01);
  EXPECT_NEAR(recorder.Percentile(99.0), 10e-3, 10e-3 * 0.01);
  EXPECT_NEAR(recorder.Percentile(0.0), 1e-3, 1e-3 * 0.01);
  EXPECT_NEAR(recorder.Percentile(100.0), 10e-3, 10e-3 * 0.01);
  EXPECT_NE(recorder.Summary().find("n=10"), std::string::npos);
  EXPECT_NE(recorder.Summary().find("p99="), std::string::npos);
}

// --- concurrency stress (compact; heavy runs live in stress_test) ----------

TEST(RuntimeStress, ReadersCountConsistentEpochsWhileWriterStreams) {
  runtime::StreamSession session(graph::ErdosRenyi(150, 600, 13));
  constexpr int kReaders = 2;
  constexpr int kBatches = 12;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      do {
        const runtime::EpochManager::Pin pin = session.PinEpoch();
        const std::uint64_t counted =
            pin->matrix->AndPopcountAllEdges() /
            graph::CountMultiplier(pin->orientation);
        if (counted != pin->triangles) failures.fetch_add(1);
      } while (!done.load(std::memory_order_acquire));
    });
  }
  util::Xoshiro256 rng(3);
  for (int b = 0; b < kBatches; ++b) {
    stream::EdgeDelta delta;
    for (int k = 0; k < 6; ++k) {
      const auto u = static_cast<graph::VertexId>(rng() % 155);
      const auto v = static_cast<graph::VertexId>(rng() % 155);
      if (rng() % 3 == 0) {
        delta.Erase(u, v);
      } else {
        delta.Insert(u, v);
      }
    }
    (void)session.Apply(delta);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(session.epochs().live_epochs(), 1u);
  EXPECT_EQ(baseline::CountTrianglesReference(session.Snapshot()),
            session.triangles());
}

}  // namespace
}  // namespace tcim
