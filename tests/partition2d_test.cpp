// k2dHubReplicated partition tests: the exactness matrix (every
// generator family x bank count x orientation x slice width, plus the
// PaperDataset stand-ins), the arc-routing dedup property under
// adversarial hand-built tile plans (fuzz), replica equivalence, the
// auto-hub replica budget, and the strategy-aware stat regression that
// pins the 1D numbers against a CSR oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "baseline/cpu_tc.h"
#include "core/accelerator.h"
#include "core/bitwise_tc.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/orientation.h"
#include "runtime/bank_pool.h"
#include "runtime/epoch_manager.h"
#include "runtime/metrics.h"
#include "runtime/partitioner.h"
#include "util/rng.h"

namespace tcim {
namespace {

using graph::Graph;
using graph::Orientation;
using runtime::BankPool;
using runtime::BankPoolConfig;
using runtime::GraphPartition;
using runtime::Partition2dOptions;
using runtime::PartitionStrategy;
using runtime::TilePlan2d;

core::TcimConfig SmallConfig(std::uint32_t slice_bits = 64) {
  core::TcimConfig config;
  config.array.capacity_bytes = 1ULL << 20;  // 1 MB: forces exchanges
  config.slice_bits = slice_bits;
  return config;
}

BankPoolConfig Pool2dConfig(std::uint32_t banks,
                            std::uint32_t slice_bits = 64) {
  BankPoolConfig config;
  config.num_banks = banks;
  config.partition = PartitionStrategy::k2dHubReplicated;
  config.accelerator = SmallConfig(slice_bits);
  return config;
}

/// Counts `matrix` through the pool's one host entry point, as a
/// freshly published epoch (no cached plan) would be counted.
std::uint64_t CountAsEpoch(const BankPool& pool, bit::SlicedMatrix matrix,
                           Orientation orientation) {
  runtime::EpochSnapshot epoch;
  epoch.orientation = orientation;
  epoch.matrix = std::make_shared<const bit::SlicedMatrix>(std::move(matrix));
  return pool.HostCountEpoch(epoch);
}

/// Slices `g` under the pool's configured orientation and slice width,
/// then counts it with CountAsEpoch.
std::uint64_t HostCountOf(const BankPool& pool, const Graph& g) {
  const core::TcimConfig& config = pool.config().accelerator;
  return CountAsEpoch(
      pool, core::BuildSlicedMatrix(g, config.orientation, config.slice_bits),
      config.orientation);
}

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

constexpr Orientation kOrientations[] = {
    Orientation::kUpper, Orientation::kDegree, Orientation::kFullSymmetric};

/// The k2dHubReplicated plan of `matrix`.
GraphPartition Plan2d(const bit::SlicedMatrix& matrix, std::uint32_t banks,
                      const Partition2dOptions& options = {}) {
  return runtime::PartitionMatrix(matrix, banks,
                                  PartitionStrategy::k2dHubReplicated, options);
}

/// Sums every bank's raw shard bitcount under `plan`.
std::uint64_t SumShards(const bit::SlicedMatrix& matrix, const TilePlan2d& plan,
                        const bit::SlicedStore* replica = nullptr) {
  std::uint64_t raw = 0;
  for (std::uint32_t b = 0; b < plan.num_banks; ++b) {
    raw += runtime::CountBankShard2d(matrix, plan, b, replica);
  }
  return raw;
}

// --- exactness matrix (the headline satellite) -----------------------------

class Partition2dExactnessTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, Orientation>> {
};

TEST_P(Partition2dExactnessTest, EveryCellMatchesBaselineRawAndDivided) {
  const auto [banks, orientation] = GetParam();
  for (const FamilyCase& family : kFamilies) {
    const Graph g = family.make(/*seed=*/123);
    const std::uint64_t expected = baseline::CountTrianglesReference(g);
    for (const std::uint32_t slice_bits : {64u, 512u}) {
      SCOPED_TRACE(::testing::Message() << family.name << " banks=" << banks
                                        << " |S|=" << slice_bits);
      const bit::SlicedMatrix matrix =
          core::BuildSlicedMatrix(g, orientation, slice_bits);
      const GraphPartition p = Plan2d(matrix, banks);
      ASSERT_NE(p.plan2d, nullptr);
      // Per-tile/lane raw bitcounts must sum to the full-matrix raw
      // bitcount BEFORE the orientation divide — the kFullSymmetric
      // trap (a single shard's bitcount need not divide by 6).
      const std::uint64_t raw_full = matrix.AndPopcountRect(
          0, matrix.num_vertices(), 0, matrix.num_vertices());
      EXPECT_EQ(SumShards(matrix, *p.plan2d), raw_full);
      EXPECT_EQ(raw_full / graph::CountMultiplier(orientation), expected);
      // And the pool's serving read path agrees end to end.
      const BankPool pool{Pool2dConfig(banks, slice_bits)};
      EXPECT_EQ(CountAsEpoch(pool, matrix, orientation), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BanksByOrientation, Partition2dExactnessTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 7u),
                       ::testing::ValuesIn(kOrientations)));

TEST(Partition2dTest, SimulatedPipelineMatchesSingleAccelerator) {
  // The functional-array path (Controller::RunPlan with replica
  // warm-up) must reproduce the single-accelerator count and the
  // algorithmic op totals on every family.
  const core::TcimAccelerator single{SmallConfig()};
  for (const std::uint32_t banks : {2u, 7u}) {
    const BankPool pool{Pool2dConfig(banks)};
    for (const FamilyCase& family : kFamilies) {
      const Graph g = family.make(/*seed=*/123);
      const core::TcimResult reference = single.Run(g);
      const runtime::ClusterResult cluster = pool.Count(g);
      EXPECT_EQ(cluster.triangles, reference.triangles)
          << family.name << " banks=" << banks;
      EXPECT_EQ(cluster.exec.edges_processed, reference.exec.edges_processed)
          << family.name << " banks=" << banks;
      EXPECT_EQ(cluster.exec.valid_pairs, reference.exec.valid_pairs)
          << family.name << " banks=" << banks;
      EXPECT_EQ(cluster.exec.accumulated_bitcount,
                reference.exec.accumulated_bitcount)
          << family.name << " banks=" << banks;
    }
  }
}

TEST(Partition2dTest, HostCountMatchesSimulatedUnderFullSymmetric) {
  BankPoolConfig config = Pool2dConfig(3);
  config.accelerator.orientation = Orientation::kFullSymmetric;
  const BankPool pool{config};
  const Graph g = graph::HolmeKim(300, 2200, 0.7, 5);
  const std::uint64_t expected = core::CountTrianglesDense(g);
  EXPECT_EQ(HostCountOf(pool, g), expected);
  EXPECT_EQ(pool.Count(g).triangles, expected);
}

TEST(Partition2dTest, PaperDatasetStandInsMatchBaseline) {
  const BankPool pool{Pool2dConfig(8)};
  for (const graph::PaperRef& ref : graph::AllPaperRefs()) {
    const graph::DatasetInstance inst =
        graph::SynthesizePaperGraph(ref.id, /*scale=*/0.02, /*seed=*/42);
    EXPECT_EQ(HostCountOf(pool, inst.graph),
              baseline::CountTrianglesReference(inst.graph))
        << ref.name;
  }
}

// --- explicit hub-k edge cases ---------------------------------------------

TEST(Partition2dTest, ExplicitHubCountsIncludingZeroOneAndAllStayExact) {
  const Graph g = graph::Rmat(512, 4000, graph::RmatParams{}, 9);
  const bit::SlicedMatrix matrix =
      core::BuildSlicedMatrix(g, Orientation::kUpper, 64);
  const std::uint64_t raw_full = matrix.AndPopcountRect(
      0, matrix.num_vertices(), 0, matrix.num_vertices());
  const std::uint32_t n = matrix.num_vertices();
  for (const std::uint32_t hub_k : {0u, 1u, n, n + 100u}) {
    for (const std::uint32_t banks : {1u, 3u, 8u}) {
      SCOPED_TRACE(::testing::Message() << "hub_k=" << hub_k
                                        << " banks=" << banks);
      Partition2dOptions options;
      options.hub_k = hub_k;
      const GraphPartition p =
          Plan2d(matrix, banks, options);
      ASSERT_NE(p.plan2d, nullptr);
      EXPECT_EQ(p.plan2d->hubs.size(), std::min(hub_k, n));
      EXPECT_EQ(SumShards(matrix, *p.plan2d), raw_full);
    }
  }
}

// --- replica path ----------------------------------------------------------

TEST(Partition2dTest, ReplicaStoreGivesIdenticalShardCounts) {
  const Graph g = graph::HolmeKim(350, 2600, 0.8, 123);
  const bit::SlicedMatrix matrix =
      core::BuildSlicedMatrix(g, Orientation::kDegree, 64);
  Partition2dOptions options;
  options.hub_k = 24;
  const GraphPartition p = Plan2d(matrix, 4, options);
  ASSERT_NE(p.plan2d, nullptr);
  ASSERT_FALSE(p.plan2d->hubs.empty());
  const bit::SlicedStore replica =
      matrix.cols().ExtractVectors(p.plan2d->hubs);
  for (std::uint32_t b = 0; b < 4; ++b) {
    EXPECT_EQ(runtime::CountBankShard2d(matrix, *p.plan2d, b, &replica),
              runtime::CountBankShard2d(matrix, *p.plan2d, b, nullptr))
        << "bank " << b;
  }
}

TEST(Partition2dTest, AutoHubSelectionRespectsReplicaBudget) {
  // Default options must keep the replica overhead within the 25%
  // budget on a skewed graph at every bank count (the acceptance
  // bound), while the budget stays 0 for a single bank.
  const Graph g = graph::Rmat(2000, 16000, graph::RmatParams{}, 11);
  const bit::SlicedMatrix matrix =
      core::BuildSlicedMatrix(g, Orientation::kUpper, 64);
  for (const std::uint32_t banks : {1u, 2u, 8u, 16u}) {
    const GraphPartition p =
        Plan2d(matrix, banks);
    EXPECT_LE(p.stats.ReplicaOverhead(), 0.25 + 1e-9) << "banks=" << banks;
    if (banks == 1) EXPECT_EQ(p.stats.replica_bytes, 0u);
    EXPECT_GE(p.stats.tile_imbalance, 1.0);
  }
}

// --- plan structure invariants ---------------------------------------------

TEST(Partition2dTest, PlanInvariantsHold) {
  const Graph g = graph::Rmat(700, 5000, graph::RmatParams{}, 7);
  const bit::SlicedMatrix matrix =
      core::BuildSlicedMatrix(g, Orientation::kUpper, 64);
  for (const std::uint32_t banks : {1u, 2u, 5u, 16u}) {
    const GraphPartition p =
        Plan2d(matrix, banks);
    ASSERT_NE(p.plan2d, nullptr);
    const TilePlan2d& plan = *p.plan2d;
    const std::uint32_t n = matrix.num_vertices();
    // Stripe bounds cover [0, n] monotonically.
    ASSERT_EQ(plan.row_bounds.size(), plan.row_stripes + 1u);
    ASSERT_EQ(plan.col_bounds.size(), plan.col_stripes + 1u);
    EXPECT_EQ(plan.row_bounds.front(), 0u);
    EXPECT_EQ(plan.row_bounds.back(), n);
    EXPECT_EQ(plan.col_bounds.front(), 0u);
    EXPECT_EQ(plan.col_bounds.back(), n);
    EXPECT_TRUE(std::is_sorted(plan.row_bounds.begin(), plan.row_bounds.end()));
    EXPECT_TRUE(std::is_sorted(plan.col_bounds.begin(), plan.col_bounds.end()));
    ASSERT_EQ(plan.hub_row_bounds.size(), banks + 1u);
    EXPECT_TRUE(std::is_sorted(plan.hub_row_bounds.begin(),
                               plan.hub_row_bounds.end()));
    // Hubs sorted ascending (the ExtractVectors keep-list contract).
    EXPECT_TRUE(std::is_sorted(plan.hubs.begin(), plan.hubs.end()));
    // Every tile appears in exactly one bank's list, and each bank's
    // tiles share one column stripe (stripe-major placement).
    std::set<std::uint32_t> seen;
    for (std::uint32_t b = 0; b < banks; ++b) {
      std::set<std::uint32_t> stripes;
      for (const std::uint32_t t : plan.bank_tiles[b]) {
        EXPECT_TRUE(seen.insert(t).second) << "tile " << t << " double-owned";
        stripes.insert(plan.tiles[t].col_stripe);
      }
      EXPECT_LE(stripes.size(), 1u) << "bank " << b << " spans col stripes";
    }
    EXPECT_EQ(seen.size(), plan.tiles.size());
    // Shard invariants shared with the 1D strategies.
    for (const runtime::ShardInfo& shard : p.shards) {
      EXPECT_LE(shard.cut_arcs, shard.owned_arcs);
      EXPECT_LE(shard.remote_cols, shard.needed_cols);
    }
  }
}

TEST(Partition2dTest, RecordsReplicaMetrics) {
  const Graph g = graph::Rmat(512, 4000, graph::RmatParams{}, 9);
  const bit::SlicedMatrix matrix =
      core::BuildSlicedMatrix(g, Orientation::kUpper, 64);
  const BankPool pool{Pool2dConfig(4)};
  (void)CountAsEpoch(pool, matrix, Orientation::kUpper);
  const GraphPartition p =
      Plan2d(matrix, 4);
  runtime::BankPoolMetrics& metrics = runtime::BankPoolMetrics::Get();
  EXPECT_EQ(metrics.replica_bytes.Value(),
            static_cast<double>(p.stats.replica_bytes));
  EXPECT_EQ(metrics.tile_imbalance.Value(), p.stats.tile_imbalance);
}

TEST(Partition2dTest, ZeroBanksAndShapeMismatchThrow) {
  const Graph g = graph::Complete(8);
  const bit::SlicedMatrix matrix =
      core::BuildSlicedMatrix(g, Orientation::kUpper, 64);
  EXPECT_THROW(Plan2d(matrix, 0),
               std::invalid_argument);
  const GraphPartition p =
      Plan2d(matrix, 2);
  ASSERT_NE(p.plan2d, nullptr);
  EXPECT_THROW((void)runtime::CountBankShard2d(matrix, *p.plan2d, 2),
               std::invalid_argument);
  const bit::SlicedMatrix other =
      core::BuildSlicedMatrix(graph::Complete(9), Orientation::kUpper, 64);
  EXPECT_THROW((void)runtime::CountBankShard2d(other, *p.plan2d, 0),
               std::invalid_argument);
}

// --- adversarial fuzz: hand-built tile plans never double-count ------------

/// Builds a random but *valid* TilePlan2d over n vertices: random
/// stripe bounds (empty stripes allowed), a random hub set, random
/// hub-lane bounds, random tile->bank assignment. Any such plan must
/// route every arc exactly once — the dedup property under test.
TilePlan2d RandomPlan(util::Xoshiro256& rng, std::uint32_t n,
                      std::uint32_t num_banks) {
  TilePlan2d plan;
  plan.num_banks = num_banks;
  plan.num_vertices = n;
  plan.row_stripes = 1 + static_cast<std::uint32_t>(rng.UniformBelow(5));
  plan.col_stripes = 1 + static_cast<std::uint32_t>(rng.UniformBelow(5));

  const auto random_bounds = [&](std::uint32_t parts) {
    std::vector<graph::VertexId> bounds;
    bounds.push_back(0);
    for (std::uint32_t p = 1; p < parts; ++p) {
      bounds.push_back(static_cast<graph::VertexId>(rng.UniformBelow(n + 1)));
    }
    bounds.push_back(n);
    std::sort(bounds.begin(), bounds.end());
    return bounds;
  };
  plan.row_bounds = random_bounds(plan.row_stripes);
  plan.col_bounds = random_bounds(plan.col_stripes);
  plan.hub_row_bounds = random_bounds(num_banks);

  // Hub set: 0, 1, all, or a random subset.
  plan.is_hub.assign(n, 0);
  const std::uint64_t mode = rng.UniformBelow(4);
  if (mode == 1 && n > 0) {
    plan.is_hub[rng.UniformBelow(n)] = 1;
  } else if (mode == 2) {
    std::fill(plan.is_hub.begin(), plan.is_hub.end(), std::uint8_t{1});
  } else if (mode == 3) {
    for (std::uint32_t v = 0; v < n; ++v) {
      plan.is_hub[v] = rng.UniformBelow(4) == 0 ? 1 : 0;
    }
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    if (plan.is_hub[v] != 0) plan.hubs.push_back(v);
  }

  plan.bank_tiles.resize(num_banks);
  for (std::uint32_t rs = 0; rs < plan.row_stripes; ++rs) {
    for (std::uint32_t cs = 0; cs < plan.col_stripes; ++cs) {
      runtime::TileInfo tile;
      tile.row_stripe = rs;
      tile.col_stripe = cs;
      tile.row_begin = plan.row_bounds[rs];
      tile.row_end = plan.row_bounds[rs + 1];
      tile.col_begin = plan.col_bounds[cs];
      tile.col_end = plan.col_bounds[cs + 1];
      tile.bank = static_cast<std::uint32_t>(rng.UniformBelow(num_banks));
      const auto t = static_cast<std::uint32_t>(plan.tiles.size());
      plan.tiles.push_back(tile);
      plan.bank_tiles[tile.bank].push_back(t);
    }
  }
  return plan;
}

TEST(Partition2dFuzzTest, RandomizedTilePlansNeverDoubleCount) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    util::Xoshiro256 rng(seed);
    const Graph g = graph::Rmat(
        200 + static_cast<std::uint32_t>(rng.UniformBelow(200)),
        1000 + static_cast<std::uint32_t>(rng.UniformBelow(2000)),
        graph::RmatParams{}, seed);
    const Orientation orientation =
        kOrientations[rng.UniformBelow(3)];
    const bit::SlicedMatrix matrix =
        core::BuildSlicedMatrix(g, orientation, 64);
    const std::uint32_t n = matrix.num_vertices();
    const std::uint64_t raw_full = matrix.AndPopcountRect(0, n, 0, n);
    const auto banks =
        static_cast<std::uint32_t>(1 + rng.UniformBelow(9));
    const TilePlan2d plan = RandomPlan(rng, n, banks);
    // Without a replica, and with one (COW extract of the hub cols).
    EXPECT_EQ(SumShards(matrix, plan), raw_full);
    if (!plan.hubs.empty()) {
      const bit::SlicedStore replica =
          matrix.cols().ExtractVectors(plan.hubs);
      EXPECT_EQ(SumShards(matrix, plan, &replica), raw_full);
    }
  }
}

// --- strategy-aware stats: the 1D regression --------------------------------

TEST(Partition1dStatsTest, DegreeBalancedStatsUnchangedByStrategyAwareness) {
  // Recompute the 1D communication stats independently from the CSR
  // and pin the matrix planner's arc walk to them — the strategy-aware
  // `total_needed_cols` semantics must not move any 1D number.
  const Graph g = graph::Rmat(700, 5000, graph::RmatParams{}, 7);
  const graph::OrientedCsr csr = graph::Orient(g, Orientation::kUpper);
  const bit::SlicedMatrix matrix =
      core::BuildSlicedMatrix(g, Orientation::kUpper, 64);
  for (const auto strategy :
       {PartitionStrategy::kContiguous, PartitionStrategy::kDegreeBalanced}) {
    const GraphPartition p = runtime::PartitionMatrix(matrix, 6, strategy);
    std::uint64_t total_needed = 0;
    std::uint64_t total_cut = 0;
    std::set<std::uint32_t> distinct;
    for (const runtime::ShardInfo& shard : p.shards) {
      std::set<std::uint32_t> needed;
      std::uint64_t cut = 0;
      std::uint64_t remote = 0;
      for (graph::VertexId i = shard.row_begin; i < shard.row_end; ++i) {
        for (std::uint64_t a = csr.offsets[i]; a < csr.offsets[i + 1]; ++a) {
          const graph::VertexId j = csr.neighbors[a];
          const bool outside = j < shard.row_begin || j >= shard.row_end;
          if (needed.insert(j).second && outside) ++remote;
          distinct.insert(j);
          if (outside) ++cut;
        }
      }
      EXPECT_EQ(shard.owned_arcs,
                csr.offsets[shard.row_end] - csr.offsets[shard.row_begin])
          << "bank " << shard.bank;
      EXPECT_EQ(shard.needed_cols, needed.size()) << "bank " << shard.bank;
      EXPECT_EQ(shard.remote_cols, remote) << "bank " << shard.bank;
      EXPECT_EQ(shard.cut_arcs, cut) << "bank " << shard.bank;
      total_needed += needed.size();
      total_cut += cut;
    }
    EXPECT_EQ(p.stats.total_needed_cols, total_needed);
    EXPECT_EQ(p.stats.total_cut_arcs, total_cut);
    EXPECT_EQ(p.stats.distinct_cols, distinct.size());
    // 2D-only stats stay zero under the 1D strategies, even though the
    // plan itself is a (one-column-stripe, hub-free) tile plan.
    EXPECT_EQ(p.stats.hub_count, 0u);
    EXPECT_EQ(p.stats.hub_arcs, 0u);
    EXPECT_EQ(p.stats.replica_bytes, 0u);
    EXPECT_EQ(p.stats.row_stripes, 0u);
    EXPECT_EQ(p.stats.col_stripes, 0u);
    EXPECT_EQ(p.stats.tile_imbalance, 0.0);
    EXPECT_EQ(p.stats.ReplicaOverhead(), 0.0);
    ASSERT_NE(p.plan2d, nullptr);
    EXPECT_EQ(p.plan2d->col_stripes, 1u);
    EXPECT_TRUE(p.plan2d->hubs.empty());
    // And the 1D plan executes exactly on the host kernel.
    std::uint64_t raw = 0;
    for (std::uint32_t b = 0; b < p.num_banks(); ++b) {
      raw += runtime::CountBankShard2d(matrix, *p.plan2d, b);
    }
    EXPECT_EQ(raw, matrix.AndPopcountAllEdges());
  }
}

}  // namespace
}  // namespace tcim
