// Tests for the core layer: bitwise TC paths, config normalization,
// the perf model, and the TcimAccelerator facade.
#include <gtest/gtest.h>

#include <string>

#include "baseline/cpu_tc.h"
#include "core/accelerator.h"
#include "core/bitwise_tc.h"
#include "core/edge_support.h"
#include "core/perf_model.h"
#include "graph/generators.h"

namespace tcim::core {
namespace {

using graph::Graph;
using graph::Orientation;

Graph Fig2Graph() {
  graph::GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  return std::move(b).Build();
}

TEST(BitwiseTc, Fig2DenseAllOrientations) {
  const Graph g = Fig2Graph();
  EXPECT_EQ(CountTrianglesDense(g, Orientation::kUpper), 2u);
  EXPECT_EQ(CountTrianglesDense(g, Orientation::kDegree), 2u);
  EXPECT_EQ(CountTrianglesDense(g, Orientation::kFullSymmetric), 2u);
}

TEST(BitwiseTc, Fig2SlicedAllOrientations) {
  const Graph g = Fig2Graph();
  for (const auto o : {Orientation::kUpper, Orientation::kDegree,
                       Orientation::kFullSymmetric}) {
    EXPECT_EQ(CountTrianglesSliced(g, o), 2u) << graph::ToString(o);
  }
}

TEST(BitwiseTc, MatchesBaselineOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Graph g = graph::HolmeKim(600, 3600, 0.6, seed);
    const std::uint64_t expected = baseline::CountTrianglesReference(g);
    EXPECT_EQ(CountTrianglesDense(g), expected) << seed;
    EXPECT_EQ(CountTrianglesSliced(g), expected) << seed;
  }
}

TEST(BitwiseTc, SliceWidthDoesNotChangeTheCount) {
  const Graph g = graph::Rmat(512, 4000, graph::RmatParams{}, 3);
  const std::uint64_t expected = baseline::CountTrianglesReference(g);
  for (const std::uint32_t s : {8u, 16u, 32u, 48u, 64u, 128u, 256u}) {
    EXPECT_EQ(CountTrianglesSliced(g, Orientation::kUpper, s), expected)
        << "slice_bits=" << s;
  }
}

TEST(BitwiseTc, DenseRejectsHugeGraphs) {
  const Graph g = graph::ErdosRenyi(20000, 20000, 1);
  EXPECT_THROW((void)CountTrianglesDense(g), std::invalid_argument);
}

TEST(TcimConfig, DefaultsNormalizeCleanly) {
  TcimConfig c;
  EXPECT_NO_THROW(c.Normalize());
  EXPECT_EQ(c.array.access_width_bits, 64u);
  EXPECT_EQ(c.array.capacity_bytes, 16ULL << 20);
}

TEST(TcimConfig, SliceBitsPropagateToArrayAndCounter) {
  TcimConfig c;
  c.slice_bits = 128;
  c.Normalize();
  EXPECT_EQ(c.array.access_width_bits, 128u);
  EXPECT_EQ(c.bit_counter.word_bits, 128u);
}

TEST(TcimConfig, RejectsBadSliceBits) {
  TcimConfig c;
  c.slice_bits = 0;
  EXPECT_THROW(c.Normalize(), std::invalid_argument);
  c.slice_bits = 600;
  EXPECT_THROW(c.Normalize(), std::invalid_argument);
  c = TcimConfig{};
  c.slice_bits = 96;  // does not divide 512 columns
  EXPECT_THROW(c.Normalize(), std::invalid_argument);
}

TEST(PerfModel, ZeroWorkCostsOnlyPipelineDrain) {
  arch::ExecStats stats;
  nvsim::ArrayPerf perf;
  perf.read_slice = {1e-9, 1e-12};
  perf.and_slice = {1e-9, 1e-12};
  perf.write_slice = {2e-9, 1e-11};
  perf.leakage_w = 0.0;
  const PerfResult r = EvaluatePerf(stats, perf, pim::BitCounterParams{});
  EXPECT_DOUBLE_EQ(r.latency.row_write_s, 0.0);
  EXPECT_DOUBLE_EQ(r.energy.and_j, 0.0);
  EXPECT_GT(r.serial_seconds, 0.0);  // drain term only
}

TEST(PerfModel, LatencyAndEnergyScaleLinearlyWithOps) {
  nvsim::ArrayPerf perf;
  perf.and_slice = {2e-9, 3e-12};
  perf.write_slice = {10e-9, 20e-12};
  perf.leakage_w = 0.0;

  arch::ExecStats one;
  one.valid_pairs = 1000;
  one.row_slice_writes = 100;
  one.col_slice_writes = 50;
  one.bitcount_words = 1000;
  one.per_subarray_ands = {1000};
  one.per_subarray_writes = {150};

  arch::ExecStats two = one;
  two.valid_pairs *= 2;
  two.row_slice_writes *= 2;
  two.col_slice_writes *= 2;
  two.bitcount_words *= 2;
  two.per_subarray_ands = {2000};
  two.per_subarray_writes = {300};

  PerfModelParams params;
  params.issue_overhead = 0.0;
  params.issue_energy = 0.0;
  const PerfResult r1 = EvaluatePerf(one, perf, pim::BitCounterParams{},
                                     params);
  const PerfResult r2 = EvaluatePerf(two, perf, pim::BitCounterParams{},
                                     params);
  EXPECT_NEAR(r2.latency.and_s, 2 * r1.latency.and_s, 1e-15);
  EXPECT_NEAR(r2.energy.col_write_j, 2 * r1.energy.col_write_j, 1e-20);
}

TEST(PerfModel, ParallelNeverSlowerThanSerial) {
  nvsim::ArrayPerf perf;
  perf.and_slice = {2e-9, 3e-12};
  perf.write_slice = {10e-9, 20e-12};
  perf.leakage_w = 0.01;
  arch::ExecStats stats;
  stats.valid_pairs = 10000;
  stats.row_slice_writes = 500;
  stats.col_slice_writes = 600;
  stats.bitcount_words = 10000;
  stats.per_subarray_ands.assign(16, 625);    // balanced
  stats.per_subarray_writes.assign(16, 1100 / 16);
  const PerfResult r = EvaluatePerf(stats, perf, pim::BitCounterParams{});
  EXPECT_LE(r.parallel_seconds, r.serial_seconds);
  EXPECT_GT(r.parallel_seconds, 0.0);
  EXPECT_GT(r.energy_joules, 0.0);
  EXPECT_NEAR(r.energy_joules, r.energy.Total(), 1e-18);
}

TEST(PerfModel, SkewConcentratesCriticalPath) {
  nvsim::ArrayPerf perf;
  perf.and_slice = {1e-9, 1e-12};
  perf.write_slice = {1e-9, 1e-12};
  arch::ExecStats balanced;
  balanced.valid_pairs = 1600;
  balanced.per_subarray_ands.assign(16, 100);
  balanced.per_subarray_writes.assign(16, 0);
  arch::ExecStats skewed = balanced;
  skewed.per_subarray_ands.assign(16, 0);
  skewed.per_subarray_ands[0] = 1600;
  PerfModelParams params;
  params.issue_overhead = 0.0;
  const PerfResult rb =
      EvaluatePerf(balanced, perf, pim::BitCounterParams{}, params);
  const PerfResult rs =
      EvaluatePerf(skewed, perf, pim::BitCounterParams{}, params);
  EXPECT_GT(rs.parallel_seconds, 10 * rb.parallel_seconds);
}

TEST(Accelerator, Fig2EndToEnd) {
  const TcimAccelerator accel{TcimConfig{}};
  const TcimResult r = accel.Run(Fig2Graph());
  EXPECT_EQ(r.triangles, 2u);
  EXPECT_EQ(r.exec.valid_pairs, 5u);
  EXPECT_GT(r.perf.serial_seconds, 0.0);
  EXPECT_GT(r.perf.energy_joules, 0.0);
  EXPECT_GT(r.host_seconds, 0.0);
}

TEST(Accelerator, MatchesBaselinesAcrossOrientations) {
  const Graph g = graph::HolmeKim(800, 4800, 0.7, 5);
  const std::uint64_t expected = baseline::CountTrianglesReference(g);
  for (const auto o : {Orientation::kUpper, Orientation::kDegree,
                       Orientation::kFullSymmetric}) {
    TcimConfig c;
    c.orientation = o;
    c.array.capacity_bytes = 2ULL << 20;
    const TcimAccelerator accel{c};
    EXPECT_EQ(accel.Run(g).triangles, expected) << graph::ToString(o);
  }
}

TEST(Accelerator, SliceWidthSweepPreservesCount) {
  const Graph g = graph::GeometricRoad(3000, graph::RoadParams{}, 6);
  const std::uint64_t expected = baseline::CountTrianglesReference(g);
  for (const std::uint32_t s : {16u, 32u, 64u, 128u}) {
    TcimConfig c;
    c.slice_bits = s;
    c.array.capacity_bytes = 2ULL << 20;
    const TcimAccelerator accel{c};
    EXPECT_EQ(accel.Run(g).triangles, expected) << "slice=" << s;
  }
}

TEST(Accelerator, ResultStatsAreConsistent) {
  const Graph g = graph::Rmat(1024, 8000, graph::RmatParams{}, 7);
  TcimConfig c;
  c.array.capacity_bytes = 2ULL << 20;
  const TcimAccelerator accel{c};
  const TcimResult r = accel.Run(g);
  EXPECT_EQ(r.exec.cache.lookups, r.exec.valid_pairs);
  EXPECT_EQ(r.exec.col_slice_writes, r.exec.cache.misses);
  EXPECT_EQ(r.slices.valid_pairs, r.exec.valid_pairs);
  EXPECT_EQ(r.slices.edges, r.exec.edges_processed);
  EXPECT_LE(r.perf.parallel_seconds, r.perf.serial_seconds);
}

TEST(Accelerator, RunOnMatrixRejectsWidthMismatch) {
  const TcimAccelerator accel{TcimConfig{}};  // 64-bit slices
  const bit::SlicedMatrix m32 =
      BuildSlicedMatrix(Fig2Graph(), Orientation::kUpper, 32);
  EXPECT_THROW((void)accel.RunOnMatrix(m32, Orientation::kUpper),
               std::invalid_argument);
}

TEST(Accelerator, ExposesDeviceAndArrayPerf) {
  const TcimAccelerator accel{TcimConfig{}};
  EXPECT_GT(accel.device().Characterize().read_margin, 0.0);
  EXPECT_GT(accel.array_perf().and_slice.latency, 0.0);
}

TEST(Accelerator, SmallerArrayMeansMoreExchanges) {
  const Graph g = graph::HolmeKim(4000, 40000, 0.5, 8);
  TcimConfig big;
  big.array.capacity_bytes = 8ULL << 20;
  TcimConfig small;
  small.array.capacity_bytes = 256ULL << 10;
  const TcimResult rb = TcimAccelerator{big}.Run(g);
  const TcimResult rs = TcimAccelerator{small}.Run(g);
  EXPECT_EQ(rb.triangles, rs.triangles);  // capacity never changes counts
  EXPECT_GE(rs.exec.cache.exchanges, rb.exec.cache.exchanges);
  EXPECT_LE(rs.exec.cache.HitRate(), rb.exec.cache.HitRate() + 1e-9);
}

// RunOnMatrix and ComputeEdgeSupportsTcim take their SliceStats from
// the simulated pass's own walk; ComputeStats() is the reference.
struct FamilyCase {
  const char* name;
  Graph (*make)();
};

const FamilyCase kStatsFamilies[] = {
    {"erdos", [] { return graph::ErdosRenyi(400, 1800, 3); }},
    {"rmat", [] { return graph::Rmat(512, 4000, graph::RmatParams{}, 3); }},
    {"holmekim", [] { return graph::HolmeKim(350, 2600, 0.8, 3); }},
    {"smallworld", [] { return graph::WattsStrogatz(500, 4, 0.3, 3); }},
    {"community",
     [] {
       return graph::CommunityCliques(600, 5000, graph::CommunityParams{}, 3);
     }},
    {"road", [] { return graph::GeometricRoad(900, graph::RoadParams{}, 3); }},
    {"grid", [] { return graph::GridLattice(30, 20); }},
};

TEST(Accelerator, SliceStatsFromTheWalkEqualComputeStats) {
  for (const FamilyCase& family : kStatsFamilies) {
    const Graph g = family.make();
    for (const auto o : {Orientation::kUpper, Orientation::kDegree,
                         Orientation::kFullSymmetric}) {
      for (const std::uint32_t s : {8u, 64u, 512u}) {
        SCOPED_TRACE(std::string(family.name) + " " + graph::ToString(o) +
                     " slice=" + std::to_string(s));
        TcimConfig c;
        c.slice_bits = s;
        c.orientation = o;
        c.array.capacity_bytes = 2ULL << 20;
        const TcimAccelerator accel{c};
        const bit::SlicedMatrix m = BuildSlicedMatrix(g, o, s);
        const TcimResult r = accel.RunOnMatrix(m, o);
        EXPECT_EQ(r.slices, m.ComputeStats());
        EXPECT_EQ(accel.Run(g).slices, r.slices);
      }
    }
  }
}

TEST(Accelerator, TouchedSlicesDoNotDependOnCachePlacement) {
  const Graph g = graph::HolmeKim(4000, 40000, 0.5, 8);
  const bit::SlicedMatrix m = BuildSlicedMatrix(g, Orientation::kUpper, 64);
  TcimConfig tiny;
  tiny.array.capacity_bytes = 64ULL << 10;
  const TcimResult r = TcimAccelerator{tiny}.RunOnMatrix(m, Orientation::kUpper);
  ASSERT_GT(r.exec.cache.exchanges, 0u);
  EXPECT_EQ(r.slices, m.ComputeStats());
}

TEST(EdgeSupports, SliceStatsFromTheWalkEqualComputeStats) {
  for (const FamilyCase& family : kStatsFamilies) {
    const Graph g = family.make();
    for (const std::uint32_t s : {8u, 64u, 512u}) {
      SCOPED_TRACE(std::string(family.name) + " slice=" + std::to_string(s));
      TcimConfig c;
      c.slice_bits = s;
      c.array.capacity_bytes = 2ULL << 20;
      const TcimAccelerator accel{c};
      TcimResult r;
      const EdgeSupports supports = ComputeEdgeSupportsTcim(g, accel, &r);
      EXPECT_EQ(supports.TriangleCount(), r.triangles);
      EXPECT_EQ(r.slices, BuildSlicedMatrix(g, Orientation::kFullSymmetric, s)
                              .ComputeStats());
    }
  }
}

}  // namespace
}  // namespace tcim::core
