// Tests for the core layer: bitwise TC paths, config normalization,
// the perf model, the TcimAccelerator facade and the CountGraph
// pipeline.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/cpu_tc.h"
#include "core/accelerator.h"
#include "core/bitwise_tc.h"
#include "core/edge_support.h"
#include "core/perf_model.h"
#include "core/pipeline.h"
#include "graph/generators.h"
#include "util/timer.h"

namespace tcim::core {
namespace {

using graph::Graph;
using graph::Orientation;

/// The pipeline's host pass alone: no relabel, no simulator.
std::uint64_t CountOnHost(const Graph& g,
                          Orientation o = Orientation::kUpper,
                          std::uint32_t slice_bits = 64) {
  CountRequest request;
  request.config.orientation = o;
  request.config.slice_bits = slice_bits;
  request.passes = Passes::kHost;
  return CountGraph(g, request).triangles;
}

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
    EXPECT_EQ(CountOnHost(g, o), 2u) << graph::ToString(o);
  }
}

TEST(BitwiseTc, MatchesBaselineOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Graph g = graph::HolmeKim(600, 3600, 0.6, seed);
    const std::uint64_t expected = baseline::CountTrianglesReference(g);
    EXPECT_EQ(CountTrianglesDense(g), expected) << seed;
    EXPECT_EQ(CountOnHost(g), expected) << seed;
  }
}

TEST(BitwiseTc, SliceWidthDoesNotChangeTheCount) {
  const Graph g = graph::Rmat(512, 4000, graph::RmatParams{}, 3);
  const std::uint64_t expected = baseline::CountTrianglesReference(g);
  for (const std::uint32_t s : {8u, 16u, 32u, 48u, 64u, 128u, 256u}) {
    EXPECT_EQ(CountOnHost(g, Orientation::kUpper, s), expected)
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


// --- CountGraph: the one-shot pipeline -------------------------------

struct PipelineFamily {
  const char* name;
  Graph graph;
};

std::vector<PipelineFamily> PipelineFamilies() {
  std::vector<PipelineFamily> families;
  families.push_back({"holmekim", graph::HolmeKim(350, 2800, 0.9, 1)});
  families.push_back({"rmat", graph::Rmat(512, 4000, graph::RmatParams{}, 2)});
  families.push_back({"erdos_dense", graph::ErdosRenyi(150, 5000, 3)});
  families.push_back(
      {"road", graph::GeometricRoad(1200, graph::RoadParams{}, 4)});
  return families;
}

TEST(Pipeline, ExactForEveryOrientationRelabelAndPassSet) {
  for (const PipelineFamily& f : PipelineFamilies()) {
    const std::uint64_t expected =
        baseline::CountTrianglesReference(f.graph);
    for (const auto o : {Orientation::kUpper, Orientation::kDegree,
                         Orientation::kFullSymmetric}) {
      for (const auto mode :
           {graph::RelabelMode::kNone, graph::RelabelMode::kDegree,
            graph::RelabelMode::kBfs, graph::RelabelMode::kAuto}) {
        for (const auto passes :
             {Passes::kHost, Passes::kSimulated, Passes::kBoth}) {
          CountRequest request;
          request.config.orientation = o;
          request.config.array.capacity_bytes = 1ULL << 20;
          request.relabel = mode;
          request.passes = passes;
          request.verify = true;
          const CountOutcome out = CountGraph(f.graph, request);
          const std::string where =
              std::string(f.name) + " " + std::string(graph::ToString(o)) +
              " relabel=" + std::string(graph::ToString(mode)) +
              " passes=" + std::to_string(static_cast<int>(passes));
          EXPECT_EQ(out.triangles, expected) << where;
          EXPECT_EQ(out.reference_triangles, expected) << where;
          EXPECT_EQ(out.sim.has_value(), passes != Passes::kHost) << where;
          if (out.sim) EXPECT_EQ(out.sim->triangles, expected) << where;
          EXPECT_NE(out.relabel.applied, graph::RelabelMode::kAuto) << where;
        }
      }
    }
  }
}

TEST(Pipeline, HostAndSimulatedPassesAgreeOnOneMatrix) {
  for (const PipelineFamily& f : PipelineFamilies()) {
    CountRequest request;
    request.relabel = graph::RelabelMode::kAuto;
    request.passes = Passes::kBoth;
    const CountOutcome out = CountGraph(f.graph, request);
    ASSERT_TRUE(out.sim.has_value()) << f.name;
    EXPECT_EQ(out.sim->triangles, out.triangles) << f.name;
    // Both passes AND exactly the valid slice pairs of every arc.
    EXPECT_EQ(out.host_paths.zero_copy_pairs, out.sim->exec.valid_pairs)
        << f.name;
  }
}

TEST(Pipeline, StagesThatDidNotRunReadZero) {
  const Graph g = graph::Rmat(4096, 40000, graph::RmatParams{}, 7);

  CountRequest host_only;
  host_only.passes = Passes::kHost;
  const StageSeconds h = CountGraph(g, host_only).stages;
  EXPECT_EQ(h.relabel_apply, 0.0);
  EXPECT_EQ(h.accel_init, 0.0);
  EXPECT_EQ(h.sim_pass, 0.0);
  EXPECT_EQ(h.verify, 0.0);
  EXPECT_GT(h.relabel_choose, 0.0);
  EXPECT_GT(h.orient, 0.0);
  EXPECT_GT(h.slice, 0.0);
  EXPECT_GT(h.host_pass, 0.0);

  CountRequest simulated;
  simulated.relabel = graph::RelabelMode::kDegree;
  simulated.verify = true;
  util::Timer wall;
  const StageSeconds s = CountGraph(g, simulated).stages;
  const double wall_seconds = wall.ElapsedSeconds();
  EXPECT_GT(s.relabel_apply, 0.0);
  EXPECT_GT(s.accel_init, 0.0);
  EXPECT_GT(s.sim_pass, 0.0);
  EXPECT_GT(s.verify, 0.0);
  EXPECT_EQ(s.host_pass, 0.0);

  double sum = 0.0;
  int stages = 0;
  s.ForEach([&](const char*, double seconds) {
    sum += seconds;
    ++stages;
  });
  EXPECT_EQ(stages, 8);
  EXPECT_EQ(s.Total(), sum);
  // The stages split one interval inside the call, so they never sum
  // past the wall time around it.
  EXPECT_LE(s.Total(), wall_seconds);
}

TEST(Pipeline, SimulatedPassEqualsAcceleratorRun) {
  // Without relabeling, the pipeline's simulated pass is Run(graph)'s
  // run, stat for stat.
  const Graph g = graph::HolmeKim(800, 4800, 0.7, 5);
  for (const auto o : {Orientation::kUpper, Orientation::kDegree,
                       Orientation::kFullSymmetric}) {
    CountRequest request;
    request.config.orientation = o;
    request.config.array.capacity_bytes = 2ULL << 20;
    const CountOutcome out = CountGraph(g, request);
    const TcimResult run = TcimAccelerator{request.config}.Run(g);
    ASSERT_TRUE(out.sim.has_value());
    EXPECT_EQ(out.sim->triangles, run.triangles);
    EXPECT_EQ(out.sim->exec.valid_pairs, run.exec.valid_pairs);
    EXPECT_EQ(out.sim->exec.row_slice_writes, run.exec.row_slice_writes);
    EXPECT_EQ(out.sim->exec.col_slice_writes, run.exec.col_slice_writes);
    EXPECT_EQ(out.sim->exec.cache.exchanges, run.exec.cache.exchanges);
    EXPECT_EQ(out.sim->slices.valid_pairs, run.slices.valid_pairs);
    EXPECT_EQ(out.sim->perf.serial_seconds, run.perf.serial_seconds);
    EXPECT_EQ(out.sim->perf.energy_joules, run.perf.energy_joules);
  }
}

TEST(Pipeline, ChecksTheSimulatedConfigBeforeAnyStage) {
  const Graph g = graph::ErdosRenyi(200, 1000, 9);
  CountRequest request;
  request.config.slice_bits = 96;  // does not divide 512 columns
  EXPECT_THROW((void)CountGraph(g, request), std::invalid_argument);
  request.config.slice_bits = 64;
  request.config.array.capacity_bytes =
      nvsim::ArrayConfig::kMaxCapacityBytes + 1;
  EXPECT_THROW((void)CountGraph(g, request), std::invalid_argument);
  // The host pass has no array: any slice width in [1, 512] counts.
  request = CountRequest{};
  request.config.slice_bits = 96;
  request.passes = Passes::kHost;
  EXPECT_EQ(CountGraph(g, request).triangles,
            baseline::CountTrianglesReference(g));
}

}  // namespace
}  // namespace tcim::core
