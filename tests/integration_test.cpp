// Cross-module integration tests: the full device -> array -> arch ->
// core pipeline against the CPU baselines, on downscaled instances of
// every paper dataset and on configuration grids.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "baseline/cpu_tc.h"
#include "core/accelerator.h"
#include "core/bitwise_tc.h"
#include "core/edge_support.h"
#include "core/pipeline.h"
#include "core/truss.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/stats.h"

namespace tcim {
namespace {

using graph::Graph;
using graph::Orientation;

/// Accelerator with a small array (keeps tests fast and forces real
/// cache behaviour).
core::TcimResult RunTcim(const Graph& g, std::uint64_t capacity_bytes,
                         Orientation o = Orientation::kUpper) {
  core::TcimConfig c;
  c.orientation = o;
  c.array.capacity_bytes = capacity_bytes;
  return core::TcimAccelerator{c}.Run(g);
}

class PaperDatasetTest
    : public ::testing::TestWithParam<graph::PaperDataset> {};

TEST_P(PaperDatasetTest, TcimMatchesBaselineOnScaledInstance) {
  // Tiny scale: the structural generators stay in regime while the
  // functional PIM simulation stays fast.
  const graph::DatasetInstance inst =
      SynthesizePaperGraph(GetParam(), 0.01, 42);
  const std::uint64_t expected =
      baseline::CountTrianglesReference(inst.graph);
  const core::TcimResult r = RunTcim(inst.graph, 1ULL << 20);
  EXPECT_EQ(r.triangles, expected) << inst.source;
  // The whole point of slicing: far fewer AND ops than the
  // slicing-oblivious total.
  EXPECT_LT(r.slices.ValidPairFraction(), 0.5) << inst.source;
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, PaperDatasetTest,
    ::testing::Values(
        graph::PaperDataset::kEgoFacebook, graph::PaperDataset::kEmailEnron,
        graph::PaperDataset::kComAmazon, graph::PaperDataset::kComDblp,
        graph::PaperDataset::kComYoutube, graph::PaperDataset::kRoadNetPa,
        graph::PaperDataset::kRoadNetTx, graph::PaperDataset::kRoadNetCa,
        graph::PaperDataset::kComLiveJournal),
    [](const auto& info) {
      std::string name = graph::GetPaperRef(info.param).name;
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(Integration, ConfigurationGridAgreesEverywhere) {
  const Graph g = graph::HolmeKim(1200, 7200, 0.65, 9);
  const std::uint64_t expected = baseline::CountTrianglesReference(g);
  for (const auto o : {Orientation::kUpper, Orientation::kDegree}) {
    for (const std::uint32_t slice_bits : {32u, 64u}) {
      for (const auto policy :
           {arch::ReplacementPolicy::kLru, arch::ReplacementPolicy::kFifo,
            arch::ReplacementPolicy::kRandom}) {
        for (const std::uint64_t capacity :
             {256ULL << 10, 4ULL << 20}) {
          core::TcimConfig c;
          c.orientation = o;
          c.slice_bits = slice_bits;
          c.controller.policy = policy;
          c.array.capacity_bytes = capacity;
          const core::TcimResult r = core::TcimAccelerator{c}.Run(g);
          ASSERT_EQ(r.triangles, expected)
              << graph::ToString(o) << "/" << slice_bits << "/"
              << arch::ToString(policy) << "/" << capacity;
        }
      }
    }
  }
}

TEST(Integration, SnapFileToTcimPipeline) {
  // Graph -> SNAP text -> reload -> TCIM; counts survive the full trip.
  const Graph original = graph::Rmat(2048, 16000, graph::RmatParams{}, 10);
  const std::string path = ::testing::TempDir() + "/tcim_integration.txt";
  {
    std::ofstream out(path);
    WriteSnapEdgeList(original, out);
  }
  const Graph reloaded = graph::ReadSnapEdgeListFile(path);
  const std::uint64_t expected =
      baseline::CountTrianglesReference(original);
  EXPECT_EQ(baseline::CountTrianglesReference(reloaded), expected);
  EXPECT_EQ(RunTcim(reloaded, 2ULL << 20).triangles, expected);
  std::remove(path.c_str());
}

TEST(Integration, TransitivityPipelineOnSocialGraph) {
  // The intro's motivating metric: clustering from a TC run.
  const Graph g = graph::HolmeKim(3000, 18000, 0.8, 11);
  const core::TcimResult r = RunTcim(g, 4ULL << 20);
  const double transitivity = graph::Transitivity(g, r.triangles);
  EXPECT_GT(transitivity, 0.05);
  EXPECT_LE(transitivity, 1.0);
}

TEST(Integration, WriteSavingsTrackHitRate) {
  const Graph g = graph::HolmeKim(2500, 20000, 0.6, 12);
  const core::TcimResult r = RunTcim(g, 1ULL << 20);
  // Without reuse every valid pair would write its column slice:
  // savings = hits / lookups by definition, and must be materialized
  // as fewer column writes.
  EXPECT_EQ(r.exec.col_slice_writes + r.exec.cache.hits,
            r.exec.valid_pairs);
  EXPECT_DOUBLE_EQ(r.exec.WriteSavings(), r.exec.cache.HitRate());
}

TEST(Integration, DegreeOrientationReducesWorkOnSkewedGraphs) {
  const Graph g = graph::Rmat(8192, 80000, graph::RmatParams{}, 13);
  const core::TcimResult upper = RunTcim(g, 4ULL << 20,
                                         Orientation::kUpper);
  const core::TcimResult degree = RunTcim(g, 4ULL << 20,
                                          Orientation::kDegree);
  EXPECT_EQ(upper.triangles, degree.triangles);
  // Degree orientation bounds out-degrees, shrinking row slice counts
  // and the pair workload on heavy-tailed graphs.
  EXPECT_LT(degree.exec.valid_pairs, upper.exec.valid_pairs);
}

TEST(Integration, FullSymmetricCostsSixTimesThePairs) {
  const Graph g = graph::ErdosRenyi(1500, 9000, 14);
  const core::TcimResult upper = RunTcim(g, 4ULL << 20,
                                         Orientation::kUpper);
  const core::TcimResult full = RunTcim(g, 4ULL << 20,
                                        Orientation::kFullSymmetric);
  EXPECT_EQ(upper.triangles, full.triangles);
  // Full-symmetric processes both arc directions and pairs both
  // triangle "sides": strictly more work (roughly 4-6x pairs).
  EXPECT_GT(full.exec.valid_pairs, 3 * upper.exec.valid_pairs);
}

TEST(Integration, EnergyDominatedByWritesOnColdWorkloads) {
  // STT-MRAM writes are ~20x the AND energy; on a low-reuse workload
  // write energy must dominate the breakdown (the motivation for the
  // paper's reuse strategy).
  const Graph g = graph::GeometricRoad(20000, graph::RoadParams{}, 15);
  const core::TcimResult r = RunTcim(g, 16ULL << 20);
  const auto& e = r.perf.energy;
  EXPECT_GT(e.row_write_j + e.col_write_j, e.and_j);
}

TEST(Integration, TrussPipelineOnScaledDataset) {
  const graph::DatasetInstance inst = SynthesizePaperGraph(
      graph::PaperDataset::kComDblp, 0.02, 42);
  core::TcimConfig c;
  c.array.capacity_bytes = 2ULL << 20;
  const core::TcimAccelerator accel{c};
  core::TcimResult run;
  const core::EdgeSupports supports =
      core::ComputeEdgeSupportsTcim(inst.graph, accel, &run);
  // Triangle identity across three independent routes.
  const std::uint64_t expected =
      baseline::CountTrianglesReference(inst.graph);
  EXPECT_EQ(supports.TriangleCount(), expected);
  EXPECT_EQ(run.triangles, expected);
  // Peel and cross-check against the CPU support path.
  const core::TrussResult a =
      core::DecomposeTruss(inst.graph, supports.support);
  const core::TrussResult b = core::DecomposeTrussCpu(inst.graph);
  EXPECT_EQ(a.trussness, b.trussness);
  EXPECT_GE(a.max_truss, 3u);  // a clustered graph has deep trusses
}

TEST(Integration, IsolatedVerticesAndDisconnectedComponents) {
  // Two far-apart cliques plus isolated vertices; slicing must not
  // trip on empty rows/columns.
  graph::GraphBuilder b(1000);
  for (graph::VertexId u = 0; u < 6; ++u) {
    for (graph::VertexId v = u + 1; v < 6; ++v) b.AddEdge(u, v);
  }
  for (graph::VertexId u = 900; u < 907; ++u) {
    for (graph::VertexId v = u + 1; v < 907; ++v) b.AddEdge(u, v);
  }
  const Graph g = std::move(b).Build();
  const std::uint64_t expected = 20 + 35;  // C(6,3) + C(7,3)
  EXPECT_EQ(baseline::CountTrianglesReference(g), expected);
  EXPECT_EQ(RunTcim(g, 1ULL << 20).triangles, expected);
}

TEST(Integration, EdgelessGraphRunsCleanly) {
  const core::TcimResult r = RunTcim(graph::GraphBuilder(100).Build(),
                                     1ULL << 20);
  EXPECT_EQ(r.triangles, 0u);
  EXPECT_EQ(r.exec.valid_pairs, 0u);
  EXPECT_EQ(r.exec.TotalWrites(), 0u);
}

TEST(Integration, CrlfEdgeListParses) {
  std::istringstream in("# comment\r\n0 1\r\n1 2\r\n0 2\r\n");
  const Graph g = graph::ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(baseline::CountTrianglesReference(g), 1u);
}

TEST(Integration, HostRuntimeIsRecorded) {
  const Graph g = graph::ErdosRenyi(500, 3000, 16);
  core::CountRequest request;
  request.config.array.capacity_bytes = 1ULL << 20;
  request.verify = true;
  const core::CountOutcome out = core::CountGraph(g, request);
  EXPECT_EQ(out.reference_triangles, out.triangles);
  EXPECT_GT(out.stages.sim_pass, 0.0);
  EXPECT_GT(out.stages.Total(), 0.0);
  EXPECT_LT(out.stages.Total(), 60.0);
}

}  // namespace
}  // namespace tcim
