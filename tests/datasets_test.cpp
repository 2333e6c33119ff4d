// Tests for the paper-dataset registry and synthetic stand-in
// generation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>

#include "baseline/cpu_tc.h"
#include "graph/datasets.h"

namespace tcim::graph {
namespace {

TEST(Registry, HasAllNineDatasets) {
  EXPECT_EQ(AllPaperRefs().size(), 9u);
  std::set<std::string> names;
  for (const PaperRef& ref : AllPaperRefs()) {
    names.insert(ref.name);
  }
  EXPECT_EQ(names.size(), 9u);
}

TEST(Registry, TableIIValuesVerbatim) {
  const PaperRef& fb = GetPaperRef(PaperDataset::kEgoFacebook);
  EXPECT_EQ(fb.vertices, 4039u);
  EXPECT_EQ(fb.edges, 88234u);
  EXPECT_EQ(fb.triangles, 1612010u);
  const PaperRef& lj = GetPaperRef(PaperDataset::kComLiveJournal);
  EXPECT_EQ(lj.vertices, 3997962u);
  EXPECT_EQ(lj.edges, 34681189u);
  EXPECT_EQ(lj.triangles, 177820130u);
}

TEST(Registry, TableVRuntimes) {
  const PaperRef& fb = GetPaperRef(PaperDataset::kEgoFacebook);
  EXPECT_DOUBLE_EQ(fb.cpu_s, 5.399);
  EXPECT_DOUBLE_EQ(fb.gpu_s, 0.15);
  EXPECT_DOUBLE_EQ(fb.fpga_s, 0.093);
  EXPECT_DOUBLE_EQ(fb.wo_pim_s, 0.169);
  EXPECT_DOUBLE_EQ(fb.tcim_s, 0.005);
  // N/A cells encoded negative.
  const PaperRef& amazon = GetPaperRef(PaperDataset::kComAmazon);
  EXPECT_LT(amazon.gpu_s, 0.0);
  EXPECT_LT(amazon.fpga_s, 0.0);
}

TEST(Registry, RoadFlagsMatchNames) {
  for (const PaperRef& ref : AllPaperRefs()) {
    const bool name_is_road =
        std::string(ref.name).find("roadNet") != std::string::npos;
    EXPECT_EQ(ref.is_road, name_is_road) << ref.name;
  }
}

TEST(Registry, LookupByNameAndId) {
  EXPECT_EQ(GetPaperRefByName("com-dblp").id, PaperDataset::kComDblp);
  EXPECT_THROW((void)GetPaperRefByName("no-such-graph"), std::invalid_argument);
}

TEST(Registry, Fig6RatiosPresentForFiveGraphs) {
  int with_ratio = 0;
  for (const PaperRef& ref : AllPaperRefs()) {
    if (ref.fpga_energy_ratio > 0) ++with_ratio;
  }
  EXPECT_EQ(with_ratio, 5);
}

TEST(Synthesize, SmallGraphsIgnoreScale) {
  const DatasetInstance inst =
      SynthesizePaperGraph(PaperDataset::kEgoFacebook, 0.1, 42);
  EXPECT_DOUBLE_EQ(inst.scale, 1.0);
  EXPECT_EQ(inst.graph.num_vertices(), 4039u);
  EXPECT_NEAR(static_cast<double>(inst.graph.num_edges()), 88234.0,
              88234.0 * 0.12);
}

TEST(Synthesize, ScaledGraphTracksTargets) {
  const double scale = 0.05;
  const DatasetInstance inst =
      SynthesizePaperGraph(PaperDataset::kComDblp, scale, 42);
  const PaperRef& ref = GetPaperRef(PaperDataset::kComDblp);
  EXPECT_NEAR(static_cast<double>(inst.graph.num_vertices()),
              ref.vertices * scale, ref.vertices * scale * 0.05);
  EXPECT_NEAR(static_cast<double>(inst.graph.num_edges()),
              ref.edges * scale, ref.edges * scale * 0.15);
  EXPECT_FALSE(inst.is_real);
  EXPECT_FALSE(inst.source.empty());
}

TEST(Synthesize, DeterministicPerSeed) {
  const DatasetInstance a =
      SynthesizePaperGraph(PaperDataset::kRoadNetPa, 0.02, 1);
  const DatasetInstance b =
      SynthesizePaperGraph(PaperDataset::kRoadNetPa, 0.02, 1);
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_TRUE(std::equal(a.graph.adjacency().begin(),
                         a.graph.adjacency().end(),
                         b.graph.adjacency().begin()));
  const DatasetInstance c =
      SynthesizePaperGraph(PaperDataset::kRoadNetPa, 0.02, 2);
  EXPECT_FALSE(a.graph.num_edges() == c.graph.num_edges() &&
               std::equal(a.graph.adjacency().begin(),
                          a.graph.adjacency().end(),
                          c.graph.adjacency().begin()));
}

TEST(Synthesize, RoadGraphsAreRoadLike) {
  const DatasetInstance inst =
      SynthesizePaperGraph(PaperDataset::kRoadNetTx, 0.01, 3);
  EXPECT_LT(inst.graph.mean_degree(), 3.5);
  EXPECT_LE(inst.graph.max_degree(), 8u);
  // Triangle density well below 1 per edge.
  const std::uint64_t t = baseline::CountTrianglesReference(inst.graph);
  EXPECT_LT(static_cast<double>(t),
            0.2 * static_cast<double>(inst.graph.num_edges()));
}

TEST(Synthesize, FacebookStandInIsTriangleDense) {
  const DatasetInstance inst =
      SynthesizePaperGraph(PaperDataset::kEgoFacebook, 1.0, 4);
  const std::uint64_t t = baseline::CountTrianglesReference(inst.graph);
  // ego-facebook is extremely triangle-dense (paper: T/E ~ 18); the
  // community stand-in must reach the same super-linear regime.
  EXPECT_GT(static_cast<double>(t),
            5.0 * static_cast<double>(inst.graph.num_edges()));
}

TEST(Synthesize, EnronStandInIsSkewed) {
  const DatasetInstance inst =
      SynthesizePaperGraph(PaperDataset::kEmailEnron, 1.0, 4);
  // Hub-dominated email graph: heavy-tailed degree distribution.
  EXPECT_GT(inst.graph.max_degree(), 10 * inst.graph.mean_degree());
}

TEST(Synthesize, RejectsBadScale) {
  EXPECT_THROW((void)SynthesizePaperGraph(PaperDataset::kComDblp, 0.0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)SynthesizePaperGraph(PaperDataset::kComDblp, 1.5, 1),
               std::invalid_argument);
  EXPECT_THROW((void)SynthesizePaperGraph(PaperDataset::kComDblp,
                                          std::nan(""), 1),
               std::invalid_argument);
}

TEST(LoadOrSynthesize, FallsBackWithoutDataDir) {
  ::unsetenv("TCIM_DATA_DIR");
  const DatasetInstance inst =
      LoadOrSynthesize(PaperDataset::kEmailEnron, 1.0, 5);
  EXPECT_FALSE(inst.is_real);
}

TEST(LoadOrSynthesize, LoadsRealFileWhenPresent) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/email-enron.txt";
  {
    std::ofstream out(path);
    out << "# fake tiny enron\n0 1\n1 2\n2 0\n";
  }
  ::setenv("TCIM_DATA_DIR", dir.c_str(), 1);
  const DatasetInstance inst =
      LoadOrSynthesize(PaperDataset::kEmailEnron, 1.0, 5);
  ::unsetenv("TCIM_DATA_DIR");
  EXPECT_TRUE(inst.is_real);
  EXPECT_EQ(inst.graph.num_vertices(), 3u);
  EXPECT_EQ(inst.graph.num_edges(), 3u);
  EXPECT_EQ(inst.source, path);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tcim::graph
