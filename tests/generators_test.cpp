// Tests for graph generators: closed-form triangle counts for the
// deterministic families, structural/determinism properties for the
// random ones.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "baseline/cpu_tc.h"
#include "graph/generators.h"

namespace tcim::graph {
namespace {

std::uint64_t Tri(const Graph& g) {
  return baseline::CountTrianglesReference(g);
}

TEST(ClosedForm, CompleteGraphHasChoose3) {
  for (const VertexId n : {3u, 4u, 5u, 8u, 16u, 30u}) {
    const Graph g = Complete(n);
    EXPECT_EQ(g.num_edges(), static_cast<std::uint64_t>(n) * (n - 1) / 2);
    EXPECT_EQ(Tri(g),
              static_cast<std::uint64_t>(n) * (n - 1) * (n - 2) / 6)
        << "n=" << n;
  }
}

TEST(ClosedForm, TriangleIsSmallestCycle) {
  EXPECT_EQ(Tri(Cycle(3)), 1u);
}

TEST(ClosedForm, LongCyclesHaveNoTriangles) {
  for (const VertexId n : {4u, 5u, 10u, 101u}) {
    EXPECT_EQ(Tri(Cycle(n)), 0u) << "n=" << n;
  }
}

TEST(ClosedForm, CycleRejectsTinyN) {
  EXPECT_THROW((void)Cycle(2), std::invalid_argument);
}

TEST(ClosedForm, PathsAndStarsAreTriangleFree) {
  EXPECT_EQ(Tri(Path(50)), 0u);
  EXPECT_EQ(Tri(Star(50)), 0u);
  EXPECT_EQ(Path(50).num_edges(), 49u);
  EXPECT_EQ(Star(50).num_edges(), 49u);
}

TEST(ClosedForm, WheelHasRimTriangles) {
  // n-1 hub triangles; W_4 = K_4 additionally closes its length-3 rim.
  EXPECT_EQ(Tri(Wheel(4)), 4u);
  for (const VertexId n : {5u, 9u, 33u}) {
    EXPECT_EQ(Tri(Wheel(n)), static_cast<std::uint64_t>(n) - 1) << "n=" << n;
  }
}

TEST(ClosedForm, GridIsTriangleFree) {
  const Graph g = GridLattice(8, 13);
  EXPECT_EQ(g.num_vertices(), 104u);
  EXPECT_EQ(Tri(g), 0u);
  // Interior grid edge count: w*(h-1) + h*(w-1).
  EXPECT_EQ(g.num_edges(), 8u * 12u + 13u * 7u);
}

TEST(ClosedForm, BipartiteIsTriangleFree) {
  const Graph g = CompleteBipartite(7, 9);
  EXPECT_EQ(g.num_edges(), 63u);
  EXPECT_EQ(Tri(g), 0u);
}

// --- random families -------------------------------------------------------

TEST(ErdosRenyi, HitsEdgeTarget) {
  const Graph g = ErdosRenyi(500, 3000, 1);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), 3000.0, 30.0);
  EXPECT_EQ(g.num_vertices(), 500u);
}

TEST(ErdosRenyi, DeterministicPerSeed) {
  const Graph a = ErdosRenyi(200, 1000, 9);
  const Graph b = ErdosRenyi(200, 1000, 9);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::equal(a.adjacency().begin(), a.adjacency().end(),
                         b.adjacency().begin()));
  const Graph c = ErdosRenyi(200, 1000, 10);
  EXPECT_FALSE(a.num_edges() == c.num_edges() &&
               std::equal(a.adjacency().begin(), a.adjacency().end(),
                          c.adjacency().begin()));
}

TEST(ErdosRenyi, CapsAtCompleteGraph) {
  const Graph g = ErdosRenyi(10, 1000000, 2);
  EXPECT_EQ(g.num_edges(), 45u);
}

TEST(ErdosRenyi, TriangleCountNearExpectation) {
  // E[T] = C(n,3) p^3 with p = m / C(n,2).
  const VertexId n = 400;
  const std::uint64_t m = 8000;
  const double p =
      static_cast<double>(m) / (static_cast<double>(n) * (n - 1) / 2);
  const double expected = static_cast<double>(n) * (n - 1) * (n - 2) / 6.0 *
                          p * p * p;
  double total = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    total += static_cast<double>(Tri(ErdosRenyi(n, m, seed)));
  }
  EXPECT_NEAR(total / 5.0, expected, expected * 0.35);
}

TEST(Rmat, HitsEdgeTargetApproximately) {
  const Graph g = Rmat(1 << 12, 40000, RmatParams{}, 3);
  EXPECT_GT(g.num_edges(), 39000u);
  EXPECT_LE(g.num_edges(), 40000u);
}

TEST(Rmat, DeterministicPerSeed) {
  const Graph a = Rmat(1024, 5000, RmatParams{}, 4);
  const Graph b = Rmat(1024, 5000, RmatParams{}, 4);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::equal(a.adjacency().begin(), a.adjacency().end(),
                         b.adjacency().begin()));
}

TEST(Rmat, SkewedDegreesVsErdosRenyi) {
  const Graph rmat = Rmat(4096, 30000, RmatParams{}, 5);
  const Graph er = ErdosRenyi(4096, 30000, 5);
  EXPECT_GT(rmat.max_degree(), 2 * er.max_degree());
}

TEST(Rmat, RejectsBadParams) {
  RmatParams p;
  p.a = 0.9;  // sums to 1.33
  EXPECT_THROW((void)Rmat(64, 100, p, 1), std::invalid_argument);
}

TEST(HolmeKim, ProducesTargetEdgesApproximately) {
  const Graph g = HolmeKim(2000, 16000, 0.6, 6);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), 16000.0, 1600.0);
}

TEST(HolmeKim, DeterministicPerSeed) {
  const Graph a = HolmeKim(500, 2500, 0.5, 7);
  const Graph b = HolmeKim(500, 2500, 0.5, 7);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::equal(a.adjacency().begin(), a.adjacency().end(),
                         b.adjacency().begin()));
}

TEST(HolmeKim, TriadClosureRaisesTriangleDensity) {
  const Graph low = HolmeKim(3000, 15000, 0.05, 8);
  const Graph high = HolmeKim(3000, 15000, 0.95, 8);
  EXPECT_GT(Tri(high), 2 * Tri(low));
}

TEST(HolmeKim, RejectsBadParams) {
  EXPECT_THROW((void)HolmeKim(2, 10, 0.5, 1), std::invalid_argument);
  EXPECT_THROW((void)HolmeKim(100, 10, 1.5, 1), std::invalid_argument);
}

TEST(WattsStrogatz, RingWithoutRewiringHasKnownTriangles) {
  // beta=0, half_k=2: each vertex connects to +-1, +-2; every vertex
  // contributes known local triangles: ring of n has n*(half_k choose 2)
  // ... for half_k=2 the count is exactly n (triangles i,i+1,i+2).
  const VertexId n = 100;
  const Graph g = WattsStrogatz(n, 2, 0.0, 1);
  EXPECT_EQ(g.num_edges(), static_cast<std::uint64_t>(n) * 2);
  EXPECT_EQ(Tri(g), static_cast<std::uint64_t>(n));
}

TEST(WattsStrogatz, RewiringReducesClustering) {
  const Graph ordered = WattsStrogatz(2000, 3, 0.0, 2);
  const Graph random = WattsStrogatz(2000, 3, 0.9, 2);
  EXPECT_LT(Tri(random), Tri(ordered) / 2);
}

TEST(WattsStrogatz, RejectsBadParams) {
  EXPECT_THROW((void)WattsStrogatz(10, 5, 0.1, 1), std::invalid_argument);
  EXPECT_THROW((void)WattsStrogatz(10, 0, 0.1, 1), std::invalid_argument);
}

TEST(GeometricRoad, LowDegreeAndFewTriangles) {
  const Graph g = GeometricRoad(10000, RoadParams{}, 3);
  EXPECT_LT(g.mean_degree(), 3.5);
  EXPECT_LE(g.max_degree(), 8u);
  // Road networks: triangles per edge well below social graphs.
  EXPECT_LT(static_cast<double>(Tri(g)),
            0.2 * static_cast<double>(g.num_edges()));
}

TEST(GeometricRoad, NoDiagonalsMeansNoTriangles) {
  RoadParams p;
  p.diag_p = 0.0;
  EXPECT_EQ(Tri(GeometricRoad(5000, p, 4)), 0u);
}

TEST(GeometricRoad, DeterministicPerSeed) {
  const Graph a = GeometricRoad(1000, RoadParams{}, 5);
  const Graph b = GeometricRoad(1000, RoadParams{}, 5);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::equal(a.adjacency().begin(), a.adjacency().end(),
                         b.adjacency().begin()));
}

/// Parameterized determinism + simple-graph invariants across all
/// random families.
struct GenCase {
  const char* name;
  Graph (*make)(std::uint64_t seed);
};

std::vector<GenCase> RandomFamilies() {
  return {
      {"erdos", [](std::uint64_t s) { return ErdosRenyi(300, 2000, s); }},
      {"rmat",
       [](std::uint64_t s) { return Rmat(512, 3000, RmatParams{}, s); }},
      {"holmekim",
       [](std::uint64_t s) { return HolmeKim(400, 2400, 0.6, s); }},
      {"wattsstrogatz",
       [](std::uint64_t s) { return WattsStrogatz(400, 3, 0.2, s); }},
      {"road",
       [](std::uint64_t s) { return GeometricRoad(900, RoadParams{}, s); }},
  };
}

class RandomFamilyTest : public ::testing::TestWithParam<GenCase> {};

TEST_P(RandomFamilyTest, ProducesSimpleGraph) {
  const Graph g = GetParam().make(11);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.Neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      ASSERT_NE(nbrs[i], v) << "self loop at " << v;
      if (i > 0) {
        ASSERT_LT(nbrs[i - 1], nbrs[i]) << "dup/unsorted at " << v;
      }
      ASSERT_TRUE(g.HasEdge(nbrs[i], v)) << "asymmetric at " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, RandomFamilyTest,
                         ::testing::ValuesIn(RandomFamilies()),
                         [](const auto& info) { return info.param.name; });

/// Parameterized by an index into RandomFamilies(). gtest prints a
/// GenCase parameter as its raw pointer bytes, which address-space
/// randomization changes from run to run; an index prints the same
/// every run, so these test names stay fixed.
class RandomFamilySeedTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RandomFamilySeedTest, SeedChangesGraph) {
  const GenCase family = RandomFamilies()[GetParam()];
  const Graph a = family.make(1);
  const Graph b = family.make(2);
  const bool identical =
      a.num_edges() == b.num_edges() &&
      std::equal(a.adjacency().begin(), a.adjacency().end(),
                 b.adjacency().begin());
  EXPECT_FALSE(identical);
}

INSTANTIATE_TEST_SUITE_P(
    Families, RandomFamilySeedTest,
    ::testing::Range<std::size_t>(0, RandomFamilies().size()),
    [](const auto& info) { return RandomFamilies()[info.param].name; });

}  // namespace
}  // namespace tcim::graph
