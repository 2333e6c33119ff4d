// Tests for DAG orientation (paper §III): arc counts, acyclicity,
// degree-order properties, and triangle-count equivalence across
// orientations.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "baseline/cpu_tc.h"
#include "graph/generators.h"
#include "graph/orientation.h"

namespace tcim::graph {
namespace {

TEST(Orientation, ToStringNames) {
  EXPECT_EQ(ToString(Orientation::kUpper), "upper");
  EXPECT_EQ(ToString(Orientation::kDegree), "degree");
  EXPECT_EQ(ToString(Orientation::kFullSymmetric), "full");
}

TEST(Orientation, CountMultipliers) {
  EXPECT_EQ(CountMultiplier(Orientation::kUpper), 1u);
  EXPECT_EQ(CountMultiplier(Orientation::kDegree), 1u);
  EXPECT_EQ(CountMultiplier(Orientation::kFullSymmetric), 6u);
}

TEST(Orientation, UpperKeepsOneArcPerEdge) {
  const Graph g = ErdosRenyi(200, 1500, 1);
  const OrientedCsr dag = Orient(g, Orientation::kUpper);
  EXPECT_EQ(dag.arc_count(), g.num_edges());
  for (VertexId u = 0; u < dag.num_vertices; ++u) {
    for (std::uint64_t e = dag.offsets[u]; e < dag.offsets[u + 1]; ++e) {
      ASSERT_LT(u, dag.neighbors[e]);  // arc points to larger id
    }
  }
}

TEST(Orientation, FullKeepsBothArcs) {
  const Graph g = ErdosRenyi(200, 1500, 2);
  const OrientedCsr full = Orient(g, Orientation::kFullSymmetric);
  EXPECT_EQ(full.arc_count(), 2 * g.num_edges());
}

TEST(Orientation, DegreeKeepsOneArcPerEdge) {
  const Graph g = Rmat(512, 4000, RmatParams{}, 3);
  const OrientedCsr dag = Orient(g, Orientation::kDegree);
  EXPECT_EQ(dag.arc_count(), g.num_edges());
}

TEST(Orientation, DegreeRelabelIsAPermutation) {
  const Graph g = Rmat(256, 2000, RmatParams{}, 4);
  const OrientedCsr dag = Orient(g, Orientation::kDegree);
  ASSERT_EQ(dag.relabel.size(), g.num_vertices());
  std::vector<bool> seen(g.num_vertices(), false);
  for (const VertexId r : dag.relabel) {
    ASSERT_LT(r, g.num_vertices());
    ASSERT_FALSE(seen[r]);
    seen[r] = true;
  }
}

TEST(Orientation, DegreeArcsPointToHigherRank) {
  const Graph g = HolmeKim(300, 1800, 0.5, 5);
  const OrientedCsr dag = Orient(g, Orientation::kDegree);
  for (VertexId u = 0; u < dag.num_vertices; ++u) {
    for (std::uint64_t e = dag.offsets[u]; e < dag.offsets[u + 1]; ++e) {
      ASSERT_LT(u, dag.neighbors[e]);  // ranks are the new ids
    }
  }
}

TEST(Orientation, DegreeBoundsHubOutDegree) {
  // A star: the hub has degree n-1 but rank-orientation gives it
  // out-degree 0 (every leaf has smaller degree).
  const Graph g = Star(1000);
  const OrientedCsr upper = Orient(g, Orientation::kUpper);
  const OrientedCsr degree = Orient(g, Orientation::kDegree);
  EXPECT_EQ(upper.MaxOutDegree(), 999u);  // hub is vertex 0
  EXPECT_EQ(degree.MaxOutDegree(), 1u);   // leaves each point at the hub
}

TEST(Orientation, DegreeReducesMaxOutDegreeOnSkewedGraphs) {
  const Graph g = Rmat(2048, 20000, RmatParams{}, 6);
  const OrientedCsr upper = Orient(g, Orientation::kUpper);
  const OrientedCsr degree = Orient(g, Orientation::kDegree);
  EXPECT_LT(degree.MaxOutDegree(), upper.MaxOutDegree());
}

TEST(Orientation, PreservesDegreeSums) {
  const Graph g = ErdosRenyi(150, 900, 7);
  for (const Orientation o :
       {Orientation::kUpper, Orientation::kDegree}) {
    const OrientedCsr dag = Orient(g, o);
    // Out-degree + in-degree must equal the undirected degree; check
    // via total arcs and per-vertex conservation through the relabel.
    std::vector<std::uint64_t> in_deg(g.num_vertices(), 0);
    for (const VertexId v : dag.neighbors) ++in_deg[v];
    for (VertexId u = 0; u < dag.num_vertices; ++u) {
      const std::uint64_t out_deg = dag.offsets[u + 1] - dag.offsets[u];
      const VertexId old_id =
          o == Orientation::kUpper
              ? u
              : [&] {
                  for (VertexId x = 0; x < g.num_vertices(); ++x) {
                    if (dag.relabel[x] == u) return x;
                  }
                  return VertexId{0};
                }();
      ASSERT_EQ(out_deg + in_deg[u], g.Degree(old_id)) << "u=" << u;
    }
  }
}

TEST(Orientation, RowsAreSortedStrictlyIncreasing) {
  const Graph g = HolmeKim(400, 2400, 0.6, 8);
  for (const Orientation o : {Orientation::kUpper, Orientation::kDegree,
                              Orientation::kFullSymmetric}) {
    const OrientedCsr dag = Orient(g, o);
    for (VertexId u = 0; u < dag.num_vertices; ++u) {
      for (std::uint64_t e = dag.offsets[u] + 1; e < dag.offsets[u + 1];
           ++e) {
        ASSERT_LT(dag.neighbors[e - 1], dag.neighbors[e]);
      }
    }
  }
}

// The sort-based kDegree orientation Orient replaced, kept as the
// oracle: rank by std::sort on (degree, id), scatter arcs, then sort
// every row.
OrientedCsr SortBasedOrientDegree(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    const auto da = g.Degree(a);
    const auto db = g.Degree(b);
    return da != db ? da < db : a < b;
  });
  std::vector<VertexId> rank(n);
  for (VertexId pos = 0; pos < n; ++pos) rank[order[pos]] = pos;

  OrientedCsr out;
  out.num_vertices = n;
  out.orientation = Orientation::kDegree;
  out.relabel = rank;
  out.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId v : g.Neighbors(u)) {
      if (rank[v] > rank[u]) ++out.offsets[rank[u] + 1];
    }
  }
  for (VertexId v = 0; v < n; ++v) out.offsets[v + 1] += out.offsets[v];
  out.neighbors.assign(g.num_edges(), 0);
  std::vector<std::uint64_t> cursor(out.offsets.begin(),
                                    out.offsets.end() - 1);
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId v : g.Neighbors(u)) {
      if (rank[v] > rank[u]) out.neighbors[cursor[rank[u]]++] = rank[v];
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    std::sort(out.neighbors.begin() +
                  static_cast<std::ptrdiff_t>(out.offsets[v]),
              out.neighbors.begin() +
                  static_cast<std::ptrdiff_t>(out.offsets[v + 1]));
  }
  return out;
}

TEST(Orientation, DegreeMatchesSortBasedOracle) {
  struct Case {
    const char* name;
    Graph g;
  };
  const Case cases[] = {
      {"empty", Graph{}},
      {"star", Star(50)},
      {"complete", Complete(12)},
      {"grid", GridLattice(25, 17)},
      {"erdos", ErdosRenyi(700, 5000, 4)},
      {"rmat", Rmat(1024, 9000, RmatParams{}, 4)},
      {"holmekim", HolmeKim(900, 7000, 0.6, 4)},
      {"smallworld", WattsStrogatz(800, 4, 0.3, 4)},
      {"community", CommunityCliques(900, 8000, CommunityParams{}, 4)},
      {"road", GeometricRoad(2500, RoadParams{}, 4)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const OrientedCsr got = Orient(c.g, Orientation::kDegree);
    const OrientedCsr want = SortBasedOrientDegree(c.g);
    EXPECT_EQ(got.num_vertices, want.num_vertices);
    EXPECT_EQ(got.orientation, want.orientation);
    EXPECT_EQ(got.offsets, want.offsets);
    EXPECT_EQ(got.neighbors, want.neighbors);
    EXPECT_EQ(got.relabel, want.relabel);
  }
}

}  // namespace
}  // namespace tcim::graph
