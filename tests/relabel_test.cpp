// Tests for load-time vertex relabeling (graph/relabel.h): bijection
// invariants of every order, triangle-count invariance, the growable
// original<->internal map, CountValidSlices against the built stores,
// the linear-time orders, NVS count and Apply against sort-based
// reference implementations, the ChooseRelabeling auto policy, and the
// stream delta mapping that keeps the rename invisible at the replay
// surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baseline/cpu_tc.h"
#include "bitmatrix/sliced_matrix.h"
#include "core/bitwise_tc.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/relabel.h"
#include "stream/edge_delta.h"
#include "util/rng.h"

namespace tcim::graph {
namespace {

Graph WheelPlusTail() {
  // Vertex 0 is the hub of a 6-spoke wheel; 7..9 form a path tail, so
  // degrees span 1..6 with ties among the rim vertices.
  GraphBuilder b(10);
  for (VertexId v = 1; v <= 6; ++v) b.AddEdge(0, v);
  for (VertexId v = 1; v <= 6; ++v) b.AddEdge(v, v % 6 + 1);
  b.AddEdge(6, 7);
  b.AddEdge(7, 8);
  b.AddEdge(8, 9);
  return std::move(b).Build();
}

Graph RandomGraph(VertexId n, std::uint64_t edges, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  GraphBuilder b(n);
  for (std::uint64_t e = 0; e < edges; ++e) {
    b.AddEdge(static_cast<VertexId>(rng.UniformBelow(n)),
              static_cast<VertexId>(rng.UniformBelow(n)));
  }
  return std::move(b).Build();
}

/// True when `map` is a bijection of [0, n) onto [0, n).
void ExpectBijection(const VertexRelabeling& map, VertexId n) {
  ASSERT_EQ(map.size(), n);
  std::vector<bool> seen(n, false);
  for (VertexId internal = 0; internal < n; ++internal) {
    const VertexId original = map.ToOriginal(internal);
    ASSERT_LT(original, n);
    EXPECT_FALSE(seen[original]) << "original " << original << " twice";
    seen[original] = true;
    ASSERT_TRUE(map.FindInternal(original).has_value());
    EXPECT_EQ(*map.FindInternal(original), internal);
  }
}

TEST(VertexRelabeling, IdentityMapsEveryIdToItself) {
  const VertexRelabeling map = VertexRelabeling::Identity(17);
  ExpectBijection(map, 17);
  EXPECT_TRUE(map.IsIdentity());
  for (VertexId v = 0; v < 17; ++v) EXPECT_EQ(map.ToOriginal(v), v);
}

TEST(VertexRelabeling, DegreeAscendingIsABijectionInDegreeOrder) {
  const Graph g = WheelPlusTail();
  const VertexRelabeling map = VertexRelabeling::DegreeAscending(g);
  ExpectBijection(map, g.num_vertices());
  for (VertexId internal = 1; internal < map.size(); ++internal) {
    const VertexId prev = map.ToOriginal(internal - 1);
    const VertexId cur = map.ToOriginal(internal);
    const std::uint64_t dp = g.Degree(prev);
    const std::uint64_t dc = g.Degree(cur);
    EXPECT_TRUE(dp < dc || (dp == dc && prev < cur))
        << "internal " << internal << ": degree order violated";
  }
  // Ascending: the hub gets the HIGHEST internal id, so under kUpper
  // every edge points toward its higher-degree endpoint.
  EXPECT_EQ(map.ToOriginal(map.size() - 1), 0u);
}

TEST(VertexRelabeling, BfsFromHubsVisitsEveryVertexHubFirst) {
  const Graph g = WheelPlusTail();
  const VertexRelabeling map = VertexRelabeling::BfsFromHubs(g);
  ExpectBijection(map, g.num_vertices());
  // The traversal seeds at the highest-degree vertex (the hub).
  EXPECT_EQ(map.ToOriginal(0), 0u);
  // Disconnected vertices still get ids (seed loop covers them).
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  const Graph two_islands = std::move(b).Build();
  ExpectBijection(VertexRelabeling::BfsFromHubs(two_islands), 5);
}

TEST(VertexRelabeling, ApplyPreservesStructure) {
  const Graph g = RandomGraph(120, 700, 11);
  for (const VertexRelabeling& map :
       {VertexRelabeling::DegreeAscending(g), VertexRelabeling::BfsFromHubs(g)}) {
    const Graph h = map.Apply(g);
    ASSERT_EQ(h.num_vertices(), g.num_vertices());
    ASSERT_EQ(h.num_edges(), g.num_edges());
    // Degrees follow the vertices through the rename...
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(h.Degree(*map.FindInternal(v)), g.Degree(v));
    }
    // ...and so do the triangles.
    EXPECT_EQ(baseline::CountTrianglesReference(h),
              baseline::CountTrianglesReference(g));
  }
}

TEST(VertexRelabeling, SlicedCountInvariantUnderRelabeling) {
  // The full Eq. (5) pipeline counts identically on the renamed graph —
  // the invariance the CLI's --relabel flag relies on.
  for (const PaperRef& ref : AllPaperRefs()) {
    const DatasetInstance inst = SynthesizePaperGraph(ref.id, 0.02, 42);
    const std::uint64_t expected =
        baseline::CountTrianglesReference(inst.graph);
    for (const RelabelMode mode :
         {RelabelMode::kDegree, RelabelMode::kBfs, RelabelMode::kAuto}) {
      RelabelChoice choice = ChooseRelabeling(inst.graph, mode, 64);
      const Graph renamed = choice.map.Apply(inst.graph);
      const bit::SlicedMatrix matrix =
          core::BuildSlicedMatrix(renamed, Orientation::kUpper, 64);
      EXPECT_EQ(matrix.AndPopcountAllEdges(), expected)
          << ref.name << " mode=" << ToString(mode);
    }
  }
}

TEST(VertexRelabeling, ToInternalGrowsOnFirstSight) {
  VertexRelabeling map;
  EXPECT_EQ(map.size(), 0u);
  // Sparse originals arrive in arbitrary order; internals stay dense.
  EXPECT_EQ(map.ToInternal(1000), 0u);
  EXPECT_EQ(map.ToInternal(5), 1u);
  EXPECT_EQ(map.ToInternal(1000), 0u);  // idempotent
  EXPECT_EQ(map.ToInternal(0), 2u);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.ToOriginal(0), 1000u);
  EXPECT_EQ(map.ToOriginal(2), 0u);
  EXPECT_FALSE(map.FindInternal(999).has_value());
  EXPECT_FALSE(map.FindInternal(1001).has_value());
  EXPECT_FALSE(map.IsIdentity());  // 1000 -> 0
  EXPECT_THROW((void)map.ToOriginal(3), std::out_of_range);
}

TEST(VertexRelabeling, ToInternalRejectsTheLargestIdWithoutGrowing) {
  // 0xFFFFFFFF is both out of any graph's range and the map's own
  // "unassigned" marker: growing to it would allocate 2^32 slots.
  constexpr VertexId kMax = std::numeric_limits<VertexId>::max();
  VertexRelabeling map;
  EXPECT_EQ(map.ToInternal(40), 0u);
  EXPECT_EQ(map.ToInternal(3), 1u);
  try {
    (void)map.ToInternal(kMax);
    ADD_FAILURE() << "ToInternal(" << kMax << ") did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("out of range (max 4294967294)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(*map.FindInternal(40), 0u);
  EXPECT_EQ(*map.FindInternal(3), 1u);
  EXPECT_EQ(map.ToOriginal(0), 40u);
  EXPECT_EQ(map.ToOriginal(1), 3u);
  EXPECT_FALSE(map.FindInternal(kMax).has_value());
  EXPECT_FALSE(map.FindInternal(41).has_value());
  // The map keeps growing normally afterwards.
  EXPECT_EQ(map.ToInternal(41), 2u);
  EXPECT_EQ(map.size(), 3u);
}

TEST(VertexRelabeling, ApplyThrowsOnUnmappedVertices) {
  const Graph g = WheelPlusTail();
  VertexRelabeling partial;
  (void)partial.ToInternal(0);
  EXPECT_THROW((void)partial.Apply(g), std::invalid_argument);
  // An unmapped vertex throws even when it has no edges.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  const Graph isolated_tail = std::move(b).Build();
  VertexRelabeling edges_only;
  for (const VertexId v : {1u, 0u, 2u}) (void)edges_only.ToInternal(v);
  EXPECT_THROW((void)edges_only.Apply(isolated_tail), std::invalid_argument);
  EXPECT_THROW((void)CountValidSlices(isolated_tail, edges_only, 64),
               std::invalid_argument);
}

TEST(CountValidSlices, MatchesBuiltStoreStats) {
  // The O(V + E) CSR-walk NVS must equal the row+col valid-slice
  // count of the actually-built kUpper matrix, for identity and for
  // every relabeling, across slice widths.
  const Graph g = RandomGraph(300, 2500, 77);
  for (const std::uint32_t slice_bits : {64u, 128u, 512u}) {
    for (const RelabelMode mode :
         {RelabelMode::kNone, RelabelMode::kDegree, RelabelMode::kBfs}) {
      RelabelChoice choice = ChooseRelabeling(g, mode, slice_bits);
      const std::uint64_t predicted =
          CountValidSlices(g, choice.map, slice_bits);
      const Graph renamed = choice.map.Apply(g);
      const bit::SliceStats stats =
          core::BuildSlicedMatrix(renamed, Orientation::kUpper, slice_bits)
              .ComputeStats();
      EXPECT_EQ(predicted, stats.row_valid_slices + stats.col_valid_slices)
          << "slice_bits=" << slice_bits << " mode=" << ToString(mode);
    }
  }
  EXPECT_THROW(
      (void)CountValidSlices(g, VertexRelabeling::Identity(1), 64),
      std::invalid_argument);  // unmapped vertices
  EXPECT_THROW(
      (void)CountValidSlices(g, VertexRelabeling::Identity(g.num_vertices()),
                             0),
      std::invalid_argument);
}

// --- sort-based references ---------------------------------------------
// The O(E log E) / O(n log n) implementations the linear-time ones
// replaced. Every output of the library must match them exactly.

/// NVS as the count of distinct (vector, block) keys per store.
std::uint64_t ReferenceValidSlices(const Graph& g, const VertexRelabeling& map,
                                   std::uint32_t slice_bits) {
  std::vector<std::uint64_t> row_keys;
  std::vector<std::uint64_t> col_keys;
  g.ForEachEdge([&](VertexId u, VertexId v) {
    VertexId iu = *map.FindInternal(u);
    VertexId iv = *map.FindInternal(v);
    if (iu > iv) std::swap(iu, iv);
    row_keys.push_back((static_cast<std::uint64_t>(iu) << 32) |
                       (iv / slice_bits));
    col_keys.push_back((static_cast<std::uint64_t>(iv) << 32) |
                       (iu / slice_bits));
  });
  const auto distinct = [](std::vector<std::uint64_t>& keys) {
    std::sort(keys.begin(), keys.end());
    return static_cast<std::uint64_t>(
        std::unique(keys.begin(), keys.end()) - keys.begin());
  };
  return distinct(row_keys) + distinct(col_keys);
}

/// Vertex ids sorted by degree (ascending or descending), ties by id.
std::vector<VertexId> ReferenceDegreeOrder(const Graph& g, bool ascending) {
  std::vector<VertexId> order(g.num_vertices());
  std::iota(order.begin(), order.end(), VertexId{0});
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    const std::uint64_t da = g.Degree(a);
    const std::uint64_t db = g.Degree(b);
    if (da != db) return ascending ? da < db : da > db;
    return a < b;
  });
  return order;
}

/// BFS visit order seeded from the highest-degree unvisited vertex.
std::vector<VertexId> ReferenceBfsOrder(const Graph& g) {
  std::vector<bool> seen(g.num_vertices(), false);
  std::vector<VertexId> order;
  std::deque<VertexId> queue;
  const auto visit = [&](VertexId v) {
    if (seen[v]) return;
    seen[v] = true;
    order.push_back(v);
    queue.push_back(v);
  };
  for (const VertexId seed : ReferenceDegreeOrder(g, false)) {
    visit(seed);
    while (!queue.empty()) {
      const VertexId u = queue.front();
      queue.pop_front();
      for (const VertexId v : g.Neighbors(u)) visit(v);
    }
  }
  return order;
}

/// Apply through GraphBuilder: rename every edge, then sort + rebuild.
Graph ReferenceApply(const Graph& g, const VertexRelabeling& map) {
  GraphBuilder builder(map.size());
  g.ForEachEdge([&](VertexId u, VertexId v) {
    builder.AddEdge(*map.FindInternal(u), *map.FindInternal(v));
  });
  return std::move(builder).Build();
}

void ExpectSameCsr(const Graph& actual, const Graph& expected) {
  ASSERT_EQ(actual.num_vertices(), expected.num_vertices());
  EXPECT_EQ(actual.max_degree(), expected.max_degree());
  const auto same = [](auto a, auto b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  EXPECT_TRUE(same(actual.offsets(), expected.offsets()));
  EXPECT_TRUE(same(actual.adjacency(), expected.adjacency()));
}

std::vector<VertexId> Ids(std::span<const VertexId> span) {
  return {span.begin(), span.end()};
}

/// Graphs covering the orders' corner cases: degree ties everywhere
/// (clique, lattice), isolated vertices, hubs, and the empty graph.
std::vector<std::pair<std::string, Graph>> OracleGraphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("road", GeometricRoad(3000, RoadParams{}, 7));
  graphs.emplace_back("community",
                      CommunityCliques(2000, 16000, CommunityParams{}, 8));
  graphs.emplace_back(
      "community-hubs",
      CommunityCliques(2000, 16000, CommunityParams{40, 0.1, 0.3}, 9));
  graphs.emplace_back("rmat-hubs", Rmat(4096, 20000, RmatParams{}, 10));
  graphs.emplace_back("clique", Complete(48));
  graphs.emplace_back("wheel-tail", WheelPlusTail());
  GraphBuilder sparse(600);  // two thirds of the vertices isolated
  for (VertexId v = 0; v + 3 < 600; v += 3) sparse.AddEdge(v, (v * 7) % 600);
  graphs.emplace_back("mostly-isolated", std::move(sparse).Build());
  graphs.emplace_back("edgeless", GraphBuilder(9).Build());
  graphs.emplace_back("empty", Graph{});
  return graphs;
}

TEST(RelabelOracle, DegreeAndBfsOrdersMatchTheSortedReferences) {
  for (const auto& [name, g] : OracleGraphs()) {
    EXPECT_EQ(Ids(VertexRelabeling::DegreeAscending(g).old_of_new()),
              ReferenceDegreeOrder(g, true))
        << name;
    EXPECT_EQ(Ids(VertexRelabeling::BfsFromHubs(g).old_of_new()),
              ReferenceBfsOrder(g))
        << name;
  }
}

TEST(RelabelOracle, ValidSlicesAndApplyMatchTheReferencesOnEveryMap) {
  for (const auto& [name, g] : OracleGraphs()) {
    const VertexId n = g.num_vertices();
    VertexRelabeling shuffled;
    std::vector<VertexId> order(n);
    std::iota(order.begin(), order.end(), VertexId{0});
    util::Xoshiro256 rng(n);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.UniformBelow(i)]);
    }
    for (const VertexId v : order) (void)shuffled.ToInternal(v);
    // Grown past n by stream-style growth: ids n+5 and n+1 are vertices
    // g never had, so the applied graph gains empty rows.
    VertexRelabeling grown = VertexRelabeling::DegreeAscending(g);
    (void)grown.ToInternal(n + 5);
    (void)grown.ToInternal(n + 1);
    ASSERT_EQ(grown.size(), n + 2);
    const std::vector<std::pair<std::string, VertexRelabeling>> maps = {
        {"identity", VertexRelabeling::Identity(n)},
        {"degree", VertexRelabeling::DegreeAscending(g)},
        {"bfs", VertexRelabeling::BfsFromHubs(g)},
        {"shuffled", shuffled},
        {"grown", grown}};
    for (const auto& [map_name, map] : maps) {
      SCOPED_TRACE(name + "/" + map_name);
      for (const std::uint32_t slice_bits : {1u, 7u, 64u, 512u}) {
        EXPECT_EQ(CountValidSlices(g, map, slice_bits),
                  ReferenceValidSlices(g, map, slice_bits))
            << "slice_bits=" << slice_bits;
      }
      ExpectSameCsr(map.Apply(g), ReferenceApply(g, map));
    }
  }
}

TEST(RelabelOracle, ChoiceMatchesTheReferenceScores) {
  for (const auto& [name, g] : OracleGraphs()) {
    const RelabelChoice choice = ChooseRelabeling(g, RelabelMode::kAuto, 64);
    const std::uint64_t identity =
        ReferenceValidSlices(g, VertexRelabeling::Identity(g.num_vertices()),
                             64);
    EXPECT_EQ(choice.identity_valid_slices, identity) << name;
    EXPECT_EQ(choice.chosen_valid_slices,
              ReferenceValidSlices(g, choice.map, 64))
        << name;
  }
}

TEST(ChooseRelabeling, AutoNeverLosesToIdentity) {
  for (const PaperRef& ref : AllPaperRefs()) {
    const DatasetInstance inst = SynthesizePaperGraph(ref.id, 0.02, 42);
    const RelabelChoice choice =
        ChooseRelabeling(inst.graph, RelabelMode::kAuto, 64);
    EXPECT_NE(choice.applied, RelabelMode::kAuto) << ref.name;
    EXPECT_LE(choice.chosen_valid_slices, choice.identity_valid_slices)
        << ref.name;
    EXPECT_LE(choice.ValidSliceRatio(), 1.0) << ref.name;
    if (choice.applied == RelabelMode::kNone) {
      EXPECT_TRUE(choice.map.IsIdentity()) << ref.name;
      EXPECT_EQ(choice.chosen_valid_slices, choice.identity_valid_slices);
    }
  }
}

TEST(ChooseRelabeling, ExplicitModesAreHonoredUnconditionally) {
  const Graph g = RandomGraph(200, 1200, 5);
  const RelabelChoice none = ChooseRelabeling(g, RelabelMode::kNone, 64);
  EXPECT_EQ(none.applied, RelabelMode::kNone);
  EXPECT_TRUE(none.map.IsIdentity());
  EXPECT_EQ(none.chosen_valid_slices, none.identity_valid_slices);

  const RelabelChoice degree = ChooseRelabeling(g, RelabelMode::kDegree, 64);
  EXPECT_EQ(degree.applied, RelabelMode::kDegree);
  EXPECT_EQ(degree.chosen_valid_slices,
            CountValidSlices(g, degree.map, 64));

  const RelabelChoice bfs = ChooseRelabeling(g, RelabelMode::kBfs, 64);
  EXPECT_EQ(bfs.applied, RelabelMode::kBfs);

  // Auto picks the minimum of the three scored orders.
  const RelabelChoice chosen = ChooseRelabeling(g, RelabelMode::kAuto, 64);
  EXPECT_EQ(chosen.chosen_valid_slices,
            std::min({chosen.identity_valid_slices, degree.chosen_valid_slices,
                      bfs.chosen_valid_slices}));
}

TEST(ChooseRelabeling, NoneScoresNothingAndReturnsTheIdentityMap) {
  const Graph g = RandomGraph(200, 1200, 5);
  const RelabelChoice none = ChooseRelabeling(g, RelabelMode::kNone, 64);
  EXPECT_EQ(none.applied, RelabelMode::kNone);
  EXPECT_EQ(none.identity_valid_slices, 0u);
  EXPECT_EQ(none.chosen_valid_slices, 0u);
  EXPECT_EQ(none.ValidSliceRatio(), 1.0);
  ASSERT_EQ(none.map.size(), g.num_vertices());
  EXPECT_TRUE(none.map.IsIdentity());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(*none.map.FindInternal(v), v);
  }
  // The explicit orders still score identity for their ratio.
  const RelabelChoice degree = ChooseRelabeling(g, RelabelMode::kDegree, 64);
  EXPECT_EQ(degree.identity_valid_slices,
            CountValidSlices(g, VertexRelabeling::Identity(g.num_vertices()),
                             64));
}

TEST(RelabelMode, NamesRoundTrip) {
  for (const RelabelMode mode : {RelabelMode::kNone, RelabelMode::kDegree,
                                 RelabelMode::kBfs, RelabelMode::kAuto}) {
    const auto parsed = ParseRelabelMode(ToString(mode));
    ASSERT_TRUE(parsed.has_value()) << ToString(mode);
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(ParseRelabelMode("").has_value());
  EXPECT_FALSE(ParseRelabelMode("Degree").has_value());
  EXPECT_FALSE(ParseRelabelMode("random").has_value());
}

TEST(RelabelByDegree, ReturnsRenamedGraphAndMap) {
  const Graph g = WheelPlusTail();
  VertexRelabeling map;
  const Graph renamed = RelabelByDegree(g, &map);
  ExpectBijection(map, g.num_vertices());
  EXPECT_EQ(renamed.num_edges(), g.num_edges());
  EXPECT_EQ(baseline::CountTrianglesReference(renamed),
            baseline::CountTrianglesReference(g));
  // The hub (original 0, max degree) lands on the top internal id.
  EXPECT_EQ(*map.FindInternal(0), g.num_vertices() - 1);
}

TEST(MapToInternal, RewritesDeltasAndGrowsTheMap) {
  const Graph g = WheelPlusTail();
  VertexRelabeling map;
  const Graph renamed = RelabelByDegree(g, &map);
  (void)renamed;
  stream::EdgeDelta delta;
  delta.Insert(0, 3);
  delta.Erase(7, 8);
  delta.Insert(500, 0);  // vertex the loaded graph never saw
  const stream::EdgeDelta internal = stream::MapToInternal(delta, map);
  ASSERT_EQ(internal.size(), 3u);
  EXPECT_EQ(internal.ops[0].u, *map.FindInternal(0));
  EXPECT_EQ(internal.ops[0].v, *map.FindInternal(3));
  EXPECT_EQ(internal.ops[1].u, *map.FindInternal(7));
  EXPECT_EQ(internal.ops[1].v, *map.FindInternal(8));
  // 500 was assigned the next free internal id, and the map remembers.
  ASSERT_TRUE(map.FindInternal(500).has_value());
  EXPECT_EQ(*map.FindInternal(500), g.num_vertices());
  EXPECT_EQ(map.ToOriginal(g.num_vertices()), 500u);
  EXPECT_EQ(internal.ops[2].u, g.num_vertices());
}

TEST(Relabeling, PerVertexReportingIsInvisibleThroughTheInverseMap) {
  // The round-trip the CLI's top-degree report relies on: the
  // (original id, degree) multiset read through the inverse map off a
  // relabeled graph equals the same read off the unrelabeled graph.
  const Graph g = RandomGraph(150, 900, 321);
  RelabelChoice choice = ChooseRelabeling(g, RelabelMode::kDegree, 64);
  const Graph renamed = choice.map.Apply(g);
  std::vector<std::pair<VertexId, std::uint64_t>> direct;
  std::vector<std::pair<VertexId, std::uint64_t>> via_map;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    direct.emplace_back(v, g.Degree(v));
    via_map.emplace_back(choice.map.ToOriginal(v), renamed.Degree(v));
  }
  std::sort(via_map.begin(), via_map.end());
  EXPECT_EQ(direct, via_map);
}

}  // namespace
}  // namespace tcim::graph
