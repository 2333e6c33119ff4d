// Property-based tests: randomized graph families swept over seeds,
// asserting the invariants that hold for *every* input —
//  (1) all TC implementations agree,
//  (2) Eq. (5) bookkeeping identities,
//  (3) slicing statistics conservation,
//  (4) cache statistics conservation and capacity monotonicity,
//  (5) incremental counts over randomized update batches equal a full
//      CPU recount of the evolved graph,
//  (6) concurrent epoch-pinned reads during a randomized update stream
//      match a sequential replay at every published epoch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/cpu_tc.h"
#include "core/accelerator.h"
#include "core/bitwise_tc.h"
#include "core/pipeline.h"
#include "graph/generators.h"
#include "graph/orientation.h"
#include "graph/stats.h"
#include "runtime/epoch_manager.h"
#include "runtime/stream_session.h"
#include "stream/incremental_counter.h"
#include "util/rng.h"

namespace tcim {
namespace {

using graph::Graph;
using graph::Orientation;

struct FamilyCase {
  const char* name;
  Graph (*make)(std::uint64_t seed);
};

const FamilyCase kFamilies[] = {
    {"erdos_sparse",
     [](std::uint64_t s) { return graph::ErdosRenyi(400, 1200, s); }},
    {"erdos_dense",
     [](std::uint64_t s) { return graph::ErdosRenyi(150, 5000, s); }},
    {"rmat",
     [](std::uint64_t s) {
       return graph::Rmat(512, 4000, graph::RmatParams{}, s);
     }},
    {"holmekim_clustered",
     [](std::uint64_t s) { return graph::HolmeKim(350, 2800, 0.9, s); }},
    {"holmekim_flat",
     [](std::uint64_t s) { return graph::HolmeKim(350, 2800, 0.1, s); }},
    {"smallworld",
     [](std::uint64_t s) { return graph::WattsStrogatz(500, 4, 0.3, s); }},
    {"road",
     [](std::uint64_t s) {
       return graph::GeometricRoad(1200, graph::RoadParams{}, s);
     }},
};

class FamilySeedTest
    : public ::testing::TestWithParam<std::tuple<FamilyCase, std::uint64_t>> {
 protected:
  Graph MakeGraph() const {
    return std::get<0>(GetParam()).make(std::get<1>(GetParam()));
  }
};

TEST_P(FamilySeedTest, AllCountingPathsAgree) {
  const Graph g = MakeGraph();
  const std::uint64_t expected =
      CountTriangles(g, baseline::TcAlgorithm::kEdgeIteratorMerge);
  EXPECT_EQ(CountTriangles(g, baseline::TcAlgorithm::kNodeIterator),
            expected);
  EXPECT_EQ(CountTriangles(g, baseline::TcAlgorithm::kEdgeIteratorMark),
            expected);
  EXPECT_EQ(CountTriangles(g, baseline::TcAlgorithm::kForward), expected);
  EXPECT_EQ(CountTriangles(g, baseline::TcAlgorithm::kDenseTrace),
            expected);
  EXPECT_EQ(core::CountTrianglesDense(g), expected);
  core::CountRequest host;
  host.passes = core::Passes::kHost;
  EXPECT_EQ(core::CountGraph(g, host).triangles, expected);

  core::TcimConfig c;
  c.array.capacity_bytes = 1ULL << 20;
  EXPECT_EQ(core::TcimAccelerator{c}.Run(g).triangles, expected);
}

TEST_P(FamilySeedTest, Equation5IdentityAcrossOrientations) {
  const Graph g = MakeGraph();
  const std::uint64_t t = baseline::CountTrianglesReference(g);
  // Upper and degree orientations count each triangle once; the full
  // symmetric matrix counts it six times (paper Eq. (1) vs Fig. 2).
  const bit::SlicedMatrix upper =
      core::BuildSlicedMatrix(g, Orientation::kUpper, 64);
  const bit::SlicedMatrix degree =
      core::BuildSlicedMatrix(g, Orientation::kDegree, 64);
  const bit::SlicedMatrix full =
      core::BuildSlicedMatrix(g, Orientation::kFullSymmetric, 64);
  EXPECT_EQ(upper.AndPopcountAllEdges(), t);
  EXPECT_EQ(degree.AndPopcountAllEdges(), t);
  EXPECT_EQ(full.AndPopcountAllEdges(), 6 * t);
}

TEST_P(FamilySeedTest, SliceStatsConservation) {
  const Graph g = MakeGraph();
  const bit::SlicedMatrix m =
      core::BuildSlicedMatrix(g, Orientation::kUpper, 64);
  const bit::SliceStats s = m.ComputeStats();
  EXPECT_EQ(s.edges, g.num_edges());
  EXPECT_EQ(s.total_pairs, s.edges * m.rows().slices_per_vector());
  EXPECT_LE(s.valid_pairs, s.total_pairs);
  EXPECT_LE(s.touched_row_slices, s.row_valid_slices);
  EXPECT_LE(s.touched_col_slices, s.col_valid_slices);
  // Every set bit lives in exactly one valid slice; slices are
  // non-empty.
  EXPECT_LE(s.row_valid_slices, g.num_edges());
  EXPECT_LE(s.col_valid_slices, g.num_edges());
  EXPECT_EQ(m.rows().set_bit_count(), g.num_edges());
  EXPECT_EQ(m.cols().set_bit_count(), g.num_edges());
  EXPECT_EQ(s.CompressedBytes(),
            (s.row_valid_slices + s.col_valid_slices) * 12);
}

TEST_P(FamilySeedTest, ExecStatsConservation) {
  const Graph g = MakeGraph();
  core::TcimConfig c;
  c.array.capacity_bytes = 512ULL << 10;
  const core::TcimResult r = core::TcimAccelerator{c}.Run(g);
  EXPECT_EQ(r.exec.cache.hits + r.exec.cache.misses, r.exec.valid_pairs);
  EXPECT_EQ(r.exec.col_slice_writes, r.exec.cache.misses);
  EXPECT_LE(r.exec.cache.exchanges, r.exec.cache.misses);
  EXPECT_EQ(r.exec.valid_pairs, r.slices.valid_pairs);
  EXPECT_EQ(r.exec.edges_processed, g.num_edges());
  // Misses can never be fewer than the distinct column slices touched.
  EXPECT_GE(r.exec.cache.misses, r.slices.touched_col_slices);
  // Triangles bound: at most wedges/3.
  EXPECT_LE(3 * r.triangles, graph::WedgeCount(g));
}

TEST_P(FamilySeedTest, CapacityMonotonicity) {
  const Graph g = MakeGraph();
  std::uint64_t prev_exchanges = ~0ULL;
  for (const std::uint64_t capacity :
       {64ULL << 10, 256ULL << 10, 2ULL << 20}) {
    core::TcimConfig c;
    c.array.capacity_bytes = capacity;
    const core::TcimResult r = core::TcimAccelerator{c}.Run(g);
    // Growing the array can only reduce eviction pressure.
    EXPECT_LE(r.exec.cache.exchanges, prev_exchanges)
        << "capacity=" << capacity;
    prev_exchanges = r.exec.cache.exchanges;
  }
}

TEST_P(FamilySeedTest, IncrementalCountMatchesFullRecount) {
  const Graph g = MakeGraph();
  const std::uint64_t param_seed = std::get<1>(GetParam());
  // Three stream sessions, one per maintained orientation, fed the
  // same randomized batches; every batch's running total must equal a
  // from-scratch CPU recount of the evolved graph. Batches include
  // duplicate inserts, deletes of nonexistent edges, self-loops and
  // vertex growth; small batches exercise the incremental path, the
  // occasional large one the recount fallback.
  std::vector<stream::IncrementalCounter> counters;
  for (const Orientation o :
       {Orientation::kUpper, Orientation::kDegree,
        Orientation::kFullSymmetric}) {
    stream::StreamConfig config;
    config.orientation = o;
    counters.emplace_back(g, config);
  }
  util::Xoshiro256 rng(0xD1CE + param_seed);
  const auto n = g.num_vertices();
  for (int batch = 0; batch < 8; ++batch) {
    stream::EdgeDelta delta;
    const bool big = batch == 5;  // one fallback-sized batch per sweep
    const int ops = big ? static_cast<int>(g.num_edges() / 4) : 10;
    for (int k = 0; k < ops; ++k) {
      // +4 lets endpoints land past the current universe (growth);
      // equal endpoints produce self-loop no-ops.
      const auto u = static_cast<graph::VertexId>(rng() % (n + 4));
      const auto v = static_cast<graph::VertexId>(rng() % (n + 4));
      if (rng() % 3 == 0) {
        delta.Erase(u, v);  // frequently nonexistent
      } else {
        delta.Insert(u, v);  // frequently duplicate
      }
      if (rng() % 7 == 0) delta.Insert(u, v);  // literal duplicate op
    }
    std::uint64_t expected = ~0ULL;
    for (stream::IncrementalCounter& counter : counters) {
      const stream::BatchResult r = counter.ApplyBatch(delta);
      if (expected == ~0ULL) {
        expected =
            baseline::CountTrianglesReference(counter.graph().ToGraph());
      }
      ASSERT_EQ(r.triangles, expected)
          << "batch " << batch << " orientation "
          << graph::ToString(counter.config().orientation);
    }
  }
}

TEST_P(FamilySeedTest, ConcurrentEpochReadsMatchSequentialReplay) {
  // Snapshot-isolation property: while a writer streams randomized
  // batches (same adversarial op mix as above, including one
  // fallback-sized batch), a concurrent reader pins epochs and counts
  // them straight off the COW matrix. Afterwards, every observed
  // (epoch, count) pair must equal a SEQUENTIAL replay of the same
  // deltas at that epoch — for each maintained orientation.
  const Graph g = MakeGraph();
  const std::uint64_t param_seed = std::get<1>(GetParam());
  util::Xoshiro256 rng(0xEC0 + param_seed);
  const auto n = g.num_vertices();
  constexpr int kBatches = 6;
  std::vector<stream::EdgeDelta> deltas(kBatches);
  for (int batch = 0; batch < kBatches; ++batch) {
    const bool big = batch == 3;  // one recount-fallback batch per sweep
    const int ops = big ? static_cast<int>(g.num_edges() / 4) : 10;
    for (int k = 0; k < ops; ++k) {
      const auto u = static_cast<graph::VertexId>(rng() % (n + 4));
      const auto v = static_cast<graph::VertexId>(rng() % (n + 4));
      if (rng() % 3 == 0) {
        deltas[batch].Erase(u, v);
      } else {
        deltas[batch].Insert(u, v);
      }
    }
  }

  for (const Orientation o :
       {Orientation::kUpper, Orientation::kDegree,
        Orientation::kFullSymmetric}) {
    stream::StreamConfig config;
    config.orientation = o;
    runtime::StreamSession session(g, config);

    std::atomic<bool> done{false};
    std::vector<std::pair<std::uint64_t, std::uint64_t>> observed;
    std::thread reader([&] {
      do {
        const runtime::EpochManager::Pin pin = session.PinEpoch();
        observed.emplace_back(pin->epoch,
                              pin->matrix->AndPopcountAllEdges() /
                                  graph::CountMultiplier(pin->orientation));
      } while (!done.load(std::memory_order_acquire));
    });
    for (const stream::EdgeDelta& delta : deltas) {
      (void)session.Apply(delta);
    }
    done.store(true, std::memory_order_release);
    reader.join();

    // Sequential replay oracle: epoch e -> exact total after e batches.
    stream::IncrementalCounter replay(g, config);
    std::vector<std::uint64_t> oracle{replay.triangles()};
    for (const stream::EdgeDelta& delta : deltas) {
      oracle.push_back(replay.ApplyBatch(delta).triangles);
    }
    ASSERT_FALSE(observed.empty());
    for (const auto& [epoch, count] : observed) {
      ASSERT_LT(epoch, oracle.size());
      ASSERT_EQ(count, oracle[epoch])
          << "epoch " << epoch << " orientation " << graph::ToString(o);
    }
    EXPECT_EQ(session.triangles(), oracle.back());
    EXPECT_EQ(baseline::CountTrianglesReference(session.Snapshot()),
              oracle.back());
  }
}

TEST_P(FamilySeedTest, HostKernelAgreesOnTriangleCount) {
  // The host AND+popcount kernel must produce the same triangle count
  // as the CPU reference on every family x seed, through the same
  // entry point production code uses.
  const Graph g = MakeGraph();
  const std::uint64_t expected = baseline::CountTrianglesReference(g);
  const bit::SlicedMatrix matrix =
      core::BuildSlicedMatrix(g, Orientation::kUpper, 64);
  EXPECT_EQ(matrix.AndPopcountAllEdges(), expected);
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<FamilyCase, std::uint64_t>>&
        info) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s_seed%llu",
                std::get<0>(info.param).name,
                static_cast<unsigned long long>(std::get<1>(info.param)));
  return buf;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FamilySeedTest,
    ::testing::Combine(::testing::ValuesIn(kFamilies),
                       ::testing::Values(1u, 2u, 3u)),
    CaseName);

}  // namespace
}  // namespace tcim
