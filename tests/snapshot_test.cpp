// Snapshot-isolated serving: epoch publication, COW slab sharing, the
// pin/retire lifecycle, and readers racing a live writer — the
// concurrency-correctness layer of docs/SERVING.md. Every pinned-epoch
// count is cross-checked against the writer's maintained total and
// (sampled) against a from-scratch materialization recounted by the
// CPU baseline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/cpu_tc.h"
#include "bitmatrix/sliced_store.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/orientation.h"
#include "graph/relabel.h"
#include "runtime/bank_pool.h"
#include "runtime/epoch_manager.h"
#include "runtime/metrics.h"
#include "runtime/stream_session.h"
#include "stream/edge_delta.h"
#include "util/rng.h"

namespace tcim {
namespace {

using graph::Graph;
using graph::Orientation;
using graph::VertexId;
using runtime::EpochManager;
using runtime::EpochSnapshot;
using runtime::StreamSession;
using stream::EdgeDelta;

Graph SeedGraph() {
  // Two triangles sharing edge {1, 2} plus a detached edge.
  graph::GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  b.AddEdge(4, 5);
  return std::move(b).Build();
}

/// Reader-side count of a pinned epoch straight off its COW matrix —
/// no writer state touched, exact for every orientation.
std::uint64_t CountPin(const EpochManager::Pin& pin) {
  return pin->matrix->AndPopcountAllEdges() /
         graph::CountMultiplier(pin->orientation);
}

/// The sequential-oracle path: rebuild the graph from the matrix alone
/// and recount with the CPU baseline.
std::uint64_t OracleCount(const EpochManager::Pin& pin) {
  return baseline::CountTrianglesReference(
      runtime::MaterializeEpochGraph(*pin));
}

// --- EpochManager lifecycle ------------------------------------------------

TEST(EpochManagerLifecycle, PublishStampsIncreasingEpochs) {
  EpochManager epochs;
  EXPECT_EQ(epochs.PinCurrent(), nullptr);
  EXPECT_EQ(epochs.current_epoch(), 0u);
  EXPECT_EQ(epochs.published(), 0u);

  EpochSnapshot first;
  first.matrix = std::make_shared<const bit::SlicedMatrix>();
  EXPECT_EQ(epochs.Publish(std::move(first)), 0u);
  EpochSnapshot second;
  second.matrix = std::make_shared<const bit::SlicedMatrix>();
  EXPECT_EQ(epochs.Publish(std::move(second)), 1u);

  EXPECT_EQ(epochs.current_epoch(), 1u);
  EXPECT_EQ(epochs.published(), 2u);
  const EpochManager::Pin pin = epochs.PinCurrent();
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(pin->epoch, 1u);
}

TEST(EpochManagerLifecycle, RetirementIsSynchronousOnLastPinDrop) {
  EpochManager epochs;
  EpochSnapshot seed;
  seed.matrix = std::make_shared<const bit::SlicedMatrix>();
  (void)epochs.Publish(std::move(seed));

  // Two readers pin epoch 0; a publish supersedes it.
  EpochManager::Pin a = epochs.PinCurrent();
  EpochManager::Pin b = epochs.PinCurrent();
  EpochSnapshot next;
  next.matrix = std::make_shared<const bit::SlicedMatrix>();
  (void)epochs.Publish(std::move(next));
  EXPECT_EQ(epochs.live_epochs(), 2u);
  EXPECT_EQ(epochs.retired(), 0u);

  // First reader exits: epoch 0 stays live (b still holds it).
  a.reset();
  EXPECT_EQ(epochs.live_epochs(), 2u);
  EXPECT_EQ(epochs.retired(), 0u);

  // Last reader exits: retirement happens NOW, no grace period.
  b.reset();
  EXPECT_EQ(epochs.live_epochs(), 1u);
  EXPECT_EQ(epochs.retired(), 1u);
}

// --- StreamSession epoch publication ---------------------------------------

TEST(SnapshotIsolation, ConstructorPublishesEpochZero) {
  StreamSession session(SeedGraph());
  const EpochManager::Pin pin = session.PinEpoch();
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(pin->epoch, 0u);
  EXPECT_EQ(pin->triangles, 2u);
  EXPECT_EQ(pin->num_vertices, 6u);
  EXPECT_EQ(pin->num_edges, 6u);
  EXPECT_EQ(CountPin(pin), 2u);
  EXPECT_EQ(OracleCount(pin), 2u);
  EXPECT_EQ(session.epochs().published(), 1u);
  EXPECT_EQ(session.epochs().live_epochs(), 1u);
}

TEST(SnapshotIsolation, PinnedEpochIsImmutableUnderLaterBatches) {
  StreamSession session(SeedGraph());
  const EpochManager::Pin before = session.PinEpoch();

  EdgeDelta delta;
  delta.Insert(0, 3);  // closes {0,1,3} and {0,2,3}
  const StreamSession::AppliedBatch applied = session.Apply(delta);
  EXPECT_EQ(applied.epoch, 1u);
  EXPECT_EQ(applied.batch.triangles, 4u);

  // The old pin still answers with its epoch's state...
  EXPECT_EQ(before->epoch, 0u);
  EXPECT_EQ(before->triangles, 2u);
  EXPECT_EQ(CountPin(before), 2u);
  EXPECT_EQ(OracleCount(before), 2u);
  // ...while a fresh pin sees the published batch.
  const EpochManager::Pin after = session.PinEpoch();
  EXPECT_EQ(after->epoch, 1u);
  EXPECT_EQ(after->triangles, 4u);
  EXPECT_EQ(CountPin(after), 4u);
  EXPECT_EQ(OracleCount(after), 4u);
}

TEST(SnapshotIsolation, ReaderPinningMidPublishSeesPreviousEpoch) {
  // Deterministic "pin during publish": the hook runs with the batch
  // applied to writer state but the new epoch NOT yet published — a
  // reader pinning at that instant must get the previous epoch intact.
  StreamSession session(SeedGraph());
  std::uint64_t hook_epoch = ~0ULL;
  std::uint64_t hook_triangles = 0;
  std::uint64_t hook_count = 0;
  session.SetBeforePublishHook([&] {
    const EpochManager::Pin pin = session.PinEpoch();
    hook_epoch = pin->epoch;
    hook_triangles = pin->triangles;
    hook_count = CountPin(pin);
  });

  EdgeDelta delta;
  delta.Insert(0, 3);
  const StreamSession::AppliedBatch applied = session.Apply(delta);
  EXPECT_EQ(hook_epoch, 0u);
  EXPECT_EQ(hook_triangles, 2u);
  EXPECT_EQ(hook_count, 2u);
  EXPECT_EQ(applied.epoch, 1u);
  EXPECT_EQ(session.PinEpoch()->triangles, 4u);
}

// --- COW slab sharing ------------------------------------------------------

TEST(SnapshotCow, ConsecutiveEpochsShareUntouchedSlabs) {
  // 400 vertices = 7 slabs per store; a one-edge batch touches O(1)
  // slabs, so consecutive epoch matrices must share almost all slabs
  // (the whole point of publishing a full matrix per batch).
  const Graph g = graph::ErdosRenyi(400, 2000, 5);
  StreamSession session(g);
  const EpochManager::Pin e0 = session.PinEpoch();

  EdgeDelta delta;
  delta.Insert(0, 400);  // grows the universe by one vertex
  (void)session.Apply(delta);
  const EpochManager::Pin e1 = session.PinEpoch();

  const std::size_t slabs = e0->matrix->rows().slab_count();
  ASSERT_GE(slabs, 7u);
  EXPECT_GE(SharedSlabCount(e0->matrix->rows(), e1->matrix->rows()),
            slabs - 2);
  EXPECT_GE(SharedSlabCount(e0->matrix->cols(), e1->matrix->cols()),
            slabs - 2);
  // Sharing is real aliasing, not equality: both epochs stay exact.
  EXPECT_EQ(CountPin(e0), e0->triangles);
  EXPECT_EQ(CountPin(e1), e1->triangles);
}

TEST(SnapshotCow, EpochRetirementBoundsMemoryAcrossManyBatches) {
  // 1000 publish/retire cycles toggling one edge: with nothing pinned,
  // every superseded epoch must retire synchronously inside Apply and
  // free its COW slabs — live stays at 1 and the current matrix's heap
  // footprint stays within a small constant of the seed's.
  StreamSession session(SeedGraph());
  const std::uint64_t seed_bytes = session.PinEpoch()->matrix->HeapBytes();

  bool insert = true;
  for (int i = 0; i < 1000; ++i) {
    EdgeDelta delta;
    if (insert) {
      delta.Insert(0, 3);
    } else {
      delta.Erase(0, 3);
    }
    insert = !insert;
    (void)session.Apply(delta);
  }

  const EpochManager& epochs = session.epochs();
  EXPECT_EQ(epochs.published(), 1001u);
  EXPECT_EQ(epochs.live_epochs(), 1u);
  EXPECT_EQ(epochs.retired(), 1000u);
  const EpochManager::Pin last = session.PinEpoch();
  EXPECT_LE(last->matrix->HeapBytes(), 4 * seed_bytes);
  EXPECT_EQ(CountPin(last), last->triangles);
}

// --- readers racing a writer ----------------------------------------------

TEST(SnapshotConcurrency, ReadersRaceWriterAndStayExact) {
  // N reader threads pin/count/release continuously while one writer
  // streams randomized batches. Readers never synchronize with the
  // writer beyond PinCurrent(); every pinned count must equal the
  // writer's maintained total for that epoch, and a sampled subset is
  // cross-checked against the from-scratch CPU oracle.
  const Graph seed = graph::ErdosRenyi(200, 800, 17);
  StreamSession session(seed);
  constexpr int kReaders = 4;
  constexpr int kBatches = 30;

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> checks{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Xoshiro256 rng(1000 + static_cast<std::uint64_t>(r));
      std::uint64_t last_epoch = 0;
      // do-while: on a single-core host the writer may finish before a
      // reader is first scheduled; every reader still checks >= once.
      do {
        const EpochManager::Pin pin = session.PinEpoch();
        if (pin->epoch < last_epoch) failures.fetch_add(1);  // monotonic
        last_epoch = pin->epoch;
        if (CountPin(pin) != pin->triangles) failures.fetch_add(1);
        if (rng() % 8 == 0 && OracleCount(pin) != pin->triangles) {
          failures.fetch_add(1);
        }
        checks.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_acquire));
    });
  }

  util::Xoshiro256 rng(99);
  std::uint64_t last_epoch = 0;
  for (int b = 0; b < kBatches; ++b) {
    EdgeDelta delta;
    for (int k = 0; k < 8; ++k) {
      const auto u = static_cast<VertexId>(rng() % 210);
      const auto v = static_cast<VertexId>(rng() % 210);
      if (rng() % 3 == 0) {
        delta.Erase(u, v);
      } else {
        delta.Insert(u, v);
      }
    }
    const StreamSession::AppliedBatch applied = session.Apply(delta);
    EXPECT_EQ(applied.epoch, static_cast<std::uint64_t>(b) + 1);
    last_epoch = applied.epoch;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(checks.load(), 0u);
  EXPECT_EQ(session.epochs().current_epoch(), last_epoch);
  // With all pins dropped only the current epoch stays live.
  EXPECT_EQ(session.epochs().live_epochs(), 1u);
  EXPECT_EQ(baseline::CountTrianglesReference(session.Snapshot()),
            session.triangles());
}

// --- bank-pool serving reads across orientations ---------------------------

class SnapshotOrientationTest : public ::testing::TestWithParam<Orientation> {
};

TEST_P(SnapshotOrientationTest, BankPoolCountsPinnedEpochsExactly) {
  // The scheduler's query path in miniature: pin an epoch, hand its
  // COW snapshot to BankPool::HostCountEpoch (no re-orient, no
  // re-slice), expect the writer's total — per orientation, across a
  // churning stream.
  stream::StreamConfig config;
  config.orientation = GetParam();
  StreamSession session(graph::ErdosRenyi(150, 700, 3), config);
  runtime::BankPoolConfig pool_config;
  pool_config.num_banks = 2;
  const runtime::BankPool pool(pool_config);

  util::Xoshiro256 rng(7);
  for (int b = 0; b < 5; ++b) {
    EdgeDelta delta;
    for (int k = 0; k < 10; ++k) {
      const auto u = static_cast<VertexId>(rng() % 155);
      const auto v = static_cast<VertexId>(rng() % 155);
      if (rng() % 3 == 0) {
        delta.Erase(u, v);
      } else {
        delta.Insert(u, v);
      }
    }
    (void)session.Apply(delta);
    const EpochManager::Pin pin = session.PinEpoch();
    ASSERT_EQ(pool.HostCountEpoch(*pin), pin->triangles)
        << "batch " << b;
    ASSERT_EQ(OracleCount(pin), pin->triangles) << "batch " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Orientations, SnapshotOrientationTest,
                         ::testing::Values(Orientation::kUpper,
                                           Orientation::kDegree,
                                           Orientation::kFullSymmetric),
                         [](const auto& info) {
                           return graph::ToString(info.param);
                         });

// --- the column pivot on a served hub graph -------------------------------

TEST(SnapshotPivot, HubGraphQueriesTakeTheColumnPivotOnPinnedEpochs) {
  // The served com-youtube shape: in degree order, kUpper puts every
  // hub on the column side, so each HostCountEpoch shard gathers under
  // the column pivot, walking the column slabs of the pinned epoch.
  // That must hold, and stay exact, across publishes — also on an old
  // pinned epoch whose hub columns later batches rewrite copy-on-write.
  graph::Graph g = graph::SynthesizePaperGraph(
                       graph::PaperDataset::kComYoutube, 0.01, 5)
                       .graph;
  g = graph::ChooseRelabeling(g, graph::RelabelMode::kDegree).map.Apply(g);
  StreamSession session(g);
  runtime::BankPoolConfig pool_config;
  pool_config.num_banks = 2;
  pool_config.partition = runtime::PartitionStrategy::kDegreeBalanced;
  const runtime::BankPool pool(pool_config);

  runtime::BankPoolMetrics& metrics = runtime::BankPoolMetrics::Get();
  const auto count_under_column_pivot = [&](const EpochSnapshot& epoch) {
    EXPECT_TRUE(epoch.matrix->PrefersColumnPivot())
        << "row pivot probes " << epoch.matrix->row_pivot_probes()
        << ", column pivot probes " << epoch.matrix->column_pivot_probes();
    const std::uint64_t zero_copy = metrics.pairs_zero_copy.Value();
    const std::uint64_t column_pivot = metrics.pairs_column_pivot.Value();
    const std::uint64_t count = pool.HostCountEpoch(epoch);
    const std::uint64_t pairs = metrics.pairs_zero_copy.Value() - zero_copy;
    EXPECT_GT(pairs, 0u);
    EXPECT_EQ(metrics.pairs_column_pivot.Value() - column_pivot, pairs);
    EXPECT_EQ(pairs, epoch.matrix->ComputeStats().valid_pairs);
    return count;
  };

  const EpochManager::Pin pin0 = session.PinEpoch();
  ASSERT_EQ(count_under_column_pivot(*pin0), pin0->triangles);
  ASSERT_EQ(OracleCount(pin0), pin0->triangles);

  const VertexId n = g.num_vertices();
  util::Xoshiro256 rng(11);
  EpochManager::Pin last = pin0;
  for (int b = 0; b < 6; ++b) {
    EdgeDelta delta;
    for (int k = 0; k < 30; ++k) {
      // Every other op lands on one of the top-degree ids (the hub
      // columns); the rest are uniform.
      const auto u = static_cast<VertexId>(
          k % 2 == 0 ? n - 1 - rng() % 8 : rng() % n);
      const auto v = static_cast<VertexId>(rng() % n);
      if (rng() % 3 == 0) {
        delta.Erase(u, v);
      } else {
        delta.Insert(u, v);
      }
    }
    (void)session.Apply(delta);
    last = session.PinEpoch();
    ASSERT_EQ(count_under_column_pivot(*last), last->triangles)
        << "batch " << b;
    ASSERT_EQ(count_under_column_pivot(*pin0), pin0->triangles)
        << "batch " << b;
  }
  EXPECT_EQ(OracleCount(last), last->triangles);
  EXPECT_EQ(OracleCount(pin0), pin0->triangles);

  // Two queries at once on one pinned epoch: four shards gather over
  // one matrix concurrently, the hub columns on the hub-pivot route,
  // whose scratch is local to each call.
  const std::uint64_t zero_copy = metrics.pairs_zero_copy.Value();
  const std::uint64_t hub_route = metrics.pairs_hub_route.Value();
  std::uint64_t answers[2] = {0, 0};
  {
    std::thread first([&] { answers[0] = pool.HostCountEpoch(*last); });
    std::thread second([&] { answers[1] = pool.HostCountEpoch(*last); });
    first.join();
    second.join();
  }
  EXPECT_EQ(answers[0], last->triangles);
  EXPECT_EQ(answers[1], last->triangles);
  const std::uint64_t valid_pairs = last->matrix->ComputeStats().valid_pairs;
  EXPECT_EQ(metrics.pairs_zero_copy.Value() - zero_copy, 2 * valid_pairs);
  const std::uint64_t hub_pairs = metrics.pairs_hub_route.Value() - hub_route;
  EXPECT_GT(hub_pairs, 0u);
  EXPECT_LE(hub_pairs, 2 * valid_pairs);
}

// --- 2D serving-plan cache under streaming updates -------------------------

TEST(Snapshot2dServing, HubFlipInvalidatesPlanAndPreservesPinnedEpochs) {
  // The streaming regression of the k2dHubReplicated serving path: a
  // batch that flips edges on a hub column must drop the carried plan
  // (its replicas hold stale hub slices), while a pinned pre-batch
  // epoch keeps serving exactly from its own untouched plan cache.
  stream::StreamConfig config;
  config.orientation = Orientation::kDegree;
  StreamSession session(graph::Rmat(200, 1500, graph::RmatParams{}, 21),
                        config);

  runtime::BankPoolConfig pool_config;
  pool_config.num_banks = 3;
  pool_config.partition = runtime::PartitionStrategy::k2dHubReplicated;
  pool_config.partition2d.hub_k = 8;
  const runtime::BankPool pool(pool_config);

  // Query the seed epoch: builds the 2D plan + replicas into its cache.
  const EpochManager::Pin pin0 = session.PinEpoch();
  ASSERT_NE(pin0->plan2d, nullptr);
  ASSERT_EQ(pool.HostCountEpoch(*pin0), pin0->triangles);
  const auto built0 = pin0->plan2d->Get();
  ASSERT_NE(built0, nullptr);
  ASSERT_NE(built0->partition.plan2d, nullptr);
  ASSERT_FALSE(built0->partition.plan2d->hubs.empty());
  EXPECT_EQ(built0->replicas.size(), 3u);  // one hub replica per bank
  const VertexId hub = built0->partition.plan2d->hubs.front();

  // Mid-apply (after the batch applied, before the new epoch
  // publishes): nothing invalidated yet, and the pinned epoch still
  // serves exactly from its pre-batch plan and replicas.
  bool hook_ran = false;
  session.SetBeforePublishHook([&] {
    hook_ran = true;
    EXPECT_EQ(session.plan2d_invalidations(), 0u);
    EXPECT_EQ(pool.HostCountEpoch(*pin0), pin0->triangles);
  });
  EdgeDelta hub_flip;
  hub_flip.Insert(hub, static_cast<VertexId>((hub + 1) % 200));
  (void)session.Apply(hub_flip);
  session.SetBeforePublishHook({});
  EXPECT_TRUE(hook_ran);
  EXPECT_EQ(session.plan2d_invalidations(), 1u);

  // The pinned epoch's cache is untouched — same built plan object,
  // same exact total (snapshot isolation of the serving plan).
  EXPECT_EQ(pin0->plan2d->Get(), built0);
  EXPECT_EQ(pool.HostCountEpoch(*pin0), pin0->triangles);
  EXPECT_EQ(OracleCount(pin0), pin0->triangles);

  // The new epoch starts with a fresh cache and re-plans exactly.
  const EpochManager::Pin pin1 = session.PinEpoch();
  ASSERT_NE(pin1->plan2d, nullptr);
  EXPECT_NE(pin1->plan2d, pin0->plan2d);
  EXPECT_FALSE(pin1->plan2d->has_plan());
  EXPECT_EQ(pool.HostCountEpoch(*pin1), pin1->triangles);
  EXPECT_EQ(OracleCount(pin1), pin1->triangles);

  // A batch touching only tail vertices carries the built plan
  // forward: the same plan in a new cache, no invalidation tick, still
  // exact.
  const auto built1 = pin1->plan2d->Get();
  ASSERT_NE(built1, nullptr);
  const std::vector<std::uint8_t>& is_hub = built1->partition.plan2d->is_hub;
  VertexId a = 0;
  while (a < is_hub.size() && is_hub[a] != 0) ++a;
  VertexId b = a + 1;
  while (b < is_hub.size() && is_hub[b] != 0) ++b;
  ASSERT_LT(b, is_hub.size());
  EdgeDelta tail;
  tail.Insert(a, b);
  (void)session.Apply(tail);
  EXPECT_EQ(session.plan2d_invalidations(), 1u);
  const EpochManager::Pin pin2 = session.PinEpoch();
  EXPECT_NE(pin2->plan2d, pin1->plan2d);
  EXPECT_EQ(pin2->plan2d->Get(), built1);
  EXPECT_EQ(pool.HostCountEpoch(*pin2), pin2->triangles);
  EXPECT_EQ(OracleCount(pin2), pin2->triangles);
}

// --- serving-plan cache: every strategy, keyed per pool --------------------

/// Pool config for the plan-cache tests: hub_k = 4 gives the 2D plan
/// a small hub set (1D plans ignore it).
runtime::BankPoolConfig ServingPool(runtime::PartitionStrategy strategy,
                                    std::uint32_t banks) {
  runtime::BankPoolConfig config;
  config.num_banks = banks;
  config.partition = strategy;
  config.partition2d.hub_k = 4;
  return config;
}

class SnapshotPlanServing
    : public ::testing::TestWithParam<runtime::PartitionStrategy> {};

TEST_P(SnapshotPlanServing, NonGrowingBatchCarriesPlanForward) {
  // The plan is built once per epoch and shared by later queries; a
  // batch that neither grows the vertex space nor touches a hub carries
  // the built plan forward unchanged, and counts stay exact throughout.
  StreamSession session(graph::ErdosRenyi(100, 500, 5));
  const runtime::BankPool pool(ServingPool(GetParam(), 3));

  const EpochManager::Pin pin0 = session.PinEpoch();
  ASSERT_EQ(pool.HostCountEpoch(*pin0), pin0->triangles);
  const auto built = pin0->plan2d->Get();
  ASSERT_NE(built, nullptr);
  ASSERT_EQ(pool.HostCountEpoch(*pin0), pin0->triangles);
  EXPECT_EQ(pin0->plan2d->Get(), built);  // second query reused it

  // Two non-hub endpoints (every vertex under a 1D plan); flip their
  // edge so the batch really changes the matrix.
  const std::vector<std::uint8_t>& is_hub = built->partition.plan2d->is_hub;
  VertexId a = 0;
  while (a < is_hub.size() && is_hub[a] != 0) ++a;
  VertexId b = a + 1;
  while (b < is_hub.size() && is_hub[b] != 0) ++b;
  ASSERT_LT(b, 100u);
  EdgeDelta tail;
  if (session.Snapshot().HasEdge(a, b)) {
    tail.Erase(a, b);
  } else {
    tail.Insert(a, b);
  }
  (void)session.Apply(tail);
  EXPECT_EQ(session.plan2d_invalidations(), 0u);
  const EpochManager::Pin pin1 = session.PinEpoch();
  EXPECT_NE(pin1->num_edges, pin0->num_edges);
  EXPECT_NE(pin1->plan2d, pin0->plan2d);  // own cache, seeded
  EXPECT_EQ(pin1->plan2d->Get(), built);
  EXPECT_EQ(pool.HostCountEpoch(*pin1), pin1->triangles);
  EXPECT_EQ(pin1->plan2d->Get(), built);  // carried, not rebuilt
  EXPECT_EQ(OracleCount(pin1), pin1->triangles);
}

TEST_P(SnapshotPlanServing, VertexGrowthInvalidatesCarriedPlan) {
  // Tile bounds (and is_hub) are sized to the old n: growing the
  // vertex space must always drop a built plan, even when no hub is
  // touched.
  StreamSession session(graph::ErdosRenyi(100, 500, 5));
  const runtime::BankPool pool(ServingPool(GetParam(), 2));

  const EpochManager::Pin pin0 = session.PinEpoch();
  ASSERT_EQ(pool.HostCountEpoch(*pin0), pin0->triangles);
  ASSERT_TRUE(pin0->plan2d->has_plan());

  EdgeDelta grow;
  grow.Insert(150, 151);  // beyond the seed's 100 vertices
  (void)session.Apply(grow);
  EXPECT_EQ(session.plan2d_invalidations(), 1u);
  const EpochManager::Pin pin1 = session.PinEpoch();
  EXPECT_FALSE(pin1->plan2d->has_plan());
  EXPECT_EQ(pool.HostCountEpoch(*pin1), pin1->triangles);
  ASSERT_TRUE(pin1->plan2d->has_plan());
  EXPECT_EQ(pin1->plan2d->Get()->partition.plan2d->num_vertices,
            pin1->num_vertices);
  EXPECT_EQ(OracleCount(pin1), pin1->triangles);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, SnapshotPlanServing,
    ::testing::Values(runtime::PartitionStrategy::kDegreeBalanced,
                      runtime::PartitionStrategy::k2dHubReplicated),
    [](const auto& info) {
      return info.param == runtime::PartitionStrategy::kDegreeBalanced
                 ? std::string("degree")
                 : std::string("hub2d");
    });

TEST(SnapshotPlanCache, PoolsWithDifferentPlannersDoNotSharePlans) {
  // One session, one pinned epoch, several pools: each pool must run
  // the plan it asked for, never one cached by another pool with the
  // same bank count (the single cache slot rebuilds on a key change).
  StreamSession session(graph::Rmat(200, 1500, graph::RmatParams{}, 21));
  const EpochManager::Pin pin = session.PinEpoch();
  runtime::BankPoolConfig config =
      ServingPool(runtime::PartitionStrategy::k2dHubReplicated, 4);
  config.partition2d.hub_k = 0;
  const runtime::BankPool no_hubs(config);
  config.partition2d.hub_k = 50;
  const runtime::BankPool fifty_hubs(config);
  const runtime::BankPool one_d(
      ServingPool(runtime::PartitionStrategy::kDegreeBalanced, 4));

  const auto cached = [&] { return pin->plan2d->Get()->partition; };
  ASSERT_EQ(no_hubs.HostCountEpoch(*pin), pin->triangles);
  EXPECT_EQ(cached().plan2d->hubs.size(), 0u);
  EXPECT_EQ(cached().stats.strategy,
            runtime::PartitionStrategy::k2dHubReplicated);

  ASSERT_EQ(fifty_hubs.HostCountEpoch(*pin), pin->triangles);
  EXPECT_EQ(cached().plan2d->hubs.size(), 50u);

  ASSERT_EQ(one_d.HostCountEpoch(*pin), pin->triangles);
  EXPECT_EQ(cached().stats.strategy,
            runtime::PartitionStrategy::kDegreeBalanced);
  EXPECT_EQ(cached().plan2d->col_stripes, 1u);
  EXPECT_TRUE(cached().plan2d->hubs.empty());

  ASSERT_EQ(no_hubs.HostCountEpoch(*pin), pin->triangles);
  EXPECT_EQ(cached().plan2d->hubs.size(), 0u);
  EXPECT_EQ(cached().stats.strategy,
            runtime::PartitionStrategy::k2dHubReplicated);
}

TEST(SnapshotPlanCache, CarriedPlanRebuildNeverReachesPinnedEpoch) {
  // A 1D plan has no hubs, so it carries forward across a batch that
  // edits a 2D pool's hub column. When the 2D pool then rebuilds on the
  // new epoch, its hub replicas come from the new matrix; that plan
  // must land only in the new epoch's cache, or the 2D pool's count on
  // the still-pinned old epoch would AND old rows against new hub
  // columns.
  stream::StreamConfig config;
  config.orientation = Orientation::kDegree;
  StreamSession session(graph::Rmat(200, 1500, graph::RmatParams{}, 21),
                        config);
  const runtime::BankPool hub2d(
      ServingPool(runtime::PartitionStrategy::k2dHubReplicated, 3));
  const runtime::BankPool one_d(
      ServingPool(runtime::PartitionStrategy::kDegreeBalanced, 3));

  const EpochManager::Pin pin0 = session.PinEpoch();
  ASSERT_EQ(hub2d.HostCountEpoch(*pin0), pin0->triangles);
  const VertexId hub = pin0->plan2d->Get()->partition.plan2d->hubs.front();
  ASSERT_EQ(one_d.HostCountEpoch(*pin0), pin0->triangles);  // 1D cached

  // Erase an arc x -> hub that closes a triangle (i -> x, i -> hub), so
  // the hub column changes where the old rows read it.
  const bit::SlicedMatrix& m0 = *pin0->matrix;
  VertexId x = 0;
  const auto closes_triangle = [&](VertexId v) {
    if (v == hub || !m0.TestArc(v, hub)) return false;
    for (VertexId i = 0; i < pin0->num_vertices; ++i) {
      if (m0.TestArc(i, v) && m0.TestArc(i, hub)) return true;
    }
    return false;
  };
  while (x < pin0->num_vertices && !closes_triangle(x)) ++x;
  ASSERT_LT(x, pin0->num_vertices);
  EdgeDelta hub_edit;
  hub_edit.Erase(x, hub);
  (void)session.Apply(hub_edit);
  const EpochManager::Pin pin1 = session.PinEpoch();
  ASSERT_EQ(pin1->num_vertices, pin0->num_vertices);
  ASSERT_NE(pin1->triangles, pin0->triangles);
  EXPECT_EQ(pin1->plan2d->Get(), pin0->plan2d->Get());  // 1D carried

  ASSERT_EQ(hub2d.HostCountEpoch(*pin1), pin1->triangles);
  EXPECT_EQ(pin0->plan2d->Get()->partition.stats.strategy,
            runtime::PartitionStrategy::kDegreeBalanced);
  EXPECT_EQ(hub2d.HostCountEpoch(*pin0), pin0->triangles);
  EXPECT_EQ(one_d.HostCountEpoch(*pin1), pin1->triangles);
  EXPECT_EQ(OracleCount(pin0), pin0->triangles);
}

}  // namespace
}  // namespace tcim
