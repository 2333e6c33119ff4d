// Streaming layer: delta parsing, in-place slice-store patching,
// dynamic orientation maintenance, exact incremental counting, and the
// scheduler's update-job kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baseline/cpu_tc.h"
#include "bitmatrix/sliced_store.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "runtime/scheduler.h"
#include "runtime/stream_session.h"
#include "stream/dynamic_graph.h"
#include "stream/edge_delta.h"
#include "stream/incremental_counter.h"
#include "util/rng.h"

namespace tcim {
namespace {

using graph::Graph;
using graph::Orientation;
using graph::VertexId;
using stream::EdgeDelta;
using stream::EdgeOp;

// --- delta replay format ---------------------------------------------------

TEST(EdgeDeltaIo, ParsesOpsCommentsAndBatchSeparators) {
  std::istringstream in(
      "# header comment\n"
      "+ 0 1\n"
      "  + 1 2\n"
      "% alt comment\n"
      "- 0 1\n"
      "=\n"
      "+ 3 4\n");
  const std::vector<EdgeDelta> batches = stream::ReadDeltaStream(in);
  ASSERT_EQ(batches.size(), 2u);
  ASSERT_EQ(batches[0].size(), 3u);
  EXPECT_TRUE(batches[0].ops[0].insert);
  EXPECT_EQ(batches[0].ops[0].u, 0u);
  EXPECT_EQ(batches[0].ops[0].v, 1u);
  EXPECT_FALSE(batches[0].ops[2].insert);
  ASSERT_EQ(batches[1].size(), 1u);
  EXPECT_EQ(batches[1].ops[0].u, 3u);
}

TEST(EdgeDeltaIo, RoundTripsThroughWriter) {
  std::vector<EdgeDelta> batches(2);
  batches[0].Insert(1, 2);
  batches[0].Erase(3, 4);
  batches[1].Insert(5, 6);
  std::ostringstream out;
  stream::WriteDeltaStream(batches, out);
  std::istringstream in(out.str());
  const std::vector<EdgeDelta> parsed = stream::ReadDeltaStream(in);
  ASSERT_EQ(parsed.size(), 2u);
  ASSERT_EQ(parsed[0].size(), 2u);
  EXPECT_FALSE(parsed[0].ops[1].insert);
  EXPECT_EQ(parsed[1].ops[0].v, 6u);
}

TEST(EdgeDeltaIo, ThrowsOnMalformedLine) {
  std::istringstream bad_verb("* 1 2\n");
  EXPECT_THROW((void)stream::ReadDeltaStream(bad_verb), std::runtime_error);
  std::istringstream missing_field("+ 7\n");
  EXPECT_THROW((void)stream::ReadDeltaStream(missing_field),
               std::runtime_error);
  // Ids that do not fit VertexId must be rejected, not truncated;
  // negative input wraps to huge unsigned and is caught the same way.
  std::istringstream too_big("+ 4294967296 5\n");
  EXPECT_THROW((void)stream::ReadDeltaStream(too_big), std::runtime_error);
  std::istringstream negative("- 0 -1\n");
  EXPECT_THROW((void)stream::ReadDeltaStream(negative), std::runtime_error);
}

// --- SlicedStore::ApplyEdits ----------------------------------------------

bit::SlicedStore StoreFromRows(
    const std::vector<std::vector<std::uint32_t>>& rows, std::uint64_t universe,
    std::uint32_t slice_bits) {
  std::vector<std::uint64_t> offsets{0};
  std::vector<std::uint32_t> positions;
  for (const auto& row : rows) {
    positions.insert(positions.end(), row.begin(), row.end());
    offsets.push_back(positions.size());
  }
  return bit::SlicedStore::FromCsr(static_cast<std::uint32_t>(rows.size()),
                                   universe, offsets, positions, slice_bits);
}

TEST(SlicedStoreEdits, InPlacePatchWhenSlicesStayValid) {
  bit::SlicedStore store = StoreFromRows({{1, 5}, {64, 70}}, 128, 64);
  const std::vector<bit::SliceEdit> edits = {
      {0, 6, true},    // same slice as bits 1/5
      {1, 64, false},  // slice keeps bit 70
  };
  const bit::PatchStats stats = store.ApplyEdits(edits, 2, 128);
  EXPECT_FALSE(stats.rebuilt);
  EXPECT_EQ(stats.bits_patched, 2u);
  EXPECT_EQ(stats.slices_inserted, 0u);
  EXPECT_EQ(stats.slices_removed, 0u);
  EXPECT_TRUE(store.TestBit(0, 6));
  EXPECT_FALSE(store.TestBit(1, 64));
  EXPECT_TRUE(store.TestBit(1, 70));
  EXPECT_EQ(store.valid_slice_count(), 2u);
}

TEST(SlicedStoreEdits, StructuralInsertAndRemove) {
  bit::SlicedStore store = StoreFromRows({{1}, {64}}, 128, 64);
  const std::vector<bit::SliceEdit> edits = {
      {0, 100, true},  // fresh slice for row 0
      {1, 64, false},  // empties row 1's only slice
  };
  const bit::PatchStats stats = store.ApplyEdits(edits, 2, 128);
  EXPECT_TRUE(stats.rebuilt);
  EXPECT_EQ(stats.slices_inserted, 1u);
  EXPECT_EQ(stats.slices_removed, 1u);
  EXPECT_TRUE(store.TestBit(0, 100));
  EXPECT_FALSE(store.TestBit(1, 64));
  EXPECT_EQ(store.SliceCount(1), 0u);
  // Invariants: no empty slice survives, indices strictly increasing.
  EXPECT_EQ(store.valid_slice_count(), 2u);
}

TEST(SlicedStoreEdits, GrowsVectorsAndUniverse) {
  bit::SlicedStore store = StoreFromRows({{0}}, 64, 64);
  const std::vector<bit::SliceEdit> edits = {{3, 130, true}};
  const bit::PatchStats stats = store.ApplyEdits(edits, 4, 192);
  EXPECT_TRUE(stats.rebuilt);
  EXPECT_EQ(store.num_vectors(), 4u);
  EXPECT_EQ(store.universe(), 192u);
  EXPECT_EQ(store.slices_per_vector(), 3u);
  EXPECT_TRUE(store.TestBit(3, 130));
  EXPECT_TRUE(store.TestBit(0, 0));
}

TEST(SlicedStoreEdits, RejectsNonFlipsDuplicatesAndShrink) {
  bit::SlicedStore store = StoreFromRows({{1}}, 64, 64);
  // Set of an already-set bit.
  EXPECT_THROW(
      (void)store.ApplyEdits(std::vector<bit::SliceEdit>{{0, 1, true}}, 1, 64),
      std::invalid_argument);
  // Clear of an already-clear bit (valid slice).
  EXPECT_THROW(
      (void)store.ApplyEdits(std::vector<bit::SliceEdit>{{0, 2, false}}, 1,
                             64),
      std::invalid_argument);
  // Clear landing in an invalid slice.
  EXPECT_THROW((void)store.ApplyEdits(
                   std::vector<bit::SliceEdit>{{0, 63, false}}, 1, 64),
               std::invalid_argument);
  // Duplicate edits of one position.
  EXPECT_THROW((void)store.ApplyEdits(
                   std::vector<bit::SliceEdit>{{0, 5, true}, {0, 5, true}}, 1,
                   64),
               std::invalid_argument);
  // Shrinking dimensions.
  EXPECT_THROW((void)store.ApplyEdits({}, 0, 64), std::invalid_argument);
  // The store is untouched after the failed batches.
  EXPECT_TRUE(store.TestBit(0, 1));
  EXPECT_EQ(store.valid_slice_count(), 1u);
}

// Dense reference rows: bit p of vector v is rows[v][p].
using DenseRows = std::vector<std::vector<bool>>;

bit::SlicedStore StoreFromDense(const DenseRows& dense, std::uint64_t universe,
                                std::uint32_t slice_bits) {
  std::vector<std::vector<std::uint32_t>> rows(dense.size());
  for (std::size_t v = 0; v < dense.size(); ++v) {
    for (std::uint32_t p = 0; p < dense[v].size(); ++p) {
      if (dense[v][p]) rows[v].push_back(p);
    }
  }
  return StoreFromRows(rows, universe, slice_bits);
}

bool SliceHasBits(const DenseRows& dense, std::uint32_t v, std::uint64_t slice,
                  std::uint32_t slice_bits) {
  if (v >= dense.size()) return false;
  const std::uint64_t end =
      std::min<std::uint64_t>((slice + 1) * slice_bits, dense[v].size());
  for (std::uint64_t p = slice * slice_bits; p < end; ++p) {
    if (dense[v][p]) return true;
  }
  return false;
}

// Every vector's indices, words and global ordinals, plus the totals.
void ExpectSameStore(const bit::SlicedStore& got, const bit::SlicedStore& want,
                     const std::string& where) {
  ASSERT_EQ(got.num_vectors(), want.num_vectors()) << where;
  ASSERT_EQ(got.universe(), want.universe()) << where;
  ASSERT_EQ(got.valid_slice_count(), want.valid_slice_count()) << where;
  ASSERT_EQ(got.set_bit_count(), want.set_bit_count()) << where;
  for (std::uint32_t v = 0; v < got.num_vectors(); ++v) {
    const std::span<const std::uint32_t> gi = got.SliceIndices(v);
    const std::span<const std::uint32_t> wi = want.SliceIndices(v);
    ASSERT_TRUE(std::equal(gi.begin(), gi.end(), wi.begin(), wi.end()))
        << where << " v=" << v;
    for (std::size_t k = 0; k < gi.size(); ++k) {
      const std::span<const std::uint64_t> gw = got.SliceWords(v, k);
      const std::span<const std::uint64_t> ww = want.SliceWords(v, k);
      ASSERT_TRUE(std::equal(gw.begin(), gw.end(), ww.begin(), ww.end()))
          << where << " v=" << v << " k=" << k;
      ASSERT_EQ(got.GlobalOrdinal(v, k), want.GlobalOrdinal(v, k))
          << where << " v=" << v << " k=" << k;
    }
  }
}

TEST(SlicedStoreEdits, RandomizedEditsMatchFreshBuild) {
  // Three full slabs and a partial fourth; |S| up to 512 still leaves
  // 24 slice positions per vector. Slab 1 only ever takes in-place
  // edits, slab 2 is untouched in even rounds and rebuilt in odd ones,
  // slabs 0 and 3 are rebuilt. Vectors 3, 44, 85, 126, 167 and 208
  // are hubs with (nearly) every slice valid.
  constexpr std::uint32_t kSlab = bit::SlicedStore::kSlabVectors;
  constexpr std::uint32_t kVectors = 3 * kSlab + 17;
  constexpr std::uint64_t kUniverse = 24 * 512;
  const obs::Counter& bytes_counter =
      obs::Registry::Global().GetCounter("store.apply.bytes_copied_total");
  util::Xoshiro256 rng(7);
  for (const std::uint32_t slice_bits : {32u, 64u, 100u, 512u}) {
    const std::uint64_t spv = (kUniverse + slice_bits - 1) / slice_bits;
    for (int round = 0; round < 6; ++round) {
      const std::string where = "|S|=" + std::to_string(slice_bits) +
                                " round " + std::to_string(round);
      const bool grow = round % 3 == 2;
      const bool hold_copy = round % 2 == 1;
      const std::uint32_t new_n = grow ? kVectors + 70 : kVectors;
      const std::uint64_t new_universe =
          grow ? kUniverse + 3 * slice_bits + 7 : kUniverse;
      const auto is_hub = [](std::uint32_t v) { return v % 41 == 3; };

      DenseRows before(kVectors, std::vector<bool>(kUniverse, false));
      for (std::uint32_t v = 0; v < kVectors; ++v) {
        if (is_hub(v)) {
          for (std::uint64_t sl = 0; sl < spv; ++sl) {
            if (rng() % 16 == 0) continue;  // a few holes to insert into
            const std::uint64_t lo = sl * slice_bits;
            const std::uint64_t width =
                std::min<std::uint64_t>(slice_bits, kUniverse - lo);
            before[v][lo + rng() % width] = true;
          }
        }
        const std::uint64_t bits = 24 + rng() % 40;
        for (std::uint64_t b = 0; b < bits; ++b) {
          before[v][rng() % kUniverse] = true;
        }
      }
      bit::SlicedStore store = StoreFromDense(before, kUniverse, slice_bits);
      const std::size_t old_slabs = store.slab_count();

      DenseRows after = before;
      after.resize(new_n);
      for (auto& row : after) row.resize(new_universe, false);
      std::vector<bit::SliceEdit> edits;
      std::vector<std::vector<bool>> edited(
          new_n, std::vector<bool>(new_universe, false));
      const auto flip = [&](std::uint32_t v, std::uint64_t p) {
        if (edited[v][p]) return;
        edited[v][p] = true;
        edits.push_back(bit::SliceEdit{v, static_cast<std::uint32_t>(p),
                                       !after[v][p]});
        after[v][p] = !after[v][p];
      };
      // A random bit of slice `sl` (clamped to the old universe).
      const auto in_slice = [&](std::uint64_t sl) {
        const std::uint64_t lo = sl * slice_bits;
        return lo + rng() % std::min<std::uint64_t>(slice_bits,
                                                    kUniverse - lo);
      };
      std::vector<std::uint32_t> rebuilt_slabs = {0, 3};
      if (round % 2 == 1) rebuilt_slabs.push_back(2);
      const auto structural_vector = [&] {
        const std::uint32_t s = rebuilt_slabs[rng() % rebuilt_slabs.size()];
        const std::uint32_t width = std::min(kSlab, kVectors - s * kSlab);
        return s * kSlab + static_cast<std::uint32_t>(rng() % width);
      };

      for (int k = 0; k < 40; ++k) {  // scattered flips
        flip(structural_vector(), rng() % kUniverse);
      }
      for (const std::uint32_t s : rebuilt_slabs) {  // run bounds
        flip(s * kSlab, in_slice(0));
        flip(std::min(s * kSlab + kSlab - 1, kVectors - 1),
             in_slice(spv - 1));
      }
      for (int k = 0; k < 4; ++k) {  // first, middle and last slices
        const std::uint32_t v = structural_vector();
        flip(v, in_slice(0));
        flip(v, in_slice(spv / 2));
        flip(v, in_slice(spv - 1));
      }
      for (int k = 0; k < 3; ++k) {  // several edits in one slice
        const std::uint32_t v = structural_vector();
        const std::uint64_t sl = rng() % spv;
        for (int j = 0; j < 5; ++j) flip(v, in_slice(sl));
      }
      for (int k = 0; k < 2; ++k) {  // vectors emptied completely
        const std::uint32_t v = structural_vector();
        for (std::uint64_t p = 0; p < kUniverse; ++p) {
          if (after[v][p] && !edited[v][p]) flip(v, p);
        }
      }
      for (const std::uint32_t hub : {3u, 167u, 208u}) {  // hub edits
        if (hub >= 2 * kSlab && hub < 3 * kSlab && round % 2 == 0) continue;
        for (int j = 0; j < 6; ++j) flip(hub, in_slice(rng() % spv));
      }
      for (int k = 0; k < 12; ++k) {  // slab 1: sets in valid slices
        const std::uint32_t v =
            kSlab + static_cast<std::uint32_t>(rng() % kSlab);
        std::uint64_t q = rng() % kUniverse;
        while (!before[v][q]) q = (q + 1) % kUniverse;
        const std::uint64_t p = in_slice(q / slice_bits);
        if (!after[v][p]) flip(v, p);
      }
      if (grow) {  // new vectors, a new slab and the grown universe
        flip(kVectors + 5, rng() % new_universe);
        flip(new_n - 1, rng() % new_universe);
        flip(new_n - 1, new_universe - 1);
        flip(structural_vector(),
             kUniverse + rng() % (new_universe - kUniverse));
      }

      // Oracle from the dense before/after states.
      std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> groups;
      for (const bit::SliceEdit& edit : edits) {
        ++groups[{edit.vector, edit.position / slice_bits}];
      }
      bit::PatchStats want;
      std::set<std::size_t> touched;
      std::set<std::size_t> structural;
      for (const auto& [key, count] : groups) {
        const auto [v, sl] = key;
        const bool was = SliceHasBits(before, v, sl, slice_bits);
        const bool is = SliceHasBits(after, v, sl, slice_bits);
        ASSERT_TRUE(was || is) << where;
        const std::size_t slab = v / kSlab;
        touched.insert(slab);
        if (was && is) {
          want.bits_patched += count;
        } else {
          structural.insert(slab);
          (is ? want.slices_inserted : want.slices_removed) += 1;
        }
      }
      ASSERT_FALSE(structural.count(1)) << where;
      ASSERT_TRUE(touched.count(1)) << where;
      ASSERT_EQ(touched.count(2) != 0, round % 2 == 1) << where;
      const std::uint64_t touched_old = static_cast<std::uint64_t>(
          std::count_if(touched.begin(), touched.end(),
                        [&](std::size_t s) { return s < old_slabs; }));

      std::optional<bit::SlicedStore> copy;
      if (hold_copy) copy = store;
      const std::uint64_t bytes_before = bytes_counter.Value();
      const bit::PatchStats got =
          store.ApplyEdits(edits, new_n, new_universe);
      const std::uint64_t bytes = bytes_counter.Value() - bytes_before;

      const bit::SlicedStore fresh =
          StoreFromDense(after, new_universe, slice_bits);
      ExpectSameStore(store, fresh, where);
      EXPECT_EQ(got.bits_patched, want.bits_patched) << where;
      EXPECT_EQ(got.slices_inserted, want.slices_inserted) << where;
      EXPECT_EQ(got.slices_removed, want.slices_removed) << where;
      EXPECT_EQ(got.slabs_touched, touched.size()) << where;
      EXPECT_EQ(got.rebuilt, !structural.empty() || grow) << where;
      EXPECT_EQ(got.slabs_cow_cloned, hold_copy ? touched_old : 0u) << where;

      // Bytes written: each rebuilt slab's fresh arrays, and each cloned
      // in-place slab's arrays.
      std::uint64_t want_bytes = 0;
      for (const std::size_t s : touched) {
        if (!structural.count(s) && !(hold_copy && s < old_slabs)) continue;
        std::uint64_t slices = 0;
        for (std::uint32_t v = static_cast<std::uint32_t>(s * kSlab);
             v < std::min<std::uint64_t>(new_n, (s + 1) * kSlab); ++v) {
          slices += fresh.SliceCount(v);
        }
        want_bytes += (kSlab + 1) * sizeof(std::uint64_t) +
                      slices * (store.words_per_slice() * 8 + 4);
      }
      EXPECT_EQ(bytes, want_bytes) << where;

      if (hold_copy) {
        // The copy held across the batch still reads the old store, and
        // shares every slab the batch did not touch.
        ExpectSameStore(*copy, StoreFromDense(before, kUniverse, slice_bits),
                        where + " (copy)");
        EXPECT_EQ(bit::SharedSlabCount(store, *copy), old_slabs - touched_old)
            << where;
      }
    }
  }
}

TEST(SlicedStoreKernel, GatheredPairsMatchDenseIntersection) {
  bit::SlicedStore store =
      StoreFromRows({{1, 5, 64, 100}, {5, 64, 101}, {}}, 128, 64);
  std::vector<bit::PairRef> refs;
  // Both slices of each row are valid and shared.
  EXPECT_EQ(bit::GatherValidPairRefs(store, 0, store, 1, refs), 2u);
  EXPECT_EQ(bit::AndPopcountPairsZeroCopy(refs), 2u);  // {5, 64}
  refs.clear();
  EXPECT_EQ(bit::GatherValidPairRefs(store, 0, store, 2, refs), 0u);
  EXPECT_EQ(bit::AndPopcountPairsZeroCopy(refs), 0u);
}

// --- DynamicGraph ----------------------------------------------------------

Graph SeedGraph() {
  // Fig. 2-sized playground: two triangles sharing edge {1, 2}.
  graph::GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  b.AddEdge(4, 5);
  return std::move(b).Build();
}

TEST(DynamicGraph, NormalizeDropsNoOps) {
  const stream::DynamicGraph dyn(SeedGraph(), Orientation::kUpper, 64);
  EdgeDelta delta;
  delta.Insert(0, 1);   // duplicate of an existing edge
  delta.Insert(0, 3);   // real insert
  delta.Insert(3, 0);   // duplicate of the pending insert (reversed)
  delta.Erase(4, 4);    // self-loop
  delta.Erase(0, 5);    // absent edge
  delta.Erase(4, 5);    // real delete
  delta.Erase(4, 5);    // duplicate delete
  const std::vector<EdgeOp> ops = dyn.Normalize(delta);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_TRUE(ops[0].insert);
  EXPECT_EQ(ops[0].u, 0u);
  EXPECT_EQ(ops[0].v, 3u);
  EXPECT_FALSE(ops[1].insert);
}

TEST(DynamicGraph, InsertDeleteToggleNormalizesToSequence) {
  const stream::DynamicGraph dyn(SeedGraph(), Orientation::kUpper, 64);
  EdgeDelta delta;
  delta.Insert(0, 3);  // absent -> real insert
  delta.Erase(0, 3);   // now present -> real delete
  const std::vector<EdgeOp> ops = dyn.Normalize(delta);
  EXPECT_EQ(ops.size(), 2u);  // both kept: each flips membership
}

void ExpectMatrixMatchesRebuild(const stream::DynamicGraph& dyn) {
  // The patched matrix must be bit-identical to a fresh re-slice.
  stream::DynamicGraph fresh(dyn.ToGraph(), dyn.orientation(),
                             dyn.slice_bits());
  const bit::SlicedStore& got = dyn.matrix().rows();
  const bit::SlicedStore& want = fresh.matrix().rows();
  ASSERT_EQ(got.num_vectors(), want.num_vectors());
  ASSERT_EQ(got.valid_slice_count(), want.valid_slice_count());
  ASSERT_EQ(got.set_bit_count(), want.set_bit_count());
  for (std::uint32_t v = 0; v < got.num_vectors(); ++v) {
    EXPECT_TRUE(got.ToBitVector(v) == want.ToBitVector(v)) << "row " << v;
  }
  ASSERT_EQ(dyn.matrix().cols().set_bit_count(), want.set_bit_count());
}

TEST(DynamicGraph, PatchedMatrixMatchesRebuildUpper) {
  stream::DynamicGraph dyn(SeedGraph(), Orientation::kUpper, 64);
  EdgeDelta delta;
  delta.Insert(0, 3);
  delta.Erase(1, 2);
  delta.Insert(3, 5);
  (void)dyn.Apply(delta);
  EXPECT_EQ(dyn.num_edges(), 7u);
  EXPECT_TRUE(dyn.HasEdge(0, 3));
  EXPECT_FALSE(dyn.HasEdge(1, 2));
  ExpectMatrixMatchesRebuild(dyn);
}

TEST(DynamicGraph, DegreeOrientationFlipsAffectedArcsOnly) {
  stream::DynamicGraph dyn(SeedGraph(), Orientation::kDegree, 64);
  // Pump vertex 0's degree: its key passes several neighbours, so
  // surviving arcs incident to 0 must flip while the rest stand.
  EdgeDelta delta;
  delta.Insert(0, 3);
  delta.Insert(0, 4);
  delta.Insert(0, 5);
  const stream::ApplyStats stats = dyn.Apply(delta);
  EXPECT_EQ(stats.inserted, 3u);
  EXPECT_GT(stats.flipped_arcs, 0u);
  ExpectMatrixMatchesRebuild(dyn);
}

TEST(DynamicGraph, GrowsVertexUniverse) {
  stream::DynamicGraph dyn(SeedGraph(), Orientation::kUpper, 64);
  EdgeDelta delta;
  delta.Insert(2, 9);  // vertex 9 did not exist
  const stream::ApplyStats stats = dyn.Apply(delta);
  EXPECT_EQ(stats.grown_vertices, 4u);
  EXPECT_EQ(dyn.num_vertices(), 10u);
  EXPECT_TRUE(dyn.HasEdge(9, 2));
  ExpectMatrixMatchesRebuild(dyn);
}

TEST(DynamicGraph, ApplyNormalizedRejectsRawOps) {
  stream::DynamicGraph dyn(SeedGraph(), Orientation::kUpper, 64);
  const std::vector<EdgeOp> raw = {{0, 1, true}};  // edge already exists
  EXPECT_THROW((void)dyn.ApplyNormalized(raw), std::invalid_argument);
}

TEST(DynamicGraph, RejectsVertexIdWithoutRoomForCount) {
  // Id 2^32 - 1 needs a vertex count of 2^32, which VertexId cannot
  // hold: both entry points throw before adjacency or matrix change.
  stream::DynamicGraph dyn(SeedGraph(), Orientation::kUpper, 64);
  const VertexId n = dyn.num_vertices();
  const std::uint64_t m = dyn.num_edges();
  constexpr VertexId kMax = std::numeric_limits<VertexId>::max();
  EdgeDelta delta;
  delta.Insert(0, 3);
  delta.Insert(kMax, 0);
  EXPECT_THROW((void)dyn.Apply(delta), std::invalid_argument);
  const std::vector<EdgeOp> normalized = {{1, kMax, true}};
  EXPECT_THROW((void)dyn.ApplyNormalized(normalized), std::invalid_argument);
  EXPECT_EQ(dyn.num_vertices(), n);
  EXPECT_EQ(dyn.num_edges(), m);
  EXPECT_FALSE(dyn.HasEdge(0, 3));
  ExpectMatrixMatchesRebuild(dyn);
}

// --- IncrementalCounter ----------------------------------------------------

std::uint64_t RecountTruth(const stream::IncrementalCounter& counter) {
  return baseline::CountTrianglesReference(counter.graph().ToGraph());
}

TEST(IncrementalCounter, SingleInsertClosesWedges) {
  stream::StreamConfig config;
  config.recount_fraction = 1.0;  // 6-edge toy graph: keep 1-op batches
                                  // on the incremental path
  stream::IncrementalCounter counter(SeedGraph(), config);
  EXPECT_EQ(counter.triangles(), 2u);
  EdgeDelta delta;
  delta.Insert(0, 3);  // closes {0,1,3} and {0,2,3}
  const stream::BatchResult r = counter.ApplyBatch(delta);
  EXPECT_EQ(r.delta, 2);
  EXPECT_EQ(r.triangles, 4u);
  EXPECT_FALSE(r.stats.used_recount);
  EXPECT_GT(r.stats.and_ops, 0u);
  EXPECT_EQ(r.triangles, RecountTruth(counter));
}

TEST(IncrementalCounter, BatchedWedgeKernelSkipsHardwareModel) {
  // The 4-way wedge kernel gathers all four store combinations into
  // one zero-copy dispatch — never feeding the LUT8 hardware-model
  // counter — and stays exact.
  stream::StreamConfig config;
  config.recount_fraction = 1.0;
  stream::IncrementalCounter fast(SeedGraph(), config);
  const std::uint64_t before = bit::Lut8Invocations();
  EdgeDelta delta;
  delta.Insert(0, 3);
  const stream::BatchResult r = fast.ApplyBatch(delta);
  EXPECT_EQ(r.delta, 2);
  EXPECT_EQ(r.triangles, 4u);
  EXPECT_EQ(r.triangles, RecountTruth(fast));
  EXPECT_EQ(bit::Lut8Invocations(), before)
      << "wedge kernel touched the LUT8 hardware model";
}

TEST(IncrementalCounter, WedgeKernelExactOnZeroCopyPath) {
  // The wedge kernel has one route — every wedge AND is summed by the
  // zero-copy kernel — and it is exact.
  stream::StreamConfig config;
  config.recount_fraction = 1.0;
  stream::IncrementalCounter counter(SeedGraph(), config);
  EdgeDelta delta;
  delta.Insert(0, 3);
  const stream::BatchResult r = counter.ApplyBatch(delta);
  EXPECT_EQ(r.delta, 2);
  EXPECT_EQ(r.triangles, RecountTruth(counter));
  EXPECT_GT(r.stats.and_ops, 0u);
}

TEST(IncrementalCounter, RejectsVertexIdWithoutRoomForCountAndStaysIntact) {
  // Id 2^32 - 1 would need a vertex count of 2^32, which VertexId
  // cannot hold; the batch must throw before anything mutates.
  for (const double recount_fraction : {1.0, 0.0}) {
    stream::StreamConfig config;
    config.recount_fraction = recount_fraction;  // incremental, recount
    stream::IncrementalCounter counter(SeedGraph(), config);
    const std::uint64_t triangles = counter.triangles();
    const VertexId n = counter.graph().num_vertices();
    const std::uint64_t m = counter.graph().num_edges();
    EdgeDelta delta;
    delta.Insert(0, 3);
    delta.Insert(std::numeric_limits<VertexId>::max(), 0);
    EXPECT_THROW((void)counter.ApplyBatch(delta), std::invalid_argument);
    EXPECT_EQ(counter.triangles(), triangles);
    EXPECT_EQ(counter.graph().num_vertices(), n);
    EXPECT_EQ(counter.graph().num_edges(), m);
    EXPECT_FALSE(counter.graph().HasEdge(0, 3));
    // Still usable afterwards.
    EdgeDelta ok;
    ok.Insert(0, 3);
    const std::uint64_t after = counter.ApplyBatch(ok).triangles;
    EXPECT_EQ(after, RecountTruth(counter));
  }
}

TEST(IncrementalCounter, SingleDeleteOpensWedges) {
  stream::IncrementalCounter counter(SeedGraph());
  EdgeDelta delta;
  delta.Erase(1, 2);  // shared edge of both triangles
  const stream::BatchResult r = counter.ApplyBatch(delta);
  EXPECT_EQ(r.delta, -2);
  EXPECT_EQ(r.triangles, 0u);
  EXPECT_EQ(r.triangles, RecountTruth(counter));
}

TEST(IncrementalCounter, BatchInternalTrianglesAreExact) {
  // All three edges of a fresh triangle in one batch: the wedge count
  // of each op must see the batch's earlier ops (overlay corrections).
  graph::GraphBuilder b(3);
  b.AddEdge(0, 1);  // placeholder so the graph is non-empty
  stream::StreamConfig config;
  config.recount_fraction = 100.0;  // force the incremental path
  stream::IncrementalCounter counter(std::move(b).Build(), config);
  EdgeDelta delta;
  delta.Insert(1, 2);
  delta.Insert(0, 2);
  const stream::BatchResult r = counter.ApplyBatch(delta);
  EXPECT_FALSE(r.stats.used_recount);
  EXPECT_EQ(r.delta, 1);
  EXPECT_EQ(r.triangles, RecountTruth(counter));
}

TEST(IncrementalCounter, ToggleWithinBatchIsNetNeutral) {
  stream::StreamConfig config;
  config.recount_fraction = 100.0;
  stream::IncrementalCounter counter(SeedGraph(), config);
  EdgeDelta delta;
  delta.Insert(0, 3);
  delta.Erase(0, 3);
  const stream::BatchResult r = counter.ApplyBatch(delta);
  EXPECT_EQ(r.delta, 0);
  EXPECT_EQ(r.triangles, 2u);
  EXPECT_EQ(r.triangles, RecountTruth(counter));
}

TEST(IncrementalCounter, RecountFallbackOnLargeBatch) {
  stream::StreamConfig config;
  config.recount_fraction = 0.0;  // every non-empty batch recounts
  stream::IncrementalCounter counter(SeedGraph(), config);
  EdgeDelta delta;
  delta.Insert(0, 3);
  const stream::BatchResult r = counter.ApplyBatch(delta);
  EXPECT_TRUE(r.stats.used_recount);
  EXPECT_EQ(r.triangles, 4u);
  EXPECT_EQ(r.triangles, RecountTruth(counter));
}

TEST(IncrementalCounter, RejectsNegativeOrNanRecountFraction) {
  for (const double bad :
       {-0.5, std::numeric_limits<double>::quiet_NaN()}) {
    stream::StreamConfig config;
    config.recount_fraction = bad;
    EXPECT_THROW(stream::IncrementalCounter(SeedGraph(), config),
                 std::invalid_argument)
        << bad;
  }
}

TEST(IncrementalCounter, BulkLoadIntoEmptyGraph) {
  stream::IncrementalCounter counter(Graph{});
  EXPECT_EQ(counter.triangles(), 0u);
  EdgeDelta delta;
  delta.Insert(0, 1);
  delta.Insert(1, 2);
  delta.Insert(0, 2);
  const stream::BatchResult r = counter.ApplyBatch(delta);
  EXPECT_EQ(r.triangles, 1u);
  EXPECT_EQ(counter.graph().num_vertices(), 3u);
  EXPECT_EQ(r.triangles, RecountTruth(counter));
}

class IncrementalOrientationTest
    : public ::testing::TestWithParam<Orientation> {};

TEST_P(IncrementalOrientationTest, RandomChurnStaysExact) {
  const Graph seed = graph::ErdosRenyi(120, 600, 11);
  stream::StreamConfig config;
  config.orientation = GetParam();
  config.recount_fraction = 100.0;  // keep every batch incremental
  stream::IncrementalCounter counter(seed, config);
  util::Xoshiro256 rng(29);
  for (int batch = 0; batch < 15; ++batch) {
    EdgeDelta delta;
    for (int k = 0; k < 12; ++k) {
      const auto u = static_cast<VertexId>(rng() % 130);
      const auto v = static_cast<VertexId>(rng() % 130);
      if (rng() % 3 == 0) {
        delta.Erase(u, v);
      } else {
        delta.Insert(u, v);
      }
    }
    const stream::BatchResult r = counter.ApplyBatch(delta);
    EXPECT_FALSE(r.stats.used_recount);
    ASSERT_EQ(r.triangles, RecountTruth(counter)) << "batch " << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(Orientations, IncrementalOrientationTest,
                         ::testing::Values(Orientation::kUpper,
                                           Orientation::kDegree,
                                           Orientation::kFullSymmetric),
                         [](const auto& info) {
                           return graph::ToString(info.param);
                         });

// --- runtime integration ---------------------------------------------------

TEST(StreamSession, AggregatesBatchStats) {
  stream::StreamConfig config;
  config.recount_fraction = 1.0;  // keep the toy batches incremental
  runtime::StreamSession session(SeedGraph(), config);
  EdgeDelta first;
  first.Insert(0, 3);
  EdgeDelta second;
  second.Erase(1, 2);
  (void)session.Apply(first);
  (void)session.Apply(second);
  const runtime::StreamStats stats = session.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.edges_inserted, 1u);
  EXPECT_EQ(stats.edges_deleted, 1u);
  EXPECT_EQ(stats.net_delta,
            static_cast<std::int64_t>(session.triangles()) - 2);
  EXPECT_GT(stats.exec.valid_pairs, 0u);
  EXPECT_EQ(baseline::CountTrianglesReference(session.Snapshot()),
            session.triangles());
}

TEST(SchedulerUpdateJobs, InterleaveWithCountJobs) {
  auto session = std::make_shared<runtime::StreamSession>(SeedGraph());
  runtime::SchedulerConfig config;
  config.pool.num_banks = 1;
  runtime::Scheduler scheduler(config);

  EdgeDelta delta;
  delta.Insert(0, 3);
  runtime::JobHandle update =
      scheduler.SubmitUpdate(session, delta, {});
  runtime::JobHandle count = scheduler.Submit(SeedGraph(), {});

  const runtime::JobOutcome update_outcome = update.Wait();
  ASSERT_EQ(update_outcome.state, runtime::JobState::kDone);
  EXPECT_EQ(update_outcome.kind, runtime::JobKind::kUpdate);
  EXPECT_EQ(update_outcome.update.delta, 2);
  EXPECT_EQ(update_outcome.update.triangles, 4u);

  const runtime::JobOutcome count_outcome = count.Wait();
  ASSERT_EQ(count_outcome.state, runtime::JobState::kDone);
  EXPECT_EQ(count_outcome.kind, runtime::JobKind::kCount);
  EXPECT_EQ(count_outcome.result.triangles, 2u);

  // The session advanced; a follow-up count of its snapshot sees it.
  runtime::JobHandle after = scheduler.Submit(session->Snapshot(), {});
  EXPECT_EQ(after.Wait().result.triangles, 4u);
}

TEST(SchedulerUpdateJobs, NullSessionThrows) {
  runtime::SchedulerConfig config;
  config.pool.num_banks = 1;
  runtime::Scheduler scheduler(config);
  EXPECT_THROW((void)scheduler.SubmitUpdate(nullptr, EdgeDelta{}, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tcim
