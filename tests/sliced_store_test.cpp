// Tests for the compressed valid-slice representation (paper §IV-B):
// SlicedStore packing/round-trip and SlicedMatrix pair enumeration +
// statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "baseline/cpu_tc.h"
#include "bitmatrix/sliced_matrix.h"
#include "bitmatrix/sliced_store.h"
#include "graph/graph.h"
#include "graph/orientation.h"
#include "util/env.h"
#include "util/rng.h"

namespace tcim::bit {
namespace {

/// Builds a store from explicit per-vector position lists.
SlicedStore MakeStore(std::uint32_t num_vectors, std::uint64_t universe,
                      const std::vector<std::vector<std::uint32_t>>& rows,
                      std::uint32_t slice_bits) {
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> positions;
  for (const auto& row : rows) {
    positions.insert(positions.end(), row.begin(), row.end());
    offsets.push_back(positions.size());
  }
  return SlicedStore::FromCsr(num_vectors, universe, offsets, positions,
                              slice_bits);
}

TEST(SlicedStore, EmptyStoreHasNoSlices) {
  const SlicedStore s = MakeStore(3, 100, {{}, {}, {}}, 64);
  EXPECT_EQ(s.valid_slice_count(), 0u);
  EXPECT_EQ(s.compressed_bytes(), 0u);
  EXPECT_EQ(s.set_bit_count(), 0u);
  EXPECT_EQ(s.SliceCount(0), 0u);
}

TEST(SlicedStore, SingleBitMakesOneValidSlice) {
  const SlicedStore s = MakeStore(1, 1000, {{130}}, 64);
  EXPECT_EQ(s.valid_slice_count(), 1u);
  ASSERT_EQ(s.SliceIndices(0).size(), 1u);
  EXPECT_EQ(s.SliceIndices(0)[0], 130u / 64u);
  EXPECT_EQ(s.SliceWords(0, 0)[0], 1ULL << (130 % 64));
}

TEST(SlicedStore, BitsInSameSliceShareIt) {
  const SlicedStore s = MakeStore(1, 256, {{64, 65, 100, 127}}, 64);
  EXPECT_EQ(s.valid_slice_count(), 1u);
  EXPECT_EQ(s.set_bit_count(), 4u);
}

TEST(SlicedStore, BitsInDifferentSlicesSplit) {
  const SlicedStore s = MakeStore(1, 256, {{0, 64, 128, 192}}, 64);
  EXPECT_EQ(s.valid_slice_count(), 4u);
  const auto idx = s.SliceIndices(0);
  EXPECT_EQ(std::vector<std::uint32_t>(idx.begin(), idx.end()),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(SlicedStore, CompressedBytesFollowsPaperFormula) {
  // NVS * (|S|/8 + 4) bytes.
  const SlicedStore s = MakeStore(2, 512, {{0, 100, 200}, {300}}, 64);
  EXPECT_EQ(s.compressed_bytes(), s.valid_slice_count() * (64 / 8 + 4));
}

TEST(SlicedStore, SlicesPerVectorIsCeilUniverseOverS) {
  const SlicedStore s = MakeStore(1, 100, {{}}, 64);
  EXPECT_EQ(s.slices_per_vector(), 2u);  // ceil(100/64)
  const SlicedStore t = MakeStore(1, 128, {{}}, 64);
  EXPECT_EQ(t.slices_per_vector(), 2u);
  const SlicedStore u = MakeStore(1, 129, {{}}, 64);
  EXPECT_EQ(u.slices_per_vector(), 3u);
}

TEST(SlicedStore, NonPowerOfTwoSliceBits) {
  const SlicedStore s = MakeStore(1, 100, {{0, 47, 48, 99}}, 48);
  // positions 0,47 -> slice 0; 48 -> slice 1; 99 -> slice 2.
  EXPECT_EQ(s.valid_slice_count(), 3u);
  EXPECT_EQ(s.set_bit_count(), 4u);
  const BitVector round = s.ToBitVector(0);
  EXPECT_TRUE(round.Get(0));
  EXPECT_TRUE(round.Get(47));
  EXPECT_TRUE(round.Get(48));
  EXPECT_TRUE(round.Get(99));
  EXPECT_EQ(round.Count(), 4u);
}

TEST(SlicedStore, MultiWordSlices) {
  // 128-bit slices: two words per slice.
  const SlicedStore s = MakeStore(1, 1024, {{0, 64, 127, 128}}, 128);
  EXPECT_EQ(s.words_per_slice(), 2u);
  EXPECT_EQ(s.valid_slice_count(), 2u);  // slice 0 (0..127), slice 1 (128)
  const auto w0 = s.SliceWords(0, 0);
  EXPECT_EQ(w0[0], (1ULL << 0) | (1ULL << 64 % 64));  // bits 0 and 64? no:
  // bit 0 -> word0 bit0; bit 64 -> word1 bit0; bit 127 -> word1 bit63.
  EXPECT_EQ(w0[0], 1ULL);
  EXPECT_EQ(w0[1], 1ULL | (1ULL << 63));
}

TEST(SlicedStore, RoundTripRandom) {
  util::Xoshiro256 rng(77);
  for (const std::uint32_t slice_bits : {8u, 16u, 32u, 64u, 128u, 256u}) {
    std::vector<std::vector<std::uint32_t>> rows(20);
    std::vector<BitVector> reference(20, BitVector(700));
    for (int v = 0; v < 20; ++v) {
      std::uint32_t pos = 0;
      while (true) {
        pos += 1 + static_cast<std::uint32_t>(rng.UniformBelow(60));
        if (pos >= 700) break;
        rows[v].push_back(pos);
        reference[v].Set(pos);
      }
    }
    const SlicedStore s = MakeStore(20, 700, rows, slice_bits);
    for (std::uint32_t v = 0; v < 20; ++v) {
      EXPECT_EQ(s.ToBitVector(v), reference[v])
          << "slice_bits=" << slice_bits << " v=" << v;
    }
  }
}

TEST(SlicedStore, ForEachSetBitVisitsInOrder) {
  const std::vector<std::uint32_t> positions = {3, 64, 65, 200, 500};
  const SlicedStore s =
      MakeStore(1, 512, {positions}, 64);
  std::vector<std::uint64_t> visited;
  s.ForEachSetBit(0, [&](std::uint64_t p) { visited.push_back(p); });
  EXPECT_EQ(visited, (std::vector<std::uint64_t>{3, 64, 65, 200, 500}));
}

TEST(SlicedStore, GlobalOrdinalIsStableAndDense) {
  const SlicedStore s =
      MakeStore(3, 256, {{0, 64}, {}, {128, 192}}, 64);
  EXPECT_EQ(s.GlobalOrdinal(0, 0), 0u);
  EXPECT_EQ(s.GlobalOrdinal(0, 1), 1u);
  EXPECT_EQ(s.GlobalOrdinal(2, 0), 2u);
  EXPECT_EQ(s.GlobalOrdinal(2, 1), 3u);
  EXPECT_THROW((void)s.GlobalOrdinal(1, 0), std::out_of_range);
  EXPECT_THROW((void)s.GlobalOrdinal(3, 0), std::out_of_range);
}

TEST(SlicedStore, RejectsMalformedInput) {
  const std::vector<std::uint64_t> offsets = {0, 2};
  const std::vector<std::uint32_t> unsorted = {10, 5};
  EXPECT_THROW(
      SlicedStore::FromCsr(1, 100, offsets, unsorted, 64),
      std::invalid_argument);
  const std::vector<std::uint32_t> dup = {5, 5};
  EXPECT_THROW(SlicedStore::FromCsr(1, 100, offsets, dup, 64),
               std::invalid_argument);
  const std::vector<std::uint32_t> out = {5, 200};
  EXPECT_THROW(SlicedStore::FromCsr(1, 100, offsets, out, 64),
               std::invalid_argument);
  const std::vector<std::uint32_t> ok = {5, 10};
  EXPECT_THROW(SlicedStore::FromCsr(1, 100, offsets, ok, 0),
               std::invalid_argument);
  EXPECT_THROW(SlicedStore::FromCsr(1, 100, offsets, ok, 1000),
               std::invalid_argument);
  const std::vector<std::uint64_t> bad_offsets = {1, 2};
  EXPECT_THROW(SlicedStore::FromCsr(1, 100, bad_offsets, ok, 64),
               std::invalid_argument);
}

TEST(SlicedStore, ExtractVectorsKeepsShapeAndKeptVectorsOnly) {
  const SlicedStore s = MakeStore(
      5, 512, {{0, 64}, {3, 130}, {}, {500}, {1, 2, 3}}, 64);
  const std::vector<std::uint32_t> keep = {1, 3};
  const SlicedStore sub = s.ExtractVectors(keep);
  // Same shape — the replica substitutes for the column store 1:1.
  EXPECT_EQ(sub.num_vectors(), s.num_vectors());
  EXPECT_EQ(sub.universe(), s.universe());
  EXPECT_EQ(sub.slice_bits(), s.slice_bits());
  // Kept vectors are bit-identical; everything else is empty.
  for (std::uint32_t v = 0; v < 5; ++v) {
    if (std::find(keep.begin(), keep.end(), v) != keep.end()) {
      EXPECT_EQ(sub.ToBitVector(v), s.ToBitVector(v)) << "kept " << v;
    } else {
      EXPECT_EQ(sub.ToBitVector(v).Count(), 0u) << "dropped " << v;
      EXPECT_EQ(sub.SliceCount(v), 0u);
    }
  }
  EXPECT_EQ(sub.set_bit_count(), 3u);  // vectors 1 and 3
}

TEST(SlicedStore, ExtractVectorsSharesFullyKeptSlabs) {
  // Keep EVERY vector: the extract must be a pure COW copy — all
  // slabs shared by pointer, zero words copied.
  std::vector<std::vector<std::uint32_t>> rows(300);
  util::Xoshiro256 rng(7);
  for (auto& row : rows) {
    std::uint32_t p = 0;
    for (int k = 0; k < 6; ++k) {
      p += 1 + static_cast<std::uint32_t>(rng.UniformBelow(100));
      if (p < 1024) row.push_back(p);
    }
  }
  const SlicedStore s = MakeStore(300, 1024, rows, 64);
  std::vector<std::uint32_t> all(300);
  for (std::uint32_t v = 0; v < 300; ++v) all[v] = v;
  const SlicedStore everything = s.ExtractVectors(all);
  EXPECT_EQ(SharedSlabCount(s, everything), s.slab_count());
  // A partial keep still shares every slab it keeps in full.
  const std::vector<std::uint32_t> keep_one = {5};
  const SlicedStore partial = s.ExtractVectors(keep_one);
  EXPECT_LT(SharedSlabCount(s, partial), s.slab_count());
  EXPECT_EQ(partial.ToBitVector(5), s.ToBitVector(5));
}

TEST(SlicedStore, ExtractVectorsEmptyKeepGivesEmptyStore) {
  const SlicedStore s = MakeStore(3, 256, {{0}, {64}, {128}}, 64);
  const SlicedStore none = s.ExtractVectors({});
  EXPECT_EQ(none.num_vectors(), 3u);
  EXPECT_EQ(none.valid_slice_count(), 0u);
  EXPECT_EQ(none.set_bit_count(), 0u);
}

TEST(SlicedStore, ExtractVectorsRejectsBadKeepLists) {
  const SlicedStore s = MakeStore(3, 256, {{0}, {64}, {128}}, 64);
  const std::vector<std::uint32_t> unsorted = {2, 0};
  EXPECT_THROW((void)s.ExtractVectors(unsorted), std::invalid_argument);
  const std::vector<std::uint32_t> dup = {1, 1};
  EXPECT_THROW((void)s.ExtractVectors(dup), std::invalid_argument);
  const std::vector<std::uint32_t> out = {3};
  EXPECT_THROW((void)s.ExtractVectors(out), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SlicedMatrix

/// Small oriented CSR: arcs 0->1, 0->2, 1->2, 1->3, 2->3 (Fig. 2).
SlicedMatrix Fig2Matrix(std::uint32_t slice_bits = 64) {
  const std::vector<std::uint64_t> offsets = {0, 2, 4, 5, 5};
  const std::vector<std::uint32_t> neighbors = {1, 2, 2, 3, 3};
  return SlicedMatrix::FromCsr(4, offsets, neighbors, slice_bits);
}

TEST(SlicedMatrix, Fig2RowAndColumnStores) {
  const SlicedMatrix m = Fig2Matrix();
  EXPECT_EQ(m.num_vertices(), 4u);
  EXPECT_EQ(m.edge_count(), 5u);
  // Row 0 = {1,2}; column 3 = {1,2}.
  EXPECT_EQ(m.rows().ToBitVector(0).Count(), 2u);
  EXPECT_TRUE(m.cols().ToBitVector(3).Get(1));
  EXPECT_TRUE(m.cols().ToBitVector(3).Get(2));
}

TEST(SlicedMatrix, Fig2BitwiseCountIsTwoTriangles) {
  // With the upper-triangular orientation Eq. (5) counts each triangle
  // exactly once: the paper's example totals 2.
  EXPECT_EQ(Fig2Matrix().AndPopcountAllEdges(), 2u);
}

TEST(SlicedMatrix, Fig2WorksAtAllSliceWidths) {
  for (const std::uint32_t s : {1u, 2u, 3u, 4u, 8u, 16u, 32u, 64u}) {
    EXPECT_EQ(Fig2Matrix(s).AndPopcountAllEdges(), 2u) << "slice=" << s;
  }
}

TEST(SlicedMatrix, ColumnStoreIsTranspose) {
  util::Xoshiro256 rng(31);
  const std::uint32_t n = 80;
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.1)) adj[i].push_back(j);
    }
  }
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> neighbors;
  for (const auto& row : adj) {
    neighbors.insert(neighbors.end(), row.begin(), row.end());
    offsets.push_back(neighbors.size());
  }
  const SlicedMatrix m = SlicedMatrix::FromCsr(n, offsets, neighbors, 64);
  for (std::uint32_t i = 0; i < n; ++i) {
    const BitVector row = m.rows().ToBitVector(i);
    row.ForEachSetBit([&](std::uint64_t j) {
      EXPECT_TRUE(
          m.cols().ToBitVector(static_cast<std::uint32_t>(j)).Get(i));
    });
  }
  EXPECT_EQ(m.rows().set_bit_count(), m.cols().set_bit_count());
}

TEST(SlicedMatrix, ForEachValidPairMergesSortedIndices) {
  // 256 vertices; row 0 -> {1, 130, 200}, everything else empty.
  std::vector<std::uint64_t> offsets(257, 3);
  offsets[0] = 0;
  const std::vector<std::uint32_t> neighbors = {1, 130, 200};
  const SlicedMatrix m = SlicedMatrix::FromCsr(256, offsets, neighbors, 64);
  // Row 0 valid slices: {0 (bit 1), 2 (bit 130), 3 (bit 200)}.
  std::vector<std::uint32_t> visited;
  m.ForEachValidPair(0, 130, [&](std::uint32_t k, std::size_t,
                                 std::size_t) { visited.push_back(k); });
  // Column 130 contains only vertex 0 -> slice 0; common slice = {0}.
  EXPECT_EQ(visited, (std::vector<std::uint32_t>{0}));
}

TEST(SlicedMatrix, StatsInvariants) {
  const SlicedMatrix m = Fig2Matrix();
  const SliceStats stats = m.ComputeStats();
  EXPECT_EQ(stats.edges, 5u);
  EXPECT_EQ(stats.valid_pairs, 5u);  // n=4 fits in one slice: all valid
  EXPECT_EQ(stats.total_pairs, 5u * 1u);
  EXPECT_LE(stats.touched_row_slices, stats.row_valid_slices);
  EXPECT_LE(stats.touched_col_slices, stats.col_valid_slices);
  EXPECT_EQ(stats.CompressedBytes(),
            (stats.row_valid_slices + stats.col_valid_slices) * 12);
  EXPECT_GT(stats.ValidSliceFraction(), 0.0);
  EXPECT_LE(stats.ValidSliceFraction(), 1.0);
  EXPECT_DOUBLE_EQ(stats.ValidPairFraction(), 1.0);
}

TEST(SlicedMatrix, SparsityReducesValidPairFraction) {
  // A large sparse ring: most (row, col) slice pairs are invalid.
  const std::uint32_t n = 4096;
  std::vector<std::uint64_t> offsets(n + 1, 0);
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    neighbors.push_back(i + 1);
    offsets[i + 1] = neighbors.size();
  }
  offsets[n] = neighbors.size();
  const SlicedMatrix m = SlicedMatrix::FromCsr(n, offsets, neighbors, 64);
  const SliceStats stats = m.ComputeStats();
  EXPECT_LT(stats.ValidPairFraction(), 0.05);
  EXPECT_LT(stats.ValidSliceFraction(), 0.05);
}

TEST(SlicedMatrix, RejectsOutOfRangeNeighbor) {
  const std::vector<std::uint64_t> offsets = {0, 1};
  const std::vector<std::uint32_t> neighbors = {5};
  EXPECT_THROW(SlicedMatrix::FromCsr(1, offsets, neighbors, 64),
               std::invalid_argument);
}

TEST(SlicedMatrix, HeapBytesPositiveForNonEmpty) {
  EXPECT_GT(Fig2Matrix().HeapBytes(), 0u);
}

// ---------------------------------------------------------------------------
// Host Eq. (5) pass: AndPopcountAllEdges forwards to the one
// enumerator, AndPopcountRect, which gathers valid pairs and sums them
// in flush blocks; these tests pin it to the per-pair formulation it
// replaced, across slice widths (words_per_slice 1..8), row shards and
// rectangles.

/// Random upper-triangular CSR over `n` vertices with ~`avg_degree`
/// out-arcs per vertex.
SlicedMatrix RandomUpperMatrix(std::uint32_t n, std::uint32_t avg_degree,
                               std::uint32_t slice_bits, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::vector<std::uint32_t> out;
    for (std::uint32_t d = 0; d < avg_degree; ++d) {
      if (i + 1 < n) {
        out.push_back(i + 1 +
                      static_cast<std::uint32_t>(rng.UniformBelow(n - i - 1)));
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    neighbors.insert(neighbors.end(), out.begin(), out.end());
    offsets.push_back(neighbors.size());
  }
  return SlicedMatrix::FromCsr(n, offsets, neighbors, slice_bits);
}

/// The per-slice-pair reference, evaluated with the exact per-word
/// SWAR strategy so it never touches the kBuiltin kernel under test.
std::uint64_t PerPairReference(const SlicedMatrix& m) {
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < m.num_vertices(); ++i) {
    m.rows().ForEachSetBit(i, [&](std::uint64_t j64) {
      const auto j = static_cast<std::uint32_t>(j64);
      m.ForEachValidPair(i, j, [&](std::uint32_t, std::size_t ra,
                                   std::size_t cb) {
        total += AndPopcount(m.rows().SliceWords(i, ra),
                             m.cols().SliceWords(j, cb), PopcountKind::kSwar);
      });
    });
  }
  return total;
}

TEST(SlicedMatrixBatched, MatchesPerPairLoopAcrossWidths) {
  // words_per_slice covers 1..8 (|S| = 64w), plus non-multiples of 64
  // to exercise zero-padded tail words inside each pair.
  for (const std::uint32_t slice_bits :
       {8u, 64u, 100u, 128u, 192u, 256u, 320u, 384u, 448u, 512u}) {
    const SlicedMatrix m = RandomUpperMatrix(300, 6, slice_bits, 4242);
    const std::uint32_t n = m.num_vertices();
    const std::uint64_t expected = PerPairReference(m);
    EXPECT_EQ(m.AndPopcountAllEdges(), expected)
        << "slice_bits=" << slice_bits;
    EXPECT_EQ(m.AndPopcountRect(0, n, 0, n), expected)
        << "slice_bits=" << slice_bits;
  }
}

TEST(SlicedMatrixBatched, DisjointRowShardsPartitionTheTotal) {
  const SlicedMatrix m = RandomUpperMatrix(500, 5, 64, 77);
  const std::uint32_t n = m.num_vertices();
  const std::uint64_t total = m.AndPopcountAllEdges();
  for (const std::uint32_t shards : {1u, 2u, 3u, 7u}) {
    std::uint64_t sum = 0;
    for (std::uint32_t s = 0; s < shards; ++s) {
      const std::uint32_t begin = n * s / shards;
      const std::uint32_t end = n * (s + 1) / shards;
      sum += m.AndPopcountRect(begin, end, 0, n);
    }
    EXPECT_EQ(sum, total) << "shards=" << shards;
  }
  EXPECT_EQ(m.AndPopcountRect(0, 0, 0, n), 0u);
  EXPECT_EQ(m.AndPopcountRect(n, n, 0, n), 0u);
  EXPECT_THROW((void)m.AndPopcountRect(2, 1, 0, n), std::out_of_range);
  EXPECT_THROW((void)m.AndPopcountRect(0, n + 1, 0, n), std::out_of_range);
}

TEST(SlicedMatrixBatched, LargeRowCrossesFlushBoundary) {
  // A near-complete upper matrix: the first pivot rows alone gather
  // far more than the 2 Ki-word flush block (row 0 has ~1499 edges,
  // each matching many of its ~24 valid slices), so the gather must
  // flush repeatedly *mid-row* and still sum exactly.
  const SlicedMatrix m = RandomUpperMatrix(1500, 1500, 64, 9001);
  ASSERT_GT(m.edge_count(), 500000u);  // dense enough to force flushes
  EXPECT_EQ(m.AndPopcountAllEdges(), PerPairReference(m));
}

TEST(SlicedMatrixBatched, HotPathNeverTouchesHardwareModelCounters) {
  const SlicedMatrix m = RandomUpperMatrix(200, 8, 64, 5);
  const std::uint64_t before = Lut8Invocations();
  (void)m.AndPopcountAllEdges();
  (void)m.AndPopcountRect(0, m.num_vertices(), 0, m.num_vertices());
  std::vector<PairRef> refs;
  (void)GatherValidPairRefs(m.rows(), 0, m.cols(), 1, refs);
  (void)AndPopcountPairsZeroCopy(refs);
  EXPECT_EQ(Lut8Invocations(), before)
      << "host path fed words to the LUT8 hardware model";
}

TEST(SlicedMatrixBatched, KindOverloadRunsTheHostPassAtBuiltinOnly) {
  // The PopcountKind overload of AndPopcountAllEdges is the same pass
  // at kBuiltin and refuses the hardware-model kinds.
  const SlicedMatrix m = RandomUpperMatrix(200, 8, 64, 5);
  PairPathCounters counters;
  EXPECT_EQ(m.AndPopcountAllEdges(PopcountKind::kBuiltin, &counters),
            m.AndPopcountAllEdges());
  EXPECT_EQ(counters.zero_copy_pairs, m.ComputeStats().valid_pairs);
  EXPECT_EQ(counters.per_pair_pairs, 0u);
  for (const PopcountKind kind :
       {PopcountKind::kSwar, PopcountKind::kLut8, PopcountKind::kLut16}) {
    EXPECT_THROW((void)m.AndPopcountAllEdges(kind), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Pair accounting: every pair of a pass lands in zero_copy_pairs, and
// column_pivot_pairs holds the ones gathered under the column pivot.

TEST(SlicedMatrixRoute, SmallStoresRouteEveryPairZeroCopy) {
  for (const std::uint32_t slice_bits : {64u, 448u, 512u}) {
    const SlicedMatrix m = RandomUpperMatrix(300, 6, slice_bits, 2024);
    PairPathCounters counters;
    EXPECT_EQ(m.AndPopcountAllEdges(&counters), PerPairReference(m))
        << "slice_bits=" << slice_bits;
    EXPECT_EQ(counters.zero_copy_pairs, m.ComputeStats().valid_pairs);
  }
}

TEST(SlicedMatrixRoute, RowShardCountersSumToWholeMatrix) {
  const SlicedMatrix m = RandomUpperMatrix(400, 7, 64, 4096);
  PairPathCounters whole;
  const std::uint64_t total = m.AndPopcountAllEdges(&whole);
  PairPathCounters sharded;
  std::uint64_t sum = 0;
  for (const auto [begin, end] :
       {std::pair<std::uint32_t, std::uint32_t>{0, 100},
        {100, 101},
        {101, 400}}) {
    sum += m.AndPopcountRect(begin, end, 0, m.num_vertices(), nullptr, true,
                             nullptr, &sharded);
  }
  EXPECT_EQ(sum, total);
  EXPECT_EQ(sharded.zero_copy_pairs, whole.zero_copy_pairs);
  EXPECT_EQ(sharded.column_pivot_pairs, whole.column_pivot_pairs);
}

/// Upper-triangular band matrix with arcs i -> i+1 and i -> i+2: n - 2
/// triangles, ~1 valid slice per vector — the sparse, no-reuse shape
/// of a road graph. At |S|=512 and n = 2^18 its two stores spill a
/// last-level cache: every pair is a cold 8-word touch.
SlicedMatrix BandMatrix(std::uint32_t n, std::uint32_t slice_bits) {
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t step = 1; step <= 2; ++step) {
      if (i + step < n) neighbors.push_back(i + step);
    }
    offsets.push_back(neighbors.size());
  }
  return SlicedMatrix::FromCsr(n, offsets, neighbors, slice_bits);
}

TEST(SlicedMatrixRoute, GatheredRouteIsExactOnEveryEntryPoint) {
  constexpr std::uint32_t kN = 1u << 18;
  const SlicedMatrix m = BandMatrix(kN, 512);
  const double avg_valid = static_cast<double>(m.rows().valid_slice_count()) /
                           static_cast<double>(m.num_vertices());
  ASSERT_GT(m.HeapBytes(), std::uint64_t{32} << 20);
  ASSERT_LT(avg_valid, 1.1);
  const std::uint64_t expected = PerPairReference(m);
  ASSERT_EQ(expected, kN - 2u);
  const std::uint64_t valid_pairs = m.ComputeStats().valid_pairs;
  const std::uint64_t column_pivot_pairs =
      m.PrefersColumnPivot() ? valid_pairs : 0;

  // Hub/tail split over a column mask; the hub lane reads a replica
  // that holds only the hub columns (the 2D runtime's layout).
  std::vector<std::uint8_t> hub_mask(kN, 0);
  std::vector<std::uint32_t> hubs;
  for (std::uint32_t j = 0; j < kN; j += 3) {
    hub_mask[j] = 1;
    hubs.push_back(j);
  }
  const SlicedStore replica = m.cols().ExtractVectors(hubs);

  PairPathCounters all;
  EXPECT_EQ(m.AndPopcountAllEdges(&all), expected);
  PairPathCounters rows;
  EXPECT_EQ(m.AndPopcountRect(0, kN / 3, 0, kN, nullptr, true, nullptr,
                              &rows) +
                m.AndPopcountRect(kN / 3, kN, 0, kN, nullptr, true, nullptr,
                                  &rows),
            expected);

  // Upper-triangular, so the lower-left quadrant is empty and these
  // three rectangles cover every arc.
  PairPathCounters quadrants;
  EXPECT_EQ(m.AndPopcountRect(0, kN / 2, 0, kN, nullptr, true, nullptr,
                              &quadrants) +
                m.AndPopcountRect(kN / 2, kN, kN / 2, kN, nullptr, true,
                                  nullptr, &quadrants),
            expected);

  PairPathCounters masked;
  const std::uint64_t hub_lane = m.AndPopcountRect(
      0, kN, 0, kN, hub_mask.data(), true, &replica, &masked);
  const std::uint64_t tail = m.AndPopcountRect(0, kN, 0, kN, hub_mask.data(),
                                               false, nullptr, &masked);
  EXPECT_GT(hub_lane, 0u);
  EXPECT_EQ(hub_lane + tail, expected);

  for (const PairPathCounters& c : {all, rows, quadrants, masked}) {
    EXPECT_EQ(c.zero_copy_pairs, valid_pairs);
    EXPECT_EQ(c.column_pivot_pairs, column_pivot_pairs);
  }
}

// ---------------------------------------------------------------------------
// The one enumerator at every slice width: every entry point and every
// way of tiling a pass (row shards, column ranges, a 2D grid, hub/tail
// masks read through a replica store) sums to the per-pair reference,
// with every pair gathered zero-copy. Each case runs at |S| in
// {8, 64, 100, 192, 512} on three shapes: the random upper matrix, and
// hub-skewed matrices whose hubs sit on the column side (the gather
// pivots on columns) or on the row side (it pivots on rows).

enum class Shape {
  kRandom,
  kHubColumns,
  kHubRows,
  kThresholdColumns,
  kThresholdRows,
};

/// Whether `shape` puts its hubs (or its threshold-sized vectors) on
/// the column side, where the gather then pivots.
bool OnColumns(Shape shape) {
  return shape == Shape::kHubColumns || shape == Shape::kThresholdColumns;
}

/// Graph of local band edges (each vertex links to ~avg_degree/2 of
/// the next 24 ids, so a row or column spans few slices) plus n/16
/// hubs linked to every vertex. Under kUpper, hubs at the top ids
/// become dense columns and hubs at the bottom ids dense rows.
graph::Graph HubGraph(std::uint32_t n, std::uint32_t avg_degree,
                      std::uint64_t seed, bool hubs_on_columns) {
  util::Xoshiro256 rng(seed);
  graph::GraphBuilder b(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint32_t d = 0; d < avg_degree / 2; ++d) {
      const auto w = v + 1 + static_cast<std::uint32_t>(rng.UniformBelow(24));
      if (w < n) b.AddEdge(v, w);
    }
  }
  const std::uint32_t hubs = std::max(2u, n / 16);
  for (std::uint32_t h = 0; h < hubs; ++h) {
    const std::uint32_t hub = hubs_on_columns ? n - 1 - h : h;
    for (std::uint32_t v = 0; v < n; ++v) b.AddEdge(hub, v);
  }
  return std::move(b).Build();
}

SlicedMatrix UpperMatrix(const graph::Graph& g, std::uint32_t slice_bits) {
  const graph::OrientedCsr csr = graph::Orient(g, graph::Orientation::kUpper);
  return SlicedMatrix::FromCsr(csr.num_vertices, csr.offsets, csr.neighbors,
                               slice_bits);
}

/// The shapes of the pivot vectors a threshold matrix cycles through:
/// valid slices and set bits per slice. They sit at the hub-pivot
/// route's boundary (kHubPivotMinSlices - 1 and kHubPivotMinSlices
/// slices) and clear of it on both sides, and two of them hold more
/// than kHubPivotMinSlices bits in fewer slices, which the route must
/// leave on the descriptor stream.
constexpr std::uint64_t kMinSlices = SlicedMatrix::kHubPivotMinSlices;
struct PivotShape {
  std::uint64_t slices;
  std::uint64_t bits_per_slice;
};
constexpr PivotShape kThresholdShapes[] = {
    {kMinSlices - 1, 1}, {kMinSlices, 1},     {1, 1},
    {kMinSlices + 1, 1}, {2, kMinSlices},     {kMinSlices - 1, 2},
    {kMinSlices, 1},     {3, 1},              {2 * kMinSlices, 1},
};

/// Upper-triangular matrix whose rows (or, with `on_columns`, columns)
/// cycle through kThresholdShapes: row i takes the next slices after
/// its own, one after another, with random bits in each. Rows too close
/// to the last slice keep fewer slices. Four hub rows link to every
/// later id, which tips the probe totals to the row pivot; `on_columns`
/// mirrors every arc (i, j) to (n-1-j, n-1-i), which turns rows into
/// columns and the pivot with them (n is a multiple of |S|, so slices
/// mirror onto slices). n grows to at least kHubPivotMinSlices + 4
/// slices, so that the boundary shapes fit.
SlicedMatrix ThresholdMatrix(std::uint32_t n, std::uint32_t slice_bits,
                             std::uint64_t seed, bool on_columns) {
  const auto slices =
      static_cast<std::uint32_t>(std::max<std::uint64_t>(
          kMinSlices + 4, (n + slice_bits - 1) / slice_bits));
  n = slices * slice_bits;
  util::Xoshiro256 rng(seed);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> arcs;
  const auto add = [&](std::uint32_t i, std::uint32_t j) {
    arcs.emplace_back(on_columns ? n - 1 - j : i, on_columns ? n - 1 - i : j);
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i < 4) {
      for (std::uint32_t j = i + 1; j < n; ++j) add(i, j);
      continue;
    }
    const PivotShape shape = kThresholdShapes[i % std::size(kThresholdShapes)];
    const std::uint32_t first = i / slice_bits + 1;
    for (std::uint32_t s = first; s < slices && s < first + shape.slices; ++s) {
      std::vector<std::uint32_t> bits(slice_bits);
      for (std::uint32_t b = 0; b < slice_bits; ++b) bits[b] = b;
      const auto take = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(shape.bits_per_slice, slice_bits));
      for (std::uint32_t b = 0; b < take; ++b) {
        std::swap(bits[b], bits[b + rng.UniformBelow(slice_bits - b)]);
        add(i, s * slice_bits + bits[b]);
      }
    }
  }
  std::sort(arcs.begin(), arcs.end());
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::uint32_t> neighbors;
  for (const auto& [from, to] : arcs) {
    ++offsets[from + 1];
    neighbors.push_back(to);
  }
  for (std::uint32_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  return SlicedMatrix::FromCsr(n, offsets, neighbors, slice_bits);
}

SlicedMatrix ShapedMatrix(Shape shape, std::uint32_t n,
                          std::uint32_t avg_degree, std::uint32_t slice_bits,
                          std::uint64_t seed) {
  switch (shape) {
    case Shape::kRandom:
      return RandomUpperMatrix(n, avg_degree, slice_bits, seed);
    case Shape::kThresholdColumns:
    case Shape::kThresholdRows:
      return ThresholdMatrix(n, slice_bits, seed, OnColumns(shape));
    case Shape::kHubColumns:
    case Shape::kHubRows:
      break;
  }
  return UpperMatrix(HubGraph(n, avg_degree, seed, OnColumns(shape)),
                     slice_bits);
}

/// A hub-skewed shape takes its own side's pivot wherever a vector
/// spans more than one slice (with one slice per vector both totals
/// count arcs, and the tie keeps the row pivot).
void ExpectShapePivot(const SlicedMatrix& m, Shape shape) {
  if (shape == Shape::kRandom) return;
  if (!OnColumns(shape) || m.rows().slices_per_vector() == 1) {
    EXPECT_FALSE(m.PrefersColumnPivot());
  } else {
    EXPECT_TRUE(m.PrefersColumnPivot());
  }
}

/// The Eq. (5) oracle of one rectangle pass (arcs selected as in
/// AndPopcountRect, rows read from m.rows(), columns from m.cols()):
/// its count with the per-word SWAR strategy, its valid pairs, and the
/// pairs whose pivot vector — row i under the row pivot, column j
/// under the column pivot — holds at least `min_slices` valid slices.
struct RectOracle {
  std::uint64_t count = 0;
  std::uint64_t pairs = 0;
  std::uint64_t hub_route_pairs = 0;
};

RectOracle RectReference(const SlicedMatrix& m, std::uint32_t row_begin,
                         std::uint32_t row_end, std::uint32_t col_begin,
                         std::uint32_t col_end,
                         const std::uint8_t* col_mask = nullptr,
                         bool mask_value = true,
                         std::uint64_t min_slices = kMinSlices) {
  const SlicedStore& pivots = m.PrefersColumnPivot() ? m.cols() : m.rows();
  RectOracle oracle;
  for (std::uint32_t i = row_begin; i < row_end; ++i) {
    m.ForEachArcInRect(i, col_begin, col_end, col_mask, mask_value,
                       [&](std::uint32_t j) {
      const bool hub =
          pivots.SliceCount(m.PrefersColumnPivot() ? j : i) >= min_slices;
      m.ForEachValidPair(i, j, [&](std::uint32_t, std::size_t ra,
                                   std::size_t cb) {
        oracle.count += AndPopcount(m.rows().SliceWords(i, ra),
                                    m.cols().SliceWords(j, cb),
                                    PopcountKind::kSwar);
        ++oracle.pairs;
        if (hub) ++oracle.hub_route_pairs;
      });
    });
  }
  return oracle;
}

/// The hub-route pairs of a whole pass. A pivot qualifies by its full
/// slice count, not by the arcs a rectangle selects, so any family of
/// rectangles that partitions the arcs sums to this.
std::uint64_t HubRoutePairsOf(const SlicedMatrix& m) {
  const std::uint32_t n = m.num_vertices();
  return RectReference(m, 0, n, 0, n).hub_route_pairs;
}

/// Column-pivot pairs a pass of `valid_pairs` pairs reports: all of
/// them when the gather pivots on columns, else none.
std::uint64_t ColumnPivotPairsFor(const SlicedMatrix& m,
                                  std::uint64_t valid_pairs) {
  return m.PrefersColumnPivot() ? valid_pairs : 0;
}

// The case bodies, shared by the random-matrix fixture and the
// hub-shape fixture below.
void ExpectRowShardsRectAndAllEdgesMatchPerPair(std::uint32_t slice_bits,
                                                Shape shape) {
  const SlicedMatrix m = ShapedMatrix(shape, 300, 6, slice_bits, 1234);
  ExpectShapePivot(m, shape);
  const std::uint32_t n = m.num_vertices();
  const std::uint64_t expected = PerPairReference(m);
  const std::uint64_t valid_pairs = m.ComputeStats().valid_pairs;
  PairPathCounters all;
  EXPECT_EQ(m.AndPopcountAllEdges(&all), expected);
  PairPathCounters rows;
  EXPECT_EQ(m.AndPopcountRect(0, n / 2, 0, n, nullptr, true, nullptr, &rows) +
                m.AndPopcountRect(n / 2, n, 0, n, nullptr, true, nullptr,
                                  &rows),
            expected);
  PairPathCounters rect;
  EXPECT_EQ(m.AndPopcountRect(0, n, 0, n, nullptr, true, nullptr, &rect),
            expected);
  const std::uint64_t hub_route_pairs = HubRoutePairsOf(m);
  for (const PairPathCounters& c : {all, rows, rect}) {
    EXPECT_EQ(c.zero_copy_pairs, valid_pairs);
    EXPECT_EQ(c.column_pivot_pairs, ColumnPivotPairsFor(m, valid_pairs));
    EXPECT_EQ(c.hub_route_pairs, hub_route_pairs);
  }
}

void ExpectColumnRangesAndGridTileTheMatrix(std::uint32_t slice_bits,
                                            Shape shape) {
  // n = 384 = 2 x 192 keeps the n/16 top-id hubs inside one slice at
  // |S|=192 (at n = 400 they straddle a slice boundary, and the two
  // probe totals of the hub-column shape tie within 1%).
  const SlicedMatrix m = ShapedMatrix(shape, 384, 7, slice_bits, 99);
  ExpectShapePivot(m, shape);
  const std::uint32_t n = m.num_vertices();
  const std::uint64_t total = PerPairReference(m);
  const std::uint64_t valid_pairs = m.ComputeStats().valid_pairs;
  const std::uint64_t hub_route_pairs = HubRoutePairsOf(m);
  for (const std::uint32_t parts : {1u, 2u, 5u}) {
    std::uint64_t by_cols = 0;
    std::uint64_t by_grid = 0;
    PairPathCounters grid;
    for (std::uint32_t c = 0; c < parts; ++c) {
      const std::uint32_t c0 = n * c / parts;
      const std::uint32_t c1 = n * (c + 1) / parts;
      by_cols += m.AndPopcountRect(0, n, c0, c1);
      for (std::uint32_t r = 0; r < parts; ++r) {
        by_grid += m.AndPopcountRect(n * r / parts, n * (r + 1) / parts, c0,
                                     c1, nullptr, true, nullptr, &grid);
      }
    }
    EXPECT_EQ(by_cols, total) << "parts=" << parts;
    EXPECT_EQ(by_grid, total) << "parts=" << parts;
    EXPECT_EQ(grid.zero_copy_pairs, valid_pairs);
    EXPECT_EQ(grid.column_pivot_pairs, ColumnPivotPairsFor(m, valid_pairs));
    EXPECT_EQ(grid.hub_route_pairs, hub_route_pairs);
  }
  EXPECT_EQ(m.AndPopcountRect(0, n, 7, 7), 0u);
  EXPECT_EQ(m.AndPopcountRect(n, n, 0, n), 0u);
  EXPECT_THROW((void)m.AndPopcountRect(0, n, 3, 2), std::out_of_range);
  EXPECT_THROW((void)m.AndPopcountRect(0, n, 0, n + 1), std::out_of_range);
}

void ExpectMaskedRectWithReplicaSplitsTheTotal(std::uint32_t slice_bits,
                                               Shape shape) {
  const SlicedMatrix m = ShapedMatrix(shape, 300, 8, slice_bits, 555);
  ExpectShapePivot(m, shape);
  const std::uint32_t n = m.num_vertices();
  const std::uint64_t total = PerPairReference(m);
  std::vector<std::uint8_t> hub_mask(n, 0);
  std::vector<std::uint32_t> hubs;
  for (std::uint32_t j = 0; j < n; j += 4) {
    hub_mask[j] = 1;
    hubs.push_back(j);
  }
  const SlicedStore replica = m.cols().ExtractVectors(hubs);

  PairPathCounters counters;
  const std::uint64_t hub_lane = m.AndPopcountRect(
      0, n, 0, n, hub_mask.data(), true, &replica, &counters);
  const std::uint64_t tail = m.AndPopcountRect(0, n, 0, n, hub_mask.data(),
                                               false, nullptr, &counters);
  EXPECT_GT(hub_lane, 0u);
  EXPECT_GT(tail, 0u);
  EXPECT_EQ(hub_lane + tail, total);
  const std::uint64_t valid_pairs = m.ComputeStats().valid_pairs;
  EXPECT_EQ(counters.zero_copy_pairs, valid_pairs);
  EXPECT_EQ(counters.column_pivot_pairs, ColumnPivotPairsFor(m, valid_pairs));
  EXPECT_EQ(counters.hub_route_pairs, HubRoutePairsOf(m));
  // The replica holds bit-identical hub columns, so reading them from
  // the shared column store gives the same hub lane.
  EXPECT_EQ(m.AndPopcountRect(0, n, 0, n, hub_mask.data(), true), hub_lane);
}

/// The slice widths every enumerator case runs at: 1 to 8 words per
/// slice, with zero-padded tail words at 8, 32, 100 and 192.
constexpr std::uint32_t kCaseWidths[] = {8, 32, 64, 100, 192, 512};

std::string WidthName(std::uint32_t slice_bits) {
  return "bits" + std::to_string(slice_bits);
}

class EnumeratorWidthTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EnumeratorWidthTest, RowShardsRectAndAllEdgesMatchPerPair) {
  ExpectRowShardsRectAndAllEdgesMatchPerPair(GetParam(), Shape::kRandom);
}

TEST_P(EnumeratorWidthTest, ColumnRangesAndGridTileTheMatrix) {
  ExpectColumnRangesAndGridTileTheMatrix(GetParam(), Shape::kRandom);
}

TEST_P(EnumeratorWidthTest, MaskedRectWithReplicaSplitsTheTotal) {
  ExpectMaskedRectWithReplicaSplitsTheTotal(GetParam(), Shape::kRandom);
}

INSTANTIATE_TEST_SUITE_P(
    AllWidths, EnumeratorWidthTest, ::testing::ValuesIn(kCaseWidths),
    [](const ::testing::TestParamInfo<std::uint32_t>& info) {
      return WidthName(info.param);
    });

struct HubCase {
  std::uint32_t slice_bits;
  Shape shape;
};

// Prints the case for the test listing (gtest would dump its bytes,
// padding included).
void PrintTo(const HubCase& c, std::ostream* os) {
  const bool threshold = c.shape == Shape::kThresholdColumns ||
                         c.shape == Shape::kThresholdRows;
  *os << "|S|=" << c.slice_bits << (threshold ? " on threshold" : " on hub")
      << (OnColumns(c.shape) ? " columns" : " rows");
}

std::vector<HubCase> CasesOf(Shape shape) {
  std::vector<HubCase> cases;
  for (const std::uint32_t slice_bits : kCaseWidths) {
    cases.push_back({slice_bits, shape});
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<HubCase>& info) {
  return WidthName(info.param.slice_bits);
}

class EnumeratorHubTest : public ::testing::TestWithParam<HubCase> {};

TEST_P(EnumeratorHubTest, RowShardsRectAndAllEdgesMatchPerPair) {
  ExpectRowShardsRectAndAllEdgesMatchPerPair(GetParam().slice_bits,
                                             GetParam().shape);
}

TEST_P(EnumeratorHubTest, ColumnRangesAndGridTileTheMatrix) {
  ExpectColumnRangesAndGridTileTheMatrix(GetParam().slice_bits,
                                         GetParam().shape);
}

TEST_P(EnumeratorHubTest, MaskedRectWithReplicaSplitsTheTotal) {
  ExpectMaskedRectWithReplicaSplitsTheTotal(GetParam().slice_bits,
                                            GetParam().shape);
}

INSTANTIATE_TEST_SUITE_P(HubColumns, EnumeratorHubTest,
                         ::testing::ValuesIn(CasesOf(Shape::kHubColumns)),
                         CaseName);
INSTANTIATE_TEST_SUITE_P(HubRows, EnumeratorHubTest,
                         ::testing::ValuesIn(CasesOf(Shape::kHubRows)),
                         CaseName);
// Pivots on both sides of kHubPivotMinSlices, so one pass splits its
// pairs between the hub-pivot route and the descriptor stream.
INSTANTIATE_TEST_SUITE_P(ThresholdColumns, EnumeratorHubTest,
                         ::testing::ValuesIn(CasesOf(Shape::kThresholdColumns)),
                         CaseName);
INSTANTIATE_TEST_SUITE_P(ThresholdRows, EnumeratorHubTest,
                         ::testing::ValuesIn(CasesOf(Shape::kThresholdRows)),
                         CaseName);

// The pivot each hub shape must take, read off column_pivot_pairs,
// with the count pinned to the CPU baseline and the pair total to the
// stats walk.
TEST(SlicedMatrixPivot, HubColumnsTakeTheColumnPivotAndHubRowsTheRowPivot) {
  for (const bool hubs_on_columns : {true, false}) {
    const graph::Graph g = HubGraph(2000, 8, 31, hubs_on_columns);
    const std::uint64_t triangles = baseline::CountTrianglesReference(g);
    for (const std::uint32_t slice_bits : {8u, 64u, 100u, 512u}) {
      SCOPED_TRACE(std::string(hubs_on_columns ? "hub columns" : "hub rows") +
                   " slice_bits=" + std::to_string(slice_bits));
      const SlicedMatrix m = UpperMatrix(g, slice_bits);
      ASSERT_EQ(m.PrefersColumnPivot(), hubs_on_columns)
          << "row pivot probes " << m.row_pivot_probes()
          << ", column pivot probes " << m.column_pivot_probes();
      const std::uint64_t valid_pairs = m.ComputeStats().valid_pairs;
      PairPathCounters counters;
      EXPECT_EQ(m.AndPopcountAllEdges(&counters), triangles);
      EXPECT_EQ(counters.zero_copy_pairs, valid_pairs);
      EXPECT_EQ(counters.column_pivot_pairs,
                hubs_on_columns ? valid_pairs : 0u);
      EXPECT_EQ(counters.hub_route_pairs, HubRoutePairsOf(m));
    }
  }
}

// The hub-pivot route on both pivots: pivots with kHubPivotMinSlices - 1
// valid slices keep the descriptor stream, pivots with
// kHubPivotMinSlices take the route, and every rectangle, mask lane and
// replica read stays exact with its pairs attributed to the right
// route.
TEST(SlicedMatrixPivot, HubRouteSplitsPivotsAtTheThreshold) {
  for (const bool on_columns : {true, false}) {
    for (const std::uint32_t slice_bits : {32u, 64u, 100u, 512u}) {
      SCOPED_TRACE(std::string(on_columns ? "columns" : "rows") +
                   " slice_bits=" + std::to_string(slice_bits));
      const SlicedMatrix m = ThresholdMatrix(1200, slice_bits, 17, on_columns);
      const std::uint32_t n = m.num_vertices();
      ASSERT_EQ(m.PrefersColumnPivot(), on_columns)
          << "row pivot probes " << m.row_pivot_probes()
          << ", column pivot probes " << m.column_pivot_probes();

      // Pivots sit exactly at the boundary, and they carry pairs: the
      // route's share moves when the threshold moves by one either way.
      // Some pivots below it hold more set bits than it.
      const SlicedStore& pivots = on_columns ? m.cols() : m.rows();
      std::uint32_t below = 0;
      std::uint32_t at = 0;
      std::uint32_t dense_below = 0;
      for (std::uint32_t v = 0; v < n; ++v) {
        const std::size_t slices = pivots.SliceCount(v);
        below += slices == kMinSlices - 1 ? 1 : 0;
        at += slices == kMinSlices ? 1 : 0;
        dense_below += slices < kMinSlices &&
                               pivots.ToBitVector(v).Count() >= kMinSlices
                           ? 1
                           : 0;
      }
      EXPECT_GT(below, 0u);
      EXPECT_GT(at, 0u);
      EXPECT_GT(dense_below, 0u);
      const RectOracle whole = RectReference(m, 0, n, 0, n);
      EXPECT_GT(RectReference(m, 0, n, 0, n, nullptr, true, kMinSlices - 1)
                    .hub_route_pairs,
                whole.hub_route_pairs);
      EXPECT_LT(RectReference(m, 0, n, 0, n, nullptr, true, kMinSlices + 1)
                    .hub_route_pairs,
                whole.hub_route_pairs);
      EXPECT_GT(whole.hub_route_pairs, 0u);
      EXPECT_LT(whole.hub_route_pairs, whole.pairs);

      PairPathCounters all;
      EXPECT_EQ(m.AndPopcountAllEdges(&all), whole.count);
      EXPECT_EQ(all.zero_copy_pairs, m.ComputeStats().valid_pairs);
      EXPECT_EQ(all.zero_copy_pairs, whole.pairs);
      EXPECT_EQ(all.hub_route_pairs, whole.hub_route_pairs);

      const auto expect_rect = [&](std::uint32_t r0, std::uint32_t r1,
                                   std::uint32_t c0, std::uint32_t c1,
                                   const std::uint8_t* mask, bool mask_value,
                                   const SlicedStore* cols_override) {
        SCOPED_TRACE("rows [" + std::to_string(r0) + ", " +
                     std::to_string(r1) + ") cols [" + std::to_string(c0) +
                     ", " + std::to_string(c1) + ")" +
                     (mask == nullptr ? ""
                                      : mask_value ? " hub lane" : " tail") +
                     (cols_override == nullptr ? "" : " via replica"));
        const RectOracle want =
            RectReference(m, r0, r1, c0, c1, mask, mask_value);
        PairPathCounters got;
        EXPECT_EQ(m.AndPopcountRect(r0, r1, c0, c1, mask, mask_value,
                                    cols_override, &got),
                  want.count);
        EXPECT_EQ(got.zero_copy_pairs, want.pairs);
        EXPECT_EQ(got.hub_route_pairs, want.hub_route_pairs);
        EXPECT_EQ(got.column_pivot_pairs, on_columns ? want.pairs : 0u);
      };
      expect_rect(0, n / 3, n / 4, n, nullptr, true, nullptr);
      expect_rect(n / 3, n, n / 2, n, nullptr, true, nullptr);
      expect_rect(100, 900, 0, n, nullptr, true, nullptr);
      expect_rect(0, n, 300, 700, nullptr, true, nullptr);

      std::vector<std::uint8_t> hub_mask(n, 0);
      std::vector<std::uint32_t> hubs;
      for (std::uint32_t j = 0; j < n; j += 3) {
        hub_mask[j] = 1;
        hubs.push_back(j);
      }
      const SlicedStore replica = m.cols().ExtractVectors(hubs);
      expect_rect(0, n, 0, n, hub_mask.data(), true, &replica);
      expect_rect(0, n, 0, n, hub_mask.data(), true, nullptr);
      expect_rect(0, n, 0, n, hub_mask.data(), false, nullptr);
      expect_rect(n / 4, n, n / 3, n, hub_mask.data(), true, &replica);
      expect_rect(n / 4, n, n / 3, n, hub_mask.data(), false, nullptr);
    }
  }
}

TEST(Enumerator, FlushMidRowIsExact) {
  // Row 0 alone gathers far more than one 2 Ki-word flush block, so
  // the gather flushes mid-row.
  const SlicedMatrix m = RandomUpperMatrix(1000, 1000, 64, 2718);
  ASSERT_GT(m.edge_count(), 200000u);
  EXPECT_EQ(m.AndPopcountAllEdges(), PerPairReference(m));
}

TEST(SlicedStoreGather, GatherValidPairRefsMatchesMergeAndCountsPairs) {
  const SlicedMatrix m = RandomUpperMatrix(120, 10, 64, 321);
  for (std::uint32_t u = 0; u < 40; ++u) {
    for (std::uint32_t v = u; v < 40; v += 7) {
      // Reference: the merge with the exact per-word SWAR strategy (no
      // kBuiltin kernel).
      std::uint64_t ref = 0;
      std::uint64_t ref_pairs = 0;
      ForEachCommonSlice(m.rows().SliceIndices(u), m.cols().SliceIndices(v),
                         [&](std::size_t x, std::size_t y) {
                           ref += AndPopcount(m.rows().SliceWords(u, x),
                                              m.cols().SliceWords(v, y),
                                              PopcountKind::kSwar);
                           ++ref_pairs;
                         });
      std::vector<PairRef> refs;
      EXPECT_EQ(GatherValidPairRefs(m.rows(), u, m.cols(), v, refs),
                ref_pairs);
      EXPECT_EQ(refs.size(), ref_pairs);
      EXPECT_EQ(AndPopcountPairsZeroCopy(refs), ref);
    }
  }
}

TEST(SlicedStoreGather, MismatchedSliceBitsThrow) {
  const SlicedStore a = MakeStore(1, 128, {{0, 64}}, 64);
  const SlicedStore b = MakeStore(1, 128, {{0, 64}}, 32);
  std::vector<PairRef> refs;
  EXPECT_THROW((void)GatherValidPairRefs(a, 0, b, 0, refs),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Seeded fuzz-style stress test for ApplyEdits: hundreds of randomized
// flip batches against a dense reference model, every intermediate
// state cross-checked against a freshly sliced store. On failure the
// SCOPED_TRACE prints the (slice_bits, run, seed) triple — rerun with
// that seed hard-coded to reproduce.

/// Dense mutable model the compressed store is checked against.
struct DenseModel {
  std::uint32_t num_vectors = 0;
  std::uint64_t universe = 0;
  std::vector<std::vector<bool>> bits;  // bits[v][pos]

  void Grow(std::uint32_t nv, std::uint64_t uni) {
    num_vectors = std::max(num_vectors, nv);
    universe = std::max(universe, uni);
    bits.resize(num_vectors);
    for (auto& row : bits) row.resize(universe, false);
  }

  [[nodiscard]] SlicedStore Freshly(std::uint32_t slice_bits) const {
    std::vector<std::uint64_t> offsets = {0};
    std::vector<std::uint32_t> positions;
    for (const auto& row : bits) {
      for (std::uint32_t p = 0; p < row.size(); ++p) {
        if (row[p]) positions.push_back(p);
      }
      offsets.push_back(positions.size());
    }
    return SlicedStore::FromCsr(num_vectors, universe, offsets, positions,
                                slice_bits);
  }
};

void ExpectStoreMatchesModel(const SlicedStore& store,
                             const DenseModel& model,
                             std::uint32_t slice_bits) {
  const SlicedStore fresh = model.Freshly(slice_bits);
  ASSERT_EQ(store.num_vectors(), fresh.num_vectors());
  ASSERT_EQ(store.universe(), fresh.universe());
  ASSERT_EQ(store.valid_slice_count(), fresh.valid_slice_count());
  ASSERT_EQ(store.set_bit_count(), fresh.set_bit_count());
  ASSERT_EQ(store.compressed_bytes(), fresh.compressed_bytes());
  for (std::uint32_t v = 0; v < store.num_vectors(); ++v) {
    const auto live = store.SliceIndices(v);
    const auto want = fresh.SliceIndices(v);
    ASSERT_TRUE(std::equal(live.begin(), live.end(), want.begin(),
                           want.end()))
        << "slice indices diverge at vector " << v;
    ASSERT_EQ(store.ToBitVector(v), fresh.ToBitVector(v))
        << "payload diverges at vector " << v;
  }
}

TEST(SlicedStoreFuzz, RandomizedFlipBatchesMatchFreshSlicing) {
  // TCIM_SEED shifts the whole sweep (reproduce any CI failure by
  // exporting the seed from the trace message).
  const std::uint64_t base_seed = 0xF1A9 + util::SplitMix64(util::BaseSeed());
  for (const std::uint32_t slice_bits : {32u, 64u, 192u}) {
    for (int run = 0; run < 3; ++run) {
      const std::uint64_t seed =
          util::SplitMix64(base_seed + slice_bits * 131 + run);
      SCOPED_TRACE("slice_bits=" + std::to_string(slice_bits) + " run=" +
                   std::to_string(run) + " seed=" + std::to_string(seed));
      util::Xoshiro256 rng(seed);

      DenseModel model;
      model.Grow(12, 5 * slice_bits + 7);  // non-aligned universe
      // Seed ~25% fill so both set and clear flips are plentiful.
      for (auto& row : model.bits) {
        for (std::size_t p = 0; p < row.size(); ++p) {
          row[p] = rng() % 4 == 0;
        }
      }
      SlicedStore store = model.Freshly(slice_bits);

      for (int batch = 0; batch < 120; ++batch) {
        // Occasionally grow the store mid-stream.
        std::uint32_t new_nv = model.num_vectors;
        std::uint64_t new_uni = model.universe;
        if (batch % 17 == 16) {
          new_nv += static_cast<std::uint32_t>(rng() % 3);
          new_uni += rng() % (slice_bits + 2);
          model.Grow(new_nv, new_uni);
        }

        const int edits = 1 + static_cast<int>(rng() % 20);
        std::vector<SliceEdit> edit_batch;
        std::vector<std::pair<std::uint32_t, std::uint32_t>> touched;
        for (int e = 0; e < edits; ++e) {
          const auto v = static_cast<std::uint32_t>(rng() % model.num_vectors);
          std::uint64_t pos = rng() % model.universe;
          switch (rng() % 4) {
            case 0:  // slice-boundary bit
              pos = std::min<std::uint64_t>(
                  (pos / slice_bits) * slice_bits, model.universe - 1);
              break;
            case 1:  // last bit of a slice (recompaction trigger when
                     // it is the slice's only set bit)
              pos = std::min<std::uint64_t>(
                  (pos / slice_bits) * slice_bits + slice_bits - 1,
                  model.universe - 1);
              break;
            default:
              break;  // uniform
          }
          const auto p32 = static_cast<std::uint32_t>(pos);
          bool dup = false;
          for (const auto& [tv, tp] : touched) {
            if (tv == v && tp == p32) dup = true;
          }
          if (dup) continue;  // duplicates are tested separately below
          touched.emplace_back(v, p32);
          const bool set = !model.bits[v][p32];
          edit_batch.push_back(SliceEdit{v, p32, set});
          model.bits[v][p32] = set;
        }

        const std::uint64_t before_valid = store.valid_slice_count();
        const PatchStats stats = store.ApplyEdits(edit_batch, new_nv, new_uni);
        ExpectStoreMatchesModel(store, model, slice_bits);
        if (::testing::Test::HasFatalFailure()) return;
        // Structural accounting must reconcile with the slice census.
        ASSERT_EQ(before_valid + stats.slices_inserted - stats.slices_removed,
                  store.valid_slice_count());
        ASSERT_EQ(stats.bits_patched + stats.slices_inserted +
                      stats.slices_removed >
                      0,
                  !edit_batch.empty());

        // Every ~9th batch: malformed batches must throw and leave the
        // store untouched (duplicate edit, then a non-flip edit).
        if (batch % 9 == 3 && !edit_batch.empty()) {
          std::vector<SliceEdit> bad = {edit_batch.front(),
                                        edit_batch.front()};
          EXPECT_THROW((void)store.ApplyEdits(bad, new_nv, new_uni),
                       std::invalid_argument);
          const SliceEdit& last = edit_batch.back();
          // Re-applying the same flip is now a non-flip (set of a set
          // bit or clear of a clear bit).
          std::vector<SliceEdit> nonflip = {last};
          EXPECT_THROW((void)store.ApplyEdits(nonflip, new_nv, new_uni),
                       std::invalid_argument);
          ExpectStoreMatchesModel(store, model, slice_bits);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tcim::bit
