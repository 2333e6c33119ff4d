// Tests for popcount strategies and BitVector.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitmatrix/bitvector.h"
#include "bitmatrix/popcount.h"
#include "bitmatrix/sliced_matrix.h"
#include "bitmatrix/sliced_store.h"
#include "graph/datasets.h"
#include "graph/orientation.h"
#include "util/rng.h"

namespace tcim::bit {
namespace {

class PopcountKindTest : public ::testing::TestWithParam<PopcountKind> {};

TEST_P(PopcountKindTest, MatchesStdPopcountOnEdgeValues) {
  const PopcountKind kind = GetParam();
  for (const std::uint64_t v :
       {0ULL, 1ULL, 2ULL, 0xFFULL, 0xFF00ULL, 0x8000000000000000ULL,
        0xFFFFFFFFFFFFFFFFULL, 0xAAAAAAAAAAAAAAAAULL,
        0x5555555555555555ULL, 0x0123456789ABCDEFULL}) {
    EXPECT_EQ(Popcount(v, kind), std::popcount(v)) << v;
  }
}

TEST_P(PopcountKindTest, MatchesStdPopcountOnRandomValues) {
  const PopcountKind kind = GetParam();
  util::Xoshiro256 rng(99);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng();
    ASSERT_EQ(Popcount(v, kind), std::popcount(v)) << v;
  }
}

TEST_P(PopcountKindTest, Exhaustive16BitInputs) {
  const PopcountKind kind = GetParam();
  for (std::uint64_t v = 0; v < 65536; ++v) {
    ASSERT_EQ(Popcount(v, kind), std::popcount(v)) << v;
  }
}

TEST_P(PopcountKindTest, WordSpanSumsPerWordCounts) {
  const PopcountKind kind = GetParam();
  const std::vector<std::uint64_t> words = {0xF0F0ULL, 0x1ULL, 0ULL,
                                            ~0ULL};
  EXPECT_EQ(PopcountWords(words, kind), 8u + 1u + 0u + 64u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PopcountKindTest,
                         ::testing::Values(PopcountKind::kBuiltin,
                                           PopcountKind::kSwar,
                                           PopcountKind::kLut8,
                                           PopcountKind::kLut16),
                         [](const auto& info) {
                           switch (info.param) {
                             case PopcountKind::kBuiltin: return "builtin";
                             case PopcountKind::kSwar: return "swar";
                             case PopcountKind::kLut8: return "lut8";
                             case PopcountKind::kLut16: return "lut16";
                           }
                           return "unknown";
                         });

TEST(AndPopcount, FusedKernelMatchesSeparateOps) {
  util::Xoshiro256 rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint64_t> a(8);
    std::vector<std::uint64_t> b(8);
    for (auto& w : a) w = rng();
    for (auto& w : b) w = rng();
    std::uint64_t expected = 0;
    for (int i = 0; i < 8; ++i) {
      expected += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
    }
    EXPECT_EQ(AndPopcount(a, b), expected);
    EXPECT_EQ(AndPopcount(a, b, PopcountKind::kLut8), expected);
  }
}

TEST(AndPopcount, DisjointVectorsGiveZero) {
  const std::vector<std::uint64_t> a = {0xF0F0F0F0F0F0F0F0ULL};
  const std::vector<std::uint64_t> b = {0x0F0F0F0F0F0F0F0FULL};
  EXPECT_EQ(AndPopcount(a, b), 0u);
}

TEST(BitVector, StartsEmpty) {
  BitVector v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.Count(), 0u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(v.Get(i));
  }
}

TEST(BitVector, SetClearAssign) {
  BitVector v(70);
  v.Set(0);
  v.Set(63);
  v.Set(64);
  v.Set(69);
  EXPECT_TRUE(v.Get(0));
  EXPECT_TRUE(v.Get(63));
  EXPECT_TRUE(v.Get(64));
  EXPECT_TRUE(v.Get(69));
  EXPECT_EQ(v.Count(), 4u);
  v.Clear(63);
  EXPECT_FALSE(v.Get(63));
  EXPECT_EQ(v.Count(), 3u);
  v.Assign(1, true);
  v.Assign(0, false);
  EXPECT_TRUE(v.Get(1));
  EXPECT_FALSE(v.Get(0));
}

TEST(BitVector, OutOfRangeThrows) {
  BitVector v(10);
  EXPECT_THROW((void)v.Get(10), std::out_of_range);
  EXPECT_THROW(v.Set(10), std::out_of_range);
  EXPECT_THROW(v.Clear(10), std::out_of_range);
}

TEST(BitVector, SizeMismatchThrows) {
  BitVector a(10);
  BitVector b(11);
  EXPECT_THROW(a.AndWith(b), std::invalid_argument);
  EXPECT_THROW(a.OrWith(b), std::invalid_argument);
  EXPECT_THROW((void)a.AndCount(b), std::invalid_argument);
}

TEST(BitVector, LogicalOps) {
  BitVector a(130);
  BitVector b(130);
  a.Set(0);
  a.Set(65);
  a.Set(129);
  b.Set(65);
  b.Set(100);

  BitVector and_result = a;
  and_result.AndWith(b);
  EXPECT_EQ(and_result.Count(), 1u);
  EXPECT_TRUE(and_result.Get(65));

  BitVector or_result = a;
  or_result.OrWith(b);
  EXPECT_EQ(or_result.Count(), 4u);

  BitVector xor_result = a;
  xor_result.XorWith(b);
  EXPECT_EQ(xor_result.Count(), 3u);
  EXPECT_FALSE(xor_result.Get(65));
}

TEST(BitVector, AndCountWithoutMaterializing) {
  util::Xoshiro256 rng(5);
  BitVector a(500);
  BitVector b(500);
  for (int i = 0; i < 200; ++i) {
    a.Set(rng.UniformBelow(500));
    b.Set(rng.UniformBelow(500));
  }
  BitVector c = a;
  c.AndWith(b);
  EXPECT_EQ(a.AndCount(b), c.Count());
}

TEST(BitVector, ForEachSetBitVisitsInOrder) {
  BitVector v(200);
  const std::vector<std::uint64_t> positions = {0, 1, 63, 64, 127, 128, 199};
  for (const auto p : positions) v.Set(p);
  std::vector<std::uint64_t> visited;
  v.ForEachSetBit([&](std::uint64_t p) { visited.push_back(p); });
  EXPECT_EQ(visited, positions);
}

TEST(BitVector, ResetClearsAll) {
  BitVector v(100);
  v.Set(5);
  v.Set(99);
  v.Reset();
  EXPECT_EQ(v.Count(), 0u);
  EXPECT_EQ(v.size(), 100u);
}

TEST(BitVector, NormalizeClearsTailBits) {
  BitVector v(65);
  auto words = v.mutable_words();
  words[1] = ~0ULL;  // garbage beyond bit 65
  v.Normalize();
  EXPECT_EQ(v.Count(), 1u);  // only bit 64 survives
  EXPECT_TRUE(v.Get(64));
}

TEST(BitVector, EqualityComparesContents) {
  BitVector a(64);
  BitVector b(64);
  EXPECT_EQ(a, b);
  a.Set(3);
  EXPECT_NE(a, b);
  b.Set(3);
  EXPECT_EQ(a, b);
}

TEST(BitVector, AndCountHonoursRequestedStrategy) {
  // Regression: AndCount used to drop the caller-selected strategy and
  // always run the kBuiltin default. Force kLut8 and assert via the
  // LUT invocation counter that the hardware-model path really ran —
  // and that the default path does NOT touch it.
  util::Xoshiro256 rng(23);
  BitVector a(640);
  BitVector b(640);
  for (int i = 0; i < 250; ++i) {
    a.Set(rng.UniformBelow(640));
    b.Set(rng.UniformBelow(640));
  }
  const std::uint64_t expected = a.AndCount(b);

  const std::uint64_t lut_before = Lut8Invocations();
  EXPECT_EQ(a.AndCount(b, PopcountKind::kLut8), expected);
  // One LUT call per word of the span.
  EXPECT_EQ(Lut8Invocations() - lut_before, a.word_count());

  const std::uint64_t lut_after = Lut8Invocations();
  EXPECT_EQ(a.AndCount(b), expected);
  EXPECT_EQ(a.AndCount(b, PopcountKind::kSwar), expected);
  EXPECT_EQ(Lut8Invocations(), lut_after)
      << "non-LUT strategies must not touch the hardware-model path";
}

TEST(BitVector, CountMatchesAcrossStrategies) {
  util::Xoshiro256 rng(17);
  BitVector v(1000);
  for (int i = 0; i < 400; ++i) v.Set(rng.UniformBelow(1000));
  const auto expected = v.Count(PopcountKind::kBuiltin);
  EXPECT_EQ(v.Count(PopcountKind::kSwar), expected);
  EXPECT_EQ(v.Count(PopcountKind::kLut8), expected);
  EXPECT_EQ(v.Count(PopcountKind::kLut16), expected);
}

TEST(BitVector, ZeroSizeIsWellBehaved) {
  BitVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.Count(), 0u);
  v.ForEachSetBit([](std::uint64_t) { FAIL(); });
}

// --- SlicedMatrix::FromCsr against the transpose-based oracle ----------

// The builder FromCsr replaced, kept as the oracle: the row store
// straight from the CSR, the column store from an E-sized counting-sort
// transpose of it.
struct OracleStores {
  SlicedStore rows;
  SlicedStore cols;
};

OracleStores TransposeBuild(std::uint32_t num_vertices,
                            std::span<const std::uint64_t> offsets,
                            std::span<const std::uint32_t> neighbors,
                            std::uint32_t slice_bits) {
  OracleStores out;
  out.rows = SlicedStore::FromCsr(num_vertices, num_vertices, offsets,
                                  neighbors, slice_bits);
  std::vector<std::uint64_t> col_offsets(
      static_cast<std::size_t>(num_vertices) + 1, 0);
  for (const std::uint32_t j : neighbors) {
    if (j >= num_vertices) {
      throw std::invalid_argument("oracle: neighbor out of range");
    }
    ++col_offsets[static_cast<std::size_t>(j) + 1];
  }
  for (std::uint32_t v = 0; v < num_vertices; ++v) {
    col_offsets[v + 1] += col_offsets[v];
  }
  std::vector<std::uint32_t> col_sources(neighbors.size());
  std::vector<std::uint64_t> cursor(col_offsets.begin(),
                                    col_offsets.end() - 1);
  for (std::uint32_t i = 0; i < num_vertices; ++i) {
    for (std::uint64_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      col_sources[cursor[neighbors[e]]++] = i;
    }
  }
  out.cols = SlicedStore::FromCsr(num_vertices, num_vertices, col_offsets,
                                  col_sources, slice_bits);
  return out;
}

// Bit-identical stores: shape, every vector's slice indices, words and
// global ordinals, and the slab layout behind HeapBytes().
void ExpectSameStore(const SlicedStore& got, const SlicedStore& want) {
  ASSERT_EQ(got.num_vectors(), want.num_vectors());
  ASSERT_EQ(got.universe(), want.universe());
  ASSERT_EQ(got.slice_bits(), want.slice_bits());
  ASSERT_EQ(got.slices_per_vector(), want.slices_per_vector());
  ASSERT_EQ(got.valid_slice_count(), want.valid_slice_count());
  ASSERT_EQ(got.slab_count(), want.slab_count());
  ASSERT_EQ(got.HeapBytes(), want.HeapBytes());
  for (std::uint32_t v = 0; v < want.num_vectors(); ++v) {
    const std::span<const std::uint32_t> gi = got.SliceIndices(v);
    const std::span<const std::uint32_t> wi = want.SliceIndices(v);
    ASSERT_TRUE(std::equal(gi.begin(), gi.end(), wi.begin(), wi.end()))
        << "slice indices of vector " << v;
    for (std::size_t k = 0; k < wi.size(); ++k) {
      const std::span<const std::uint64_t> gw = got.SliceWords(v, k);
      const std::span<const std::uint64_t> ww = want.SliceWords(v, k);
      ASSERT_TRUE(std::equal(gw.begin(), gw.end(), ww.begin(), ww.end()))
          << "words of vector " << v << " slice " << k;
      ASSERT_EQ(got.GlobalOrdinal(v, k), want.GlobalOrdinal(v, k));
    }
  }
}

void ExpectMatchesOracle(std::uint32_t n,
                         std::span<const std::uint64_t> offsets,
                         std::span<const std::uint32_t> neighbors,
                         std::uint32_t slice_bits) {
  const SlicedMatrix m =
      SlicedMatrix::FromCsr(n, offsets, neighbors, slice_bits);
  const OracleStores want = TransposeBuild(n, offsets, neighbors, slice_bits);
  {
    SCOPED_TRACE("row store");
    ExpectSameStore(m.rows(), want.rows);
  }
  {
    SCOPED_TRACE("column store");
    ExpectSameStore(m.cols(), want.cols);
  }
  EXPECT_EQ(m.HeapBytes(), want.rows.HeapBytes() + want.cols.HeapBytes());
}

struct Csr {
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint32_t> neighbors;
};

// A random directed n x n matrix at `density`, with about a fifth of
// the rows and a seventh of the columns forced empty.
Csr RandomCsr(std::uint32_t n, double density, util::Xoshiro256& rng) {
  Csr csr;
  csr.offsets.push_back(0);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!rng.Bernoulli(0.2)) {
      for (std::uint32_t j = 0; j < n; ++j) {
        if (j % 7 != 3 && rng.Bernoulli(density)) csr.neighbors.push_back(j);
      }
    }
    csr.offsets.push_back(csr.neighbors.size());
  }
  return csr;
}

constexpr std::uint32_t kOracleSliceBits[] = {1,  7,   8,   63, 64,
                                              65, 100, 128, 512};

TEST(SlicedMatrixFromCsr, MatchesTransposeOracleOnRandomCsrs) {
  util::Xoshiro256 rng(2024);
  for (const std::uint32_t n :
       {0u, 1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u, 200u, 300u}) {
    for (const double density : {0.0, 0.01, 0.05, 0.25}) {
      for (int rep = 0; rep < 3; ++rep) {
        const Csr csr = RandomCsr(n, density, rng);
        for (const std::uint32_t bits : kOracleSliceBits) {
          SCOPED_TRACE("n=" + std::to_string(n) +
                       " density=" + std::to_string(density) +
                       " rep=" + std::to_string(rep) +
                       " slice_bits=" + std::to_string(bits));
          ASSERT_NO_FATAL_FAILURE(
              ExpectMatchesOracle(n, csr.offsets, csr.neighbors, bits));
        }
      }
    }
  }
}

TEST(SlicedMatrixFromCsr, MatchesTransposeOracleOnPaperStandIns) {
  for (const graph::PaperRef& ref : graph::AllPaperRefs()) {
    const graph::Graph g =
        graph::SynthesizePaperGraph(ref.id, 0.002, 3).graph;
    for (const auto o :
         {graph::Orientation::kUpper, graph::Orientation::kDegree,
          graph::Orientation::kFullSymmetric}) {
      const graph::OrientedCsr csr = graph::Orient(g, o);
      for (const std::uint32_t bits : {64u, 100u, 512u}) {
        SCOPED_TRACE(std::string(ref.name) + " " + graph::ToString(o) +
                     " slice_bits=" + std::to_string(bits));
        ASSERT_NO_FATAL_FAILURE(ExpectMatchesOracle(
            csr.num_vertices, csr.offsets, csr.neighbors, bits));
      }
    }
  }
}

// Both builders reject the same malformed inputs with the same type.
TEST(SlicedMatrixFromCsr, RejectsMalformedInputLikeTheOracle) {
  struct Bad {
    const char* what;
    std::uint32_t n;
    std::vector<std::uint64_t> offsets;
    std::vector<std::uint32_t> neighbors;
    std::uint32_t slice_bits;
  };
  const Bad cases[] = {
      {"unsorted neighbors", 4, {0, 2, 2, 2, 2}, {2, 1}, 64},
      {"duplicate neighbors", 4, {0, 2, 2, 2, 2}, {1, 1}, 64},
      {"neighbor >= n", 4, {0, 1, 2, 2, 2}, {1, 4}, 64},
      {"offsets too short", 4, {0, 1, 1, 1}, {1}, 64},
      {"offsets too long", 4, {0, 1, 1, 1, 1, 1}, {1}, 64},
      {"offsets not monotone", 4, {0, 2, 1, 3, 3}, {1, 2, 3}, 64},
      {"offsets entry past |neighbors|", 4, {0, 5, 1, 2, 2}, {1, 2}, 64},
      {"offsets.back() != |neighbors|", 4, {0, 1, 1, 1, 1}, {1, 2}, 64},
      {"offsets.front() != 0", 4, {1, 1, 1, 1, 1}, {1}, 64},
      {"slice_bits 0", 4, {0, 1, 1, 1, 1}, {1}, 0},
      {"slice_bits 513", 4, {0, 1, 1, 1, 1}, {1}, 513},
  };
  for (const Bad& c : cases) {
    SCOPED_TRACE(c.what);
    EXPECT_THROW((void)SlicedMatrix::FromCsr(c.n, c.offsets, c.neighbors,
                                             c.slice_bits),
                 std::invalid_argument);
    EXPECT_THROW((void)TransposeBuild(c.n, c.offsets, c.neighbors,
                                      c.slice_bits),
                 std::invalid_argument);
  }
}

// --- The Eq. (5) gather's probe totals ---------------------------------

// Brute force: walk every arc A[i][j] and add up the valid slices the
// row pivot probes (those of Cj) and the column pivot probes (Ri).
struct ProbeTotals {
  std::uint64_t row_pivot = 0;
  std::uint64_t column_pivot = 0;
};

ProbeTotals ArcWalkProbeTotals(const SlicedMatrix& m) {
  ProbeTotals totals;
  for (std::uint32_t i = 0; i < m.num_vertices(); ++i) {
    m.rows().ForEachSetBit(i, [&](std::uint64_t j) {
      totals.row_pivot += m.cols().SliceCount(static_cast<std::uint32_t>(j));
      totals.column_pivot += m.rows().SliceCount(i);
    });
  }
  return totals;
}

void ExpectExactProbeTotals(const SlicedMatrix& m) {
  const ProbeTotals want = ArcWalkProbeTotals(m);
  EXPECT_EQ(m.row_pivot_probes(), want.row_pivot);
  EXPECT_EQ(m.column_pivot_probes(), want.column_pivot);
  EXPECT_EQ(m.PrefersColumnPivot(), want.column_pivot < want.row_pivot);
}

constexpr std::uint32_t kProbeSliceBits[] = {1, 7, 64, 100, 512};

TEST(SlicedMatrixProbeTotals, FromCsrMatchesArcWalkOnRandomCsrs) {
  util::Xoshiro256 rng(77);
  for (const std::uint32_t n : {0u, 1u, 65u, 129u, 300u}) {
    for (const double density : {0.0, 0.01, 0.05, 0.25}) {
      const Csr csr = RandomCsr(n, density, rng);
      for (const std::uint32_t bits : kProbeSliceBits) {
        SCOPED_TRACE("n=" + std::to_string(n) +
                     " density=" + std::to_string(density) +
                     " slice_bits=" + std::to_string(bits));
        ExpectExactProbeTotals(
            SlicedMatrix::FromCsr(n, csr.offsets, csr.neighbors, bits));
      }
    }
  }
}

TEST(SlicedMatrixProbeTotals, FromCsrMatchesArcWalkOnPaperStandIns) {
  for (const graph::PaperRef& ref : graph::AllPaperRefs()) {
    const graph::Graph g =
        graph::SynthesizePaperGraph(ref.id, 0.002, 3).graph;
    for (const auto o :
         {graph::Orientation::kUpper, graph::Orientation::kDegree,
          graph::Orientation::kFullSymmetric}) {
      const graph::OrientedCsr csr = graph::Orient(g, o);
      for (const std::uint32_t bits : kProbeSliceBits) {
        SCOPED_TRACE(std::string(ref.name) + " " + graph::ToString(o) +
                     " slice_bits=" + std::to_string(bits));
        ExpectExactProbeTotals(SlicedMatrix::FromCsr(
            csr.num_vertices, csr.offsets, csr.neighbors, bits));
      }
    }
  }
}

// A dense arc model the random edit batches flip against.
struct ArcModel {
  std::uint32_t n = 0;
  std::vector<std::vector<bool>> arcs;  // arcs[i][j]

  void Grow(std::uint32_t new_n) {
    n = new_n;
    arcs.resize(n);
    for (auto& row : arcs) row.resize(n, false);
  }
  [[nodiscard]] SlicedMatrix Fresh(std::uint32_t slice_bits) const {
    Csr csr;
    csr.offsets.push_back(0);
    for (const auto& row : arcs) {
      for (std::uint32_t j = 0; j < n; ++j) {
        if (row[j]) csr.neighbors.push_back(j);
      }
      csr.offsets.push_back(csr.neighbors.size());
    }
    return SlicedMatrix::FromCsr(n, csr.offsets, csr.neighbors, slice_bits);
  }
};

TEST(SlicedMatrixProbeTotals, ApplyArcEditsKeepsThemExact) {
  for (const std::uint32_t bits : kProbeSliceBits) {
    SCOPED_TRACE("slice_bits=" + std::to_string(bits));
    util::Xoshiro256 rng(1000 + bits);
    ArcModel model;
    model.Grow(90);
    for (auto& row : model.arcs) {
      for (std::size_t j = 0; j < row.size(); ++j) row[j] = rng.Bernoulli(0.04);
    }
    SlicedMatrix m = model.Fresh(bits);
    std::uint64_t inserts = 0;
    std::uint64_t deletes = 0;
    MatrixPatchStats structural;
    for (int batch = 0; batch < 80; ++batch) {
      std::uint32_t new_n = model.n;
      if (batch % 11 == 10) new_n += 1 + static_cast<std::uint32_t>(rng() % 70);
      model.Grow(new_n);
      std::vector<ArcEdit> edits;
      std::vector<std::vector<bool>> seen(new_n, std::vector<bool>(new_n));
      const int count = 1 + static_cast<int>(rng() % 40);
      for (int e = 0; e < count; ++e) {
        auto from = static_cast<std::uint32_t>(rng() % new_n);
        auto to = static_cast<std::uint32_t>(rng() % new_n);
        // Half the edits land on a hub row or column, which piles
        // several edits into one touched vector.
        if (rng() % 4 == 0) from = 0;
        if (rng() % 4 == 0) to = new_n - 1;
        if (seen[from][to]) continue;
        seen[from][to] = true;
        const bool set = !model.arcs[from][to];
        edits.push_back(ArcEdit{from, to, set});
        model.arcs[from][to] = set;
        (set ? inserts : deletes) += 1;
      }
      const MatrixPatchStats stats = m.ApplyArcEdits(edits, new_n);
      structural.rows += stats.rows;
      structural.cols += stats.cols;
      SCOPED_TRACE("batch " + std::to_string(batch));
      ExpectExactProbeTotals(m);
      const SlicedMatrix fresh = model.Fresh(bits);
      EXPECT_EQ(m.row_pivot_probes(), fresh.row_pivot_probes());
      EXPECT_EQ(m.column_pivot_probes(), fresh.column_pivot_probes());
      if (::testing::Test::HasFailure()) return;
    }
    // The sequence covered every kind of edit the totals must follow.
    EXPECT_GT(inserts, 0u);
    EXPECT_GT(deletes, 0u);
    EXPECT_GT(structural.rows.slices_inserted, 0u);
    EXPECT_GT(structural.rows.slices_removed, 0u);
    EXPECT_GT(structural.cols.slices_inserted, 0u);
    EXPECT_GT(structural.cols.slices_removed, 0u);
    if (bits > 1) EXPECT_GT(structural.rows.bits_patched, 0u);
  }
}

TEST(SlicedMatrixProbeTotals, RejectedBatchLeavesThemUnchanged) {
  util::Xoshiro256 rng(5);
  const Csr csr = RandomCsr(100, 0.05, rng);
  SlicedMatrix m = SlicedMatrix::FromCsr(100, csr.offsets, csr.neighbors, 64);
  const std::uint32_t set_to = csr.neighbors.front();  // A[i][set_to] is set
  std::uint32_t set_from = 0;
  while (csr.offsets[set_from + 1] == 0) ++set_from;
  std::uint32_t clear_to = 0;
  while (m.TestArc(set_from, clear_to)) ++clear_to;
  const std::uint64_t row_total = m.row_pivot_probes();
  const std::uint64_t column_total = m.column_pivot_probes();
  // Each batch starts with real flips that would move both totals,
  // then fails validation.
  const std::vector<std::vector<ArcEdit>> bad_batches = {
      {{set_from, set_to, false}, {set_from, clear_to, true},
       {set_from, clear_to, true}},                         // duplicate
      {{set_from, set_to, false}, {set_from, clear_to, false}},  // no flip
      {{set_from, clear_to, true}, {200, 1, true}},         // out of range
  };
  for (const std::vector<ArcEdit>& batch : bad_batches) {
    EXPECT_THROW((void)m.ApplyArcEdits(batch, 100), std::invalid_argument);
    EXPECT_EQ(m.row_pivot_probes(), row_total);
    EXPECT_EQ(m.column_pivot_probes(), column_total);
  }
  EXPECT_THROW((void)m.ApplyArcEdits(std::vector<ArcEdit>{{0, 1, true}}, 99),
               std::invalid_argument);  // shrinking
  EXPECT_EQ(m.row_pivot_probes(), row_total);
  EXPECT_EQ(m.column_pivot_probes(), column_total);
  ExpectExactProbeTotals(m);
}

// --- The gather's hub-pivot route ----------------------------------------

// Per-arc oracle of a whole host pass: the count with the per-word
// SWAR strategy, the valid pairs, and the pairs whose pivot vector (row
// i under the row pivot, column j under the column pivot) holds at
// least kHubPivotMinSlices valid slices — the share the route must
// report.
struct PassOracle {
  std::uint64_t count = 0;
  std::uint64_t pairs = 0;
  std::uint64_t hub_route_pairs = 0;
};

PassOracle HubRouteOracle(const SlicedMatrix& m) {
  const bool column_pivot = m.PrefersColumnPivot();
  PassOracle oracle;
  for (std::uint32_t i = 0; i < m.num_vertices(); ++i) {
    m.rows().ForEachSetBit(i, [&](std::uint64_t j64) {
      const auto j = static_cast<std::uint32_t>(j64);
      const std::size_t pivot_slices =
          column_pivot ? m.cols().SliceCount(j) : m.rows().SliceCount(i);
      const bool hub = pivot_slices >= SlicedMatrix::kHubPivotMinSlices;
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

void ExpectHubRouteMatchesOracle(const SlicedMatrix& m) {
  const PassOracle want = HubRouteOracle(m);
  PairPathCounters got;
  EXPECT_EQ(m.AndPopcountAllEdges(&got), want.count);
  EXPECT_EQ(got.zero_copy_pairs, m.ComputeStats().valid_pairs);
  EXPECT_EQ(got.zero_copy_pairs, want.pairs);
  EXPECT_EQ(got.hub_route_pairs, want.hub_route_pairs);
  EXPECT_EQ(got.column_pivot_pairs, m.PrefersColumnPivot() ? want.pairs : 0);
}

TEST(SlicedMatrixProbeTotals, HubRouteMatchesOracleOnRandomCsrs) {
  // Random directed matrices of either pivot, from a few valid slices
  // per vector (below the route's threshold) to dozens (above it).
  util::Xoshiro256 rng(31);
  bool saw_column_pivot = false;
  bool saw_split = false;
  for (const std::uint32_t n : {129u, 300u, 1000u}) {
    for (const double density : {0.005, 0.01, 0.03, 0.25}) {
      const Csr csr = RandomCsr(n, density, rng);
      for (const std::uint32_t bits : {32u, 64u, 100u, 512u}) {
        SCOPED_TRACE("n=" + std::to_string(n) +
                     " density=" + std::to_string(density) +
                     " slice_bits=" + std::to_string(bits));
        const SlicedMatrix m =
            SlicedMatrix::FromCsr(n, csr.offsets, csr.neighbors, bits);
        ExpectHubRouteMatchesOracle(m);
        const PassOracle oracle = HubRouteOracle(m);
        saw_column_pivot = saw_column_pivot || m.PrefersColumnPivot();
        saw_split = saw_split || (oracle.hub_route_pairs > 0 &&
                                  oracle.hub_route_pairs < oracle.pairs);
      }
    }
  }
  EXPECT_TRUE(saw_column_pivot);
  EXPECT_TRUE(saw_split);
}

TEST(SlicedMatrixProbeTotals, HubRouteFollowsEditsAcrossTheThreshold) {
  // Streamed edits move vectors across kHubPivotMinSlices valid slices
  // in both directions; after each batch the pass over the edited
  // matrix equals the oracle and a fresh build, pairs and route share
  // alike. Ten slices per vector, each bit set with probability 1.4/|S|,
  // puts ~7.5 valid slices in an average vector.
  for (const std::uint32_t bits : {8u, 32u, 64u, 100u}) {
    SCOPED_TRACE("slice_bits=" + std::to_string(bits));
    util::Xoshiro256 rng(500 + bits);
    ArcModel model;
    model.Grow(10 * bits);
    for (auto& row : model.arcs) {
      for (std::size_t j = 0; j < row.size(); ++j) {
        row[j] = rng.Bernoulli(1.4 / bits);
      }
    }
    SlicedMatrix m = model.Fresh(bits);
    std::uint64_t crossings = 0;
    for (int batch = 0; batch < 30; ++batch) {
      const PassOracle before = HubRouteOracle(m);
      std::vector<ArcEdit> edits;
      std::vector<std::vector<bool>> seen(model.n,
                                          std::vector<bool>(model.n));
      const int count = 1 + static_cast<int>(rng() % 24);
      for (int e = 0; e < count; ++e) {
        // Edits pile onto a few rows and columns, so their slice counts
        // cross the threshold.
        const auto from = static_cast<std::uint32_t>(rng() % 6);
        const auto to = static_cast<std::uint32_t>(rng() % model.n);
        const bool mirrored = rng() % 2 == 0;
        const std::uint32_t f = mirrored ? to : from;
        const std::uint32_t t = mirrored ? model.n - 1 - from : to;
        if (seen[f][t]) continue;
        seen[f][t] = true;
        const bool set = !model.arcs[f][t];
        edits.push_back(ArcEdit{f, t, set});
        model.arcs[f][t] = set;
      }
      (void)m.ApplyArcEdits(edits, model.n);
      SCOPED_TRACE("batch " + std::to_string(batch));
      ExpectHubRouteMatchesOracle(m);
      PairPathCounters edited;
      PairPathCounters fresh;
      EXPECT_EQ(m.AndPopcountAllEdges(&edited),
                model.Fresh(bits).AndPopcountAllEdges(&fresh));
      EXPECT_EQ(edited.hub_route_pairs, fresh.hub_route_pairs);
      crossings += HubRouteOracle(m).hub_route_pairs != before.hub_route_pairs;
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(crossings, 0u);
  }
}

}  // namespace
}  // namespace tcim::bit
