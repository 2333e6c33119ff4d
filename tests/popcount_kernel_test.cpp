// Tests for the host AND+popcount kernel (popcount.h): bit::AndPopcount,
// bit::PopcountWords and the zero-copy pair kernel
// bit::AndPopcountPairsZeroCopy, checked against a per-word reference
// loop over adversarial span shapes (every length through 200 words,
// mixed widths, zero-width descriptors, aliased, repeated and
// unaligned operands, lists around the prefetch window, flush
// boundaries), the span entry points under every PopcountKind, plus
// whole-pipeline counts on the Table II stand-ins.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <span>
#include <string>
#include <vector>

#include "baseline/cpu_tc.h"
#include "bitmatrix/popcount.h"
#include "core/bitwise_tc.h"
#include "graph/datasets.h"
#include "util/rng.h"

namespace tcim::bit {
namespace {

/// Per-word reference: clears the lowest set bit until none is left,
/// so it shares no code with std::popcount or the kernel under test.
std::uint64_t ReferenceAndPopcount(std::span<const std::uint64_t> a,
                                   std::span<const std::uint64_t> b) {
  std::uint64_t total = 0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint64_t w = a[i] & b[i]; w != 0; w &= w - 1) ++total;
  }
  return total;
}

/// Lengths covering 0, 1, every slice width (1–8 words) and 1–7-word
/// tails past 8, 16, 32, 64 and 128.
const std::size_t kLengths[] = {0,  1,  2,  3,  4,  5,   6,   7,   8,  9,
                                11, 15, 16, 17, 19, 23,  31,  32,  33, 37,
                                63, 64, 65, 67, 71, 127, 128, 131, 200};

enum class Fill { kZero, kOnes, kDense, kSparse, kAlternating };

std::vector<std::uint64_t> MakeWords(std::size_t n, Fill fill,
                                     std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> words(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (fill) {
      case Fill::kZero:
        words[i] = 0;
        break;
      case Fill::kOnes:
        words[i] = ~0ULL;
        break;
      case Fill::kDense:
        words[i] = rng();
        break;
      case Fill::kSparse:
        words[i] = 1ULL << (rng() % 64);
        break;
      case Fill::kAlternating:
        words[i] = (i % 2 == 0) ? 0xAAAAAAAAAAAAAAAAULL
                                : 0x5555555555555555ULL;
        break;
    }
  }
  return words;
}

// ---------------------------------------------------------------------------
// Span entry points (AndPopcount, PopcountWords) under each strategy:
// kBuiltin is the host kernel, the others run the same per-word loop
// with the modeled count.

class AndPopcountKindTest : public ::testing::TestWithParam<PopcountKind> {};

TEST_P(AndPopcountKindTest, SpanKernelMatchesReferenceOnAllShapes) {
  const Fill fills[] = {Fill::kZero, Fill::kOnes, Fill::kDense, Fill::kSparse,
                        Fill::kAlternating};
  std::uint64_t seed = 1;
  for (const std::size_t n : kLengths) {
    for (const Fill fa : fills) {
      for (const Fill fb : fills) {
        const auto a = MakeWords(n, fa, seed++);
        const auto b = MakeWords(n, fb, seed++);
        ASSERT_EQ(AndPopcount(a, b, GetParam()), ReferenceAndPopcount(a, b))
            << "n=" << n << " fills=(" << static_cast<int>(fa) << ","
            << static_cast<int>(fb) << ")";
      }
    }
  }
}

TEST_P(AndPopcountKindTest, PopcountWordsMatchesReferenceOnAllLengths) {
  // PopcountWords is the AND kernel with both operands aliased.
  std::uint64_t seed = 8001;
  for (const std::size_t n : kLengths) {
    for (const Fill fill : {Fill::kDense, Fill::kSparse, Fill::kOnes}) {
      const auto a = MakeWords(n, fill, seed++);
      ASSERT_EQ(PopcountWords(a, GetParam()), ReferenceAndPopcount(a, a))
          << "n=" << n << " fill=" << static_cast<int>(fill);
    }
  }
  EXPECT_EQ(PopcountWords({}, GetParam()), 0u);
}

TEST_P(AndPopcountKindTest, MismatchedSpanSizesUseCommonPrefix) {
  const auto a = MakeWords(70, Fill::kDense, 1001);
  const auto b = MakeWords(33, Fill::kDense, 1002);
  EXPECT_EQ(AndPopcount(a, b, GetParam()), ReferenceAndPopcount(a, b));
  EXPECT_EQ(AndPopcount(b, a, GetParam()), ReferenceAndPopcount(a, b));
  EXPECT_EQ(AndPopcount(a, std::span<const std::uint64_t>{}, GetParam()), 0u);
}

TEST_P(AndPopcountKindTest, UnalignedOperandsMatchReference) {
  // Slices live back to back inside a store's word array, so the
  // operands start at any word offset, not at a cache-line boundary.
  const auto base_a = MakeWords(256, Fill::kDense, 7001);
  const auto base_b = MakeWords(256, Fill::kAlternating, 7002);
  for (std::size_t offset = 0; offset < 9; ++offset) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                                std::size_t{8}, std::size_t{17},
                                std::size_t{64}, std::size_t{131}}) {
      const auto a = std::span(base_a).subspan(offset, n);
      const auto b = std::span(base_b).subspan(8 - offset, n);
      ASSERT_EQ(AndPopcount(a, b, GetParam()), ReferenceAndPopcount(a, b))
          << "offset=" << offset << " n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AndPopcountKindTest,
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

// ---------------------------------------------------------------------------
// Zero-copy pair kernel.

TEST(AndPopcountKernel, ZeroCopyPairsMatchReferenceOnAllLengths) {
  std::uint64_t seed = 31;
  for (const std::size_t n : kLengths) {
    const auto a = MakeWords(n, Fill::kDense, seed++);
    const auto b = MakeWords(n, Fill::kSparse, seed++);
    const PairRef ref{a.data(), b.data(), static_cast<std::uint32_t>(n)};
    ASSERT_EQ(AndPopcountPairsZeroCopy(std::span(&ref, 1)),
              ReferenceAndPopcount(a, b))
        << "n=" << n;
  }
}

TEST(AndPopcountKernel, ZeroCopyMixedWidthListMatchesReference) {
  util::Xoshiro256 rng(613);
  std::vector<std::vector<std::uint64_t>> storage;
  std::vector<PairRef> refs;
  std::uint64_t expected = 0;
  storage.reserve(2 * std::size(kLengths));
  for (const std::size_t n : kLengths) {
    storage.push_back(MakeWords(n, Fill::kDense, rng()));
    storage.push_back(MakeWords(n, Fill::kAlternating, rng()));
    const auto& sa = storage[storage.size() - 2];
    const auto& sb = storage[storage.size() - 1];
    expected += ReferenceAndPopcount(sa, sb);
    refs.push_back(PairRef{sa.data(), sb.data(),
                           static_cast<std::uint32_t>(n)});
  }
  EXPECT_EQ(AndPopcountPairsZeroCopy(refs), expected);
  // Every width 0..8 over the same operands in one list.
  const auto a = MakeWords(8, Fill::kDense, 1789);
  const auto b = MakeWords(8, Fill::kDense, 1790);
  std::vector<PairRef> widths;
  std::uint64_t widths_expected = 0;
  for (std::uint32_t words = 0; words <= 8; ++words) {
    widths.push_back(PairRef{a.data(), b.data(), words});
    widths_expected += ReferenceAndPopcount(std::span(a).first(words),
                                            std::span(b).first(words));
  }
  EXPECT_EQ(AndPopcountPairsZeroCopy(widths), widths_expected);
  // Empty list sums to zero without touching any pointer.
  EXPECT_EQ(AndPopcountPairsZeroCopy({}), 0u);
}

TEST(AndPopcountKernel, ZeroCopyZeroWidthDescriptorsCountZero) {
  // Null pointers are legal in a descriptor whose width is 0; such
  // descriptors interleaved with real pairs contribute nothing.
  const auto a = MakeWords(8, Fill::kDense, 4001);
  const auto b = MakeWords(8, Fill::kOnes, 4002);
  const std::vector<PairRef> refs = {
      PairRef{nullptr, nullptr, 0}, PairRef{a.data(), b.data(), 8},
      PairRef{nullptr, nullptr, 0}, PairRef{a.data(), b.data(), 0},
      PairRef{a.data(), b.data(), 3}};
  EXPECT_EQ(AndPopcountPairsZeroCopy(refs),
            ReferenceAndPopcount(a, b) +
                ReferenceAndPopcount(std::span(a).first(3),
                                     std::span(b).first(3)));
  const std::vector<PairRef> empty_only(17, PairRef{nullptr, nullptr, 0});
  EXPECT_EQ(AndPopcountPairsZeroCopy(empty_only), 0u);
}

TEST(AndPopcountKernel, ZeroCopyAliasedAndRepeatedOperands) {
  // The matrix gather references one column slice from many pairs
  // (hub reuse) and may pair a vector with itself: aliased operands
  // count popcount(a), and a repeated descriptor counts once per entry.
  for (const std::size_t n : kLengths) {
    const auto a = MakeWords(n, Fill::kDense, 5000 + n);
    const auto b = MakeWords(n, Fill::kSparse, 6000 + n);
    const auto words = static_cast<std::uint32_t>(n);
    const PairRef self{a.data(), a.data(), words};
    ASSERT_EQ(AndPopcountPairsZeroCopy(std::span(&self, 1)),
              ReferenceAndPopcount(a, a))
        << "n=" << n;
    const std::vector<PairRef> repeated(5, PairRef{a.data(), b.data(), words});
    ASSERT_EQ(AndPopcountPairsZeroCopy(repeated),
              5 * ReferenceAndPopcount(a, b))
        << "n=" << n;
  }
}

TEST(AndPopcountKernel, ZeroCopyUnalignedOperandsMatchReference) {
  // Slices live back to back inside a store's word array, so a pair's
  // operands start at any word offset, not at a cache-line boundary.
  const auto base_a = MakeWords(256, Fill::kDense, 7001);
  const auto base_b = MakeWords(256, Fill::kAlternating, 7002);
  for (std::size_t offset = 0; offset < 9; ++offset) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                                std::size_t{8}, std::size_t{17},
                                std::size_t{64}, std::size_t{131}}) {
      const auto a = std::span(base_a).subspan(offset, n);
      const auto b = std::span(base_b).subspan(8 - offset, n);
      const PairRef ref{a.data(), b.data(), static_cast<std::uint32_t>(n)};
      ASSERT_EQ(AndPopcountPairsZeroCopy(std::span(&ref, 1)),
                ReferenceAndPopcount(a, b))
          << "offset=" << offset << " n=" << n;
    }
  }
}

TEST(AndPopcountKernel, ZeroCopyListLengthsAroundThePrefetchWindow) {
  // The kernel primes min(n, 8) pairs of lookahead and then prefetches
  // pair i + 8 while summing pair i; lists shorter than, equal to and
  // longer than the window must all sum exactly. Widths alternate
  // between the inline one-word case and the multi-word loop.
  util::Xoshiro256 rng(808);
  for (std::size_t pairs = 0; pairs <= 19; ++pairs) {
    std::vector<std::vector<std::uint64_t>> storage;
    std::vector<PairRef> refs;
    std::uint64_t expected = 0;
    storage.reserve(2 * pairs);
    for (std::size_t p = 0; p < pairs; ++p) {
      const std::size_t width = p % 3 == 0 ? 1 : 1 + p % 8;
      storage.push_back(MakeWords(width, Fill::kDense, rng()));
      storage.push_back(MakeWords(width, Fill::kDense, rng()));
      const auto& sa = storage[storage.size() - 2];
      const auto& sb = storage[storage.size() - 1];
      expected += ReferenceAndPopcount(sa, sb);
      refs.push_back(PairRef{sa.data(), sb.data(),
                             static_cast<std::uint32_t>(width)});
    }
    ASSERT_EQ(AndPopcountPairsZeroCopy(refs), expected) << "pairs=" << pairs;
  }
}

// Flush-boundary audit: exactly at, just under, and just past the
// 2048-word flush granularity the matrix gather uses — the widths
// {1, 7, 8} make the boundary land mid-pair, at a pair edge, and at a
// power-of-two pair edge respectively.
TEST(AndPopcountKernel, FlushBoundaryListsMatchReference) {
  constexpr std::size_t kFlushWords = 2048;
  util::Xoshiro256 rng(20480);
  for (const std::size_t width : {std::size_t{1}, std::size_t{7},
                                  std::size_t{8}}) {
    const std::size_t at_boundary = kFlushWords / width;
    for (const std::size_t pairs :
         {at_boundary - 1, at_boundary, at_boundary + 1,
          2 * at_boundary + 1}) {
      std::vector<std::vector<std::uint64_t>> storage;
      std::vector<PairRef> refs;
      std::uint64_t expected = 0;
      storage.reserve(2 * pairs);
      for (std::size_t p = 0; p < pairs; ++p) {
        storage.push_back(MakeWords(width, Fill::kDense, rng()));
        storage.push_back(MakeWords(
            width, p % 2 == 0 ? Fill::kOnes : Fill::kSparse, rng()));
        const auto& sa = storage[storage.size() - 2];
        const auto& sb = storage[storage.size() - 1];
        expected += ReferenceAndPopcount(sa, sb);
        refs.push_back(PairRef{sa.data(), sb.data(),
                               static_cast<std::uint32_t>(width)});
      }
      ASSERT_EQ(AndPopcountPairsZeroCopy(refs), expected)
          << "width=" << width << " pairs=" << pairs;
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-pipeline counts on the nine Table II stand-ins (tiny scale
// keeps this a unit test; the perf harness covers the full-scale run),
// at |S| = 64 (one-word pairs, the kernel's inline case), 192 (three
// words) and 512 (eight words, the widest slice geometry).

struct PipelineCase {
  graph::PaperDataset dataset;
  std::uint32_t slice_bits;
};

class AndPopcountPipelineTest
    : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(AndPopcountPipelineTest, TableTwoStandInCountsExactly) {
  const graph::DatasetInstance inst = graph::SynthesizePaperGraph(
      GetParam().dataset, /*scale=*/0.02, /*seed=*/42);
  const std::uint64_t expected = baseline::CountTrianglesReference(inst.graph);
  const SlicedMatrix matrix = core::BuildSlicedMatrix(
      inst.graph, graph::Orientation::kUpper, GetParam().slice_bits);
  EXPECT_EQ(matrix.AndPopcountAllEdges(), expected)
      << inst.source;
}

std::vector<PipelineCase> PipelineCases() {
  std::vector<PipelineCase> cases;
  for (const graph::PaperRef& ref : graph::AllPaperRefs()) {
    for (const std::uint32_t slice_bits : {64u, 192u, 512u}) {
      cases.push_back(PipelineCase{ref.id, slice_bits});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    TableTwo, AndPopcountPipelineTest, ::testing::ValuesIn(PipelineCases()),
    [](const auto& info) {
      std::string name = graph::GetPaperRef(info.param.dataset).name;
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_s" + std::to_string(info.param.slice_bits);
    });

}  // namespace
}  // namespace tcim::bit
