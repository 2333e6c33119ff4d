// Tests for the SIMD kernel-backend subsystem (kernel_backend.h):
// backend enumeration/naming, runtime detection invariants, bit-exact
// parity of every supported backend against the scalar reference over
// adversarial span shapes, the TCIM_KERNEL env override, and
// whole-pipeline count parity on the Table II stand-ins.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baseline/cpu_tc.h"
#include "bitmatrix/kernel_backend.h"
#include "bitmatrix/popcount.h"
#include "core/bitwise_tc.h"
#include "graph/datasets.h"
#include "util/rng.h"

namespace tcim::bit {
namespace {

/// Restores the active backend (and TCIM_KERNEL) on scope exit so a
/// failing test cannot leak a forced backend into later tests.
class BackendGuard {
 public:
  BackendGuard() : saved_(ActiveBackend()) {
    const char* env = std::getenv("TCIM_KERNEL");
    if (env != nullptr) saved_env_ = env;
  }
  ~BackendGuard() {
    if (saved_env_.has_value()) {
      ::setenv("TCIM_KERNEL", saved_env_->c_str(), 1);
    } else {
      ::unsetenv("TCIM_KERNEL");
    }
    SetActiveBackend(saved_);
  }

 private:
  KernelBackend saved_;
  std::optional<std::string> saved_env_;
};

/// Trivially-correct reference, independent of every backend.
std::uint64_t ReferenceAndPopcount(const std::vector<std::uint64_t>& a,
                                   const std::vector<std::uint64_t>& b) {
  std::uint64_t total = 0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

TEST(KernelBackend, NamesRoundTrip) {
  for (const KernelBackend backend : AllKernelBackends()) {
    const auto parsed = ParseKernelBackend(ToString(backend));
    ASSERT_TRUE(parsed.has_value()) << ToString(backend);
    EXPECT_EQ(*parsed, backend);
  }
  EXPECT_EQ(ParseKernelBackend("avx512"), KernelBackend::kAvx512Vpopcnt);
  // Names outside the backend table are unknown (TCIM_KERNEL then
  // warns and uses auto dispatch).
  EXPECT_FALSE(ParseKernelBackend("swar").has_value());
  EXPECT_FALSE(ParseKernelBackend("auto").has_value());
  EXPECT_FALSE(ParseKernelBackend("").has_value());
  EXPECT_FALSE(ParseKernelBackend("AVX2").has_value());
}

TEST(KernelBackend, DetectionInvariants) {
  // The portable backend can never be absent: it is the fallback.
  EXPECT_TRUE(BackendCompiledIn(KernelBackend::kScalar));
  EXPECT_TRUE(BackendSupported(KernelBackend::kScalar));
  // Supported implies compiled in, and the auto pick must be runnable.
  for (const KernelBackend backend : AllKernelBackends()) {
    if (BackendSupported(backend)) {
      EXPECT_TRUE(BackendCompiledIn(backend)) << ToString(backend);
    }
  }
  EXPECT_TRUE(BackendSupported(BestSupportedBackend()));
  EXPECT_TRUE(BackendSupported(ActiveBackend()));
  // With no SIMD backend executable, auto dispatch is scalar.
  if (SupportedKernelBackends().size() == 1) {
    EXPECT_EQ(BestSupportedBackend(), KernelBackend::kScalar);
  }
}

TEST(KernelBackend, UnsupportedBackendThrowsInsteadOfExecuting) {
  for (const KernelBackend backend : AllKernelBackends()) {
    if (BackendSupported(backend)) continue;
    const std::vector<std::uint64_t> w = {0xFFULL};
    EXPECT_THROW((void)AndPopcountBackend(w, w, backend),
                 std::invalid_argument)
        << ToString(backend);
    EXPECT_THROW(SetActiveBackend(backend), std::invalid_argument)
        << ToString(backend);
  }
}

// ---------------------------------------------------------------------------
// Parity: every supported backend, adversarial lengths x fill patterns.

class BackendParityTest : public ::testing::TestWithParam<KernelBackend> {
 protected:
  void SetUp() override {
    if (!BackendSupported(GetParam())) {
      GTEST_SKIP() << ToString(GetParam())
                   << " is not executable on this machine";
    }
  }
};

/// Lengths covering 0, 1, and 1–7-word tails past each SIMD block
/// width in play (NEON pairs = 2, AVX2 vector = 4, AVX-512 = 8/16,
/// Harley–Seal block = 64).
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

TEST_P(BackendParityTest, AndPopcountMatchesScalarOnAllShapes) {
  const KernelBackend backend = GetParam();
  const Fill fills[] = {Fill::kZero, Fill::kOnes, Fill::kDense, Fill::kSparse,
                        Fill::kAlternating};
  std::uint64_t seed = 1;
  for (const std::size_t n : kLengths) {
    for (const Fill fa : fills) {
      for (const Fill fb : fills) {
        const auto a = MakeWords(n, fa, seed++);
        const auto b = MakeWords(n, fb, seed++);
        const std::uint64_t expected = ReferenceAndPopcount(a, b);
        ASSERT_EQ(AndPopcountBackend(a, b, backend), expected)
            << ToString(backend) << " n=" << n << " fills=("
            << static_cast<int>(fa) << "," << static_cast<int>(fb) << ")";
        ASSERT_EQ(AndPopcountBackend(a, b, KernelBackend::kScalar), expected);
      }
    }
  }
}

TEST_P(BackendParityTest, PopcountWordsMatchesScalar) {
  const KernelBackend backend = GetParam();
  for (const std::size_t n : kLengths) {
    const auto w = MakeWords(n, Fill::kDense, 7 + n);
    ASSERT_EQ(PopcountWordsBackend(w, backend),
              PopcountWordsBackend(w, KernelBackend::kScalar))
        << ToString(backend) << " n=" << n;
  }
}

TEST_P(BackendParityTest, MismatchedSpanSizesUseCommonPrefix) {
  const auto a = MakeWords(70, Fill::kDense, 1001);
  const auto b = MakeWords(33, Fill::kDense, 1002);
  EXPECT_EQ(AndPopcountBackend(a, b, GetParam()),
            ReferenceAndPopcount(a, b));
}

// ---------------------------------------------------------------------------
// Zero-copy pair kernel: in-place descriptor evaluation must be
// bit-exact with the per-pair reference for every supported backend,
// across every length in kLengths (0 words up to 200 — past every
// SIMD block width in play) and with mixed widths in one list.

TEST_P(BackendParityTest, ZeroCopyPairsMatchReferenceOnAllLengths) {
  const KernelBackend backend = GetParam();
  std::uint64_t seed = 31;
  for (const std::size_t n : kLengths) {
    const auto a = MakeWords(n, Fill::kDense, seed++);
    const auto b = MakeWords(n, Fill::kSparse, seed++);
    const PairRef ref{a.data(), b.data(), static_cast<std::uint32_t>(n)};
    ASSERT_EQ(AndPopcountPairsZeroCopyBackend(std::span(&ref, 1), backend),
              ReferenceAndPopcount(a, b))
        << ToString(backend) << " n=" << n;
  }
}

TEST_P(BackendParityTest, ZeroCopyMixedWidthListMatchesReference) {
  const KernelBackend backend = GetParam();
  util::Xoshiro256 rng(613);
  std::vector<std::vector<std::uint64_t>> storage;
  std::vector<PairRef> refs;
  std::uint64_t expected = 0;
  for (const std::size_t n : kLengths) {
    auto a = MakeWords(n, Fill::kDense, rng());
    auto b = MakeWords(n, Fill::kAlternating, rng());
    expected += ReferenceAndPopcount(a, b);
    storage.push_back(std::move(a));
    storage.push_back(std::move(b));
    const auto& sa = storage[storage.size() - 2];
    const auto& sb = storage[storage.size() - 1];
    refs.push_back(PairRef{sa.data(), sb.data(),
                           static_cast<std::uint32_t>(n)});
  }
  EXPECT_EQ(AndPopcountPairsZeroCopyBackend(refs, backend), expected)
      << ToString(backend);
  // Empty list sums to zero without touching any pointer.
  EXPECT_EQ(AndPopcountPairsZeroCopyBackend({}, backend), 0u);
}

TEST_P(BackendParityTest, ZeroCopyActiveDispatchMatchesForcedBackend) {
  BackendGuard guard;
  SetActiveBackend(GetParam());
  util::Xoshiro256 rng(1789);
  std::vector<std::uint64_t> a(8);
  std::vector<std::uint64_t> b(8);
  for (auto& w : a) w = rng();
  for (auto& w : b) w = rng();
  std::vector<PairRef> refs;
  for (std::uint32_t words = 0; words <= 8; ++words) {
    refs.push_back(PairRef{a.data(), b.data(), words});
  }
  EXPECT_EQ(AndPopcountPairsZeroCopy(refs),
            AndPopcountPairsZeroCopyBackend(refs, GetParam()));
}

TEST_P(BackendParityTest, ZeroCopyZeroWidthDescriptorsCountZero) {
  // Null pointers are legal in a descriptor whose width is 0; such
  // descriptors interleaved with real pairs contribute nothing.
  const auto a = MakeWords(8, Fill::kDense, 4001);
  const auto b = MakeWords(8, Fill::kOnes, 4002);
  const std::vector<PairRef> refs = {
      PairRef{nullptr, nullptr, 0}, PairRef{a.data(), b.data(), 8},
      PairRef{nullptr, nullptr, 0}, PairRef{a.data(), b.data(), 0},
      PairRef{a.data(), b.data(), 3}};
  EXPECT_EQ(AndPopcountPairsZeroCopyBackend(refs, GetParam()),
            ReferenceAndPopcount(a, b) +
                ReferenceAndPopcount({a.begin(), a.begin() + 3},
                                     {b.begin(), b.begin() + 3}))
      << ToString(GetParam());
  const std::vector<PairRef> empty_only(17, PairRef{nullptr, nullptr, 0});
  EXPECT_EQ(AndPopcountPairsZeroCopyBackend(empty_only, GetParam()), 0u);
}

TEST_P(BackendParityTest, ZeroCopyAliasedAndRepeatedOperands) {
  // The matrix gather references one column slice from many pairs
  // (hub reuse) and may pair a vector with itself: aliased operands
  // count popcount(a), and a repeated descriptor counts once per entry.
  const KernelBackend backend = GetParam();
  for (const std::size_t n : kLengths) {
    const auto a = MakeWords(n, Fill::kDense, 5000 + n);
    const auto b = MakeWords(n, Fill::kSparse, 6000 + n);
    const auto words = static_cast<std::uint32_t>(n);
    const PairRef self{a.data(), a.data(), words};
    ASSERT_EQ(AndPopcountPairsZeroCopyBackend(std::span(&self, 1), backend),
              PopcountWordsBackend(a, KernelBackend::kScalar))
        << ToString(backend) << " n=" << n;
    const std::vector<PairRef> repeated(5, PairRef{a.data(), b.data(), words});
    ASSERT_EQ(AndPopcountPairsZeroCopyBackend(repeated, backend),
              5 * ReferenceAndPopcount(a, b))
        << ToString(backend) << " n=" << n;
  }
}

TEST_P(BackendParityTest, ZeroCopyUnalignedOperandsMatchReference) {
  // Slices live back to back inside a store's word array, so a pair's
  // operands start at any word offset, not at a SIMD-vector boundary.
  const KernelBackend backend = GetParam();
  const auto base_a = MakeWords(256, Fill::kDense, 7001);
  const auto base_b = MakeWords(256, Fill::kAlternating, 7002);
  for (std::size_t offset = 0; offset < 9; ++offset) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                                std::size_t{8}, std::size_t{17},
                                std::size_t{64}, std::size_t{131}}) {
      const std::vector<std::uint64_t> a(base_a.begin() + offset,
                                         base_a.begin() + offset + n);
      const std::vector<std::uint64_t> b(base_b.begin() + 8 - offset,
                                         base_b.begin() + 8 - offset + n);
      const PairRef ref{base_a.data() + offset, base_b.data() + 8 - offset,
                        static_cast<std::uint32_t>(n)};
      ASSERT_EQ(AndPopcountPairsZeroCopyBackend(std::span(&ref, 1), backend),
                ReferenceAndPopcount(a, b))
          << ToString(backend) << " offset=" << offset << " n=" << n;
    }
  }
}

TEST_P(BackendParityTest, ActivePointerApiMatchesReferenceOnAllLengths) {
  // The direct per-pair route calls AndPopcountActive once per slice
  // pair; it must agree with the reference under every forced backend.
  BackendGuard guard;
  SetActiveBackend(GetParam());
  std::uint64_t seed = 8001;
  for (const std::size_t n : kLengths) {
    const auto a = MakeWords(n, Fill::kDense, seed++);
    const auto b = MakeWords(n, Fill::kDense, seed++);
    ASSERT_EQ(AndPopcountActive(a.data(), b.data(), n),
              ReferenceAndPopcount(a, b))
        << ToString(GetParam()) << " n=" << n;
    ASSERT_EQ(PopcountWordsActive(a.data(), n), ReferenceAndPopcount(a, a))
        << ToString(GetParam()) << " n=" << n;
  }
  EXPECT_EQ(AndPopcountActive(nullptr, nullptr, 0), 0u);
  EXPECT_EQ(PopcountWordsActive(nullptr, 0), 0u);
}

TEST(ZeroCopyPairs, UnsupportedBackendThrows) {
  const std::uint64_t word = 0x123456789ABCDEF0ULL;
  const PairRef ref{&word, &word, 1};
  for (const KernelBackend backend : AllKernelBackends()) {
    if (BackendSupported(backend)) continue;
    EXPECT_THROW(
        (void)AndPopcountPairsZeroCopyBackend(std::span(&ref, 1), backend),
        std::invalid_argument)
        << ToString(backend);
  }
}

// ---------------------------------------------------------------------------
// Flush-boundary audit: parity exactly at, just under, and just past
// the 2048-word flush granularity the matrix gather uses — the widths
// {1, 7, 8} make the boundary land mid-pair, at a pair edge, and at a
// power-of-two pair edge respectively. Every supported backend must
// agree with the per-pair reference on the zero-copy pair list.

TEST_P(BackendParityTest, FlushBoundaryParityOnZeroCopy) {
  const KernelBackend backend = GetParam();
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
        auto a = MakeWords(width, Fill::kDense, rng());
        auto b = MakeWords(width, p % 2 == 0 ? Fill::kOnes : Fill::kSparse,
                           rng());
        expected += ReferenceAndPopcount(a, b);
        storage.push_back(std::move(a));
        storage.push_back(std::move(b));
        refs.push_back(PairRef{storage[storage.size() - 2].data(),
                               storage[storage.size() - 1].data(),
                               static_cast<std::uint32_t>(width)});
      }
      ASSERT_EQ(AndPopcountPairsZeroCopyBackend(refs, backend), expected)
          << ToString(backend) << " width=" << width << " pairs=" << pairs;
    }
  }
}

TEST_P(BackendParityTest, SpanApiRoutesThroughForcedBackend) {
  // AndPopcount/PopcountWords at kBuiltin must agree with the scalar
  // reference under every forced backend (dispatch divergence check).
  BackendGuard guard;
  SetActiveBackend(GetParam());
  EXPECT_EQ(ActiveBackend(), GetParam());
  const auto a = MakeWords(129, Fill::kDense, 2001);
  const auto b = MakeWords(129, Fill::kDense, 2002);
  EXPECT_EQ(AndPopcount(a, b), ReferenceAndPopcount(a, b));
  EXPECT_EQ(PopcountWords(a, PopcountKind::kBuiltin),
            ReferenceAndPopcount(a, a));
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendParityTest,
    ::testing::ValuesIn(std::vector<KernelBackend>(
        AllKernelBackends().begin(), AllKernelBackends().end())),
    [](const auto& info) { return std::string(ToString(info.param)); });

// ---------------------------------------------------------------------------
// TCIM_KERNEL env override.

TEST(KernelBackendEnv, ForcedDispatchThroughEnv) {
  BackendGuard guard;
  ::setenv("TCIM_KERNEL", "scalar", 1);
  EXPECT_EQ(RefreshActiveBackendFromEnv(), KernelBackend::kScalar);
  EXPECT_EQ(ActiveBackend(), KernelBackend::kScalar);

  for (const KernelBackend backend : SupportedKernelBackends()) {
    ::setenv("TCIM_KERNEL", ToString(backend), 1);
    EXPECT_EQ(RefreshActiveBackendFromEnv(), backend);
    EXPECT_EQ(ActiveBackend(), backend);
  }
}

TEST(KernelBackendEnv, AutoAndUnsetPickBestSupported) {
  BackendGuard guard;
  ::setenv("TCIM_KERNEL", "auto", 1);
  EXPECT_EQ(RefreshActiveBackendFromEnv(), BestSupportedBackend());
  ::unsetenv("TCIM_KERNEL");
  EXPECT_EQ(RefreshActiveBackendFromEnv(), BestSupportedBackend());
}

TEST(KernelBackendEnv, UnknownValueFallsBackToAuto) {
  BackendGuard guard;
  for (const char* name : {"quantum", "swar"}) {
    ::setenv("TCIM_KERNEL", name, 1);
    EXPECT_EQ(RefreshActiveBackendFromEnv(), BestSupportedBackend()) << name;
  }
}

// ---------------------------------------------------------------------------
// Whole-pipeline parity: identical triangle counts on the nine Table II
// stand-ins for every supported backend (tiny scale keeps this a unit
// test; the perf harness covers the full-scale sweep).

TEST(KernelBackendPipeline, TableTwoStandInsCountIdenticallyOnAllBackends) {
  BackendGuard guard;
  for (const graph::PaperRef& ref : graph::AllPaperRefs()) {
    const graph::DatasetInstance inst =
        graph::SynthesizePaperGraph(ref.id, /*scale=*/0.02, /*seed=*/42);
    const std::uint64_t expected =
        baseline::CountTrianglesReference(inst.graph);
    const bit::SlicedMatrix matrix = core::BuildSlicedMatrix(
        inst.graph, graph::Orientation::kUpper, /*slice_bits=*/64);
    for (const KernelBackend backend : SupportedKernelBackends()) {
      SetActiveBackend(backend);
      EXPECT_EQ(core::CountTrianglesSliced(matrix, graph::Orientation::kUpper),
                expected)
          << ref.name << " backend=" << ToString(backend);
    }
  }
}

}  // namespace
}  // namespace tcim::bit
