#include "bitmatrix/popcount.h"

#include <algorithm>
#include <array>
#include <bit>

namespace tcim::bit {
namespace {

// Per-thread call counter for the hardware-model path; see
// Lut8Invocations(). thread_local keeps the increment a plain add —
// an atomic here would put a locked RMW inside the loop the strategy
// benchmarks measure.
thread_local std::uint64_t t_lut8_invocations = 0;

constexpr std::array<std::uint8_t, 256> MakeLut8() {
  std::array<std::uint8_t, 256> lut{};
  for (int i = 0; i < 256; ++i) {
    lut[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(PopcountSwar(static_cast<std::uint64_t>(i)));
  }
  return lut;
}

const std::array<std::uint8_t, 256> kLut8 = MakeLut8();

std::array<std::uint8_t, 65536> MakeLut16() {
  std::array<std::uint8_t, 65536> lut{};
  for (std::size_t i = 0; i < lut.size(); ++i) {
    lut[i] = static_cast<std::uint8_t>(PopcountSwar(i));
  }
  return lut;
}

const std::array<std::uint8_t, 65536>& Lut16() {
  static const std::array<std::uint8_t, 65536> lut = MakeLut16();
  return lut;
}

// Σ popcount(a[k] & b[k]) over n words — the kBuiltin kernel body; a/b
// may be null only when n == 0.
std::uint64_t AndPopcountBuiltin(const std::uint64_t* a,
                                 const std::uint64_t* b,
                                 std::size_t n) noexcept {
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += static_cast<std::uint64_t>(std::popcount(a[k] & b[k]));
  }
  return total;
}

}  // namespace

int PopcountLut8(std::uint64_t x) noexcept {
  ++t_lut8_invocations;
  // Eight byte lookups summed pairwise — mirrors the hardware adder
  // tree (4 + 2 + 1 adders) described in paper §V-A.
  const int b0 = kLut8[static_cast<std::uint8_t>(x)];
  const int b1 = kLut8[static_cast<std::uint8_t>(x >> 8)];
  const int b2 = kLut8[static_cast<std::uint8_t>(x >> 16)];
  const int b3 = kLut8[static_cast<std::uint8_t>(x >> 24)];
  const int b4 = kLut8[static_cast<std::uint8_t>(x >> 32)];
  const int b5 = kLut8[static_cast<std::uint8_t>(x >> 40)];
  const int b6 = kLut8[static_cast<std::uint8_t>(x >> 48)];
  const int b7 = kLut8[static_cast<std::uint8_t>(x >> 56)];
  const int s0 = b0 + b1;
  const int s1 = b2 + b3;
  const int s2 = b4 + b5;
  const int s3 = b6 + b7;
  return (s0 + s1) + (s2 + s3);
}

std::uint64_t Lut8Invocations() noexcept { return t_lut8_invocations; }

int PopcountLut16(std::uint64_t x) noexcept {
  const auto& lut = Lut16();
  return lut[static_cast<std::uint16_t>(x)] +
         lut[static_cast<std::uint16_t>(x >> 16)] +
         lut[static_cast<std::uint16_t>(x >> 32)] +
         lut[static_cast<std::uint16_t>(x >> 48)];
}

int Popcount(std::uint64_t x, PopcountKind kind) noexcept {
  switch (kind) {
    case PopcountKind::kBuiltin:
      return std::popcount(x);
    case PopcountKind::kSwar:
      return PopcountSwar(x);
    case PopcountKind::kLut8:
      return PopcountLut8(x);
    case PopcountKind::kLut16:
      return PopcountLut16(x);
  }
  return std::popcount(x);  // unreachable; keeps -Wreturn-type quiet
}

std::uint64_t PopcountWords(std::span<const std::uint64_t> words,
                            PopcountKind kind) noexcept {
  // popcount(w & w) == popcount(w): the AND kernel with both operands
  // aliased is the span popcount.
  return AndPopcount(words, words, kind);
}

std::uint64_t AndPopcount(std::span<const std::uint64_t> a,
                          std::span<const std::uint64_t> b,
                          PopcountKind kind) noexcept {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  if (kind == PopcountKind::kBuiltin) {
    return AndPopcountBuiltin(a.data(), b.data(), n);
  }
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += static_cast<std::uint64_t>(Popcount(a[k] & b[k], kind));
  }
  return total;
}

std::uint64_t AndPopcountPairsZeroCopy(
    std::span<const PairRef> pairs) noexcept {
  std::uint64_t total = 0;
  const std::size_t n = pairs.size();
#if defined(__GNUC__) || defined(__clang__)
  // Summing one pair is a few dozen cycles — far less than a DRAM miss —
  // so a lookahead of one pair only hides latency while the list is
  // cache-resident. Prime a deeper window and keep it full: 8 pairs of
  // lookahead is enough slack for an LLC-spilling |S|=512 working set
  // (the roadNet rows at full scale) without hurting the L1/L2 case.
  constexpr std::size_t kPrefetchPairs = 8;
  // Slice spans are 8-byte aligned, so an 8-word (|S|=512) span usually
  // straddles two cache lines — prefetch the tail line as well or half
  // the loop's loads still miss.
  const auto prefetch = [](const PairRef& p) {
    __builtin_prefetch(p.a);
    __builtin_prefetch(p.b);
    if (p.words > 1) {
      __builtin_prefetch(p.a + p.words - 1);
      __builtin_prefetch(p.b + p.words - 1);
    }
  };
  for (std::size_t i = 0, prime = std::min(n, kPrefetchPairs); i < prime;
       ++i) {
    prefetch(pairs[i]);
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
#if defined(__GNUC__) || defined(__clang__)
    if (i + kPrefetchPairs < n) prefetch(pairs[i + kPrefetchPairs]);
#endif
    const PairRef& p = pairs[i];
    // Single-word pairs (|S|=64, the narrowest slice geometry and the
    // common case) skip the loop setup.
    if (p.words == 1) {
      total += static_cast<std::uint64_t>(std::popcount(p.a[0] & p.b[0]));
    } else {
      total += AndPopcountBuiltin(p.a, p.b, p.words);
    }
  }
  return total;
}

}  // namespace tcim::bit
