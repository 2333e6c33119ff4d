// Population-count strategies and the host AND+BitCount kernel.
//
// The TCIM architecture (paper §V-A) realizes BitCount in hardware as
// per-byte 8→256 look-up tables followed by an adder tree. This header
// provides that LUT variant (used by pim::BitCounter to model the
// hardware bit counter), the classic SWAR reduction, and the compiler
// builtin — all behaviourally identical, which the tests assert and the
// micro-kernel bench compares for throughput. The span calls
// (AndPopcount, PopcountWords) take any of them.
//
// The host Eq. (5) pass has one kernel: the zero-copy pair list
// (bit::PairRef + bit::AndPopcountPairsZeroCopy; see docs/KERNELS.md,
// "The Eq. (5) pair path"), one std::popcount loop per pair, which the
// x86-64 build (-mpopcnt, see CMakeLists.txt) turns into one POPCNT per
// word. A valid slice is 1–8 words, so the hot paths gather their
// pairs as in-place descriptors and sum a whole list per call.
//
// Layer: §5 bitmatrix — see docs/ARCHITECTURE.md and docs/KERNELS.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace tcim::bit {

/// Which popcount implementation to use.
enum class PopcountKind : std::uint8_t {
  kBuiltin,   ///< host fast path: std::popcount (one POPCNT per word)
  kSwar,      ///< branch-free SWAR bit trickery
  kLut8,      ///< per-byte 8->256 LUT + adder tree (hardware model)
  kLut16,     ///< per-halfword 16->65536 LUT
};

/// Branch-free SWAR popcount of one 64-bit word.
[[nodiscard]] constexpr int PopcountSwar(std::uint64_t x) noexcept {
  x = x - ((x >> 1) & 0x5555555555555555ULL);
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

/// Per-byte LUT popcount — the software twin of the paper's 8-256 LUT
/// bit counter module.
[[nodiscard]] int PopcountLut8(std::uint64_t x) noexcept;

/// Number of PopcountLut8 calls made by the *calling thread* so far.
/// The LUT path is the hardware *model*, not a fast path — this
/// counter lets tests assert that a caller which requested kLut8
/// really exercised it (and that hot paths did not). Per-thread so
/// the increment stays a plain add inside the benchmarked loop.
[[nodiscard]] std::uint64_t Lut8Invocations() noexcept;

/// Per-16-bit LUT popcount.
[[nodiscard]] int PopcountLut16(std::uint64_t x) noexcept;

/// Popcount of one word with the selected strategy.
[[nodiscard]] int Popcount(std::uint64_t x, PopcountKind kind) noexcept;

/// Popcount of a word span (Σ per-word counts) with the selected
/// strategy. Used to count a multi-word slice in one call.
[[nodiscard]] std::uint64_t PopcountWords(std::span<const std::uint64_t> words,
                                          PopcountKind kind) noexcept;

/// Σ popcount(a[k] & b[k]) — the fused AND+BitCount kernel at the heart
/// of Eq. (5). `a` and `b` must have equal size.
[[nodiscard]] std::uint64_t AndPopcount(std::span<const std::uint64_t> a,
                                        std::span<const std::uint64_t> b,
                                        PopcountKind kind =
                                            PopcountKind::kBuiltin) noexcept;

/// One matched slice pair, referenced in place. `words` is the slice
/// width (≤ 8 for every slice geometry the matrix layer produces, but
/// the kernel accepts any length).
struct PairRef {
  const std::uint64_t* a;
  const std::uint64_t* b;
  std::uint32_t words;
};

/// Σ popcount(a & b) over every descriptor — the zero-copy pair kernel
/// behind every host Eq. (5) pass. Consumes the descriptors in
/// place and software-prefetches the next pairs' words while the
/// current one is summed. Descriptor pointers may be null only when
/// that descriptor's `words` is 0.
[[nodiscard]] std::uint64_t AndPopcountPairsZeroCopy(
    std::span<const PairRef> pairs) noexcept;

}  // namespace tcim::bit
