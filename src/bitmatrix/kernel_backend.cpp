#include "bitmatrix/kernel_backend.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "util/env.h"

// Compile-time guards. x86 backends use per-function target attributes
// (GCC/Clang), so no translation unit needs special -m flags and the
// binary stays runnable on machines without the wide ISA — the runtime
// CPUID gate decides what actually executes.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define TCIM_KERNEL_HAVE_X86 1
#include <immintrin.h>
#else
#define TCIM_KERNEL_HAVE_X86 0
#endif

#if defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define TCIM_KERNEL_HAVE_NEON 1
#include <arm_neon.h>
#else
#define TCIM_KERNEL_HAVE_NEON 0
#endif

namespace tcim::bit {
namespace {

using AndFn = std::uint64_t (*)(const std::uint64_t*, const std::uint64_t*,
                                std::size_t);

// ---------------------------------------------------------------------------
// kScalar: the reference loop. Two bodies: one compiled for the
// baseline ISA, one with the POPCNT instruction enabled — detection
// picks at process start, so "scalar" means "one word per iteration",
// not "crippled libcall popcount".

std::uint64_t AndScalarGeneric(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

#if TCIM_KERNEL_HAVE_X86
__attribute__((target("popcnt"))) std::uint64_t AndScalarPopcnt(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}
#endif

// ---------------------------------------------------------------------------
// kAvx2: Harley–Seal carry-save popcount (Muła, Kurz & Lemire, "Faster
// population counts using AVX2 instructions"). Blocks of 16 x 256-bit
// vectors (64 words) are reduced through a CSA tree so the byte-shuffle
// popcount runs once per 16 vectors instead of once per vector.

#if TCIM_KERNEL_HAVE_X86

__attribute__((target("avx2"))) inline __m256i PopcountBytes256(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                      _mm256_shuffle_epi8(lookup, hi));
  // Per-64-bit-lane byte sums: safe to accumulate with 64-bit adds.
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline void Csa256(__m256i& h, __m256i& l,
                                                   __m256i a, __m256i b,
                                                   __m256i c) {
  const __m256i u = _mm256_xor_si256(a, b);
  h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
  l = _mm256_xor_si256(u, c);
}

__attribute__((target("avx2"))) inline __m256i LoadAnd256(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t word) {
  return _mm256_and_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + word)),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + word)));
}

__attribute__((target("avx2"))) std::uint64_t AndAvx2HarleySeal(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  __m256i total = _mm256_setzero_si256();
  __m256i ones = _mm256_setzero_si256();
  __m256i twos = _mm256_setzero_si256();
  __m256i fours = _mm256_setzero_si256();
  __m256i eights = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    __m256i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
    Csa256(twos_a, ones, ones, LoadAnd256(a, b, i), LoadAnd256(a, b, i + 4));
    Csa256(twos_b, ones, ones, LoadAnd256(a, b, i + 8),
           LoadAnd256(a, b, i + 12));
    Csa256(fours_a, twos, twos, twos_a, twos_b);
    Csa256(twos_a, ones, ones, LoadAnd256(a, b, i + 16),
           LoadAnd256(a, b, i + 20));
    Csa256(twos_b, ones, ones, LoadAnd256(a, b, i + 24),
           LoadAnd256(a, b, i + 28));
    Csa256(fours_b, twos, twos, twos_a, twos_b);
    Csa256(eights_a, fours, fours, fours_a, fours_b);
    Csa256(twos_a, ones, ones, LoadAnd256(a, b, i + 32),
           LoadAnd256(a, b, i + 36));
    Csa256(twos_b, ones, ones, LoadAnd256(a, b, i + 40),
           LoadAnd256(a, b, i + 44));
    Csa256(fours_a, twos, twos, twos_a, twos_b);
    Csa256(twos_a, ones, ones, LoadAnd256(a, b, i + 48),
           LoadAnd256(a, b, i + 52));
    Csa256(twos_b, ones, ones, LoadAnd256(a, b, i + 56),
           LoadAnd256(a, b, i + 60));
    Csa256(fours_b, twos, twos, twos_a, twos_b);
    Csa256(eights_b, fours, fours, fours_a, fours_b);
    Csa256(sixteens, eights, eights, eights_a, eights_b);
    total = _mm256_add_epi64(total, PopcountBytes256(sixteens));
  }
  total = _mm256_slli_epi64(total, 4);
  total = _mm256_add_epi64(total,
                           _mm256_slli_epi64(PopcountBytes256(eights), 3));
  total =
      _mm256_add_epi64(total, _mm256_slli_epi64(PopcountBytes256(fours), 2));
  total =
      _mm256_add_epi64(total, _mm256_slli_epi64(PopcountBytes256(twos), 1));
  total = _mm256_add_epi64(total, PopcountBytes256(ones));
  for (; i + 4 <= n; i += 4) {
    total = _mm256_add_epi64(total, PopcountBytes256(LoadAnd256(a, b, i)));
  }
  std::uint64_t result =
      static_cast<std::uint64_t>(_mm256_extract_epi64(total, 0)) +
      static_cast<std::uint64_t>(_mm256_extract_epi64(total, 1)) +
      static_cast<std::uint64_t>(_mm256_extract_epi64(total, 2)) +
      static_cast<std::uint64_t>(_mm256_extract_epi64(total, 3));
  for (; i < n; ++i) {
    result += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return result;
}

// ---------------------------------------------------------------------------
// kAvx512Vpopcnt: VPOPCNTDQ counts 8 words per instruction; two
// accumulator chains hide the add latency.

__attribute__((target("avx512f,avx512vpopcntdq"))) std::uint64_t
AndAvx512Vpopcnt(const std::uint64_t* a, const std::uint64_t* b,
                 std::size_t n) {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i v0 = _mm512_and_si512(_mm512_loadu_si512(a + i),
                                        _mm512_loadu_si512(b + i));
    const __m512i v1 = _mm512_and_si512(_mm512_loadu_si512(a + i + 8),
                                        _mm512_loadu_si512(b + i + 8));
    acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(v0));
    acc1 = _mm512_add_epi64(acc1, _mm512_popcnt_epi64(v1));
  }
  if (i + 8 <= n) {
    const __m512i v = _mm512_and_si512(_mm512_loadu_si512(a + i),
                                       _mm512_loadu_si512(b + i));
    acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(v));
    i += 8;
  }
  // Lane sum via a store: GCC 12's _mm512_reduce_add_epi64 header
  // trips -Werror=uninitialized (maskless extract false positive).
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, _mm512_add_epi64(acc0, acc1));
  std::uint64_t result = 0;
  for (const std::uint64_t lane : lanes) result += lane;
  for (; i < n; ++i) {
    result += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return result;
}

#endif  // TCIM_KERNEL_HAVE_X86

// ---------------------------------------------------------------------------
// kNeon: vcnt counts bits per byte; the pairwise-widening add chain
// folds bytes up to one 64-bit count per lane.

#if TCIM_KERNEL_HAVE_NEON
std::uint64_t AndNeon(const std::uint64_t* a, const std::uint64_t* b,
                      std::size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint8x16_t v =
        vreinterpretq_u8_u64(vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
    acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(v)))));
  }
  std::uint64_t result = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
  for (; i < n; ++i) {
    result += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return result;
}
#endif  // TCIM_KERNEL_HAVE_NEON

// ---------------------------------------------------------------------------
// Detection, dispatch table, active slot.

bool CpuSupports(KernelBackend backend) noexcept {
  switch (backend) {
    case KernelBackend::kScalar:
      return true;
    case KernelBackend::kAvx2:
#if TCIM_KERNEL_HAVE_X86
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case KernelBackend::kAvx512Vpopcnt:
#if TCIM_KERNEL_HAVE_X86
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512vpopcntdq") != 0;
#else
      return false;
#endif
    case KernelBackend::kNeon:
      return TCIM_KERNEL_HAVE_NEON != 0;
  }
  return false;
}

AndFn ResolveFn(KernelBackend backend) noexcept {
  switch (backend) {
    case KernelBackend::kScalar:
#if TCIM_KERNEL_HAVE_X86
      return __builtin_cpu_supports("popcnt") != 0 ? &AndScalarPopcnt
                                                   : &AndScalarGeneric;
#else
      return &AndScalarGeneric;
#endif
    case KernelBackend::kAvx2:
#if TCIM_KERNEL_HAVE_X86
      return &AndAvx2HarleySeal;
#else
      return nullptr;
#endif
    case KernelBackend::kAvx512Vpopcnt:
#if TCIM_KERNEL_HAVE_X86
      return &AndAvx512Vpopcnt;
#else
      return nullptr;
#endif
    case KernelBackend::kNeon:
#if TCIM_KERNEL_HAVE_NEON
      return &AndNeon;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

constexpr std::array<KernelBackend, kNumKernelBackends> kAllBackends = {
    KernelBackend::kScalar, KernelBackend::kAvx2, KernelBackend::kAvx512Vpopcnt,
    KernelBackend::kNeon};

struct DispatchTable {
  std::array<AndFn, kNumKernelBackends> fn{};
  std::array<bool, kNumKernelBackends> supported{};

  DispatchTable() noexcept {
    for (const KernelBackend backend : kAllBackends) {
      const auto i = static_cast<std::size_t>(backend);
      fn[i] = ResolveFn(backend);
      supported[i] = fn[i] != nullptr && CpuSupports(backend);
    }
  }
};

const DispatchTable& Table() noexcept {
  static const DispatchTable table;
  return table;
}

KernelBackend ResolveFromEnv() {
  const std::string raw = util::EnvString("TCIM_KERNEL", "");
  if (raw.empty() || raw == "auto") {
    return BestSupportedBackend();
  }
  const std::optional<KernelBackend> parsed = ParseKernelBackend(raw);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "tcim: TCIM_KERNEL='%s' is not a known backend "
                 "(scalar|avx2|avx512vpopcnt|neon|auto); "
                 "using auto dispatch\n",
                 raw.c_str());
    return BestSupportedBackend();
  }
  if (!BackendSupported(*parsed)) {
    std::fprintf(stderr,
                 "tcim: TCIM_KERNEL='%s' is not executable on this machine "
                 "(%s); using '%s'\n",
                 raw.c_str(),
                 BackendCompiledIn(*parsed) ? "CPU lacks the instructions"
                                            : "not compiled into this binary",
                 ToString(BestSupportedBackend()));
    return BestSupportedBackend();
  }
  return *parsed;
}

// The active slot stores the enum, not the function pointer, so
// ActiveBackend() and the dispatched function can never disagree.
std::atomic<std::uint8_t>& ActiveSlot() noexcept {
  static std::atomic<std::uint8_t> slot{
      static_cast<std::uint8_t>(ResolveFromEnv())};
  return slot;
}

// Zero-copy driver: one function-pointer resolution for the whole
// list, then a tight loop that prefetches the next pair's words while
// the current pair is summed. The descriptors themselves stream
// linearly, so only the slice words need explicit prefetch.
// Single-word pairs (|S|=64, the narrowest slice geometry) are summed
// inline: no vector unit can engage on 8 bytes, and skipping the
// indirect call there is what keeps every backend at parity with
// scalar on width-1 streams (perf_harness floor 1).
std::uint64_t RunPairsZeroCopy(AndFn fn,
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
  // the flush loop's loads still miss.
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
    if (p.words == 1) {
      total += static_cast<std::uint64_t>(std::popcount(p.a[0] & p.b[0]));
    } else {
      total += fn(p.a, p.b, p.words);
    }
  }
  return total;
}

}  // namespace

const char* ToString(KernelBackend backend) noexcept {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
    case KernelBackend::kAvx512Vpopcnt:
      return "avx512vpopcnt";
    case KernelBackend::kNeon:
      return "neon";
  }
  return "unknown";
}

std::optional<KernelBackend> ParseKernelBackend(
    std::string_view name) noexcept {
  if (name == "scalar") return KernelBackend::kScalar;
  if (name == "avx2") return KernelBackend::kAvx2;
  if (name == "avx512vpopcnt" || name == "avx512") {
    return KernelBackend::kAvx512Vpopcnt;
  }
  if (name == "neon") return KernelBackend::kNeon;
  return std::nullopt;
}

std::span<const KernelBackend> AllKernelBackends() noexcept {
  return kAllBackends;
}

std::span<const KernelBackend> SupportedKernelBackends() noexcept {
  struct Supported {
    std::array<KernelBackend, kNumKernelBackends> list{};
    std::size_t count = 0;
    Supported() noexcept {
      for (const KernelBackend backend : kAllBackends) {
        if (BackendSupported(backend)) list[count++] = backend;
      }
    }
  };
  static const Supported supported;
  return {supported.list.data(), supported.count};
}

bool BackendCompiledIn(KernelBackend backend) noexcept {
  const auto i = static_cast<std::size_t>(backend);
  return i < kNumKernelBackends && Table().fn[i] != nullptr;
}

bool BackendSupported(KernelBackend backend) noexcept {
  const auto i = static_cast<std::size_t>(backend);
  return i < kNumKernelBackends && Table().supported[i];
}

KernelBackend BestSupportedBackend() noexcept {
  // Widest first; kScalar (std::popcount) runs everywhere.
  if (BackendSupported(KernelBackend::kAvx512Vpopcnt)) {
    return KernelBackend::kAvx512Vpopcnt;
  }
  if (BackendSupported(KernelBackend::kAvx2)) return KernelBackend::kAvx2;
  if (BackendSupported(KernelBackend::kNeon)) return KernelBackend::kNeon;
  return KernelBackend::kScalar;
}

KernelBackend ActiveBackend() noexcept {
  return static_cast<KernelBackend>(
      ActiveSlot().load(std::memory_order_relaxed));
}

void SetActiveBackend(KernelBackend backend) {
  if (!BackendSupported(backend)) {
    throw std::invalid_argument(
        std::string("SetActiveBackend: backend '") + ToString(backend) +
        "' is not supported on this machine");
  }
  ActiveSlot().store(static_cast<std::uint8_t>(backend),
                     std::memory_order_relaxed);
}

KernelBackend RefreshActiveBackendFromEnv() {
  const KernelBackend backend = ResolveFromEnv();
  ActiveSlot().store(static_cast<std::uint8_t>(backend),
                     std::memory_order_relaxed);
  return backend;
}

std::uint64_t AndPopcountBackend(std::span<const std::uint64_t> a,
                                 std::span<const std::uint64_t> b,
                                 KernelBackend backend) {
  if (!BackendSupported(backend)) {
    throw std::invalid_argument(
        std::string("AndPopcountBackend: backend '") + ToString(backend) +
        "' is not supported on this machine");
  }
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  return Table().fn[static_cast<std::size_t>(backend)](a.data(), b.data(), n);
}

std::uint64_t PopcountWordsBackend(std::span<const std::uint64_t> words,
                                   KernelBackend backend) {
  // popcount(w & w) == popcount(w): the AND kernel with both streams
  // aliased is the span popcount, at the cost of one redundant L1 load.
  return AndPopcountBackend(words, words, backend);
}

std::uint64_t AndPopcountActive(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t n) noexcept {
  const auto i =
      static_cast<std::size_t>(ActiveSlot().load(std::memory_order_relaxed));
  return Table().fn[i](a, b, n);
}

std::uint64_t PopcountWordsActive(const std::uint64_t* words,
                                  std::size_t n) noexcept {
  return AndPopcountActive(words, words, n);
}

std::uint64_t AndPopcountPairsZeroCopy(
    std::span<const PairRef> pairs) noexcept {
  const auto i =
      static_cast<std::size_t>(ActiveSlot().load(std::memory_order_relaxed));
  return RunPairsZeroCopy(Table().fn[i], pairs);
}

std::uint64_t AndPopcountPairsZeroCopyBackend(std::span<const PairRef> pairs,
                                              KernelBackend backend) {
  if (!BackendSupported(backend)) {
    throw std::invalid_argument(
        std::string("AndPopcountPairsZeroCopyBackend: backend '") +
        ToString(backend) + "' is not supported on this machine");
  }
  return RunPairsZeroCopy(Table().fn[static_cast<std::size_t>(backend)],
                          pairs);
}

}  // namespace tcim::bit
