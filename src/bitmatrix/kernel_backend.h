// SIMD kernel backends for the Eq. (5) hot path.
//
// Every triangle the system counts funnels through the fused
// AND+BitCount span kernel (popcount.h). This header turns that kernel
// into a pluggable subsystem: each KernelBackend is one vectorization
// of Σ popcount(a[k] & b[k]) — bit-exact with the scalar loop, differing
// only in throughput. Backends are compile-time guarded (a binary only
// contains what its compiler can emit), runtime gated (CPUID feature
// detection picks the widest backend the machine executes), and
// process-wide switchable: a dispatch slot read by every hot-path call,
// overridable via the TCIM_KERNEL environment variable or
// SetActiveBackend() so tests and benches can force any backend.
//
// The hardware-model strategies (PopcountKind::kLut8 etc., used by
// pim::BitCounter to mirror the paper's §V-A LUT + adder tree) never
// route through this dispatch — they stay exact per-word models.
//
// Layer: §12 kernels — see docs/ARCHITECTURE.md and docs/KERNELS.md.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace tcim::bit {

/// One vectorization of the fused AND+popcount span kernel.
enum class KernelBackend : std::uint8_t {
  kScalar,         ///< per-word std::popcount (POPCNT when the CPU has it)
  kAvx2,           ///< AVX2 Harley–Seal CSA + byte-shuffle popcount
  kAvx512Vpopcnt,  ///< AVX-512 VPOPCNTDQ, 8 words per instruction
  kNeon,           ///< AArch64 NEON vcnt + horizontal add
};

inline constexpr std::size_t kNumKernelBackends = 4;

/// Stable lowercase name ("scalar", "avx2", "avx512vpopcnt", "neon") —
/// the TCIM_KERNEL vocabulary.
[[nodiscard]] const char* ToString(KernelBackend backend) noexcept;

/// Inverse of ToString; also accepts the "avx512" alias.
/// Returns nullopt for unknown names (including "auto").
[[nodiscard]] std::optional<KernelBackend> ParseKernelBackend(
    std::string_view name) noexcept;

/// All enum values in declaration order (for sweeps).
[[nodiscard]] std::span<const KernelBackend> AllKernelBackends() noexcept;

/// The executable subset of AllKernelBackends() on this machine, in
/// declaration order — what parity tests and benches iterate.
[[nodiscard]] std::span<const KernelBackend> SupportedKernelBackends() noexcept;

/// True when this binary contains code for the backend (compile-time
/// guard: e.g. kNeon is never compiled into an x86 binary).
[[nodiscard]] bool BackendCompiledIn(KernelBackend backend) noexcept;

/// True when the backend is compiled in *and* this CPU can execute it
/// (runtime feature detection). kScalar is always supported; it needs
/// nothing beyond baseline ISA.
[[nodiscard]] bool BackendSupported(KernelBackend backend) noexcept;

/// The widest supported backend — what auto-dispatch picks; kScalar
/// when no SIMD backend executes here.
[[nodiscard]] KernelBackend BestSupportedBackend() noexcept;

/// The backend behind every PopcountKind::kBuiltin span call. Resolved
/// once per process: TCIM_KERNEL if set to a supported backend name
/// (unknown or unsupported values warn once on stderr and fall back),
/// otherwise BestSupportedBackend().
[[nodiscard]] KernelBackend ActiveBackend() noexcept;

/// Forces the process-wide dispatch to `backend` (tests/benches).
/// Throws std::invalid_argument when the backend is not supported on
/// this machine — forcing it would execute illegal instructions.
void SetActiveBackend(KernelBackend backend);

/// Re-resolves the active backend from TCIM_KERNEL (for tests that
/// setenv() after process start). Returns the new active backend.
KernelBackend RefreshActiveBackendFromEnv();

/// Σ popcount(a[k] & b[k]) over min(a.size(), b.size()) words with an
/// explicit backend, bypassing the process-wide dispatch — the entry
/// point for parity tests and the perf harness. Throws
/// std::invalid_argument when the backend is not supported.
[[nodiscard]] std::uint64_t AndPopcountBackend(
    std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
    KernelBackend backend);

/// Σ popcount(w[k]) with an explicit backend; same contract.
[[nodiscard]] std::uint64_t PopcountWordsBackend(
    std::span<const std::uint64_t> words, KernelBackend backend);

/// Hot-path dispatch through the active backend. No validation, no
/// span plumbing — popcount.cpp calls these for PopcountKind::kBuiltin.
/// `a`/`b`/`words` may be null only when n == 0.
[[nodiscard]] std::uint64_t AndPopcountActive(const std::uint64_t* a,
                                              const std::uint64_t* b,
                                              std::size_t n) noexcept;
[[nodiscard]] std::uint64_t PopcountWordsActive(const std::uint64_t* words,
                                                std::size_t n) noexcept;

// ---------------------------------------------------------------------------
// Zero-copy pair kernel.
//
// A per-slice-pair AndPopcountActive call pays the full dispatch bill
// (atomic backend load + indirect call) for a payload of 1–8 words.
// The zero-copy form resolves the backend function pointer once per
// list and consumes (a_ptr, b_ptr, words) descriptors in place,
// software-prefetching the next pairs' words while the current one is
// summed: no gather copy, and the only per-pair cost is one indirect
// call on already-prefetched lines (docs/KERNELS.md, "The Eq. (5)
// pair path").

/// One matched slice pair, referenced in place. `words` is the slice
/// width (≤ 8 for every slice geometry the matrix layer produces, but
/// the kernel accepts any length).
struct PairRef {
  const std::uint64_t* a;
  const std::uint64_t* b;
  std::uint32_t words;
};

/// Σ popcount(a & b) over every descriptor, evaluated by the active
/// backend with one dispatch resolution for the whole list and
/// software prefetch of the next pair. Descriptor pointers may be null
/// only when that descriptor's `words` is 0.
[[nodiscard]] std::uint64_t AndPopcountPairsZeroCopy(
    std::span<const PairRef> pairs) noexcept;

/// Same with an explicit backend (parity tests, perf harness). Throws
/// std::invalid_argument when the backend is not supported.
[[nodiscard]] std::uint64_t AndPopcountPairsZeroCopyBackend(
    std::span<const PairRef> pairs, KernelBackend backend);

}  // namespace tcim::bit
