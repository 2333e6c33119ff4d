// Run-stamp shim for the repository benchmark. perfbench/src/main.cpp
// stamps bit::ToString(bit::ActiveBackend()) into every run; the host
// AND+popcount kernel has one implementation (popcount.h), so the
// stamp always reads "scalar". This header goes when the benchmark's
// next change drops the stamp; nothing else includes it.
//
// Layer: §12 kernels — see docs/ARCHITECTURE.md and docs/KERNELS.md.
#pragma once

#include <cstdint>

namespace tcim::bit {

/// The one host kernel (bit::AndPopcount, bit::AndPopcountPairsZeroCopy).
enum class KernelBackend : std::uint8_t { kScalar };

[[nodiscard]] constexpr const char* ToString(KernelBackend) noexcept {
  return "scalar";
}

[[nodiscard]] constexpr KernelBackend ActiveBackend() noexcept {
  return KernelBackend::kScalar;
}

}  // namespace tcim::bit
