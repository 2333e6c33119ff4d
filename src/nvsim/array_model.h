// NVSim-style analytical performance model of the computational
// STT-MRAM chip (paper §IV-C Fig. 4 organization; §V-A methodology).
//
// Hierarchy (matching Fig. 4): chip -> banks -> mats -> subarrays.
// Every subarray is rows x cols 1T1R cells with a shared row decoder,
// multi-row activation support, per-column-group sense amplifiers with
// READ and AND references, and write drivers. An access moves one
// *slice* (access_width_bits, default 64 = |S|) between the local row
// buffer and one subarray row segment.
//
// The model produces per-op latency/energy (OpCost) and chip-level
// area/leakage — the numbers the behavioural simulator (core/perf_model)
// multiplies with the architectural op counts.
//
// Layer: §4 nvsim — see docs/ARCHITECTURE.md. Units: OpCost
// latencies in seconds and energies in joules; chip leakage in
// watts; chip area in mm².
#pragma once

#include <cstdint>
#include <string>

#include "device/mtj_device.h"
#include "nvsim/tech.h"

namespace tcim::nvsim {

/// Latency + dynamic energy of one array operation.
struct OpCost {
  double latency = 0.0;  ///< [s]
  double energy = 0.0;   ///< [J]
};

/// Physical organization of the computational array.
struct ArrayConfig {
  /// Largest accepted capacity: 1 GiB, 16x the largest array the cache
  /// ablation sweeps (64 MiB). The functional array allocates the whole
  /// capacity per simulated pass, and the cap keeps bits() from
  /// wrapping.
  static constexpr std::uint64_t kMaxCapacityBytes = 1ULL << 30;

  std::uint64_t capacity_bytes = 16ULL << 20;  ///< paper: 16 MB
  std::uint32_t subarray_rows = 512;
  std::uint32_t subarray_cols = 512;
  std::uint32_t access_width_bits = 64;  ///< one slice per access
  std::uint32_t banks = 8;
  std::uint32_t mats_per_bank = 8;
  // subarrays_per_mat is derived from capacity.

  void Validate() const;

  [[nodiscard]] std::uint64_t bits() const noexcept {
    return capacity_bytes * 8ULL;
  }
  [[nodiscard]] std::uint64_t subarray_bits() const noexcept {
    return static_cast<std::uint64_t>(subarray_rows) * subarray_cols;
  }
  [[nodiscard]] std::uint64_t total_subarrays() const noexcept {
    return (bits() + subarray_bits() - 1) / subarray_bits();
  }
  [[nodiscard]] std::uint64_t subarrays_per_mat() const noexcept {
    const std::uint64_t mats =
        static_cast<std::uint64_t>(banks) * mats_per_bank;
    return (total_subarrays() + mats - 1) / mats;
  }
  /// Slices a subarray row holds (cols / access width).
  [[nodiscard]] std::uint32_t slices_per_row() const noexcept {
    return subarray_cols / access_width_bits;
  }
};

/// Chip-level performance summary.
struct ArrayPerf {
  OpCost read_slice;   ///< read one slice (READ reference)
  OpCost write_slice;  ///< write one slice
  OpCost and_slice;    ///< dual-row activation AND of two slices
  double leakage_w = 0.0;   ///< whole chip background power
  double area_mm2 = 0.0;    ///< whole chip estimate
  std::uint64_t subarrays = 0;
  std::uint32_t banks = 0;
  /// Independent op pipelines for the parallel latency model
  /// (= subarrays; each subarray can activate independently).
  std::uint64_t parallel_lanes = 0;

  [[nodiscard]] std::string Summary() const;
};

/// The analytical model; immutable after construction.
class ArrayModel {
 public:
  ArrayModel(const TechnologyParams& tech, const ArrayConfig& config,
             const device::MtjDevice& device);

  [[nodiscard]] const ArrayPerf& perf() const noexcept { return perf_; }
  [[nodiscard]] const ArrayConfig& config() const noexcept { return config_; }
  [[nodiscard]] const TechnologyParams& tech() const noexcept {
    return tech_;
  }

  // Individual component estimates, exposed for tests and the
  // device-exploration example.
  [[nodiscard]] double DecoderDelay() const noexcept;
  [[nodiscard]] double WordlineDelay() const noexcept;
  [[nodiscard]] double BitlineDelay() const noexcept;
  [[nodiscard]] double SenseDelay(double margin_amps) const noexcept;
  [[nodiscard]] double GlobalTransferDelay() const noexcept;
  [[nodiscard]] double SubarrayAreaMm2() const noexcept;

 private:
  void Compute(const device::MtjDevice& device);

  TechnologyParams tech_;
  ArrayConfig config_;
  ArrayPerf perf_;
};

}  // namespace tcim::nvsim
