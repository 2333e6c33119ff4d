#include "nvsim/array_model.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace tcim::nvsim {

void ArrayConfig::Validate() const {
  const auto check = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument(std::string("ArrayConfig: ") + what);
    }
  };
  check(capacity_bytes > 0 && capacity_bytes <= kMaxCapacityBytes,
        "capacity must be in (0, 1 GiB]");
  check(subarray_rows >= 8 && subarray_cols >= 8, "subarray too small");
  check((subarray_rows & (subarray_rows - 1)) == 0,
        "subarray rows must be a power of two");
  check(access_width_bits > 0 && access_width_bits <= subarray_cols,
        "access width must fit in a row");
  check(subarray_cols % access_width_bits == 0,
        "cols must be a multiple of the access width");
  check(banks > 0 && mats_per_bank > 0, "need at least one bank/mat");
}

ArrayModel::ArrayModel(const TechnologyParams& tech, const ArrayConfig& config,
                       const device::MtjDevice& device)
    : tech_(tech), config_(config) {
  tech_.Validate();
  config_.Validate();
  Compute(device);
}

double ArrayModel::DecoderDelay() const noexcept {
  const double stages = tech_.decoder_stage_delay_factor *
                        std::log2(static_cast<double>(config_.subarray_rows));
  return stages * tech_.fo4_delay;
}

double ArrayModel::WordlineDelay() const noexcept {
  // Distributed RC (Elmore, 0.38 factor) across the row + driver.
  const double cell_pitch =
      std::sqrt(tech_.cell_area_f2) * tech_.feature_size;
  const double r = tech_.wire_res_per_m * cell_pitch * config_.subarray_cols;
  const double c = tech_.wl_cap_per_cell * config_.subarray_cols +
                   tech_.wire_cap_per_m * cell_pitch * config_.subarray_cols;
  return tech_.wl_driver_delay + 0.38 * r * c;
}

double ArrayModel::BitlineDelay() const noexcept {
  const double cell_pitch =
      std::sqrt(tech_.cell_area_f2) * tech_.feature_size;
  const double r = tech_.wire_res_per_m * cell_pitch * config_.subarray_rows;
  const double c = tech_.bl_cap_per_cell * config_.subarray_rows +
                   tech_.wire_cap_per_m * cell_pitch * config_.subarray_rows;
  return 0.38 * r * c;
}

double ArrayModel::SenseDelay(double margin_amps) const noexcept {
  // Current-mode SA resolves slower as the margin shrinks; nominal
  // margin -> base latency, half margin -> double latency.
  if (margin_amps <= 0) return 1e-6;  // pathological margin: flag via huge t
  return tech_.sa_base_latency * (tech_.sa_nominal_margin / margin_amps);
}

double ArrayModel::SubarrayAreaMm2() const noexcept {
  const double cell_area =
      tech_.cell_area_f2 * tech_.feature_size * tech_.feature_size;
  const double cells_mm2 = cell_area * config_.subarray_bits() * 1e6;
  // NVSim-class periphery overhead (decoder, SA strip, drivers): ~40%.
  return cells_mm2 * 1.4;
}

double ArrayModel::GlobalTransferDelay() const noexcept {
  // H-tree from chip edge to a mat: half the chip diagonal as the
  // representative repeated-wire distance.
  const double chip_mm2 = SubarrayAreaMm2() *
                          static_cast<double>(config_.total_subarrays());
  const double edge_m = std::sqrt(chip_mm2) * 1e-3;
  return tech_.io_fixed_latency +
         tech_.global_wire_delay_per_m * edge_m * 0.5;
}

void ArrayModel::Compute(const device::MtjDevice& device) {
  const device::MtjElectrical& e = device.Characterize();
  if (e.switching_time <= 0) {
    throw std::invalid_argument(
        "ArrayModel: device write current does not switch the MTJ");
  }
  const double bits = config_.access_width_bits;
  const double vdd = tech_.vdd;
  const double v_read = device.params().read_voltage;
  const double v_write = device.params().write_voltage;

  const double cell_pitch =
      std::sqrt(tech_.cell_area_f2) * tech_.feature_size;
  const double wl_cap = tech_.wl_cap_per_cell * config_.subarray_cols +
                        tech_.wire_cap_per_m * cell_pitch *
                            config_.subarray_cols;
  const double wl_energy = wl_cap * vdd * vdd;
  const double transfer = GlobalTransferDelay();
  const double io_energy = tech_.io_energy_per_bit * bits;

  // READ: decode -> activate one WL -> bit-line develop -> sense.
  const double t_read_core = DecoderDelay() + WordlineDelay() +
                             BitlineDelay() +
                             SenseDelay(e.read_margin);
  const double read_sense_energy =
      bits * (tech_.sa_energy +
              e.i_read_1 * v_read * SenseDelay(e.read_margin));
  perf_.read_slice.latency = t_read_core + transfer;
  perf_.read_slice.energy =
      tech_.decoder_energy + wl_energy + read_sense_energy + io_energy;

  // AND: two WLs activated simultaneously (multi-row activation),
  // summed current sensed against the AND reference.
  const double t_and_core = DecoderDelay() + WordlineDelay() +
                            BitlineDelay() + SenseDelay(e.and_margin);
  const double and_sense_energy =
      bits * (tech_.sa_energy +
              e.i_and_11 * v_read * SenseDelay(e.and_margin));
  perf_.and_slice.latency = t_and_core + transfer;
  perf_.and_slice.energy = tech_.decoder_energy + 2.0 * wl_energy +
                           and_sense_energy + io_energy;

  // WRITE: decode -> activate -> drive the switching pulse on all
  // access_width bits in parallel.
  perf_.write_slice.latency =
      DecoderDelay() + WordlineDelay() + e.switching_time + transfer;
  const double write_cell_energy =
      bits * e.write_energy_bit * (1.0 + tech_.write_driver_energy_overhead);
  // Unselected-column precharge + driver CV^2, folded into the
  // overhead factor; half-selected rows do not conduct (1T1R).
  perf_.write_slice.energy = tech_.decoder_energy + wl_energy +
                             write_cell_energy + io_energy;
  (void)v_write;  // absorbed in e.write_energy_bit

  // Chip level.
  perf_.subarrays = config_.total_subarrays();
  perf_.banks = config_.banks;
  perf_.parallel_lanes = perf_.subarrays;
  const std::uint32_t sas_per_subarray =
      config_.subarray_cols;  // one SA per column, muxed per access
  perf_.leakage_w =
      static_cast<double>(perf_.subarrays) *
      (tech_.subarray_ctrl_leakage +
       tech_.sa_leakage * sas_per_subarray /
           static_cast<double>(config_.subarray_cols / bits));
  perf_.area_mm2 =
      SubarrayAreaMm2() * static_cast<double>(perf_.subarrays);
}

std::string ArrayPerf::Summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "read %.2f ns / %.2f pJ; and %.2f ns / %.2f pJ; write %.2f ns / "
      "%.2f pJ; %llu subarrays, %.1f mm^2, %.1f mW leakage",
      read_slice.latency * 1e9, read_slice.energy * 1e12,
      and_slice.latency * 1e9, and_slice.energy * 1e12,
      write_slice.latency * 1e9, write_slice.energy * 1e12,
      static_cast<unsigned long long>(subarrays), area_mm2,
      leakage_w * 1e3);
  return buf;
}

}  // namespace tcim::nvsim
