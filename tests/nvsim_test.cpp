// Tests for the NVSim-style array model: validation, cost positivity,
// monotonicity in the physical parameters, and paper-scale sanity.
#include <gtest/gtest.h>

#include "device/mtj_device.h"
#include "nvsim/array_model.h"
#include "nvsim/tech.h"

namespace tcim::nvsim {
namespace {

const device::MtjDevice& Device() {
  static const device::MtjDevice dev(device::PaperMtjParams());
  return dev;
}

ArrayModel MakeModel(ArrayConfig config = {},
                     TechnologyParams tech = Default45nm()) {
  return ArrayModel(tech, config, Device());
}

TEST(TechnologyParams, DefaultsValidate) {
  EXPECT_NO_THROW(Default45nm().Validate());
}

TEST(TechnologyParams, RejectsNonPhysical) {
  TechnologyParams t = Default45nm();
  t.feature_size = 0;
  EXPECT_THROW(t.Validate(), std::invalid_argument);
  t = Default45nm();
  t.sa_nominal_margin = -1;
  EXPECT_THROW(t.Validate(), std::invalid_argument);
}

TEST(ArrayConfig, DefaultIsPaper16MB) {
  const ArrayConfig c;
  EXPECT_EQ(c.capacity_bytes, 16ULL << 20);
  EXPECT_EQ(c.access_width_bits, 64u);
  EXPECT_NO_THROW(c.Validate());
}

TEST(ArrayConfig, CapacityIsCapped) {
  ArrayConfig c;
  c.capacity_bytes = 64ULL << 20;  // the largest cache-ablation array
  EXPECT_NO_THROW(c.Validate());
  c.capacity_bytes = ArrayConfig::kMaxCapacityBytes;
  EXPECT_NO_THROW(c.Validate());
  EXPECT_EQ(c.bits(), ArrayConfig::kMaxCapacityBytes * 8);
  c.capacity_bytes = ArrayConfig::kMaxCapacityBytes + 1;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  // What a negative double cast to uint64 becomes on x86-64.
  c.capacity_bytes = 18446744073708503040ULL;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c.capacity_bytes = 0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
}

TEST(ArrayConfig, DerivedGeometry) {
  const ArrayConfig c;
  EXPECT_EQ(c.subarray_bits(), 512ULL * 512);
  EXPECT_EQ(c.total_subarrays(), (16ULL << 23) / (512 * 512));
  EXPECT_EQ(c.slices_per_row(), 8u);
}

TEST(ArrayConfig, RejectsBadGeometry) {
  ArrayConfig c;
  c.subarray_rows = 500;  // not a power of two
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = ArrayConfig{};
  c.access_width_bits = 100;  // does not divide cols
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = ArrayConfig{};
  c.access_width_bits = 1024;  // wider than a row
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = ArrayConfig{};
  c.banks = 0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
}

TEST(ArrayModel, AllCostsPositive) {
  const ArrayModel m = MakeModel();
  const ArrayPerf& p = m.perf();
  EXPECT_GT(p.read_slice.latency, 0.0);
  EXPECT_GT(p.read_slice.energy, 0.0);
  EXPECT_GT(p.and_slice.latency, 0.0);
  EXPECT_GT(p.and_slice.energy, 0.0);
  EXPECT_GT(p.write_slice.latency, 0.0);
  EXPECT_GT(p.write_slice.energy, 0.0);
  EXPECT_GT(p.leakage_w, 0.0);
  EXPECT_GT(p.area_mm2, 0.0);
  EXPECT_GT(p.subarrays, 0u);
}

TEST(ArrayModel, NvmCostHierarchy) {
  const ArrayPerf p = MakeModel().perf();  // a copy: the model is a temporary
  // STT-MRAM: write is slower and far more energetic than read; AND
  // (two wordlines + bigger sensed current) costs more than READ.
  EXPECT_GT(p.write_slice.latency, p.read_slice.latency);
  EXPECT_GT(p.write_slice.energy, 5.0 * p.read_slice.energy);
  EXPECT_GE(p.and_slice.energy, p.read_slice.energy);
}

TEST(ArrayModel, PaperScaleSanity) {
  const ArrayPerf p = MakeModel().perf();  // a copy: the model is a temporary
  // ns-class accesses, pJ-class energies, tens of mm^2 for 16 MB at
  // 45nm, sub-watt leakage — the regime NVSim reports for MRAM.
  EXPECT_GT(p.read_slice.latency, 0.1e-9);
  EXPECT_LT(p.read_slice.latency, 50e-9);
  EXPECT_LT(p.write_slice.latency, 100e-9);
  EXPECT_GT(p.read_slice.energy, 1e-14);
  EXPECT_LT(p.write_slice.energy, 1e-9);
  EXPECT_GT(p.area_mm2, 1.0);
  EXPECT_LT(p.area_mm2, 100.0);
  EXPECT_LT(p.leakage_w, 1.0);
}

TEST(ArrayModel, BiggerCapacityMeansMoreSubarraysAndArea) {
  ArrayConfig small;
  small.capacity_bytes = 4ULL << 20;
  ArrayConfig big;
  big.capacity_bytes = 64ULL << 20;
  const ArrayModel ms = MakeModel(small);
  const ArrayModel mb = MakeModel(big);
  EXPECT_GT(mb.perf().subarrays, ms.perf().subarrays);
  EXPECT_GT(mb.perf().area_mm2, ms.perf().area_mm2);
  EXPECT_GT(mb.perf().leakage_w, ms.perf().leakage_w);
  // Bigger chips pay more global wire delay.
  EXPECT_GT(mb.GlobalTransferDelay(), ms.GlobalTransferDelay());
}

TEST(ArrayModel, TallerSubarraySlowsBitline) {
  ArrayConfig tall;
  tall.subarray_rows = 1024;
  const ArrayModel mt = MakeModel(tall);
  const ArrayModel md = MakeModel();
  EXPECT_GT(mt.BitlineDelay(), md.BitlineDelay());
  EXPECT_GT(mt.DecoderDelay(), md.DecoderDelay());
}

TEST(ArrayModel, WiderSubarraySlowsWordline) {
  ArrayConfig wide;
  wide.subarray_cols = 2048;
  const ArrayModel mw = MakeModel(wide);
  const ArrayModel md = MakeModel();
  EXPECT_GT(mw.WordlineDelay(), md.WordlineDelay());
}

TEST(ArrayModel, SenseDelayScalesInverselyWithMargin) {
  const ArrayModel m = MakeModel();
  const double at_nominal = m.SenseDelay(Default45nm().sa_nominal_margin);
  EXPECT_NEAR(at_nominal, Default45nm().sa_base_latency, 1e-15);
  EXPECT_NEAR(m.SenseDelay(Default45nm().sa_nominal_margin / 2),
              2 * at_nominal, 1e-12);
  // Degenerate margin is flagged with a huge delay, not UB.
  EXPECT_GT(m.SenseDelay(0.0), 1e-7);
}

TEST(ArrayModel, RejectsNonSwitchingDevice) {
  device::MtjParams weak = device::PaperMtjParams();
  weak.write_voltage = 0.12;  // barely above read; current ~ Ic/3
  const device::MtjDevice dev(weak);
  EXPECT_THROW(ArrayModel(Default45nm(), ArrayConfig{}, dev),
               std::invalid_argument);
}

TEST(ArrayModel, SummaryMentionsKeyNumbers) {
  const std::string s = MakeModel().perf().Summary();
  EXPECT_NE(s.find("read"), std::string::npos);
  EXPECT_NE(s.find("write"), std::string::npos);
  EXPECT_NE(s.find("subarrays"), std::string::npos);
}

TEST(TechnologyPresets, AllNodesValidate) {
  EXPECT_NO_THROW(Scaled65nm().Validate());
  EXPECT_NO_THROW(Scaled32nm().Validate());
  EXPECT_NEAR(Scaled65nm().feature_size, 65e-9, 1e-12);
  EXPECT_NEAR(Scaled32nm().feature_size, 32e-9, 1e-12);
}

TEST(TechnologyPresets, NewerNodeIsFasterAndDenser) {
  const ArrayModel m65 = MakeModel(ArrayConfig{}, Scaled65nm());
  const ArrayModel m45 = MakeModel(ArrayConfig{}, Default45nm());
  const ArrayModel m32 = MakeModel(ArrayConfig{}, Scaled32nm());
  // Area shrinks with the node.
  EXPECT_GT(m65.perf().area_mm2, m45.perf().area_mm2);
  EXPECT_GT(m45.perf().area_mm2, m32.perf().area_mm2);
  // Peripheral (decoder) delay follows FO4.
  EXPECT_GT(m65.DecoderDelay(), m45.DecoderDelay());
  EXPECT_GT(m45.DecoderDelay(), m32.DecoderDelay());
  // READ energy improves with scaling.
  EXPECT_GT(m65.perf().read_slice.energy, m32.perf().read_slice.energy);
}

TEST(ArrayModel, ParallelLanesEqualSubarrays) {
  const ArrayPerf p = MakeModel().perf();  // a copy: the model is a temporary
  EXPECT_EQ(p.parallel_lanes, p.subarrays);
}

}  // namespace
}  // namespace tcim::nvsim
