#include "core/accelerator.h"

#include <stdexcept>

#include "core/bitwise_tc.h"
#include "pim/computational_array.h"

namespace tcim::core {

void TcimConfig::Normalize() {
  if (slice_bits == 0 || slice_bits > 512) {
    throw std::invalid_argument("TcimConfig: slice_bits must be in [1,512]");
  }
  array.access_width_bits = slice_bits;
  if (array.subarray_cols % array.access_width_bits != 0) {
    throw std::invalid_argument(
        "TcimConfig: subarray columns must be a multiple of slice_bits");
  }
  bit_counter.word_bits = ((slice_bits + 7) / 8) * 8;
  mtj.Validate();
  tech.Validate();
  array.Validate();
}

TcimAccelerator::TcimAccelerator(TcimConfig config)
    : config_(std::move(config)) {
  config_.Normalize();
  device_ = std::make_unique<device::MtjDevice>(config_.mtj);
  array_model_ = std::make_unique<nvsim::ArrayModel>(config_.tech,
                                                     config_.array, *device_);
}

TcimResult TcimAccelerator::Run(const graph::Graph& g) const {
  const bit::SlicedMatrix matrix =
      BuildSlicedMatrix(g, config_.orientation, config_.slice_bits);
  return RunOnMatrix(matrix, config_.orientation);
}

TcimResult TcimAccelerator::RunOnMatrix(const bit::SlicedMatrix& matrix,
                                        graph::Orientation orientation) const {
  const std::uint32_t n = matrix.num_vertices();
  return Execute(matrix, orientation, arch::BankExecPlan::RowRange(0, n, n),
                 /*with_slice_stats=*/true);
}

TcimResult TcimAccelerator::RunOnMatrixRows(const bit::SlicedMatrix& matrix,
                                            graph::Orientation orientation,
                                            std::uint32_t row_begin,
                                            std::uint32_t row_end) const {
  return RunOnMatrixPlan(
      matrix, orientation,
      arch::BankExecPlan::RowRange(row_begin, row_end, matrix.num_vertices()));
}

TcimResult TcimAccelerator::RunOnMatrixPlan(
    const bit::SlicedMatrix& matrix, graph::Orientation orientation,
    const arch::BankExecPlan& plan) const {
  return Execute(matrix, orientation, plan, /*with_slice_stats=*/false);
}

TcimResult TcimAccelerator::Execute(const bit::SlicedMatrix& matrix,
                                    graph::Orientation orientation,
                                    const arch::BankExecPlan& plan,
                                    bool with_slice_stats) const {
  if (matrix.slice_bits() != config_.slice_bits) {
    throw std::invalid_argument(
        "TcimAccelerator: matrix slice width != configured slice_bits");
  }

  pim::ComputationalArray array(config_.array, config_.bit_counter);
  arch::Controller controller(array, config_.controller);

  TcimResult result;
  result.exec = controller.RunPlan(matrix, plan, /*sink=*/nullptr,
                                  with_slice_stats ? &result.slices : nullptr);
  result.triangles = result.exec.accumulated_bitcount /
                     graph::CountMultiplier(orientation);
  result.perf = EvaluatePerf(result.exec, array_model_->perf(),
                             config_.bit_counter, config_.perf);
  return result;
}

}  // namespace tcim::core
