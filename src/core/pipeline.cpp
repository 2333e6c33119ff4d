#include "core/pipeline.h"

#include <stdexcept>

#include "baseline/cpu_tc.h"
#include "graph/orientation.h"
#include "util/timer.h"

namespace tcim::core {

CountOutcome CountGraph(const graph::Graph& g, const CountRequest& request) {
  const bool host = request.passes != Passes::kSimulated;
  const bool simulated = request.passes != Passes::kHost;
  const graph::Orientation orientation = request.config.orientation;
  const std::uint32_t slice_bits = request.config.slice_bits;
  if (simulated) {
    // The accelerator normalizes again when it is built; checking here
    // rejects a bad config before the first stage has run.
    TcimConfig checked = request.config;
    checked.Normalize();
  }

  CountOutcome out;
  StageSeconds& stages = out.stages;
  // One clock for the whole call: each stage reads the time since the
  // previous one ended, so no work between stages goes unaccounted.
  util::Timer clock;
  const auto lap = [&clock](double& stage) {
    stage = clock.ElapsedSeconds();
    clock.Restart();
  };

  out.relabel = graph::ChooseRelabeling(g, request.relabel, slice_bits);
  lap(stages.relabel_choose);

  std::optional<graph::Graph> relabeled;
  if (out.relabel.applied != graph::RelabelMode::kNone) {
    relabeled = out.relabel.map.Apply(g);
    lap(stages.relabel_apply);
  }

  graph::OrientedCsr csr =
      graph::Orient(relabeled ? *relabeled : g, orientation);
  relabeled.reset();  // the CSR is all that slicing needs
  lap(stages.orient);

  const bit::SlicedMatrix matrix = bit::SlicedMatrix::FromCsr(
      csr.num_vertices, csr.offsets, csr.neighbors, slice_bits);
  csr = {};
  lap(stages.slice);

  std::optional<TcimAccelerator> accel;
  if (simulated) {
    accel.emplace(request.config);
    lap(stages.accel_init);
  }

  if (host) {
    out.triangles = matrix.AndPopcountAllEdges(&out.host_paths) /
                    graph::CountMultiplier(orientation);
    lap(stages.host_pass);
  }

  if (accel) {
    out.sim = accel->RunOnMatrix(matrix, orientation);
    lap(stages.sim_pass);
    if (!host) {
      out.triangles = out.sim->triangles;
    } else if (out.sim->triangles != out.triangles) {
      throw std::logic_error("CountGraph: host and simulated counts differ");
    }
  }

  if (request.verify) {
    out.reference_triangles = baseline::CountTrianglesReference(g);
    lap(stages.verify);
  }
  return out;
}

}  // namespace tcim::core
