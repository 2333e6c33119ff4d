// CountGraph — the one-shot count pipeline (paper Fig. 4), one call
// from an undirected graph to its triangle count.
//
// The call owns the stage order and the stage clock:
//
//   relabel choose -> relabel apply -> orient -> slice -> accelerator
//   set-up -> host Eq. (5) pass and/or simulated pass (one shared
//   matrix) -> CPU verification
//
// and returns the count with a StageSeconds record in which every
// stage is timed once. Callers pick only what differs between them:
// the TcimConfig, the relabel mode, which passes run, and whether to
// verify.
//
// Typical use:
//   tcim::core::CountRequest request;            // simulated pass only
//   request.relabel = tcim::graph::RelabelMode::kAuto;
//   request.verify = true;
//   const tcim::core::CountOutcome out = tcim::core::CountGraph(g, request);
//   out.triangles, out.sim->perf.serial_seconds, out.stages.Total(), ...
//
// Layer: §8 core — see docs/ARCHITECTURE.md. Units: StageSeconds in
// seconds of host wall-clock (SI); modeled latency/energy as in
// TcimResult.
#pragma once

#include <cstdint>
#include <optional>

#include "bitmatrix/sliced_matrix.h"
#include "core/accelerator.h"
#include "graph/graph.h"
#include "graph/relabel.h"

namespace tcim::core {

/// Which Eq. (5) passes run over the one sliced matrix.
enum class Passes : std::uint8_t {
  kHost,       ///< SlicedMatrix::AndPopcountAllEdges — "w/o PIM"
  kSimulated,  ///< TcimAccelerator::RunOnMatrix — the in-MRAM model
  kBoth,       ///< both; their counts must agree
};

struct CountRequest {
  /// Slice width, orientation and the simulated array. The host pass
  /// uses only slice_bits and orientation.
  TcimConfig config;
  graph::RelabelMode relabel = graph::RelabelMode::kNone;
  Passes passes = Passes::kSimulated;
  /// Recount with baseline::CountTrianglesReference on the input graph.
  bool verify = false;
};

/// Host wall-clock per pipeline stage, in stage order. A stage that
/// did not run reads 0. Each stage's clock starts where the previous
/// one stopped, so Total() covers the whole call up to the end of its
/// last stage.
struct StageSeconds {
  double relabel_choose = 0.0;
  double relabel_apply = 0.0;
  double orient = 0.0;
  double slice = 0.0;
  double accel_init = 0.0;
  double host_pass = 0.0;
  double sim_pass = 0.0;
  double verify = 0.0;

  /// Calls fn(name, seconds) for every stage, in stage order — the
  /// one list of stage names that reports print.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    fn("relabel_choose", relabel_choose);
    fn("relabel_apply", relabel_apply);
    fn("orient", orient);
    fn("slice", slice);
    fn("accel_init", accel_init);
    fn("host_pass", host_pass);
    fn("sim_pass", sim_pass);
    fn("verify", verify);
  }

  [[nodiscard]] double Total() const noexcept {
    double total = 0.0;
    ForEach([&total](const char*, double s) { total += s; });
    return total;
  }
};

struct CountOutcome {
  /// Exact triangle count: the host pass's when it ran, otherwise the
  /// simulated pass's.
  std::uint64_t triangles = 0;
  /// The relabel decision; the counted graph is `relabel.map` applied
  /// to the input (the input itself when nothing was applied).
  graph::RelabelChoice relabel;
  /// The simulated pass's full result; set when it ran.
  std::optional<TcimResult> sim;
  /// Pair attribution of the host pass; zero when it did not run.
  bit::PairPathCounters host_paths;
  /// The CPU reference count; set when the verify stage ran.
  std::optional<std::uint64_t> reference_triangles;
  StageSeconds stages;
};

/// Runs the one-shot pipeline on `g`. Throws std::invalid_argument for
/// an invalid config (before any stage runs) and std::logic_error if
/// both passes ran and disagree. A verify mismatch is reported through
/// `reference_triangles`, not thrown.
[[nodiscard]] CountOutcome CountGraph(const graph::Graph& g,
                                      const CountRequest& request);

}  // namespace tcim::core
