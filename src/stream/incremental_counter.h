// Exact incremental triangle counting over the live sliced bit-matrix.
//
// The paper counts triangles on a static snapshot; under an edge
// stream a full re-slice + recount per update wastes exactly the cost
// the related work (Asquini et al.; Wang et al., journal version)
// identifies as dominant: data layout and movement, not the bitwise
// kernel. IncrementalCounter instead maintains the count across
// EdgeDelta batches by measuring only the wedges each changed edge
// closes or opens:
//
//   T(G +/- e) - T(G) = +/- |N(u) ∩ N(v)|   for e = {u, v}
//
// evaluated with the §5 AND/popcount kernel over the *touched rows and
// columns only*: in an oriented matrix N(u) splits into row_u (out)
// and col_u (in), so the common-neighbour count is the sum of four
// sliced AND-popcounts — row/row, row/col, col/row, col/col. Batches
// are processed sequentially (op k sees the graph after ops 0..k-1)
// which makes the delta exact for arbitrary batch composition; the
// matrix itself is patched once per batch, so per-op state is carried
// by a small overlay whose membership corrections are O(batch) per op
// (see docs/STREAMING.md for the derivation and a worked example).
//
// A cost model guards the incremental path: when the batch touches
// more than recount_fraction of the current edges, patch-and-rescan
// loses to a fresh slice + full Eq. (5) pass, and ApplyBatch falls
// back to exactly that (stats.used_recount reports it).
//
// Layer: §11 stream — see docs/ARCHITECTURE.md and docs/STREAMING.md.
#pragma once

#include <cstdint>

#include "bitmatrix/popcount.h"
#include "bitmatrix/sliced_matrix.h"
#include "graph/graph.h"
#include "graph/orientation.h"
#include "stream/dynamic_graph.h"
#include "stream/edge_delta.h"

namespace tcim::stream {

struct StreamConfig {
  /// Matrix orientation maintained under updates. kUpper never flips
  /// arcs; kDegree re-orients affected vertices to keep out-degrees
  /// low; kFullSymmetric stores both directions (6x bitcounts).
  graph::Orientation orientation = graph::Orientation::kUpper;
  std::uint32_t slice_bits = 64;
  /// Incremental-vs-recount threshold: when a batch's normalized op
  /// count exceeds this fraction of the current edge count, ApplyBatch
  /// re-slices and recounts instead of patching (the incremental
  /// path's per-op overlay corrections are O(batch), so total batch
  /// cost grows quadratically while recount cost is flat). The
  /// bench/scaling_stream sweep puts the measured crossover near
  /// 0.5–1% of edges on the Table II stand-ins, hence the 1% default.
  double recount_fraction = 0.01;
};

/// Per-batch accounting (the streaming analogue of arch::ExecStats;
/// runtime::StreamAggregate folds it into merged ExecStats).
struct BatchStats {
  std::uint64_t ops_submitted = 0;
  std::uint64_t ops_dropped = 0;  ///< self-loops, duplicates, absent deletes
  ApplyStats applied;             ///< net inserts/deletes/flips + patches
  std::uint64_t and_ops = 0;      ///< slice ANDs issued by the wedge kernel
  std::uint64_t probe_checks = 0; ///< overlay membership corrections
  bool used_recount = false;
  double host_seconds = 0.0;
};

/// Outcome of one ApplyBatch.
struct BatchResult {
  std::int64_t delta = 0;        ///< triangle-count change of this batch
  std::uint64_t triangles = 0;   ///< new total
  BatchStats stats;
};

class IncrementalCounter {
 public:
  explicit IncrementalCounter(const graph::Graph& g, StreamConfig config = {});

  /// Applies one batch and returns the exact new count. Exactness is
  /// the contract: `triangles` equals a from-scratch recount of the
  /// post-batch graph for every batch (the property tests sweep this
  /// against baseline::cpu_tc on every generator family).
  BatchResult ApplyBatch(const EdgeDelta& delta);

  [[nodiscard]] std::uint64_t triangles() const noexcept { return triangles_; }
  [[nodiscard]] const DynamicGraph& graph() const noexcept { return graph_; }
  [[nodiscard]] const StreamConfig& config() const noexcept {
    return config_;
  }

 private:
  /// |N(u) ∩ N(v)| against the pre-batch matrix (zero for vertices
  /// beyond its universe). The four store combinations are gathered as
  /// zero-copy descriptors and the whole wedge is summed by one
  /// AndPopcountPairsZeroCopy call. `stats` (when non-null) accumulates
  /// and_ops.
  [[nodiscard]] std::uint64_t MatrixCommonNeighbors(
      graph::VertexId u, graph::VertexId v, BatchStats* stats) const;

  StreamConfig config_;
  DynamicGraph graph_;
  std::uint64_t triangles_ = 0;
  /// Gather scratch of the 4-way wedge kernel, reused across ops of a
  /// batch. mutable: MatrixCommonNeighbors is logically const; the
  /// class is single-writer (ApplyBatch is not thread-safe) already.
  mutable std::vector<bit::PairRef> wedge_refs_;
};

}  // namespace tcim::stream
