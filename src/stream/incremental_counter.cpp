#include "stream/incremental_counter.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "bitmatrix/sliced_store.h"
#include "util/timer.h"

namespace tcim::stream {

namespace {

using graph::VertexId;

}  // namespace

IncrementalCounter::IncrementalCounter(const graph::Graph& g,
                                       StreamConfig config)
    : config_(config), graph_(g, config.orientation, config.slice_bits) {
  if (!(config_.recount_fraction >= 0.0)) {  // NaN fails too
    throw std::invalid_argument(
        "IncrementalCounter: recount_fraction must be >= 0");
  }
  triangles_ = graph_.matrix().AndPopcountAllEdges() /
               graph::CountMultiplier(config_.orientation);
}

std::uint64_t IncrementalCounter::MatrixCommonNeighbors(
    VertexId u, VertexId v, BatchStats* stats) const {
  const bit::SlicedMatrix& m = graph_.matrix();
  if (u >= m.num_vertices() || v >= m.num_vertices()) return 0;
  const bit::SlicedStore& rows = m.rows();
  const bit::SlicedStore& cols = m.cols();
  // N(u) = row_u (out) ⊎ col_u (in): the common
  // neighbourhood is the disjoint sum of the four store combinations
  // (just row/row when full-symmetric), so all four gather as
  // zero-copy descriptors and the whole wedge is summed with one
  // kernel call.
  wedge_refs_.clear();
  std::size_t matched = bit::GatherValidPairRefs(rows, u, rows, v,
                                                 wedge_refs_);
  if (config_.orientation != graph::Orientation::kFullSymmetric) {
    matched += bit::GatherValidPairRefs(rows, u, cols, v, wedge_refs_);
    matched += bit::GatherValidPairRefs(cols, u, rows, v, wedge_refs_);
    matched += bit::GatherValidPairRefs(cols, u, cols, v, wedge_refs_);
  }
  if (stats != nullptr) stats->and_ops += matched;
  return bit::AndPopcountPairsZeroCopy(wedge_refs_);
}

BatchResult IncrementalCounter::ApplyBatch(const EdgeDelta& delta) {
  const util::Timer timer;
  BatchResult result;
  result.stats.ops_submitted = delta.size();

  const std::vector<EdgeOp> ops = graph_.Normalize(delta);
  result.stats.ops_dropped = delta.size() - ops.size();

  const double recount_threshold =
      config_.recount_fraction * static_cast<double>(graph_.num_edges());
  if (static_cast<double>(ops.size()) > recount_threshold) {
    // Cost-model fallback: the batch touches too much of the graph —
    // apply to the adjacency only (patching the matrix first would pay
    // the layout cost twice), then re-slice from scratch and run the
    // full Eq. (5) pass.
    result.stats.used_recount = true;
    result.stats.applied =
        graph_.ApplyNormalized(ops, /*patch_matrix=*/false);
    graph_.RebuildMatrix();
    const std::uint64_t total =
        graph_.matrix().AndPopcountAllEdges() /
        graph::CountMultiplier(config_.orientation);
    result.delta = static_cast<std::int64_t>(total) -
                   static_cast<std::int64_t>(triangles_);
    triangles_ = total;
    result.triangles = total;
    result.stats.host_seconds = timer.ElapsedSeconds();
    return result;
  }

  // Incremental path. The matrix stays at the pre-batch state S0 while
  // the ops are costed sequentially; state S_k (after ops 0..k-1) is
  // S0 plus the overlay of net membership changes so far.
  //
  // For op k on {u, v}:   cn_k = |N_{S_k}(u) ∩ N_{S_k}(v)|
  //   = base(u, v)                              [4-way AND kernel, S0]
  //   + Σ_{(u,w) in overlay} net(u,w) · mem_{S_k}(v, w)
  //   + Σ_{(v,w) in overlay} net(v,w) · mem_{S0}(u, w)
  // (the asymmetric mixed-state probes come from telescoping
  //  a'b' − ab = (a'−a)b' + a(b'−b); see docs/STREAMING.md), and the
  // batch delta is Σ_k ± cn_k (+ for insert, − for delete).
  struct OverlayEntry {
    VertexId u;
    VertexId v;
    int net;  // mem_{S_k} − mem_{S0} ∈ {−1, 0, +1}
  };
  std::vector<OverlayEntry> overlay;
  std::unordered_map<std::uint64_t, std::size_t> overlay_index;
  const auto overlay_net = [&](VertexId a, VertexId b) {
    const auto it = overlay_index.find(PackEdgeKey(a, b));
    return it != overlay_index.end() ? overlay[it->second].net : 0;
  };
  // Membership in S0 (the graph is not mutated until ApplyNormalized).
  const auto mem_s0 = [&](VertexId a, VertexId b) {
    return graph_.HasEdge(a, b);
  };
  const auto mem_now = [&](VertexId a, VertexId b) {
    const int net = overlay_net(a, b);
    return net != 0 ? net > 0 : mem_s0(a, b);
  };

  std::int64_t delta_sum = 0;
  for (const EdgeOp& op : ops) {
    std::int64_t cn = static_cast<std::int64_t>(
        MatrixCommonNeighbors(op.u, op.v, &result.stats));
    for (const OverlayEntry& entry : overlay) {
      if (entry.net == 0) continue;
      if (entry.u == op.u || entry.v == op.u) {
        const VertexId w = entry.u == op.u ? entry.v : entry.u;
        if (w == op.v) continue;  // the (u,v) pair itself never probes
        cn += entry.net * static_cast<int>(mem_now(op.v, w));
        ++result.stats.probe_checks;
      } else if (entry.u == op.v || entry.v == op.v) {
        const VertexId w = entry.u == op.v ? entry.v : entry.u;
        if (w == op.u) continue;
        cn += entry.net * static_cast<int>(mem_s0(op.u, w));
        ++result.stats.probe_checks;
      }
    }
    delta_sum += op.insert ? cn : -cn;

    const std::uint64_t key = PackEdgeKey(op.u, op.v);
    const auto [it, fresh] = overlay_index.try_emplace(key, overlay.size());
    if (fresh) {
      overlay.push_back(OverlayEntry{op.u, op.v, op.insert ? 1 : -1});
    } else {
      overlay[it->second].net += op.insert ? 1 : -1;
    }
  }

  result.stats.applied = graph_.ApplyNormalized(ops);
  result.delta = delta_sum;
  triangles_ = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(triangles_) + delta_sum);
  result.triangles = triangles_;
  result.stats.host_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace tcim::stream
