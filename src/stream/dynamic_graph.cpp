#include "stream/dynamic_graph.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace tcim::stream {

namespace {

using graph::VertexId;

bool SortedContains(const std::vector<VertexId>& list, VertexId v) noexcept {
  return std::binary_search(list.begin(), list.end(), v);
}

void SortedInsert(std::vector<VertexId>& list, VertexId v) {
  list.insert(std::lower_bound(list.begin(), list.end(), v), v);
}

void SortedErase(std::vector<VertexId>& list, VertexId v) {
  list.erase(std::lower_bound(list.begin(), list.end(), v));
}

}  // namespace

DynamicGraph::DynamicGraph(const graph::Graph& g,
                           graph::Orientation orientation,
                           std::uint32_t slice_bits)
    : orientation_(orientation),
      slice_bits_(slice_bits),
      n_(g.num_vertices()),
      m_(g.num_edges()),
      adj_(g.num_vertices()) {
  for (VertexId v = 0; v < n_; ++v) {
    const std::span<const VertexId> neighbors = g.Neighbors(v);
    adj_[v].assign(neighbors.begin(), neighbors.end());
  }
  RebuildMatrix();
}

std::uint64_t DynamicGraph::Degree(VertexId v) const {
  return adj_.at(v).size();
}

bool DynamicGraph::HasEdge(VertexId u, VertexId v) const {
  if (u >= n_ || v >= n_ || u == v) return false;
  return SortedContains(adj_[u], v);
}

std::vector<EdgeOp> DynamicGraph::Normalize(const EdgeDelta& delta) const {
  std::vector<EdgeOp> normalized;
  normalized.reserve(delta.ops.size());
  // Membership of every pair the batch has touched so far; pairs not
  // in the map are still at their pre-batch state.
  std::unordered_map<std::uint64_t, bool> pending;
  for (const EdgeOp& op : delta.ops) {
    if (op.u == op.v) continue;  // self-loop, never representable
    const std::uint64_t key = PackEdgeKey(op.u, op.v);
    const auto it = pending.find(key);
    const bool present = it != pending.end() ? it->second
                                             : HasEdge(op.u, op.v);
    if (op.insert == present) continue;  // duplicate insert / absent delete
    normalized.push_back(op);
    pending[key] = op.insert;
  }
  return normalized;
}

ApplyStats DynamicGraph::ApplyNormalized(std::span<const EdgeOp> ops,
                                         bool patch_matrix) {
  ApplyStats stats;

  // Pass A (pre-mutation): vertex growth and the old-degree snapshot
  // the kDegree key comparisons need. The new size is computed in 64
  // bits: an id whose +1 does not fit VertexId would wrap the vertex
  // count to 0 and leave adj_ unsized, so it is rejected here, before
  // anything is mutated.
  std::uint64_t grown_n = n_;
  std::unordered_map<VertexId, std::uint64_t> old_degree;
  for (const EdgeOp& op : ops) {
    grown_n = std::max({grown_n, std::uint64_t{op.u} + 1,
                        std::uint64_t{op.v} + 1});
    for (const VertexId x : {op.u, op.v}) {
      old_degree.try_emplace(x, x < n_ ? adj_[x].size() : 0);
    }
  }
  if (grown_n > std::numeric_limits<VertexId>::max()) {
    throw std::invalid_argument(
        "DynamicGraph::ApplyNormalized: vertex id " +
        std::to_string(grown_n - 1) + " is out of range (max " +
        std::to_string(std::numeric_limits<VertexId>::max() - 1) + ")");
  }
  const auto new_n = static_cast<VertexId>(grown_n);
  adj_.resize(new_n);

  // Pass B: replay the sequence against the adjacency, recording each
  // touched pair's pre-batch and final membership.
  struct PairState {
    bool before;
    bool after;
  };
  std::unordered_map<std::uint64_t, PairState> touched;
  for (const EdgeOp& op : ops) {
    const std::uint64_t key = PackEdgeKey(op.u, op.v);
    const bool present = SortedContains(adj_[op.u], op.v);
    if (op.insert == present || op.u == op.v) {
      throw std::invalid_argument(
          "DynamicGraph::ApplyNormalized: ops are not a normalized "
          "sequence (use Normalize)");
    }
    touched.try_emplace(key, PairState{present, present});
    touched[key].after = op.insert;
    if (op.insert) {
      SortedInsert(adj_[op.u], op.v);
      SortedInsert(adj_[op.v], op.u);
      ++m_;
    } else {
      SortedErase(adj_[op.u], op.v);
      SortedErase(adj_[op.v], op.u);
      --m_;
    }
  }

  // Keys as of now (adjacency final) vs the pre-batch snapshot.
  const auto new_key = [&](VertexId x) {
    return std::make_pair(orientation_ == graph::Orientation::kDegree
                              ? static_cast<std::uint64_t>(adj_[x].size())
                              : 0,
                          x);
  };
  const auto old_key = [&](VertexId x) {
    std::uint64_t deg = 0;
    if (orientation_ == graph::Orientation::kDegree) {
      const auto it = old_degree.find(x);
      deg = it != old_degree.end()
                ? it->second
                : static_cast<std::uint64_t>(adj_[x].size());
    }
    return std::make_pair(deg, x);
  };

  // Net membership changes become arc edits: inserts are oriented by
  // the *new* keys (that is the matrix state being built), deletes by
  // the *old* keys (that is the arc currently stored).
  std::vector<bit::ArcEdit> edits;
  std::unordered_map<std::uint64_t, bool> net_inserted;
  for (const auto& [key, state] : touched) {
    if (state.before == state.after) continue;
    const auto u = static_cast<VertexId>(key >> 32);
    const auto v = static_cast<VertexId>(key & 0xffffffffu);
    if (state.after) {
      ++stats.inserted;
      if (!patch_matrix) continue;
      net_inserted.emplace(key, true);
      if (orientation_ == graph::Orientation::kFullSymmetric) {
        edits.push_back(bit::ArcEdit{u, v, true});
        edits.push_back(bit::ArcEdit{v, u, true});
      } else {
        const auto [from, to] = new_key(u) < new_key(v)
                                    ? std::make_pair(u, v)
                                    : std::make_pair(v, u);
        edits.push_back(bit::ArcEdit{from, to, true});
      }
    } else {
      ++stats.deleted;
      if (!patch_matrix) continue;
      if (orientation_ == graph::Orientation::kFullSymmetric) {
        edits.push_back(bit::ArcEdit{u, v, false});
        edits.push_back(bit::ArcEdit{v, u, false});
      } else {
        const auto [from, to] = old_key(u) < old_key(v)
                                    ? std::make_pair(u, v)
                                    : std::make_pair(v, u);
        edits.push_back(bit::ArcEdit{from, to, false});
      }
    }
  }

  // kDegree re-orientation of the *affected vertices*: a surviving arc
  // flips iff the relative key order of its endpoints changed, which
  // can only involve a vertex whose degree changed.
  if (patch_matrix && orientation_ == graph::Orientation::kDegree) {
    std::vector<VertexId> changed;
    for (const auto& [x, deg] : old_degree) {
      if (x < adj_.size() && adj_[x].size() != deg) changed.push_back(x);
    }
    std::sort(changed.begin(), changed.end());
    const auto is_changed = [&](VertexId x) {
      return std::binary_search(changed.begin(), changed.end(), x);
    };
    for (const VertexId a : changed) {
      for (const VertexId w : adj_[a]) {
        if (net_inserted.count(PackEdgeKey(a, w)) != 0) continue;
        if (w < a && is_changed(w)) continue;  // handled from w's side
        const bool was_out = old_key(a) < old_key(w);
        const bool now_out = new_key(a) < new_key(w);
        if (was_out == now_out) continue;
        const VertexId old_from = was_out ? a : w;
        const VertexId old_to = was_out ? w : a;
        edits.push_back(bit::ArcEdit{old_from, old_to, false});
        edits.push_back(bit::ArcEdit{old_to, old_from, true});
        ++stats.flipped_arcs;
      }
    }
  }

  if (patch_matrix) stats.patch = matrix_.ApplyArcEdits(edits, new_n);
  stats.grown_vertices = new_n - n_;
  n_ = new_n;
  return stats;
}

ApplyStats DynamicGraph::Apply(const EdgeDelta& delta) {
  return ApplyNormalized(Normalize(delta));
}

graph::Graph DynamicGraph::ToGraph() const {
  graph::GraphBuilder builder(n_);
  builder.ReserveEdges(m_);
  for (VertexId u = 0; u < n_; ++u) {
    for (const VertexId v : adj_[u]) {
      if (v > u) builder.AddEdge(u, v);
    }
  }
  return std::move(builder).Build();
}

void DynamicGraph::RebuildMatrix() {
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n_) + 1, 0);
  std::vector<std::uint32_t> neighbors;
  neighbors.reserve(orientation_ == graph::Orientation::kFullSymmetric
                        ? 2 * m_
                        : m_);
  for (VertexId u = 0; u < n_; ++u) {
    for (const VertexId v : adj_[u]) {
      if (orientation_ == graph::Orientation::kFullSymmetric ||
          Key(u) < Key(v)) {
        neighbors.push_back(v);
      }
    }
    offsets[u + 1] = neighbors.size();
  }
  matrix_ = bit::SlicedMatrix::FromCsr(n_, offsets, neighbors, slice_bits_);
}

}  // namespace tcim::stream
