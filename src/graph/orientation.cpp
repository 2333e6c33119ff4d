#include "graph/orientation.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "graph/relabel.h"

namespace tcim::graph {

std::string ToString(Orientation o) {
  switch (o) {
    case Orientation::kUpper:
      return "upper";
    case Orientation::kDegree:
      return "degree";
    case Orientation::kFullSymmetric:
      return "full";
  }
  return "?";
}

std::uint64_t OrientedCsr::MaxOutDegree() const noexcept {
  std::uint64_t best = 0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    best = std::max(best, offsets[v + 1] - offsets[v]);
  }
  return best;
}

namespace {

OrientedCsr OrientUpper(const Graph& g) {
  OrientedCsr out;
  out.num_vertices = g.num_vertices();
  out.orientation = Orientation::kUpper;
  out.offsets.assign(static_cast<std::size_t>(g.num_vertices()) + 1, 0);
  out.neighbors.reserve(g.num_edges());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId v : g.Neighbors(u)) {
      if (v > u) out.neighbors.push_back(v);
    }
    out.offsets[u + 1] = out.neighbors.size();
  }
  return out;
}

OrientedCsr OrientFull(const Graph& g) {
  OrientedCsr out;
  out.num_vertices = g.num_vertices();
  out.orientation = Orientation::kFullSymmetric;
  out.offsets.assign(g.offsets().begin(), g.offsets().end());
  out.neighbors.assign(g.adjacency().begin(), g.adjacency().end());
  return out;
}

OrientedCsr OrientDegree(const Graph& g) {
  const VertexId n = g.num_vertices();
  // The (degree, id)-ascending order relabel uses (a stable counting
  // sort); rank[old] is old's position in it.
  const VertexRelabeling order = VertexRelabeling::DegreeAscending(g);
  const std::span<const VertexId> old_of_rank = order.old_of_new();
  std::vector<VertexId> rank(n);
  for (VertexId pos = 0; pos < n; ++pos) {
    rank[old_of_rank[pos]] = pos;
  }

  OrientedCsr out;
  out.num_vertices = n;
  out.orientation = Orientation::kDegree;
  out.offsets.assign(static_cast<std::size_t>(n) + 1, 0);

  // Arcs point from lower to higher rank: count each ranked row.
  for (VertexId u = 0; u < n; ++u) {
    const VertexId ru = rank[u];
    for (const VertexId v : g.Neighbors(u)) {
      if (rank[v] > ru) {
        ++out.offsets[static_cast<std::size_t>(ru) + 1];
      }
    }
  }
  std::partial_sum(out.offsets.begin(), out.offsets.end(),
                   out.offsets.begin());
  // Sources in ascending rank append themselves to the rows of their
  // lower-ranked neighbours, so every row fills already sorted.
  out.neighbors.assign(out.offsets.back(), 0);
  std::vector<std::uint64_t> cursor(out.offsets.begin(),
                                    out.offsets.end() - 1);
  for (VertexId r = 0; r < n; ++r) {
    for (const VertexId v : g.Neighbors(old_of_rank[r])) {
      const VertexId rv = rank[v];
      if (rv < r) out.neighbors[cursor[rv]++] = r;
    }
  }
  out.relabel = std::move(rank);
  return out;
}

}  // namespace

OrientedCsr Orient(const Graph& g, Orientation o) {
  switch (o) {
    case Orientation::kUpper:
      return OrientUpper(g);
    case Orientation::kDegree:
      return OrientDegree(g);
    case Orientation::kFullSymmetric:
      return OrientFull(g);
  }
  return OrientUpper(g);
}

}  // namespace tcim::graph
