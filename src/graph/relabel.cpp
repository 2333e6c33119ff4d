#include "graph/relabel.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

namespace tcim::graph {
namespace {

/// Vertex ids of `g` ordered by degree (ascending or descending), ties
/// by id ascending: one stable counting sort over the CSR offsets,
/// O(n + max degree).
std::vector<VertexId> VerticesByDegree(const Graph& g, bool ascending) {
  const VertexId n = g.num_vertices();
  const std::span<const std::uint64_t> offsets = g.offsets();
  const std::uint64_t max_degree = g.max_degree();
  const auto bucket = [&](VertexId v) {
    const std::uint64_t degree = offsets[v + 1] - offsets[v];
    return ascending ? degree : max_degree - degree;
  };
  std::vector<VertexId> start(max_degree + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++start[bucket(v) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<VertexId> order(n);
  for (VertexId v = 0; v < n; ++v) order[start[bucket(v)]++] = v;
  return order;
}

}  // namespace

VertexRelabeling VertexRelabeling::Identity(VertexId n) {
  VertexRelabeling map;
  map.new_of_old_.resize(n);
  map.old_of_new_.resize(n);
  std::iota(map.new_of_old_.begin(), map.new_of_old_.end(), VertexId{0});
  std::iota(map.old_of_new_.begin(), map.old_of_new_.end(), VertexId{0});
  return map;
}

VertexRelabeling VertexRelabeling::DegreeAscending(const Graph& g) {
  const VertexId n = g.num_vertices();
  VertexRelabeling map;
  map.old_of_new_ = VerticesByDegree(g, /*ascending=*/true);
  map.new_of_old_.resize(n);
  for (VertexId internal = 0; internal < n; ++internal) {
    map.new_of_old_[map.old_of_new_[internal]] = internal;
  }
  return map;
}

VertexRelabeling VertexRelabeling::BfsFromHubs(const Graph& g) {
  const VertexId n = g.num_vertices();
  const std::span<const std::uint64_t> offsets = g.offsets();
  const std::span<const VertexId> adjacency = g.adjacency();
  VertexRelabeling map;
  map.new_of_old_.assign(n, kUnassigned);
  map.old_of_new_.reserve(n);
  const auto visit = [&](VertexId v) {
    if (map.new_of_old_[v] != kUnassigned) return;
    map.new_of_old_[v] = static_cast<VertexId>(map.old_of_new_.size());
    map.old_of_new_.push_back(v);
  };
  // old_of_new_ doubles as the FIFO queue: visit order is BFS order,
  // so everything past `head` is discovered but not yet expanded.
  std::size_t head = 0;
  for (const VertexId seed : VerticesByDegree(g, /*ascending=*/false)) {
    visit(seed);
    while (head < map.old_of_new_.size()) {
      const VertexId u = map.old_of_new_[head++];
      for (std::uint64_t e = offsets[u]; e < offsets[u + 1]; ++e) {
        visit(adjacency[e]);
      }
    }
  }
  return map;
}

VertexId VertexRelabeling::ToInternal(VertexId original) {
  if (original == kUnassigned) {
    throw std::invalid_argument(
        "VertexRelabeling::ToInternal: vertex id " + std::to_string(original) +
        " is out of range (max " + std::to_string(kUnassigned - 1) + ")");
  }
  if (original >= new_of_old_.size()) {
    new_of_old_.resize(static_cast<std::size_t>(original) + 1, kUnassigned);
  }
  VertexId& slot = new_of_old_[original];
  if (slot == kUnassigned) {
    slot = static_cast<VertexId>(old_of_new_.size());
    old_of_new_.push_back(original);
  }
  return slot;
}

std::optional<VertexId> VertexRelabeling::FindInternal(
    VertexId original) const noexcept {
  if (original >= new_of_old_.size() ||
      new_of_old_[original] == kUnassigned) {
    return std::nullopt;
  }
  return new_of_old_[original];
}

VertexId VertexRelabeling::ToOriginal(VertexId internal) const {
  if (internal >= old_of_new_.size()) {
    throw std::out_of_range("VertexRelabeling::ToOriginal: id unassigned");
  }
  return old_of_new_[internal];
}

bool VertexRelabeling::IsIdentity() const noexcept {
  for (VertexId internal = 0; internal < old_of_new_.size(); ++internal) {
    if (old_of_new_[internal] != internal) return false;
  }
  return true;
}

std::span<const VertexId> VertexRelabeling::InternalIdsOf(
    const Graph& g, const char* unmapped_error) const {
  const VertexId n = g.num_vertices();
  if (new_of_old_.size() < n ||
      std::find(new_of_old_.begin(), new_of_old_.begin() + n, kUnassigned) !=
          new_of_old_.begin() + n) {
    throw std::invalid_argument(unmapped_error);
  }
  return {new_of_old_.data(), n};
}

Graph VertexRelabeling::Apply(const Graph& g) const {
  const std::span<const VertexId> internal = InternalIdsOf(
      g, "VertexRelabeling::Apply: graph has unmapped vertices");
  const VertexId n = g.num_vertices();
  Graph out;
  out.n_ = size();
  out.max_degree_ = g.max_degree_;  // a permutation; grown rows are empty
  out.offsets_.assign(static_cast<std::size_t>(out.n_) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    out.offsets_[static_cast<std::size_t>(internal[v]) + 1] =
        g.offsets_[v + 1] - g.offsets_[v];
  }
  std::partial_sum(out.offsets_.begin(), out.offsets_.end(),
                   out.offsets_.begin());
  out.adjacency_.assign(g.adjacency_.size(), 0);
  // Sources in ascending internal id append themselves to their
  // neighbours' rows, so every row fills already sorted.
  std::vector<std::uint64_t> cursor(out.offsets_.begin(),
                                    out.offsets_.end() - 1);
  for (VertexId i = 0; i < out.n_; ++i) {
    const VertexId original = old_of_new_[i];
    if (original >= n) continue;  // grown past g: an isolated vertex
    for (std::uint64_t e = g.offsets_[original]; e < g.offsets_[original + 1];
         ++e) {
      out.adjacency_[cursor[internal[g.adjacency_[e]]]++] = i;
    }
  }
  return out;
}

Graph RelabelByDegree(const Graph& g, VertexRelabeling* map) {
  VertexRelabeling local = VertexRelabeling::DegreeAscending(g);
  Graph relabeled = local.Apply(g);
  if (map != nullptr) *map = std::move(local);
  return relabeled;
}

std::string_view ToString(RelabelMode m) noexcept {
  switch (m) {
    case RelabelMode::kNone:
      return "none";
    case RelabelMode::kDegree:
      return "degree";
    case RelabelMode::kBfs:
      return "bfs";
    case RelabelMode::kAuto:
      return "auto";
  }
  return "?";
}

std::optional<RelabelMode> ParseRelabelMode(std::string_view s) noexcept {
  if (s == "none") return RelabelMode::kNone;
  if (s == "degree") return RelabelMode::kDegree;
  if (s == "bfs") return RelabelMode::kBfs;
  if (s == "auto") return RelabelMode::kAuto;
  return std::nullopt;
}

std::uint64_t CountValidSlices(const Graph& g, const VertexRelabeling& map,
                               std::uint32_t slice_bits) {
  if (slice_bits == 0) {
    throw std::invalid_argument("CountValidSlices: slice_bits must be > 0");
  }
  const std::span<const VertexId> internal =
      map.InternalIdsOf(g, "CountValidSlices: unmapped vertex");
  const std::span<const std::uint64_t> offsets = g.offsets();
  const std::span<const VertexId> adjacency = g.adjacency();
  // Under kUpper in internal ids, edge {i < j} sets row i bit j and
  // column j bit i: vertex i owns one row slice per distinct block of
  // its higher neighbours and one column slice per distinct block of
  // its lower ones. Each vertex is visited once, so a block stamped
  // with i has already been counted for i.
  const std::size_t blocks = map.size() / slice_bits + 1;
  std::vector<VertexId> row_stamp(blocks, VertexRelabeling::kUnassigned);
  std::vector<VertexId> col_stamp(blocks, VertexRelabeling::kUnassigned);
  std::uint64_t valid = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const VertexId i = internal[u];
    for (std::uint64_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      const VertexId j = internal[adjacency[e]];
      VertexId& stamp = (j > i ? row_stamp : col_stamp)[j / slice_bits];
      if (stamp != i) {
        stamp = i;
        ++valid;
      }
    }
  }
  return valid;
}

RelabelChoice ChooseRelabeling(const Graph& g, RelabelMode requested,
                               std::uint32_t slice_bits) {
  RelabelChoice choice;
  choice.map = VertexRelabeling::Identity(g.num_vertices());
  if (requested == RelabelMode::kNone) return choice;  // nothing to score
  choice.identity_valid_slices = CountValidSlices(g, choice.map, slice_bits);
  choice.chosen_valid_slices = choice.identity_valid_slices;
  const auto consider = [&](RelabelMode mode, VertexRelabeling candidate,
                            bool unconditional) {
    const std::uint64_t nvs = CountValidSlices(g, candidate, slice_bits);
    if (unconditional || nvs < choice.chosen_valid_slices) {
      choice.applied = mode;
      choice.map = std::move(candidate);
      choice.chosen_valid_slices = nvs;
    }
  };
  switch (requested) {
    case RelabelMode::kNone:  // returned above
      break;
    case RelabelMode::kDegree:
      consider(RelabelMode::kDegree, VertexRelabeling::DegreeAscending(g),
               true);
      break;
    case RelabelMode::kBfs:
      consider(RelabelMode::kBfs, VertexRelabeling::BfsFromHubs(g), true);
      break;
    case RelabelMode::kAuto:
      consider(RelabelMode::kDegree, VertexRelabeling::DegreeAscending(g),
               false);
      consider(RelabelMode::kBfs, VertexRelabeling::BfsFromHubs(g), false);
      break;
  }
  return choice;
}

}  // namespace tcim::graph
