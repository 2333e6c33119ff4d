#include "core/bitwise_tc.h"

#include <stdexcept>
#include <vector>

#include "bitmatrix/bitvector.h"

namespace tcim::core {

bit::SlicedMatrix BuildSlicedMatrix(const graph::Graph& g,
                                    graph::Orientation orientation,
                                    std::uint32_t slice_bits) {
  const graph::OrientedCsr oriented = Orient(g, orientation);
  return bit::SlicedMatrix::FromCsr(oriented.num_vertices, oriented.offsets,
                                    oriented.neighbors, slice_bits);
}

std::uint64_t CountTrianglesDense(const graph::Graph& g,
                                  graph::Orientation orientation) {
  constexpr std::uint32_t kMaxDense = 1 << 14;
  if (g.num_vertices() > kMaxDense) {
    throw std::invalid_argument(
        "CountTrianglesDense: graph too large for dense bitmaps");
  }
  const graph::OrientedCsr oriented = Orient(g, orientation);
  const std::uint32_t n = oriented.num_vertices;

  // Materialize rows (out-neighbours) and columns (in-neighbours).
  std::vector<bit::BitVector> rows(n, bit::BitVector(n));
  std::vector<bit::BitVector> cols(n, bit::BitVector(n));
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint64_t e = oriented.offsets[i]; e < oriented.offsets[i + 1];
         ++e) {
      const std::uint32_t j = oriented.neighbors[e];
      rows[i].Set(j);
      cols[j].Set(i);
    }
  }

  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    rows[i].ForEachSetBit([&](std::uint64_t j) {
      total += rows[i].AndCount(cols[static_cast<std::uint32_t>(j)]);
    });
  }
  return total / graph::CountMultiplier(orientation);
}

}  // namespace tcim::core
