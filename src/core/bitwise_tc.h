// The paper's bitwise triangle-counting method (§III), in pure
// software.
//
//   TC(G) = BitCount(AND(A[i][*], A[*][j]^T))  summed over A[i][j]=1
//
// Two software paths:
//  * a dense path over BitVector rows/columns (the Fig. 2 walkthrough,
//    exact for any orientation) — reference for small graphs;
//  * the sliced path over the compressed valid-slice stores — this is
//    the paper's Table V "This Work w/o PIM" configuration (slicing +
//    reuse running on a plain CPU, no in-memory hardware).
//
// Layer: §8 core — see docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>

#include "bitmatrix/sliced_matrix.h"
#include "graph/graph.h"
#include "graph/orientation.h"

namespace tcim::core {

/// Builds the compressed slice stores for `g` under `orientation`.
/// This is the offline "Data Slicing" stage of Fig. 4.
[[nodiscard]] bit::SlicedMatrix BuildSlicedMatrix(
    const graph::Graph& g, graph::Orientation orientation,
    std::uint32_t slice_bits);

/// Dense-bitmap evaluation of Eq. (5). Memory O(n^2 / 8); intended for
/// graphs up to a few thousand vertices (tests, walkthroughs).
[[nodiscard]] std::uint64_t CountTrianglesDense(
    const graph::Graph& g,
    graph::Orientation orientation = graph::Orientation::kUpper);

/// Sliced evaluation of Eq. (5) — the "w/o PIM" software path.
/// Returns the triangle count (orientation multiplier applied). The
/// valid slice pairs are gathered per pivot row or column (whichever
/// side probes fewer slices) and evaluated in blocks by the zero-copy
/// pair kernel — one call per block, not per slice pair
/// (bit::AndPopcountPairsZeroCopy).
[[nodiscard]] std::uint64_t CountTrianglesSliced(
    const graph::Graph& g,
    graph::Orientation orientation = graph::Orientation::kUpper,
    std::uint32_t slice_bits = 64);

/// Same, over a pre-built matrix (lets benches time compute separately
/// from slicing).
[[nodiscard]] std::uint64_t CountTrianglesSliced(
    const bit::SlicedMatrix& matrix, graph::Orientation orientation);

}  // namespace tcim::core
