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
//    reuse running on a plain CPU, no in-memory hardware). It is
//    BuildSlicedMatrix followed by SlicedMatrix::AndPopcountAllEdges;
//    core::CountGraph (core/pipeline.h) runs it as its host pass.
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

}  // namespace tcim::core
