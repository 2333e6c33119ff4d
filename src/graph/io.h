// Graph serialization: SNAP-style text edge lists.
//
// The paper evaluates on graphs from the SNAP collection [17]
// distributed as '#'-commented whitespace-separated edge lists; this
// loader accepts exactly that shape, so real SNAP downloads can be
// dropped into TCIM_DATA_DIR to replace the synthetic stand-ins (see
// datasets.h).
//
// Layer: §2 graph — see docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "graph/graph.h"

namespace tcim::graph {

/// Parses a SNAP-style edge list:
///  * lines starting with '#' or '%' are comments;
///  * other lines contain two (or more; extras ignored) integer ids;
///  * ids may be arbitrary (non-dense) and are remapped to [0, n) in
///    first-appearance order;
///  * duplicate edges / self-loops are dropped by GraphBuilder.
/// Throws std::runtime_error on unparsable lines.
[[nodiscard]] Graph ReadSnapEdgeList(std::istream& in);
[[nodiscard]] Graph ReadSnapEdgeListFile(const std::string& path);

/// Writes g as a SNAP-style edge list with one "u v" line per edge.
void WriteSnapEdgeList(const Graph& g, std::ostream& out);

}  // namespace tcim::graph
