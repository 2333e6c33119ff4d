// Quickstart: count triangles on a small graph three ways —
// CPU baseline, the paper's bitwise method in software, and the full
// TCIM processing-in-MRAM simulation — and inspect what the
// accelerator did.
//
//   ./examples/quickstart [edge_list.txt]
//
// Without an argument it builds the paper's Fig. 2 example graph
// (4 vertices, 5 edges, 2 triangles).
#include <iostream>

#include "core/pipeline.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "util/table.h"
#include "util/timer.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace tcim;

  // 1. Get a graph: from a SNAP-style edge list, or the Fig. 2 example.
  graph::Graph g;
  if (argc > 1) {
    g = graph::ReadSnapEdgeListFile(argv[1]);
    std::cout << "Loaded " << argv[1] << ": " << g.num_vertices()
              << " vertices, " << g.num_edges() << " edges\n";
  } else {
    graph::GraphBuilder builder(4);
    builder.AddEdge(0, 1);
    builder.AddEdge(0, 2);
    builder.AddEdge(1, 2);
    builder.AddEdge(1, 3);
    builder.AddEdge(2, 3);
    g = std::move(builder).Build();
    std::cout << "Using the paper's Fig. 2 graph: 4 vertices, 5 edges\n";
  }

  // 2. One pipeline call counts it three ways over one sliced matrix:
  //    the paper's bitwise method (Eq. 5) in software — slice the
  //    oriented adjacency matrix, AND valid slice pairs, count bits —
  //    the full TCIM simulation (device -> array -> architecture), and
  //    the CPU baseline (set-intersection class, paper §II-A) as the
  //    verify stage.
  core::CountRequest request;  // paper defaults: |S|=64, 16 MB array, LRU
  // Fig. 2 walkthrough mapping: one set per slice index, rows staged
  // once per processed row (auto-spread would replicate staging to
  // fill the big array — unnecessary for a 4-vertex graph).
  request.config.controller.spread_override = 1;
  request.passes = core::Passes::kBoth;
  request.verify = true;
  const core::CountOutcome out = core::CountGraph(g, request);
  const core::TcimResult& result = *out.sim;
  std::cout << "CPU edge-iterator baseline:   " << *out.reference_triangles
            << " triangles\n"
            << "Bitwise AND+BitCount (sw):    " << out.triangles
            << " triangles\n"
            << "TCIM in-MRAM simulation:      " << result.triangles
            << " triangles\n\n";

  // 3. What the accelerator actually did.
  std::cout << "TCIM execution profile:\n"
            << "  AND operations (valid slice pairs): "
            << result.exec.valid_pairs << "\n"
            << "  row slice writes (staging):         "
            << result.exec.row_slice_writes << "\n"
            << "  column slice writes (cache fills):  "
            << result.exec.col_slice_writes << "\n"
            << "  column cache hit rate:              "
            << util::TablePrinter::Percent(result.exec.cache.HitRate(), 1)
            << "  (writes saved by data reuse)\n"
            << "  modeled latency (serial issue):     "
            << util::FormatSeconds(result.perf.serial_seconds) << "\n"
            << "  modeled chip energy:                "
            << util::FormatJoules(result.perf.energy_joules) << "\n";
  return *out.reference_triangles == out.triangles ? 0 : 1;
}
