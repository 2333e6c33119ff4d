// Shared plumbing for the table/figure bench binaries.
//
// Every bench prints: the experiment banner, the workload provenance
// (synthetic generator or real SNAP file, scale, seed), then the table
// itself with clearly-marked [paper] reference columns next to our
// measured columns.
//
// Knobs: TCIM_SCALE (default 0.25, applied to the seven large
// datasets; =1 reproduces full Table II sizes), TCIM_SEED,
// TCIM_DATA_DIR (drop real SNAP edge lists to replace the stand-ins).
#pragma once

#include <iostream>
#include <string>

#include "graph/datasets.h"
#include "util/env.h"
#include "util/table.h"

namespace tcim::bench {

inline double DatasetScale(graph::PaperDataset id) {
  const auto& ref = graph::GetPaperRef(id);
  // The two small graphs always run full-size; scale shapes the rest.
  if (ref.vertices < 100000) return 1.0;
  return util::WorkloadScale(0.25);
}

/// Loads one paper dataset: the real SNAP file when TCIM_DATA_DIR
/// provides it, otherwise the seeded synthetic stand-in.
inline graph::DatasetInstance LoadDataset(graph::PaperDataset id) {
  return graph::LoadOrSynthesize(id, DatasetScale(id), util::BaseSeed());
}

inline void PrintProvenance(std::ostream& os,
                            const graph::DatasetInstance& inst) {
  const auto& ref = graph::GetPaperRef(inst.id);
  os << "  " << ref.name << ": " << inst.graph.num_vertices() << " V, "
     << inst.graph.num_edges() << " E"
     << (inst.is_real ? " [real SNAP file: " : " [synthetic: ")
     << inst.source << ", scale " << inst.scale << "]\n";
}

inline void PrintHeader(const std::string& experiment,
                        const std::string& what) {
  util::PrintBanner(std::cout, experiment);
  std::cout << what << "\n"
            << "  seed " << util::BaseSeed() << ", TCIM_SCALE "
            << util::WorkloadScale(0.25)
            << " (large datasets; =1 reproduces full Table II sizes)\n"
            << "  columns marked [paper] reproduce the paper's reported "
               "numbers for reference\n\n";
}

/// "N/A" for the paper's missing cells.
inline std::string PaperCell(double v, int precision = 3) {
  return v < 0 ? "N/A" : util::TablePrinter::Fixed(v, precision);
}

}  // namespace tcim::bench
