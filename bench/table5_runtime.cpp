// Table V — runtime comparison: measured CPU baseline, measured
// "This Work w/o PIM" (sliced software), simulated TCIM, and the
// paper's reported CPU/GPU/FPGA/TCIM columns.
//
// Every row is one core::CountGraph call (no relabeling, host and
// simulated passes over one matrix, CPU verification), read off its
// stage record:
//  * CPU = the verify stage, a native single-thread edge-iterator —
//    far faster than the paper's Spark GraphX baseline on the same
//    silicon, so the absolute CPU gap compresses;
//  * w/o PIM = orient + slice + host Eq. (5) pass, measured;
//  * TCIM(serial) = modeled latency of the simulated pass on the same
//    matrix, every array command issued back-to-back — the view
//    closest to the paper's simulator; TCIM(parallel) is the subarray
//    critical path;
//  * GPU [3] / FPGA [3] are published numbers, full-size graphs.
// The closing TCIM-vs-w/o-PIM ratio divides host-measured seconds by
// modeled seconds, so it depends on the machine (paper: ~25.6x).
#include <iostream>

#include "bench_common.h"
#include "core/pipeline.h"
#include "util/table.h"

int main() {
  using namespace tcim;
  using util::TablePrinter;

  bench::PrintHeader(
      "Table V: Runtime (seconds)",
      "Measured on this machine at the configured scale; [paper] columns "
      "are the\npublished full-size numbers (CPU there = Spark GraphX on "
      "an E5430).");

  core::CountRequest request;  // paper defaults: |S|=64, kUpper, no relabel
  request.passes = core::Passes::kBoth;
  request.verify = true;

  TablePrinter t({"Dataset", "CPU", "w/o PIM", "TCIM", "TCIM par",
                  "CPU [paper]", "GPU [paper]", "FPGA [paper]",
                  "w/o PIM [paper]", "TCIM [paper]"});
  double ratio_sum = 0.0;
  double paper_ratio_sum = 0.0;
  int rows = 0;
  for (const graph::PaperRef& ref : graph::AllPaperRefs()) {
    const graph::DatasetInstance inst = bench::LoadDataset(ref.id);
    const core::CountOutcome out = core::CountGraph(inst.graph, request);
    if (*out.reference_triangles != out.triangles) {
      std::cerr << "COUNT MISMATCH on " << ref.name
                << ": cpu=" << *out.reference_triangles
                << " tcim=" << out.triangles << "\n";
      return 1;
    }

    const core::StageSeconds& s = out.stages;
    const double wo_pim_s = s.orient + s.slice + s.host_pass;
    const core::PerfResult& perf = out.sim->perf;
    ratio_sum += wo_pim_s / perf.serial_seconds;
    paper_ratio_sum += ref.wo_pim_s / ref.tcim_s;
    ++rows;

    t.AddRow({ref.name, TablePrinter::Fixed(s.verify, 3),
              TablePrinter::Fixed(wo_pim_s, 3),
              TablePrinter::Fixed(perf.serial_seconds, 3),
              TablePrinter::Fixed(perf.parallel_seconds, 4),
              bench::PaperCell(ref.cpu_s), bench::PaperCell(ref.gpu_s),
              bench::PaperCell(ref.fpga_s), bench::PaperCell(ref.wo_pim_s),
              bench::PaperCell(ref.tcim_s)});
  }
  t.Print(std::cout);
  std::cout << "\nMachine-dependent ratio (host-measured w/o PIM seconds / "
               "modeled TCIM seconds):\n  ours:  "
            << TablePrinter::Ratio(ratio_sum / rows, 1)
            << " average (serial command issue)\n  paper: "
            << TablePrinter::Ratio(paper_ratio_sum / rows, 1)
            << " average\n";
  return 0;
}
