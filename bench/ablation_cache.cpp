// Ablation B — data reuse & exchange policy sweep. The paper uses LRU
// and notes "more optimized replacement strategy could be possible";
// this quantifies LRU vs FIFO vs random across array capacities, plus
// the kDataOnly vs paper-style index-overhead capacity accounting.
#include <iostream>
#include <string>

#include "arch/controller.h"
#include "bench_common.h"
#include "core/accelerator.h"
#include "util/table.h"
#include "util/units.h"

int main() {
  using namespace tcim;
  using util::TablePrinter;

  bench::PrintHeader(
      "Ablation B: replacement policy x array capacity",
      "Column-slice cache behaviour; write energy tracks misses "
      "directly.");

  const graph::DatasetInstance inst =
      bench::LoadDataset(graph::PaperDataset::kComYoutube);
  bench::PrintProvenance(std::cout, inst);

  TablePrinter t({"Capacity", "Policy", "Hit %", "Exchange %", "Col writes",
                  "TCIM serial s", "Energy"});
  for (const std::uint64_t mib : {1ULL, 4ULL, 16ULL, 64ULL}) {
    for (const auto policy :
         {arch::ReplacementPolicy::kLru, arch::ReplacementPolicy::kFifo,
          arch::ReplacementPolicy::kRandom}) {
      core::TcimConfig config;
      config.array.capacity_bytes = mib << 20;
      config.controller.policy = policy;
      const core::TcimAccelerator accel{config};
      const core::TcimResult r = accel.Run(inst.graph);
      t.AddRow({std::to_string(mib) + " MiB", arch::ToString(policy),
                TablePrinter::Percent(r.exec.cache.HitRate(), 1),
                TablePrinter::Percent(r.exec.cache.ExchangeRate(), 2),
                TablePrinter::WithThousands(r.exec.col_slice_writes),
                TablePrinter::Fixed(r.perf.serial_seconds, 4),
                util::FormatJoules(r.perf.energy_joules)});
    }
    t.AddSeparator();
  }
  t.Print(std::cout);

  std::cout << "\nCapacity accounting model (16 MiB, LRU):\n\n";
  TablePrinter t2({"Model", "Ways/set", "Hit %", "Exchange %"});
  for (const auto model : {arch::CapacityModel::kWithIndexOverhead,
                           arch::CapacityModel::kDataOnly}) {
    core::TcimConfig config;
    config.controller.capacity_model = model;
    const core::TcimAccelerator accel{config};
    const core::TcimResult r = accel.Run(inst.graph);
    t2.AddRow({model == arch::CapacityModel::kWithIndexOverhead
                   ? "with 4B index (paper formula)"
                   : "data only",
               std::to_string(arch::Controller::EffectiveWays(
                   accel.config().array, accel.config().controller)),
               TablePrinter::Percent(r.exec.cache.HitRate(), 1),
               TablePrinter::Percent(r.exec.cache.ExchangeRate(), 2)});
  }
  t2.Print(std::cout);
  return 0;
}
