// Host-pass perf-regression harness.
//
// Measures (a) the end-to-end Eq. (5) host pass (AndPopcountAllEdges)
// on the Table II dataset stand-ins at |S| = 64 and 512, next to the
// per-slice-pair formulation it replaced, so the gathered zero-copy
// pass stays measured against a different path, not assumed; and (b) the
// load-time relabeling choice (graph::ChooseRelabeling): valid-slice
// counts under the chosen order vs the native ids, and vs an
// id-shuffled instance standing in for real SNAP labelings, plus the
// wall time of choosing and applying it. Every count is cross-checked
// against the CPU baseline and the results land in a machine-readable
// BENCH_kernels.json (schema_version 10; see docs/KERNELS.md for the
// schema and the regression workflow). Every dump is stamped with run
// metadata — UTC date, compiler, TCIM_SCALE — so archived JSONs stay
// attributable.
//
// Usage:
//   perf_harness [--out FILE] [--check]
//     --out FILE     JSON output path (default BENCH_kernels.json)
//     --check        exit non-zero when any floor fails:
//                    * a road-graph |S|=512 row where the host pass
//                      drops below 0.97x of the per-pair loop (the
//                      gather-bound regression class: a batched memcpy
//                      gather once showed 19% there);
//                    * relabeling: the auto choice increases the
//                      valid-slice count of any dataset, or fails to
//                      reduce it on >= 6 of 9 id-shuffled instances.
//
// Knobs: TCIM_SCALE / TCIM_SEED / TCIM_DATA_DIR as in every bench.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "baseline/cpu_tc.h"
#include "bench_common.h"
#include "bitmatrix/sliced_matrix.h"
#include "core/bitwise_tc.h"
#include "graph/orientation.h"
#include "graph/relabel.h"
#include "obs/metrics.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace tcim;

struct EndToEndResult {
  std::string dataset;
  std::uint32_t slice_bits = 64;
  std::uint64_t triangles = 0;
  bool verified = false;
  /// The host pass's pair count, pivot and hub-route share on this row
  /// (a function of the matrix alone).
  bit::PairPathCounters paths;
  /// The matrix's two probe totals, which pick the gathered pivot.
  std::uint64_t row_pivot_probes = 0;
  std::uint64_t column_pivot_probes = 0;
  double seconds = 0.0;           ///< the host pass (AndPopcountAllEdges)
  double per_edge_seconds = 0.0;  ///< legacy per-slice-pair loop
  double adaptive_speedup = 1.0;  ///< per_edge / host pass (paired)

  /// Pivot of the row's pairs: "column" when the gather pivoted on
  /// columns.
  [[nodiscard]] std::string Pivot() const {
    return paths.column_pivot_pairs > 0 ? "column" : "row";
  }
};

/// Load-time relabeling measurement of one dataset (|S| = 64 valid
/// slices, kUpper orientation): what ChooseRelabeling(kAuto) picked on
/// the native ids, and what it recovers from an id-shuffled instance
/// (the stand-in for real SNAP labelings, which arrive arbitrary).
struct RelabelRow {
  std::string dataset;
  graph::RelabelMode applied = graph::RelabelMode::kNone;
  std::uint64_t identity_nvs = 0;
  std::uint64_t chosen_nvs = 0;
  graph::RelabelMode shuffled_applied = graph::RelabelMode::kNone;
  std::uint64_t shuffled_nvs = 0;
  std::uint64_t shuffled_chosen_nvs = 0;
  /// Wall time of ChooseRelabeling(kAuto) and of applying its map, on
  /// the native ids.
  double choose_seconds = 0.0;
  double apply_seconds = 0.0;

  [[nodiscard]] double NativeRatio() const {
    return identity_nvs == 0 ? 1.0
                             : static_cast<double>(chosen_nvs) /
                                   static_cast<double>(identity_nvs);
  }
  [[nodiscard]] double ShuffledRatio() const {
    return shuffled_nvs == 0 ? 1.0
                             : static_cast<double>(shuffled_chosen_nvs) /
                                   static_cast<double>(shuffled_nvs);
  }
};

/// ChooseRelabeling on the native ids and on a deterministic
/// id-shuffle of the same graph.
RelabelRow MeasureRelabel(const graph::DatasetInstance& inst) {
  RelabelRow row;
  row.dataset = graph::GetPaperRef(inst.id).name;
  util::Timer timer;
  const graph::RelabelChoice native =
      graph::ChooseRelabeling(inst.graph, graph::RelabelMode::kAuto, 64);
  row.choose_seconds = timer.ElapsedSeconds();
  timer.Restart();
  (void)native.map.Apply(inst.graph);
  row.apply_seconds = timer.ElapsedSeconds();
  row.applied = native.applied;
  row.identity_nvs = native.identity_valid_slices;
  row.chosen_nvs = native.chosen_valid_slices;

  const graph::VertexId n = inst.graph.num_vertices();
  std::vector<graph::VertexId> order(n);
  for (graph::VertexId v = 0; v < n; ++v) order[v] = v;
  util::Xoshiro256 rng(util::BaseSeed() ^ 0x9e3779b97f4a7c15ULL);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformBelow(i)]);
  }
  graph::VertexRelabeling perm;
  for (const graph::VertexId v : order) (void)perm.ToInternal(v);
  const graph::Graph shuffled = perm.Apply(inst.graph);
  const graph::RelabelChoice recovered =
      graph::ChooseRelabeling(shuffled, graph::RelabelMode::kAuto, 64);
  row.shuffled_applied = recovered.applied;
  row.shuffled_nvs = recovered.identity_valid_slices;
  row.shuffled_chosen_nvs = recovered.chosen_valid_slices;
  return row;
}

/// The per-slice-pair formulation the gathered kernel replaced (one
/// AndPopcount call per valid pair): kept here as the measured
/// counterfactual behind the JSON's adaptive_speedup column.
std::uint64_t PerEdgeAndPopcountAllEdges(const bit::SlicedMatrix& matrix) {
  std::uint64_t total = 0;
  const std::uint32_t n = matrix.num_vertices();
  const bit::SlicedStore& rows = matrix.rows();
  const bit::SlicedStore& cols = matrix.cols();
  for (std::uint32_t i = 0; i < n; ++i) {
    rows.ForEachSetBit(i, [&](std::uint64_t j64) {
      const auto j = static_cast<std::uint32_t>(j64);
      matrix.ForEachValidPair(
          i, j, [&](std::uint32_t /*slice*/, std::size_t ra, std::size_t cb) {
            total += bit::AndPopcount(rows.SliceWords(i, ra),
                                      cols.SliceWords(j, cb));
          });
    });
  }
  return total;
}

/// One measurement cell (see MeasureEndToEnd). Both cells of a dataset
/// row are measured once per ROUND, back to back, so each round's
/// samples share the same frequency/cache/ambient-load conditions:
/// the ratio column is then computed as the median of *per-round
/// paired ratios*, which cancels round-common drift — the |S|=512 road
/// rows are decided by a few percent, where independently-sampled
/// minima lie.
struct CellSamples {
  std::vector<double> rounds;
  double accumulated = 0.0;

  template <typename Fn>
  void Measure(Fn&& fn) {
    util::Timer timer;
    fn();
    const double s = timer.ElapsedSeconds();
    accumulated += s;
    rounds.push_back(s);
  }
  [[nodiscard]] double Best() const {
    double best = 0.0;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      if (i == 0 || rounds[i] < best) best = rounds[i];
    }
    return best;
  }
  /// Enough data: >= 15 rounds and >= min_total seconds accumulated
  /// (small datasets finish in ~1 ms, where a fixed best-of-N is pure
  /// scheduler noise), capped at 200 rounds.
  [[nodiscard]] bool Done(double min_total = 0.12) const {
    return rounds.size() >= 200 ||
           (rounds.size() >= 15 && accumulated >= min_total);
  }
};

double Median(std::vector<double> values) {
  if (values.empty()) return 1.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 != 0 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Median over rounds of numerator[r] / denominator[r] — the paired
/// drift-immune ratio estimator behind the speedup column.
double PairedRatio(const std::vector<double>& num,
                   const std::vector<double>& den) {
  std::vector<double> ratios;
  const std::size_t n = std::min(num.size(), den.size());
  for (std::size_t r = 0; r < n; ++r) {
    if (den[r] > 0) ratios.push_back(num[r] / den[r]);
  }
  return Median(std::move(ratios));
}

/// End-to-end Eq. (5) pass on one dataset at one slice width, next to
/// the per-pair loop; the count is cross-checked against the CPU
/// baseline.
EndToEndResult MeasureEndToEnd(const graph::DatasetInstance& inst,
                               std::uint32_t slice_bits,
                               std::uint64_t cpu_triangles) {
  EndToEndResult result;
  result.dataset = graph::GetPaperRef(inst.id).name;
  result.slice_bits = slice_bits;

  const bit::SlicedMatrix matrix = core::BuildSlicedMatrix(
      inst.graph, graph::Orientation::kUpper, slice_bits);

  // One instrumented pass records this row's pair count and pivot.
  const std::uint64_t raw = matrix.AndPopcountAllEdges(&result.paths);
  result.row_pivot_probes = matrix.row_pivot_probes();
  result.column_pivot_probes = matrix.column_pivot_probes();

  // Both cells are measured once per round until both have enough
  // data — keeping the rounds aligned is what makes the paired ratio
  // below meaningful.
  CellSamples adaptive;
  CellSamples per_edge;
  while (!adaptive.Done() || !per_edge.Done()) {
    std::uint64_t count = 0;
    std::uint64_t count_per_edge = 0;
    adaptive.Measure([&] { count = matrix.AndPopcountAllEdges(); });
    per_edge.Measure(
        [&] { count_per_edge = PerEdgeAndPopcountAllEdges(matrix); });
    if (count != raw || count_per_edge != raw) {
      std::cerr << "FATAL: host pass or per-pair count diverges on "
                << result.dataset << "\n";
      std::exit(1);
    }
  }

  result.triangles = raw / graph::CountMultiplier(graph::Orientation::kUpper);
  result.verified = result.triangles == cpu_triangles;
  result.seconds = adaptive.Best();
  result.per_edge_seconds = per_edge.Best();
  // A median of paired comparisons, not a ratio of independently-
  // sampled minima: both samples of a pair ran back-to-back, so common
  // drift cancels.
  result.adaptive_speedup = PairedRatio(per_edge.rounds, adaptive.rounds);
  return result;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void WriteJson(const std::string& path,
               const std::vector<EndToEndResult>& end_to_end,
               const std::vector<RelabelRow>& relabel) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "FATAL: cannot write " << path << "\n";
    std::exit(1);
  }
  os << "{\n";
  os << "  \"bench\": \"kernels\",\n";
  os << "  \"schema_version\": 10,\n";
  os << "  \"scale\": " << util::WorkloadScale(0.25) << ",\n";
  os << "  \"seed\": " << util::BaseSeed() << ",\n";
  // v3: run-attribution stamp (obs::CollectRunMetadata).
  os << "  \"run\": {" << obs::RunMetadataJsonFields() << "},\n";

  // v7: one host-pass time per row (the kernel has one implementation);
  // v8: + the gathered pivot and the two probe totals behind it;
  // v9: - the route and per-pair pair count (the pass has one route);
  // v10: + the pairs summed on the hub-pivot route.
  os << "  \"end_to_end\": [\n";
  for (std::size_t i = 0; i < end_to_end.size(); ++i) {
    const auto& e = end_to_end[i];
    os << "    {\"dataset\": \"" << JsonEscape(e.dataset)
       << "\", \"slice_bits\": " << e.slice_bits
       << ", \"triangles\": " << e.triangles
       << ", \"verified\": " << (e.verified ? "true" : "false")
       << ", \"pairs\": {\"zerocopy\": " << e.paths.zero_copy_pairs
       << ", \"hub_route\": " << e.paths.hub_route_pairs << "}"
       << ", \"pivot\": \"" << e.Pivot() << "\""
       << ", \"probes\": {\"row_pivot\": " << e.row_pivot_probes
       << ", \"column_pivot\": " << e.column_pivot_probes << "}"
       << ", \"seconds\": " << e.seconds
       << ", \"per_edge_seconds\": " << e.per_edge_seconds
       << ", \"adaptive_speedup\": " << e.adaptive_speedup << "}"
       << (i + 1 < end_to_end.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  // v4: load-time relabeling audit (NVS = valid slices at |S|=64);
  // v6: + choose/apply wall time on the native ids.
  os << "  \"relabel\": [\n";
  for (std::size_t i = 0; i < relabel.size(); ++i) {
    const auto& r = relabel[i];
    os << "    {\"dataset\": \"" << JsonEscape(r.dataset)
       << "\", \"applied\": \"" << graph::ToString(r.applied)
       << "\", \"identity_valid_slices\": " << r.identity_nvs
       << ", \"chosen_valid_slices\": " << r.chosen_nvs
       << ", \"nvs_ratio\": " << r.NativeRatio()
       << ", \"shuffled_applied\": \""
       << graph::ToString(r.shuffled_applied)
       << "\", \"shuffled_valid_slices\": " << r.shuffled_nvs
       << ", \"shuffled_chosen_valid_slices\": " << r.shuffled_chosen_nvs
       << ", \"shuffled_nvs_ratio\": " << r.ShuffledRatio()
       << ", \"choose_seconds\": " << r.choose_seconds
       << ", \"apply_seconds\": " << r.apply_seconds << "}"
       << (i + 1 < relabel.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernels.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: perf_harness [--out FILE] [--check]\n";
      return 2;
    }
  }

  bench::PrintHeader("Host Eq. (5) pass: end-to-end sweep",
                     "AndPopcountAllEdges latency (zero-copy host pass vs "
                     "the legacy per-slice-pair loop) and the load-time\n"
                     "relabeling choice, every count cross-checked against "
                     "the CPU baseline.");

  // --- Part A: end-to-end Eq. (5) pass ------------------------------------
  std::vector<EndToEndResult> end_to_end;
  std::vector<RelabelRow> relabel;
  for (const graph::PaperRef& ref : graph::AllPaperRefs()) {
    const graph::DatasetInstance inst = bench::LoadDataset(ref.id);
    bench::PrintProvenance(std::cout, inst);
    const std::uint64_t cpu_triangles =
        baseline::CountTrianglesReference(inst.graph);
    // |S|=64 is the paper's default (1 word per slice AND); |S|=512
    // gives 8-word slices.
    for (const std::uint32_t slice_bits : {64u, 512u}) {
      end_to_end.push_back(MeasureEndToEnd(inst, slice_bits, cpu_triangles));
      if (!end_to_end.back().verified) {
        std::cerr << "FATAL: " << ref.name << " |S|=" << slice_bits
                  << " count does not match the CPU baseline\n";
        return 1;
      }
    }
    relabel.push_back(MeasureRelabel(inst));
  }
  {
    util::TablePrinter table(
        {"Dataset", "|S|", "Triangles", "Verified", "pass [ms]",
         "per-pair [ms]", "pivot", "vs per-edge"},
        {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
         util::Align::kLeft, util::Align::kRight, util::Align::kRight,
         util::Align::kLeft, util::Align::kRight});
    for (const auto& e : end_to_end) {
      table.AddRow({e.dataset, std::to_string(e.slice_bits),
                    util::TablePrinter::WithThousands(e.triangles),
                    e.verified ? "yes" : "NO",
                    util::TablePrinter::Fixed(e.seconds * 1e3, 2),
                    util::TablePrinter::Fixed(e.per_edge_seconds * 1e3, 2),
                    e.Pivot(),
                    util::TablePrinter::Ratio(e.adaptive_speedup, 2)});
    }
    std::cout << "\nEnd-to-end AndPopcountAllEdges (fastest of a timed "
                 "window, upper orientation; last columns: the row's "
                 "pivot and the host pass vs the per-pair loop):\n";
    table.Print(std::cout);
  }

  // --- Part B: load-time relabeling ---------------------------------------
  {
    util::TablePrinter table(
        {"Dataset", "Auto picks", "NVS ratio", "choose [ms]", "apply [ms]",
         "Shuffled picks", "NVS ratio (shuffled)"},
        {util::Align::kLeft, util::Align::kLeft, util::Align::kRight,
         util::Align::kRight, util::Align::kRight, util::Align::kLeft,
         util::Align::kRight});
    for (const auto& r : relabel) {
      table.AddRow({r.dataset, std::string(graph::ToString(r.applied)),
                    util::TablePrinter::Ratio(r.NativeRatio(), 3),
                    util::TablePrinter::Fixed(r.choose_seconds * 1e3, 1),
                    util::TablePrinter::Fixed(r.apply_seconds * 1e3, 1),
                    std::string(graph::ToString(r.shuffled_applied)),
                    util::TablePrinter::Ratio(r.ShuffledRatio(), 3)});
    }
    std::cout << "\nLoad-time relabeling (ChooseRelabeling auto, NVS = "
                 "valid slices at |S|=64; the shuffled columns measure the "
                 "recovery from arbitrary input ids, the regime real SNAP "
                 "files arrive in):\n";
    table.Print(std::cout);
  }

  WriteJson(out_path, end_to_end, relabel);
  std::cout << "\nWrote " << out_path << "\n";

  if (check) {
    int failures = 0;
    std::cout << "\n--check: road |S|=512 host pass >= 0.97x per-pair, "
                 "relabeling\n";
    for (const auto& e : end_to_end) {
      // Floor 2, the gather-bound regression class: sparse road rows
      // at |S|=512 — cold 8-word slices with next to no reuse — must
      // not lose to the per-pair loop, a different path (one
      // AndPopcount call per pair). The floor sits 3% under parity,
      // far above the 19% loss a batched memcpy gather once showed
      // here.
      constexpr double kRoadFloor = 0.97;
      if (e.dataset.rfind("roadNet", 0) == 0 && e.slice_bits == 512 &&
          e.adaptive_speedup < kRoadFloor) {
        ++failures;
        std::cout << "  FAIL " << e.dataset << " |S|=512: host pass at "
                  << util::TablePrinter::Ratio(e.adaptive_speedup, 3)
                  << " vs the per-pair loop (gather-bound regression)\n";
      }
    }
    // Floor 3: relabeling. Auto must never pick a worse-than-identity
    // order (it scores identity too, so chosen <= identity by
    // construction — a violation means the NVS estimator broke), and
    // from arbitrary (shuffled) input ids it must recover a reduction
    // on at least 6 of the 9 datasets.
    int shuffled_reduced = 0;
    for (const auto& r : relabel) {
      if (r.chosen_nvs > r.identity_nvs) {
        ++failures;
        std::cout << "  FAIL " << r.dataset
                  << ": auto relabel increased valid slices ("
                  << r.identity_nvs << " -> " << r.chosen_nvs << ")\n";
      }
      if (r.ShuffledRatio() < 1.0) ++shuffled_reduced;
    }
    if (shuffled_reduced < 6 && relabel.size() >= 6) {
      ++failures;
      std::cout << "  FAIL relabeling: shuffled-id valid-slice reduction on "
                << shuffled_reduced << "/" << relabel.size()
                << " datasets (need >= 6)\n";
    }
    if (failures != 0) {
      std::cout << "perf_smoke: FAIL — " << failures << " floor "
                << "violation(s); see rows above\n";
      return 1;
    }
    std::cout << "perf_smoke: OK — roads >= per-pair at |S|=512 on all "
              << end_to_end.size() << " rows, relabeling sound on "
              << relabel.size() << " datasets\n";
  }
  return 0;
}
