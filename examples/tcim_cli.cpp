// tcim_cli — run the full TCIM pipeline on any graph from the command
// line, with the paper's knobs exposed.
//
//   tcim_cli --input graph.txt
//   tcim_cli --dataset roadNet-PA --scale 0.1
//   tcim_cli --dataset com-dblp --slice-bits 128 --policy fifo
//            --capacity-mb 4 --orientation degree --json
//   tcim_cli --dataset com-dblp --banks 4 --partition degree
//   tcim_cli --dataset ego-facebook --stream updates.delta
//
// With --banks > 1 the run goes through the multi-bank runtime
// (runtime::BankPool): the graph is sharded across N parallel
// accelerators and the report gains the partition table plus the
// cluster-level latency views (critical path vs serial sum).
//
// With --stream FILE the loaded graph becomes the initial state of a
// runtime::StreamSession and FILE is replayed as edge-update batches
// ("+ u v" / "- u v" lines, "=" commits a batch — see
// src/stream/edge_delta.h); each batch is counted incrementally and
// the report shows the per-batch deltas and the stream aggregate.
//
// Without --banks or --stream the count is one core::CountGraph call
// (relabel, orient, slice, simulate, verify); the report gains its
// per-stage host seconds, and host_seconds is their sum.
//
// Every option is checked before the graph is loaded: a bad value
// exits with status 2 before any stage has run.
//
// Prints a human-readable report by default, or a single JSON object
// with --json (for scripting sweeps).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "baseline/cpu_tc.h"
#include "core/pipeline.h"
#include "graph/datasets.h"
#include "graph/io.h"
#include "graph/relabel.h"
#include "obs/metrics.h"
#include "runtime/bank_pool.h"
#include "runtime/metrics.h"
#include "runtime/partitioner.h"
#include "runtime/stream_session.h"
#include "stream/edge_delta.h"
#include "util/table.h"
#include "util/timer.h"
#include "util/units.h"

namespace {

using namespace tcim;

struct Options {
  std::string input;
  std::string dataset;
  double scale = 0.25;
  std::uint32_t slice_bits = 64;
  std::string policy = "lru";
  double capacity_mb = 16.0;
  std::string orientation = "upper";
  std::uint64_t seed = 42;
  std::uint32_t banks = 1;
  std::uint32_t threads = 0;
  std::string partition = "degree";
  std::string stream;
  double recount_fraction = 0.01;
  std::string relabel = "auto";
  std::uint32_t top = 0;
  bool json = false;
  bool metrics_json = false;
  bool verify = true;
};

void Usage() {
  std::cout <<
      "usage: tcim_cli [--input FILE | --dataset NAME] [options]\n"
      "  --input FILE        SNAP-style edge list\n"
      "  --dataset NAME      paper dataset stand-in (ego-facebook, "
      "email-enron,\n"
      "                      com-amazon, com-dblp, com-youtube, "
      "roadNet-PA/TX/CA, com-lj)\n"
      "  --scale X           synthesis scale in (0,1] (default 0.25)\n"
      "  --slice-bits N      |S| in [8,512], divides 512 (default 64)\n"
      "  --policy P          lru | fifo | random (default lru)\n"
      "  --capacity-mb X     computational array size, at most 1024 "
      "(default 16)\n"
      "  --orientation O     upper | degree | full (default upper)\n"
      "  --seed N            synthesis seed (default 42)\n"
      "  --banks N           parallel TCIM banks; >1 uses the multi-bank "
      "runtime (default 1)\n"
      "  --threads N         worker threads driving the banks (default: one "
      "per bank,\n"
      "                      capped at the hardware concurrency)\n"
      "  --partition P       contiguous | degree (degree-balanced ranges, "
      "default) |\n"
      "                      2d (row x column tiles + replicated hub "
      "columns)\n"
      "  --stream FILE       replay FILE as edge-update batches against the\n"
      "                      loaded graph (incremental counting; '+ u v', "
      "'- u v',\n"
      "                      '=' commits a batch)\n"
      "  --recount-frac X    fall back to a full recount when a batch exceeds\n"
      "                      X * edges normalized ops (default 0.01)\n"
      "  --relabel R         auto (default) | degree | bfs | none — rename "
      "vertices\n"
      "                      before slicing (auto keeps whichever of "
      "identity/degree/\n"
      "                      bfs yields the fewest valid slices); all output "
      "stays in\n"
      "                      the original ids\n"
      "  --top N             report the N highest-degree vertices (original "
      "ids)\n"
      "  --json              machine-readable output\n"
      "  --metrics-json      append the obs registry scrape (scheduler/epoch/\n"
      "                      store/stream metrics) as one JSON object on its\n"
      "                      own line after the report\n"
      "  --no-verify         skip the CPU cross-check\n";
}

bool ParseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--input") {
      const char* v = next();
      if (!v) return false;
      opt.input = v;
    } else if (arg == "--dataset") {
      const char* v = next();
      if (!v) return false;
      opt.dataset = v;
    } else if (arg == "--scale") {
      const char* v = next();
      if (!v) return false;
      opt.scale = std::stod(v);
    } else if (arg == "--slice-bits") {
      const char* v = next();
      if (!v) return false;
      opt.slice_bits = static_cast<std::uint32_t>(std::stoul(v));
    } else if (arg == "--policy") {
      const char* v = next();
      if (!v) return false;
      opt.policy = v;
    } else if (arg == "--capacity-mb") {
      const char* v = next();
      if (!v) return false;
      opt.capacity_mb = std::stod(v);
    } else if (arg == "--orientation") {
      const char* v = next();
      if (!v) return false;
      opt.orientation = v;
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      opt.seed = std::stoull(v);
    } else if (arg == "--banks") {
      const char* v = next();
      if (!v) return false;
      opt.banks = static_cast<std::uint32_t>(std::stoul(v));
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return false;
      opt.threads = static_cast<std::uint32_t>(std::stoul(v));
    } else if (arg == "--partition") {
      const char* v = next();
      if (!v) return false;
      opt.partition = v;
    } else if (arg == "--stream") {
      const char* v = next();
      if (!v) return false;
      opt.stream = v;
    } else if (arg == "--recount-frac") {
      const char* v = next();
      if (!v) return false;
      opt.recount_fraction = std::stod(v);
    } else if (arg == "--relabel") {
      const char* v = next();
      if (!v) return false;
      opt.relabel = v;
    } else if (arg == "--top") {
      const char* v = next();
      if (!v) return false;
      opt.top = static_cast<std::uint32_t>(std::stoul(v));
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--metrics-json") {
      opt.metrics_json = true;
    } else if (arg == "--no-verify") {
      opt.verify = false;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      std::exit(0);
    } else {
      std::cerr << "unknown option " << arg << "\n";
      return false;
    }
  }
  return true;
}

/// ParseArgs, with a malformed number (std::stod/stoul/stoull throw)
/// reported as a bad argument rather than an internal error.
bool Parse(int argc, char** argv, Options& opt) {
  try {
    return ParseArgs(argc, argv, opt);
  } catch (const std::logic_error& e) {
    std::cerr << "bad numeric value (" << e.what() << ")\n";
    return false;
  }
}

/// Every option resolved and range-checked, before any stage runs.
struct Settings {
  core::TcimConfig config;
  graph::RelabelMode relabel = graph::RelabelMode::kAuto;
  runtime::PartitionStrategy partition =
      runtime::PartitionStrategy::kDegreeBalanced;
};

/// Prints the first invalid option and returns false.
bool Resolve(const Options& opt, Settings& s) {
  const auto reject = [](const std::string& what) {
    std::cerr << what << "\n";
    return false;
  };
  if (!(opt.scale > 0.0 && opt.scale <= 1.0)) {
    return reject("--scale must be in (0,1]");
  }
  const std::optional<graph::RelabelMode> relabel =
      graph::ParseRelabelMode(opt.relabel);
  if (!relabel.has_value()) {
    return reject("unknown relabel mode " + opt.relabel +
                  " (auto|degree|bfs|none)");
  }
  s.relabel = *relabel;

  core::TcimConfig& config = s.config;
  config.slice_bits = opt.slice_bits;
  // Checked in double before the cast: converting a negative, NaN or
  // out-of-range double to an integer is undefined behaviour.
  const double capacity_bytes = opt.capacity_mb * 1024.0 * 1024.0;
  if (!(capacity_bytes >= 1.0 &&
        capacity_bytes <=
            static_cast<double>(nvsim::ArrayConfig::kMaxCapacityBytes))) {
    return reject("--capacity-mb must be in (0, " +
                  std::to_string(nvsim::ArrayConfig::kMaxCapacityBytes >>
                                 20) +
                  "]");
  }
  config.array.capacity_bytes = static_cast<std::uint64_t>(capacity_bytes);
  if (opt.policy == "lru") {
    config.controller.policy = arch::ReplacementPolicy::kLru;
  } else if (opt.policy == "fifo") {
    config.controller.policy = arch::ReplacementPolicy::kFifo;
  } else if (opt.policy == "random") {
    config.controller.policy = arch::ReplacementPolicy::kRandom;
  } else {
    return reject("unknown policy " + opt.policy);
  }
  if (opt.orientation == "upper") {
    config.orientation = graph::Orientation::kUpper;
  } else if (opt.orientation == "degree") {
    config.orientation = graph::Orientation::kDegree;
  } else if (opt.orientation == "full") {
    config.orientation = graph::Orientation::kFullSymmetric;
  } else {
    return reject("unknown orientation " + opt.orientation);
  }
  try {
    // Checked even when --banks is 1, so a typo'd strategy errors on
    // every row of a bank sweep, not only the multi-bank ones.
    s.partition = runtime::ParsePartitionStrategy(opt.partition);
    core::TcimConfig normalized = config;  // slice width, array geometry
    normalized.Normalize();
  } catch (const std::invalid_argument& e) {
    return reject(e.what());
  }
  if (opt.banks == 0 || opt.banks > runtime::kMaxBanks ||
      opt.threads > runtime::kMaxBanks) {
    return reject("--banks must be in [1, " +
                  std::to_string(runtime::kMaxBanks) +
                  "] and --threads at most as large");
  }
  if (!(std::isfinite(opt.recount_fraction) && opt.recount_fraction >= 0.0)) {
    return reject("--recount-frac must be a finite value >= 0");
  }
  return true;
}

/// "degree (auto)" style label of a relabel decision.
std::string RelabelLabel(const graph::RelabelChoice& choice,
                         graph::RelabelMode requested) {
  return std::string(graph::ToString(choice.applied)) +
         (requested == graph::RelabelMode::kAuto ? " (auto)" : "");
}

/// Load-time relabeling for the --banks and --stream paths (their
/// passes are BankPool::Count and StreamSession, not core::CountGraph):
/// rename vertices so dense rows/columns share contiguous id blocks
/// before slicing — fewer valid slices, smaller |Ri ∩ Cj| merges.
/// Pure bijection; every id printed goes back through the inverse
/// map, so the rename is invisible in the output.
graph::RelabelChoice RelabelInPlace(graph::Graph& g,
                                    graph::RelabelMode mode,
                                    std::uint32_t slice_bits) {
  graph::RelabelChoice choice = graph::ChooseRelabeling(g, mode, slice_bits);
  if (choice.applied != graph::RelabelMode::kNone) g = choice.map.Apply(g);
  return choice;
}

/// One row of the --top per-vertex surface: a vertex named by its
/// ORIGINAL id (inverse relabel map applied) and its degree.
struct TopEntry {
  graph::VertexId vertex = 0;
  std::uint64_t degree = 0;
};

/// The N highest-degree vertices of `g`, named by original ids.
/// Ordered by (degree desc, original id asc) — the tie-break uses the
/// original id deliberately, so a relabeled and an unrelabeled run
/// emit identical lists (the round-trip check in tests/relabel_test).
std::vector<TopEntry> TopDegrees(const graph::Graph& g,
                                 const graph::VertexRelabeling* map,
                                 std::uint32_t n) {
  std::vector<TopEntry> all;
  all.reserve(g.num_vertices());
  for (graph::VertexId internal = 0; internal < g.num_vertices();
       ++internal) {
    const graph::VertexId original =
        map != nullptr ? map->ToOriginal(internal) : internal;
    all.push_back(TopEntry{original, g.Degree(internal)});
  }
  const std::size_t k = std::min<std::size_t>(n, all.size());
  std::partial_sort(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(k), all.end(),
                    [](const TopEntry& a, const TopEntry& b) {
                      if (a.degree != b.degree) return a.degree > b.degree;
                      return a.vertex < b.vertex;
                    });
  all.resize(k);
  return all;
}

void EmitTopJson(std::ostream& os, const std::vector<TopEntry>& top) {
  os << ",\"top\":[";
  for (std::size_t i = 0; i < top.size(); ++i) {
    os << (i == 0 ? "" : ",") << "{\"vertex\":" << top[i].vertex
       << ",\"degree\":" << top[i].degree << "}";
  }
  os << "]";
}

void EmitTopRows(util::TablePrinter& t, const std::vector<TopEntry>& top) {
  for (std::size_t i = 0; i < top.size(); ++i) {
    t.AddRow({"top[" + std::to_string(i) + "]",
              "v" + std::to_string(top[i].vertex) + " deg " +
                  std::to_string(top[i].degree)});
  }
}

/// Report fields shared by the single-accelerator and multi-bank
/// paths; the path-specific middle is injected as a callback so new
/// common fields land in both outputs.
struct ReportCommon {
  const tcim::graph::Graph* g = nullptr;
  std::string source;
  std::uint64_t triangles = 0;
  double chip_energy_j = 0.0;
  double platform_energy_j = 0.0;
  double host_seconds = 0.0;
  bool verify_requested = true;
  bool verified = true;
  std::string relabel = "none";
  double relabel_nvs_ratio = 1.0;
  std::vector<TopEntry> top;
};

template <typename JsonMiddle, typename TableMiddle>
int EmitReport(bool json, const ReportCommon& c, JsonMiddle&& json_middle,
               TableMiddle&& table_middle) {
  if (json) {
    std::cout << "{\"source\":\"" << c.source
              << "\",\"vertices\":" << c.g->num_vertices()
              << ",\"edges\":" << c.g->num_edges()
              << ",\"triangles\":" << c.triangles
              << ",\"relabel\":\"" << c.relabel << "\""
              << ",\"relabel_nvs_ratio\":" << c.relabel_nvs_ratio;
    if (!c.top.empty()) EmitTopJson(std::cout, c.top);
    json_middle(std::cout);
    std::cout << ",\"chip_energy_j\":" << c.chip_energy_j
              << ",\"platform_energy_j\":" << c.platform_energy_j
              << ",\"host_seconds\":" << c.host_seconds
              << ",\"verified\":" << (c.verified ? "true" : "false")
              << "}\n";
  } else {
    using tcim::util::TablePrinter;
    TablePrinter t({"Quantity", "Value"});
    t.AddRow({"source", c.source});
    t.AddRow({"vertices", TablePrinter::WithThousands(c.g->num_vertices())});
    t.AddRow({"edges", TablePrinter::WithThousands(c.g->num_edges())});
    t.AddRow({"triangles", TablePrinter::WithThousands(c.triangles)});
    t.AddRow({"relabel", c.relabel});
    t.AddRow({"relabel NVS ratio",
              TablePrinter::Ratio(c.relabel_nvs_ratio, 3)});
    EmitTopRows(t, c.top);
    table_middle(t);
    t.AddRow({"chip energy", tcim::util::FormatJoules(c.chip_energy_j)});
    t.AddRow({"platform energy",
              tcim::util::FormatJoules(c.platform_energy_j)});
    t.AddRow({"host wall-clock", tcim::util::FormatSeconds(c.host_seconds)});
    t.AddRow({"verified vs CPU", c.verify_requested
                                     ? (c.verified ? "yes" : "MISMATCH")
                                     : "skipped"});
    t.Print(std::cout);
  }
  return c.verified ? 0 : 1;
}

/// Shared tail of every successful run path: under --metrics-json,
/// scrape the process-wide obs registry to stdout as one JSON line.
/// TouchServingMetrics() first, so paths that never built a Scheduler
/// or StreamSession still report the full catalog (zero-valued).
int Finish(const Options& opt, int rc) {
  if (opt.metrics_json) {
    runtime::TouchServingMetrics();
    obs::Registry::Global().WriteJson(std::cout);
    std::cout << "\n";
  }
  return rc;
}

int Run(int argc, char** argv) {
  Options opt;
  if (!Parse(argc, argv, opt)) {
    Usage();
    return 2;
  }
  Settings settings;
  if (!Resolve(opt, settings)) return 2;
  const core::TcimConfig& config = settings.config;

  graph::Graph g;
  std::string source;
  std::vector<stream::EdgeDelta> batches;
  try {
    if (!opt.input.empty()) {
      g = graph::ReadSnapEdgeListFile(opt.input);
      source = opt.input;
    } else if (!opt.dataset.empty()) {
      const graph::PaperRef& ref = graph::GetPaperRefByName(opt.dataset);
      graph::DatasetInstance inst =
          graph::SynthesizePaperGraph(ref.id, opt.scale, opt.seed);
      g = std::move(inst.graph);
      source = inst.source;
    } else {
      Usage();
      return 2;
    }
    if (!opt.stream.empty()) batches = stream::ReadDeltaFile(opt.stream);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  if (!opt.stream.empty()) {
    graph::RelabelChoice relabel =
        RelabelInPlace(g, settings.relabel, opt.slice_bits);
    const bool relabeled = relabel.applied != graph::RelabelMode::kNone;
    stream::StreamConfig stream_config;
    stream_config.orientation = config.orientation;
    stream_config.slice_bits = opt.slice_bits;
    stream_config.recount_fraction = opt.recount_fraction;
    runtime::StreamSession session(g, stream_config);
    const std::uint64_t initial = session.triangles();

    util::TablePrinter batch_table({"Batch", "Epoch", "Ops", "+E", "-E", "ΔT",
                                    "Triangles", "Path", "AND ops",
                                    "Latency"});
    for (std::size_t b = 0; b < batches.size(); ++b) {
      // Replay files speak original ids; the relabeled session speaks
      // internal ids. MapToInternal grows relabel.map for vertices the
      // loaded graph never saw (same growth semantics as the
      // un-relabeled path).
      const runtime::StreamSession::AppliedBatch applied = session.Apply(
          relabeled ? stream::MapToInternal(batches[b], relabel.map)
                    : batches[b]);
      const stream::BatchResult& r = applied.batch;
      if (!opt.json) {
        batch_table.AddRow(
            {std::to_string(b), std::to_string(applied.epoch),
             std::to_string(r.stats.ops_submitted),
             std::to_string(r.stats.applied.inserted),
             std::to_string(r.stats.applied.deleted),
             std::to_string(r.delta),
             util::TablePrinter::WithThousands(r.triangles),
             r.stats.used_recount ? "recount" : "incremental",
             util::TablePrinter::WithThousands(r.stats.and_ops),
             util::FormatSeconds(r.stats.host_seconds)});
      }
    }

    const runtime::StreamStats stats = session.stats();
    const std::uint64_t final_triangles = session.triangles();
    const graph::Graph final_snapshot = session.Snapshot();
    const bool verified =
        !opt.verify || baseline::CountTrianglesReference(final_snapshot) ==
                           final_triangles;
    const std::vector<TopEntry> top =
        opt.top > 0 ? TopDegrees(final_snapshot,
                                 relabeled ? &relabel.map : nullptr, opt.top)
                    : std::vector<TopEntry>{};
    if (opt.json) {
      std::cout << "{\"source\":\"" << source << "\",\"stream\":\""
                << opt.stream << "\",\"relabel\":\""
                << RelabelLabel(relabel, settings.relabel)
                << "\",\"relabel_nvs_ratio\":" << relabel.ValidSliceRatio();
      if (!top.empty()) EmitTopJson(std::cout, top);
      std::cout << ",\"batches\":" << stats.batches
                << ",\"initial_triangles\":" << initial
                << ",\"final_triangles\":" << final_triangles
                << ",\"net_delta\":" << stats.net_delta
                << ",\"edges_inserted\":" << stats.edges_inserted
                << ",\"edges_deleted\":" << stats.edges_deleted
                << ",\"ops_dropped\":" << stats.ops_dropped
                << ",\"and_ops\":" << stats.exec.valid_pairs
                << ",\"recounts\":" << stats.recounts
                << ",\"host_seconds\":" << stats.host_seconds
                << ",\"verified\":" << (verified ? "true" : "false") << "}\n";
    } else {
      std::cout << "Streaming replay of " << opt.stream << " over " << source
                << " (" << g.num_vertices() << " V, " << g.num_edges()
                << " E, " << util::TablePrinter::WithThousands(initial)
                << " triangles initially)\n\n";
      batch_table.Print(std::cout);
      std::cout << "\n  " << stats.Summary() << "\n"
                << "  verified vs CPU recount: "
                << (opt.verify ? (verified ? "yes" : "MISMATCH") : "skipped")
                << "\n";
      if (!top.empty()) {
        std::cout << "\n  top vertices by degree (original ids):\n";
        for (std::size_t i = 0; i < top.size(); ++i) {
          std::cout << "    top[" << i << "] v" << top[i].vertex << " deg "
                    << top[i].degree << "\n";
        }
      }
    }
    return Finish(opt, verified ? 0 : 1);
  }

  if (opt.banks > 1) {
    const graph::RelabelChoice relabel =
        RelabelInPlace(g, settings.relabel, opt.slice_bits);
    runtime::BankPoolConfig pool_config;
    pool_config.num_banks = opt.banks;
    pool_config.num_threads = opt.threads;
    pool_config.partition = settings.partition;
    // Controller rng seed stays at its default on both paths, so under
    // --policy random bank 0 reproduces the single-accelerator numbers
    // (DeriveBankSeed keeps the base seed for bank 0).
    pool_config.accelerator = config;
    runtime::ClusterResult r;
    try {
      const runtime::BankPool pool{pool_config};
      r = pool.Count(g);
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }

    ReportCommon common{&g,
                        source,
                        r.triangles,
                        r.energy_joules,
                        r.platform_joules,
                        r.host_seconds,
                        opt.verify,
                        !opt.verify ||
                            baseline::CountTrianglesReference(g) ==
                                r.triangles};
    common.relabel = RelabelLabel(relabel, settings.relabel);
    common.relabel_nvs_ratio = relabel.ValidSliceRatio();
    if (opt.top > 0) {
      common.top = TopDegrees(
          g, relabel.applied != graph::RelabelMode::kNone ? &relabel.map
                                                          : nullptr,
          opt.top);
    }
    if (!opt.json) {
      runtime::PrintPartitionTable(std::cout, r.partition);
      std::cout << "\n";
    }
    return Finish(opt, EmitReport(
        opt.json, common,
        [&](std::ostream& os) {
          os << ",\"banks\":" << r.num_banks() << ",\"partition\":\""
             << runtime::ToString(r.partition.stats.strategy) << "\""
             << ",\"edge_cut\":" << r.partition.stats.EdgeCutFraction()
             << ",\"load_imbalance\":" << r.partition.stats.LoadImbalance()
             << ",\"and_ops\":" << r.exec.valid_pairs
             << ",\"hit_rate\":" << r.exec.cache.HitRate()
             << ",\"critical_path_seconds\":" << r.critical_path_seconds
             << ",\"serial_sum_seconds\":" << r.serial_sum_seconds
             << ",\"bank_speedup\":" << r.Speedup();
          if (r.partition.stats.strategy ==
              runtime::PartitionStrategy::k2dHubReplicated) {
            os << ",\"hub_count\":" << r.partition.stats.hub_count
               << ",\"replica_overhead\":" << r.partition.stats.ReplicaOverhead()
               << ",\"tile_imbalance\":" << r.partition.stats.tile_imbalance;
          }
        },
        [&](util::TablePrinter& t) {
          using util::TablePrinter;
          t.AddRow({"banks", std::to_string(r.num_banks())});
          if (r.partition.stats.strategy ==
              runtime::PartitionStrategy::k2dHubReplicated) {
            t.AddRow({"hub columns",
                      std::to_string(r.partition.stats.hub_count)});
            t.AddRow({"replica overhead",
                      TablePrinter::Percent(
                          r.partition.stats.ReplicaOverhead(), 1)});
            t.AddRow({"tile imbalance",
                      TablePrinter::Ratio(r.partition.stats.tile_imbalance,
                                          2)});
          }
          t.AddRow(
              {"AND ops", TablePrinter::WithThousands(r.exec.valid_pairs)});
          t.AddRow(
              {"hit rate", TablePrinter::Percent(r.exec.cache.HitRate(), 1)});
          t.AddRow({"cluster latency (critical path)",
                    util::FormatSeconds(r.critical_path_seconds)});
          t.AddRow({"cluster latency (serial sum)",
                    util::FormatSeconds(r.serial_sum_seconds)});
          t.AddRow({"bank speedup", TablePrinter::Ratio(r.Speedup(), 2)});
        }));
  }

  core::CountRequest request;
  request.config = config;
  request.relabel = settings.relabel;
  request.verify = opt.verify;
  const core::CountOutcome out = core::CountGraph(g, request);
  const core::TcimResult& r = *out.sim;

  ReportCommon common{&g,
                      source,
                      out.triangles,
                      r.perf.energy_joules,
                      r.perf.platform_joules,
                      out.stages.Total(),
                      opt.verify,
                      !out.reference_triangles ||
                          *out.reference_triangles == out.triangles};
  common.relabel = RelabelLabel(out.relabel, settings.relabel);
  common.relabel_nvs_ratio = out.relabel.ValidSliceRatio();
  // `g` is the input, already in original ids.
  if (opt.top > 0) common.top = TopDegrees(g, nullptr, opt.top);
  return Finish(opt, EmitReport(
      opt.json, common,
      [&](std::ostream& os) {
        os << ",\"and_ops\":" << r.exec.valid_pairs
           << ",\"row_writes\":" << r.exec.row_slice_writes
           << ",\"col_writes\":" << r.exec.col_slice_writes
           << ",\"hit_rate\":" << r.exec.cache.HitRate()
           << ",\"exchange_rate\":" << r.exec.cache.ExchangeRate()
           << ",\"serial_seconds\":" << r.perf.serial_seconds
           << ",\"parallel_seconds\":" << r.perf.parallel_seconds
           << ",\"stages\":{";
        const char* sep = "";
        out.stages.ForEach([&](const char* name, double seconds) {
          os << sep << "\"" << name << "\":" << seconds;
          sep = ",";
        });
        os << "}";
      },
      [&](util::TablePrinter& t) {
        using util::TablePrinter;
        t.AddRow({"AND ops", TablePrinter::WithThousands(r.exec.valid_pairs)});
        t.AddRow(
            {"hit rate", TablePrinter::Percent(r.exec.cache.HitRate(), 1)});
        t.AddRow(
            {"exchanges", TablePrinter::WithThousands(r.exec.cache.exchanges)});
        t.AddRow({"TCIM latency (serial)",
                  util::FormatSeconds(r.perf.serial_seconds)});
        t.AddRow({"TCIM latency (parallel)",
                  util::FormatSeconds(r.perf.parallel_seconds)});
        out.stages.ForEach([&](const char* name, double seconds) {
          t.AddRow({std::string("stage ") + name,
                    util::FormatSeconds(seconds)});
        });
      }));
}

}  // namespace

// Any error the per-step handlers above do not catch (e.g. a delta op
// the stream layer rejects) ends the run with its message and exit
// status 1, never with std::terminate.
int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "tcim_cli: " << e.what() << "\n";
    return 1;
  }
}
