// scaling_stream — incremental vs recount latency across update-batch
// sizes on the Table II dataset stand-ins (extension beyond the paper:
// its pipeline counts a static snapshot; this sweep measures what the
// streaming layer saves when the graph is live).
//
// For each dataset a stream::IncrementalCounter maintains the count
// while batches of growing size (fractions of the current edge count,
// half deletes of existing edges / half inserts of fresh pairs) are
// applied. Each cell applies kBatchesPerCell batches of its size and
// reports the median incremental batch latency next to the median of
// what a snapshot pipeline would pay for the same update — re-slice
// the whole matrix and rerun the full Eq. (5) pass — and their ratio.
// Exactness is asserted on every batch: the incremental total must
// equal the recount of the evolved graph, and the final graph is
// cross-checked against baseline::cpu_tc.
//
// The last column hands a 10%-of-edges batch to a counter running the
// *default* cost model: past the recount_fraction threshold the
// incremental path's O(batch^2) overlay would lose to the flat
// recount cost, so the counter must route the batch to the snapshot
// pipeline itself (the "path" cell asserts it did).
//
// Knobs: TCIM_SCALE / TCIM_SEED / TCIM_DATA_DIR as in every bench;
// --trace FILE (or TCIM_TRACE=FILE) captures a Chrome trace of the
// stream.apply/stream.publish spans and the epoch lifecycles.
// A second section measures mixed read/write serving on the com-DBLP
// stand-in: query latency through the scheduler on an idle session vs
// the same traffic while a writer streams update batches. Snapshot
// isolation means readers pin immutable epochs and never wait for the
// writer, so the serving target is mixed-mode p99 <= 2x idle p99
// (docs/SERVING.md). The section exits nonzero only on a correctness
// mismatch — every query must reproduce the sequential-replay total
// at the epoch it pinned — never on the latency ratio, which is
// hardware-dependent.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iostream>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/cpu_tc.h"
#include "bench_common.h"
#include "graph/datasets.h"
#include "obs/trace.h"
#include "runtime/aggregate.h"
#include "runtime/scheduler.h"
#include "runtime/stream_session.h"
#include "stream/dynamic_graph.h"
#include "stream/incremental_counter.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace tcim;

constexpr double kBatchFractions[] = {0.0001, 0.001, 0.01};
constexpr double kFallbackFraction = 0.10;
/// Batches per cell: one timing of either side swings the ratio up to
/// 2x between identical runs; the medians of five hold it steady.
constexpr int kBatchesPerCell = 5;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 != 0 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Builds a mixed batch: half deletes sampled from the live edges,
/// half inserts of pairs not currently present.
stream::EdgeDelta MakeBatch(const stream::DynamicGraph& live,
                            std::uint64_t target_ops, util::Xoshiro256& rng) {
  std::vector<std::pair<graph::VertexId, graph::VertexId>> edges;
  edges.reserve(live.num_edges());
  const graph::Graph snapshot = live.ToGraph();
  snapshot.ForEachEdge([&](graph::VertexId u, graph::VertexId v) {
    edges.emplace_back(u, v);
  });
  stream::EdgeDelta delta;
  const std::uint64_t deletes = std::max<std::uint64_t>(1, target_ops / 2);
  for (std::uint64_t k = 0; k < deletes && !edges.empty(); ++k) {
    const std::size_t pick = rng() % edges.size();
    delta.Erase(edges[pick].first, edges[pick].second);
    edges[pick] = edges.back();
    edges.pop_back();
  }
  const graph::VertexId n = live.num_vertices();
  for (std::uint64_t k = deletes; k < target_ops; ++k) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto u = static_cast<graph::VertexId>(rng() % n);
      const auto v = static_cast<graph::VertexId>(rng() % n);
      if (u != v && !live.HasEdge(u, v)) {
        delta.Insert(u, v);
        break;
      }
    }
  }
  return delta;
}

/// Mixed read/write serving probe (see the header comment). Returns
/// false on a correctness mismatch.
bool RunMixedMode() {
  const graph::DatasetInstance inst =
      bench::LoadDataset(graph::PaperDataset::kComDblp);
  std::cout << "\n-- Mixed read/write serving (snapshot isolation) --\n";
  bench::PrintProvenance(std::cout, inst);

  constexpr int kIdleQueries = 40;
  constexpr int kWriterBatches = 12;

  // Pre-generate the writer's stream against a sequential replay so
  // the oracle totals per epoch are known up front.
  util::Xoshiro256 rng(util::BaseSeed() ^ 0x5E71CE);
  stream::StreamConfig replay_config;
  replay_config.orientation = graph::Orientation::kDegree;
  replay_config.recount_fraction = 1e9;
  stream::IncrementalCounter replay(inst.graph, replay_config);
  std::vector<stream::EdgeDelta> deltas;
  std::vector<std::uint64_t> oracle = {replay.triangles()};
  deltas.reserve(kWriterBatches);
  for (int b = 0; b < kWriterBatches; ++b) {
    const auto ops = std::max<std::uint64_t>(
        4, replay.graph().num_edges() / 1000);
    deltas.push_back(MakeBatch(replay.graph(), ops, rng));
    oracle.push_back(replay.ApplyBatch(deltas.back()).triangles);
  }

  auto session = std::make_shared<runtime::StreamSession>(inst.graph);
  runtime::SchedulerConfig config;
  config.dispatch_threads = 2;
  config.pool.num_banks = 4;
  runtime::Scheduler scheduler(config);

  // Phase 1: idle — query latency with no writer in the system.
  runtime::LatencyRecorder idle;
  for (int q = 0; q < kIdleQueries; ++q) {
    util::Timer timer;
    const runtime::JobOutcome outcome =
        scheduler.SubmitQuery(session, {}).Wait();
    idle.Record(timer.ElapsedSeconds());
    if (outcome.state != runtime::JobState::kDone ||
        outcome.query.triangles != oracle[0]) {
      std::cerr << "MIXED-MODE MISMATCH: idle query wrong\n";
      return false;
    }
  }

  // Phase 2: mixed — the same query traffic while the writer streams
  // every batch through the update lane (pacing on each publish).
  runtime::LatencyRecorder mixed;
  std::vector<runtime::JobOutcome> query_outcomes;
  std::atomic<bool> writer_done{false};
  std::vector<runtime::JobOutcome> update_outcomes(kWriterBatches);
  std::thread writer([&] {
    for (int b = 0; b < kWriterBatches; ++b) {
      update_outcomes[b] =
          scheduler.SubmitUpdate(session, deltas[b], {}).Wait();
    }
    writer_done.store(true, std::memory_order_release);
  });
  // do-while: at least one mixed query even if the writer drains
  // before this loop is scheduled (single-core hosts).
  do {
    util::Timer timer;
    const runtime::JobOutcome outcome =
        scheduler.SubmitQuery(session, {}).Wait();
    mixed.Record(timer.ElapsedSeconds());
    query_outcomes.push_back(outcome);
  } while (!writer_done.load(std::memory_order_acquire));
  writer.join();
  scheduler.Shutdown();

  for (int b = 0; b < kWriterBatches; ++b) {
    const runtime::JobOutcome& outcome = update_outcomes[b];
    if (outcome.state != runtime::JobState::kDone ||
        outcome.epoch != static_cast<std::uint64_t>(b) + 1 ||
        outcome.update.triangles != oracle[b + 1]) {
      std::cerr << "MIXED-MODE MISMATCH: update batch " << b << "\n";
      return false;
    }
  }
  for (const runtime::JobOutcome& outcome : query_outcomes) {
    if (outcome.state != runtime::JobState::kDone ||
        outcome.query.epoch >= oracle.size() ||
        outcome.query.triangles != oracle[outcome.query.epoch]) {
      std::cerr << "MIXED-MODE MISMATCH: query at epoch "
                << outcome.query.epoch << "\n";
      return false;
    }
  }
  if (baseline::CountTrianglesReference(session->Snapshot()) !=
      session->triangles()) {
    std::cerr << "MIXED-MODE MISMATCH: final state vs CPU baseline\n";
    return false;
  }

  util::TablePrinter t({"Phase", "Queries", "p50", "p99", "Max"});
  t.AddRow({"idle", std::to_string(kIdleQueries),
            util::FormatSeconds(idle.Percentile(50.0)),
            util::FormatSeconds(idle.Percentile(99.0)),
            util::FormatSeconds(idle.max())});
  t.AddRow({"mixed", std::to_string(query_outcomes.size()),
            util::FormatSeconds(mixed.Percentile(50.0)),
            util::FormatSeconds(mixed.Percentile(99.0)),
            util::FormatSeconds(mixed.max())});
  t.Print(std::cout);
  const double ratio = idle.Percentile(99.0) > 0.0
                           ? mixed.Percentile(99.0) / idle.Percentile(99.0)
                           : 0.0;
  std::cout << "  mixed p99 / idle p99 = " << util::TablePrinter::Ratio(ratio, 2)
            << " (serving target <= 2.0x; informational — readers pin "
               "snapshots and never block on the writer)\n"
            << "  all " << query_outcomes.size() << " mixed queries exact vs "
            << "sequential replay at their pinned epochs.\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      obs::StartTracing(argv[++i]);
    } else {
      std::cout << "usage: scaling_stream [--trace FILE]   "
                   "(TCIM_TRACE=FILE works too)\n";
      return 2;
    }
  }

  bench::PrintHeader(
      "Stream scaling: incremental vs recount latency per update batch",
      "Mixed insert/delete batches sized as a fraction of the live edge "
      "count; 'recount' is the snapshot pipeline (full re-slice + full "
      "Eq. (5) pass) on the same post-batch graph. Each cell is the median "
      "of 5 batches, and every batch asserts the incremental total equals "
      "its recount.");

  std::vector<std::string> headers = {"Dataset", "Edges"};
  for (const double f : kBatchFractions) {
    headers.push_back(util::TablePrinter::Percent(f, 2) + " inc");
    headers.push_back("rec");
    headers.push_back("win");
  }
  headers.push_back("10% path");
  headers.push_back("10% lat");
  util::TablePrinter t(headers);

  int small_batch_wins = 0;
  int datasets_run = 0;
  for (const graph::PaperRef& ref : graph::AllPaperRefs()) {
    const graph::DatasetInstance inst = bench::LoadDataset(ref.id);
    bench::PrintProvenance(std::cout, inst);
    ++datasets_run;

    stream::StreamConfig config;
    config.orientation = graph::Orientation::kDegree;
    config.recount_fraction = 1e9;  // measure the incremental path itself
    stream::IncrementalCounter counter(inst.graph, config);
    util::Xoshiro256 rng(util::BaseSeed() ^ 0x57AE0000 ^
                         static_cast<std::uint64_t>(ref.id));

    std::vector<std::string> row = {
        ref.name, util::TablePrinter::Compact(inst.graph.num_edges())};
    double smallest_fraction_win = 0.0;
    for (const double fraction : kBatchFractions) {
      const auto target_ops = std::max<std::uint64_t>(
          2, static_cast<std::uint64_t>(fraction *
                                        static_cast<double>(
                                            counter.graph().num_edges())));
      std::vector<double> incremental_seconds;
      std::vector<double> recount_seconds;
      for (int b = 0; b < kBatchesPerCell; ++b) {
        const stream::EdgeDelta delta =
            MakeBatch(counter.graph(), target_ops, rng);
        const stream::BatchResult r = counter.ApplyBatch(delta);

        // The snapshot pipeline's cost for the same update: re-slice
        // the evolved graph from scratch and run the full bitwise pass.
        const graph::Graph snapshot = counter.graph().ToGraph();
        std::uint64_t recount = 0;
        recount_seconds.push_back(util::TimeOnce([&] {
          const stream::DynamicGraph rebuilt(snapshot, config.orientation,
                                             config.slice_bits);
          recount = rebuilt.matrix().AndPopcountAllEdges() /
                    graph::CountMultiplier(config.orientation);
        }));
        if (r.triangles != recount) {
          std::cerr << "COUNT MISMATCH on " << ref.name << " at fraction "
                    << fraction << ", batch " << b << ": incremental "
                    << r.triangles << " vs recount " << recount << "\n";
          return 1;
        }
        incremental_seconds.push_back(r.stats.host_seconds);
      }
      const double incremental = Median(std::move(incremental_seconds));
      const double recount = Median(std::move(recount_seconds));
      const double win = incremental > 0.0 ? recount / incremental : 1.0;
      if (fraction == kBatchFractions[0]) smallest_fraction_win = win;
      row.push_back(util::FormatSeconds(incremental));
      row.push_back(util::FormatSeconds(recount));
      row.push_back(util::TablePrinter::Ratio(win, 1));
    }
    if (smallest_fraction_win >= 5.0) ++small_batch_wins;

    if (baseline::CountTrianglesReference(counter.graph().ToGraph()) !=
        counter.triangles()) {
      std::cerr << "CPU CROSS-CHECK MISMATCH on " << ref.name << "\n";
      return 1;
    }

    // Cost-model demonstration: a 10%-of-edges batch against a counter
    // with the default recount threshold must fall back by itself.
    stream::StreamConfig default_config;
    default_config.orientation = config.orientation;
    stream::IncrementalCounter fallback_counter(counter.graph().ToGraph(),
                                                default_config);
    const auto fallback_ops = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(
               kFallbackFraction *
               static_cast<double>(fallback_counter.graph().num_edges())));
    const stream::EdgeDelta fallback_delta =
        MakeBatch(fallback_counter.graph(), fallback_ops, rng);
    const stream::BatchResult fallback_r =
        fallback_counter.ApplyBatch(fallback_delta);
    if (!fallback_r.stats.used_recount) {
      std::cerr << "COST MODEL FAILED to reroute the 10% batch on "
                << ref.name << "\n";
      return 1;
    }
    row.push_back("recount");
    row.push_back(util::FormatSeconds(fallback_r.stats.host_seconds));
    t.AddRow(row);
  }

  t.Print(std::cout);
  std::cout << "\n  " << small_batch_wins << "/" << datasets_run
            << " datasets show a >= 5x incremental win at the smallest "
               "batch size (0.01% of edges).\n"
            << "  The win shrinks as batches grow (the per-op overlay "
               "corrections are O(batch));\n"
            << "  at 10% of edges the default cost model routes the batch "
               "to the snapshot pipeline\n"
            << "  itself — the '10% path' column asserts that the fallback "
               "fired.\n";

  if (!RunMixedMode()) return 1;
  if (obs::TraceEnabled()) {
    obs::StopTracing();
    std::cout << "  trace written to " << obs::TracePath() << "\n";
  }
  return 0;
}
