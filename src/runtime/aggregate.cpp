#include "runtime/aggregate.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "util/table.h"
#include "util/timer.h"
#include "util/units.h"

namespace tcim::runtime {

arch::CacheStats MergeCacheStats(std::span<const arch::CacheStats> stats) {
  arch::CacheStats merged;
  for (const arch::CacheStats& s : stats) {
    merged.lookups += s.lookups;
    merged.hits += s.hits;
    merged.misses += s.misses;
    merged.exchanges += s.exchanges;
    merged.inserts += s.inserts;
  }
  return merged;
}

arch::ExecStats MergeExecStats(std::span<const arch::ExecStats> stats) {
  arch::ExecStats merged;
  merged.spread = 0;
  std::vector<arch::CacheStats> caches;
  caches.reserve(stats.size());
  for (const arch::ExecStats& s : stats) {
    merged.edges_processed += s.edges_processed;
    merged.valid_pairs += s.valid_pairs;
    merged.row_slice_writes += s.row_slice_writes;
    merged.col_slice_writes += s.col_slice_writes;
    merged.replica_slice_writes += s.replica_slice_writes;
    merged.bitcount_words += s.bitcount_words;
    merged.accumulated_bitcount += s.accumulated_bitcount;
    merged.spread = std::max(merged.spread, s.spread);
    caches.push_back(s.cache);
    if (merged.per_subarray_ands.size() < s.per_subarray_ands.size()) {
      merged.per_subarray_ands.resize(s.per_subarray_ands.size(), 0);
    }
    for (std::size_t i = 0; i < s.per_subarray_ands.size(); ++i) {
      merged.per_subarray_ands[i] += s.per_subarray_ands[i];
    }
    if (merged.per_subarray_writes.size() < s.per_subarray_writes.size()) {
      merged.per_subarray_writes.resize(s.per_subarray_writes.size(), 0);
    }
    for (std::size_t i = 0; i < s.per_subarray_writes.size(); ++i) {
      merged.per_subarray_writes[i] += s.per_subarray_writes[i];
    }
  }
  merged.spread = std::max<std::uint64_t>(merged.spread, 1);
  merged.cache = MergeCacheStats(caches);
  return merged;
}

std::string ClusterResult::Summary() const {
  std::ostringstream os;
  os << num_banks() << " banks: " << triangles << " triangles, critical path "
     << util::FormatSeconds(critical_path_seconds) << " (serial sum "
     << util::FormatSeconds(serial_sum_seconds) << ", speedup "
     << util::TablePrinter::Ratio(Speedup(), 2) << "), chip energy "
     << util::FormatJoules(energy_joules);
  return os.str();
}

arch::ExecStats ToExecStats(const stream::BatchResult& batch) {
  arch::ExecStats exec;
  exec.edges_processed =
      batch.stats.applied.inserted + batch.stats.applied.deleted;
  exec.valid_pairs = batch.stats.and_ops;
  exec.row_slice_writes = batch.stats.applied.patch.rows.bits_patched +
                          batch.stats.applied.patch.rows.slices_inserted;
  exec.col_slice_writes = batch.stats.applied.patch.cols.bits_patched +
                          batch.stats.applied.patch.cols.slices_inserted;
  return exec;
}

void StreamStats::Add(const stream::BatchResult& batch) {
  ++batches;
  ops_submitted += batch.stats.ops_submitted;
  ops_dropped += batch.stats.ops_dropped;
  edges_inserted += batch.stats.applied.inserted;
  edges_deleted += batch.stats.applied.deleted;
  flipped_arcs += batch.stats.applied.flipped_arcs;
  recounts += batch.stats.used_recount ? 1 : 0;
  net_delta += batch.delta;
  host_seconds += batch.stats.host_seconds;
  const arch::ExecStats merged[] = {exec, ToExecStats(batch)};
  exec = MergeExecStats(merged);
}

std::string StreamStats::Summary() const {
  std::ostringstream os;
  os << batches << " batches: +" << edges_inserted << "/-" << edges_deleted
     << " edges, net triangle delta " << net_delta << ", "
     << exec.valid_pairs << " AND ops, " << recounts << " recounts, "
     << util::FormatSeconds(host_seconds) << " total";
  return os.str();
}

ClusterResult AggregateClusterResult(GraphPartition partition,
                                     graph::Orientation orientation,
                                     std::vector<core::TcimResult> per_bank,
                                     bit::SliceStats slices,
                                     const core::PerfModelParams& perf_params) {
  ClusterResult cluster;
  cluster.orientation = orientation;
  cluster.partition = std::move(partition);
  cluster.slices = std::move(slices);
  cluster.banks = std::move(per_bank);

  std::vector<arch::ExecStats> execs;
  execs.reserve(cluster.banks.size());
  std::uint64_t raw_bitcount = 0;
  for (const core::TcimResult& bank : cluster.banks) {
    execs.push_back(bank.exec);
    raw_bitcount += bank.exec.accumulated_bitcount;
    cluster.serial_sum_seconds += bank.perf.serial_seconds;
    cluster.critical_path_seconds =
        std::max(cluster.critical_path_seconds, bank.perf.serial_seconds);
    cluster.parallel_critical_path_seconds =
        std::max(cluster.parallel_critical_path_seconds,
                 bank.perf.parallel_seconds);
    cluster.energy_joules += bank.perf.energy_joules;
  }
  cluster.exec = MergeExecStats(execs);
  cluster.triangles = raw_bitcount / graph::CountMultiplier(orientation);
  // Platform view: the single host drives all banks and is busy until
  // the slowest one finishes.
  cluster.platform_joules =
      cluster.energy_joules +
      perf_params.host_platform_power * cluster.critical_path_seconds;
  return cluster;
}

// --- LatencyRecorder --------------------------------------------------------

namespace {

std::string Millis(double seconds) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << seconds * 1e3 << "ms";
  return os.str();
}

}  // namespace

void LatencyRecorder::Record(double seconds) { hist_.Observe(seconds); }

std::uint64_t LatencyRecorder::count() const { return hist_.Count(); }

double LatencyRecorder::mean() const { return hist_.Mean(); }

double LatencyRecorder::max() const { return hist_.Max(); }

double LatencyRecorder::Percentile(double p) const {
  return hist_.Percentile(p);
}

std::string LatencyRecorder::Summary() const {
  const std::uint64_t n = count();
  std::ostringstream os;
  os << "n=" << n;
  if (n > 0) {
    os << " mean=" << Millis(mean()) << " p50=" << Millis(Percentile(50.0))
       << " p99=" << Millis(Percentile(99.0)) << " max=" << Millis(max());
  }
  return os.str();
}

}  // namespace tcim::runtime
