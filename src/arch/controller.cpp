#include "arch/controller.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <vector>

namespace tcim::arch {

std::uint32_t Controller::EffectiveWays(const nvsim::ArrayConfig& config,
                                        const ControllerConfig& controller) {
  const std::uint32_t physical = config.subarray_rows - 1;  // minus staging
  if (controller.capacity_model == CapacityModel::kDataOnly) {
    return physical;
  }
  // Charge the 4-byte valid-slice index against capacity:
  // usable fraction = (|S|/8) / (|S|/8 + 4).
  const double slice_bytes = config.access_width_bits / 8.0;
  const double fraction = slice_bytes / (slice_bytes + 4.0);
  const auto ways = static_cast<std::uint32_t>(physical * fraction);
  return std::max<std::uint32_t>(ways, 1);
}

Controller::Controller(pim::ComputationalArray& array,
                       const ControllerConfig& config)
    : array_(array),
      config_(config),
      mapper_(array.config()),
      cache_(mapper_.num_sets(), EffectiveWays(array.config(), config),
             config.policy, config.rng_seed) {}

ExecStats Controller::Run(const bit::SlicedMatrix& matrix,
                          EdgeCountSink* sink, bit::SliceStats* slice_stats) {
  const std::uint32_t n = matrix.num_vertices();
  return RunPlan(matrix, BankExecPlan::RowRange(0, n, n), sink, slice_stats);
}

// One work item = one valid slice pair of one edge.
struct Controller::WorkItem {
  std::uint32_t slice_index;
  std::uint32_t row_ordinal;   // ordinal of RiSk within row i
  std::uint32_t col_vertex;    // j
  std::uint32_t col_ordinal;   // ordinal of CjSk within column j
  std::uint32_t edge_ordinal;  // index into this row's edge list
};

// One bit per valid slice of each store, indexed by GlobalOrdinal: set
// once the slice enters an AND.
struct Controller::TouchedSlices {
  std::vector<std::uint64_t> rows;
  std::vector<std::uint64_t> cols;

  static void Mark(std::vector<std::uint64_t>& bits, std::uint64_t ordinal) {
    bits[ordinal >> 6] |= std::uint64_t{1} << (ordinal & 63);
  }
  static std::uint64_t Count(const std::vector<std::uint64_t>& bits) {
    std::uint64_t total = 0;
    for (const std::uint64_t word : bits) total += std::popcount(word);
    return total;
  }
};

void Controller::ProcessRowWork(const bit::SlicedMatrix& matrix,
                                std::uint32_t i, std::uint64_t spread,
                                std::vector<WorkItem>& work,
                                const std::vector<std::uint32_t>& row_edges,
                                std::vector<std::uint64_t>& row_edge_count,
                                ExecStats& stats, EdgeCountSink* sink,
                                TouchedSlices* touched) {
  const bit::SlicedStore& rows = matrix.rows();
  const bit::SlicedStore& cols = matrix.cols();
  const std::uint32_t slices_per_row = array_.slices_per_row();
  if (sink != nullptr) {
    row_edge_count.assign(row_edges.size(), 0);
  }
  // Group by target set so each (row slice, set) staging write
  // happens once per processed row.
  std::sort(work.begin(), work.end(),
            [&](const WorkItem& a, const WorkItem& b) {
              if (a.slice_index != b.slice_index) {
                return a.slice_index < b.slice_index;
              }
              const std::uint32_t am = a.col_vertex % spread;
              const std::uint32_t bm = b.col_vertex % spread;
              return am != bm ? am < bm : a.col_vertex < b.col_vertex;
            });

  std::uint64_t staged_set = 0;
  std::uint32_t staged_k = 0;
  bool staged = false;
  for (const WorkItem& item : work) {
    const std::uint64_t set =
        mapper_.SetOf(item.slice_index, item.col_vertex, spread);
    const std::uint64_t subarray = set / slices_per_row;
    // Stage the row slice on first use within this row's set group.
    // The slice index is part of the staging key: two distinct k can
    // alias onto one set (k mod num_sets), and the staging row then
    // must be rewritten with the new RiSk. Every item's row slice is
    // staged (or already is), so marking here covers every AND.
    if (!staged || staged_set != set || staged_k != item.slice_index) {
      array_.WriteSlice(mapper_.StagingAddr(set),
                        rows.SliceWords(i, item.row_ordinal));
      ++stats.row_slice_writes;
      ++stats.per_subarray_writes[subarray];
      staged = true;
      staged_set = set;
      staged_k = item.slice_index;
      if (touched != nullptr) {
        TouchedSlices::Mark(touched->rows,
                            rows.GlobalOrdinal(i, item.row_ordinal));
      }
    }
    // Column slice: cache lookup, fill on miss.
    const std::uint64_t tag =
        cols.GlobalOrdinal(item.col_vertex, item.col_ordinal);
    if (touched != nullptr) TouchedSlices::Mark(touched->cols, tag);
    const AccessResult access = cache_.Access(set, tag);
    const pim::SliceAddr col_addr = mapper_.WayAddr(set, access.way);
    if (!access.hit) {
      array_.WriteSlice(col_addr,
                        cols.SliceWords(item.col_vertex, item.col_ordinal));
      ++stats.col_slice_writes;
      ++stats.per_subarray_writes[subarray];
    }
    // Dual-row activation AND + bit count.
    const std::uint64_t pair_count =
        array_.AndPopcount(mapper_.StagingAddr(set), col_addr);
    if (sink != nullptr) {
      row_edge_count[item.edge_ordinal] += pair_count;
    }
    ++stats.valid_pairs;
    ++stats.per_subarray_ands[subarray];
    stats.bitcount_words += array_.words_per_slice();
  }
  if (sink != nullptr) {
    for (std::size_t e = 0; e < row_edges.size(); ++e) {
      sink->OnEdge(i, row_edges[e], row_edge_count[e]);
    }
  }
}

void Controller::WarmReplicas(const bit::SlicedMatrix& matrix,
                              const std::vector<std::uint32_t>& hub_cols,
                              std::uint64_t spread, ExecStats& stats) {
  // Install every valid slice of the hub columns into its set before
  // the run — the bank's private replica pre-load. Install() places
  // without counting lookup stats; the array write is real (the
  // functional array then serves hits from the warmed way), counted in
  // replica_slice_writes so the perf model can price the energy while
  // keeping it off the per-query latency path.
  const bit::SlicedStore& cols = matrix.cols();
  for (const std::uint32_t j : hub_cols) {
    const bit::SlicedStore::VectorSlices vs = cols.Slices(j);
    for (std::size_t k = 0; k < vs.indices.size(); ++k) {
      const std::uint64_t set = mapper_.SetOf(vs.indices[k], j, spread);
      const AccessResult placed = cache_.Install(set, cols.GlobalOrdinal(j, k));
      if (!placed.hit) {
        array_.WriteSlice(mapper_.WayAddr(set, placed.way),
                          cols.SliceWords(j, k));
        ++stats.replica_slice_writes;
      }
    }
  }
}

ExecStats Controller::RunPlan(const bit::SlicedMatrix& matrix,
                              const BankExecPlan& plan, EdgeCountSink* sink,
                              bit::SliceStats* slice_stats) {
  if (matrix.slice_bits() != array_.config().access_width_bits) {
    throw std::invalid_argument(
        "Controller: matrix slice width != array access width");
  }
  const std::uint32_t n = matrix.num_vertices();
  if (plan.hub_row_begin > plan.hub_row_end || plan.hub_row_end > n) {
    throw std::out_of_range("Controller::RunPlan: invalid hub row range");
  }
  for (const BankExecPlan::Tile& tile : plan.tiles) {
    if (tile.row_begin > tile.row_end || tile.row_end > n ||
        tile.col_begin > tile.col_end || tile.col_end > n) {
      throw std::out_of_range("Controller::RunPlan: invalid tile");
    }
  }
  const bit::SlicedStore& rows = matrix.rows();

  ExecStats stats;
  stats.per_subarray_ands.assign(array_.num_subarrays(), 0);
  stats.per_subarray_writes.assign(array_.num_subarrays(), 0);
  const std::uint64_t spread =
      config_.spread_override != 0
          ? config_.spread_override
          : mapper_.SpreadFor(rows.slices_per_vector());
  stats.spread = spread;

  const bool have_hubs = plan.is_hub != nullptr && !plan.hub_cols.empty();
  if (have_hubs) {
    WarmReplicas(matrix, plan.hub_cols, spread, stats);
  }

  TouchedSlices touched;
  if (slice_stats != nullptr) {
    touched.rows.assign((rows.valid_slice_count() + 63) / 64, 0);
    touched.cols.assign((matrix.cols().valid_slice_count() + 63) / 64, 0);
  }
  TouchedSlices* const touch = slice_stats != nullptr ? &touched : nullptr;

  std::vector<WorkItem> work;
  std::vector<std::uint32_t> row_edges;
  std::vector<std::uint64_t> row_edge_count;
  const auto gather_arc = [&](std::uint32_t i, std::uint32_t j) {
    ++stats.edges_processed;
    const auto edge_ordinal = static_cast<std::uint32_t>(row_edges.size());
    row_edges.push_back(j);
    matrix.ForEachValidPair(
        i, j, [&](std::uint32_t k, std::size_t ra, std::size_t cb) {
          work.push_back(WorkItem{k, static_cast<std::uint32_t>(ra), j,
                                  static_cast<std::uint32_t>(cb),
                                  edge_ordinal});
        });
  };

  // One region = a row range x column range under the hub mask; each
  // row's gathered arcs run as one ProcessRowWork group (Algorithm 1's
  // "load Slice1 into memory" amortized by the row-reuse rule).
  const auto run_region = [&](std::uint32_t row_begin, std::uint32_t row_end,
                              std::uint32_t col_begin, std::uint32_t col_end,
                              bool mask_value) {
    for (std::uint32_t i = row_begin; i < row_end; ++i) {
      work.clear();
      row_edges.clear();
      matrix.ForEachArcInRect(i, col_begin, col_end, plan.is_hub, mask_value,
                              [&](std::uint32_t j) { gather_arc(i, j); });
      ProcessRowWork(matrix, i, spread, work, row_edges, row_edge_count,
                     stats, sink, touch);
    }
  };
  // Hub lane: the bank's lane rows against the (replicated) hub
  // columns. Runs first so the lane's lookups hit the warmed ways
  // before tail fills start competing for them.
  if (have_hubs) {
    run_region(plan.hub_row_begin, plan.hub_row_end, 0, n,
               /*mask_value=*/true);
  }
  // Tiles: rectangle-restricted arc enumeration, hubs excluded.
  for (const BankExecPlan::Tile& tile : plan.tiles) {
    run_region(tile.row_begin, tile.row_end, tile.col_begin, tile.col_end,
               /*mask_value=*/false);
  }

  stats.cache = cache_.stats();
  stats.accumulated_bitcount = array_.accumulated_count();
  if (slice_stats != nullptr) {
    const bit::SlicedStore& cols = matrix.cols();
    *slice_stats = bit::SliceStats{
        .row_valid_slices = rows.valid_slice_count(),
        .col_valid_slices = cols.valid_slice_count(),
        .row_slice_slots = rows.total_slice_slots(),
        .col_slice_slots = cols.total_slice_slots(),
        .edges = stats.edges_processed,
        .valid_pairs = stats.valid_pairs,
        .total_pairs = stats.edges_processed * rows.slices_per_vector(),
        .touched_row_slices = TouchedSlices::Count(touched.rows),
        .touched_col_slices = TouchedSlices::Count(touched.cols),
        .slice_bits = matrix.slice_bits(),
    };
  }
  return stats;
}

}  // namespace tcim::arch
