// The PIM controller: executes Algorithm 1 ("TCIM: Triangle Counting
// with Processing-In-MRAM Architecture") against the functional
// computational array.
//
// Per the paper's dataflow (Fig. 4): the compressed graph (valid slice
// index + slice data) streams from the data buffer; for each non-zero
// A[i][j] the valid slice pairs (RiSk, CjSk) are enumerated; the row
// slice is staged into the set's staging row (once per (row, k) — the
// data-reuse "rows are overwritten" rule), the column slice is looked
// up in the set's cache ways (hit = reuse, miss = WRITE, full = LRU
// exchange), and a dual-row-activation AND feeds the bit counter.
//
// The run is *functionally verified*: the accumulated bit-counter
// total is the Eq. (5) sum computed entirely through simulated array
// operations.
//
// Layer: §7 arch — see docs/ARCHITECTURE.md. Units: every ExecStats
// field is a raw operation count (dimensionless); this layer carries
// no time or energy — core::PerfModel prices the counts with the
// nvsim::ArrayPerf per-op costs (seconds/joules, SI).
#pragma once

#include <cstdint>
#include <vector>

#include "arch/mapper.h"
#include "arch/slice_cache.h"
#include "bitmatrix/sliced_matrix.h"
#include "pim/computational_array.h"

namespace tcim::arch {

/// Capacity accounting mode for the column cache (DESIGN.md §5).
enum class CapacityModel : std::uint8_t {
  /// Every array row segment holds one slice: ways = rows - 1.
  kDataOnly,
  /// Paper's space formula NVS*(|S|/8+4): the 4-byte valid-slice index
  /// is charged against array capacity, shrinking the usable ways by
  /// the factor (|S|/8) / (|S|/8 + 4). With |S|=64 this makes a 16 MB
  /// array hold ~1.4M slices — the accounting under which Table III's
  /// 16.8 MB graphs "will have to do data exchange" in a 16 MB array.
  kWithIndexOverhead,
};

/// Everything one execution produces (Fig. 5 / Table V inputs).
struct ExecStats {
  std::uint64_t edges_processed = 0;
  std::uint64_t valid_pairs = 0;       ///< = AND operations issued
  std::uint64_t row_slice_writes = 0;  ///< staging writes (per (i, set))
  std::uint64_t spread = 1;            ///< column spread used (mapper.h)
  std::uint64_t col_slice_writes = 0;  ///< cache fills (= cache misses)
  /// Hub-replica slices pre-loaded into the array before the run (the
  /// 2D runtime's warm-up). Load-time work: priced as write ENERGY by
  /// the perf model but kept out of TotalWrites() and the latency
  /// path — the replicas are installed while the graph is loaded, not
  /// on the per-query critical path.
  std::uint64_t replica_slice_writes = 0;
  std::uint64_t bitcount_words = 0;
  CacheStats cache;
  /// Raw Eq. (5) accumulator (NOT divided by the orientation
  /// multiplier; core::TcimAccelerator owns that interpretation).
  std::uint64_t accumulated_bitcount = 0;

  /// Per-subarray AND / WRITE counts — the inputs of the
  /// critical-path ("parallel") latency model in core::PerfModel.
  std::vector<std::uint64_t> per_subarray_ands;
  std::vector<std::uint64_t> per_subarray_writes;

  /// Fraction of column loads avoided by reuse — the paper's "saves on
  /// average 72% memory WRITE operations" metric.
  [[nodiscard]] double WriteSavings() const noexcept {
    return cache.HitRate();
  }
  /// Total slice writes into the array.
  [[nodiscard]] std::uint64_t TotalWrites() const noexcept {
    return row_slice_writes + col_slice_writes;
  }
};

/// Controller configuration.
struct ControllerConfig {
  ReplacementPolicy policy = ReplacementPolicy::kLru;
  CapacityModel capacity_model = CapacityModel::kWithIndexOverhead;
  std::uint64_t rng_seed = 1;  ///< for the random replacement ablation
  /// Column-spread override: 0 = auto (fill the array, mapper.h), 1 =
  /// the paper's minimal one-set-per-slice-index mapping, n = fixed.
  std::uint64_t spread_override = 0;
};

/// Receives the per-edge BitCount results during a Controller run.
/// Used by the k-truss extension, where the AND+BitCount of one edge
/// (i, j) *is* that edge's triangle support.
class EdgeCountSink {
 public:
  virtual ~EdgeCountSink() = default;
  /// Called once per non-zero A[i][j] with the accumulated BitCount of
  /// all its valid slice pairs (0 when the edge closes no triangle).
  virtual void OnEdge(std::uint32_t i, std::uint32_t j,
                      std::uint64_t bitcount) = 0;
};

/// One bank's execution plan in pure arch terms — the runtime layer
/// translates its runtime::TilePlan2d into this so arch stays
/// independent of the partitioner. Region semantics: the hub lane
/// processes arcs A[i][j] with i in [hub_row_begin, hub_row_end) and
/// is_hub[j]; each tile processes arcs inside its rectangle with
/// !is_hub[j] (every arc inside it when is_hub is null). The caller
/// guarantees the regions cover each of the bank's arcs exactly once.
struct BankExecPlan {
  struct Tile {
    std::uint32_t row_begin = 0;
    std::uint32_t row_end = 0;  ///< exclusive
    std::uint32_t col_begin = 0;
    std::uint32_t col_end = 0;  ///< exclusive
  };
  std::uint32_t hub_row_begin = 0;
  std::uint32_t hub_row_end = 0;  ///< exclusive
  /// Sorted hub column ids; their slices are warmed into the bank's
  /// cache + array before execution (the replica pre-load).
  std::vector<std::uint32_t> hub_cols;
  /// num_vertices entries, or nullptr when hub_cols is empty.
  const std::uint8_t* is_hub = nullptr;
  std::vector<Tile> tiles;

  /// The hub-free one-tile plan over rows [row_begin, row_end) x every
  /// column of an n-vertex matrix — a 1D row shard, and with the full
  /// row range the whole-matrix run.
  [[nodiscard]] static BankExecPlan RowRange(std::uint32_t row_begin,
                                             std::uint32_t row_end,
                                             std::uint32_t n) {
    BankExecPlan plan;
    plan.tiles.push_back(Tile{row_begin, row_end, 0, n});
    return plan;
  }
};

class Controller {
 public:
  /// The array defines the geometry; the controller builds its mapper
  /// and cache bookkeeping around it.
  Controller(pim::ComputationalArray& array, const ControllerConfig& config);

  /// Runs Algorithm 1 over the whole compressed matrix and returns the
  /// statistics: RunPlan over one hub-free whole-matrix tile. The
  /// array's accumulated bit-counter total equals
  /// stats.accumulated_bitcount afterwards. If `sink` is non-null it
  /// receives every edge's individual BitCount; if `slice_stats` is
  /// non-null it receives matrix.ComputeStats(), taken from this walk.
  [[nodiscard]] ExecStats Run(const bit::SlicedMatrix& matrix,
                              EdgeCountSink* sink = nullptr,
                              bit::SliceStats* slice_stats = nullptr);

  /// Runs one bank's plan: warms the hub replicas (if any) into the
  /// cache + array (counted in stats.replica_slice_writes, not in the
  /// lookup stats), then executes the hub lane and the tiles. Column
  /// lookups see the whole matrix, so per-edge counts are identical
  /// to a full run's and disjoint plans partition the accumulated
  /// bitcount exactly. Cache and bit-counter state are cumulative
  /// across calls, so use a fresh controller per run (as BankPool
  /// does). Throws std::out_of_range on a plan that exceeds the
  /// matrix's vertex range.
  ///
  /// When `slice_stats` is non-null the walk also marks every distinct
  /// row and column slice that enters an AND (by GlobalOrdinal, in two
  /// bitmaps) and reports the plan's bit::SliceStats: edges,
  /// valid_pairs, total_pairs and the touched counts cover the arcs
  /// this plan walks; the store fields describe the whole matrix. For
  /// a whole-matrix plan that is exactly matrix.ComputeStats(), without
  /// its second walk. Touched counts do not depend on cache placement
  /// (warmed replicas count only once ANDed).
  [[nodiscard]] ExecStats RunPlan(const bit::SlicedMatrix& matrix,
                                  const BankExecPlan& plan,
                                  EdgeCountSink* sink = nullptr,
                                  bit::SliceStats* slice_stats = nullptr);

  [[nodiscard]] const SliceMapper& mapper() const noexcept { return mapper_; }
  [[nodiscard]] const SliceCache& cache() const noexcept { return cache_; }

  /// Ways per cache set under the capacity model: the subarray's rows
  /// minus the staging row, shrunk by the valid-slice index overhead
  /// under kWithIndexOverhead (340 of 511 at |S| = 64). The single
  /// source of the cache's associativity.
  [[nodiscard]] static std::uint32_t EffectiveWays(
      const nvsim::ArrayConfig& config, const ControllerConfig& controller);

 private:
  struct WorkItem;
  struct TouchedSlices;
  /// Executes one pivot row's gathered work (set-grouped sort, staging
  /// writes, cache lookups, ANDs, sink flush) — RunPlan's inner loop,
  /// once per (region, row). `work`/`row_edges` are the caller's
  /// gather output; `row_edge_count` is reusable scratch. `touched`
  /// (nullable) collects the slices ANDed.
  void ProcessRowWork(const bit::SlicedMatrix& matrix, std::uint32_t i,
                      std::uint64_t spread, std::vector<WorkItem>& work,
                      const std::vector<std::uint32_t>& row_edges,
                      std::vector<std::uint64_t>& row_edge_count,
                      ExecStats& stats, EdgeCountSink* sink,
                      TouchedSlices* touched);
  /// Pre-loads every valid slice of `hub_cols` into the cache + array.
  void WarmReplicas(const bit::SlicedMatrix& matrix,
                    const std::vector<std::uint32_t>& hub_cols,
                    std::uint64_t spread, ExecStats& stats);

  pim::ComputationalArray& array_;
  ControllerConfig config_;
  SliceMapper mapper_;
  SliceCache cache_;
};

}  // namespace tcim::arch
