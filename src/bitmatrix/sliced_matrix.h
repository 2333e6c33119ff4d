// Sliced adjacency matrix: row store + column store (paper §IV-B).
//
// For each non-zero A[i][j], Eq. (5) ANDs row i with column j, so the
// compressed graph is kept in *both* orientations: a row store (out-
// neighbor bitmaps) and a column store (in-neighbor bitmaps). The AND
// runs only on *valid slice pairs* — slice index k such that both
// RiSk and CjSk are valid — enumerated here by merging the two sorted
// valid-slice index lists.
//
// Layer: §5 bitmatrix — see docs/ARCHITECTURE.md. Units:
// CompressedBytes()/WorkingSetBytes() are bytes under the paper's
// NVS*(|S|/8+4) formula; slice_bits is |S| in bits; every other
// SliceStats field is a dimensionless count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitmatrix/popcount.h"
#include "bitmatrix/sliced_store.h"

namespace tcim::bit {

/// Aggregate slice statistics behind Tables III and IV; see the field
/// comments for the exact definitions used (EXPERIMENTS.md discusses
/// how they map onto the paper's numbers).
struct SliceStats {
  std::uint64_t row_valid_slices = 0;
  std::uint64_t col_valid_slices = 0;
  std::uint64_t row_slice_slots = 0;
  std::uint64_t col_slice_slots = 0;
  std::uint64_t edges = 0;

  /// Σ over non-zero A[i][j] of |valid slices of Ri ∩ valid slices of
  /// Cj| — the number of in-memory AND operations Algorithm 1 issues.
  std::uint64_t valid_pairs = 0;
  /// Σ over non-zero A[i][j] of slices_per_vector — the AND count a
  /// slicing-oblivious implementation would issue (denominator of the
  /// "99.99% computation reduction" claim).
  std::uint64_t total_pairs = 0;

  /// Distinct row/column slices that participate in >= 1 valid pair —
  /// the slices that are ever loaded into the computational array.
  /// WorkingSetBytes() is the Table III "valid slice data size".
  std::uint64_t touched_row_slices = 0;
  std::uint64_t touched_col_slices = 0;

  std::uint32_t slice_bits = 64;

  bool operator==(const SliceStats&) const = default;

  /// NVS*(|S|/8+4) over both stores (paper's storage formula).
  [[nodiscard]] std::uint64_t CompressedBytes() const noexcept {
    return (row_valid_slices + col_valid_slices) *
           (slice_bits / 8ULL + 4ULL);
  }
  /// Bytes of slices ever loaded for computation (Table III analog).
  [[nodiscard]] std::uint64_t WorkingSetBytes() const noexcept {
    return (touched_row_slices + touched_col_slices) *
           (slice_bits / 8ULL + 4ULL);
  }
  /// Valid slices / slice slots over both stores (Table IV analog,
  /// storage view).
  [[nodiscard]] double ValidSliceFraction() const noexcept {
    const auto slots = row_slice_slots + col_slice_slots;
    return slots == 0 ? 0.0
                      : static_cast<double>(row_valid_slices +
                                            col_valid_slices) /
                            static_cast<double>(slots);
  }
  /// valid_pairs / total_pairs (Table IV analog, computation view; the
  /// "reduce computation by 99.99%" figure is 1 - this).
  [[nodiscard]] double ValidPairFraction() const noexcept {
    return total_pairs == 0 ? 0.0
                            : static_cast<double>(valid_pairs) /
                                  static_cast<double>(total_pairs);
  }
};

/// Pair accounting of one host Eq. (5) pass: how many valid slice
/// pairs the gather consumed, which pivot it took and which route. The
/// pivot and route are otherwise invisible from outside — these
/// counters are how tests pin them and how the
/// runtime.bank.pairs_*_total metrics report them.
struct PairPathCounters {
  std::uint64_t zero_copy_pairs = 0;
  /// Always 0 (the host pass has no per-pair route). Kept until the
  /// next benchmark change, because perfbench still reads it.
  std::uint64_t per_pair_pairs = 0;
  /// The subset of zero_copy_pairs gathered under the column pivot
  /// (SlicedMatrix::PrefersColumnPivot); the rest took the row pivot.
  std::uint64_t column_pivot_pairs = 0;
  /// The subset of zero_copy_pairs summed on the hub-pivot route: pivots
  /// with at least SlicedMatrix::kHubPivotMinSlices valid slices, whose
  /// probe vectors are resolved ahead and ANDed in place.
  std::uint64_t hub_route_pairs = 0;

  PairPathCounters& operator+=(const PairPathCounters& o) noexcept {
    zero_copy_pairs += o.zero_copy_pairs;
    column_pivot_pairs += o.column_pivot_pairs;
    hub_route_pairs += o.hub_route_pairs;
    return *this;
  }
};

/// One arc mutation of the oriented adjacency matrix: set (insert) or
/// clear (remove) A[from][to]. Mirrored automatically into both the
/// row store (bit `to` of row `from`) and the column store (bit `from`
/// of column `to`) by ApplyArcEdits, so the two stores can never
/// disagree.
struct ArcEdit {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  bool set = true;
};

/// Per-store patch accounting of one ApplyArcEdits batch.
struct MatrixPatchStats {
  PatchStats rows;
  PatchStats cols;

  /// Structural slice writes across both stores — the streaming
  /// analogue of ExecStats' row/col slice writes.
  [[nodiscard]] std::uint64_t TotalSliceWrites() const noexcept {
    return rows.slices_inserted + rows.slices_removed + cols.slices_inserted +
           cols.slices_removed;
  }
};

/// Row + column compressed slice stores for one (oriented) adjacency
/// matrix, with the valid-slice-pair merge kernel.
class SlicedMatrix {
 public:
  SlicedMatrix() = default;

  /// Builds both stores from a CSR adjacency (out-neighbors).
  ///  - offsets/neighbors: CSR of the *oriented* matrix, per-row sorted
  ///    strictly increasing;
  ///  - the column store comes from the same walks, with no transpose:
  ///    one walk validates and counts every row's and column's valid
  ///    slices, a second fills the row store in order and scatters each
  ///    arc i -> j into column j (rows arrive in increasing order, so
  ///    each column's sources do too). The only per-vertex scratch is
  ///    one 32-bit last-slice stamp per column, plus one 32-bit bit
  ///    count per column for the probe totals during the first walk.
  /// Throws std::invalid_argument on malformed input, as
  /// SlicedStore::FromCsr does.
  static SlicedMatrix FromCsr(std::uint32_t num_vertices,
                              std::span<const std::uint64_t> offsets,
                              std::span<const std::uint32_t> neighbors,
                              std::uint32_t slice_bits);

  [[nodiscard]] const SlicedStore& rows() const noexcept { return rows_; }
  [[nodiscard]] const SlicedStore& cols() const noexcept { return cols_; }
  [[nodiscard]] std::uint32_t num_vertices() const noexcept {
    return rows_.num_vectors();
  }
  [[nodiscard]] std::uint32_t slice_bits() const noexcept {
    return rows_.slice_bits();
  }
  [[nodiscard]] std::uint64_t edge_count() const noexcept {
    return rows_.set_bit_count();
  }

  /// Merge-enumerates valid slice pairs of (row i, column j), calling
  ///   fn(slice_index, row_ordinal, col_ordinal)
  /// in increasing slice_index order, where the ordinals index into
  /// SliceWords/GlobalOrdinal of the respective stores.
  template <typename Fn>
  void ForEachValidPair(std::uint32_t i, std::uint32_t j, Fn&& fn) const {
    const std::span<const std::uint32_t> ri = rows_.SliceIndices(i);
    ForEachCommonSlice(ri, cols_.SliceIndices(j),
                       [&](std::size_t a, std::size_t b) { fn(ri[a], a, b); });
  }

  /// Calls fn(j), j ascending, for every arc A[i][j] of row i that a
  /// tile selects: j in [col_begin, col_end) and, when `col_mask` is
  /// non-null (num_vertices() entries), (col_mask[j] != 0) ==
  /// mask_value — the hub/tail split (hub lanes pass mask_value=true,
  /// tail tiles false, same mask, so together they see each arc
  /// exactly once). A rectangle spanning every column takes the plain
  /// row walk, which skips the ranged walk's per-row lower_bound. The
  /// one arc-selection rule of both the host pass (AndPopcountRect)
  /// and the simulated pass (arch::Controller::RunPlan). The host
  /// pass's column pivot applies it from the column side: each column
  /// j the range and mask select, then column j's set bits in
  /// [row_begin, row_end) of the column store, which mirrors the row
  /// store bit for bit.
  template <typename Fn>
  void ForEachArcInRect(std::uint32_t i, std::uint32_t col_begin,
                        std::uint32_t col_end, const std::uint8_t* col_mask,
                        bool mask_value, Fn&& fn) const {
    const auto select = [&](std::uint64_t j64) {
      const auto j = static_cast<std::uint32_t>(j64);
      if (col_mask == nullptr || (col_mask[j] != 0) == mask_value) fn(j);
    };
    if (col_begin == 0 && col_end == num_vertices()) {
      rows_.ForEachSetBit(i, select);
    } else {
      rows_.ForEachSetBitInRange(i, col_begin, col_end, select);
    }
  }

  /// Software evaluation of Eq. (5) over the compressed stores: for
  /// every non-zero A[i][j], Σ BitCount(AND(RiSk, CjSk)) over valid
  /// pairs. With an upper-triangular (oriented) adjacency this *is*
  /// the triangle count; the caller owns that interpretation. The valid
  /// slice pairs are gathered as zero-copy descriptors and evaluated in
  /// flush batches (AndPopcountPairsZeroCopy). The gather indexes one
  /// pivot vector's valid slices once and probes the other side's
  /// slices against it, one lookup per probed slice: pivoting on row i
  /// costs |Cj| lookups per arc, pivoting on column j costs |Ri|, and
  /// the pass takes the side whose whole-matrix total is smaller
  /// (PrefersColumnPivot). Pivots with at least kHubPivotMinSlices
  /// valid slices take the hub-pivot route instead of the descriptor
  /// stream. When `counters` is non-null the pair accounting of this
  /// pass is accumulated into it. Equivalent to AndPopcountRect over
  /// every row and column with no mask.
  [[nodiscard]] std::uint64_t AndPopcountAllEdges(
      PairPathCounters* counters = nullptr) const;

  /// The same pass under its old signature, kept until the next
  /// benchmark change because perfbench still calls it. Throws
  /// std::invalid_argument for any kind but kBuiltin.
  [[nodiscard]] std::uint64_t AndPopcountAllEdges(
      PopcountKind kind, PairPathCounters* counters = nullptr) const;

  /// Eq. (5) over the sub-rectangle rows [row_begin, row_end) x
  /// columns [col_begin, col_end) — the tile unit of the multi-bank
  /// runtime (runtime::CountBankShard2d). Only arcs A[i][j] with i and
  /// j inside the rectangle are enumerated, but each enumerated arc
  /// still ANDs the FULL row i against the FULL column j: tiling
  /// selects which arcs a bank pivots on, never which slices get
  /// paired, so any family of disjoint rectangles covering all
  /// non-zeros partitions AndPopcountAllEdges() exactly.
  ///
  /// `col_mask` / `mask_value` filter arcs as in ForEachArcInRect.
  ///
  /// `cols_override` (when non-null) replaces the column store for the
  /// ANDs — the per-bank hub-replica store. It must match slice_bits
  /// and num_vectors (throws std::invalid_argument) and must hold
  /// bit-identical data for every enumerated column.
  /// Throws std::out_of_range on an invalid rectangle. This is the one
  /// Eq. (5) enumerator: AndPopcountAllEdges forwards here, and the
  /// pivot is chosen as for AndPopcountAllEdges, from the whole matrix,
  /// so every shard of a partition takes the same one.
  [[nodiscard]] std::uint64_t AndPopcountRect(
      std::uint32_t row_begin, std::uint32_t row_end, std::uint32_t col_begin,
      std::uint32_t col_end, const std::uint8_t* col_mask = nullptr,
      bool mask_value = true, const SlicedStore* cols_override = nullptr,
      PairPathCounters* counters = nullptr) const;

  /// The gather's probe totals, kept exact by FromCsr and
  /// ApplyArcEdits. Pivoting on rows probes every valid slice of Cj for
  /// each arc A[i][j]: Σ_arcs |Cj| = Σ_j bits(Cj)·|Cj|. Pivoting on
  /// columns probes every valid slice of Ri: Σ_arcs |Ri| =
  /// Σ_i bits(Ri)·|Ri|. (|V| is V's valid-slice count.)
  [[nodiscard]] std::uint64_t row_pivot_probes() const noexcept {
    return row_pivot_probes_;
  }
  [[nodiscard]] std::uint64_t column_pivot_probes() const noexcept {
    return column_pivot_probes_;
  }
  /// The gathered pass's pivot rule: the column pivot exactly when it
  /// probes fewer slices; ties keep the row pivot. Hub-skewed matrices
  /// whose hubs sit on the column side (a degree order under kUpper)
  /// take the column pivot.
  [[nodiscard]] bool PrefersColumnPivot() const noexcept {
    return column_pivot_probes_ < row_pivot_probes_;
  }

  /// The gather's hub-pivot route takes every pivot vector with at
  /// least this many valid slices (so at least as many arcs): it
  /// resolves all of the pivot's probe vectors first, so their slab
  /// lookups overlap, then ANDs each matched pair in place instead of
  /// queueing a descriptor. A rectangle may select fewer of the pivot's
  /// arcs; both routes are exact, so that only moves pairs between
  /// them. Smaller pivots keep the descriptor stream, whose prefetch
  /// window spans pivots. The test reads the slice count the lookup
  /// already loaded: counting set bits instead cost roadNet-CA, none of
  /// whose pivots qualify either way, 4–10% of its pass.
  static constexpr std::uint64_t kHubPivotMinSlices = 8;

  /// Full statistics pass (Tables III/IV); costs one walk over every
  /// arc's valid slice pairs. The reference for the stats the
  /// simulated pass collects from its own walk
  /// (arch::Controller::RunPlan), and the stats source where no single
  /// walk covers the matrix (multi-bank runtime::BankPool::Count).
  [[nodiscard]] SliceStats ComputeStats() const;

  /// O(log slices) test of one non-zero: is A[i][j] set?
  [[nodiscard]] bool TestArc(std::uint32_t i, std::uint32_t j) const {
    return rows_.TestBit(i, j);
  }

  /// Batched in-place arc mutation — the row-rewrite entry point of
  /// the streaming layer (stream::DynamicGraph). Each edit is applied
  /// to the row store and mirrored into the column store in the same
  /// call; `new_num_vertices` >= num_vertices() grows both stores.
  /// Duplicate edits or non-flips throw std::invalid_argument (see
  /// SlicedStore::ApplyEdits); on throw the matrix is unchanged
  /// (edits are validated against the row store before either store
  /// is touched). The probe totals are re-weighed over the distinct
  /// rows and columns the batch touches, once both stores accept it.
  MatrixPatchStats ApplyArcEdits(std::span<const ArcEdit> edits,
                                 std::uint32_t new_num_vertices);

  /// Heap footprint of both stores (diagnostics).
  [[nodiscard]] std::uint64_t HeapBytes() const noexcept {
    return rows_.HeapBytes() + cols_.HeapBytes();
  }

 private:
  /// FromCsr's two walks, instantiated per slicer (shift/mask for a
  /// power-of-two |S|, division otherwise).
  template <typename Slicer>
  static SlicedMatrix Build(const Slicer& slicer, std::uint32_t n,
                            std::span<const std::uint64_t> offsets,
                            std::span<const std::uint32_t> neighbors,
                            std::uint32_t slice_bits);

  SlicedStore rows_;
  SlicedStore cols_;
  std::uint64_t row_pivot_probes_ = 0;     // Σ_arcs |Cj|
  std::uint64_t column_pivot_probes_ = 0;  // Σ_arcs |Ri|
};

}  // namespace tcim::bit
