#include "bitmatrix/sliced_matrix.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <stdexcept>

namespace tcim::bit {

namespace {

// Sentinel slice index: ids are below 2^32 - 1, so no slice index
// reaches it.
constexpr std::uint32_t kNoSlice = ~std::uint32_t{0};

// Slice index and in-slice bit of a vertex id. Every CLI width is a
// power of two, which takes shift and mask; other widths divide in 32
// bits (ids are 32-bit, so the quotient and remainder are too).
struct Pow2Slicer {
  std::uint32_t shift;
  [[nodiscard]] std::uint32_t Slice(std::uint32_t v) const noexcept {
    return v >> shift;
  }
  [[nodiscard]] std::uint32_t Bit(std::uint32_t v) const noexcept {
    return v & ((std::uint32_t{1} << shift) - 1);
  }
};
struct DivSlicer {
  std::uint32_t bits;
  [[nodiscard]] std::uint32_t Slice(std::uint32_t v) const noexcept {
    return v / bits;
  }
  [[nodiscard]] std::uint32_t Bit(std::uint32_t v) const noexcept {
    return v % bits;
  }
};

}  // namespace

SlicedMatrix SlicedMatrix::FromCsr(std::uint32_t num_vertices,
                                   std::span<const std::uint64_t> offsets,
                                   std::span<const std::uint32_t> neighbors,
                                   std::uint32_t slice_bits) {
  SlicedStore::CheckCsrShape(num_vertices, offsets, neighbors.size(),
                             slice_bits);
  if (std::has_single_bit(slice_bits)) {
    return Build(
        Pow2Slicer{static_cast<std::uint32_t>(std::countr_zero(slice_bits))},
        num_vertices, offsets, neighbors, slice_bits);
  }
  return Build(DivSlicer{slice_bits}, num_vertices, offsets, neighbors,
               slice_bits);
}

template <typename Slicer>
SlicedMatrix SlicedMatrix::Build(const Slicer& slicer, std::uint32_t n,
                                 std::span<const std::uint64_t> offsets,
                                 std::span<const std::uint32_t> neighbors,
                                 std::uint32_t slice_bits) {
  SlicedMatrix m;
  m.rows_ = SlicedStore::Shell(n, n, slice_bits);
  m.cols_ = SlicedStore::Shell(n, n, slice_bits);
  // Raw per-slab views, so the per-arc column accesses skip the
  // shared_ptr and vector indirections.
  struct SlabView {
    std::uint64_t* offsets;
    std::uint32_t* indices;
    std::uint64_t* words;
  };
  const auto views = [](SlicedStore& store) {
    std::vector<SlabView> out;
    out.reserve(store.slabs_.size());
    for (const std::shared_ptr<SlicedStore::Slab>& slab : store.slabs_) {
      out.push_back(SlabView{slab->offsets.data(), slab->indices.data(),
                             slab->words.data()});
    }
    return out;
  };
  constexpr std::uint32_t kShift = SlicedStore::kSlabVectorShift;
  constexpr std::uint32_t kLocalMask = SlicedStore::kSlabVectors - 1;
  // Rows arrive in increasing order, so each column's sources do too:
  // column j gains a slice exactly when its source's slice differs from
  // the last one stamped for j. The stamp is the only per-vertex
  // scratch; both walks use it.
  std::vector<std::uint32_t> col_last_slice(n, kNoSlice);

  // Walk 1: validate, and count each row's and each column's valid
  // slices into the slab offsets.
  {
    const std::vector<SlabView> cols = views(m.cols_);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t begin = offsets[i];
      const std::uint64_t end = offsets[i + 1];
      if (begin > end || end > neighbors.size()) {
        throw std::invalid_argument("SlicedMatrix: offsets not monotone");
      }
      const std::uint32_t source_slice = slicer.Slice(i);
      std::uint32_t prev_slice = kNoSlice;
      std::uint64_t row_valid = 0;
      for (std::uint64_t e = begin; e < end; ++e) {
        const std::uint32_t j = neighbors[e];
        if (j >= n) {
          throw std::invalid_argument("SlicedMatrix: neighbor out of range");
        }
        if (e > begin && j <= neighbors[e - 1]) {
          throw std::invalid_argument(
              "SlicedMatrix: neighbors must be strictly increasing per row");
        }
        const std::uint32_t s = slicer.Slice(j);
        if (s != prev_slice) {
          ++row_valid;
          prev_slice = s;
        }
        if (col_last_slice[j] != source_slice) {
          ++cols[j >> kShift].offsets[(j & kLocalMask) + 1];
          col_last_slice[j] = source_slice;
        }
      }
      m.rows_.CountSlot(i) = row_valid;
    }
  }
  m.rows_.SizeSlabs();
  m.cols_.SizeSlabs();

  // Walk 2: fill the row store in order and scatter each arc i -> j
  // into column j's slab. Column j's start offset serves as its fill
  // cursor and is restored afterwards.
  std::fill(col_last_slice.begin(), col_last_slice.end(), kNoSlice);
  const std::vector<SlabView> rows = views(m.rows_);
  const std::vector<SlabView> cols = views(m.cols_);
  const std::uint64_t width = m.rows_.words_per_slice();
  for (std::uint32_t i = 0; i < n; ++i) {
    const SlabView& row = rows[i >> kShift];
    std::uint64_t row_at = row.offsets[i & kLocalMask];  // next slice slot
    std::uint32_t prev_slice = kNoSlice;
    const std::uint32_t source_slice = slicer.Slice(i);
    const std::uint32_t source_bit = slicer.Bit(i);
    const std::uint64_t source_word = source_bit / 64;
    const std::uint64_t source_mask = std::uint64_t{1} << (source_bit % 64);
    for (std::uint64_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      const std::uint32_t j = neighbors[e];
      const std::uint32_t s = slicer.Slice(j);
      if (s != prev_slice) {
        row.indices[row_at++] = s;
        prev_slice = s;
      }
      const std::uint32_t bit = slicer.Bit(j);
      row.words[(row_at - 1) * width + bit / 64] |= std::uint64_t{1}
                                                    << (bit % 64);

      const SlabView& col = cols[j >> kShift];
      std::uint64_t& col_at = col.offsets[j & kLocalMask];
      if (col_last_slice[j] != source_slice) {
        col.indices[col_at++] = source_slice;
        col_last_slice[j] = source_slice;
      }
      col.words[(col_at - 1) * width + source_word] |= source_mask;
    }
  }
  // Each cursor now sits at its column's end, i.e. the next column's
  // start: shift them back up one place.
  for (const SlabView& col : cols) {
    std::copy_backward(col.offsets, col.offsets + kLocalMask + 1,
                       col.offsets + kLocalMask + 2);
    col.offsets[0] = 0;
  }
  return m;
}

MatrixPatchStats SlicedMatrix::ApplyArcEdits(std::span<const ArcEdit> edits,
                                             std::uint32_t new_num_vertices) {
  std::vector<SliceEdit> row_edits;
  std::vector<SliceEdit> col_edits;
  row_edits.reserve(edits.size());
  col_edits.reserve(edits.size());
  for (const ArcEdit& edit : edits) {
    row_edits.push_back(SliceEdit{edit.from, edit.to, edit.set});
    col_edits.push_back(SliceEdit{edit.to, edit.from, edit.set});
  }
  MatrixPatchStats stats;
  // The row store validates the whole batch before mutating; once it
  // accepts, the mirrored column batch cannot fail (the stores encode
  // the same matrix), so the two stores move together or not at all.
  stats.rows = rows_.ApplyEdits(row_edits, new_num_vertices, new_num_vertices);
  stats.cols = cols_.ApplyEdits(col_edits, new_num_vertices, new_num_vertices);
  return stats;
}

bool ChooseDirectPairLoop(std::size_t width_words, std::uint64_t store_bytes,
                          double avg_valid_slices) noexcept {
  return width_words >= kDirectMinWidthWords &&
         store_bytes > kDirectMinStoreBytes &&
         avg_valid_slices <= kDirectMaxAvgValidSlices;
}

namespace {

// Flush window of the Eq. (5) gather: 2 Ki words = 16 KiB of slice
// data per side keeps one window L1/L2-resident while still amortizing
// one kernel call over hundreds-to-thousands of slice pairs.
constexpr std::size_t kGatherFlushWords = std::size_t{1} << 11;

// Eq. (5) pair stream: valid slice pairs are gathered into a fixed
// window of in-place (a, b, width) descriptors — a descriptor is 16
// bytes regardless of slice width, so enumeration itself copies no
// slice words — and each full window runs through the zero-copy kernel
// in one call. Pair boundaries don't affect the sum, so a window may
// close mid-arc or mid-row (a single hub row can gather far past the
// L1 budget).
class PairStreamExecutor {
 public:
  PairStreamExecutor(std::size_t width, PairPathCounters* counters)
      : width_(width),
        counters_(counters),
        refs_(kGatherFlushWords / (width == 0 ? 1 : width)) {}

  void Push(const std::uint64_t* a, const std::uint64_t* b) {
#if defined(__GNUC__) || defined(__clang__)
    // Start the pair's lines toward L2 now: enumeration runs hundreds
    // of cycles ahead of the flush that consumes them, which is the
    // prefetch distance a DRAM-resident |S|=512 store needs (the flush
    // loop's own lookahead only hides L2/L3 latency). Locality hint 2
    // (L2, not L1) — a full window of wide pairs overflows L1.
    __builtin_prefetch(a, 0, 2);
    __builtin_prefetch(b, 0, 2);
    if (width_ > 1) {
      __builtin_prefetch(a + width_ - 1, 0, 2);
      __builtin_prefetch(b + width_ - 1, 0, 2);
    }
#endif
    refs_[size_] = PairRef{a, b, static_cast<std::uint32_t>(width_)};
    if (++size_ == refs_.size()) Flush();
  }

  /// Flushes the partial window and returns the pass total.
  std::uint64_t Finish() {
    Flush();
    return total_;
  }

 private:
  void Flush() {
    if (size_ == 0) return;
    total_ += AndPopcountPairsZeroCopy({refs_.data(), size_});
    if (counters_ != nullptr) counters_->zero_copy_pairs += size_;
    size_ = 0;
  }

  std::size_t width_;
  PairPathCounters* counters_;
  std::vector<PairRef> refs_;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

// The one Eq. (5) pass: rows [row_begin, row_end) of `m` against
// `cols` (m.cols() or a replica of it), where for_each_arc(i, visit)
// calls visit(j) for every arc A[i][j] the caller's rectangle/mask
// enumerates.
template <typename ForEachArc>
std::uint64_t EvaluatePass(const SlicedMatrix& m, const SlicedStore& cols,
                           std::uint32_t row_begin, std::uint32_t row_end,
                           PopcountKind kind, PairPathCounters* counters,
                           const ForEachArc& for_each_arc) {
  const SlicedStore& rows = m.rows();
  const std::size_t width = rows.words_per_slice();
  // The one measured exception, decided once per pass from the whole
  // matrix (so every shard of a partition takes the same route): a
  // wide-slice store that spills the cache AND has no slice reuse is a
  // pure cold stream, where dispatching each pair immediately during
  // enumeration lets the OoO window overlap the DRAM misses with
  // enumeration work.
  const bool direct =
      kind == PopcountKind::kBuiltin && rows.num_vectors() > 0 &&
      ChooseDirectPairLoop(width, m.HeapBytes(),
                           static_cast<double>(rows.valid_slice_count()) /
                               static_cast<double>(rows.num_vectors()));
  // Per-pair merge loop, instantiated for the direct route (the
  // kBuiltin kernel inlined into the enumeration) and for the
  // hardware-model strategies (kSwar/kLut8/kLut16 model structure, not
  // throughput).
  const auto per_pair_pass = [&](const auto& and_popcount) {
    std::uint64_t total = 0;
    std::uint64_t pairs = 0;
    for (std::uint32_t i = row_begin; i < row_end; ++i) {
      const std::span<const std::uint32_t> ri = rows.SliceIndices(i);
      for_each_arc(i, [&](std::uint32_t j) {
        ForEachCommonSlice(ri, cols.SliceIndices(j),
                           [&](std::size_t a, std::size_t b) {
                             total += and_popcount(rows.SliceWords(i, a),
                                                   cols.SliceWords(j, b));
                             ++pairs;
                           });
      });
    }
    if (direct && counters != nullptr) counters->per_pair_pairs += pairs;
    return total;
  };
  using Words = std::span<const std::uint64_t>;
  if (direct) {
    return per_pair_pass([](Words a, Words b) {
      return AndPopcountBuiltin(a.data(), b.data(), a.size());
    });
  }
  if (kind != PopcountKind::kBuiltin) {
    return per_pair_pass(
        [kind](Words a, Words b) { return AndPopcount(a, b, kind); });
  }

  // Gathered zero-copy path: one gather pass per pivot row — the row's
  // valid slices are indexed ONCE into a sparse lookup table (the
  // §IV-A row-reuse idea on the host), so each arc pays O(|Cj|)
  // lookups instead of re-merging the row's whole valid-slice list,
  // and every matched pair lands as a zero-copy descriptor.
  PairStreamExecutor exec(width, counters);
  // row_ordinal_of_slice[k] = ordinal of slice k within the current
  // pivot row, or -1. Only the row's own entries are ever written and
  // reset, so the table costs O(|Ri|) per row after one O(slots) init.
  std::vector<std::int32_t> row_ordinal_of_slice(
      static_cast<std::size_t>(rows.slices_per_vector()), -1);
  for (std::uint32_t i = row_begin; i < row_end; ++i) {
    const SlicedStore::VectorSlices row = rows.Slices(i);
    if (row.indices.empty()) continue;
    for (std::size_t a = 0; a < row.indices.size(); ++a) {
      row_ordinal_of_slice[row.indices[a]] = static_cast<std::int32_t>(a);
    }
    for_each_arc(i, [&](std::uint32_t j) {
      // Column j holds bit i (the arc exists), so it has valid slices.
      const SlicedStore::VectorSlices col = cols.Slices(j);
      for (std::size_t b = 0; b < col.indices.size(); ++b) {
        const std::int32_t a = row_ordinal_of_slice[col.indices[b]];
        if (a >= 0) {
          exec.Push(row.words + static_cast<std::size_t>(a) * width,
                    col.words + b * width);
        }
      }
    });
    for (const std::uint32_t slice : row.indices) {
      row_ordinal_of_slice[slice] = -1;
    }
  }
  return exec.Finish();
}

}  // namespace

std::uint64_t SlicedMatrix::AndPopcountAllEdges(
    PopcountKind kind, PairPathCounters* counters) const {
  return AndPopcountRect(0, num_vertices(), 0, num_vertices(), nullptr, true,
                         nullptr, kind, counters);
}

std::uint64_t SlicedMatrix::AndPopcountRect(
    std::uint32_t row_begin, std::uint32_t row_end, std::uint32_t col_begin,
    std::uint32_t col_end, const std::uint8_t* col_mask, bool mask_value,
    const SlicedStore* cols_override, PopcountKind kind,
    PairPathCounters* counters) const {
  if (row_begin > row_end || row_end > num_vertices() ||
      col_begin > col_end || col_end > num_vertices()) {
    throw std::out_of_range("SlicedMatrix::AndPopcountRect: invalid range");
  }
  const SlicedStore& cols = cols_override != nullptr ? *cols_override : cols_;
  if (cols_override != nullptr &&
      (cols.slice_bits() != slice_bits() ||
       cols.num_vectors() != cols_.num_vectors())) {
    throw std::invalid_argument(
        "SlicedMatrix::AndPopcountRect: cols_override shape mismatch");
  }
  return EvaluatePass(*this, cols, row_begin, row_end, kind, counters,
                      [&](std::uint32_t i, const auto& visit) {
                        ForEachArcInRect(i, col_begin, col_end, col_mask,
                                         mask_value, visit);
                      });
}

SliceStats SlicedMatrix::ComputeStats() const {
  SliceStats stats;
  stats.slice_bits = slice_bits();
  stats.row_valid_slices = rows_.valid_slice_count();
  stats.col_valid_slices = cols_.valid_slice_count();
  stats.row_slice_slots = rows_.total_slice_slots();
  stats.col_slice_slots = cols_.total_slice_slots();

  std::vector<bool> row_touched(rows_.valid_slice_count(), false);
  std::vector<bool> col_touched(cols_.valid_slice_count(), false);

  const std::uint32_t n = num_vertices();
  const std::uint64_t per_vector = rows_.slices_per_vector();
  for (std::uint32_t i = 0; i < n; ++i) {
    rows_.ForEachSetBit(i, [&](std::uint64_t j64) {
      const auto j = static_cast<std::uint32_t>(j64);
      ++stats.edges;
      stats.total_pairs += per_vector;
      ForEachValidPair(i, j, [&](std::uint32_t /*slice*/, std::size_t ra,
                                 std::size_t cb) {
        ++stats.valid_pairs;
        row_touched[rows_.GlobalOrdinal(i, ra)] = true;
        col_touched[cols_.GlobalOrdinal(j, cb)] = true;
      });
    });
  }
  for (const bool t : row_touched) stats.touched_row_slices += t ? 1 : 0;
  for (const bool t : col_touched) stats.touched_col_slices += t ? 1 : 0;
  return stats;
}

}  // namespace tcim::bit
