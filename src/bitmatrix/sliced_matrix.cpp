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

// Σ bits(V)·|V| over the given distinct vectors V of `store` — their
// share of a probe total. Vectors the store does not hold yet weigh 0.
std::uint64_t ProbeWeight(const SlicedStore& store,
                          std::span<const std::uint32_t> vectors) {
  std::uint64_t weight = 0;
  for (const std::uint32_t v : vectors) {
    if (v >= store.num_vectors()) continue;
    const SlicedStore::VectorSlices slices = store.Slices(v);
    if (slices.indices.empty()) continue;
    weight += slices.indices.size() *
              PopcountWords({slices.words, slices.indices.size() *
                                               store.words_per_slice()},
                            PopcountKind::kBuiltin);
  }
  return weight;
}

std::vector<std::uint32_t> Distinct(std::vector<std::uint32_t> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

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
  // scratch both walks use; walk 1 also counts each column's bits.
  std::vector<std::uint32_t> col_last_slice(n, kNoSlice);

  // Walk 1: validate, and count each row's and each column's valid
  // slices into the slab offsets, and each column's bits, which the
  // probe totals weigh its slice count by. The totals accumulate in
  // locals: a per-row store into `m` may alias the offsets the walk
  // counts into, which slowed the walk measurably.
  {
    const std::vector<SlabView> cols = views(m.cols_);
    std::vector<std::uint32_t> col_bits(n, 0);
    std::uint64_t column_pivot_probes = 0;
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
        ++col_bits[j];
        if (col_last_slice[j] != source_slice) {
          ++cols[j >> kShift].offsets[(j & kLocalMask) + 1];
          col_last_slice[j] = source_slice;
        }
      }
      m.rows_.CountSlot(i) = row_valid;
      column_pivot_probes += (end - begin) * row_valid;
    }
    std::uint64_t row_pivot_probes = 0;
    for (std::uint32_t j = 0; j < n; ++j) {
      row_pivot_probes += std::uint64_t{col_bits[j]} * m.cols_.CountSlot(j);
    }
    m.row_pivot_probes_ = row_pivot_probes;
    m.column_pivot_probes_ = column_pivot_probes;
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
  std::vector<std::uint32_t> touched_rows;
  std::vector<std::uint32_t> touched_cols;
  row_edits.reserve(edits.size());
  col_edits.reserve(edits.size());
  touched_rows.reserve(edits.size());
  touched_cols.reserve(edits.size());
  for (const ArcEdit& edit : edits) {
    row_edits.push_back(SliceEdit{edit.from, edit.to, edit.set});
    col_edits.push_back(SliceEdit{edit.to, edit.from, edit.set});
    touched_rows.push_back(edit.from);
    touched_cols.push_back(edit.to);
  }
  touched_rows = Distinct(std::move(touched_rows));
  touched_cols = Distinct(std::move(touched_cols));
  const std::uint64_t old_row_weight = ProbeWeight(rows_, touched_rows);
  const std::uint64_t old_col_weight = ProbeWeight(cols_, touched_cols);
  MatrixPatchStats stats;
  // The row store validates the whole batch before mutating; once it
  // accepts, the mirrored column batch cannot fail (the stores encode
  // the same matrix), so the two stores move together or not at all.
  stats.rows = rows_.ApplyEdits(row_edits, new_num_vertices, new_num_vertices);
  stats.cols = cols_.ApplyEdits(col_edits, new_num_vertices, new_num_vertices);
  // Rows weigh into the column pivot's total and columns into the row
  // pivot's; a rejected batch has thrown above with both unchanged.
  column_pivot_probes_ =
      column_pivot_probes_ - old_row_weight + ProbeWeight(rows_, touched_rows);
  row_pivot_probes_ =
      row_pivot_probes_ - old_col_weight + ProbeWeight(cols_, touched_cols);
  return stats;
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
  explicit PairStreamExecutor(std::size_t width)
      : width_(width), refs_(kGatherFlushWords / (width == 0 ? 1 : width)) {}

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

  /// Pairs summed so far.
  [[nodiscard]] std::uint64_t pairs() const noexcept { return pairs_; }

 private:
  void Flush() {
    if (size_ == 0) return;
    total_ += AndPopcountPairsZeroCopy({refs_.data(), size_});
    pairs_ += size_;
    size_ = 0;
  }

  std::size_t width_;
  std::vector<PairRef> refs_;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t pairs_ = 0;
};

// The arcs one Eq. (5) pass enumerates: rows [row_begin, row_end) x
// columns [col_begin, col_end), filtered by the column mask as in
// SlicedMatrix::ForEachArcInRect.
struct PassRect {
  std::uint32_t row_begin;
  std::uint32_t row_end;
  std::uint32_t col_begin;
  std::uint32_t col_end;
  const std::uint8_t* col_mask;
  bool mask_value;
};

// Calls fn(q) for every vector q that an arc of `rect` pairs with
// pivot p (column j of arc A[p][j] under the row pivot, row i of arc
// A[i][p] under the column pivot). The row pivot walks row p's arcs
// (ForEachArcInRect); the column pivot walks column p's set bits in
// [row_begin, row_end) of m.cols(), which mirrors the row store bit
// for bit.
template <bool kPivotOnColumns, typename Fn>
void ForEachPivotArc(const SlicedMatrix& m, const PassRect& rect,
                     std::uint32_t p, Fn&& fn) {
  if constexpr (kPivotOnColumns) {
    const auto select = [&](std::uint64_t i) {
      fn(static_cast<std::uint32_t>(i));
    };
    if (rect.row_begin == 0 && rect.row_end == m.num_vertices()) {
      m.cols().ForEachSetBit(p, select);
    } else {
      m.cols().ForEachSetBitInRange(p, rect.row_begin, rect.row_end, select);
    }
  } else {
    m.ForEachArcInRect(p, rect.col_begin, rect.col_end, rect.col_mask,
                       rect.mask_value, fn);
  }
}

// Calls pair(pivot_words, probe_words) for every valid slice of
// `probe` that the pivot, indexed in `ordinal_of_slice`, also holds.
template <typename Pair>
void ForEachMatchedSlice(const SlicedStore::VectorSlices& pivot,
                         const std::int32_t* ordinal_of_slice,
                         const SlicedStore::VectorSlices& probe,
                         std::size_t width, Pair&& pair) {
  for (std::size_t b = 0; b < probe.indices.size(); ++b) {
    const std::int32_t a = ordinal_of_slice[probe.indices[b]];
    if (a >= 0) {
      pair(pivot.words + static_cast<std::size_t>(a) * width,
           probe.words + b * width);
    }
  }
}

// The descriptor stream of the gathered pass (see GatherPass) over the
// pivots from p on: each pivot's valid slices are indexed in
// `ordinal_of_slice`, its probes matched against them, and every
// matched pair pushed to `exec` as a (row words, column words)
// descriptor, whose prefetch window spans pivots. Stops at the first
// pivot with at least kHubPivotMinSlices valid slices and returns it
// (the end of the pivot range when there is none): hub pivots take
// HubPivotPass, which the caller runs, so that this loop holds no call
// besides the window's flush. With the hub call inside it, roadNet-CA,
// whose pivots never take the route, ran ~4% slower.
template <bool kPivotOnColumns>
[[gnu::noinline]] std::uint32_t DescriptorRun(const SlicedMatrix& m,
                                              const SlicedStore& cols,
                                              const PassRect& rect,
                                              std::uint32_t p,
                                              std::int32_t* ordinal_of_slice,
                                              PairStreamExecutor& exec) {
  const SlicedStore& pivots = kPivotOnColumns ? cols : m.rows();
  const SlicedStore& probes = kPivotOnColumns ? m.rows() : cols;
  const std::size_t width = pivots.words_per_slice();
  const std::uint32_t pivot_end = kPivotOnColumns ? rect.col_end : rect.row_end;
  for (; p < pivot_end; ++p) {
    if (kPivotOnColumns && rect.col_mask != nullptr &&
        (rect.col_mask[p] != 0) != rect.mask_value) {
      continue;
    }
    const SlicedStore::VectorSlices pivot = pivots.Slices(p);
    if (pivot.indices.empty()) continue;
    if (pivot.indices.size() >= SlicedMatrix::kHubPivotMinSlices) return p;
    for (std::size_t a = 0; a < pivot.indices.size(); ++a) {
      ordinal_of_slice[pivot.indices[a]] = static_cast<std::int32_t>(a);
    }
    ForEachPivotArc<kPivotOnColumns>(m, rect, p, [&](std::uint32_t q) {
      // An arc joins p and q, so q has valid slices.
      ForEachMatchedSlice(pivot, ordinal_of_slice, probes.Slices(q), width,
                          [&](const std::uint64_t* pivot_words,
                              const std::uint64_t* probe_words) {
                            if constexpr (kPivotOnColumns) {
                              exec.Push(probe_words, pivot_words);
                            } else {
                              exec.Push(pivot_words, probe_words);
                            }
                          });
    });
    for (const std::uint32_t slice : pivot.indices) {
      ordinal_of_slice[slice] = -1;
    }
  }
  return pivot_end;
}

// The hub-pivot route for one pivot. A hub pivot has many arcs, and
// each arc's probe vector sits behind a chain of dependent loads (slab
// pointer, slab, offsets, then indices and words). Resolving every
// probe vector of the pivot first, with its indices and words
// prefetched, lets those chains overlap instead of stalling one arc at
// a time; the matched pairs are then ANDed in place. `resolved` is the
// caller's scratch (per call, since bank shards share one matrix).
// Adds the pivot's pairs to `pairs` and returns its sum.
template <typename WalkArcs>
[[gnu::noinline]] std::uint64_t HubPivotPass(
    const SlicedStore& probes, const SlicedStore::VectorSlices& pivot,
    std::int32_t* ordinal_of_slice, const WalkArcs& walk_arcs,
    std::vector<SlicedStore::VectorSlices>& resolved, std::uint64_t& pairs) {
  const std::size_t width = probes.words_per_slice();
  for (std::size_t a = 0; a < pivot.indices.size(); ++a) {
    ordinal_of_slice[pivot.indices[a]] = static_cast<std::int32_t>(a);
  }
  resolved.clear();
  walk_arcs([&](std::uint32_t q) {
    const SlicedStore::VectorSlices slices = probes.Slices(q);
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(slices.indices.data(), 0, 3);
    __builtin_prefetch(slices.words, 0, 3);
#endif
    resolved.push_back(slices);
  });
  std::uint64_t total = 0;
  std::uint64_t matched = 0;
  for (const SlicedStore::VectorSlices& slices : resolved) {
    ForEachMatchedSlice(
        pivot, ordinal_of_slice, slices, width,
        [&](const std::uint64_t* pivot_words,
            const std::uint64_t* probe_words) {
          for (std::size_t w = 0; w < width; ++w) {
            total += static_cast<std::uint64_t>(
                std::popcount(pivot_words[w] & probe_words[w]));
          }
          ++matched;
        });
  }
  for (const std::uint32_t slice : pivot.indices) {
    ordinal_of_slice[slice] = -1;
  }
  pairs += matched;
  return total;
}

// The gathered pass, one body for both pivots: for every pivot vector
// p (row i, or column j), p's valid slices are indexed ONCE into a
// sparse lookup table (the §IV-A row-reuse idea on the host); then
// each vector q an arc pairs with p (column j of arc A[i][j], or row i)
// is probed, one table lookup per valid slice of q. Either way round,
// a matched pair sums the same (row words, column words) pair. Runs of
// pivots take the descriptor stream (DescriptorRun); each pivot with
// at least kHubPivotMinSlices valid slices that ends a run takes
// HubPivotPass. Returns the pass total and sets the pair counts of
// `pairs`. Kept out of line, like DescriptorRun: inlined beside the
// other pivot, the hot loop spilled its registers and the row pivot ran
// ~10% slower on com-youtube.
template <bool kPivotOnColumns>
[[gnu::noinline]] std::uint64_t GatherPass(const SlicedMatrix& m,
                                           const SlicedStore& cols,
                                           const PassRect& rect,
                                           PairPathCounters& pairs) {
  const SlicedStore& pivots = kPivotOnColumns ? cols : m.rows();
  const SlicedStore& probes = kPivotOnColumns ? m.rows() : cols;
  PairStreamExecutor exec(pivots.words_per_slice());
  // ordinal_of_slice[k] = ordinal of slice k within the current pivot,
  // or -1. Only the pivot's own entries are ever written and reset, so
  // the table costs O(|pivot|) per pivot after one O(slots) init.
  std::vector<std::int32_t> ordinal_of_slice(
      static_cast<std::size_t>(
          std::max(pivots.slices_per_vector(), probes.slices_per_vector())),
      -1);
  std::vector<SlicedStore::VectorSlices> resolved;
  std::uint64_t hub_total = 0;
  const std::uint32_t pivot_end = kPivotOnColumns ? rect.col_end : rect.row_end;
  for (std::uint32_t p = kPivotOnColumns ? rect.col_begin : rect.row_begin;
       (p = DescriptorRun<kPivotOnColumns>(m, cols, rect, p,
                                           ordinal_of_slice.data(), exec)) <
       pivot_end;
       ++p) {
    hub_total += HubPivotPass(
        probes, pivots.Slices(p), ordinal_of_slice.data(),
        [&](auto&& fn) { ForEachPivotArc<kPivotOnColumns>(m, rect, p, fn); },
        resolved, pairs.hub_route_pairs);
  }
  const std::uint64_t total = exec.Finish() + hub_total;
  pairs.zero_copy_pairs = exec.pairs() + pairs.hub_route_pairs;
  return total;
}

// The one Eq. (5) pass: the arcs of `rect` of `m`, ANDing rows of m
// against `cols` (m.cols() or a replica of it), gathered under whichever
// pivot probes fewer slices over the whole matrix (so every shard of a
// partition takes the same one).
std::uint64_t EvaluatePass(const SlicedMatrix& m, const SlicedStore& cols,
                           const PassRect& rect, PairPathCounters* counters) {
  const bool column_pivot = m.PrefersColumnPivot();
  PairPathCounters pairs;
  const std::uint64_t total = column_pivot
                                  ? GatherPass<true>(m, cols, rect, pairs)
                                  : GatherPass<false>(m, cols, rect, pairs);
  if (counters != nullptr) {
    if (column_pivot) pairs.column_pivot_pairs = pairs.zero_copy_pairs;
    *counters += pairs;
  }
  return total;
}

}  // namespace

std::uint64_t SlicedMatrix::AndPopcountAllEdges(
    PairPathCounters* counters) const {
  return AndPopcountRect(0, num_vertices(), 0, num_vertices(), nullptr, true,
                         nullptr, counters);
}

std::uint64_t SlicedMatrix::AndPopcountAllEdges(
    PopcountKind kind, PairPathCounters* counters) const {
  if (kind != PopcountKind::kBuiltin) {
    throw std::invalid_argument(
        "SlicedMatrix::AndPopcountAllEdges: the host pass runs kBuiltin only");
  }
  return AndPopcountAllEdges(counters);
}

std::uint64_t SlicedMatrix::AndPopcountRect(
    std::uint32_t row_begin, std::uint32_t row_end, std::uint32_t col_begin,
    std::uint32_t col_end, const std::uint8_t* col_mask, bool mask_value,
    const SlicedStore* cols_override, PairPathCounters* counters) const {
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
  return EvaluatePass(
      *this, cols,
      PassRect{row_begin, row_end, col_begin, col_end, col_mask, mask_value},
      counters);
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
