// Compressed valid-slice storage (paper §IV-B).
//
// A row (or column) of the adjacency matrix is partitioned into slices
// of |S| bits; a slice is *valid* iff it contains at least one set bit,
// and only valid slices are stored: a 4-byte slice index plus |S|/8
// bytes of slice data — exactly the paper's
//   space(G) = NVS * (|S|/8 + 4) bytes
// format, which "is friendly for directly mapping onto the
// computational memory arrays".
//
// SlicedStore holds one such compressed store for *all* vectors of one
// orientation (all rows, or all columns), partitioned into refcounted
// *slabs* of kSlabVectors consecutive vectors. Within a slab the valid
// slices live in CSR-like flat arrays (contiguous per vector, so the
// gather hot path still walks plain spans); across store copies slabs
// are shared copy-on-write: copying a SlicedStore costs O(#slabs)
// shared_ptr bumps, and ApplyEdits re-materializes only the slabs the
// batch touches, leaving every untouched slab physically shared with
// all previously taken copies. This is the storage half of the
// epoch-snapshot serving layer (docs/SERVING.md): a published epoch is
// a store copy, and its memory cost over its neighbours is exactly the
// slabs its batches touched.
//
// Thread-safety: a SlicedStore value is not internally synchronized —
// concurrent readers of one *const* store are safe (slabs are
// immutable through the accessors), but ApplyEdits must be externally
// serialized against both other writers and copies being taken of the
// *same object* (runtime::StreamSession's writer lock provides this;
// already-taken copies are unaffected and stay valid).
//
// Layer: §5 bitmatrix — see docs/ARCHITECTURE.md. Units: storage in
// bytes, |S| in bits; all other fields are dimensionless counts.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "bitmatrix/bitvector.h"
#include "bitmatrix/popcount.h"
#include "obs/metrics.h"

namespace tcim::bit {

/// store.* metrics group — write-path accounting ApplyEdits folds
/// into the process registry once per batch (never per edit). The
/// matching read-side gauges (heap bytes, shared-slab ratio) live
/// with the epoch publisher in runtime::StreamMetrics, which has the
/// two store copies to compare. See docs/OBSERVABILITY.md.
struct StoreMetrics {
  obs::Counter& apply_batches;      // ApplyEdits calls
  obs::Counter& bits_patched;       // in-place word flips
  obs::Counter& slices_inserted;    // structural inserts
  obs::Counter& slices_removed;     // structural removals
  obs::Counter& slabs_cow_cloned;   // shared slabs copied before write
  obs::Counter& recompactions;      // batches that rebuilt >= 1 slab
  obs::Counter& bytes_copied;       // slab-array bytes cloned or rebuilt

  static StoreMetrics& Get();
};

/// One single-bit mutation of a stored vector (streaming updates).
/// `set == true` sets the bit at `position`, `false` clears it. Edits
/// must be real flips: setting an already-set bit (or clearing an
/// already-clear one) is a caller bookkeeping bug and throws.
struct SliceEdit {
  std::uint32_t vector = 0;
  std::uint32_t position = 0;
  bool set = true;
};

/// What one ApplyEdits call did to the store — the per-batch write
/// accounting the streaming layer folds into its ExecStats.
struct PatchStats {
  /// Bits flipped inside slices that stayed valid (in-place word edit).
  std::uint64_t bits_patched = 0;
  /// Slices that became valid (structural insert into the store).
  std::uint64_t slices_inserted = 0;
  /// Slices whose last bit was cleared (structural removal).
  std::uint64_t slices_removed = 0;
  /// COW slabs written by this batch (patched in place or rebuilt).
  std::uint64_t slabs_touched = 0;
  /// Touched slabs that were shared with a store copy (a published
  /// epoch snapshot) and had to be cloned before writing — the
  /// incremental memory cost of copy-on-write publication.
  std::uint64_t slabs_cow_cloned = 0;
  /// True when any slab had to be recompacted (a structural change —
  /// slice inserted/removed — or vector growth); false = pure in-place
  /// word patching.
  bool rebuilt = false;

  PatchStats& operator+=(const PatchStats& other) noexcept {
    bits_patched += other.bits_patched;
    slices_inserted += other.slices_inserted;
    slices_removed += other.slices_removed;
    slabs_touched += other.slabs_touched;
    slabs_cow_cloned += other.slabs_cow_cloned;
    rebuilt = rebuilt || other.rebuilt;
    return *this;
  }
};

/// Compressed slice store; see file comment.
/// Invariants: per-vector slice indices are strictly increasing; every
/// stored slice has at least one set bit; words beyond slice_bits are
/// zero. ApplyEdits preserves all three (asserted by the round-trip
/// tests against a freshly built store).
class SlicedStore {
 public:
  /// Vectors per copy-on-write slab (power of two). The granularity
  /// trade: smaller slabs share more between epochs but cost more
  /// shared_ptr bookkeeping per copy; 64 keeps the per-copy cost at
  /// n/64 pointer bumps while a k-edit batch touches at most 2k slabs.
  static constexpr std::uint32_t kSlabVectorShift = 6;
  static constexpr std::uint32_t kSlabVectors = 1u << kSlabVectorShift;

  SlicedStore() = default;

  /// Packs a CSR-style adjacency into slices.
  ///  - `num_vectors`: number of rows (or columns);
  ///  - `universe`: bit-length of each vector (≥ max position + 1);
  ///  - `offsets` (size num_vectors+1) and `positions`: per-vector
  ///    sorted, duplicate-free bit positions;
  ///  - `slice_bits`: |S|, in [1, 512].
  /// Throws std::invalid_argument on malformed input (unsorted
  /// positions, offsets not monotone, positions >= universe).
  static SlicedStore FromCsr(std::uint32_t num_vectors, std::uint64_t universe,
                             std::span<const std::uint64_t> offsets,
                             std::span<const std::uint32_t> positions,
                             std::uint32_t slice_bits);

  [[nodiscard]] std::uint32_t num_vectors() const noexcept {
    return num_vectors_;
  }
  [[nodiscard]] std::uint64_t universe() const noexcept { return universe_; }
  [[nodiscard]] std::uint32_t slice_bits() const noexcept {
    return slice_bits_;
  }
  [[nodiscard]] std::uint32_t words_per_slice() const noexcept {
    return words_per_slice_;
  }
  /// Number of slice positions per vector, i.e. ceil(universe / |S|).
  [[nodiscard]] std::uint64_t slices_per_vector() const noexcept {
    return slices_per_vector_;
  }

  /// Total number of valid slices across all vectors (the paper's NVS
  /// for this orientation).
  [[nodiscard]] std::uint64_t valid_slice_count() const noexcept {
    return slab_base_.back();
  }
  /// Total number of slice slots (valid + empty) = num_vectors *
  /// slices_per_vector; denominator of the Table IV percentage.
  [[nodiscard]] std::uint64_t total_slice_slots() const noexcept {
    return static_cast<std::uint64_t>(num_vectors_) * slices_per_vector_;
  }
  /// NVS * (|S|/8 + 4) — the paper's compressed-size formula.
  [[nodiscard]] std::uint64_t compressed_bytes() const noexcept {
    return valid_slice_count() * (slice_bits_ / 8 + 4);
  }
  /// Number of set bits across the whole store.
  [[nodiscard]] std::uint64_t set_bit_count() const noexcept;

  /// Valid-slice count of one vector.
  [[nodiscard]] std::size_t SliceCount(std::uint32_t v) const;
  /// Sorted valid slice indices of vector v.
  [[nodiscard]] std::span<const std::uint32_t> SliceIndices(
      std::uint32_t v) const;
  /// Data words of the ordinal-th valid slice of vector v
  /// (words_per_slice() words).
  [[nodiscard]] std::span<const std::uint64_t> SliceWords(
      std::uint32_t v, std::size_t ordinal) const;
  /// Store-wide ordinal of the ordinal-th valid slice of vector v;
  /// stable id in [0, valid_slice_count()), used as a cache tag.
  [[nodiscard]] std::uint64_t GlobalOrdinal(std::uint32_t v,
                                            std::size_t ordinal) const;

  /// One-lookup view of vector v's valid slices for gather loops:
  /// sorted slice indices plus the raw words base — the words of
  /// indices[k] start at words + k * words_per_slice(). `words` is
  /// meaningful only when indices is non-empty. Equivalent to
  /// combining SliceIndices(v) with per-ordinal SliceWords() calls,
  /// but with ONE bounds check and one offsets_ load for the whole
  /// vector — the per-edge column lookup of the gathered Eq. (5)
  /// gather is memory-latency-bound, so duplicate checked loads
  /// showed in the end-to-end numbers.
  struct VectorSlices {
    std::span<const std::uint32_t> indices;
    const std::uint64_t* words;
  };
  [[nodiscard]] VectorSlices Slices(std::uint32_t v) const {
    if (v >= num_vectors_) {
      throw std::out_of_range("SlicedStore::Slices: vector out of range");
    }
    const Slab& slab = *slabs_[v >> kSlabVectorShift];
    const std::uint32_t local = v & (kSlabVectors - 1);
    const std::uint64_t begin = slab.offsets[local];
    const std::uint64_t end = slab.offsets[local + 1];
    return {{slab.indices.data() + begin,
             static_cast<std::size_t>(end - begin)},
            slab.words.data() + begin * words_per_slice_};
  }

  /// O(log slices) membership test of one bit of vector v.
  [[nodiscard]] bool TestBit(std::uint32_t v, std::uint64_t position) const;

  /// Applies a batch of single-bit edits, the row-rewrite entry point
  /// of the streaming layer. `new_num_vectors` / `new_universe` allow
  /// the store to grow (never shrink) in the same pass — new vectors
  /// start empty. Edits are processed as one batch, slab by slab: when
  /// every edit of a slab lands inside a slice that stays valid, its
  /// words are patched in place (no allocation); otherwise the slab is
  /// rebuilt into fresh arrays from bulk copies of its untouched runs
  /// plus the edited slices (O(bytes of the touched slabs + edits)).
  /// Throws std::invalid_argument on: duplicate (vector, position)
  /// edits, out-of-range vector/position, shrinking dimensions, or an
  /// edit that is not a real flip (set of a set bit / clear of a clear
  /// bit) — redundant edits mean the caller's graph bookkeeping has
  /// diverged from the store, which must not go unnoticed.
  PatchStats ApplyEdits(std::span<const SliceEdit> edits,
                        std::uint32_t new_num_vectors,
                        std::uint64_t new_universe);

  /// Reconstructs the dense bit vector for v (validation/round-trip).
  [[nodiscard]] BitVector ToBitVector(std::uint32_t v) const;

  /// Calls fn(position) for every set bit of vector v with position in
  /// [lo, hi), in increasing order — the column-range arc iteration of
  /// the 2D tile executor (a tile enumerates only arcs whose target
  /// falls inside its column stripe). Seeks the first candidate slice
  /// by binary search, so a narrow range costs O(log slices + slices
  /// overlapping the range) instead of a full-vector walk.
  template <typename Fn>
  void ForEachSetBitInRange(std::uint32_t v, std::uint64_t lo,
                            std::uint64_t hi, Fn&& fn) const {
    if (lo >= hi) return;
    const VectorSlices vs = Slices(v);
    const auto first_slice = static_cast<std::uint32_t>(lo / slice_bits_);
    std::size_t k = static_cast<std::size_t>(
        std::lower_bound(vs.indices.begin(), vs.indices.end(), first_slice) -
        vs.indices.begin());
    for (; k < vs.indices.size(); ++k) {
      const std::uint64_t base =
          static_cast<std::uint64_t>(vs.indices[k]) * slice_bits_;
      if (base >= hi) break;
      const std::uint64_t* slice = vs.words + k * words_per_slice_;
      for (std::uint32_t w = 0; w < words_per_slice_; ++w) {
        const std::uint64_t word_base = base + w * 64ULL;
        if (word_base >= hi) break;
        if (word_base + 64 <= lo) continue;
        std::uint64_t word = slice[w];
        if (word_base < lo) word &= ~0ULL << (lo - word_base);
        if (hi - word_base < 64) word &= (1ULL << (hi - word_base)) - 1;
        while (word != 0) {
          const int b = std::countr_zero(word);
          fn(word_base + static_cast<std::uint64_t>(b));
          word &= word - 1;
        }
      }
    }
  }

  /// COW sub-view extraction: returns a store of the SAME shape
  /// (num_vectors, universe, slice_bits) in which the vectors listed in
  /// `keep` retain their slices and every other vector is empty — the
  /// hub-replica builder of the 2D partitioner (each bank's private
  /// working set holds just the hub columns). `keep` must be sorted,
  /// strictly increasing and in range (throws std::invalid_argument).
  /// Slabs whose valid slices are all kept are SHARED with this store
  /// (a shared_ptr bump, zero copy); slabs with nothing kept all point
  /// at one empty slab; only partially-kept slabs are rebuilt. Copies
  /// of the result stay COW exactly like copies of a full store.
  [[nodiscard]] SlicedStore ExtractVectors(
      std::span<const std::uint32_t> keep) const;

  /// Calls fn(position) for every set bit of vector v in increasing
  /// order (drives the edge iteration of Algorithm 1).
  template <typename Fn>
  void ForEachSetBit(std::uint32_t v, Fn&& fn) const {
    const VectorSlices vs = Slices(v);
    for (std::size_t k = 0; k < vs.indices.size(); ++k) {
      const std::uint64_t base =
          static_cast<std::uint64_t>(vs.indices[k]) * slice_bits_;
      const std::uint64_t* slice = vs.words + k * words_per_slice_;
      for (std::uint32_t w = 0; w < words_per_slice_; ++w) {
        std::uint64_t word = slice[w];
        while (word != 0) {
          const int b = std::countr_zero(word);
          fn(base + w * 64ULL + static_cast<std::uint64_t>(b));
          word &= word - 1;
        }
      }
    }
  }

  /// Approximate heap footprint of the store itself (diagnostics).
  /// Shared slabs are counted in full for every copy that holds them.
  [[nodiscard]] std::uint64_t HeapBytes() const noexcept;

  /// Number of COW slabs = ceil(num_vectors / kSlabVectors).
  [[nodiscard]] std::size_t slab_count() const noexcept {
    return slabs_.size();
  }

  friend std::size_t SharedSlabCount(const SlicedStore& a,
                                     const SlicedStore& b) noexcept;

 private:
  // SlicedMatrix::FromCsr builds both of its stores through Shell,
  // CountSlot and SizeSlabs, and fills them through the slabs' raw
  // arrays.
  friend class SlicedMatrix;

  /// One refcounted group of kSlabVectors consecutive vectors. The
  /// arrays are the same CSR layout the store used to hold globally,
  /// but local to the slab: offsets has kSlabVectors+1 entries
  /// (offsets[0] == 0; for vectors past num_vectors_ the trailing
  /// entries repeat the last value, so growing the store never forces
  /// a rebuild of its final slab). A slab is immutable once any copy
  /// of the owning store exists; ApplyEdits clones it first
  /// (use_count() > 1) before writing.
  struct Slab {
    std::vector<std::uint64_t> offsets;   // kSlabVectors+1, into indices
    std::vector<std::uint32_t> indices;   // valid slice index within vector
    std::vector<std::uint64_t> words;     // words_per_slice_ per valid slice

    /// Bytes held in the three arrays (sizes, not capacities): what a
    /// clone or a rebuild of this slab writes.
    [[nodiscard]] std::uint64_t ArrayBytes() const noexcept {
      return (offsets.size() + words.size()) * sizeof(std::uint64_t) +
             indices.size() * sizeof(std::uint32_t);
    }
  };

  /// Returns a uniquely-owned, writable slab s, cloning a shared one
  /// (the clone's ArrayBytes() are added to `bytes_copied`).
  Slab& WritableSlab(std::size_t s, PatchStats& stats,
                     std::uint64_t& bytes_copied);
  static std::shared_ptr<Slab> MakeEmptySlab();

  /// The CSR checks every builder makes before walking positions:
  /// slice_bits in [1, 512], offsets sized num_vectors+1 and spanning
  /// [0, num_positions]. Throws std::invalid_argument.
  static void CheckCsrShape(std::uint32_t num_vectors,
                            std::span<const std::uint64_t> offsets,
                            std::size_t num_positions,
                            std::uint32_t slice_bits);
  /// Every CSR builder counts, then fills, into the same slab layout:
  /// Shell() makes a store of the given shape whose slabs hold zeroed
  /// offsets only; the builder counts vector v's valid slices into
  /// CountSlot(v); SizeSlabs() turns those counts into per-slab
  /// offsets, allocates every slab's zeroed indices and words to match
  /// and sets slab_base_, ready to be filled in vector order. Stores
  /// built either way therefore share one layout and HeapBytes().
  static SlicedStore Shell(std::uint32_t num_vectors, std::uint64_t universe,
                           std::uint32_t slice_bits);
  std::uint64_t& CountSlot(std::uint32_t v) {
    return slabs_[v >> kSlabVectorShift]
        ->offsets[(v & (kSlabVectors - 1)) + 1];
  }
  void SizeSlabs();

  std::uint32_t num_vectors_ = 0;
  std::uint64_t universe_ = 0;
  std::uint32_t slice_bits_ = 64;
  std::uint32_t words_per_slice_ = 1;
  std::uint64_t slices_per_vector_ = 0;
  std::vector<std::shared_ptr<Slab>> slabs_;
  /// Prefix sums of per-slab valid-slice counts (size slabs_.size()+1,
  /// slab_base_[0] == 0) — keeps GlobalOrdinal O(1) and
  /// valid_slice_count() a single load. ApplyEdits shifts it by the
  /// size changes of the slabs it rebuilds.
  std::vector<std::uint64_t> slab_base_{0};
};

/// Number of slab pointers a and b share (same Slab object) — the
/// test-layer probe that COW publication really shares untouched
/// storage between epochs. Stores of different shapes share nothing.
[[nodiscard]] inline std::size_t SharedSlabCount(
    const SlicedStore& a, const SlicedStore& b) noexcept {
  const std::size_t n = std::min(a.slabs_.size(), b.slabs_.size());
  std::size_t shared = 0;
  for (std::size_t s = 0; s < n; ++s) {
    shared += a.slabs_[s] == b.slabs_[s] ? 1 : 0;
  }
  return shared;
}

/// Merges two sorted valid-slice index lists and calls fn(x, y) for
/// every slice index present in both, in increasing slice order (x and
/// y are the ordinals into `a` and `b`) — the valid-slice-pair
/// enumeration behind every Eq. (5) evaluation.
template <typename Fn>
void ForEachCommonSlice(std::span<const std::uint32_t> a,
                        std::span<const std::uint32_t> b, Fn&& fn) {
  std::size_t x = 0;
  std::size_t y = 0;
  while (x < a.size() && y < b.size()) {
    if (a[x] < b[y]) {
      ++x;
    } else if (a[x] > b[y]) {
      ++y;
    } else {
      fn(x, y);
      ++x;
      ++y;
    }
  }
}

/// Merges the valid-slice index lists of (a, va) and (b, vb) — any
/// store combination (row x row, row x col, ...) — and appends an
/// in-place (a, b, width) descriptor per matched pair to `refs`: the
/// gather half of the zero-copy Eq. (5) kernel (AndPopcountPairsZeroCopy
/// consumes the list). Callers batching several vector pairs (e.g. the
/// stream layer's 4-way wedge kernel) gather them all before ONE kernel
/// call. Returns the number of descriptors appended. The stores must
/// share slice_bits (throws std::invalid_argument).
std::size_t GatherValidPairRefs(const SlicedStore& a, std::uint32_t va,
                                const SlicedStore& b, std::uint32_t vb,
                                std::vector<PairRef>& refs);

}  // namespace tcim::bit
