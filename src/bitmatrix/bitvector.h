// Dense dynamic bit vector.
//
// Used for the dense adjacency rows of small graphs (Fig. 2-style
// walkthroughs, the trace(A^3)/6 reference) and as the ground truth the
// sliced representation is validated against.
//
// Layer: §5 bitmatrix — see docs/ARCHITECTURE.md.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "bitmatrix/popcount.h"

namespace tcim::bit {

/// Fixed-length vector of bits backed by 64-bit words. Bits beyond
/// size() in the last word are kept zero (class invariant), so
/// word-level operations never see garbage tail bits.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::uint64_t size);

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::uint64_t word_count() const noexcept {
    return words_.size();
  }

  [[nodiscard]] bool Get(std::uint64_t pos) const;
  void Set(std::uint64_t pos);
  void Clear(std::uint64_t pos);
  void Assign(std::uint64_t pos, bool value);
  /// Sets every bit to zero, keeping the size.
  void Reset() noexcept;

  /// Number of set bits.
  [[nodiscard]] std::uint64_t Count(
      PopcountKind kind = PopcountKind::kBuiltin) const noexcept;

  /// this &= other (sizes must match).
  void AndWith(const BitVector& other);
  /// this |= other (sizes must match).
  void OrWith(const BitVector& other);
  /// this ^= other (sizes must match).
  void XorWith(const BitVector& other);

  /// popcount(this & other) without materializing the intersection —
  /// the software analogue of one full-row Eq. (5) evaluation. The
  /// caller-selected strategy is honoured (it used to be silently
  /// dropped in favour of kBuiltin; regression-tested via the kLut8
  /// invocation counter).
  [[nodiscard]] std::uint64_t AndCount(
      const BitVector& other,
      PopcountKind kind = PopcountKind::kBuiltin) const;

  /// Calls `fn(pos)` for each set bit, in increasing position order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (std::uint64_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        fn(wi * 64 + static_cast<std::uint64_t>(bit));
        w &= w - 1;
      }
    }
  }

  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }
  /// Mutable word access for bulk loads; caller must respect the
  /// zero-tail invariant (Normalize() re-establishes it).
  [[nodiscard]] std::span<std::uint64_t> mutable_words() noexcept {
    return words_;
  }
  /// Clears any bits at positions >= size() in the last word.
  void Normalize() noexcept;

  [[nodiscard]] bool operator==(const BitVector& other) const = default;

 private:
  void CheckSameSize(const BitVector& other) const;

  std::uint64_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace tcim::bit
