#pragma once
// Dynamic, word-packed bitset tuned for the set-algebra the CDS rules need:
// subset tests, unions, and covered-by-union-of-two tests over node
// neighborhoods. Unlike std::vector<bool>, the word representation makes a
// subset test a handful of AND/CMP instructions per 64 nodes.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pacds {

/// Fixed-size-at-construction bitset over indices [0, size()).
///
/// All binary operations require equal sizes; violations throw
/// std::invalid_argument so misuse is caught in tests rather than silently
/// truncating.
class DynBitset {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  DynBitset() = default;

  /// Constructs a bitset holding `nbits` bits, all clear.
  explicit DynBitset(std::size_t nbits);

  /// Number of bits this set ranges over (not the number of set bits).
  [[nodiscard]] std::size_t size() const noexcept { return nbits_; }

  /// Sets bit `i` to `value`. Throws std::out_of_range on bad index.
  void set(std::size_t i, bool value = true);

  /// Clears bit `i`.
  void reset(std::size_t i) { set(i, false); }

  /// Clears every bit.
  void reset_all() noexcept;

  /// Resizes to `nbits` bits, all clear. Never allocates when the word
  /// capacity already suffices (hot-loop workspaces call this every round).
  void resize_clear(std::size_t nbits);

  /// Sets every bit in [0, size()).
  void set_all() noexcept;

  /// Returns bit `i`. Throws std::out_of_range on bad index.
  [[nodiscard]] bool test(std::size_t i) const;

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept;

  /// True iff no bit is set.
  [[nodiscard]] bool none() const noexcept;

  /// True iff at least one bit is set.
  [[nodiscard]] bool any() const noexcept { return !none(); }

  /// True iff every bit of *this is also set in `other`.
  [[nodiscard]] bool is_subset_of(const DynBitset& other) const;

  /// True iff every bit of *this except possibly bit `ignore` is set in
  /// `other` (i.e. *this \ {ignore} ⊆ other). `ignore` must be < size().
  /// This is Rule 1's coverage test N(v) \ {u} ⊆ N(u) as a handful of
  /// AND/CMP instructions per 64 nodes.
  [[nodiscard]] bool is_subset_of_except(const DynBitset& other,
                                         std::size_t ignore) const;

  /// True iff *this and `other` share at least one set bit.
  [[nodiscard]] bool intersects(const DynBitset& other) const;

  DynBitset& operator|=(const DynBitset& other);
  DynBitset& operator&=(const DynBitset& other);
  DynBitset& operator^=(const DynBitset& other);

  /// Removes from *this every bit set in `other`.
  DynBitset& subtract(const DynBitset& other);

  friend DynBitset operator|(DynBitset lhs, const DynBitset& rhs) {
    lhs |= rhs;
    return lhs;
  }
  friend DynBitset operator&(DynBitset lhs, const DynBitset& rhs) {
    lhs &= rhs;
    return lhs;
  }

  bool operator==(const DynBitset& other) const = default;

  /// Index of the lowest set bit, or size() if none.
  [[nodiscard]] std::size_t find_first() const noexcept;

  /// Index of the lowest set bit strictly greater than `i`, or size() if none.
  [[nodiscard]] std::size_t find_next(std::size_t i) const noexcept;

  /// Calls `fn(index)` for every set bit in ascending order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      Word bits = words_[w];
      while (bits != 0) {
        const auto bit = static_cast<std::size_t>(__builtin_ctzll(bits));
        fn(w * kWordBits + bit);
        bits &= bits - 1;
      }
    }
  }

  /// Calls `fn(index)` for every set bit in [begin, min(end, size())) in
  /// ascending order — the shard-local view of for_each_set used by the
  /// parallel pipeline passes.
  template <typename Fn>
  void for_each_set_in_range(std::size_t begin, std::size_t end,
                             Fn&& fn) const {
    if (end > nbits_) end = nbits_;
    if (begin >= end) return;
    const std::size_t wfirst = begin / kWordBits;
    const std::size_t wlast = (end - 1) / kWordBits;
    for (std::size_t w = wfirst; w <= wlast; ++w) {
      Word bits = words_[w];
      if (w == wfirst) bits &= ~Word{0} << (begin % kWordBits);
      if (w == wlast && end % kWordBits != 0) {
        bits &= (Word{1} << (end % kWordBits)) - 1;
      }
      while (bits != 0) {
        const auto bit = static_cast<std::size_t>(__builtin_ctzll(bits));
        fn(w * kWordBits + bit);
        bits &= bits - 1;
      }
    }
  }

  /// Read-only view of the packed words (padding bits beyond size() are
  /// zero). Lets hot kernels run word-parallel scans — e.g. the dense
  /// Rule 2 pair test — without going through per-bit accessors.
  [[nodiscard]] std::span<const Word> words() const noexcept { return words_; }

  /// "{1, 4, 7}"-style rendering, useful in test failure messages.
  [[nodiscard]] std::string to_string() const;

 private:
  void check_same_size(const DynBitset& other) const;
  void clear_padding() noexcept;

  std::size_t nbits_ = 0;
  std::vector<Word> words_;
};

}  // namespace pacds
