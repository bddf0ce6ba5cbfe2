#pragma once
// Word-row primitives for the 64-bit rows every coverage test in the
// pipeline runs over: AND/AND-NOT/OR/XOR combines, subset and
// subset-of-union tests and popcounts. DynBitset and the dense Rule 2 pair
// test call them directly; each is a plain inline loop, so the compiler
// sees the row width at the call site.
//
// One scalar path serves every build. A dense row holds one bit per host,
// and the graphs the marking process and Rules 1/2 scan in the paper's
// runs (n <= 100, or one ~110-host tile) make rows about two words wide,
// where a vector step has nothing to amortize; DESIGN.md §11 has the
// measurements. On x86-64 the root build adds -mpopcnt, so std::popcount
// is one instruction instead of a libgcc call.
//
// Every primitive tolerates nwords == 0 (it never dereferences and returns
// its identity).

#include <bit>
#include <cstddef>
#include <cstdint>

namespace pacds::simd {

using Word = std::uint64_t;

/// The kernel path this build runs (there is one); run stamps record its
/// name.
enum class Level : std::uint8_t { kScalar = 0 };

[[nodiscard]] constexpr Level active_level() noexcept { return Level::kScalar; }

/// "scalar".
[[nodiscard]] constexpr const char* to_string(Level /*level*/) noexcept {
  return "scalar";
}

/// dst[i] |= src[i]
inline void or_inplace(Word* dst, const Word* src, std::size_t nwords) {
  for (std::size_t i = 0; i < nwords; ++i) dst[i] |= src[i];
}

/// dst[i] &= src[i]
inline void and_inplace(Word* dst, const Word* src, std::size_t nwords) {
  for (std::size_t i = 0; i < nwords; ++i) dst[i] &= src[i];
}

/// dst[i] &= ~src[i]
inline void andnot_inplace(Word* dst, const Word* src, std::size_t nwords) {
  for (std::size_t i = 0; i < nwords; ++i) dst[i] &= ~src[i];
}

/// dst[i] ^= src[i]
inline void xor_inplace(Word* dst, const Word* src, std::size_t nwords) {
  for (std::size_t i = 0; i < nwords; ++i) dst[i] ^= src[i];
}

/// true iff a[i] & ~b[i] == 0 for all i (a ⊆ b).
[[nodiscard]] inline bool is_subset(const Word* a, const Word* b,
                                    std::size_t nwords) {
  for (std::size_t i = 0; i < nwords; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

/// is_subset with one bit excused: word `iw` of the uncovered residue is
/// masked by ~imask before the zero test (Rule 1's N(v) \ {u} ⊆ N(u)).
[[nodiscard]] inline bool is_subset_except(const Word* a, const Word* b,
                                           std::size_t nwords, std::size_t iw,
                                           Word imask) {
  for (std::size_t i = 0; i < nwords; ++i) {
    Word uncovered = a[i] & ~b[i];
    if (i == iw) uncovered &= ~imask;
    if (uncovered != 0) return false;
  }
  return true;
}

/// true iff a[i] & ~(b[i] | c[i]) == 0 for all i (a ⊆ b ∪ c).
[[nodiscard]] inline bool is_subset_union(const Word* a, const Word* b,
                                          const Word* c, std::size_t nwords) {
  for (std::size_t i = 0; i < nwords; ++i) {
    if ((a[i] & ~(b[i] | c[i])) != 0) return false;
  }
  return true;
}

/// true iff a[i] & b[i] != 0 for some i.
[[nodiscard]] inline bool intersects(const Word* a, const Word* b,
                                     std::size_t nwords) {
  for (std::size_t i = 0; i < nwords; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

/// Σ popcount(a[i]).
[[nodiscard]] inline std::size_t popcount(const Word* a, std::size_t nwords) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < nwords; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i]));
  }
  return total;
}

/// true iff every a[i] == 0.
[[nodiscard]] inline bool is_zero(const Word* a, std::size_t nwords) {
  for (std::size_t i = 0; i < nwords; ++i) {
    if (a[i] != 0) return false;
  }
  return true;
}

}  // namespace pacds::simd
