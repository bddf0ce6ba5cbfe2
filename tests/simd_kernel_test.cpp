// Every core/simd word primitive against a per-bit reference: each expected
// value is built one bit at a time from the definition in simd.hpp, never
// from another word loop. Widths cover the empty row, sub-word rows, exact
// word multiples and the ragged tails in between; densities run from
// near-full to near-empty rows, and forced-subset inputs make sure the true
// branch of every predicate is taken too. The primitives operate on whole
// words (DynBitset keeps its padding bits clear separately), so the
// reference ranges over every bit of every word, and the in-place ops are
// compared on the full destination contents.

#include "core/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/bitset.hpp"

namespace pacds {
namespace {

using simd::Word;
using Row = std::vector<Word>;

constexpr std::size_t kWidths[] = {0, 1, 63, 64, 65, 127, 512, 1000};
constexpr int kDensities = 4;

std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

/// AND of `density + 1` draws: roughly 2^-density of the bits survive.
Row random_row(std::mt19937_64& rng, std::size_t nwords, int density) {
  Row row(nwords);
  for (auto& w : row) {
    w = rng();
    for (int k = 0; k < density; ++k) w &= rng();
  }
  return row;
}

/// `a` with every bit of `b` added, so a ⊆ result.
Row with_bits_of(Row a, const Row& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] |= b[i];
  return a;
}

// ---- Per-bit reference -----------------------------------------------------

bool bit(const Row& row, std::size_t k) {
  return ((row[k / 64] >> (k % 64)) & Word{1}) != 0;
}

void set_bit(Row& row, std::size_t k) { row[k / 64] |= Word{1} << (k % 64); }

std::size_t nbits(const Row& row) { return row.size() * 64; }

template <typename BitOp>
Row ref_combine(const Row& a, const Row& b, BitOp op) {
  Row out(a.size(), 0);
  for (std::size_t k = 0; k < nbits(a); ++k) {
    if (op(bit(a, k), bit(b, k))) set_bit(out, k);
  }
  return out;
}

/// a ⊆ b ∪ c, skipping the bits `excused` marks.
template <typename Excused>
bool ref_covered(const Row& a, const Row& b, const Row& c, Excused excused) {
  for (std::size_t k = 0; k < nbits(a); ++k) {
    if (bit(a, k) && !bit(b, k) && !bit(c, k) && !excused(k)) return false;
  }
  return true;
}

bool ref_subset(const Row& a, const Row& b) {
  const Row none(a.size(), 0);
  return ref_covered(a, b, none, [](std::size_t) { return false; });
}

bool ref_intersects(const Row& a, const Row& b) {
  for (std::size_t k = 0; k < nbits(a); ++k) {
    if (bit(a, k) && bit(b, k)) return true;
  }
  return false;
}

std::size_t ref_popcount(const Row& a) {
  std::size_t total = 0;
  for (std::size_t k = 0; k < nbits(a); ++k) {
    if (bit(a, k)) ++total;
  }
  return total;
}

// ---- Tests -----------------------------------------------------------------

TEST(SimdKernelTest, InPlaceCombinesMatchReference) {
  std::mt19937_64 rng(0xC0FFEEu);
  for (const std::size_t bits : kWidths) {
    const std::size_t nwords = words_for(bits);
    for (int density = 0; density < kDensities; ++density) {
      const Row a = random_row(rng, nwords, density);
      const Row b = random_row(rng, nwords, density);
      Row got = a;
      simd::or_inplace(got.data(), b.data(), nwords);
      EXPECT_EQ(got, ref_combine(a, b, [](bool x, bool y) { return x || y; }))
          << "or nwords=" << nwords;
      got = a;
      simd::and_inplace(got.data(), b.data(), nwords);
      EXPECT_EQ(got, ref_combine(a, b, [](bool x, bool y) { return x && y; }))
          << "and nwords=" << nwords;
      got = a;
      simd::andnot_inplace(got.data(), b.data(), nwords);
      EXPECT_EQ(got, ref_combine(a, b, [](bool x, bool y) { return x && !y; }))
          << "andnot nwords=" << nwords;
      got = a;
      simd::xor_inplace(got.data(), b.data(), nwords);
      EXPECT_EQ(got, ref_combine(a, b, [](bool x, bool y) { return x != y; }))
          << "xor nwords=" << nwords;
    }
  }
}

TEST(SimdKernelTest, PredicatesMatchReference) {
  std::mt19937_64 rng(0xBEEFu);
  for (const std::size_t bits : kWidths) {
    const std::size_t nwords = words_for(bits);
    const Row zero(nwords, 0);
    const Row ones(nwords, ~Word{0});
    for (int trial = 0; trial < 4 * kDensities; ++trial) {
      const int density = trial % kDensities;
      const Row a = random_row(rng, nwords, density);
      Row b = random_row(rng, nwords, density);
      Row c = random_row(rng, nwords, 1);
      if (trial % 4 == 0) {
        b = with_bits_of(b, a);  // a ⊆ b: the true branches are taken too
      } else if (trial % 4 == 1) {
        // a ⊆ b ∪ c with a's bits split between b and c.
        const Row split = random_row(rng, nwords, 0);
        b = with_bits_of(b, ref_combine(a, split, [](bool x, bool y) {
                           return x && y;
                         }));
        c = with_bits_of(c, ref_combine(a, split, [](bool x, bool y) {
                           return x && !y;
                         }));
      }
      const std::string where = "nwords=" + std::to_string(nwords) +
                                " trial=" + std::to_string(trial);
      EXPECT_EQ(simd::is_subset(a.data(), b.data(), nwords), ref_subset(a, b))
          << where;
      const Row* covers[] = {&c, &zero, &ones};
      for (const Row* cover : covers) {
        EXPECT_EQ(
            simd::is_subset_union(a.data(), b.data(), cover->data(), nwords),
            ref_covered(a, b, *cover, [](std::size_t) { return false; }))
            << where;
      }
      EXPECT_EQ(simd::intersects(a.data(), b.data(), nwords),
                ref_intersects(a, b))
          << where;
      EXPECT_EQ(simd::intersects(a.data(), c.data(), nwords),
                ref_intersects(a, c))
          << where;
      EXPECT_EQ(simd::popcount(a.data(), nwords), ref_popcount(a)) << where;
      EXPECT_EQ(simd::is_zero(a.data(), nwords), ref_popcount(a) == 0)
          << where;
    }
    // Degenerate rows: all-zero and all-ones.
    EXPECT_TRUE(simd::is_zero(zero.data(), nwords));
    EXPECT_EQ(simd::is_zero(ones.data(), nwords), nwords == 0);
    EXPECT_TRUE(simd::is_subset(ones.data(), ones.data(), nwords));
    EXPECT_TRUE(simd::is_subset(zero.data(), zero.data(), nwords));
    EXPECT_EQ(simd::is_subset(ones.data(), zero.data(), nwords), nwords == 0);
    EXPECT_FALSE(simd::intersects(ones.data(), zero.data(), nwords));
    EXPECT_EQ(simd::popcount(ones.data(), nwords), 64 * nwords);
    EXPECT_EQ(simd::popcount(zero.data(), nwords), 0u);
  }
}

TEST(SimdKernelTest, IsSubsetExceptAtEveryExcusedWord) {
  // For each excused word iw, probe up to three masks: the one uncovered
  // bit of `one_short` (excusing it must flip the answer to true), a bit
  // of a that b already covers (excusing it changes nothing), and a free
  // random bit. iw == nwords excuses nothing. The b rows leave zero, one
  // or many bits of a uncovered.
  std::mt19937_64 rng(0xE1CEu);
  for (const std::size_t bits : kWidths) {
    const std::size_t nwords = words_for(bits);
    for (int density = 0; density < kDensities; ++density) {
      const Row a = random_row(rng, nwords, density);
      const Row covering = with_bits_of(random_row(rng, nwords, 2), a);
      std::vector<std::size_t> members;
      for (std::size_t k = 0; k < nbits(a); ++k) {
        if (bit(a, k)) members.push_back(k);
      }
      // a ⊆ one_short except for the one bit `missing` of a.
      const std::size_t missing =
          members.empty() ? nbits(a) : members[rng() % members.size()];
      Row one_short = covering;
      if (missing < nbits(a)) {
        one_short[missing / 64] &= ~(Word{1} << (missing % 64));
      }
      const Row loose = random_row(rng, nwords, density);
      const Row* bs[] = {&covering, &one_short, &loose};
      for (const Row* b : bs) {
        for (std::size_t iw = 0; iw <= nwords; ++iw) {
          std::vector<Word> masks = {Word{1} << (rng() % 64)};
          if (missing < nbits(a) && missing / 64 == iw) {
            masks.push_back(Word{1} << (missing % 64));
          }
          if (iw < nwords && (a[iw] & (*b)[iw]) != 0) {
            masks.push_back(Word{1} << std::countr_zero(a[iw] & (*b)[iw]));
          }
          for (const Word imask : masks) {
            const bool want = ref_covered(
                a, *b, Row(nwords, 0), [&](std::size_t k) {
                  return k / 64 == iw && ((imask >> (k % 64)) & Word{1}) != 0;
                });
            EXPECT_EQ(simd::is_subset_except(a.data(), b->data(), nwords, iw,
                                             imask),
                      want)
                << "nwords=" << nwords << " iw=" << iw << " imask=" << imask;
          }
        }
      }
      if (missing < nbits(a)) {
        // The excuse exists for exactly this: one residual bit, excused.
        EXPECT_TRUE(simd::is_subset_except(a.data(), one_short.data(), nwords,
                                           missing / 64,
                                           Word{1} << (missing % 64)));
        EXPECT_FALSE(simd::is_subset(a.data(), one_short.data(), nwords));
      }
    }
  }
}

TEST(SimdKernelTest, DynBitsetOpsMatchReference) {
  // The same operations one level up, through DynBitset's glue (size
  // checks, excused-bit index split, padding).
  std::mt19937_64 rng(0x5EEDu);
  for (const std::size_t bits : kWidths) {
    if (bits == 0) continue;
    DynBitset a(bits);
    DynBitset b(bits);
    for (std::size_t i = 0; i < bits; ++i) {
      if (rng() & 1) a.set(i);
      if (rng() & 1) b.set(i);
    }
    bool subset = true;
    bool meet = false;
    std::size_t count = 0;
    for (std::size_t i = 0; i < bits; ++i) {
      if (a.test(i) && !b.test(i)) subset = false;
      if (a.test(i) && b.test(i)) meet = true;
      if (a.test(i)) ++count;
    }
    EXPECT_EQ(a.is_subset_of(b), subset);
    EXPECT_EQ(a.intersects(b), meet);
    EXPECT_EQ(a.count(), count);
    DynBitset got_or = a;
    got_or |= b;
    DynBitset got_sub = a;
    got_sub.subtract(b);
    for (std::size_t i = 0; i < bits; ++i) {
      EXPECT_EQ(got_or.test(i), a.test(i) || b.test(i)) << "bit " << i;
      EXPECT_EQ(got_sub.test(i), a.test(i) && !b.test(i)) << "bit " << i;
    }
    DynBitset covering = a;
    covering |= b;
    const std::size_t lone = rng() % bits;
    a.set(lone);
    covering.set(lone, false);
    EXPECT_FALSE(a.is_subset_of(covering));
    EXPECT_TRUE(a.is_subset_of_except(covering, lone));
  }
}

TEST(SimdKernelTest, RunStampNamesTheScalarPath) {
  EXPECT_STREQ(simd::to_string(simd::active_level()), "scalar");
}

}  // namespace
}  // namespace pacds
