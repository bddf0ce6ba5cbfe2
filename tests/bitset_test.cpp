// Unit tests for DynBitset: construction, bit ops, set algebra, iteration.

#include "core/bitset.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace pacds {
namespace {

TEST(BitsetTest, DefaultConstructedIsEmpty) {
  DynBitset bits;
  EXPECT_EQ(bits.size(), 0u);
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_TRUE(bits.none());
}

TEST(BitsetTest, SizedConstructionAllClear) {
  DynBitset bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_EQ(bits.count(), 0u);
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(bits.test(i));
}

TEST(BitsetTest, SetAndTest) {
  DynBitset bits(100);
  bits.set(0);
  bits.set(63);
  bits.set(64);
  bits.set(99);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(63));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(99));
  EXPECT_FALSE(bits.test(1));
  EXPECT_EQ(bits.count(), 4u);
}

TEST(BitsetTest, SetFalseClears) {
  DynBitset bits(10);
  bits.set(5);
  bits.set(5, false);
  EXPECT_FALSE(bits.test(5));
}

TEST(BitsetTest, ResetClearsBit) {
  DynBitset bits(10);
  bits.set(3);
  bits.reset(3);
  EXPECT_FALSE(bits.test(3));
  EXPECT_TRUE(bits.none());
}

TEST(BitsetTest, OutOfRangeThrows) {
  DynBitset bits(10);
  EXPECT_THROW(bits.set(10), std::out_of_range);
  EXPECT_THROW((void)bits.test(10), std::out_of_range);
  EXPECT_THROW((void)bits.test(1000), std::out_of_range);
}

TEST(BitsetTest, SetAllRespectsSize) {
  DynBitset bits(70);
  bits.set_all();
  EXPECT_EQ(bits.count(), 70u);
  bits.reset_all();
  EXPECT_TRUE(bits.none());
}

TEST(BitsetTest, SetAllOnWordBoundary) {
  DynBitset bits(128);
  bits.set_all();
  EXPECT_EQ(bits.count(), 128u);
}

TEST(BitsetTest, AnyNone) {
  DynBitset bits(65);
  EXPECT_TRUE(bits.none());
  EXPECT_FALSE(bits.any());
  bits.set(64);
  EXPECT_TRUE(bits.any());
  EXPECT_FALSE(bits.none());
}

TEST(BitsetTest, SubsetBasic) {
  DynBitset a(100);
  DynBitset b(100);
  a.set(10);
  a.set(90);
  b.set(10);
  b.set(90);
  b.set(50);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
}

TEST(BitsetTest, EmptyIsSubsetOfAnything) {
  DynBitset empty(64);
  DynBitset full(64);
  full.set_all();
  EXPECT_TRUE(empty.is_subset_of(full));
  EXPECT_TRUE(empty.is_subset_of(empty));
}

TEST(BitsetTest, SizeMismatchThrows) {
  DynBitset a(10);
  DynBitset b(11);
  EXPECT_THROW((void)a.is_subset_of(b), std::invalid_argument);
  EXPECT_THROW(a |= b, std::invalid_argument);
  EXPECT_THROW((void)a.intersects(b), std::invalid_argument);
}

TEST(BitsetTest, Intersects) {
  DynBitset a(128);
  DynBitset b(128);
  a.set(100);
  b.set(101);
  EXPECT_FALSE(a.intersects(b));
  b.set(100);
  EXPECT_TRUE(a.intersects(b));
}

TEST(BitsetTest, UnionOperator) {
  DynBitset a(70);
  DynBitset b(70);
  a.set(1);
  b.set(69);
  const DynBitset u = a | b;
  EXPECT_TRUE(u.test(1));
  EXPECT_TRUE(u.test(69));
  EXPECT_EQ(u.count(), 2u);
}

TEST(BitsetTest, IntersectionOperator) {
  DynBitset a(70);
  DynBitset b(70);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  const DynBitset i = a & b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(2));
}

TEST(BitsetTest, XorOperator) {
  DynBitset a(10);
  DynBitset b(10);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  a ^= b;
  EXPECT_TRUE(a.test(1));
  EXPECT_FALSE(a.test(2));
  EXPECT_TRUE(a.test(3));
}

TEST(BitsetTest, Subtract) {
  DynBitset a(10);
  DynBitset b(10);
  a.set(1);
  a.set(2);
  b.set(2);
  a.subtract(b);
  EXPECT_TRUE(a.test(1));
  EXPECT_FALSE(a.test(2));
}

TEST(BitsetTest, Equality) {
  DynBitset a(10);
  DynBitset b(10);
  EXPECT_EQ(a, b);
  a.set(5);
  EXPECT_NE(a, b);
  b.set(5);
  EXPECT_EQ(a, b);
}

TEST(BitsetTest, FindFirst) {
  DynBitset bits(200);
  EXPECT_EQ(bits.find_first(), 200u);
  bits.set(150);
  EXPECT_EQ(bits.find_first(), 150u);
  bits.set(3);
  EXPECT_EQ(bits.find_first(), 3u);
}

TEST(BitsetTest, FindNext) {
  DynBitset bits(200);
  bits.set(3);
  bits.set(64);
  bits.set(199);
  EXPECT_EQ(bits.find_next(3), 64u);
  EXPECT_EQ(bits.find_next(64), 199u);
  EXPECT_EQ(bits.find_next(199), 200u);
  EXPECT_EQ(bits.find_next(0), 3u);
}

TEST(BitsetTest, ForEachSetAscending) {
  DynBitset bits(300);
  const std::vector<std::size_t> expected{0, 63, 64, 127, 128, 299};
  for (const auto i : expected) bits.set(i);
  std::vector<std::size_t> seen;
  bits.for_each_set([&seen](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(BitsetTest, ToString) {
  DynBitset bits(10);
  EXPECT_EQ(bits.to_string(), "{}");
  bits.set(1);
  bits.set(4);
  EXPECT_EQ(bits.to_string(), "{1, 4}");
}

TEST(BitsetTest, CopySemantics) {
  DynBitset a(10);
  a.set(1);
  DynBitset b = a;
  b.set(2);
  EXPECT_TRUE(a.test(1));
  EXPECT_FALSE(a.test(2));
  EXPECT_TRUE(b.test(2));
}

TEST(BitsetTest, SubsetAcrossManyWords) {
  DynBitset a(1000);
  DynBitset b(1000);
  for (std::size_t i = 0; i < 1000; i += 7) {
    a.set(i);
    b.set(i);
  }
  EXPECT_TRUE(a.is_subset_of(b));
  a.set(999);
  EXPECT_FALSE(a.is_subset_of(b));
}

}  // namespace
}  // namespace pacds
