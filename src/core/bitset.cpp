#include "core/bitset.hpp"

#include <bit>
#include <sstream>
#include <stdexcept>

#include "core/simd.hpp"

namespace pacds {

namespace {
constexpr std::size_t words_for(std::size_t nbits) {
  return (nbits + DynBitset::kWordBits - 1) / DynBitset::kWordBits;
}
}  // namespace

DynBitset::DynBitset(std::size_t nbits)
    : nbits_(nbits), words_(words_for(nbits), 0) {}

void DynBitset::set(std::size_t i, bool value) {
  if (i >= nbits_) {
    throw std::out_of_range("DynBitset::set index " + std::to_string(i) +
                            " >= size " + std::to_string(nbits_));
  }
  const Word mask = Word{1} << (i % kWordBits);
  if (value) {
    words_[i / kWordBits] |= mask;
  } else {
    words_[i / kWordBits] &= ~mask;
  }
}

void DynBitset::reset_all() noexcept {
  for (auto& w : words_) w = 0;
}

void DynBitset::resize_clear(std::size_t nbits) {
  nbits_ = nbits;
  words_.assign(words_for(nbits), 0);
}

void DynBitset::set_all() noexcept {
  for (auto& w : words_) w = ~Word{0};
  clear_padding();
}

bool DynBitset::test(std::size_t i) const {
  if (i >= nbits_) {
    throw std::out_of_range("DynBitset::test index " + std::to_string(i) +
                            " >= size " + std::to_string(nbits_));
  }
  return (words_[i / kWordBits] >> (i % kWordBits)) & Word{1};
}

std::size_t DynBitset::count() const noexcept {
  return simd::popcount(words_.data(), words_.size());
}

bool DynBitset::none() const noexcept {
  return simd::is_zero(words_.data(), words_.size());
}

bool DynBitset::is_subset_of(const DynBitset& other) const {
  check_same_size(other);
  return simd::is_subset(words_.data(), other.words_.data(), words_.size());
}

bool DynBitset::is_subset_of_except(const DynBitset& other,
                                    std::size_t ignore) const {
  check_same_size(other);
  if (ignore >= nbits_) {
    throw std::out_of_range("DynBitset::is_subset_of_except index " +
                            std::to_string(ignore) + " >= size " +
                            std::to_string(nbits_));
  }
  return simd::is_subset_except(words_.data(), other.words_.data(),
                                words_.size(), ignore / kWordBits,
                                Word{1} << (ignore % kWordBits));
}

bool DynBitset::intersects(const DynBitset& other) const {
  check_same_size(other);
  return simd::intersects(words_.data(), other.words_.data(), words_.size());
}

DynBitset& DynBitset::operator|=(const DynBitset& other) {
  check_same_size(other);
  simd::or_inplace(words_.data(), other.words_.data(), words_.size());
  return *this;
}

DynBitset& DynBitset::operator&=(const DynBitset& other) {
  check_same_size(other);
  simd::and_inplace(words_.data(), other.words_.data(), words_.size());
  return *this;
}

DynBitset& DynBitset::operator^=(const DynBitset& other) {
  check_same_size(other);
  simd::xor_inplace(words_.data(), other.words_.data(), words_.size());
  return *this;
}

DynBitset& DynBitset::subtract(const DynBitset& other) {
  check_same_size(other);
  simd::andnot_inplace(words_.data(), other.words_.data(), words_.size());
  return *this;
}

std::size_t DynBitset::find_first() const noexcept {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return w * kWordBits + static_cast<std::size_t>(std::countr_zero(words_[w]));
    }
  }
  return nbits_;
}

std::size_t DynBitset::find_next(std::size_t i) const noexcept {
  ++i;
  if (i >= nbits_) return nbits_;
  std::size_t w = i / kWordBits;
  Word bits = words_[w] & (~Word{0} << (i % kWordBits));
  while (true) {
    if (bits != 0) {
      return w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
    }
    if (++w == words_.size()) return nbits_;
    bits = words_[w];
  }
}

std::string DynBitset::to_string() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for_each_set([&](std::size_t i) {
    if (!first) os << ", ";
    os << i;
    first = false;
  });
  os << '}';
  return os.str();
}

void DynBitset::check_same_size(const DynBitset& other) const {
  if (nbits_ != other.nbits_) {
    throw std::invalid_argument("DynBitset size mismatch: " +
                                std::to_string(nbits_) + " vs " +
                                std::to_string(other.nbits_));
  }
}

void DynBitset::clear_padding() noexcept {
  const std::size_t rem = nbits_ % kWordBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (Word{1} << rem) - 1;
  }
}

}  // namespace pacds
