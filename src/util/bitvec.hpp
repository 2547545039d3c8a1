// Packed bit vector used throughout the library for mask vectors, GF(2)
// matrix rows, pattern-membership sets and parallel-pattern simulation planes.
//
// The whole implementation is constexpr (header-only, C++20 constant
// evaluation over std::vector): tests/static/ proves the GF(2) identities the
// X-canceling algebra depends on — XOR self-inverse, popcount fusion,
// subset/intersection duality — as static_asserts, so a regression in these
// kernels is a build failure, not a test failure. XH_REQUIRE stays active in
// constant evaluation too: a violated precondition inside a static_assert
// refuses to compile because the throw path is not a constant expression.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace xh {

/// Fixed-size packed vector of bits with word-level bulk operations.
///
/// Semantics follow a mathematical bit vector rather than std::vector<bool>:
/// out-of-range access is a checked error, and binary operations require equal
/// sizes. Bits beyond size() inside the last word are kept zero at all times
/// so popcount/scan operations never need masking on read.
class BitVec {
 public:
  constexpr BitVec() = default;

  /// Creates a vector of @p size bits, all cleared (or all set if @p value).
  explicit constexpr BitVec(std::size_t size, bool value = false)
      : size_(size), words_(words_for(size), value ? ~0ULL : 0ULL) {
    mask_tail();
  }

  constexpr std::size_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }

  constexpr bool get(std::size_t i) const {
    XH_REQUIRE(i < size_, "BitVec::get index out of range");
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1ULL;
  }

  constexpr void set(std::size_t i, bool value = true) {
    XH_REQUIRE(i < size_, "BitVec::set index out of range");
    const std::uint64_t mask = 1ULL << (i % kWordBits);
    if (value) {
      words_[i / kWordBits] |= mask;
    } else {
      words_[i / kWordBits] &= ~mask;
    }
  }

  constexpr void clear(std::size_t i) { set(i, false); }

  constexpr void flip(std::size_t i) {
    XH_REQUIRE(i < size_, "BitVec::flip index out of range");
    words_[i / kWordBits] ^= 1ULL << (i % kWordBits);
  }

  /// Sets every bit to @p value.
  constexpr void fill(bool value) {
    for (auto& w : words_) w = value ? ~0ULL : 0ULL;
    mask_tail();
  }

  /// Number of set bits.
  constexpr std::size_t count() const {
    std::size_t total = 0;
    for (const auto w : words_) {
      total += static_cast<std::size_t>(std::popcount(w));
    }
    return total;
  }

  constexpr bool any() const {
    for (const auto w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  constexpr bool none() const { return !any(); }

  /// Index of the first set bit, or size() if none.
  constexpr std::size_t find_first() const { return find_next(0); }

  /// Index of the first set bit at or after @p from, or size() if none.
  constexpr std::size_t find_next(std::size_t from) const {
    if (from >= size_) return size_;
    std::size_t w = from / kWordBits;
    std::uint64_t cur = words_[w] & (~0ULL << (from % kWordBits));
    for (;;) {
      if (cur != 0) {
        const std::size_t bit =
            w * kWordBits + static_cast<std::size_t>(std::countr_zero(cur));
        return bit < size_ ? bit : size_;
      }
      if (++w >= words_.size()) return size_;
      cur = words_[w];
    }
  }

  /// Indices of all set bits, ascending.
  constexpr std::vector<std::size_t> set_bits() const {
    std::vector<std::size_t> out;
    out.reserve(count());
    for (std::size_t i = find_first(); i < size_; i = find_next(i + 1)) {
      out.push_back(i);
    }
    return out;
  }

  /// In-place bulk logic; all require other.size() == size().
  constexpr BitVec& operator^=(const BitVec& other) {
    XH_REQUIRE(size_ == other.size_, "BitVec size mismatch in ^=");
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] ^= other.words_[w];
    }
    return *this;
  }

  constexpr BitVec& operator&=(const BitVec& other) {
    XH_REQUIRE(size_ == other.size_, "BitVec size mismatch in &=");
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] &= other.words_[w];
    }
    return *this;
  }

  constexpr BitVec& operator|=(const BitVec& other) {
    XH_REQUIRE(size_ == other.size_, "BitVec size mismatch in |=");
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] |= other.words_[w];
    }
    return *this;
  }

  /// andnot: this &= ~other.
  constexpr BitVec& and_not(const BitVec& other) {
    XH_REQUIRE(size_ == other.size_, "BitVec size mismatch in and_not");
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] &= ~other.words_[w];
    }
    return *this;
  }

  /// True when (*this & other) has at least one set bit.
  constexpr bool intersects(const BitVec& other) const {
    XH_REQUIRE(size_ == other.size_, "BitVec size mismatch in intersects");
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if ((words_[w] & other.words_[w]) != 0) return true;
    }
    return false;
  }

  /// True when every set bit of *this is also set in @p other.
  constexpr bool is_subset_of(const BitVec& other) const {
    XH_REQUIRE(size_ == other.size_, "BitVec size mismatch in is_subset_of");
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if ((words_[w] & ~other.words_[w]) != 0) return false;
    }
    return true;
  }

  constexpr bool operator==(const BitVec& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

  /// Grows or shrinks to @p size, clearing any newly exposed bits.
  constexpr void resize(std::size_t size) {
    const bool shrinking_within_word = size < size_;
    size_ = size;
    words_.resize(words_for(size), 0ULL);
    if (shrinking_within_word) mask_tail();
  }

  /// "0"/"1" string, index 0 first — handy for tests and dumps.
  constexpr std::string to_string() const {
    std::string out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back(get(i) ? '1' : '0');
    return out;
  }

  /// Parses a "01" string (whitespace ignored).
  static constexpr BitVec from_string(const std::string& bits) {
    std::string compact;
    compact.reserve(bits.size());
    for (const char c : bits) {
      if (c == '0' || c == '1') {
        compact.push_back(c);
      } else {
        XH_REQUIRE(c == ' ' || c == '\t' || c == '\n' || c == '_',
                   "BitVec::from_string: invalid character");
      }
    }
    BitVec out(compact.size());
    for (std::size_t i = 0; i < compact.size(); ++i) {
      if (compact[i] == '1') out.set(i);
    }
    return out;
  }

  /// Direct word access for performance-sensitive consumers (simulation).
  constexpr std::size_t word_count() const { return words_.size(); }
  constexpr std::uint64_t word(std::size_t w) const { return words_[w]; }

  constexpr void set_word(std::size_t w, std::uint64_t value) {
    XH_REQUIRE(w < words_.size(), "BitVec::set_word index out of range");
    words_[w] = value;
    if (w + 1 == words_.size()) mask_tail();
  }

  /// Raw word storage (word_count() words; bits above size() in the last
  /// word are zero). The span interface of the kernel layer
  /// (src/kernels/kernels.hpp) — prefer the checked wrappers there.
  constexpr const std::uint64_t* word_data() const { return words_.data(); }

  /// Mutable raw word storage. Contract: writers must preserve the tail
  /// invariant (bits at positions >= size() stay zero). Word-wise XOR/AND/OR
  /// against another vector of the same size preserves it automatically;
  /// anything else should go through set_word(), which re-masks the tail.
  constexpr std::uint64_t* word_data() { return words_.data(); }

 private:
  static constexpr std::size_t kWordBits = 64;

  static constexpr std::size_t words_for(std::size_t bits) {
    return (bits + kWordBits - 1) / kWordBits;
  }

  constexpr void mask_tail() {
    const std::size_t rem = size_ % kWordBits;
    if (rem != 0 && !words_.empty()) {
      words_.back() &= (1ULL << rem) - 1;
    }
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Value-returning convenience operators.
constexpr BitVec operator^(BitVec lhs, const BitVec& rhs) { return lhs ^= rhs; }
constexpr BitVec operator&(BitVec lhs, const BitVec& rhs) { return lhs &= rhs; }
constexpr BitVec operator|(BitVec lhs, const BitVec& rhs) { return lhs |= rhs; }

// The fused popcount(a & b) / popcount(a & ~b) helpers are the dispatched
// xh::kernels::and_count / and_not_count (src/kernels/kernels.hpp).

}  // namespace xh
