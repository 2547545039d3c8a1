#include "storage/backend_tebm.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace xh {

TebmStore::TebmStore(const XMatrix& xm)
    : geometry_(xm.geometry()),
      num_patterns_(xm.num_patterns()),
      total_x_(xm.total_x()) {
  words_per_row_ = (num_patterns_ + 63) / 64;
  const std::vector<XMatrix::Row> rows = xm.rows();
  cells_.reserve(rows.size());
  counts_.reserve(rows.size());
  row_tags_.reserve(rows.size());
  row_lits_.reserve(rows.size());
  for (const XMatrix::Row& row : rows) {
    const BitVec& pats = *row.patterns;
    XH_ASSERT(pats.word_count() == words_per_row_,
              "XMatrix row width disagrees with pattern count");
    cells_.push_back(row.cell);
    counts_.push_back(pats.count());
    row_tags_.push_back(tags_.size());
    row_lits_.push_back(lits_.size());
    for (std::size_t lo = 0; lo < words_per_row_; lo += kChunkWords) {
      encode_node(pats, lo, std::min(lo + kChunkWords, words_per_row_));
    }
  }
}

void TebmStore::encode_node(const BitVec& pats, std::size_t lo,
                            std::size_t hi) {
  bool all_zero = true;
  bool all_ones = true;
  for (std::size_t w = lo; w < hi; ++w) {
    const std::uint64_t word = pats.word(w);
    if (word != 0) all_zero = false;
    if (word != ~0ULL) all_ones = false;
  }
  if (all_zero) {
    tags_.push_back(kZero);
  } else if (all_ones) {
    tags_.push_back(kOnes);
  } else if (hi - lo == 1) {
    tags_.push_back(kLiteral);
    lits_.push_back(pats.word(lo));
  } else {
    tags_.push_back(kSplit);
    const std::size_t mid = lo + (hi - lo) / 2;
    encode_node(pats, lo, mid);
    encode_node(pats, mid, hi);
  }
}

std::size_t TebmStore::count_node(Cursor& cur, std::size_t lo, std::size_t hi,
                                  const BitVec& patterns) const {
  switch (cur.tags[cur.t++]) {
    case kZero:
      return 0;  // nothing to intersect — this is where the win lives
    case kOnes: {
      std::size_t total = 0;
      for (std::size_t w = lo; w < hi; ++w) {
        total += static_cast<std::size_t>(std::popcount(patterns.word(w)));
      }
      return total;
    }
    case kLiteral:
      return static_cast<std::size_t>(
          std::popcount(cur.lits[cur.l++] & patterns.word(lo)));
    default: {
      const std::size_t mid = lo + (hi - lo) / 2;
      const std::size_t left = count_node(cur, lo, mid, patterns);
      return left + count_node(cur, mid, hi, patterns);
    }
  }
}

void TebmStore::hash_node(Cursor& cur, std::size_t lo, std::size_t hi,
                          const BitVec& patterns, std::uint64_t* h) const {
  switch (cur.tags[cur.t++]) {
    case kZero:
      // A zero word XORs nothing but the FNV step still multiplies, or the
      // group key would diverge from the seed partitioner's set_hash.
      for (std::size_t w = lo; w < hi; ++w) *h *= 0x100000001b3ULL;
      return;
    case kOnes:
      for (std::size_t w = lo; w < hi; ++w) {
        *h ^= patterns.word(w);
        *h *= 0x100000001b3ULL;
      }
      return;
    case kLiteral:
      *h ^= cur.lits[cur.l++] & patterns.word(lo);
      *h *= 0x100000001b3ULL;
      return;
    default: {
      const std::size_t mid = lo + (hi - lo) / 2;
      hash_node(cur, lo, mid, patterns, h);
      hash_node(cur, mid, hi, patterns, h);
      return;
    }
  }
}

void TebmStore::intersect_node(Cursor& cur, std::size_t lo, std::size_t hi,
                               const BitVec& patterns, BitVec* out) const {
  switch (cur.tags[cur.t++]) {
    case kZero:
      for (std::size_t w = lo; w < hi; ++w) out->set_word(w, 0);
      return;
    case kOnes:
      for (std::size_t w = lo; w < hi; ++w) {
        out->set_word(w, patterns.word(w));
      }
      return;
    case kLiteral:
      out->set_word(lo, cur.lits[cur.l++] & patterns.word(lo));
      return;
    default: {
      const std::size_t mid = lo + (hi - lo) / 2;
      intersect_node(cur, lo, mid, patterns, out);
      intersect_node(cur, mid, hi, patterns, out);
      return;
    }
  }
}

std::size_t TebmStore::count_in(std::size_t row, const BitVec& patterns) const {
  note_count_in();
  Cursor cur = cursor_for(row);
  std::size_t total = 0;
  for (std::size_t lo = 0; lo < words_per_row_; lo += kChunkWords) {
    total +=
        count_node(cur, lo, std::min(lo + kChunkWords, words_per_row_),
                   patterns);
  }
  return total;
}

std::uint64_t TebmStore::hash_in(std::size_t row,
                                 const BitVec& patterns) const {
  note_hash_in();
  Cursor cur = cursor_for(row);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t lo = 0; lo < words_per_row_; lo += kChunkWords) {
    hash_node(cur, lo, std::min(lo + kChunkWords, words_per_row_), patterns,
              &h);
  }
  return h;
}

void TebmStore::intersect_into(std::size_t row, const BitVec& patterns,
                               BitVec* out) const {
  note_intersect();
  Cursor cur = cursor_for(row);
  out->resize(num_patterns_);
  for (std::size_t lo = 0; lo < words_per_row_; lo += kChunkWords) {
    intersect_node(cur, lo, std::min(lo + kChunkWords, words_per_row_),
                   patterns, out);
  }
}

std::uint64_t TebmStore::resident_bytes() const {
  return static_cast<std::uint64_t>(cells_.size()) * sizeof(std::size_t) +
         static_cast<std::uint64_t>(counts_.size()) * sizeof(std::size_t) +
         static_cast<std::uint64_t>(row_tags_.size()) * sizeof(std::uint64_t) +
         static_cast<std::uint64_t>(row_lits_.size()) * sizeof(std::uint64_t) +
         encoded_bytes();
}

}  // namespace xh
