#include "storage/backend_csr.hpp"

#include "kernels/kernels.hpp"
#include "storage/backend_words.hpp"
#include "util/check.hpp"

namespace xh {

CsrStore::CsrStore(const XMatrix& xm)
    : geometry_(xm.geometry()),
      num_patterns_(xm.num_patterns()),
      total_x_(xm.total_x()) {
  // BitVec packs 64 bits per word; every row shares one width.
  words_per_row_ = (num_patterns_ + 63) / 64;
  const std::vector<XMatrix::Row> rows = xm.rows();
  cells_.reserve(rows.size());
  counts_.reserve(rows.size());
  words_.reserve(rows.size() * words_per_row_);
  const auto popcount = kernels::active().popcount_words;
  for (const XMatrix::Row& row : rows) {
    XH_ASSERT(row.patterns->word_count() == words_per_row_,
              "XMatrix row width disagrees with pattern count");
    const std::uint64_t* src = row.patterns->word_data();
    cells_.push_back(row.cell);
    counts_.push_back(popcount(src, words_per_row_));
    words_.insert(words_.end(), src, src + words_per_row_);
  }
}

std::size_t CsrStore::count_in(std::size_t row, const BitVec& patterns) const {
  note_count_in();
  // Fused popcount(row & patterns) through the dispatched kernel table
  // (scalar reference / AVX2 / AVX-512).
  return kernels::active().and_count_words(
      row_words(row), patterns.word_data(), words_per_row_);
}

std::uint64_t CsrStore::hash_in(std::size_t row, const BitVec& patterns) const {
  note_hash_in();
  return row_words::hash(row_words(row), patterns.word_data(),
                         words_per_row_);
}

void CsrStore::intersect_into(std::size_t row, const BitVec& patterns,
                              BitVec* out) const {
  note_intersect();
  out->resize(num_patterns_);
  // Tail-safe raw write: patterns' tail bits are zero, so the AND's are too.
  kernels::active().and_words_into(out->word_data(), row_words(row),
                                   patterns.word_data(), words_per_row_);
}

void CsrStore::count_in_rows(const std::uint32_t* rows, std::size_t n,
                             const BitVec& patterns,
                             std::size_t* counts) const {
  note_count_in(n);
  row_words::count_rows(words_.data(), words_per_row_, rows, n,
                        patterns.word_data(), counts);
}

void CsrStore::hash_in_rows(const std::uint32_t* rows, std::size_t n,
                            const BitVec& patterns,
                            std::uint64_t* hashes) const {
  note_hash_in(n);
  row_words::hash_rows(words_.data(), words_per_row_, rows, n,
                       patterns.word_data(), hashes);
}

std::uint64_t CsrStore::resident_bytes() const {
  return static_cast<std::uint64_t>(cells_.size()) * sizeof(std::size_t) +
         static_cast<std::uint64_t>(counts_.size()) * sizeof(std::size_t) +
         static_cast<std::uint64_t>(words_.size()) * sizeof(std::uint64_t);
}

}  // namespace xh
