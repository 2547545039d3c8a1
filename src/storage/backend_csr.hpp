// CSR snapshot backend: the default XMatrixStore (DESIGN.md §12).
//
// This is the original engine-layer XMatrixView moved behind the storage
// interface, byte for byte in behavior: one heap-allocated BitVec per cell
// in the source XMatrix is frozen into CSR-style contiguous storage,
//
//   cells_   [r]                      cell id of row r (ascending)
//   counts_  [r]                      popcount of row r (precomputed)
//   words_   [r*W .. r*W + W)         row r's pattern-membership words
//
// so a sweep over rows walks one linear array instead of chasing pointers
// through hash buckets, and per-cell X counts cost nothing. The store is an
// immutable value: concurrent readers need no synchronization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "response/geometry.hpp"
#include "response/x_matrix.hpp"
#include "storage/x_matrix_store.hpp"
#include "util/bitvec.hpp"

namespace xh {

class CsrStore final : public XMatrixStore {
 public:
  /// Snapshots @p xm in one sorted walk of its rows, into arrays sized
  /// once. O(x_cells × pattern words); the source matrix can be discarded
  /// or mutated afterwards without affecting the store.
  explicit CsrStore(const XMatrix& xm);

  const char* backend_name() const override { return "csr"; }
  const ScanGeometry& geometry() const override { return geometry_; }
  std::size_t num_patterns() const override { return num_patterns_; }
  std::uint64_t total_x() const override { return total_x_; }

  std::size_t num_rows() const override { return cells_.size(); }
  std::size_t cell_id(std::size_t row) const override { return cells_[row]; }
  std::size_t x_count(std::size_t row) const override { return counts_[row]; }

  std::size_t count_in(std::size_t row,
                       const BitVec& patterns) const override;
  std::uint64_t hash_in(std::size_t row,
                        const BitVec& patterns) const override;
  void intersect_into(std::size_t row, const BitVec& patterns,
                      BitVec* out) const override;
  void count_in_rows(const std::uint32_t* rows, std::size_t n,
                     const BitVec& patterns,
                     std::size_t* counts) const override;
  void hash_in_rows(const std::uint32_t* rows, std::size_t n,
                    const BitVec& patterns,
                    std::uint64_t* hashes) const override;

  // CSR-specific extras (word-level tests and the mmap builder reuse the
  // exact snapshot layout).
  std::size_t words_per_row() const { return words_per_row_; }
  const std::uint64_t* row_words(std::size_t row) const {
    return words_.data() + row * words_per_row_;
  }

 protected:
  std::uint64_t resident_bytes() const override;

 private:
  ScanGeometry geometry_;
  std::size_t num_patterns_ = 0;
  std::size_t words_per_row_ = 0;
  std::uint64_t total_x_ = 0;
  std::vector<std::size_t> cells_;
  std::vector<std::size_t> counts_;
  std::vector<std::uint64_t> words_;
};

}  // namespace xh
