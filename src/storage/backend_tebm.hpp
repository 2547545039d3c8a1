// Tree-encoded bitmap backend: compressed in-RAM XMatrixStore.
//
// Industrial X matrices are sparse (a few percent X density) but the CSR
// snapshot spends a full 64-bit word on every 64 patterns of every row.
// TebmStore instead encodes each row as a forest of small binary trees, one
// tree per kChunkWords-word chunk of the pattern axis (256 patterns — the
// granularity the paper's pattern partitions carve the axis at, so a
// partition-restricted probe touches only the chunks its patterns live in;
// this is the partition-of-tree-masks idiom from the tree-encoded-bitmap
// literature applied to pattern partitions). Each tree node covers a word
// range and is one tag byte:
//
//   0  every word in the range is all-zero   (no payload)
//   1  every word in the range is all-ones   (no payload)
//   2  single literal word                   (one word in the literal pool)
//   3  split: left half then right half follow in pre-order
//
// Tag bytes and literal words live in two shared pools with per-row start
// offsets; decoding walks the row's tags in pre-order with a local cursor,
// so concurrent readers (the engine's thread-pool fan-out) share nothing
// mutable. A fully-zero chunk costs one byte instead of 32; at the 2–5% X
// densities of the workload generator most chunks are exactly that.
//
// Probe semantics are bit-identical to CsrStore: count_in skips zero
// subtrees outright, while hash_in still folds every word through the
// FNV-1a step (a zero word XORs nothing but MUST still multiply, because
// the seed partitioner's set_hash does).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "response/geometry.hpp"
#include "response/x_matrix.hpp"
#include "storage/x_matrix_store.hpp"
#include "util/bitvec.hpp"

namespace xh {

class TebmStore final : public XMatrixStore {
 public:
  /// Words of the pattern axis covered by one top-level tree (256 patterns).
  static constexpr std::size_t kChunkWords = 4;

  /// Freezes and compresses @p xm in one sorted walk of its rows.
  /// O(x_cells × pattern words) once; the source matrix is independent
  /// afterwards.
  explicit TebmStore(const XMatrix& xm);

  const char* backend_name() const override { return "tebm"; }
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

  /// Compression diagnostics: encoded bytes (tags + literals) vs the CSR
  /// word payload the same rows would occupy.
  std::uint64_t encoded_bytes() const {
    return static_cast<std::uint64_t>(tags_.size()) +
           static_cast<std::uint64_t>(lits_.size()) * sizeof(std::uint64_t);
  }
  std::uint64_t csr_payload_bytes() const {
    return static_cast<std::uint64_t>(cells_.size()) * words_per_row_ *
           sizeof(std::uint64_t);
  }

 protected:
  std::uint64_t resident_bytes() const override;

 private:
  enum : std::uint8_t { kZero = 0, kOnes = 1, kLiteral = 2, kSplit = 3 };

  /// Pre-order decode cursor over one row's slice of the shared pools.
  struct Cursor {
    const std::uint8_t* tags;
    const std::uint64_t* lits;
    std::size_t t = 0;
    std::size_t l = 0;
  };

  void encode_node(const BitVec& pats, std::size_t lo, std::size_t hi);
  std::size_t count_node(Cursor& cur, std::size_t lo, std::size_t hi,
                         const BitVec& patterns) const;
  void hash_node(Cursor& cur, std::size_t lo, std::size_t hi,
                 const BitVec& patterns, std::uint64_t* h) const;
  void intersect_node(Cursor& cur, std::size_t lo, std::size_t hi,
                      const BitVec& patterns, BitVec* out) const;
  Cursor cursor_for(std::size_t row) const {
    return Cursor{tags_.data() + row_tags_[row], lits_.data() + row_lits_[row]};
  }

  ScanGeometry geometry_;
  std::size_t num_patterns_ = 0;
  std::size_t words_per_row_ = 0;
  std::uint64_t total_x_ = 0;
  std::vector<std::size_t> cells_;
  std::vector<std::size_t> counts_;
  std::vector<std::uint8_t> tags_;    // shared tag pool, rows back to back
  std::vector<std::uint64_t> lits_;   // shared literal-word pool
  std::vector<std::uint64_t> row_tags_;  // per-row start into tags_
  std::vector<std::uint64_t> row_lits_;  // per-row start into lits_
};

}  // namespace xh
