// Sparse X-location matrix: for each scan cell that ever captures an X, the
// set of patterns under which it does.
//
// This is the exact input of the paper's partitioning algorithm (Figure 4's
// "X-value correlation analysis" table) and scales to the Table 1 workloads
// (hundreds of thousands of cells × 3000 patterns) because deterministic
// cells cost nothing.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "response/geometry.hpp"
#include "util/bitvec.hpp"

namespace xh {

class ResponseMatrix;

/// Per-cell pattern-set view of X locations.
class XMatrix {
 public:
  XMatrix() = default;
  XMatrix(ScanGeometry geometry, std::size_t num_patterns);

  const ScanGeometry& geometry() const { return geometry_; }
  std::size_t num_patterns() const { return num_patterns_; }
  std::size_t num_cells() const { return geometry_.num_cells(); }

  /// Records that @p cell captures X under @p pattern. Idempotent.
  void add_x(std::size_t cell, std::size_t pattern);

  /// Records a whole cell row at once: @p patterns (num_patterns bits, at
  /// least one set) becomes the pattern set of @p cell. Returns false, and
  /// leaves the matrix untouched, when the cell already has a row; throws
  /// std::invalid_argument on an out-of-range cell or a row of the wrong
  /// width or with no X.
  [[nodiscard]] bool add_cell(std::size_t cell, BitVec&& patterns);

  bool is_x(std::size_t cell, std::size_t pattern) const;

  /// Number of cells that capture at least one X. O(1): callers that need
  /// only the count must use this, not x_cells().size().
  std::size_t num_x_cells() const { return cells_.size(); }

  /// Cells that capture at least one X, ascending. Built and sorted fresh
  /// on every call (O(n log n)), which keeps concurrent readers safe — the
  /// previous lazily-sorted mutable cache raced under parallel reads. Call
  /// it once per pass, never per cell; a pass that also reads each cell's
  /// pattern set should use rows() instead.
  std::vector<std::size_t> x_cells() const;

  /// One X-capturing cell and its pattern set.
  struct Row {
    std::size_t cell;
    const BitVec* patterns;
  };

  /// Every X-capturing cell with its pattern set, ascending by cell: one
  /// sorted walk of the map, so a consumer that reads each row (the
  /// XMatrixStore builds) needs no patterns_of() lookup per cell. The
  /// pointers stay valid until the matrix is next mutated.
  std::vector<Row> rows() const;

  /// Pattern set of one cell (empty BitVec of num_patterns bits when the
  /// cell never captures X).
  const BitVec& patterns_of(std::size_t cell) const;

  /// X count of a cell across all patterns.
  std::size_t x_count(std::size_t cell) const;

  /// X count of a cell restricted to @p patterns.
  std::size_t x_count_in(std::size_t cell, const BitVec& patterns) const;

  std::size_t total_x() const { return total_x_; }

  double x_density() const;

  /// Number of X's inside a pattern subset (sum over cells).
  std::size_t total_x_in(const BitVec& patterns) const;

  /// Extracts X locations from a dense response matrix.
  static XMatrix from_response(const ResponseMatrix& response);

 private:
  ScanGeometry geometry_;
  std::size_t num_patterns_ = 0;
  std::size_t total_x_ = 0;
  std::unordered_map<std::size_t, BitVec> cells_;
  BitVec empty_;
};

}  // namespace xh
