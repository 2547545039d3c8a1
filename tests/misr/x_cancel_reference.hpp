// Test-only reference for the X-canceling MISR: the BitVec/Gf2Matrix
// session and the per-cell run_x_canceling that misr/x_cancel.cpp replaced
// with its fixed-word session and strip-folding feed. Kept as it was so
// x_cancel_differential_test.cpp can require the library to give the same
// XCancelResult, Diagnostics records and xcancel.* counters.
#pragma once

#include <cstddef>
#include <vector>

#include "misr/x_cancel.hpp"

namespace xh {

/// The former XCancelSession: symbolic rows as growable BitVecs, a fresh
/// row vector per shift cycle, and each stop's X-dependency rows copied
/// into a Gf2Matrix for kernels::x_free_combinations.
class XCancelSessionReference {
 public:
  explicit XCancelSessionReference(MisrConfig cfg,
                                   Diagnostics* diags = nullptr,
                                   Trace* trace = nullptr);

  void shift(const std::vector<Lv>& slice);
  const XCancelResult& finish();
  void reset();
  void install_combination_tamper(XCancelSession::CombinationTamper hook);

 private:
  void extract(bool final_flush);
  std::size_t stop_threshold() const;

  MisrConfig cfg_;
  std::vector<std::size_t> taps_;
  Lfsr concrete_;
  std::vector<BitVec> xdep_;
  std::size_t segment_x_ = 0;
  std::size_t deficit_ = 0;
  XCancelResult result_;
  bool finished_ = false;
  Diagnostics* diags_ = nullptr;
  Trace* trace_ = nullptr;
  XCancelSession::CombinationTamper tamper_;
};

/// The former run_x_canceling: one ResponseMatrix::get per cell per shift
/// cycle, folded chain by chain with lv_xor (chain c feeds stage c mod m).
[[nodiscard]] XCancelResult run_x_canceling_reference(
    const ResponseMatrix& response, MisrConfig cfg,
    Diagnostics* diags = nullptr, Trace* trace = nullptr);

}  // namespace xh
