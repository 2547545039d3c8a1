// Test-only reference for the .xm text format: the istringstream reader and
// per-integer ostream writer that response/io.cpp replaced with its line
// tokenizer and block writer. Kept verbatim so xm_io_differential_test.cpp
// can require the library to give the same bytes, verdicts, diagnostic
// kinds, matrices and response_io.* counters.
#pragma once

#include <iosfwd>

#include "obs/trace.hpp"
#include "response/x_matrix.hpp"
#include "util/diagnostics.hpp"

namespace xh {

void write_x_matrix_reference(const XMatrix& xm, std::ostream& out);

/// Accepts signed tokens ("+7", "-0"), which the library rejects; every
/// other input gets the library's verdict and DiagKind.
[[nodiscard]] XMatrix read_x_matrix_reference(std::istream& in,
                                              Diagnostics* diags = nullptr,
                                              Trace* trace = nullptr);

}  // namespace xh
