// Plain-text serialization for response data, so X-location matrices and
// captured responses can move between tools (and into/out of the CLI).
//
// XMatrix format (sparse; one line per X-capturing cell, then a trailer that
// makes truncation detectable):
//   xmatrix v1 <num_chains> <chain_length> <num_patterns>
//   <cell> <pattern> <pattern> ...
//   ...
//   end <total_x>
// Token grammar of the cell and trailer lines: tokens are separated by runs
// of C-locale whitespace (space, \t, \v, \f, \r; so CRLF files load), and
// every number is one or more unsigned decimal digits fitting in 64 bits —
// the util/parse grammar, so a sign ("+7", "-0") is garbled input. The
// trailer line starts with "end " exactly. Empty lines are skipped; a
// whitespace-only line is a malformed cell line. Patterns within a line may
// come in any order and repeat. The writer emits one space between tokens,
// ascending patterns and '\n' line ends.
//
// ResponseMatrix format (dense; one row string per pattern, chars 0/1/X):
//   response v1 <num_chains> <chain_length> <num_patterns>
//   01X10...
//   ...
//
// Readers are strict: duplicate cell records, rows after the last pattern,
// garbled fields and mid-file truncation all raise std::invalid_argument
// with distinct messages, and stream-level I/O failure (badbit) is
// distinguished from clean EOF. Passing a Diagnostics collector additionally
// records a machine-readable kind for every failure before it is thrown.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/trace.hpp"
#include "response/response_matrix.hpp"
#include "response/x_matrix.hpp"
#include "util/diagnostics.hpp"

namespace xh {

void write_x_matrix(const XMatrix& xm, std::ostream& out);
/// The optional trace receives a "read_xm" span and, on success, the
/// response_io.* counters (lines parsed, cell records, X entries); nullptr
/// means no instrumentation.
[[nodiscard]] XMatrix read_x_matrix(std::istream& in,
                                    Diagnostics* diags = nullptr,
                                    Trace* trace = nullptr);

void write_response(const ResponseMatrix& rm, std::ostream& out);
[[nodiscard]] ResponseMatrix read_response(std::istream& in,
                                           Diagnostics* diags = nullptr,
                                           Trace* trace = nullptr);

/// String conveniences (used by tests and the CLI).
[[nodiscard]] std::string x_matrix_to_string(const XMatrix& xm);
[[nodiscard]] XMatrix x_matrix_from_string(const std::string& text,
                                           Diagnostics* diags = nullptr,
                                           Trace* trace = nullptr);
[[nodiscard]] std::string response_to_string(const ResponseMatrix& rm);
[[nodiscard]] ResponseMatrix response_from_string(
    const std::string& text, Diagnostics* diags = nullptr,
    Trace* trace = nullptr);

}  // namespace xh
