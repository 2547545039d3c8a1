#include "xm_io_reference.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_set>

#include "util/check.hpp"

namespace xh {
namespace {

/// Records a structured diagnostic (when a collector is attached), then
/// throws — serialized-input damage is always a hard parse failure; the
/// collector adds the machine-readable kind and location for callers that
/// need to classify it.
[[noreturn]] void format_error(Diagnostics* diags, DiagKind kind,
                               const std::string& what) {
  diag_report(diags, DiagSeverity::kError, kind, "response io", what);
  throw std::invalid_argument("response io: " + what);
}

ScanGeometry read_header(std::istream& in, const char* magic,
                         std::size_t& num_patterns, Diagnostics* diags) {
  std::string word;
  std::string version;
  ScanGeometry geo;
  if (!(in >> word >> version >> geo.num_chains >> geo.chain_length >>
        num_patterns)) {
    if (in.bad()) {
      format_error(diags, DiagKind::kStreamFailure,
                   "stream I/O failure while reading header (badbit set)");
    }
    format_error(diags, DiagKind::kTruncatedInput, "truncated header");
  }
  if (word != magic) {
    format_error(diags, DiagKind::kGarbledInput,
                 "expected '" + std::string(magic) + "'");
  }
  if (version != "v1") {
    format_error(diags, DiagKind::kGarbledInput,
                 "unsupported version " + version);
  }
  if (geo.num_chains == 0 || geo.chain_length == 0 || num_patterns == 0) {
    format_error(diags, DiagKind::kGarbledInput, "degenerate geometry");
  }
  return geo;
}

}  // namespace

void write_x_matrix_reference(const XMatrix& xm, std::ostream& out) {
  out << "xmatrix v1 " << xm.geometry().num_chains << ' '
      << xm.geometry().chain_length << ' ' << xm.num_patterns() << '\n';
  for (const std::size_t cell : xm.x_cells()) {
    out << cell;
    for (const std::size_t p : xm.patterns_of(cell).set_bits()) {
      out << ' ' << p;
    }
    out << '\n';
  }
  out << "end " << xm.total_x() << '\n';
}

XMatrix read_x_matrix_reference(std::istream& in, Diagnostics* diags,
                                Trace* trace) {
  std::size_t num_patterns = 0;
  const ScanGeometry geo = read_header(in, "xmatrix", num_patterns, diags);
  XMatrix xm(geo, num_patterns);
  std::string line;
  std::getline(in, line);  // finish the header line
  std::unordered_set<std::size_t> seen_cells;
  bool saw_trailer = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    obs_count(trace, "response_io.lines_parsed");
    if (saw_trailer) {
      format_error(diags, DiagKind::kTrailingGarbage,
                   "content after 'end' trailer: " + line);
    }
    std::istringstream row(line);
    if (line.compare(0, 4, "end ") == 0 || line == "end") {
      std::string word;
      std::string extra;
      std::uint64_t declared_total = 0;
      row >> word >> declared_total;
      if (row.fail() || (row >> extra)) {
        format_error(diags, DiagKind::kGarbledInput,
                     "malformed trailer: " + line);
      }
      if (declared_total != xm.total_x()) {
        format_error(
            diags, DiagKind::kTruncatedInput,
            "trailer declares " + std::to_string(declared_total) +
                " X's but " + std::to_string(xm.total_x()) +
                " were read — cell records lost or duplicated in transit");
      }
      saw_trailer = true;
      continue;
    }
    std::size_t cell = 0;
    if (!(row >> cell)) {
      format_error(diags, DiagKind::kGarbledInput,
                   "malformed cell line: " + line);
    }
    if (!seen_cells.insert(cell).second) {
      format_error(diags, DiagKind::kDuplicateRecord,
                   "cell " + std::to_string(cell) + " recorded twice");
    }
    obs_count(trace, "response_io.cell_records");
    std::size_t pattern = 0;
    bool any = false;
    while (row >> pattern) {
      try {
        xm.add_x(cell, pattern);  // bounds-checked by XMatrix
      } catch (const std::invalid_argument& e) {
        format_error(diags, DiagKind::kGarbledInput, e.what());
      }
      obs_count(trace, "response_io.x_entries");
      any = true;
    }
    if (!any) {
      format_error(diags, DiagKind::kGarbledInput,
                   "cell with no patterns: " + line);
    }
    if (!row.eof()) {
      format_error(diags, DiagKind::kGarbledInput,
                   "trailing garbage: " + line);
    }
  }
  if (in.bad()) {
    format_error(diags, DiagKind::kStreamFailure,
                 "stream I/O failure while reading cell records "
                 "(badbit set)");
  }
  if (!saw_trailer) {
    format_error(diags, DiagKind::kTruncatedInput,
                 "missing 'end' trailer — input truncated");
  }
  return xm;
}

}  // namespace xh
