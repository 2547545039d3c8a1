#include "response/io.hpp"

#include <bit>
#include <charconv>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>

#include "util/check.hpp"
#include "util/parse.hpp"

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

/// C-locale isspace: space, \t, \n, \v, \f and \r.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Cursor over the numbers of one line. A number token is scan_u64's
/// digits followed by whitespace or the end of the line.
class Tokens {
 public:
  explicit Tokens(std::string_view line, std::size_t from = 0)
      : line_(line), pos_(from) {}

  /// Skips whitespace; true while a token remains.
  bool more() {
    while (pos_ < line_.size() && is_space(line_[pos_])) ++pos_;
    return pos_ < line_.size();
  }

  /// Reads the token at the cursor (call after more()); false when it is
  /// not a number.
  bool number(std::uint64_t& value) {
    const std::string_view rest = line_.substr(pos_);
    const auto [ptr, ec] = scan_u64(rest, value);
    const auto used = static_cast<std::size_t>(ptr - rest.data());
    if (ec != std::errc() || (used < rest.size() && !is_space(rest[used]))) {
      return false;
    }
    pos_ += used;
    return true;
  }

 private:
  std::string_view line_;
  std::size_t pos_ = 0;
};

/// Clean-EOF / truncation / badbit triage after a failed getline.
[[noreturn]] void missing_data_error(std::istream& in, Diagnostics* diags,
                                     const std::string& what) {
  if (in.bad()) {
    format_error(diags, DiagKind::kStreamFailure,
                 "stream I/O failure (badbit set) — " + what);
  }
  format_error(diags, DiagKind::kTruncatedInput, what);
}

}  // namespace

void write_x_matrix(const XMatrix& xm, std::ostream& out) {
  // Numbers are formatted with to_chars into one buffer that goes to the
  // stream in blocks, instead of one ostream insertion per integer.
  constexpr std::size_t kBlockBytes = std::size_t{1} << 16;
  std::string buf;
  buf.reserve(2 * kBlockBytes);
  // Appends @p sep then @p value, in one append.
  const auto put = [&buf](char sep, std::uint64_t value) {
    char chars[21];  // the separator, then up to 20 digits
    chars[0] = sep;
    buf.append(chars, std::to_chars(chars + 1, chars + 21, value).ptr);
  };
  buf += "xmatrix v1";
  put(' ', xm.geometry().num_chains);
  put(' ', xm.geometry().chain_length);
  put(' ', xm.num_patterns());
  for (const std::size_t cell : xm.x_cells()) {
    put('\n', cell);
    const BitVec& row = xm.patterns_of(cell);
    for (std::size_t i = 0; i < row.word_count(); ++i) {
      for (std::uint64_t bits = row.word(i); bits != 0; bits &= bits - 1) {
        put(' ', i * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
    if (buf.size() >= kBlockBytes) {
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  buf += "\nend";
  put(' ', xm.total_x());
  buf += '\n';
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

XMatrix read_x_matrix(std::istream& in, Diagnostics* diags, Trace* trace) {
  const ScopedSpan span(trace, "read_xm");
  std::size_t num_patterns = 0;
  const ScanGeometry geo = read_header(in, "xmatrix", num_patterns, diags);
  XMatrix xm(geo, num_patterns);
  std::string line;
  std::getline(in, line);  // finish the header line
  std::uint64_t lines_parsed = 0;
  std::uint64_t cell_records = 0;
  std::uint64_t x_entries = 0;
  bool saw_trailer = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines_parsed;
    if (saw_trailer) {
      format_error(diags, DiagKind::kTrailingGarbage,
                   "content after 'end' trailer: " + line);
    }
    if (line.compare(0, 4, "end ") == 0 || line == "end") {
      Tokens trailer(line, 3);  // past "end"
      std::uint64_t declared_total = 0;
      if (!trailer.more() || !trailer.number(declared_total) ||
          trailer.more()) {
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
    Tokens row(line);
    std::uint64_t cell = 0;
    if (!row.more() || !row.number(cell)) {
      format_error(diags, DiagKind::kGarbledInput,
                   "malformed cell line: " + line);
    }
    // A second record of a cell is a duplicate however the rest of its
    // line reads, so the duplicate check wins over every later complaint.
    const auto bad_row = [&](const std::string& what) {
      if (cell < geo.num_cells() && xm.patterns_of(cell).any()) {
        format_error(diags, DiagKind::kDuplicateRecord,
                     "cell " + std::to_string(cell) + " recorded twice");
      }
      format_error(diags, DiagKind::kGarbledInput, what);
    };
    BitVec patterns(num_patterns);
    std::uint64_t entries = 0;
    while (row.more()) {
      std::uint64_t pattern = 0;
      if (!row.number(pattern)) {
        bad_row(entries == 0 ? "cell with no patterns: " + line
                             : "trailing garbage: " + line);
      }
      if (pattern >= num_patterns) {
        bad_row("pattern index out of range: " + line);
      }
      patterns.set(pattern);
      ++entries;
    }
    if (entries == 0) bad_row("cell with no patterns: " + line);
    if (cell >= geo.num_cells()) bad_row("cell index out of range: " + line);
    if (!xm.add_cell(cell, std::move(patterns))) {
      format_error(diags, DiagKind::kDuplicateRecord,
                   "cell " + std::to_string(cell) + " recorded twice");
    }
    ++cell_records;
    x_entries += entries;
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
  // Batched once per call. A matrix with no X leaves the per-record counters
  // unregistered, as it did when every record bumped its own counter.
  obs_count(trace, "response_io.lines_parsed", lines_parsed);
  if (cell_records != 0) {
    obs_count(trace, "response_io.cell_records", cell_records);
    obs_count(trace, "response_io.x_entries", x_entries);
  }
  return xm;
}

void write_response(const ResponseMatrix& rm, std::ostream& out) {
  out << "response v1 " << rm.geometry().num_chains << ' '
      << rm.geometry().chain_length << ' ' << rm.num_patterns() << '\n';
  for (std::size_t p = 0; p < rm.num_patterns(); ++p) {
    out << rm.row_string(p) << '\n';
  }
}

ResponseMatrix read_response(std::istream& in, Diagnostics* diags,
                             Trace* trace) {
  std::size_t num_patterns = 0;
  const ScanGeometry geo = read_header(in, "response", num_patterns, diags);
  ResponseMatrix rm(geo, num_patterns);
  std::string line;
  std::getline(in, line);
  for (std::size_t p = 0; p < num_patterns; ++p) {
    if (!std::getline(in, line)) {
      missing_data_error(in, diags,
                         "expected " + std::to_string(num_patterns) +
                             " pattern rows, got " + std::to_string(p));
    }
    obs_count(trace, "response_io.lines_parsed");
    obs_count(trace, "response_io.pattern_rows");
    if (line.size() != geo.num_cells()) {
      format_error(diags, DiagKind::kGarbledInput,
                   "row width mismatch at pattern " + std::to_string(p));
    }
    for (std::size_t c = 0; c < line.size(); ++c) {
      try {
        rm.set(p, c, lv_from_char(line[c]));
      } catch (const std::invalid_argument& e) {
        format_error(diags, DiagKind::kGarbledInput,
                     "pattern " + std::to_string(p) + ": " + e.what());
      }
    }
  }
  // Anything non-empty after the last declared pattern is suspicious:
  // either the header undercounts or rows were duplicated in transit.
  while (std::getline(in, line)) {
    if (!line.empty()) {
      format_error(diags, DiagKind::kTrailingGarbage,
                   "content after the last pattern row: " + line);
    }
  }
  if (in.bad()) {
    format_error(diags, DiagKind::kStreamFailure,
                 "stream I/O failure while reading pattern rows "
                 "(badbit set)");
  }
  return rm;
}

std::string x_matrix_to_string(const XMatrix& xm) {
  std::ostringstream os;
  write_x_matrix(xm, os);
  return os.str();
}

XMatrix x_matrix_from_string(const std::string& text, Diagnostics* diags,
                             Trace* trace) {
  std::istringstream is(text);
  return read_x_matrix(is, diags, trace);
}

std::string response_to_string(const ResponseMatrix& rm) {
  std::ostringstream os;
  write_response(rm, os);
  return os.str();
}

ResponseMatrix response_from_string(const std::string& text,
                                    Diagnostics* diags, Trace* trace) {
  std::istringstream is(text);
  return read_response(is, diags, trace);
}

}  // namespace xh
