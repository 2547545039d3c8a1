#include "util/parse.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace xh {
namespace {

[[noreturn]] void bad_number(const std::string& text, const char* why) {
  throw std::invalid_argument("not a valid number: '" + text + "' (" + why +
                              ")");
}

}  // namespace

std::uint64_t parse_u64(const std::string& text) {
  if (text.empty()) bad_number(text, "empty");
  // scan_u64 rejects signs too; checking first gives a clearer message.
  if (text[0] == '-' || text[0] == '+') bad_number(text, "sign not allowed");
  std::uint64_t value = 0;
  const auto [ptr, ec] = scan_u64(text, value);
  if (ec == std::errc::result_out_of_range) bad_number(text, "overflow");
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    bad_number(text, "not an integer");
  }
  return value;
}

std::size_t parse_size(const std::string& text) {
  const std::uint64_t value = parse_u64(text);
  if (value > std::numeric_limits<std::size_t>::max()) {
    bad_number(text, "overflow");
  }
  return static_cast<std::size_t>(value);
}

double parse_f64(const std::string& text) {
  if (text.empty()) bad_number(text, "empty");
  // strtod skips leading whitespace and accepts hexadecimal floats
  // ("0x10" == 16.0); both violate the strict decimal contract, and neither
  // is caught by the full-consumption check below.
  if (std::isspace(static_cast<unsigned char>(text[0])) != 0) {
    bad_number(text, "leading whitespace");
  }
  for (const char c : text) {
    if (c == 'x' || c == 'X') bad_number(text, "hex not allowed");
  }
  // strtod is used instead of from_chars<double> for toolchain portability;
  // the full-consumption and range checks restore strictness.
  errno = 0;
  char* end = nullptr;
  // This IS the strict wrapper the rule points everyone at; the
  // full-consumption and range checks below restore strictness.
  // xh-lint: allow(XH-PARSE-001)
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || end == text.c_str()) {
    bad_number(text, "not a number");
  }
  if (errno == ERANGE) bad_number(text, "out of range");
  if (!(value == value) ||
      value == std::numeric_limits<double>::infinity() ||
      value == -std::numeric_limits<double>::infinity()) {
    bad_number(text, "not finite");
  }
  return value;
}

}  // namespace xh
