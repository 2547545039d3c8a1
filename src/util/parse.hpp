// Strict numeric parsing for untrusted text (CLI arguments, file fields).
//
// The std::atoll/atof family silently maps junk to 0 and saturates on
// overflow, which turns a typo like `--chains foo` into a degenerate-but-
// plausible run. The parse_* helpers require the whole string to be consumed
// and throw std::invalid_argument with the offending text on any failure.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

namespace xh {

/// The one strict unsigned grammar: one or more decimal digits (no sign,
/// whitespace or prefix) whose value fits in 64 bits. Reads such a number
/// from the front of @p text into @p value, with std::from_chars semantics:
/// ptr is one past the last digit, ec is std::errc::invalid_argument when
/// @p text does not start with a digit and std::errc::result_out_of_range
/// on overflow. The caller decides what may follow the digits (parse_u64:
/// nothing; the .xm reader: whitespace). Non-throwing and inline, for hot
/// readers.
[[nodiscard]] inline std::from_chars_result scan_u64(
    std::string_view text, std::uint64_t& value) noexcept {
  // from_chars accepts no '+', whitespace or locale digits, and for an
  // unsigned type no '-' either — exactly the strictness we want.
  return std::from_chars(text.data(), text.data() + text.size(), value, 10);
}

/// Parses a non-negative decimal integer. Rejects empty strings, signs,
/// trailing junk and values that do not fit in 64 bits.
std::uint64_t parse_u64(const std::string& text);

/// parse_u64 narrowed to std::size_t (identical on 64-bit platforms).
std::size_t parse_size(const std::string& text);

/// Parses a finite decimal floating-point value (whole string consumed;
/// rejects NaN, infinities and out-of-range magnitudes).
double parse_f64(const std::string& text);

}  // namespace xh
