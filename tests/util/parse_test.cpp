#include "util/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <system_error>

namespace xh {
namespace {

TEST(ParseU64, AcceptsPlainDecimals) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
}

TEST(ParseU64, RejectsJunkThatAtollAccepts) {
  // std::atoll("12abc") == 12 and std::atoll("foo") == 0 — exactly the
  // silent coercions these helpers exist to kill.
  EXPECT_THROW(parse_u64("12abc"), std::invalid_argument);
  EXPECT_THROW(parse_u64("foo"), std::invalid_argument);
  EXPECT_THROW(parse_u64(""), std::invalid_argument);
  EXPECT_THROW(parse_u64(" 7"), std::invalid_argument);
  EXPECT_THROW(parse_u64("7 "), std::invalid_argument);
  EXPECT_THROW(parse_u64("-1"), std::invalid_argument);
  EXPECT_THROW(parse_u64("+1"), std::invalid_argument);
  EXPECT_THROW(parse_u64("0x10"), std::invalid_argument);
}

TEST(ParseU64, RejectsOverflow) {
  EXPECT_THROW(parse_u64("18446744073709551616"), std::invalid_argument);
  EXPECT_THROW(parse_u64("99999999999999999999999"), std::invalid_argument);
}

TEST(ParseU64, ErrorMessageNamesTheOffendingText) {
  try {
    parse_u64("12abc");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("12abc"), std::string::npos);
  }
}

TEST(ScanU64, ReadsTheLeadingDigitsAndReportsWhereItStopped) {
  std::uint64_t v = 0;
  const std::string text = "123 45";
  const auto [ptr, ec] = scan_u64(text, v);
  EXPECT_EQ(ec, std::errc());
  EXPECT_EQ(v, 123u);
  EXPECT_EQ(ptr, text.data() + 3);
  EXPECT_EQ(scan_u64("+1", v).ec, std::errc::invalid_argument);
  EXPECT_EQ(scan_u64("-0", v).ec, std::errc::invalid_argument);
  EXPECT_EQ(scan_u64(" 1", v).ec, std::errc::invalid_argument);
  EXPECT_EQ(scan_u64("", v).ec, std::errc::invalid_argument);
  EXPECT_EQ(scan_u64("18446744073709551616", v).ec,
            std::errc::result_out_of_range);
}

TEST(ParseSize, MatchesU64) {
  EXPECT_EQ(parse_size("123"), 123u);
  EXPECT_THROW(parse_size("12.5"), std::invalid_argument);
}

TEST(ParseF64, AcceptsDecimalsAndScientific) {
  EXPECT_DOUBLE_EQ(parse_f64("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(parse_f64("1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(parse_f64("-2.5"), -2.5);
}

TEST(ParseF64, RejectsJunkNanAndInfinity) {
  EXPECT_THROW(parse_f64(""), std::invalid_argument);
  EXPECT_THROW(parse_f64("0.5x"), std::invalid_argument);
  EXPECT_THROW(parse_f64("nan"), std::invalid_argument);
  EXPECT_THROW(parse_f64("inf"), std::invalid_argument);
  EXPECT_THROW(parse_f64("1e999"), std::invalid_argument);
}

TEST(ParseF64, RejectsHexFloatsStrtodWouldAccept) {
  // strtod("0x10") == 16.0 with full consumption — the decimal contract
  // forbids it (a typo like "0x5" must not silently become 5 chains' worth
  // of density).
  EXPECT_THROW(parse_f64("0x10"), std::invalid_argument);
  EXPECT_THROW(parse_f64("0X1p3"), std::invalid_argument);
  EXPECT_THROW(parse_f64("x"), std::invalid_argument);
}

TEST(ParseF64, RejectsWhitespaceAndTrailingJunk) {
  EXPECT_THROW(parse_f64(" 0.5"), std::invalid_argument);
  EXPECT_THROW(parse_f64("0.5 "), std::invalid_argument);
  EXPECT_THROW(parse_f64("\t1.0"), std::invalid_argument);
  EXPECT_THROW(parse_f64("1.0\n"), std::invalid_argument);
  EXPECT_THROW(parse_f64("1..5"), std::invalid_argument);
  EXPECT_THROW(parse_f64("--1"), std::invalid_argument);
}

TEST(ParseU64, RejectsSignedIntoUnsignedBoundaryForms) {
  // Every way a negative value could sneak into an unsigned parameter.
  EXPECT_THROW(parse_u64("-0"), std::invalid_argument);
  EXPECT_THROW(parse_u64("-9223372036854775808"), std::invalid_argument);
  EXPECT_THROW(parse_u64("-18446744073709551615"), std::invalid_argument);
  // atoll-style wraparound text (2^64 + 5) must not alias to 5.
  EXPECT_THROW(parse_u64("18446744073709551621"), std::invalid_argument);
}

TEST(ParseU64, RejectsWhitespaceOnlyAndEmbeddedJunk) {
  EXPECT_THROW(parse_u64(" "), std::invalid_argument);
  EXPECT_THROW(parse_u64("\t"), std::invalid_argument);
  EXPECT_THROW(parse_u64("1 2"), std::invalid_argument);
  EXPECT_THROW(parse_u64(std::string("7\00", 2)), std::invalid_argument);
}

TEST(ParseSize, OverflowAtU64BoundaryStillThrows) {
  // parse_size narrows through parse_u64: the first value past the 64-bit
  // boundary must throw, and the largest in-range value must survive.
  EXPECT_EQ(parse_size("18446744073709551615"),
            static_cast<std::size_t>(UINT64_MAX));
  EXPECT_THROW(parse_size("18446744073709551616"), std::invalid_argument);
}

TEST(ParseErrors, MessagesNameTheFailureMode) {
  const auto message_of = [](const char* text) {
    try {
      parse_u64(text);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(message_of("").find("empty"), std::string::npos);
  EXPECT_NE(message_of("-1").find("sign"), std::string::npos);
  EXPECT_NE(message_of("99999999999999999999").find("overflow"),
            std::string::npos);
}

}  // namespace
}  // namespace xh
