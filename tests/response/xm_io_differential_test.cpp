// Differential suite for the .xm reader and writer: the library's line
// tokenizer and block writer against the istringstream reference they
// replaced (xm_io_reference.hpp). On every input both readers must give the
// same verdict and DiagKind; on success, an equal matrix and equal
// response_io.* counters. The writers must agree byte for byte. The one
// intended difference, signed tokens, has its own test.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/paper_example.hpp"
#include "inject/corruptor.hpp"
#include "response/io.hpp"
#include "workload/industrial.hpp"
#include "xm_io_reference.hpp"

namespace xh {
namespace {

struct Outcome {
  bool accepted = false;
  std::vector<DiagKind> kinds;
  XMatrix matrix;
  std::map<std::string, std::uint64_t> counters;
};

template <typename Reader>
Outcome read_with(Reader reader, const std::string& text) {
  Outcome out;
  Diagnostics diags;
  Trace trace;
  std::istringstream in(text);
  try {
    out.matrix = reader(in, &diags, &trace);
    out.accepted = true;
  } catch (const std::invalid_argument&) {
  }
  for (const Diagnostic& d : diags.records()) out.kinds.push_back(d.kind);
  for (const auto& [name, counter] : trace.counters()) {
    out.counters[name] = counter.value;
  }
  return out;
}

Outcome read_library(const std::string& text) {
  return read_with(
      [](std::istream& in, Diagnostics* d, Trace* t) {
        return read_x_matrix(in, d, t);
      },
      text);
}

Outcome read_reference(const std::string& text) {
  return read_with(
      [](std::istream& in, Diagnostics* d, Trace* t) {
        return read_x_matrix_reference(in, d, t);
      },
      text);
}

void expect_same_matrix(const XMatrix& a, const XMatrix& b) {
  EXPECT_TRUE(a.geometry() == b.geometry());
  EXPECT_EQ(a.num_patterns(), b.num_patterns());
  EXPECT_EQ(a.total_x(), b.total_x());
  ASSERT_EQ(a.x_cells(), b.x_cells());
  for (const std::size_t cell : a.x_cells()) {
    EXPECT_TRUE(a.patterns_of(cell) == b.patterns_of(cell)) << "cell " << cell;
  }
}

/// Both readers on @p text: same verdict and kinds; on success, same matrix
/// and counters. Returns the library's verdict.
bool expect_same_reading(const std::string& text) {
  const Outcome lib = read_library(text);
  const Outcome ref = read_reference(text);
  EXPECT_EQ(lib.accepted, ref.accepted);
  EXPECT_EQ(lib.kinds, ref.kinds);
  if (lib.accepted && ref.accepted) {
    expect_same_matrix(lib.matrix, ref.matrix);
    EXPECT_EQ(lib.counters, ref.counters);
  }
  return lib.accepted;
}

std::string reference_text(const XMatrix& xm) {
  std::ostringstream os;
  write_x_matrix_reference(xm, os);
  return os.str();
}

/// Writer byte identity, then a reading of that text by both readers.
void expect_round_trip(const XMatrix& xm) {
  const std::string text = x_matrix_to_string(xm);
  ASSERT_EQ(text, reference_text(xm));
  EXPECT_TRUE(expect_same_reading(text));
  expect_same_matrix(x_matrix_from_string(text), xm);
}

TEST(XmIoDifferential, WritersAgreeAndReadersAgreeOnPaperExample) {
  expect_round_trip(paper_example_x_matrix());
}

TEST(XmIoDifferential, WritersAgreeAndReadersAgreeOnScaledCktB) {
  expect_round_trip(generate_workload(scaled_profile(ckt_b_profile(), 0.2)));
}

TEST(XmIoDifferential, WritersAgreeAndReadersAgreeOnScaledCktC) {
  expect_round_trip(generate_workload(scaled_profile(ckt_c_profile(), 0.2)));
}

TEST(XmIoDifferential, WritersAgreeOnWordBoundaryPatternsAndEmptyMatrix) {
  XMatrix xm({3, 4}, 130);
  for (const std::size_t p : {0u, 63u, 64u, 127u, 128u, 129u}) xm.add_x(11, p);
  xm.add_x(0, 64);
  expect_round_trip(xm);
  expect_round_trip(XMatrix({2, 3}, 5));
}

// Header "xmatrix v1 2 3 8": cells 0..5, patterns 0..7.
TEST(XmIoDifferential, EdgeTableGetsTheSameVerdictFromBothReaders) {
  const std::string h = "xmatrix v1 2 3 8\n";
  struct Case {
    std::string text;
    bool accepted;
  };
  const std::vector<Case> cases = {
      {h + "0 1 2\n5 7\nend 3\n", true},
      {h + "0\t1\t2\n5\t7\nend 3\n", true},
      {h + "0 1 2\nend\t2\n", false},
      {"xmatrix v1 2 3 8\r\n0 1 2\r\n5 7\r\nend 3\r\n", true},
      {h + "0\v1\f2\nend 2\n", true},
      {h + "0 1\f\nend 1\v\n", true},
      {h + "0 1\n   \nend 1\n", false},
      {h + "0 1\r\n\r\nend 1\r\n", false},
      {h + "\n\n0 1\n\nend 1\n\n\n", true},
      {h + "0 1\nend 1\n \n", false},
      {h + "0 1 1 2 1\nend 2\n", true},
      {h + "3 7 1 4 0\nend 4\n", true},
      {h + " 0 1\nend 1\n", true},
      {h + "0 1\n end 1\n", false},
      {h + "00 001\nend 1\n", true},
      {h + "0 18446744073709551616\nend 1\n", false},
      {h + "18446744073709551616 1\nend 1\n", false},
      {h + "0 1\nend 18446744073709551616\n", false},
      {h + "0 1\nend 99999999999999999999999\n", false},
      {h + "1 2junk\nend 1\n", false},
      {h + "1junk 2\nend 1\n", false},
      {h + "0 1,2\nend 2\n", false},
      {h + "0 1\nend\r\n", false},
      {h + "0 1\nend\n", false},
      {h + "0 1\nend 1 \n", true},
      {h + "0 1\nend 1 junk\n", false},
      {h + "0 1\nend 1x\n", false},
      {h + "0 1\nend1\n", false},
      {h + "5 7\nend 1\n", true},
      {h + "6 0\nend 1\n", false},
      {h + "0 8\nend 1\n", false},
      {h + "6\nend 0\n", false},
      {h + "0\nend 0\n", false},
      {h + "0 1\n0 2\nend 2\n", false},
      {h + "0 1\n0 junk\nend 1\n", false},
      {h + "0 1\n0 9\nend 1\n", false},
      {h + "0 1\n0\nend 1\n", false},
      {h + "0 1\n0 2 x\nend 2\n", false},
      {h + "0 1\nend 2\n", false},
      {h + "0 1\n", false},
      {h, false},
      {h + "end 0\n", true},
      {h + "0 1\nend 1\nend 1\n", false},
      {h + "0 1\nend 1\n1 2\n", false},
      {h + std::string("0 1\0\nend 1\n", 11), false},
      {"xmatrix v1 2 3 8 extra\n0 1\nend 1\n", true},
      {"xmatrix v1 2 3 8", false},
      {"xmatrix v1 2 3", false},
      {"xmatrix v2 2 3 8\nend 0\n", false},
      {"xmatrix v1 0 3 8\nend 0\n", false},
      {"response v1 2 3 8\nend 0\n", false},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i) + ": " + cases[i].text);
    EXPECT_EQ(expect_same_reading(cases[i].text), cases[i].accepted);
  }
}

/// Small enough to parse hundreds of times under the sanitizers (52 cell
/// lines, ~10 kB), large enough to span five 64-bit pattern words per row.
std::string corruption_base() {
  WorkloadProfile profile = scaled_profile(ckt_b_profile(), 0.1);
  profile.seed = 77;
  return x_matrix_to_string(generate_workload(profile));
}

constexpr std::uint64_t kSeeds = 240;

TEST(XmIoDifferential, TruncatedFilesGetTheSameVerdict) {
  for (const std::string& text :
       {x_matrix_to_string(paper_example_x_matrix()), corruption_base()}) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      Corruptor corruptor(seed);
      const double keep =
          static_cast<double>(seed) / static_cast<double>(kSeeds);
      const std::string cut = corruptor.truncate_text(text, keep);
      SCOPED_TRACE("keep " + std::to_string(cut.size()) + " bytes");
      // Only the cut that drops just the final newline keeps the trailer.
      EXPECT_EQ(expect_same_reading(cut), cut.size() + 1 == text.size());
    }
  }
}

TEST(XmIoDifferential, GarbledFilesGetTheSameVerdict) {
  for (const std::string& text :
       {x_matrix_to_string(paper_example_x_matrix()), corruption_base()}) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      Corruptor corruptor(seed);
      const std::string bad = corruptor.garble_text(text, 1 + seed % 3);
      SCOPED_TRACE("seed " + std::to_string(seed));
      EXPECT_FALSE(expect_same_reading(bad));
    }
  }
}

TEST(XmIoDifferential, DuplicatedLinesGetTheSameVerdict) {
  for (const std::string& text :
       {x_matrix_to_string(paper_example_x_matrix()), corruption_base()}) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      Corruptor corruptor(seed);
      const std::string bad = corruptor.duplicate_line(text);
      SCOPED_TRACE("seed " + std::to_string(seed));
      EXPECT_FALSE(expect_same_reading(bad));
    }
  }
}

// The one intended difference: operator>> took a leading sign, the strict
// util/parse grammar does not.
TEST(XmIoDifferential, SignedTokensAreGarbledOnlyForTheLibrary) {
  const std::string h = "xmatrix v1 2 3 8\n";
  for (const std::string& text :
       {h + "+0 1\nend 1\n", h + "-0 1\nend 1\n", h + "0 +1\nend 1\n",
        h + "0 1\nend +1\n"}) {
    SCOPED_TRACE(text);
    EXPECT_TRUE(read_reference(text).accepted);
    const Outcome lib = read_library(text);
    EXPECT_FALSE(lib.accepted);
    EXPECT_EQ(lib.kinds, std::vector<DiagKind>{DiagKind::kGarbledInput});
  }
}

}  // namespace
}  // namespace xh
