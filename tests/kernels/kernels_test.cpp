// Differential suite for the dispatched kernel layer: every backend the
// running CPU can execute must be bit-identical to the constexpr scalar
// reference (backend_scalar.hpp / gf2_ref::*) on randomized inputs,
// including the tail-mask and odd-span edges, and the M4RM elimination must
// reproduce naive tracked Gauss-Jordan exactly — same reduced rows, same
// combination vectors, same rank — on rank-deficient matrices too.
//
// CI runs this under ASan/UBSan (the sanitizer test legs build the whole
// tree), which doubles as an out-of-bounds probe on the SIMD tilings.
#include "kernels/kernels.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "gf2/matrix.hpp"
#include "kernels/backend_scalar.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace xh {
namespace {

std::vector<kernels::Isa> supported_isas() {
  std::vector<kernels::Isa> isas;
  for (const kernels::Isa isa :
       {kernels::Isa::kScalar, kernels::Isa::kAvx2, kernels::Isa::kAvx512}) {
    if (kernels::isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

std::uint64_t random_word(Rng& rng) {
  std::uint64_t w = 0;
  for (int chunk = 0; chunk < 4; ++chunk) {
    w = (w << 16) | rng.below(1u << 16);
  }
  return w;
}

std::vector<std::uint64_t> random_words(Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) {
    // Mix extreme and generic words so carry paths and all-ones lanes in
    // the SIMD popcount see coverage.
    const std::uint64_t pick = rng.below(8);
    w = pick == 0 ? 0ULL : pick == 1 ? ~0ULL : random_word(rng);
  }
  return words;
}

// ---- Word-span backends vs the scalar reference ---------------------------

TEST(KernelsDifferential, CountKernelsMatchScalarOnEverySpanSize) {
  Rng rng(2024);
  for (const kernels::Isa isa : supported_isas()) {
    SCOPED_TRACE(kernels::isa_name(isa));
    const kernels::Kernels& k = kernels::table_for(isa);
    // Sizes straddle the AVX2 (4-word) and AVX-512 (8-word) tile widths:
    // every sub-tile span 1..7 (the AVX-512 masked tail alone) and 47, the
    // row width at 3000 patterns (five tiles plus a 7-word tail).
    for (const std::size_t n :
         {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 11u, 15u, 16u, 17u, 31u,
          32u, 33u, 47u, 63u, 64u, 65u, 100u}) {
      const auto a = random_words(rng, n);
      const auto b = random_words(rng, n);
      EXPECT_EQ(k.popcount_words(a.data(), n),
                kernels::scalar::popcount_words(a.data(), n));
      EXPECT_EQ(k.and_count_words(a.data(), b.data(), n),
                kernels::scalar::and_count_words(a.data(), b.data(), n));
      EXPECT_EQ(k.and_not_count_words(a.data(), b.data(), n),
                kernels::scalar::and_not_count_words(a.data(), b.data(), n));
    }
  }
}

TEST(KernelsDifferential, MutatingKernelsMatchScalarOnEverySpanSize) {
  Rng rng(77);
  for (const kernels::Isa isa : supported_isas()) {
    SCOPED_TRACE(kernels::isa_name(isa));
    const kernels::Kernels& k = kernels::table_for(isa);
    for (const std::size_t n : {0u, 1u, 3u, 4u, 7u, 8u, 9u, 17u, 33u, 90u}) {
      const auto a = random_words(rng, n);
      const auto b = random_words(rng, n);

      auto got = a;
      auto want = a;
      k.xor_words(got.data(), b.data(), n);
      kernels::scalar::xor_words(want.data(), b.data(), n);
      EXPECT_EQ(got, want);

      std::vector<std::uint64_t> got_and(n, 0xfeedULL);
      std::vector<std::uint64_t> want_and(n, 0xfeedULL);
      k.and_words_into(got_and.data(), a.data(), b.data(), n);
      kernels::scalar::and_words_into(want_and.data(), a.data(), b.data(), n);
      EXPECT_EQ(got_and, want_and);

      // Aliased form (dst == a), the shape BitVec::operator&= uses.
      auto got_alias = a;
      auto want_alias = a;
      k.and_words_into(got_alias.data(), got_alias.data(), b.data(), n);
      kernels::scalar::and_words_into(want_alias.data(), want_alias.data(),
                                      b.data(), n);
      EXPECT_EQ(got_alias, want_alias);
    }
  }
}

// ---- BitVec wrappers ------------------------------------------------------

TEST(KernelsBitVec, WrappersMatchNaiveFormulationUnderEveryIsa) {
  Rng rng(555);
  const kernels::Isa entry = kernels::active().isa;
  for (const kernels::Isa isa : supported_isas()) {
    SCOPED_TRACE(kernels::isa_name(isa));
    ASSERT_TRUE(kernels::select(isa));
    for (int iter = 0; iter < 30; ++iter) {
      const std::size_t n = 1 + rng.below(300);
      BitVec a(n);
      BitVec b(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.chance(0.4)) a.set(i);
        if (rng.chance(0.4)) b.set(i);
      }
      EXPECT_EQ(kernels::and_count(a, b), (a & b).count());
      BitVec diff = a;
      diff.and_not(b);
      EXPECT_EQ(kernels::and_not_count(a, b), diff.count());
      EXPECT_EQ(kernels::popcount(a), a.count());

      BitVec x = a;
      kernels::xor_into(x, b);
      EXPECT_TRUE(x == (a ^ b));

      BitVec meet;
      kernels::and_into(meet, a, b);
      EXPECT_TRUE(meet == (a & b));
    }
  }
  ASSERT_TRUE(kernels::select(entry));
}

TEST(KernelsBitVec, WrappersRejectMismatchedSizes) {
  EXPECT_THROW(kernels::and_count(BitVec(4), BitVec(5)),
               std::invalid_argument);
  EXPECT_THROW(kernels::and_not_count(BitVec(4), BitVec(5)),
               std::invalid_argument);
  BitVec dst(4);
  EXPECT_THROW(kernels::xor_into(dst, BitVec(5)), std::invalid_argument);
  EXPECT_THROW(kernels::and_into(dst, BitVec(4), BitVec(5)),
               std::invalid_argument);
}

// Constant evaluation must run the scalar reference — the property that
// keeps the static_assert proofs in tests/static/ attached to the new API.
constexpr bool wrappers_work_in_constant_evaluation() {
  const BitVec a = BitVec::from_string("1011011");
  const BitVec b = BitVec::from_string("1101001");
  if (kernels::and_count(a, b) != 3) return false;
  if (kernels::and_not_count(a, b) != 2) return false;
  if (kernels::popcount(a) != 5) return false;
  BitVec x = a;
  kernels::xor_into(x, b);
  if (x != (a ^ b)) return false;
  const Gf2Matrix m = Gf2Matrix::from_strings({"110", "011", "101"});
  if (kernels::eliminate(m).rank != 2) return false;
  if (kernels::x_free_combinations(m).size() != 1) return false;
  return kernels::solve(m, BitVec(3)).has_value();
}
static_assert(wrappers_work_in_constant_evaluation(),
              "kernels wrappers must run the scalar reference when constant-"
              "evaluated");

// ---- Dispatch plumbing ----------------------------------------------------

TEST(KernelsDispatch, ParseAndNameRoundTrip) {
  for (const kernels::Isa isa :
       {kernels::Isa::kAuto, kernels::Isa::kScalar, kernels::Isa::kAvx2,
        kernels::Isa::kAvx512}) {
    kernels::Isa parsed = kernels::Isa::kAuto;
    ASSERT_TRUE(kernels::parse_isa(kernels::isa_name(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  kernels::Isa parsed = kernels::Isa::kAvx2;
  EXPECT_FALSE(kernels::parse_isa("sse9", &parsed));
  EXPECT_EQ(parsed, kernels::Isa::kAvx2);  // untouched on failure
}

TEST(KernelsDispatch, SelectInstallsSupportedTables) {
  const kernels::Isa entry = kernels::active().isa;
  for (const kernels::Isa isa : supported_isas()) {
    ASSERT_TRUE(kernels::select(isa));
    EXPECT_EQ(kernels::active().isa, isa);
    EXPECT_STREQ(kernels::active().name, kernels::isa_name(isa));
  }
  // kAuto resolves to the best supported tier.
  ASSERT_TRUE(kernels::select(kernels::Isa::kAuto));
  EXPECT_EQ(kernels::active().isa, kernels::detect_best());
  ASSERT_TRUE(kernels::select(entry));
}

TEST(KernelsDispatch, ScalarIsAlwaysSupported) {
  EXPECT_TRUE(kernels::isa_supported(kernels::Isa::kScalar));
  EXPECT_TRUE(kernels::isa_supported(kernels::Isa::kAuto));
  EXPECT_TRUE(kernels::isa_supported(kernels::detect_best()));
}

// ---- GF(2) elimination ----------------------------------------------------

Gf2Matrix random_matrix(Rng& rng, std::size_t rows, std::size_t cols) {
  Gf2Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    // Rank deficiency on purpose: duplicate or zero rows are common.
    if (r > 0 && rng.chance(0.2)) {
      m.row(r) = m.row(rng.below(static_cast<std::uint32_t>(r)));
      continue;
    }
    if (rng.chance(0.1)) continue;  // zero row
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.chance(0.3)) m.set(r, c);
    }
  }
  return m;
}

void expect_elimination_equal(const Elimination& got,
                              const Elimination& want) {
  EXPECT_EQ(got.rank, want.rank);
  EXPECT_TRUE(got.reduced == want.reduced);
  ASSERT_EQ(got.combination.size(), want.combination.size());
  for (std::size_t i = 0; i < got.combination.size(); ++i) {
    EXPECT_TRUE(got.combination[i] == want.combination[i]) << "row " << i;
  }
}

TEST(KernelsGf2, EliminationBitIdenticalAcrossPolicyAndIsa) {
  Rng rng(4242);
  const kernels::Isa entry = kernels::active().isa;
  for (int iter = 0; iter < 25; ++iter) {
    const std::size_t rows = 1 + rng.below(40);
    const std::size_t cols = 1 + rng.below(70);
    const Gf2Matrix m = random_matrix(rng, rows, cols);
    const Elimination want = gf2_ref::eliminate_reference(m);
    for (const kernels::Isa isa : supported_isas()) {
      SCOPED_TRACE(kernels::isa_name(isa));
      ASSERT_TRUE(kernels::select(isa));
      for (const kernels::Gf2Policy policy :
           {kernels::Gf2Policy::kNaive, kernels::Gf2Policy::kM4rm}) {
        expect_elimination_equal(kernels::eliminate(m, policy), want);
      }
    }
  }
  ASSERT_TRUE(kernels::select(entry));
}

TEST(KernelsGf2, AutoPolicyEngagesM4rmAboveThreshold) {
  Rng rng(99);
  const Gf2Matrix m =
      random_matrix(rng, kernels::kM4rmAutoMinRows + 12, 180);
  const std::uint64_t tables_before =
      kernels::kernel_stats().m4rm_tables_built;
  const Elimination got = kernels::eliminate(m);  // kAuto
  EXPECT_GT(kernels::kernel_stats().m4rm_tables_built, tables_before);
  expect_elimination_equal(got, gf2_ref::eliminate_reference(m));
}

TEST(KernelsGf2, SolveMatchesReferenceIncludingInconsistent) {
  Rng rng(808);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t rows = 1 + rng.below(30);
    const std::size_t cols = 1 + rng.below(30);
    const Gf2Matrix m = random_matrix(rng, rows, cols);
    BitVec b(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      if (rng.chance(0.5)) b.set(r);
    }
    const auto want = gf2_ref::solve_reference(m, b);
    for (const kernels::Gf2Policy policy :
         {kernels::Gf2Policy::kNaive, kernels::Gf2Policy::kM4rm}) {
      const auto got = kernels::solve(m, b, policy);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (want.has_value()) {
        EXPECT_TRUE(*got == *want);
      }
    }
  }
}

TEST(KernelsGf2, XFreeCombinationsMatchReference) {
  Rng rng(31337);
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t rows = 1 + rng.below(25);
    const std::size_t cols = 1 + rng.below(20);
    const Gf2Matrix m = random_matrix(rng, rows, cols);
    const auto want = gf2_ref::x_free_combinations_reference(m);
    for (const kernels::Gf2Policy policy :
         {kernels::Gf2Policy::kNaive, kernels::Gf2Policy::kM4rm}) {
      const auto got = kernels::x_free_combinations(m, policy);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i] == want[i]);
      }
    }
  }
}

TEST(KernelsGf2, DegenerateShapes) {
  for (const kernels::Gf2Policy policy :
       {kernels::Gf2Policy::kNaive, kernels::Gf2Policy::kM4rm}) {
    const Gf2Matrix empty;
    expect_elimination_equal(kernels::eliminate(empty, policy),
                             gf2_ref::eliminate_reference(empty));
    const Gf2Matrix wide(0, 5);
    expect_elimination_equal(kernels::eliminate(wide, policy),
                             gf2_ref::eliminate_reference(wide));
    const Gf2Matrix tall(4, 0);
    expect_elimination_equal(kernels::eliminate(tall, policy),
                             gf2_ref::eliminate_reference(tall));
  }
}

TEST(KernelsGf2, SolveRejectsMismatchedRhs) {
  const Gf2Matrix m = Gf2Matrix::from_strings({"10", "01"});
  EXPECT_THROW(kernels::solve(m, BitVec(3)), std::invalid_argument);
}

}  // namespace
}  // namespace xh
