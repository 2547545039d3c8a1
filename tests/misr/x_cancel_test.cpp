#include "misr/x_cancel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace xh {
namespace {

std::vector<Lv> lv_slice(const std::string& s) {
  std::vector<Lv> out;
  for (const char c : s) out.push_back(lv_from_char(c));
  return out;
}

TEST(MisrConfig, Validation) {
  EXPECT_THROW((MisrConfig{1, 0}).validate(), std::invalid_argument);
  EXPECT_THROW((MisrConfig{8, 8}).validate(), std::invalid_argument);
  EXPECT_THROW((MisrConfig{8, 0}).validate(), std::invalid_argument);
  EXPECT_NO_THROW((MisrConfig{8, 3}).validate());
}

TEST(XCancelSession, NoXGivesDirectSignatureNoStops) {
  XCancelSession session({8, 3});
  Rng rng(5);
  for (int c = 0; c < 20; ++c) {
    std::vector<Lv> slice(8);
    for (auto& v : slice) v = rng.chance(0.5) ? Lv::k1 : Lv::k0;
    session.shift(slice);
  }
  const XCancelResult& r = session.finish();
  EXPECT_EQ(r.stops, 0u);
  EXPECT_EQ(r.control_bits(session.config()), 0u);
  EXPECT_EQ(r.total_x_seen, 0u);
  EXPECT_EQ(r.signature.size(), 8u) << "full signature read directly";
}

TEST(XCancelSession, StopsWhenXBudgetReached) {
  // m=8, q=3 → stop every m−q = 5 X's.
  XCancelSession session({8, 3});
  std::size_t shifted_x = 0;
  while (shifted_x < 5) {
    session.shift(lv_slice("X0000000"));
    ++shifted_x;
  }
  const XCancelResult& r = session.finish();
  EXPECT_EQ(r.stops, 1u);
  EXPECT_EQ(r.control_bits(session.config()), 8u * 3u);
  EXPECT_EQ(r.total_x_seen, 5u);
}

TEST(XCancelSession, StopCountMatchesClosedFormOnUniformStream) {
  const MisrConfig cfg{16, 4};
  XCancelSession session(cfg);
  Rng rng(7);
  std::size_t total_x = 0;
  for (int c = 0; c < 600; ++c) {
    std::vector<Lv> slice(16, Lv::k0);
    if (c % 2 == 0) {
      slice[rng.below(16)] = Lv::kX;
      ++total_x;
    }
    session.shift(slice);
  }
  const XCancelResult& r = session.finish();
  EXPECT_EQ(r.total_x_seen, total_x);
  EXPECT_EQ(r.stops, total_x / (cfg.size - cfg.q));
}

TEST(XCancelSession, ExtractsQCombinationsPerStop) {
  const MisrConfig cfg{8, 3};
  XCancelSession session(cfg);
  for (int i = 0; i < 5; ++i) session.shift(lv_slice("X0000000"));
  for (int i = 0; i < 4; ++i) session.shift(lv_slice("00000000"));
  const XCancelResult& r = session.finish();
  ASSERT_EQ(r.stops, 1u);
  std::size_t from_stop0 = 0;
  for (const auto& sig : r.signature) {
    if (sig.stop_index == 0) ++from_stop0;
  }
  EXPECT_GE(from_stop0, cfg.q);
}

TEST(XCancelSession, RejectsZAndBadWidth) {
  XCancelSession session({8, 3});
  EXPECT_THROW(session.shift(lv_slice("Z0000000")), std::invalid_argument);
  EXPECT_THROW(session.shift(lv_slice("0000")), std::invalid_argument);
}

TEST(XCancelSession, ShiftAfterFinishThrowsUntilReset) {
  XCancelSession session({8, 3});
  session.shift(lv_slice("00000000"));
  session.finish();
  EXPECT_THROW(session.shift(lv_slice("00000000")), std::invalid_argument);
  session.reset();
  EXPECT_NO_THROW(session.shift(lv_slice("00000000")));
}

TEST(XCancelSession, WordShiftRejectsStagesBeyondTheMisr) {
  XCancelSession session({8, 3});
  EXPECT_THROW(session.shift(1ULL << 8, 0), std::invalid_argument);
  EXPECT_THROW(session.shift(0, 1ULL << 63), std::invalid_argument);
  EXPECT_NO_THROW(session.shift(0xFF, 0x01));
}

TEST(XCancelSession, WordShiftMatchesTheSliceShift) {
  const MisrConfig cfg{8, 3};
  XCancelSession words(cfg);
  XCancelSession slices(cfg);
  Rng rng(23);
  for (int c = 0; c < 120; ++c) {
    std::string s;
    std::uint64_t values = 0;
    std::uint64_t xs = 0;
    for (std::size_t i = 0; i < cfg.size; ++i) {
      const double roll = rng.uniform();
      s.push_back(roll < 0.08 ? 'X' : (roll < 0.54 ? '1' : '0'));
      // An X stage's value bit is ignored, so set it at random.
      if (s.back() == '1' || (s.back() == 'X' && rng.chance(0.5))) {
        values |= 1ULL << i;
      }
      if (s.back() == 'X') xs |= 1ULL << i;
    }
    words.shift(values, xs);
    slices.shift(lv_slice(s));
  }
  const XCancelResult& a = words.finish();
  const XCancelResult& b = slices.finish();
  EXPECT_EQ(a.stop_cycles, b.stop_cycles);
  ASSERT_EQ(a.signature.size(), b.signature.size());
  for (std::size_t i = 0; i < a.signature.size(); ++i) {
    EXPECT_EQ(a.signature[i].combination, b.signature[i].combination);
    EXPECT_EQ(a.signature[i].value, b.signature[i].value);
  }
}

// Spatial compaction: run_x_canceling folds chain c onto MISR stage c mod m,
// XOR for values, and an X on any folded chain makes the stage X. These
// tests pin the fold's facts through the session's X count and signature.

/// One pattern, one shift cycle: chain c captures @p cells[c].
ResponseMatrix one_cycle(const std::string& cells) {
  return ResponseMatrix::from_strings({cells.size(), 1}, {cells});
}

/// The signature a session fed @p slice directly reads.
XCancelResult direct(MisrConfig cfg, const std::string& slice) {
  XCancelSession session(cfg);
  session.shift(lv_slice(slice));
  return session.finish();
}

void expect_same_signature(const XCancelResult& a, const XCancelResult& b) {
  EXPECT_EQ(a.total_x_seen, b.total_x_seen);
  EXPECT_EQ(a.stop_cycles, b.stop_cycles);
  ASSERT_EQ(a.signature.size(), b.signature.size());
  for (std::size_t i = 0; i < a.signature.size(); ++i) {
    EXPECT_EQ(a.signature[i].combination, b.signature[i].combination);
    EXPECT_EQ(a.signature[i].value, b.signature[i].value);
  }
}

TEST(SpatialCompactor, IdentityWhenChainsFit) {
  const MisrConfig cfg{8, 3};
  const XCancelResult r = run_x_canceling(one_cycle("10X1"), cfg);
  EXPECT_EQ(r.total_x_seen, 1u);
  // Unused stages read 0.
  expect_same_signature(r, direct(cfg, "10X10000"));
}

TEST(SpatialCompactor, XorFoldsDefiniteValues) {
  // stage0 = c0 ^ c2 = 0, stage1 = c1 ^ c3 = 1; X-free, so the final flush
  // reads the MISR, which holds exactly the one folded slice.
  const XCancelResult r = run_x_canceling(one_cycle("1011"), {2, 1});
  ASSERT_EQ(r.signature.size(), 2u);
  EXPECT_FALSE(r.signature[0].value);
  EXPECT_TRUE(r.signature[1].value);
  expect_same_signature(r, direct({2, 1}, "01"));
}

TEST(SpatialCompactor, XPoisonsItsStage) {
  // c2 shares stage 0 with an X: its value cannot reach the signature.
  const MisrConfig cfg{2, 1};
  const XCancelResult with_0 = run_x_canceling(one_cycle("X000"), cfg);
  const XCancelResult with_1 = run_x_canceling(one_cycle("X010"), cfg);
  EXPECT_EQ(with_0.total_x_seen, 1u);
  expect_same_signature(with_0, with_1);
  expect_same_signature(with_1, direct(cfg, "X0"));
}

TEST(SpatialCompactor, TwoXsMergeIntoOne) {
  const XCancelResult r = run_x_canceling(one_cycle("X0X0"), {2, 1});
  EXPECT_EQ(r.total_x_seen, 1u) << "folded X's merge into one symbol";
}

TEST(SpatialCompactor, CountersAccumulateAndReset) {
  // Chain 0 reads X, X; chain 1 reads 0, X: cycles (X,0) then (X,X).
  const ResponseMatrix rm =
      ResponseMatrix::from_strings({2, 2}, {std::string("XX0X")});
  EXPECT_EQ(run_x_canceling(rm, {2, 1}).total_x_seen, 3u);

  XCancelSession session({2, 1});
  session.shift(0, 0b01);
  session.shift(0, 0b11);
  session.reset();
  EXPECT_EQ(session.finish().total_x_seen, 0u);
}

TEST(SpatialCompactor, RejectsBadInput) {
  // The fold reads the response's planes, so a Z, a short row or a design
  // with no chains is rejected before any cycle reaches the MISR.
  EXPECT_THROW(one_cycle("0Z01"), std::invalid_argument);
  EXPECT_THROW(ResponseMatrix::from_strings({4, 1}, {std::string("010")}),
               std::invalid_argument);
  EXPECT_THROW(ResponseMatrix({0, 4}, 1), std::invalid_argument);
}

// The central soundness property: extracted signature bits are invariant
// under ANY substitution of the X values — they truly canceled out. We replay
// the stream through an independent concrete MISR (same polynomial, same
// segmentation) with the X positions replaced by random concrete bits; every
// extracted combination must evaluate to the same value.
TEST(XCancelProperty, SignatureInvariantUnderXSubstitution) {
  Rng rng(99);
  const MisrConfig cfg{8, 3};
  for (int iter = 0; iter < 15; ++iter) {
    const std::size_t cycles = 30 + rng.below(30);
    std::vector<std::string> stream;
    for (std::size_t c = 0; c < cycles; ++c) {
      std::string s;
      for (std::size_t i = 0; i < cfg.size; ++i) {
        const double roll = rng.uniform();
        s.push_back(roll < 0.06 ? 'X' : (roll < 0.55 ? '1' : '0'));
      }
      stream.push_back(s);
    }

    XCancelSession session(cfg);
    for (const auto& s : stream) session.shift(lv_slice(s));
    const XCancelResult ref = session.finish();
    if (ref.stops == 0) continue;  // no combination extracted — nothing to check

    for (std::uint64_t fill_seed : {11ull, 22ull, 33ull}) {
      Rng fill(fill_seed);
      Lfsr concrete(FeedbackPolynomial::primitive(cfg.size));
      concrete.reset();
      std::size_t stop = 0;
      std::size_t sig_index = 0;
      for (std::size_t c = 0; c < stream.size(); ++c) {
        BitVec input(cfg.size);
        for (std::size_t i = 0; i < cfg.size; ++i) {
          const char ch = stream[c][i];
          const bool bit = ch == 'X' ? fill.chance(0.5) : ch == '1';
          input.set(i, bit);
        }
        concrete.step(input);
        if (stop < ref.stop_cycles.size() && c + 1 == ref.stop_cycles[stop]) {
          // Evaluate every combination extracted at this stop.
          while (sig_index < ref.signature.size() &&
                 ref.signature[sig_index].stop_index == stop) {
            bool value = false;
            for (const std::size_t b :
                 ref.signature[sig_index].combination.set_bits()) {
              value ^= concrete.state().get(b);
            }
            EXPECT_EQ(value, ref.signature[sig_index].value)
                << "stop " << stop << " fill seed " << fill_seed;
            ++sig_index;
          }
          concrete.reset();
          ++stop;
        }
      }
    }
  }
}

// An injected single-bit error in a deterministic position must flip at
// least one extracted signature bit (the scheme preserves observability of
// deterministic data that participates in combinations).
TEST(XCancelProperty, DeterministicErrorsAreObservableInCombinations) {
  const MisrConfig cfg{8, 3};
  Rng rng(17);
  int observed = 0;
  int trials = 0;
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<std::vector<Lv>> stream;
    for (int c = 0; c < 40; ++c) {
      std::vector<Lv> s;
      for (std::size_t i = 0; i < cfg.size; ++i) {
        const double roll = rng.uniform();
        s.push_back(roll < 0.05 ? Lv::kX : (roll < 0.5 ? Lv::k1 : Lv::k0));
      }
      stream.push_back(s);
    }
    const auto run = [&](const std::vector<std::vector<Lv>>& st) {
      XCancelSession session(cfg);
      for (const auto& s : st) session.shift(s);
      return session.finish();
    };
    const XCancelResult good = run(stream);

    // Flip one random deterministic bit.
    auto bad_stream = stream;
    for (int guard = 0; guard < 100; ++guard) {
      const std::size_t c = rng.below(bad_stream.size());
      const std::size_t i = rng.below(cfg.size);
      if (bad_stream[c][i] == Lv::kX) continue;
      bad_stream[c][i] =
          bad_stream[c][i] == Lv::k0 ? Lv::k1 : Lv::k0;
      break;
    }
    const XCancelResult bad = run(bad_stream);
    if (good.signature.size() != bad.signature.size()) {
      ++observed;  // structural change — certainly visible
      ++trials;
      continue;
    }
    bool differs = false;
    for (std::size_t i = 0; i < good.signature.size(); ++i) {
      if (good.signature[i].value != bad.signature[i].value ||
          !(good.signature[i].combination == bad.signature[i].combination)) {
        differs = true;
        break;
      }
    }
    observed += differs ? 1 : 0;
    ++trials;
  }
  // q of every m−q X-budget is extracted, so a single error escapes only
  // when it lands entirely outside the extracted combinations. Expect the
  // large majority of injected errors to be observed.
  EXPECT_GE(observed * 10, trials * 6)
      << observed << "/" << trials << " errors observed";
}

}  // namespace
}  // namespace xh
