// Differential suite for the X-canceling MISR: the fixed-word session and
// the strip-folding run_x_canceling (misr/x_cancel.cpp) against the
// BitVec/Gf2Matrix reference they replaced (x_cancel_reference.hpp). On
// every seeded stream both must give the same XCancelResult, field by field
// and signature bit by signature bit, the same Diagnostics records and the
// same xcancel.* counters and segment histogram. The streams cover MISR
// sizes 2, 32, 33 and 64, fewer/equal/more chains than stages, X bursts that
// overshoot the m − q budget (starvation, then repayment), X-free streams
// and the Corruptor's combination-tamper hook.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "inject/corruptor.hpp"
#include "util/rng.hpp"
#include "x_cancel_reference.hpp"

namespace xh {
namespace {

struct Outcome {
  XCancelResult result;
  std::vector<std::tuple<DiagSeverity, DiagKind, std::string, std::string>>
      diags;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::tuple<std::uint64_t, std::uint64_t,
                                   std::uint64_t, std::uint64_t>>
      histograms;
};

Outcome collect(XCancelResult result, const Diagnostics& diags,
                const Trace& trace) {
  Outcome out;
  out.result = std::move(result);
  for (const Diagnostic& d : diags.records()) {
    out.diags.emplace_back(d.severity, d.kind, d.location, d.message);
  }
  for (const auto& [name, counter] : trace.counters()) {
    out.counters[name] = counter.value;
  }
  for (const auto& [name, h] : trace.histograms()) {
    out.histograms[name] = {h.count, h.sum, h.min, h.max};
  }
  return out;
}

void expect_same(const Outcome& lib, const Outcome& ref,
                 const std::string& what) {
  SCOPED_TRACE(what);
  const XCancelResult& a = lib.result;
  const XCancelResult& b = ref.result;
  EXPECT_EQ(a.stops, b.stops);
  EXPECT_EQ(a.shift_cycles, b.shift_cycles);
  EXPECT_EQ(a.total_x_seen, b.total_x_seen);
  EXPECT_EQ(a.stop_cycles, b.stop_cycles);
  EXPECT_EQ(a.selection_vectors, b.selection_vectors);
  EXPECT_EQ(a.starved_stops, b.starved_stops);
  EXPECT_EQ(a.contaminated_dropped, b.contaminated_dropped);
  EXPECT_EQ(a.extra_combinations, b.extra_combinations);
  EXPECT_EQ(a.signature_deficit, b.signature_deficit);
  ASSERT_EQ(a.signature.size(), b.signature.size());
  for (std::size_t i = 0; i < a.signature.size(); ++i) {
    EXPECT_EQ(a.signature[i].stop_index, b.signature[i].stop_index) << i;
    EXPECT_EQ(a.signature[i].combination, b.signature[i].combination) << i;
    EXPECT_EQ(a.signature[i].value, b.signature[i].value) << i;
  }
  EXPECT_EQ(lib.diags, ref.diags);
  EXPECT_EQ(lib.counters, ref.counters);
  EXPECT_EQ(lib.histograms, ref.histograms);
}

/// A seeded slice stream: each stage is X with probability @p x_rate, and
/// with probability @p burst_rate a cycle instead carries a burst of up to
/// m X's, enough to overshoot the m − q stop budget.
std::vector<std::vector<Lv>> slice_stream(std::uint64_t seed, std::size_t m,
                                          std::size_t cycles, double x_rate,
                                          double burst_rate) {
  Rng rng(seed);
  std::vector<std::vector<Lv>> stream(cycles, std::vector<Lv>(m));
  for (auto& slice : stream) {
    const bool burst = rng.chance(burst_rate);
    for (auto& v : slice) v = rng.chance(0.5) ? Lv::k1 : Lv::k0;
    if (burst) {
      const std::size_t n = 1 + static_cast<std::size_t>(rng.below(m));
      for (const std::size_t i : rng.sample_without_replacement(m, n)) {
        slice[i] = Lv::kX;
      }
    } else {
      for (auto& v : slice) {
        if (rng.chance(x_rate)) v = Lv::kX;
      }
    }
  }
  return stream;
}

/// Feeds @p stream through a session of type @p Session.
template <typename Session>
Outcome run_stream(const std::vector<std::vector<Lv>>& stream, MisrConfig cfg,
                   std::uint64_t tamper_seed = 0) {
  Diagnostics diags;
  Trace trace;
  Session session(cfg, &diags, &trace);
  if (tamper_seed != 0) {
    Corruptor corruptor(tamper_seed);
    session.install_combination_tamper(corruptor.combination_tamper());
  }
  for (const auto& slice : stream) session.shift(slice);
  return collect(session.finish(), diags, trace);
}

ResponseMatrix random_response(std::uint64_t seed, ScanGeometry geo,
                               std::size_t patterns, double x_rate,
                               double burst_rate) {
  Rng rng(seed);
  ResponseMatrix rm(geo, patterns);
  for (std::size_t p = 0; p < patterns; ++p) {
    for (std::size_t pos = 0; pos < geo.chain_length; ++pos) {
      const bool burst = rng.chance(burst_rate);
      for (std::size_t c = 0; c < geo.num_chains; ++c) {
        const bool x = rng.chance(burst ? 0.8 : x_rate);
        const Lv v = x ? Lv::kX : (rng.chance(0.5) ? Lv::k1 : Lv::k0);
        rm.set(p, geo.cell_index(c, pos), v);
      }
    }
  }
  return rm;
}

Outcome run_response(const ResponseMatrix& rm, MisrConfig cfg,
                     bool reference) {
  Diagnostics diags;
  Trace trace;
  XCancelResult r = reference
                        ? run_x_canceling_reference(rm, cfg, &diags, &trace)
                        : run_x_canceling(rm, cfg, &diags, &trace);
  return collect(std::move(r), diags, trace);
}

const std::vector<MisrConfig>& configs() {
  static const std::vector<MisrConfig> kConfigs = {
      {2, 1},  {32, 1}, {32, 7},  {32, 31}, {33, 5},
      {33, 16}, {64, 1}, {64, 13}, {64, 63}};
  return kConfigs;
}

std::string label(MisrConfig cfg, std::uint64_t seed) {
  return "m=" + std::to_string(cfg.size) + " q=" + std::to_string(cfg.q) +
         " seed=" + std::to_string(seed);
}

TEST(XCancelDifferential, SliceStreamsWithBursts) {
  std::size_t starved = 0;
  std::size_t repaid = 0;
  for (const MisrConfig cfg : configs()) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const double x_rate = 0.01 * static_cast<double>(seed);
      const auto stream = slice_stream(seed * 977 + cfg.size, cfg.size,
                                       400, x_rate, 0.02);
      const Outcome lib = run_stream<XCancelSession>(stream, cfg);
      const Outcome ref = run_stream<XCancelSessionReference>(stream, cfg);
      expect_same(lib, ref, label(cfg, seed));
      starved += lib.result.starved_stops;
      repaid += lib.counters.count("xcancel.starvation_repaid");
    }
  }
  // The bursts must actually exercise both recovery paths.
  EXPECT_GT(starved, 0u);
  EXPECT_GT(repaid, 0u);
}

TEST(XCancelDifferential, XFreeStreamReadsTheFinalSignature) {
  for (const MisrConfig cfg : configs()) {
    const auto stream = slice_stream(cfg.size, cfg.size, 150, 0.0, 0.0);
    const Outcome lib = run_stream<XCancelSession>(stream, cfg);
    expect_same(lib, run_stream<XCancelSessionReference>(stream, cfg),
                label(cfg, 0));
    EXPECT_EQ(lib.result.stops, 0u);
    EXPECT_EQ(lib.result.signature.size(), cfg.size);
  }
}

TEST(XCancelDifferential, TamperHookDropsTheSameCombinations) {
  std::size_t dropped = 0;
  for (const MisrConfig cfg : configs()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto stream =
          slice_stream(seed * 31 + cfg.size, cfg.size, 300, 0.05, 0.01);
      const std::uint64_t tamper_seed = 100 + seed;
      const Outcome lib = run_stream<XCancelSession>(stream, cfg, tamper_seed);
      const Outcome ref =
          run_stream<XCancelSessionReference>(stream, cfg, tamper_seed);
      expect_same(lib, ref, label(cfg, seed));
      dropped += lib.result.contaminated_dropped;
    }
  }
  EXPECT_GT(dropped, 0u);
}

TEST(XCancelDifferential, ResponsesWithFewerEqualAndMoreChainsThanStages) {
  for (const MisrConfig cfg : configs()) {
    for (const std::size_t chains :
         {cfg.size / 2 + 1, cfg.size, 3 * cfg.size + 5}) {
      // Lengths either side of one 64-cycle block exercise the strip tails.
      for (const std::size_t length : {std::size_t{7}, std::size_t{64},
                                       std::size_t{130}}) {
        const std::uint64_t seed = cfg.size * 1000 + chains * 10 + length;
        const ResponseMatrix rm =
            random_response(seed, {chains, length}, 3, 0.02, 0.01);
        expect_same(run_response(rm, cfg, false), run_response(rm, cfg, true),
                    label(cfg, seed) + " chains=" + std::to_string(chains) +
                        " length=" + std::to_string(length));
      }
    }
  }
}

TEST(XCancelDifferential, SessionResetMatchesAFreshSession) {
  const MisrConfig cfg{33, 5};
  const auto first = slice_stream(7, cfg.size, 200, 0.05, 0.02);
  const auto second = slice_stream(8, cfg.size, 200, 0.03, 0.02);
  XCancelSession session(cfg);
  for (const auto& slice : first) session.shift(slice);
  session.finish();
  session.reset();
  for (const auto& slice : second) session.shift(slice);
  const Outcome reused = collect(session.finish(), Diagnostics{}, Trace{});
  const Outcome fresh = run_stream<XCancelSessionReference>(second, cfg);
  EXPECT_EQ(reused.result.stop_cycles, fresh.result.stop_cycles);
  ASSERT_EQ(reused.result.signature.size(), fresh.result.signature.size());
  for (std::size_t i = 0; i < reused.result.signature.size(); ++i) {
    EXPECT_EQ(reused.result.signature[i].combination,
              fresh.result.signature[i].combination);
    EXPECT_EQ(reused.result.signature[i].value,
              fresh.result.signature[i].value);
  }
}

}  // namespace
}  // namespace xh
