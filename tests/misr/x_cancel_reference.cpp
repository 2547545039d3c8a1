#include "x_cancel_reference.hpp"

#include <algorithm>
#include <string>

#include "gf2/matrix.hpp"
#include "kernels/kernels.hpp"

namespace xh {

XCancelSessionReference::XCancelSessionReference(MisrConfig cfg,
                                                 Diagnostics* diags,
                                                 Trace* trace)
    : cfg_(cfg),
      taps_(FeedbackPolynomial::primitive(cfg.size).taps()),
      concrete_(FeedbackPolynomial::primitive(cfg.size)),
      diags_(diags),
      trace_(trace) {
  cfg_.validate();
  concrete_.reset();
  xdep_.assign(cfg_.size, BitVec(cfg_.size * 4));
}

void XCancelSessionReference::reset() {
  concrete_.reset();
  const std::size_t cap = xdep_.front().size();
  xdep_.assign(cfg_.size, BitVec(cap));
  segment_x_ = 0;
  deficit_ = 0;
  result_ = {};
  finished_ = false;
}

std::size_t XCancelSessionReference::stop_threshold() const {
  const std::size_t budget = cfg_.size - cfg_.q;
  return budget > deficit_ ? budget - deficit_ : 1;
}

void XCancelSessionReference::install_combination_tamper(
    XCancelSession::CombinationTamper hook) {
  tamper_ = std::move(hook);
}

void XCancelSessionReference::shift(const std::vector<Lv>& slice) {
  XH_REQUIRE(!finished_, "session already finished; call reset()");
  XH_REQUIRE(slice.size() == cfg_.size, "slice width must equal MISR size");

  // Concrete step with X read as 0 — sound because extracted combinations
  // are X-independent, so the substituted value cancels out.
  BitVec input(cfg_.size);
  std::size_t x_in_slice = 0;
  for (std::size_t i = 0; i < cfg_.size; ++i) {
    XH_REQUIRE(slice[i] != Lv::kZ, "Z cannot be captured into the MISR");
    if (slice[i] == Lv::k1) input.set(i);
    if (slice[i] == Lv::kX) ++x_in_slice;
  }
  concrete_.step(input);

  // Symbolic step: dep' = A·dep, then inject fresh symbols for X inputs.
  const std::size_t cap = xdep_.front().size();
  if (segment_x_ + x_in_slice > cap) {
    const std::size_t grown = std::max(cap * 2, segment_x_ + x_in_slice);
    for (auto& row : xdep_) row.resize(grown);
  }
  std::vector<BitVec> next(cfg_.size);
  const BitVec feedback = xdep_[cfg_.size - 1];
  next[0] = feedback;
  for (std::size_t i = 1; i < cfg_.size; ++i) next[i] = std::move(xdep_[i - 1]);
  // Same feedback taps as the concrete LFSR so both sides stay in lock-step.
  // Dispatched XOR: the symbolic rows grow with the segment's X count, so
  // this is the MISR side's widest hot loop.
  for (const std::size_t t : taps_) kernels::xor_into(next[t], feedback);
  for (std::size_t i = 0; i < cfg_.size; ++i) {
    if (slice[i] == Lv::kX) next[i].flip(segment_x_++);
  }
  xdep_ = std::move(next);

  ++result_.shift_cycles;
  result_.total_x_seen += x_in_slice;
  obs_count(trace_, "xcancel.shift_cycles");
  obs_count(trace_, "xcancel.x_seen", x_in_slice);

  if (segment_x_ >= stop_threshold()) extract(/*final_flush=*/false);
}

void XCancelSessionReference::extract(bool final_flush) {
  if (segment_x_ == 0) {
    if (final_flush && result_.shift_cycles > 0) {
      // Fully deterministic signature: read all m bits directly. No stop,
      // no selective-XOR control data.
      for (std::size_t b = 0; b < cfg_.size; ++b) {
        SignatureBit sig;
        sig.stop_index = result_.stops;
        sig.combination = BitVec(cfg_.size);
        sig.combination.set(b);
        sig.value = concrete_.state().get(b);
        result_.signature.push_back(std::move(sig));
      }
    }
    return;
  }

  Gf2Matrix xmat(cfg_.size, segment_x_);
  for (std::size_t r = 0; r < cfg_.size; ++r) {
    for (std::size_t c = 0; c < segment_x_; ++c) {
      if (xdep_[r].get(c)) xmat.set(r, c);
    }
  }
  obs_count(trace_, "xcancel.eliminations");
  obs_count(trace_, "xcancel.elimination_rows", cfg_.size);
  obs_record(trace_, "xcancel.segment_x", segment_x_);
  std::vector<BitVec> combos = kernels::x_free_combinations(xmat);
  if (tamper_) tamper_(combos, xmat);

  // Take q verified combinations, plus any owed from earlier starved stops
  // — the null space is larger than q when this segment stopped below the
  // m − q budget, so the deficit can be repaid here.
  const std::size_t want = cfg_.q + deficit_;
  std::size_t taken = 0;
  for (const BitVec& combo : combos) {
    if (taken == want) break;
    // Re-check the X-freeness invariant before emitting the bit; a
    // combination that fails is never allowed into the signature.
    BitVec acc(segment_x_);
    for (const std::size_t r : combo.set_bits()) {
      acc ^= xmat.row(r);
      obs_count(trace_, "xcancel.recheck_rows");
    }
    if (acc.any()) {
      // With no collector and no injection hook this is unreachable except
      // through a library bug — keep the legacy fail-fast behavior.
      if (diags_ == nullptr && !tamper_) {
        XH_ASSERT(acc.none(), "extracted combination is not X-free");
      }
      ++result_.contaminated_dropped;
      obs_count(trace_, "xcancel.combinations_dropped");
      diag_report(diags_, DiagSeverity::kWarning,
                  DiagKind::kContaminatedCombination,
                  "stop " + std::to_string(result_.stops),
                  "selection vector fails the X-freeness re-check; dropped");
      continue;
    }

    SignatureBit sig;
    sig.stop_index = result_.stops;
    sig.combination = combo;
    bool value = false;
    for (const std::size_t r : combo.set_bits()) {
      value ^= concrete_.state().get(r);
    }
    sig.value = value;
    result_.signature.push_back(std::move(sig));
    ++taken;
    ++result_.selection_vectors;
  }
  obs_count(trace_, "xcancel.combinations_emitted", taken);

  if (taken > cfg_.q) result_.extra_combinations += taken - cfg_.q;
  const std::size_t owed_before = deficit_;
  deficit_ = want - taken;
  if (taken < cfg_.q) {
    ++result_.starved_stops;
    obs_count(trace_, "xcancel.starved_stops");
    // The grown deficit lowers stop_threshold() for the next segment, so a
    // comparable burst cannot overshoot again and the owed bits fit in the
    // next stop's null space.
    diag_report(diags_, DiagSeverity::kWarning, DiagKind::kExtractionStarved,
                "stop " + std::to_string(result_.stops),
                "only " + std::to_string(taken) + " of " +
                    std::to_string(cfg_.q) +
                    " X-free combinations available (segment holds " +
                    std::to_string(segment_x_) + " X's)");
  } else if (owed_before > 0 && deficit_ == 0) {
    obs_count(trace_, "xcancel.starvation_repaid", owed_before);
    diag_report(diags_, DiagSeverity::kInfo, DiagKind::kExtractionRecovered,
                "stop " + std::to_string(result_.stops),
                "repaid " + std::to_string(owed_before) +
                    " signature bits owed from starved stops");
  }

  ++result_.stops;
  obs_count(trace_, "xcancel.stops");
  result_.stop_cycles.push_back(result_.shift_cycles);
  concrete_.reset();
  const std::size_t cap = xdep_.front().size();
  xdep_.assign(cfg_.size, BitVec(cap));
  segment_x_ = 0;
}

const XCancelResult& XCancelSessionReference::finish() {
  if (!finished_) {
    extract(/*final_flush=*/true);
    result_.signature_deficit = deficit_;
    if (deficit_ > 0) {
      diag_report(diags_, DiagSeverity::kError, DiagKind::kSignatureDeficit,
                  "session",
                  std::to_string(deficit_) +
                      " signature bits lost to starved extractions; the "
                      "emitted signature is X-free but shorter than planned");
    }
    finished_ = true;
  }
  return result_;
}

XCancelResult run_x_canceling_reference(const ResponseMatrix& response,
                                        MisrConfig cfg, Diagnostics* diags,
                                        Trace* trace) {
  cfg.validate();
  const ScopedSpan span(trace, "cancel");
  XCancelSessionReference session(cfg, diags, trace);
  const ScanGeometry& geo = response.geometry();
  std::vector<Lv> slice(cfg.size);
  for (std::size_t p = 0; p < response.num_patterns(); ++p) {
    for (std::size_t pos = 0; pos < geo.chain_length; ++pos) {
      std::fill(slice.begin(), slice.end(), Lv::k0);
      for (std::size_t chain = 0; chain < geo.num_chains; ++chain) {
        Lv& stage = slice[chain % cfg.size];
        stage = lv_xor(stage, response.get(p, geo.cell_index(chain, pos)));
      }
      session.shift(slice);
    }
  }
  return session.finish();
}

}  // namespace xh
