#include "misr/x_cancel.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "gf2/matrix.hpp"

namespace xh {

// Registered on first use, so a trace lists exactly the counters its
// events touched.
struct XCancelSession::Counters {
  TraceCounterHandle shift_cycles{};
  TraceCounterHandle x_seen{};
  TraceCounterHandle recheck_rows{};
  TraceCounterHandle eliminations{};
  TraceCounterHandle elimination_rows{};
  TraceCounterHandle combinations_emitted{};
  TraceCounterHandle stops{};
  bool shift_ready = false;
  bool recheck_ready = false;
  bool extract_ready = false;
};

XCancelSession::XCancelSession(MisrConfig cfg, Diagnostics* diags,
                               Trace* trace)
    : cfg_(cfg),
      diags_(diags),
      trace_(trace),
      counters_(std::make_unique<Counters>()) {
  cfg_.validate();
  full_ = cfg_.size == 64 ? ~0ULL : (1ULL << cfg_.size) - 1;
  // XOR, not OR: a tap listed twice cancels, as it does in Lfsr::step.
  const FeedbackPolynomial poly = FeedbackPolynomial::primitive(cfg_.size);
  tapmask_ = 1;
  for (const std::size_t t : poly.taps()) tapmask_ ^= 1ULL << t;
}

XCancelSession::~XCancelSession() = default;

void XCancelSession::clear_segment() {
  state_ = 0;
  std::fill_n(xdep_.begin(), cfg_.size, XRow{});
  segment_x_ = 0;
}

void XCancelSession::reset() {
  clear_segment();
  deficit_ = 0;
  result_ = {};
  finished_ = false;
}

std::size_t XCancelSession::stop_threshold() const {
  const std::size_t budget = cfg_.size - cfg_.q;
  return budget > deficit_ ? budget - deficit_ : 1;
}

void XCancelSession::install_combination_tamper(CombinationTamper hook) {
  tamper_ = std::move(hook);
}

void XCancelSession::shift(const std::vector<Lv>& slice) {
  XH_REQUIRE(!finished_, "session already finished; call reset()");
  XH_REQUIRE(slice.size() == cfg_.size, "slice width must equal MISR size");
  std::uint64_t values = 0;
  std::uint64_t xs = 0;
  for (std::size_t i = 0; i < cfg_.size; ++i) {
    XH_REQUIRE(slice[i] != Lv::kZ, "Z cannot be captured into the MISR");
    if (slice[i] == Lv::k1) values |= 1ULL << i;
    if (slice[i] == Lv::kX) xs |= 1ULL << i;
  }
  shift(values, xs);
}

void XCancelSession::shift(std::uint64_t values, std::uint64_t xs) {
  XH_REQUIRE(!finished_, "session already finished; call reset()");
  XH_REQUIRE(((values | xs) & ~full_) == 0,
             "slice has stages beyond the MISR size");
  const std::size_t m = cfg_.size;

  // Concrete step with X read as 0 — sound because extracted combinations
  // are X-independent, so the substituted value cancels out. Internal-XOR
  // form, as Lfsr::step: stage 0 takes the feedback, tap stages XOR it in.
  const bool feedback = (state_ >> (m - 1)) & 1;
  state_ = ((state_ << 1) & full_) ^ (feedback ? tapmask_ : 0) ^
           (values & ~xs);

  // Symbolic step: dep' = A·dep. Moving the head makes the old last row
  // logical row 0, which is the feedback; the tap rows then XOR it in.
  head_ = head_ == 0 ? m - 1 : head_ - 1;
  const XRow& fb = xdep_[head_];
  for (std::uint64_t t = tapmask_ & ~1ULL; t != 0; t &= t - 1) {
    XRow& r = row(static_cast<std::size_t>(std::countr_zero(t)));
    r[0] ^= fb[0];
    r[1] ^= fb[1];
  }
  // Fresh symbols for the X inputs, in stage order.
  const auto x_in_slice = static_cast<std::size_t>(std::popcount(xs));
  XH_ASSERT(segment_x_ + x_in_slice <= 2 * m - cfg_.q - 1,
            "X-canceling segment outgrew its 2m - q - 1 symbol bound");
  for (std::uint64_t x = xs; x != 0; x &= x - 1) {
    XRow& r = row(static_cast<std::size_t>(std::countr_zero(x)));
    r[segment_x_ / 64] ^= 1ULL << (segment_x_ % 64);
    ++segment_x_;
  }

  ++result_.shift_cycles;
  result_.total_x_seen += x_in_slice;
  Counters& ctr = *counters_;
  if (!ctr.shift_ready) {
    ctr.shift_cycles = obs_counter(trace_, "xcancel.shift_cycles");
    ctr.x_seen = obs_counter(trace_, "xcancel.x_seen");
    ctr.shift_ready = true;
  }
  obs_add(ctr.shift_cycles);
  obs_add(ctr.x_seen, x_in_slice);

  if (segment_x_ >= stop_threshold()) extract(/*final_flush=*/false);
}

void XCancelSession::count_recheck(std::uint64_t rows) {
  if (rows == 0) return;
  Counters& ctr = *counters_;
  if (!ctr.recheck_ready) {
    ctr.recheck_rows = obs_counter(trace_, "xcancel.recheck_rows");
    ctr.recheck_ready = true;
  }
  obs_add(ctr.recheck_rows, rows);
}

void XCancelSession::extract(bool final_flush) {
  const std::size_t m = cfg_.size;
  if (segment_x_ == 0) {
    if (final_flush && result_.shift_cycles > 0) {
      // Fully deterministic signature: read all m bits directly. No stop,
      // no selective-XOR control data.
      for (std::size_t b = 0; b < m; ++b) {
        SignatureBit sig;
        sig.stop_index = result_.stops;
        sig.combination = BitVec(m);
        sig.combination.set(b);
        sig.value = (state_ >> b) & 1;
        result_.signature.push_back(std::move(sig));
      }
    }
    return;
  }

  // The segment's X-dependency rows in logical order; the re-check below
  // reads these, untouched by the elimination.
  std::array<XRow, 64> xrows;
  for (std::size_t r = 0; r < m; ++r) xrows[r] = row(r);

  Counters& ctr = *counters_;
  if (!ctr.extract_ready) {
    ctr.eliminations = obs_counter(trace_, "xcancel.eliminations");
    ctr.elimination_rows = obs_counter(trace_, "xcancel.elimination_rows");
    ctr.combinations_emitted =
        obs_counter(trace_, "xcancel.combinations_emitted");
    ctr.stops = obs_counter(trace_, "xcancel.stops");
    ctr.extract_ready = true;
  }
  obs_add(ctr.eliminations);
  obs_add(ctr.elimination_rows, m);
  obs_record(trace_, "xcancel.segment_x", segment_x_);

  // Gauss-Jordan over [dependency | combination] word triples, with the
  // pivot order of kernels' eliminate_naive (first row at or below the
  // pivot row with the column set, then clear the column everywhere else),
  // so the null rows carry the same combinations as x_free_combinations.
  struct Triple {
    XRow dep;
    std::uint64_t combo;
  };
  std::array<Triple, 64> elim;
  for (std::size_t r = 0; r < m; ++r) elim[r] = {xrows[r], 1ULL << r};
  std::size_t pivot = 0;
  for (std::size_t col = 0; col < segment_x_ && pivot < m; ++col) {
    const std::size_t w = col / 64;
    const std::uint64_t bit = 1ULL << (col % 64);
    std::size_t sel = pivot;
    while (sel < m && (elim[sel].dep[w] & bit) == 0) ++sel;
    if (sel == m) continue;
    std::swap(elim[pivot], elim[sel]);
    const Triple& p = elim[pivot];
    for (std::size_t r = 0; r < m; ++r) {
      if (r != pivot && (elim[r].dep[w] & bit) != 0) {
        elim[r].dep[0] ^= p.dep[0];
        elim[r].dep[1] ^= p.dep[1];
        elim[r].combo ^= p.combo;
      }
    }
    ++pivot;
  }
  std::vector<std::uint64_t> combos;
  for (std::size_t r = 0; r < m; ++r) {
    if ((elim[r].dep[0] | elim[r].dep[1]) == 0) combos.push_back(elim[r].combo);
  }

  if (tamper_) {
    // The hook's view of the stop: BitVec combinations and the dependency
    // rows as a Gf2Matrix, built only when a hook is installed.
    Gf2Matrix xmat(m, segment_x_);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < segment_x_; ++c) {
        if ((xrows[r][c / 64] >> (c % 64)) & 1) xmat.set(r, c);
      }
    }
    std::vector<BitVec> tampered;
    for (const std::uint64_t c : combos) {
      tampered.emplace_back(m);
      tampered.back().set_word(0, c);
    }
    tamper_(tampered, xmat);
    combos.clear();
    for (const BitVec& c : tampered) {
      XH_REQUIRE(c.size() == m, "tampered combination width mismatch");
      combos.push_back(c.word(0));
    }
  }

  // Take q verified combinations, plus any owed from earlier starved stops
  // — the null space is larger than q when this segment stopped below the
  // m − q budget, so the deficit can be repaid here.
  const std::size_t want = cfg_.q + deficit_;
  std::size_t taken = 0;
  for (const std::uint64_t combo : combos) {
    if (taken == want) break;
    // Re-check the X-freeness invariant before emitting the bit; a
    // combination that fails is never allowed into the signature.
    XRow acc{};
    for (std::uint64_t c = combo; c != 0; c &= c - 1) {
      const XRow& r = xrows[static_cast<std::size_t>(std::countr_zero(c))];
      acc[0] ^= r[0];
      acc[1] ^= r[1];
    }
    count_recheck(static_cast<std::uint64_t>(std::popcount(combo)));
    if ((acc[0] | acc[1]) != 0) {
      // With no collector and no injection hook this is unreachable except
      // through a library bug — keep the legacy fail-fast behavior.
      if (diags_ == nullptr && !tamper_) {
        XH_ASSERT((acc[0] | acc[1]) == 0,
                  "extracted combination is not X-free");
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
    sig.combination = BitVec(m);
    sig.combination.set_word(0, combo);
    sig.value = (std::popcount(combo & state_) & 1) != 0;
    result_.signature.push_back(std::move(sig));
    ++taken;
    ++result_.selection_vectors;
  }
  obs_add(ctr.combinations_emitted, taken);

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
  obs_add(ctr.stops);
  result_.stop_cycles.push_back(result_.shift_cycles);
  clear_segment();
}

const XCancelResult& XCancelSession::finish() {
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

namespace {

/// 64 bits of @p words starting at bit @p off; bits past the last of the
/// @p nwords words read 0.
std::uint64_t bits_at(const std::uint64_t* words, std::size_t nwords,
                      std::size_t off) {
  const std::size_t w = off / 64;
  const std::size_t sh = off % 64;
  std::uint64_t out = words[w] >> sh;
  if (sh != 0 && w + 1 < nwords) out |= words[w + 1] << (64 - sh);
  return out;
}

/// In-place 64x64 bit-matrix transpose: bit j of a[i] moves to bit i of
/// a[j]: six rounds of block swaps, halving the block each round.
void transpose64(std::array<std::uint64_t, 64>& a) {
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & mask;
      a[k | j] ^= t;
      a[k] ^= t << j;
    }
  }
}

}  // namespace

XCancelResult run_x_canceling(const ResponseMatrix& response, MisrConfig cfg,
                              Diagnostics* diags, Trace* trace) {
  cfg.validate();
  const ScopedSpan span(trace, "cancel");
  XCancelSession session(cfg, diags, trace);
  // A healthy stream stops once per m − q X's and emits q bits per stop,
  // plus at most m at the end; folded X's merge, so this rarely falls short.
  session.reserve_signature(
      cfg.q * (response.total_x() / (cfg.size - cfg.q) + 1) + cfg.size);
  const ScanGeometry& geo = response.geometry();
  const std::size_t length = geo.chain_length;
  // Each pattern shifts out in blocks of up to 64 positions. A block folds
  // every chain's strip of the value and X planes onto its stage (XOR for
  // values, OR for X's), then a transpose turns the m stage strips into
  // one (values, xs) word pair per shift cycle.
  std::array<std::uint64_t, 64> values{};
  std::array<std::uint64_t, 64> xs{};
  for (std::size_t p = 0; p < response.num_patterns(); ++p) {
    const BitVec& value_plane = response.value_row(p);
    const BitVec& x_plane = response.x_row(p);
    const std::size_t nwords = value_plane.word_count();
    for (std::size_t base = 0; base < length; base += 64) {
      // Strip bits past the block's last cycle belong to the next chain;
      // they land in transposed words that are never shifted.
      const std::size_t cycles = std::min<std::size_t>(64, length - base);
      values.fill(0);
      xs.fill(0);
      for (std::size_t chain = 0; chain < geo.num_chains; ++chain) {
        const std::size_t stage = chain % cfg.size;
        const std::size_t off = chain * length + base;
        values[stage] ^= bits_at(value_plane.word_data(), nwords, off);
        xs[stage] |= bits_at(x_plane.word_data(), nwords, off);
      }
      transpose64(values);
      transpose64(xs);
      for (std::size_t c = 0; c < cycles; ++c) session.shift(values[c], xs[c]);
    }
  }
  return session.finish();
}

}  // namespace xh
