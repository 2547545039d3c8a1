// X-canceling MISR session (Yang & Touba [12,13], time-multiplexed variant).
//
// Captured slices stream into the MISR. X values are tracked symbolically;
// whenever the number of distinct X's accumulated since the last stop reaches
// m − q, scan shifting halts, Gaussian elimination finds q X-free
// combinations of the m signature bits, their values are read out, and the
// MISR restarts. Each stop costs m·q control bits from the tester (the q
// selection vectors) and one halt of the scan clock (test-time overhead).
//
// Robustness (DESIGN.md §7): a burst of X's arriving in one shift cycle can
// overshoot the m−q budget, leaving fewer than q X-free combinations at the
// stop (*extraction starvation*); and a corrupted selection vector can fail
// the X-freeness re-check (*contamination*). With a Diagnostics collector
// attached the session degrades gracefully — contaminated combinations are
// dropped (never emitted), starved stops are reported, the stop threshold is
// lowered by the outstanding deficit so the next stop's null space has room
// for the owed bits, and the threshold self-restores to m − q once the
// deficit is repaid. Without a collector, contamination keeps its legacy
// fail-fast std::logic_error.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gf2/lfsr.hpp"
#include "obs/trace.hpp"
#include "response/response_matrix.hpp"
#include "sim/logic.hpp"
#include "util/bitvec.hpp"
#include "util/check.hpp"
#include "util/diagnostics.hpp"

namespace xh {

class Gf2Matrix;

/// MISR configuration shared by simulation and accounting.
struct MisrConfig {
  std::size_t size = 32;  // m
  std::size_t q = 7;      // X-free combinations extracted per stop

  void validate() const {
    XH_REQUIRE(size >= 2 && size <= 64, "MISR size must be in [2,64]");
    XH_REQUIRE(q >= 1 && q < size, "q must satisfy 1 <= q < m");
  }
};

/// One extracted X-free signature bit.
struct SignatureBit {
  std::size_t stop_index = 0;
  BitVec combination;  // selection over the m MISR bits
  bool value = false;  // the X-canceled observation
};

/// Session outcome.
struct XCancelResult {
  std::size_t stops = 0;
  std::size_t shift_cycles = 0;
  std::size_t total_x_seen = 0;
  /// Shift-cycle index after which each stop occurred (size() == stops);
  /// lets callers replay segmentation and model halt timing.
  std::vector<std::size_t> stop_cycles;
  std::vector<SignatureBit> signature;

  /// Selection vectors actually streamed from the tester (q per healthy
  /// stop; fewer at starved stops, more at recovery stops).
  std::size_t selection_vectors = 0;
  /// Stops that yielded fewer than q verified X-free combinations.
  std::size_t starved_stops = 0;
  /// Combinations dropped because they failed the X-freeness re-check.
  std::size_t contaminated_dropped = 0;
  /// Combinations extracted beyond q at later stops to repay a deficit.
  std::size_t extra_combinations = 0;
  /// Signature bits still missing versus the q-per-stop plan at finish().
  std::size_t signature_deficit = 0;

  /// No recovery path engaged: every stop delivered its full q bits and no
  /// combination had to be dropped.
  bool healthy() const {
    return starved_stops == 0 && contaminated_dropped == 0 &&
           signature_deficit == 0;
  }

  /// Tester data for the selective-XOR network: m bits per streamed
  /// selection vector (equals stops·m·q when no recovery path engaged).
  std::size_t control_bits(const MisrConfig& cfg) const {
    return selection_vectors * cfg.size;
  }
};

/// Streaming X-canceling MISR simulator.
///
/// Feed captured slices (one Lv per MISR input stage) with shift(); call
/// finish() once at the end to flush the final partial segment. The extracted
/// signature bits are provably X-free: each combination's dependency on every
/// X symbol cancels, which the session verifies before emitting the bit.
///
/// State is fixed-size words (DESIGN.md §6): the concrete MISR is one
/// uint64_t and each MISR bit's X dependency is a two-word row in a ring of
/// m rows. Two words always suffice: a segment stops once it holds
/// stop_threshold() <= m − q symbols and one slice adds at most m, so it
/// never holds more than 2m − q − 1 <= 126.
class XCancelSession {
 public:
  /// The optional trace receives xcancel.* counters (eliminations, rows
  /// examined, combinations emitted/dropped, starvation repayments);
  /// nullptr means no instrumentation.
  explicit XCancelSession(MisrConfig cfg, Diagnostics* diags = nullptr,
                          Trace* trace = nullptr);
  ~XCancelSession();

  const MisrConfig& config() const { return cfg_; }

  /// One scan shift cycle. @p slice must have cfg.size entries; Z is not a
  /// capturable value.
  void shift(const std::vector<Lv>& slice);

  /// One scan shift cycle as words: bit i is MISR stage i. A stage set in
  /// @p xs captures an X and its bit in @p values is ignored; no bit at or
  /// above cfg.size may be set in either word.
  void shift(std::uint64_t values, std::uint64_t xs);

  /// Flushes the trailing segment (extracts final combinations) and returns
  /// the result. The session can keep shifting afterwards only after reset().
  const XCancelResult& finish();

  void reset();

  /// Capacity hint: room for @p bits signature bits before the vector has
  /// to grow. A long stream's signature runs to megabytes, and regrowing it
  /// by doubling leaves the freed blocks behind in the heap.
  void reserve_signature(std::size_t bits) {
    result_.signature.reserve(bits);
  }

  /// Fault-injection hook (src/inject): invoked at every extraction with the
  /// candidate selection vectors and the segment's X-dependency rows, before
  /// verification. Tampered combinations exercise the contamination-drop
  /// recovery path deterministically. With a hook installed, contamination is
  /// always dropped-and-reported, never thrown.
  using CombinationTamper =
      std::function<void(std::vector<BitVec>& combinations,
                         const Gf2Matrix& xdeps)>;
  void install_combination_tamper(CombinationTamper hook);

 private:
  /// One MISR bit's dependency on the segment's X symbols (bit k of the
  /// pair is symbol k).
  using XRow = std::array<std::uint64_t, 2>;

  void extract(bool final_flush);
  /// Nominal m − q, lowered by the outstanding deficit so the next stop's
  /// null space has room for the owed bits; self-restores on repayment.
  std::size_t stop_threshold() const;
  /// Ring slot of logical MISR bit @p bit.
  XRow& row(std::size_t bit) {
    const std::size_t slot = head_ + bit;
    return xdep_[slot < cfg_.size ? slot : slot - cfg_.size];
  }
  void clear_segment();
  void count_recheck(std::uint64_t rows);

  /// Hot-loop counter handles. Defined in the .cpp: a handle's type
  /// depends on XH_OBS_NOOP, and this header's layout must not.
  struct Counters;

  MisrConfig cfg_;
  std::uint64_t full_ = 0;     // the low m bits
  std::uint64_t tapmask_ = 0;  // bit 0 plus the feedback taps
  std::uint64_t state_ = 0;    // concrete MISR, X read as 0
  std::array<XRow, 64> xdep_{};  // ring of m rows; logical bit 0 at head_
  std::size_t head_ = 0;
  std::size_t segment_x_ = 0;  // symbols allocated in current segment
  std::size_t deficit_ = 0;    // signature bits owed from starved stops
  XCancelResult result_;
  bool finished_ = false;
  Diagnostics* diags_ = nullptr;
  Trace* trace_ = nullptr;
  CombinationTamper tamper_;
  std::unique_ptr<Counters> counters_;
};

/// Convenience driver: shifts an entire response matrix through an
/// X-canceling MISR. Chains map to MISR stages round-robin
/// (stage = chain mod m, a spatial XOR compactor when chains > m); cells
/// shift out position 0 first. Chains folded into one stage XOR their
/// values, and an X on any of them makes the stage X for that cycle: two
/// X's in one stage are one symbol, and the stage's deterministic bits are
/// lost with it.
[[nodiscard]] XCancelResult run_x_canceling(const ResponseMatrix& response,
                                            MisrConfig cfg,
                                            Diagnostics* diags = nullptr,
                                            Trace* trace = nullptr);

}  // namespace xh
