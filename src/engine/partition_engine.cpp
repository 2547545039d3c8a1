#include "engine/partition_engine.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <string>

#include "misr/accounting.hpp"
#include "storage/store_factory.hpp"
#include "util/check.hpp"
#include "util/diagnostics.hpp"

namespace xh {
namespace {

/// One swept row that has X's inside the partition but is not maskable:
/// the group key the seed partitioner uses — (restricted count,
/// restricted-pattern-set hash) — plus the row it came from.
struct GroupRecord {
  std::uint64_t hash;
  std::uint32_t count;
  std::uint32_t row;
};

/// Open-addressing slot of the group-size table; count == 0 marks it empty
/// (records always have 0 < count < span).
struct GroupSlot {
  std::uint64_t hash = 0;
  std::uint32_t count = 0;
  std::uint32_t size = 0;
};

/// Rows per analysis block: the counted rows of one block (64 × 47 words
/// at 3000 patterns, 24 KiB) are still in L1 when their group keys are
/// hashed.
constexpr std::size_t kBlockRows = 64;

std::size_t slot_of(std::uint64_t hash, std::uint32_t count, unsigned bits) {
  const std::uint64_t mixed =
      (hash ^ (count * 0x9e3779b97f4a7c15ULL)) * 0xff51afd7ed558ccdULL;
  return static_cast<std::size_t>(mixed >> (64 - bits));
}

}  // namespace

PartitionEngine::PartitionEngine(const XMatrixStore& store,
                                 const PartitionerConfig& cfg, Trace* trace,
                                 const CancelToken* cancel)
    : store_(store),
      cfg_(cfg),
      trace_(trace),
      cancel_(cancel),
      rng_(cfg.seed) {
  cfg_.misr.validate();
  XH_REQUIRE(store_.num_patterns() > 0, "X matrix has no patterns");
  XH_ASSERT(store_.num_rows() <
                std::numeric_limits<std::uint32_t>::max(),
            "row index overflows the member representation");
  XH_ASSERT(store_.num_patterns() <
                std::numeric_limits<std::uint32_t>::max(),
            "X count overflows the group representation");

  std::vector<std::uint32_t> all(store_.num_rows());
  for (std::size_t r = 0; r < all.size(); ++r) {
    all[r] = static_cast<std::uint32_t>(r);
  }
  parts_.push_back(analyze(BitVec(store_.num_patterns(), true), all));
  masked_total_ = parts_.front().masked_x();
  history_.push_back(snapshot_round(0, 1, masked_total_));
}

PartitionEngine::PartitionEngine(const XMatrixStore& store,
                                 const PartitionerConfig& cfg,
                                 const EngineSnapshot& snapshot, Trace* trace,
                                 const CancelToken* cancel)
    : store_(store),
      cfg_(cfg),
      trace_(trace),
      cancel_(cancel),
      rng_(cfg.seed) {
  cfg_.misr.validate();
  XH_REQUIRE(store_.num_patterns() > 0, "X matrix has no patterns");
  XH_REQUIRE(!snapshot.partitions.empty(),
             "snapshot must hold at least the root partition");
  XH_REQUIRE(!snapshot.history.empty(),
             "snapshot history must hold at least the round-0 entry");

  // The stored partitions must be a disjoint cover of every pattern:
  // spans sum to num_patterns AND their union saturates, which together
  // rule out both overlap and gaps.
  BitVec cover(store_.num_patterns());
  std::size_t span_sum = 0;
  for (const BitVec& patterns : snapshot.partitions) {
    XH_REQUIRE(patterns.size() == store_.num_patterns(),
               "snapshot partition width != store pattern count");
    span_sum += patterns.count();
    cover |= patterns;
  }
  XH_REQUIRE(span_sum == store_.num_patterns() &&
                 cover.count() == store_.num_patterns(),
             "snapshot partitions must disjointly cover all patterns");

  rng_.set_state(snapshot.rng_state);

  // Re-derive each partition's analysis with a full-row sweep; analyze()
  // skips rows with no X in the partition and keeps rows ascending, so the
  // Part is identical to the one built incrementally.
  std::vector<std::uint32_t> all(store_.num_rows());
  for (std::size_t r = 0; r < all.size(); ++r) {
    all[r] = static_cast<std::uint32_t>(r);
  }
  parts_.reserve(snapshot.partitions.size());
  for (const BitVec& patterns : snapshot.partitions) {
    parts_.push_back(analyze(patterns, all));
    masked_total_ += parts_.back().masked_x();
  }
  history_ = snapshot.history;
  round_ = snapshot.round;
  done_ = snapshot.done;
  obs_count(trace_, "engine.snapshot_restores");
}

EngineSnapshot PartitionEngine::snapshot() const {
  EngineSnapshot snap;
  snap.round = round_;
  snap.done = done_;
  snap.rng_state = rng_.state();
  snap.partitions.reserve(parts_.size());
  for (const Part& p : parts_) snap.partitions.push_back(p.patterns);
  snap.history = history_;
  return snap;
}

PartitionEngine::Part PartitionEngine::analyze(
    BitVec patterns, const std::vector<std::uint32_t>& candidates) {
  Part part;
  part.span = patterns.count();
  part.patterns = std::move(patterns);
  XH_ASSERT(part.span > 0, "empty partition");

  // Sweep the candidate rows in ascending blocks: count the whole block,
  // then hash its rows with 0 < count < span while their words are still
  // in L1. Members and records stay ascending.
  std::vector<GroupRecord> records;
  std::array<std::size_t, kBlockRows> counts{};
  std::array<std::uint32_t, kBlockRows> grouped{};  // rows to hash
  std::array<std::uint32_t, kBlockRows> grouped_counts{};
  std::array<std::uint64_t, kBlockRows> hashes{};
  for (std::size_t begin = 0; begin < candidates.size(); begin += kBlockRows) {
    const std::uint32_t* block = candidates.data() + begin;
    const std::size_t n = std::min(kBlockRows, candidates.size() - begin);
    store_.count_in_rows(block, n, part.patterns, counts.data());
    std::size_t num_grouped = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (counts[i] == 0) continue;
      part.members.push_back(block[i]);
      if (counts[i] == part.span) {
        ++part.masked_cells;
      } else {
        grouped_counts[num_grouped] = static_cast<std::uint32_t>(counts[i]);
        grouped[num_grouped++] = block[i];
      }
    }
    if (num_grouped == 0) continue;
    store_.hash_in_rows(grouped.data(), num_grouped, part.patterns,
                        hashes.data());
    for (std::size_t j = 0; j < num_grouped; ++j) {
      records.push_back({hashes[j], grouped_counts[j], grouped[j]});
    }
  }
  // Members live as long as the partition; drop the growth slack.
  part.members.shrink_to_fit();
  obs_count(trace_, "engine.cell_analyses");
  obs_count(trace_, "engine.rows_examined", candidates.size());

  // Count group sizes in a linear-probing table at most half full.
  unsigned bits = 1;
  while ((std::size_t{1} << bits) < 2 * records.size()) ++bits;
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  std::vector<GroupSlot> table(mask + 1);
  for (const GroupRecord& rec : records) {
    std::size_t i = slot_of(rec.hash, rec.count, bits);
    while (table[i].count != 0 &&
           (table[i].count != rec.count || table[i].hash != rec.hash)) {
      i = (i + 1) & mask;
    }
    table[i].hash = rec.hash;
    table[i].count = rec.count;
    ++table[i].size;
  }

  // Rank by maskable X volume; break ties toward more cells, then the
  // higher X count, then the lower hash — the seed partitioner's rule, with
  // its ascending (count, hash) map order made explicit.
  GroupSlot win;  // score 0: every occupied slot beats it
  for (const GroupSlot& g : table) {
    if (g.count == 0) continue;
    const std::size_t score = std::size_t{g.size} * g.count;
    const std::size_t win_score = std::size_t{win.size} * win.count;
    const bool better =
        score > win_score ||
        (score == win_score &&
         (g.size > win.size ||
          (g.size == win.size &&
           (g.count > win.count ||
            (g.count == win.count && g.hash < win.hash)))));
    if (better) win = g;
  }
  part.group_size = win.size;
  part.group_xcount = win.count;

  // Only the winner's cells are gathered; rows ascend, so cell ids do too.
  part.group_cells.reserve(win.size);
  for (const GroupRecord& rec : records) {
    if (rec.count == win.count && rec.hash == win.hash) {
      part.group_cells.push_back(store_.cell_id(rec.row));
    }
  }
  return part;
}

PartitionRound PartitionEngine::snapshot_round(std::size_t round,
                                               std::size_t num_parts,
                                               std::uint64_t masked) const {
  PartitionRound r;
  r.round = round;
  r.num_partitions = num_parts;
  r.masked_x = masked;
  r.leaked_x = store_.total_x() - masked;
  r.total_bits =
      hybrid_bits(store_.geometry(), num_parts, cfg_.misr, r.leaked_x);
  return r;
}

PartitionEngine::StepOutcome PartitionEngine::step() {
  if (done_ || round_ >= cfg_.max_rounds) {
    done_ = true;
    return StepOutcome::kExhausted;
  }
  // Cooperative stop, polled only here — a round boundary — so every
  // observable state is a valid accepted-round prefix. done_ stays false:
  // the search is paused, not finished, and a snapshot can resume it.
  if (cancel_ != nullptr && cancel_->stop_requested()) {
    interrupted_ = true;
    obs_count(trace_, "engine.rounds_cancelled");
    return StepOutcome::kCancelled;
  }

  // Candidate = partition with the strongest same-count group.
  std::size_t best = parts_.size();
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (!parts_[i].splittable(cfg_.allow_singleton_groups)) continue;
    if (best == parts_.size() ||
        parts_[i].group_score() > parts_[best].group_score()) {
      best = i;
    }
  }
  if (best == parts_.size()) {
    done_ = true;
    return StepOutcome::kExhausted;  // nothing left to split
  }

  const Part& victim = parts_[best];
  const std::size_t pick =
      cfg_.cell_choice == SplitCellChoice::kRandom
          ? static_cast<std::size_t>(rng_.below(victim.group_cells.size()))
          : 0;  // group_cells is ascending
  const std::size_t split_cell = victim.group_cells[pick];

  // Locate the split cell's store row (group_cells holds cell ids; rows are
  // ascending by cell id, so a binary search keeps this O(log n)).
  std::size_t row = 0;
  {
    std::size_t lo = 0;
    std::size_t hi = store_.num_rows();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (store_.cell_id(mid) < split_cell) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    XH_ASSERT(lo < store_.num_rows() && store_.cell_id(lo) == split_cell,
              "split cell missing from the store");
    row = lo;
  }

  BitVec with_x(store_.num_patterns());
  store_.intersect_into(row, victim.patterns, &with_x);
  BitVec without_x = victim.patterns;
  without_x.and_not(with_x);
  XH_ASSERT(with_x.any() && without_x.any(),
            "split cell must divide the partition");

  obs_count(trace_, "engine.probes_attempted");
  obs_record(trace_, "engine.victim_rows", victim.members.size());

  Part a = analyze(std::move(with_x), victim.members);
  Part b = analyze(std::move(without_x), victim.members);

  const std::uint64_t probe_masked =
      masked_total_ - victim.masked_x() + a.masked_x() + b.masked_x();
  PartitionRound probe =
      snapshot_round(round_ + 1, parts_.size() + 1, probe_masked);
  probe.split_cell = split_cell;

  if (cfg_.stop_on_cost_increase &&
      probe.total_bits >= history_.back().total_bits) {
    probe.accepted = false;
    history_.push_back(probe);
    done_ = true;
    // Rejection touches no partition state: the probe was costed from
    // running totals, so this is the zero-copy path.
    obs_count(trace_, "engine.probes_rejected_zero_copy");
    return StepOutcome::kRejected;
  }

  // Accept: splice the victim out, append the two halves (same ordering as
  // the seed's erase + push_back, so future best-partition scans agree).
  parts_.erase(parts_.begin() + static_cast<std::ptrdiff_t>(best));
  parts_.push_back(std::move(a));
  parts_.push_back(std::move(b));
  masked_total_ = probe_masked;
  history_.push_back(probe);
  ++round_;
  obs_count(trace_, "engine.probes_accepted");
  return StepOutcome::kSplit;
}

PartitionResult PartitionEngine::run() {
  while (step() == StepOutcome::kSplit) {
  }
  return materialize();
}

PartitionResult PartitionEngine::materialize() const {
  PartitionResult result;
  result.history = history_;
  result.partitions.reserve(parts_.size());
  result.masks.reserve(parts_.size());
  std::uint64_t masked = 0;
  std::array<std::size_t, kBlockRows> counts{};
  for (const Part& p : parts_) {
    BitVec mask(store_.num_cells());
    for (std::size_t begin = 0; begin < p.members.size();
         begin += kBlockRows) {
      const std::uint32_t* block = p.members.data() + begin;
      const std::size_t n = std::min(kBlockRows, p.members.size() - begin);
      store_.count_in_rows(block, n, p.patterns, counts.data());
      for (std::size_t i = 0; i < n; ++i) {
        // Masked ⇔ X under every pattern of the partition.
        if (counts[i] == p.span) mask.set(store_.cell_id(block[i]));
      }
    }
    XH_ASSERT(mask.count() == p.masked_cells, "mask/analysis disagreement");
    masked += p.masked_x();
    result.partitions.push_back(p.patterns);
    result.masks.push_back(std::move(mask));
  }
  result.masked_x = masked;
  result.leaked_x = store_.total_x() - masked;
  result.masking_bits =
      static_cast<double>(store_.geometry().num_cells()) *
      static_cast<double>(result.partitions.size());
  result.canceling_bits = x_canceling_only_bits(cfg_.misr, result.leaked_x);
  result.total_bits = result.masking_bits + result.canceling_bits;
  result.interrupted = interrupted_;
  return result;
}

PartitionResult run_partitioning(const XMatrix& xm, PipelineContext& ctx) {
  ctx.partitioner.misr.validate();
  XH_REQUIRE(xm.num_patterns() > 0, "X matrix has no patterns");
  const ScopedSpan span(ctx.trace(), "partition");
  const std::unique_ptr<XMatrixStore> store =
      make_store(xm, ctx.xm_backend(), ctx.store_options());
  PartitionEngine engine(*store, ctx);
  PartitionResult result = engine.run();
  export_store_telemetry(*store, ctx.trace());
  if (result.interrupted) {
    // Deadline/cancel degradation: report it, don't fail — the prefix is a
    // valid partition. The gauge is only emitted on the degraded path so
    // clean runs keep their telemetry byte-identical to before.
    obs_gauge(ctx.trace(), "hybrid.degraded", 1.0);
    diag_report(ctx.collector(), DiagSeverity::kWarning,
                DiagKind::kDeadlineExceeded, "partitioning",
                "stopped at round boundary " +
                    std::to_string(result.history.back().round) +
                    " by the cancellation token; best-so-far partition kept");
  }
  return result;
}

}  // namespace xh
