// Randomized equivalence suite: the incremental PartitionEngine must be
// bit-identical to the retained seed partitioner (the oracle) — same split
// history, same partitions, same masks, same control-bit totals — for any
// geometry, density, seed and split-cell policy. This is the contract that
// lets partition_patterns() delegate to the engine without a behavioral
// release note.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "engine/partition_engine.hpp"
#include "engine/pipeline_context.hpp"
#include "storage/store_factory.hpp"
#include "storage/x_matrix_store.hpp"
#include "util/rng.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

XMatrix random_matrix(Rng& rng) {
  WorkloadProfile profile;
  profile.name = "equiv";
  profile.geometry = {2 + static_cast<std::size_t>(rng.below(14)),
                      4 + static_cast<std::size_t>(rng.below(28))};
  profile.num_patterns = 16 + static_cast<std::size_t>(rng.below(180));
  profile.x_density = 0.005 + 0.10 * rng.uniform();
  profile.clustered_fraction = rng.uniform();
  profile.cluster_cells_mean =
      2 + static_cast<std::size_t>(rng.below(12));
  profile.cluster_patterns_mean =
      2 + static_cast<std::size_t>(rng.below(12));
  profile.seed = rng.next_u64();
  return generate_workload(profile);
}

void expect_identical(const PartitionResult& want, const PartitionResult& got,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(want.partitions.size(), got.partitions.size());
  for (std::size_t i = 0; i < want.partitions.size(); ++i) {
    EXPECT_TRUE(want.partitions[i] == got.partitions[i]) << "partition " << i;
    EXPECT_TRUE(want.masks[i] == got.masks[i]) << "mask " << i;
  }
  EXPECT_EQ(want.masked_x, got.masked_x);
  EXPECT_EQ(want.leaked_x, got.leaked_x);
  EXPECT_EQ(want.total_bits, got.total_bits);
  EXPECT_EQ(want.masking_bits, got.masking_bits);
  EXPECT_EQ(want.canceling_bits, got.canceling_bits);
  ASSERT_EQ(want.history.size(), got.history.size());
  for (std::size_t i = 0; i < want.history.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i));
    EXPECT_EQ(want.history[i].round, got.history[i].round);
    EXPECT_EQ(want.history[i].num_partitions, got.history[i].num_partitions);
    EXPECT_EQ(want.history[i].masked_x, got.history[i].masked_x);
    EXPECT_EQ(want.history[i].leaked_x, got.history[i].leaked_x);
    EXPECT_EQ(want.history[i].total_bits, got.history[i].total_bits);
    EXPECT_EQ(want.history[i].split_cell, got.history[i].split_cell);
    EXPECT_EQ(want.history[i].accepted, got.history[i].accepted);
  }
}

// The core satellite requirement: >= 50 random (geometry, density, seed,
// SplitCellChoice) combinations, each checked field by field against the
// seed oracle, through both the engine and the partition_patterns wrapper.
TEST(EngineEquivalence, MatchesSeedPartitionerOnRandomWorkloads) {
  Rng rng(20260805);
  for (int iter = 0; iter < 56; ++iter) {
    const XMatrix xm = random_matrix(rng);
    PartitionerConfig cfg;
    cfg.misr = {8 + static_cast<std::size_t>(rng.below(48)),
                2 + static_cast<std::size_t>(rng.below(6))};
    cfg.cell_choice = (iter % 2 == 0) ? SplitCellChoice::kLowestIndex
                                      : SplitCellChoice::kRandom;
    cfg.allow_singleton_groups = iter % 5 == 0;
    cfg.seed = rng.next_u64();
    const std::string label =
        "iter " + std::to_string(iter) + " cells " +
        std::to_string(xm.num_cells()) + " patterns " +
        std::to_string(xm.num_patterns()) + " x " +
        std::to_string(xm.total_x());

    const PartitionResult want = partition_patterns_reference(xm, cfg);
    expect_identical(want, partition_patterns(xm, cfg), label + " wrapper");

    const std::unique_ptr<XMatrixStore> store = make_store(xm, XmBackend::kCsr);
    PartitionEngine engine(*store, cfg);
    expect_identical(want, engine.run(), label + " engine");
  }
}

// Exhaustive splitting (no cost-based stop) exercises deep split trees and
// the max_rounds bound on both implementations.
TEST(EngineEquivalence, MatchesSeedWhenSplittingExhaustively) {
  Rng rng(777);
  for (int iter = 0; iter < 8; ++iter) {
    const XMatrix xm = random_matrix(rng);
    PartitionerConfig cfg;
    cfg.misr = {32, 7};
    cfg.stop_on_cost_increase = false;
    cfg.max_rounds = 1 + static_cast<std::size_t>(rng.below(30));
    cfg.cell_choice =
        iter % 2 == 0 ? SplitCellChoice::kRandom : SplitCellChoice::kLowestIndex;
    cfg.seed = rng.next_u64();
    expect_identical(partition_patterns_reference(xm, cfg),
                     partition_patterns(xm, cfg),
                     "exhaustive iter " + std::to_string(iter));
  }
}

// The random matrices above have at most a few hundred X rows. This one has
// over 10k, so the root sweep and the early rounds group records at a scale
// where the open-addressing table is large and probe chains are long.
TEST(EngineEquivalence, MatchesSeedOnMatrixWithOverTenThousandXRows) {
  WorkloadProfile profile;
  profile.name = "ten-thousand-rows";
  profile.geometry = {32, 500};
  profile.num_patterns = 128;
  profile.x_density = 0.04;
  profile.clustered_fraction = 0.9;
  profile.cluster_cells_mean = 20;
  profile.cluster_patterns_mean = 6;
  profile.seed = 0x5eed;
  const XMatrix xm = generate_workload(profile);
  ASSERT_GE(xm.x_cells().size(), 10000u);

  PartitionerConfig cfg;
  cfg.misr = {32, 7};
  cfg.stop_on_cost_increase = false;  // masks this wide never pay off
  cfg.max_rounds = 12;
  cfg.cell_choice = SplitCellChoice::kRandom;
  cfg.seed = 2026;
  const PartitionResult want = partition_patterns_reference(xm, cfg);
  ASSERT_EQ(want.history.size(), cfg.max_rounds + 1);
  const std::unique_ptr<XMatrixStore> store = make_store(xm, XmBackend::kCsr);
  PartitionEngine engine(*store, cfg);
  expect_identical(want, engine.run(), "engine");
}

// The engine sweeps candidates in 64-row blocks. Candidate lists one short
// of, exactly at and one past one and two blocks must group, split and mask
// exactly like the seed oracle on every backend. Groups straddle every
// block edge, and every ninth cell is X under all patterns, so each block
// mixes masked, grouped and (after splits) empty rows.
TEST(EngineEquivalence, MatchesSeedAtTheSweepBlockBoundary) {
  for (const std::size_t rows : {63u, 64u, 65u, 127u, 128u, 129u}) {
    XMatrix xm({3, 50}, 70);
    Rng rng(rows);
    for (std::size_t cell = 0; cell < rows; ++cell) {
      if (cell % 9 == 4) {
        for (std::size_t p = 0; p < xm.num_patterns(); ++p) xm.add_x(cell, p);
        continue;
      }
      const std::size_t band = cell % 4;
      for (std::size_t p = band * 16; p < band * 16 + 12; ++p) {
        xm.add_x(cell, p);
      }
      xm.add_x(cell, 64 + static_cast<std::size_t>(rng.below(6)));
    }
    ASSERT_EQ(xm.num_x_cells(), rows);

    for (const XmBackend backend : {XmBackend::kCsr, XmBackend::kMmap}) {
      const std::unique_ptr<XMatrixStore> store = make_store(xm, backend);
      for (const std::size_t max_rounds : {0u, 20u}) {
        for (const SplitCellChoice choice :
             {SplitCellChoice::kLowestIndex, SplitCellChoice::kRandom}) {
          PartitionerConfig cfg;
          cfg.misr = {32, 7};
          cfg.stop_on_cost_increase = false;
          cfg.max_rounds = max_rounds;
          cfg.cell_choice = choice;
          cfg.seed = rows;
          PartitionEngine engine(*store, cfg);
          expect_identical(partition_patterns_reference(xm, cfg),
                           engine.run(),
                           std::string(store->backend_name()) + " rows " +
                               std::to_string(rows) + " max_rounds " +
                               std::to_string(max_rounds));
        }
      }
    }
  }
}

// Two candidate groups tie on score, size and X count: cells 0 and 1 are X
// under patterns {2, 3}, cells 2 and 3 under {0, 1}. The rule is that the
// lower (count, hash) key wins, which is the order the seed partitioner's
// std::map visits its groups in. The {0, 1} group has the lower hash but
// the higher cell ids, so neither row order nor the higher hash picks it.
TEST(EngineEquivalence, TiedGroupsBreakTowardTheLowerHash) {
  XMatrix xm({1, 8}, 8);
  for (const std::size_t cell : {0u, 1u}) {
    xm.add_x(cell, 2);
    xm.add_x(cell, 3);
  }
  for (const std::size_t cell : {2u, 3u}) {
    xm.add_x(cell, 0);
    xm.add_x(cell, 1);
  }
  PartitionerConfig cfg;
  cfg.misr = {32, 7};
  cfg.cell_choice = SplitCellChoice::kLowestIndex;

  const std::unique_ptr<XMatrixStore> store = make_store(xm, XmBackend::kCsr);
  const BitVec all(xm.num_patterns(), true);
  ASSERT_EQ(store->cell_id(0), 0u);
  ASSERT_EQ(store->cell_id(2), 2u);
  ASSERT_LT(store->hash_in(2, all), store->hash_in(0, all));

  const PartitionResult want = partition_patterns_reference(xm, cfg);
  ASSERT_GE(want.history.size(), 2u);
  EXPECT_EQ(want.history[1].split_cell, 2u);
  PartitionEngine engine(*store, cfg);
  const PartitionResult got = engine.run();
  ASSERT_GE(got.history.size(), 2u);
  EXPECT_EQ(got.history[1].split_cell, want.history[1].split_cell);
  expect_identical(want, got, "tie-break");
}

// The context-routed entry point is the same computation.
TEST(EngineEquivalence, ContextEntryPointMatchesWrapper) {
  Rng rng(99);
  const XMatrix xm = random_matrix(rng);
  PartitionerConfig cfg;
  cfg.misr = {24, 5};
  cfg.seed = 31337;
  PipelineContext ctx(cfg);
  expect_identical(partition_patterns(xm, cfg), run_partitioning(xm, ctx),
                   "context");
}

// A rejected probe must leave the engine state untouched: same partitions,
// same masked total, and materialize() unchanged except for the recorded
// rejection round.
TEST(EngineEquivalence, RejectedProbeIsIdempotent) {
  Rng rng(5150);
  int rejected_seen = 0;
  for (int iter = 0; iter < 40 && rejected_seen < 5; ++iter) {
    const XMatrix xm = random_matrix(rng);
    PartitionerConfig cfg;
    cfg.misr = {16, 3};  // small MISR: leaking is cheap, rejections common
    cfg.seed = rng.next_u64();
    const std::unique_ptr<XMatrixStore> store = make_store(xm, XmBackend::kCsr);
    PartitionEngine engine(*store, cfg);
    while (true) {
      const std::size_t parts_before = engine.num_partitions();
      const std::uint64_t masked_before = engine.masked_x();
      std::vector<BitVec> patterns_before;
      for (std::size_t i = 0; i < parts_before; ++i) {
        patterns_before.push_back(engine.partition_patterns_of(i));
      }
      const PartitionEngine::StepOutcome out = engine.step();
      if (out == PartitionEngine::StepOutcome::kSplit) continue;
      if (out == PartitionEngine::StepOutcome::kRejected) {
        ++rejected_seen;
        EXPECT_EQ(engine.num_partitions(), parts_before);
        EXPECT_EQ(engine.masked_x(), masked_before);
        for (std::size_t i = 0; i < parts_before; ++i) {
          EXPECT_TRUE(engine.partition_patterns_of(i) == patterns_before[i]);
        }
        EXPECT_FALSE(engine.history().back().accepted);
        EXPECT_TRUE(engine.finished());
        // Further stepping is inert and consumes no randomness.
        EXPECT_EQ(engine.step(), PartitionEngine::StepOutcome::kExhausted);
        EXPECT_EQ(engine.num_partitions(), parts_before);
      }
      break;
    }
  }
  EXPECT_GE(rejected_seen, 1);
}

}  // namespace
}  // namespace xh
