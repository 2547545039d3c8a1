// XMatrixStore contract (DESIGN.md §12): every backend — CSR and mmap —
// must present the frozen X matrix identically: same rows in ascending
// cell-id order, same counts, and count_in/hash_in/intersect_into agreeing
// bit for bit with the BitVec formulation the seed partitioner uses. The
// backend-specific sections pin what makes each representation worth
// having: CSR's raw word access, and the mmap store's file protocol and
// page accounting.
#include "storage/x_matrix_store.hpp"

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <ios>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/kernels.hpp"
#include "response/x_matrix.hpp"
#include "storage/backend_csr.hpp"
#include "storage/backend_mmap.hpp"
#include "storage/store_factory.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

namespace fs = std::filesystem;

constexpr XmBackend kAllBackends[] = {XmBackend::kCsr, XmBackend::kMmap};

XMatrix random_matrix(std::uint64_t seed, std::size_t chains,
                      std::size_t length, std::size_t patterns,
                      double density) {
  WorkloadProfile profile;
  profile.name = "store-test";
  profile.geometry = {chains, length};
  profile.num_patterns = patterns;
  profile.x_density = density;
  profile.clustered_fraction = 0.5;
  profile.cluster_cells_mean = 4;
  profile.cluster_patterns_mean = 4;
  profile.seed = seed;
  return generate_workload(profile);
}

/// The seed partitioner's set_hash, restricted to (row & subset): the group
/// key every backend's hash_in must reproduce exactly — including the
/// multiply step on all-zero words.
std::uint64_t reference_hash(const BitVec& pats, const BitVec& subset) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t w = 0; w < subset.word_count(); ++w) {
    h ^= pats.word(w) & subset.word(w);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(StoreContract, SnapshotMatchesSourceMatrixOnEveryBackend) {
  const XMatrix xm = random_matrix(11, 6, 9, 70, 0.05);
  for (const XmBackend backend : kAllBackends) {
    const std::unique_ptr<XMatrixStore> store = make_store(xm, backend);
    SCOPED_TRACE(store->backend_name());

    EXPECT_EQ(store->geometry(), xm.geometry());
    EXPECT_EQ(store->num_patterns(), xm.num_patterns());
    EXPECT_EQ(store->num_cells(), xm.num_cells());
    EXPECT_EQ(store->total_x(), xm.total_x());
    EXPECT_EQ(store->num_rows(), xm.x_cells().size());

    const auto cells = xm.x_cells();
    std::uint64_t total = 0;
    for (std::size_t r = 0; r < store->num_rows(); ++r) {
      EXPECT_EQ(store->cell_id(r), cells[r]);
      EXPECT_EQ(store->x_count(r), xm.patterns_of(cells[r]).count());
      total += store->x_count(r);
    }
    EXPECT_EQ(total, store->total_x());
  }
}

TEST(StoreContract, ProbesAgreeWithBitVecFormulationOnEveryBackend) {
  const XMatrix xm = random_matrix(23, 4, 8, 130, 0.08);
  for (const XmBackend backend : kAllBackends) {
    const std::unique_ptr<XMatrixStore> store = make_store(xm, backend);
    SCOPED_TRACE(store->backend_name());
    Rng rng(99);
    for (int iter = 0; iter < 20; ++iter) {
      BitVec subset(xm.num_patterns());
      for (std::size_t p = 0; p < subset.size(); ++p) {
        if (rng.chance(0.5)) subset.set(p);
      }
      for (std::size_t r = 0; r < store->num_rows(); ++r) {
        const BitVec& pats = xm.patterns_of(store->cell_id(r));
        EXPECT_EQ(store->count_in(r, subset), kernels::and_count(pats, subset));
        EXPECT_EQ(store->hash_in(r, subset), reference_hash(pats, subset));
        EXPECT_EQ(store->and_not_count(r, subset),
                  pats.count() - kernels::and_count(pats, subset));
        BitVec expect = pats & subset;
        BitVec got;
        store->intersect_into(r, subset, &got);
        EXPECT_TRUE(got == expect);
      }
    }
  }
}

/// Subsets that put all-zero words at the start, middle and end of the
/// pattern axis, plus a dense one and the empty one.
std::vector<BitVec> probe_subsets(std::size_t patterns, Rng& rng) {
  std::vector<BitVec> subsets(5, BitVec(patterns));
  for (std::size_t p = 0; p < patterns; ++p) {
    if (rng.chance(0.6)) subsets[0].set(p);
    if ((p / 64) % 3 == 1 && rng.chance(0.5)) subsets[1].set(p);
  }
  subsets[1].set(0);
  subsets[2].set(patterns - 1);  // a leading zero run only
  subsets[3].set(0);             // a trailing zero run only
  return subsets;                // subsets[4] stays empty
}

// The batched probes must return, row for row, what the per-row probes
// return, and advance every counter (mmap's page proxy included) by exactly
// the per-row totals. Batch sizes straddle the 4-row hash interleave and
// the engine's 64-row block; widths straddle word boundaries up to the 47
// words of 3000 patterns. Rows are drawn at random, repeats included.
TEST(StoreContract, BatchedProbesMatchPerRowProbesOnEveryBackend) {
  for (const std::size_t patterns : {1u, 63u, 64u, 65u, 130u, 3000u}) {
    XMatrix xm({4, 80}, patterns);
    Rng fill(patterns);
    for (std::size_t cell = 0; cell < xm.num_cells(); ++cell) {
      if (cell % 5 == 0) continue;  // cells with no X get no row
      xm.add_x(cell, static_cast<std::size_t>(fill.below(patterns)));
      for (std::size_t p = 0; p < patterns; ++p) {
        if (fill.chance(0.3)) xm.add_x(cell, p);
      }
    }
    Rng pick(patterns + 7);
    const std::vector<BitVec> subsets = probe_subsets(patterns, pick);
    for (const XmBackend backend : kAllBackends) {
      const std::unique_ptr<XMatrixStore> store = make_store(xm, backend);
      ASSERT_GT(store->num_rows(), 200u);
      for (std::size_t si = 0; si < subsets.size(); ++si) {
        const BitVec& subset = subsets[si];
        for (const std::size_t n :
             {0u, 1u, 3u, 4u, 5u, 63u, 64u, 65u, 200u}) {
          SCOPED_TRACE(std::string(store->backend_name()) + " patterns " +
                       std::to_string(patterns) + " subset " +
                       std::to_string(si) + " n " + std::to_string(n));
          std::vector<std::uint32_t> rows(n);
          for (auto& r : rows) {
            r = static_cast<std::uint32_t>(pick.below(store->num_rows()));
          }
          std::vector<std::size_t> counts(n, 0xdead);
          std::vector<std::uint64_t> hashes(n, 0xbeef);

          const StoreStats s0 = store->stats();
          store->count_in_rows(rows.data(), n, subset, counts.data());
          const StoreStats s1 = store->stats();
          store->hash_in_rows(rows.data(), n, subset, hashes.data());
          const StoreStats s2 = store->stats();
          for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(counts[i], store->count_in(rows[i], subset)) << i;
          }
          const StoreStats s3 = store->stats();
          for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(hashes[i], store->hash_in(rows[i], subset)) << i;
          }
          const StoreStats s4 = store->stats();

          EXPECT_EQ(s1.probe_count_in - s0.probe_count_in, n);
          EXPECT_EQ(s1.probe_hash_in, s0.probe_hash_in);
          EXPECT_EQ(s2.probe_hash_in - s1.probe_hash_in, n);
          EXPECT_EQ(s2.probe_count_in, s1.probe_count_in);
          EXPECT_EQ(s2.rows_touched - s0.rows_touched, 2 * n);
          EXPECT_EQ(s2.probe_intersect, s0.probe_intersect);
          // Same pages as the per-row probes of the same rows.
          EXPECT_EQ(s1.pages_touched - s0.pages_touched,
                    s3.pages_touched - s2.pages_touched);
          EXPECT_EQ(s2.pages_touched - s1.pages_touched,
                    s4.pages_touched - s3.pages_touched);
          if (backend == XmBackend::kMmap && n > 0) {
            EXPECT_GE(s1.pages_touched - s0.pages_touched, n);
          }
        }
      }
    }
  }
}

TEST(StoreContract, SnapshotIsIndependentOfSourceMutation) {
  for (const XmBackend backend : kAllBackends) {
    XMatrix xm = random_matrix(5, 3, 5, 40, 0.1);
    const std::unique_ptr<XMatrixStore> store = make_store(xm, backend);
    SCOPED_TRACE(store->backend_name());
    const std::uint64_t before = store->total_x();
    xm.add_x(0, 0);
    xm.add_x(1, 1);
    EXPECT_EQ(store->total_x(), before);
  }
}

TEST(StoreContract, EmptyMatrixHasNoRows) {
  const XMatrix xm({2, 4}, 10);
  for (const XmBackend backend : kAllBackends) {
    const std::unique_ptr<XMatrixStore> store = make_store(xm, backend);
    SCOPED_TRACE(store->backend_name());
    EXPECT_EQ(store->num_rows(), 0u);
    EXPECT_EQ(store->total_x(), 0u);
    // Probes on an empty subset universe still behave.
    const StoreStats stats = store->stats();
    EXPECT_EQ(stats.rows_touched, 0u);
  }
}

TEST(StoreContract, ProbeAccountingIsExactAndMonotonic) {
  const XMatrix xm = random_matrix(31, 4, 8, 96, 0.06);
  for (const XmBackend backend : kAllBackends) {
    const std::unique_ptr<XMatrixStore> store = make_store(xm, backend);
    SCOPED_TRACE(store->backend_name());
    ASSERT_GT(store->num_rows(), 0u);

    BitVec subset(xm.num_patterns());
    subset.set(0);
    (void)store->count_in(0, subset);
    (void)store->count_in(0, subset);
    (void)store->hash_in(0, subset);
    BitVec out;
    store->intersect_into(0, subset, &out);

    const StoreStats stats = store->stats();
    EXPECT_EQ(stats.probe_count_in, 2u);
    EXPECT_EQ(stats.probe_hash_in, 1u);
    EXPECT_EQ(stats.probe_intersect, 1u);
    EXPECT_EQ(stats.rows_touched, 4u);
    EXPECT_GT(stats.resident_bytes, 0u);
  }
}

// and_not_count is fused from the precomputed row count, so it must not
// count as an extra probe beyond its count_in component.
TEST(StoreContract, AndNotCountReusesCountIn) {
  const XMatrix xm = random_matrix(37, 3, 6, 64, 0.1);
  const std::unique_ptr<XMatrixStore> store = make_store(xm, XmBackend::kCsr);
  ASSERT_GT(store->num_rows(), 0u);
  BitVec subset(xm.num_patterns());
  (void)store->and_not_count(0, subset);
  const StoreStats stats = store->stats();
  EXPECT_EQ(stats.probe_count_in, 1u);
  EXPECT_EQ(stats.probe_hash_in, 0u);
}

// --- CSR specifics -------------------------------------------------------

TEST(CsrStore, RowWordsReproduceTheSourceBitForBit) {
  const XMatrix xm = random_matrix(41, 6, 9, 70, 0.05);
  const CsrStore store(xm);
  const auto cells = xm.x_cells();
  for (std::size_t r = 0; r < store.num_rows(); ++r) {
    const BitVec& pats = xm.patterns_of(cells[r]);
    for (std::size_t w = 0; w < store.words_per_row(); ++w) {
      EXPECT_EQ(store.row_words(r)[w], pats.word(w));
    }
  }
}

// --- mmap specifics ------------------------------------------------------

TEST(MmapStore, BuildsThePagedFileProtocol) {
  const XMatrix xm = random_matrix(47, 6, 9, 200, 0.05);
  const fs::path path = fs::path(::testing::TempDir()) / "xh_store_keep.xmm";
  fs::remove(path);
  MmapStoreOptions options;
  options.path = path.string();
  options.keep_file = true;
  const MmapStore store(xm, options);

  // keep_file leaves the named file; the tmp staging file must be gone.
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
  EXPECT_EQ(store.file_bytes(), fs::file_size(path));
  // Header page + three page-aligned sections.
  EXPECT_GE(store.file_bytes(), 4 * MmapStore::kPageSize);
  EXPECT_EQ(store.file_bytes() % MmapStore::kPageSize, 0u);

  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.mapped_bytes, store.file_bytes());
  // The payload lives in page cache; the object's own footprint is tiny.
  EXPECT_LT(stats.resident_bytes, MmapStore::kPageSize);
  fs::remove(path);
}

TEST(MmapStore, UnlinksTheBackingFileByDefault) {
  const XMatrix xm = random_matrix(53, 4, 8, 96, 0.05);
  const fs::path path = fs::path(::testing::TempDir()) / "xh_store_drop.xmm";
  fs::remove(path);
  MmapStoreOptions options;
  options.path = path.string();
  const MmapStore store(xm, options);
  EXPECT_FALSE(fs::exists(path)) << "default must unlink after mapping";
  // The mapping keeps the data alive regardless.
  ASSERT_GT(store.num_rows(), 0u);
  EXPECT_EQ(store.cell_id(0), xm.x_cells().front());
}

TEST(MmapStore, CountsPagesTouchedByRowProbes) {
  const XMatrix xm = random_matrix(59, 4, 8, 96, 0.08);
  const fs::path path = fs::path(::testing::TempDir()) / "xh_store_pages.xmm";
  fs::remove(path);
  MmapStoreOptions options;
  options.path = path.string();
  const MmapStore store(xm, options);
  ASSERT_GT(store.num_rows(), 0u);

  EXPECT_EQ(store.stats().pages_touched, 0u);
  BitVec subset(xm.num_patterns());
  subset.set(1);
  (void)store.count_in(0, subset);
  const std::uint64_t once = store.stats().pages_touched;
  EXPECT_GE(once, 1u);
  (void)store.count_in(0, subset);
  // Deterministic: the same probe touches the same pages again.
  EXPECT_EQ(store.stats().pages_touched, 2 * once);
}

TEST(MmapStore, RefusalToWriteThrowsIosFailure) {
  const XMatrix xm = random_matrix(61, 2, 4, 16, 0.1);
  MmapStoreOptions options;
  options.path = (fs::path(::testing::TempDir()) / "xh_no_such_dir" /
                  "deep" / "store.xmm")
                     .string();
  EXPECT_THROW(MmapStore(xm, options), std::ios_base::failure);
}

// --- factory -------------------------------------------------------------

TEST(StoreFactory, ParsesCanonicalSpellingsOnly) {
  XmBackend backend = XmBackend::kMmap;
  EXPECT_TRUE(parse_xm_backend("auto", &backend));
  EXPECT_EQ(backend, XmBackend::kAuto);
  EXPECT_TRUE(parse_xm_backend("csr", &backend));
  EXPECT_EQ(backend, XmBackend::kCsr);
  EXPECT_TRUE(parse_xm_backend("mmap", &backend));
  EXPECT_EQ(backend, XmBackend::kMmap);

  backend = XmBackend::kCsr;
  EXPECT_FALSE(parse_xm_backend("CSR", &backend));
  EXPECT_FALSE(parse_xm_backend("", &backend));
  EXPECT_FALSE(parse_xm_backend("mmapp", &backend));
  EXPECT_FALSE(parse_xm_backend("tebm", &backend));  // removed backend
  EXPECT_EQ(backend, XmBackend::kCsr) << "failed parse must not write";

  for (const XmBackend b :
       {XmBackend::kAuto, XmBackend::kCsr, XmBackend::kMmap}) {
    XmBackend round = XmBackend::kAuto;
    EXPECT_TRUE(parse_xm_backend(xm_backend_name(b), &round));
    EXPECT_EQ(round, b);
  }
}

TEST(StoreFactory, AutoSpillsToMmapPastTheThreshold) {
  const XMatrix xm = random_matrix(67, 4, 8, 96, 0.05);
  StoreFactoryOptions generous;  // default 1 GiB: stays in RAM
  EXPECT_EQ(resolve_xm_backend(XmBackend::kAuto, xm, generous),
            XmBackend::kCsr);

  StoreFactoryOptions tiny;
  tiny.auto_mmap_threshold_bytes = 1;
  EXPECT_EQ(resolve_xm_backend(XmBackend::kAuto, xm, tiny), XmBackend::kMmap);
  // Non-auto requests pass through untouched.
  EXPECT_EQ(resolve_xm_backend(XmBackend::kCsr, xm, tiny), XmBackend::kCsr);

  const std::unique_ptr<XMatrixStore> spilled =
      make_store(xm, XmBackend::kAuto, tiny);
  EXPECT_STREQ(spilled->backend_name(), "mmap");
  const std::unique_ptr<XMatrixStore> resident = make_store(xm);
  EXPECT_STREQ(resident->backend_name(), "csr");
}

TEST(StoreFactory, EstimateScalesWithRowsAndPatternWords) {
  const XMatrix small = random_matrix(71, 2, 4, 64, 0.1);
  const XMatrix wide = random_matrix(71, 2, 4, 6400, 0.1);
  EXPECT_GT(estimate_csr_bytes(wide), estimate_csr_bytes(small));
  const XMatrix empty({2, 4}, 64);
  EXPECT_EQ(estimate_csr_bytes(empty), 0u);
}

}  // namespace
}  // namespace xh
