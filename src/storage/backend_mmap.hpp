// Memory-mapped CSR backend: out-of-core XMatrixStore.
//
// MmapStore spills the CSR snapshot to a file and probes it through a
// read-only mmap, so the kernel's page cache — not the process heap — holds
// the row payload. A CKT-A-scale matrix whose CSR snapshot exceeds RAM
// still runs: cold rows fault in on demand and clean pages are reclaimable
// at any time, which is the property the bench smoke gate asserts
// (store.resident_bytes far below the CSR snapshot's).
//
// File layout (xh-xmm/1, host-endian, ephemeral per process):
//
//   [0, kPageSize)          header: magic, geometry, counts, section offsets
//   [cells_off, ...)        u64 cell id per row, ascending
//   [counts_off, ...)       u64 X count per row
//   [words_off, ...)        u64 row words, row-major, words_per_row each
//
// Every section starts on a kPageSize boundary so one row's payload spans
// the minimum number of pages; count_in/hash_in/intersect_into account the
// pages their row touches into store.pages_touched (a deterministic
// page-fault proxy, since the layout constant is fixed).
//
// The build follows the checkpoint codec's crash discipline: write to
// "<path>.tmp", then rename into place. By default the file is unlinked
// immediately after mapping (the mapping keeps it alive; the name can't
// leak), so the store needs no cleanup path. Unlike the RAM backends,
// construction does real I/O and throws std::ios_base::failure on any
// filesystem refusal — the service retry machinery already classifies that
// type as transient.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "response/geometry.hpp"
#include "response/x_matrix.hpp"
#include "storage/x_matrix_store.hpp"
#include "util/bitvec.hpp"

namespace xh {

struct MmapStoreOptions {
  /// Backing-file path; the builder writes "<path>.tmp" then renames.
  std::string path;
  /// Keep the named file on disk after mapping (debugging aid); default
  /// unlinks it so the kernel reclaims the space when the store dies.
  bool keep_file = false;
};

class MmapStore final : public XMatrixStore {
 public:
  /// Section alignment of the backing file. A fixed constant (not the
  /// runtime page size) so pages_touched is machine-independent.
  static constexpr std::uint64_t kPageSize = 4096;

  /// Builds the backing file from @p xm in one sorted walk of its rows and
  /// maps it read-only. Throws std::ios_base::failure when the filesystem
  /// refuses (transient to the service retry policy).
  MmapStore(const XMatrix& xm, const MmapStoreOptions& options);
  ~MmapStore() override;

  const char* backend_name() const override { return "mmap"; }
  const ScanGeometry& geometry() const override { return geometry_; }
  std::size_t num_patterns() const override { return num_patterns_; }
  std::uint64_t total_x() const override { return total_x_; }

  std::size_t num_rows() const override { return num_rows_; }
  std::size_t cell_id(std::size_t row) const override {
    return static_cast<std::size_t>(cells_[row]);
  }
  std::size_t x_count(std::size_t row) const override {
    return static_cast<std::size_t>(counts_[row]);
  }

  std::size_t count_in(std::size_t row,
                       const BitVec& patterns) const override;
  std::uint64_t hash_in(std::size_t row,
                        const BitVec& patterns) const override;
  void intersect_into(std::size_t row, const BitVec& patterns,
                      BitVec* out) const override;
  void count_in_rows(const std::uint32_t* rows, std::size_t n,
                     const BitVec& patterns,
                     std::size_t* counts) const override;
  void hash_in_rows(const std::uint32_t* rows, std::size_t n,
                    const BitVec& patterns,
                    std::uint64_t* hashes) const override;

  std::size_t words_per_row() const { return words_per_row_; }
  /// Size of the mapped backing file.
  std::uint64_t file_bytes() const { return file_bytes_; }

 protected:
  /// Heap footprint: the mapped payload lives in reclaimable page cache,
  /// not process-owned memory, so only the object's own bookkeeping counts.
  std::uint64_t resident_bytes() const override { return sizeof(MmapStore); }
  std::uint64_t mapped_bytes() const override { return file_bytes_; }

 private:
  const std::uint64_t* row_words(std::size_t row) const {
    return words_ + row * words_per_row_;
  }
  /// Pages spanned by row @p row's word payload (the page-fault proxy).
  std::uint64_t row_pages(std::size_t row) const;
  /// Accounts the pages of @p n rows (one counter update per batch).
  void note_rows_pages(const std::uint32_t* rows, std::size_t n) const;

  ScanGeometry geometry_;
  std::size_t num_patterns_ = 0;
  std::size_t words_per_row_ = 0;
  std::uint64_t total_x_ = 0;
  std::size_t num_rows_ = 0;

  void* map_ = nullptr;
  std::uint64_t file_bytes_ = 0;
  std::uint64_t words_off_ = 0;
  const std::uint64_t* cells_ = nullptr;
  const std::uint64_t* counts_ = nullptr;
  const std::uint64_t* words_ = nullptr;
};

}  // namespace xh
