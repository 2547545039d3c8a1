// Abstract storage interface for the frozen X matrix (DESIGN.md §12).
//
// The partition engine probes the X matrix with three fused operations —
// count_in (popcount of row ∩ pattern-set), hash_in (the FNV-1a group key),
// intersect_into (materialize row ∩ pattern-set) — plus cheap row metadata
// (cell id, total X count). XMatrixStore abstracts those probes away from
// the physical representation so the engine can run against:
//
//   * CsrStore  — the original in-RAM CSR snapshot (default; bit-identical
//                 to the pre-refactor XMatrixView),
//   * TebmStore — a tree-encoded bitmap that compresses sparse rows per
//                 256-pattern chunk (the partition-of-tree-masks idiom),
//   * MmapStore — a memory-mapped CSR file for out-of-core workloads.
//
// Every backend must be a *value*: immutable after construction, safe for
// concurrent readers with no external synchronization. Probe accounting
// uses relaxed atomics internally, so stats() is likewise safe to call at
// any time; the probe totals are a pure function of the engine's work.
//
// Contract every backend must honor bit for bit (the cross-backend
// equivalence suite enforces it):
//   * rows are the X-capturing cells in ascending cell-id order;
//   * count_in/hash_in/intersect_into agree with the CSR formulation over
//     the same 64-bit word sequence — hash_in in particular must fold EVERY
//     word (including all-zero ones) through the FNV-1a step, because the
//     seed partitioner's set_hash does;
//   * intersect_into resizes the output to num_patterns().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "response/geometry.hpp"
#include "util/bitvec.hpp"

namespace xh {

class Trace;

/// Point-in-time snapshot of one store's probe/footprint accounting.
/// Probe counters are deterministic for a deterministic engine run;
/// pages_touched is nonzero only for page-granular backends (MmapStore).
struct StoreStats {
  std::uint64_t probe_count_in = 0;
  std::uint64_t probe_hash_in = 0;
  std::uint64_t probe_intersect = 0;
  std::uint64_t rows_touched = 0;   // sum of the three probe counters
  std::uint64_t pages_touched = 0;  // page-fault proxy: pages spanned by
                                    // row payload reads (mmap backend)
  std::uint64_t resident_bytes = 0;  // heap owned by the store
  std::uint64_t mapped_bytes = 0;    // file bytes mapped, 0 for RAM stores
};

class XMatrixStore {
 public:
  XMatrixStore() = default;
  virtual ~XMatrixStore() = default;

  // A store is pinned by reference in the engine; copying would silently
  // fork the probe accounting.
  XMatrixStore(const XMatrixStore&) = delete;
  XMatrixStore& operator=(const XMatrixStore&) = delete;

  /// Stable identity token ("csr", "tebm", "mmap") recorded in xh-ckpt/1
  /// checkpoints so a resume refuses a mismatched backend.
  virtual const char* backend_name() const = 0;

  virtual const ScanGeometry& geometry() const = 0;
  virtual std::size_t num_patterns() const = 0;
  std::size_t num_cells() const { return geometry().num_cells(); }
  virtual std::uint64_t total_x() const = 0;

  /// Rows = X-capturing cells, ascending by cell id.
  virtual std::size_t num_rows() const = 0;
  virtual std::size_t cell_id(std::size_t row) const = 0;
  /// X count of the row across all patterns (precomputed).
  virtual std::size_t x_count(std::size_t row) const = 0;

  /// popcount(row & patterns): the row's X count inside a pattern subset.
  virtual std::size_t count_in(std::size_t row,
                               const BitVec& patterns) const = 0;

  /// FNV-1a hash of (row & patterns) over all pattern words — the group key
  /// the partition analysis buckets cells by (identical to the seed
  /// partitioner's set_hash, so groups match bit for bit).
  virtual std::uint64_t hash_in(std::size_t row,
                                const BitVec& patterns) const = 0;

  /// Materializes (row & patterns) into @p out (resized to num_patterns).
  virtual void intersect_into(std::size_t row, const BitVec& patterns,
                              BitVec* out) const = 0;

  /// popcount(row & ~patterns), fused from the precomputed row count.
  std::size_t and_not_count(std::size_t row, const BitVec& patterns) const {
    return x_count(row) - count_in(row, patterns);
  }

  [[nodiscard]] StoreStats stats() const;

 protected:
  /// Derived classes report their memory footprint; everything else in
  /// StoreStats is accumulated here via the note_*() helpers.
  virtual std::uint64_t resident_bytes() const = 0;
  virtual std::uint64_t mapped_bytes() const { return 0; }

  void note_count_in() const {
    probe_count_in_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_hash_in() const {
    probe_hash_in_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_intersect() const {
    probe_intersect_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_pages(std::uint64_t pages) const {
    pages_touched_.fetch_add(pages, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<std::uint64_t> probe_count_in_{0};
  mutable std::atomic<std::uint64_t> probe_hash_in_{0};
  mutable std::atomic<std::uint64_t> probe_intersect_{0};
  mutable std::atomic<std::uint64_t> pages_touched_{0};
};

/// Publishes @p store's accounting into @p trace as store.* counters and
/// gauges. Call once per Trace from the owning thread (counters add deltas,
/// exactly like PartitionService::export_telemetry).
void export_store_telemetry(const XMatrixStore& store, Trace* trace);

}  // namespace xh
