// Probe loops over row-major packed words, shared by the two word-span
// backends (CsrStore in RAM, MmapStore over its mapped file). Row r of a
// span occupies words [r*W, (r+1)*W) from the span's base; the loops are
// pure functions of those words, so the backends keep only their own
// probe accounting (and, for mmap, the page proxy).
#pragma once

#include <cstddef>
#include <cstdint>

namespace xh::row_words {

/// FNV-1a over (row & patterns), every one of the @p w words folded — the
/// group key of the seed partitioner's set_hash.
std::uint64_t hash(const std::uint64_t* row, const std::uint64_t* patterns,
                   std::size_t w);

/// counts[i] = popcount(row(rows[i]) & patterns) through the dispatched
/// and_count kernel, looked up once per batch.
void count_rows(const std::uint64_t* base, std::size_t w,
                const std::uint32_t* rows, std::size_t n,
                const std::uint64_t* patterns, std::size_t* counts);

/// hashes[i] = hash(row(rows[i]), patterns, w), four rows at a time so four
/// independent multiply chains overlap.
void hash_rows(const std::uint64_t* base, std::size_t w,
               const std::uint32_t* rows, std::size_t n,
               const std::uint64_t* patterns, std::uint64_t* hashes);

}  // namespace xh::row_words
