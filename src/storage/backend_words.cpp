#include "storage/backend_words.hpp"

#include "kernels/kernels.hpp"

namespace xh::row_words {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

}  // namespace

std::uint64_t hash(const std::uint64_t* row, const std::uint64_t* patterns,
                   std::size_t w) {
  std::uint64_t h = kFnvBasis;
  for (std::size_t k = 0; k < w; ++k) {
    h = (h ^ (row[k] & patterns[k])) * kFnvPrime;
  }
  return h;
}

void count_rows(const std::uint64_t* base, std::size_t w,
                const std::uint32_t* rows, std::size_t n,
                const std::uint64_t* patterns, std::size_t* counts) {
  const auto and_count = kernels::active().and_count_words;
  for (std::size_t i = 0; i < n; ++i) {
    counts[i] = and_count(base + std::size_t{rows[i]} * w, patterns, w);
  }
}

void hash_rows(const std::uint64_t* base, std::size_t w,
               const std::uint32_t* rows, std::size_t n,
               const std::uint64_t* patterns, std::uint64_t* hashes) {
  std::size_t i = 0;
  // Each row's chain is serial (every step waits on the previous
  // multiply), so one row at a time leaves the multiplier idle; four rows
  // give four chains in flight with the same per-row result.
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t* r0 = base + std::size_t{rows[i]} * w;
    const std::uint64_t* r1 = base + std::size_t{rows[i + 1]} * w;
    const std::uint64_t* r2 = base + std::size_t{rows[i + 2]} * w;
    const std::uint64_t* r3 = base + std::size_t{rows[i + 3]} * w;
    std::uint64_t h0 = kFnvBasis;
    std::uint64_t h1 = kFnvBasis;
    std::uint64_t h2 = kFnvBasis;
    std::uint64_t h3 = kFnvBasis;
    for (std::size_t k = 0; k < w; ++k) {
      const std::uint64_t p = patterns[k];
      h0 = (h0 ^ (r0[k] & p)) * kFnvPrime;
      h1 = (h1 ^ (r1[k] & p)) * kFnvPrime;
      h2 = (h2 ^ (r2[k] & p)) * kFnvPrime;
      h3 = (h3 ^ (r3[k] & p)) * kFnvPrime;
    }
    hashes[i] = h0;
    hashes[i + 1] = h1;
    hashes[i + 2] = h2;
    hashes[i + 3] = h3;
  }
  for (; i < n; ++i) {
    hashes[i] = hash(base + std::size_t{rows[i]} * w, patterns, w);
  }
}

}  // namespace xh::row_words
