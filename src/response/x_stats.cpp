#include "response/x_stats.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "util/check.hpp"

namespace xh {

double XStatistics::cell_fraction_covering(double x_fraction) const {
  XH_REQUIRE(x_fraction >= 0.0 && x_fraction <= 1.0,
             "x_fraction must be in [0,1]");
  if (total_x == 0 || num_cells == 0) return 0.0;
  const double target = x_fraction * static_cast<double>(total_x);
  double covered = 0.0;
  std::size_t used = 0;
  for (const std::size_t count : sorted_counts_) {
    if (covered >= target) break;
    covered += static_cast<double>(count);
    ++used;
  }
  return static_cast<double>(used) / static_cast<double>(num_cells);
}

XHistogramBucket XStatistics::largest_bucket() const {
  XHistogramBucket best;
  for (const auto& b : histogram) {
    // histogram is sorted by descending x_count, so on a cell-count tie the
    // earlier (larger-x_count) bucket is kept.
    if (b.num_cells > best.num_cells) best = b;
  }
  return best;
}

XStatistics compute_x_statistics(const XMatrix& xm) {
  XStatistics s;
  s.num_cells = xm.num_cells();
  s.num_patterns = xm.num_patterns();
  s.total_x = xm.total_x();
  s.x_capturing_cells = xm.num_x_cells();
  s.x_density = xm.x_density();

  std::map<std::size_t, std::size_t> by_count;
  for (const std::size_t cell : xm.x_cells()) {
    const std::size_t count = xm.x_count(cell);
    ++by_count[count];
    s.sorted_counts_.push_back(count);
  }
  std::sort(s.sorted_counts_.begin(), s.sorted_counts_.end(),
            std::greater<>());
  for (auto it = by_count.rbegin(); it != by_count.rend(); ++it) {
    s.histogram.push_back({it->first, it->second});
  }
  return s;
}

std::vector<XCluster> find_x_clusters(const XMatrix& xm) {
  // Group by pattern-set content. Hash the BitVec words; resolve equal
  // hashes by full comparison via the map's bucket vector.
  struct Group {
    BitVec patterns;
    std::vector<std::size_t> cells;
  };
  std::unordered_map<std::uint64_t, std::vector<Group>> buckets;

  const auto hash_of = [](const BitVec& v) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t w = 0; w < v.word_count(); ++w) {
      h ^= v.word(w);
      h *= 0x100000001b3ULL;
    }
    return h;
  };

  for (const std::size_t cell : xm.x_cells()) {
    const BitVec& pats = xm.patterns_of(cell);
    auto& groups = buckets[hash_of(pats)];
    bool placed = false;
    for (auto& g : groups) {
      if (g.patterns == pats) {
        g.cells.push_back(cell);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({pats, {cell}});
  }

  std::vector<XCluster> clusters;
  // Hash order never escapes: the sort below imposes a total order (size,
  // then X count, then first cell — clusters are cell-disjoint, so the
  // first cell is a unique tiebreak). xh-lint: allow(XH-DET-002)
  for (auto& [hash, groups] : buckets) {
    for (auto& g : groups) {
      clusters.push_back({std::move(g.patterns), std::move(g.cells)});
    }
  }
  std::sort(clusters.begin(), clusters.end(),
            [](const XCluster& a, const XCluster& b) {
              if (a.cells.size() != b.cells.size()) {
                return a.cells.size() > b.cells.size();
              }
              if (a.x_count() != b.x_count()) return a.x_count() > b.x_count();
              return a.cells.front() < b.cells.front();
            });
  return clusters;
}

IntraCorrelation analyze_intra_correlation(const XMatrix& xm) {
  // All quantities are computed with pattern-set algebra over the sparse
  // matrix (cells are chain-major, so chain neighbours are cell, cell+1):
  //   * (cell, p) starts a run  ⇔  X(cell,p) ∧ ¬X(cell−1,p)
  //   * (cell, p) is adjacent   ⇔  X(cell,p) ∧ (X(cell−1,p) ∨ X(cell+1,p))
  //   * a run of length ≥ k exists at pos ⇔ ∩_{j<k} patterns(pos+j) ≠ ∅
  IntraCorrelation ic;
  const ScanGeometry& geo = xm.geometry();
  std::size_t x_total = 0;
  std::size_t x_adjacent = 0;

  const auto pats_at = [&](std::size_t chain,
                           std::ptrdiff_t pos) -> const BitVec* {
    if (pos < 0 || pos >= static_cast<std::ptrdiff_t>(geo.chain_length)) {
      return nullptr;
    }
    const BitVec& p =
        xm.patterns_of(geo.cell_index(chain, static_cast<std::size_t>(pos)));
    return &p;
  };

  for (std::size_t chain = 0; chain < geo.num_chains; ++chain) {
    // total_runs / adjacency via neighbour set algebra.
    for (std::size_t pos = 0; pos < geo.chain_length; ++pos) {
      const BitVec* cur = pats_at(chain, static_cast<std::ptrdiff_t>(pos));
      const std::size_t count = cur->count();
      if (count == 0) continue;
      x_total += count;
      const BitVec* prev = pats_at(chain, static_cast<std::ptrdiff_t>(pos) - 1);
      const BitVec* next = pats_at(chain, static_cast<std::ptrdiff_t>(pos) + 1);

      BitVec starts = *cur;
      if (prev != nullptr) starts.and_not(*prev);
      ic.total_runs += starts.count();

      BitVec neighbour(xm.num_patterns());
      if (prev != nullptr) neighbour |= *prev;
      if (next != nullptr) neighbour |= *next;
      x_adjacent += (*cur & neighbour).count();
    }

    // longest_run: extend window intersections until they all die out.
    std::vector<BitVec> window;
    window.reserve(geo.chain_length);
    bool alive = false;
    for (std::size_t pos = 0; pos < geo.chain_length; ++pos) {
      const BitVec& p = *pats_at(chain, static_cast<std::ptrdiff_t>(pos));
      window.push_back(p);
      alive |= p.any();
    }
    std::size_t k = alive ? 1 : 0;
    while (alive && k < geo.chain_length) {
      alive = false;
      for (std::size_t pos = 0; pos + k < geo.chain_length; ++pos) {
        window[pos] &=
            *pats_at(chain, static_cast<std::ptrdiff_t>(pos + k));
        alive |= window[pos].any();
      }
      if (alive) ++k;
    }
    ic.longest_run = std::max(ic.longest_run, k);
  }

  if (ic.total_runs > 0) {
    ic.mean_run_length =
        static_cast<double>(x_total) / static_cast<double>(ic.total_runs);
  }
  if (x_total > 0) {
    ic.adjacency_fraction =
        static_cast<double>(x_adjacent) / static_cast<double>(x_total);
  }
  return ic;
}

}  // namespace xh
