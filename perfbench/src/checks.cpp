#include "checks.hpp"

#include <cmath>

#include "kernels/kernels.hpp"

namespace xhb {

std::string check_partition(const xh::XMatrix& xm,
                            const xh::PartitionResult& pr,
                            const xh::MisrConfig& misr) {
  const std::size_t np = xm.num_patterns();
  if (pr.partitions.empty() || pr.partitions.size() != pr.masks.size()) {
    return "partition/mask count mismatch";
  }
  if (pr.interrupted) return "partitioning was interrupted";
  xh::BitVec covered(np);
  std::size_t sum = 0;
  std::uint64_t masked = 0;
  for (std::size_t i = 0; i < pr.partitions.size(); ++i) {
    const xh::BitVec& part = pr.partitions[i];
    if (part.size() != np || part.none()) return "empty or misshapen partition";
    covered |= part;
    const std::size_t span = part.count();
    sum += span;
    const std::vector<std::size_t> cells = pr.masks[i].set_bits();
    for (const std::size_t cell : cells) {
      if (xm.x_count(cell) == 0 ||
          xh::kernels::and_not_count(part, xm.patterns_of(cell)) != 0) {
        return "mask cell " + std::to_string(cell) + " of partition " +
               std::to_string(i) + " is not X in every pattern";
      }
    }
    masked += static_cast<std::uint64_t>(cells.size()) * span;
  }
  if (sum != np || covered.count() != np) {
    return "partitions are not a disjoint cover of the patterns";
  }
  if (masked != pr.masked_x) return "masked_x disagrees with the masks";
  if (pr.masked_x + pr.leaked_x != xm.total_x()) {
    return "masked + leaked != total_x";
  }
  const double m = static_cast<double>(misr.size);
  const double q = static_cast<double>(misr.q);
  const double expected =
      static_cast<double>(xm.geometry().num_cells()) *
          static_cast<double>(pr.partitions.size()) +
      m * q * static_cast<double>(pr.leaked_x) / (m - q);
  if (std::fabs(pr.total_bits - expected) > 1e-9 * std::fmax(1.0, expected)) {
    return "total bits != L*C*#P + m*q*leaked/(m-q)";
  }
  return {};
}

std::string diff_partition(const xh::PartitionResult& a,
                           const xh::PartitionResult& b) {
  if (a.partitions != b.partitions) return "partitions";
  if (a.masks != b.masks) return "masks";
  if (a.masked_x != b.masked_x || a.leaked_x != b.leaked_x) {
    return "masked/leaked X";
  }
  if (a.total_bits != b.total_bits || a.masking_bits != b.masking_bits ||
      a.canceling_bits != b.canceling_bits) {
    return "control bits";
  }
  if (a.interrupted != b.interrupted) return "interrupted flag";
  if (a.history.size() != b.history.size()) return "history length";
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const xh::PartitionRound& x = a.history[i];
    const xh::PartitionRound& y = b.history[i];
    if (x.round != y.round || x.num_partitions != y.num_partitions ||
        x.masked_x != y.masked_x || x.leaked_x != y.leaked_x ||
        x.total_bits != y.total_bits || x.split_cell != y.split_cell ||
        x.accepted != y.accepted) {
      return "history round " + std::to_string(i);
    }
  }
  return {};
}

std::string diff_cancel(const xh::XCancelResult& a,
                        const xh::XCancelResult& b) {
  if (a.stops != b.stops || a.stop_cycles != b.stop_cycles) return "stops";
  if (a.contaminated_dropped != b.contaminated_dropped) return "drops";
  if (a.shift_cycles != b.shift_cycles || a.total_x_seen != b.total_x_seen) {
    return "shift cycles / X seen";
  }
  if (a.selection_vectors != b.selection_vectors ||
      a.starved_stops != b.starved_stops ||
      a.extra_combinations != b.extra_combinations ||
      a.signature_deficit != b.signature_deficit) {
    return "extraction accounting";
  }
  if (a.signature.size() != b.signature.size()) return "signature length";
  for (std::size_t i = 0; i < a.signature.size(); ++i) {
    const xh::SignatureBit& x = a.signature[i];
    const xh::SignatureBit& y = b.signature[i];
    if (x.stop_index != y.stop_index || x.value != y.value ||
        x.combination != y.combination) {
      return "signature bit " + std::to_string(i);
    }
  }
  return {};
}

}  // namespace xhb
