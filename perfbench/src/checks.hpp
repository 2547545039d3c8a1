// Output checks run on every unit, and the bit-for-bit comparisons the
// traced run uses to prove its breakdown computed the same results.
#pragma once

#include <string>

#include "engine/partition_types.hpp"
#include "misr/x_cancel.hpp"
#include "response/x_matrix.hpp"

namespace xhb {

/// Checks @p pr against the matrix it was computed from:
///   * the partitions are a disjoint cover of the patterns;
///   * every mask cell is X in every pattern of its partition;
///   * masked_x is what the masks cover, and masked + leaked = total_x;
///   * total bits = L·C·#P + m·q·leaked/(m−q).
/// Returns an empty string when all hold, else the first failure.
std::string check_partition(const xh::XMatrix& xm,
                            const xh::PartitionResult& pr,
                            const xh::MisrConfig& misr);

/// Empty when @p a and @p b are identical in every field, bit for bit.
std::string diff_partition(const xh::PartitionResult& a,
                           const xh::PartitionResult& b);
std::string diff_cancel(const xh::XCancelResult& a,
                        const xh::XCancelResult& b);

}  // namespace xhb
