// Runtime-dispatched kernel layer: one capability table for the bit-level
// hot loops (fused and_count / and_not_count over word spans, bulk XOR /
// popcount, GF(2) row-reduce / solve), selected once per process.
//
// Design (DESIGN.md §14):
//   - backend_scalar.hpp is the semantic reference. It is constexpr, and
//     every public wrapper here branches on std::is_constant_evaluated():
//     constant evaluation always executes the scalar reference, so the
//     static_assert proofs in tests/static/ keep checking the exact
//     semantics every other backend must reproduce.
//   - backend_avx2.cpp / backend_avx512.cpp are explicit SIMD tilings,
//     reachable only through the dispatched table. Selection is by runtime
//     CPUID probe (__builtin_cpu_supports), overridable with the XH_ISA
//     environment variable or kernels::select() (the CLI's --isa flag).
//   - GF(2) elimination additionally carries an algorithmic choice: the
//     naive tracked Gauss-Jordan mirror, or a Method-of-Four-Russians
//     (M4RM) blocked variant gated by a matrix-size cost model. Both are
//     bit-identical to gf2_ref::eliminate_reference by construction —
//     pivots are chosen in the same order and each reduced row is the
//     unique member of its row-span coset that is zero on the pivot
//     columns — so ISA and algorithm never change results, only speed.
//
// Every dispatched operation is exact integer arithmetic; cross-backend
// bit-identity is enforced by tests/kernels/ and by the bench_partitioner
// smoke gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <type_traits>
#include <vector>

#include "gf2/matrix.hpp"
#include "kernels/backend_scalar.hpp"
#include "util/bitvec.hpp"
#include "util/check.hpp"

namespace xh {

class Trace;

namespace kernels {

/// Instruction-set tiers the dispatcher can select between. kAuto resolves
/// to the best tier the running CPU supports; the numeric values are stable
/// (they appear in telemetry as the kernel.isa gauge and in checkpoints).
enum class Isa : int {
  kAuto = 0,
  kScalar = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

/// One backend's entry points. All functions operate on spans of 64-bit
/// words; BitVec-level convenience wrappers below add the size checks and
/// the constant-evaluation branch.
struct Kernels {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";
  std::size_t (*popcount_words)(const std::uint64_t*, std::size_t) = nullptr;
  std::size_t (*and_count_words)(const std::uint64_t*, const std::uint64_t*,
                                 std::size_t) = nullptr;
  std::size_t (*and_not_count_words)(const std::uint64_t*,
                                     const std::uint64_t*,
                                     std::size_t) = nullptr;
  void (*xor_words)(std::uint64_t*, const std::uint64_t*,
                    std::size_t) = nullptr;
  void (*and_words_into)(std::uint64_t*, const std::uint64_t*,
                         const std::uint64_t*, std::size_t) = nullptr;
};

/// Canonical lowercase name ("auto", "scalar", "avx2", "avx512").
const char* isa_name(Isa isa);

/// Parses an isa_name() string. Returns false (leaving *out untouched) for
/// anything else.
bool parse_isa(std::string_view name, Isa* out);

/// True when the running CPU can execute @p isa (kAuto and kScalar always
/// can).
bool isa_supported(Isa isa);

/// Best tier the running CPU supports: avx512 > avx2 > scalar.
Isa detect_best();

/// The table for @p isa; kAuto resolves through detect_best(). Requires
/// isa_supported(isa) — asking for an unsupported tier is a checked error.
const Kernels& table_for(Isa isa);

/// The scalar table's and_count_words entry as a plain out-of-line
/// function: a direct call runs the very code the scalar table dispatches
/// to, so timing one against the other prices the indirection alone.
std::size_t scalar_and_count_words(const std::uint64_t* a,
                                   const std::uint64_t* b, std::size_t n);

/// Process-wide active table. First use resolves the XH_ISA environment
/// override (invalid or unsupported values silently fall back to kAuto —
/// the CLI re-validates the variable to warn); thereafter select() is the
/// only way to change it.
const Kernels& active();

/// Installs @p isa as the active table. Returns false (keeping the current
/// table) when the CPU does not support it. kAuto re-runs detection.
bool select(Isa isa);

// ---- BitVec-level wrappers ------------------------------------------------
//
// Constant evaluation runs the scalar reference (so these are usable inside
// static_asserts); runtime goes through the dispatched table.

/// popcount(a & b) without materializing the intersection. Requires
/// a.size() == b.size().
constexpr std::size_t and_count(const BitVec& a, const BitVec& b) {
  XH_REQUIRE(a.size() == b.size(), "BitVec size mismatch in and_count");
  if (std::is_constant_evaluated()) {
    return scalar::and_count_words(a.word_data(), b.word_data(),
                                   a.word_count());
  }
  return active().and_count_words(a.word_data(), b.word_data(),
                                  a.word_count());
}

/// popcount(a & ~b) without materializing the difference. Requires
/// a.size() == b.size().
constexpr std::size_t and_not_count(const BitVec& a, const BitVec& b) {
  XH_REQUIRE(a.size() == b.size(), "BitVec size mismatch in and_not_count");
  if (std::is_constant_evaluated()) {
    return scalar::and_not_count_words(a.word_data(), b.word_data(),
                                       a.word_count());
  }
  return active().and_not_count_words(a.word_data(), b.word_data(),
                                      a.word_count());
}

/// Number of set bits in @p v (dispatched BitVec::count()).
constexpr std::size_t popcount(const BitVec& v) {
  if (std::is_constant_evaluated()) {
    return scalar::popcount_words(v.word_data(), v.word_count());
  }
  return active().popcount_words(v.word_data(), v.word_count());
}

/// dst ^= src (dispatched BitVec::operator^=). Requires equal sizes. Safe
/// for the tail invariant: both tails are zero, so the XOR tail is zero.
constexpr void xor_into(BitVec& dst, const BitVec& src) {
  XH_REQUIRE(dst.size() == src.size(), "BitVec size mismatch in xor_into");
  if (std::is_constant_evaluated()) {
    scalar::xor_words(dst.word_data(), src.word_data(), dst.word_count());
    return;
  }
  active().xor_words(dst.word_data(), src.word_data(), dst.word_count());
}

/// dst = a & b (dispatched intersection). Requires equal sizes; dst is
/// resized to match. Tail-safe for the same reason as xor_into.
constexpr void and_into(BitVec& dst, const BitVec& a, const BitVec& b) {
  XH_REQUIRE(a.size() == b.size(), "BitVec size mismatch in and_into");
  dst.resize(a.size());
  if (std::is_constant_evaluated()) {
    scalar::and_words_into(dst.word_data(), a.word_data(), b.word_data(),
                           dst.word_count());
    return;
  }
  active().and_words_into(dst.word_data(), a.word_data(), b.word_data(),
                          dst.word_count());
}

// ---- GF(2) elimination / solve -------------------------------------------

/// Algorithm choice for eliminate()/solve(). kAuto applies the cost model:
/// M4RM pays a 2^k-row table build per pivot block, which amortizes only
/// when many rows share each block, so it engages at kM4rmAutoMinRows.
enum class Gf2Policy : int {
  kAuto = 0,
  kNaive = 1,
  kM4rm = 2,
};

/// Row-count threshold where kAuto switches from naive to M4RM.
inline constexpr std::size_t kM4rmAutoMinRows = 128;

namespace detail {
Elimination eliminate_runtime(const Gf2Matrix& m, Gf2Policy policy);
std::vector<BitVec> x_free_combinations_runtime(const Gf2Matrix& m,
                                                Gf2Policy policy);
std::optional<BitVec> solve_runtime(const Gf2Matrix& m, const BitVec& b,
                                    Gf2Policy policy);
/// Bumps the kernel.m4rm_tables_built counter (gf2_engine.cpp internal).
void note_m4rm_table_built();
}  // namespace detail

/// Tracked Gaussian elimination (see Elimination). Bit-identical to
/// gf2_ref::eliminate_reference for every policy and ISA.
constexpr Elimination eliminate(const Gf2Matrix& m,
                                Gf2Policy policy = Gf2Policy::kAuto) {
  if (std::is_constant_evaluated()) return gf2_ref::eliminate_reference(m);
  return detail::eliminate_runtime(m, policy);
}

/// Basis of the left null space of @p m (X-free signature combinations).
constexpr std::vector<BitVec> x_free_combinations(
    const Gf2Matrix& m, Gf2Policy policy = Gf2Policy::kAuto) {
  if (std::is_constant_evaluated()) {
    return gf2_ref::x_free_combinations_reference(m);
  }
  return detail::x_free_combinations_runtime(m, policy);
}

/// Solves A·x = b over GF(2); nullopt when inconsistent. @p b must have
/// m.rows() bits.
constexpr std::optional<BitVec> solve(const Gf2Matrix& m, const BitVec& b,
                                      Gf2Policy policy = Gf2Policy::kAuto) {
  if (std::is_constant_evaluated()) return gf2_ref::solve_reference(m, b);
  return detail::solve_runtime(m, b, policy);
}

// ---- Telemetry ------------------------------------------------------------

/// Monotonic process-wide kernel-layer statistics snapshot.
struct KernelStatsSnapshot {
  std::uint64_t m4rm_tables_built = 0;
};

KernelStatsSnapshot kernel_stats();

/// Exports kernel.* instruments into @p trace (no-op on nullptr): the
/// kernel.isa gauge (numeric Isa of the active table) and the
/// kernel.m4rm_tables_built counter.
void export_kernel_telemetry(Trace* trace);

}  // namespace kernels
}  // namespace xh
