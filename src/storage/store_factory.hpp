// Backend selection for the X-matrix storage layer (DESIGN.md §12).
//
// Consumers outside the engine/service layers (CLI, benches, tests) do not
// include backend headers — xh_lint enforces it — they name a backend with
// XmBackend and let make_store() build it. kAuto picks per workload: the
// CSR snapshot while the estimated footprint fits comfortably in RAM, the
// mmap store beyond auto_mmap_threshold_bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "response/x_matrix.hpp"
#include "storage/x_matrix_store.hpp"

namespace xh {

enum class XmBackend : std::uint8_t {
  kAuto = 0,  // resolve_xm_backend() picks csr or mmap by footprint
  kCsr,
  kMmap,
};

/// Canonical spelling: "auto", "csr", "mmap". Matches the
/// backend_name() of the store the value resolves to.
const char* xm_backend_name(XmBackend backend);

/// Parses a canonical spelling; returns false (and leaves @p out alone) for
/// anything else.
[[nodiscard]] bool parse_xm_backend(std::string_view name, XmBackend* out);

struct StoreFactoryOptions {
  /// Directory for mmap backing files; empty uses the system temp dir.
  std::string mmap_dir;
  /// kAuto spills to the mmap store once the estimated CSR footprint
  /// crosses this many bytes. Default 1 GiB.
  std::uint64_t auto_mmap_threshold_bytes = 1ULL << 30;
  /// Keep mmap backing files on disk (debugging aid).
  bool keep_mmap_file = false;
};

/// Estimated bytes of the CSR snapshot of @p xm (row payload + metadata) —
/// the footprint kAuto weighs against the threshold.
[[nodiscard]] std::uint64_t estimate_csr_bytes(const XMatrix& xm);

/// The concrete backend kAuto resolves to for @p xm; non-auto values pass
/// through unchanged.
[[nodiscard]] XmBackend resolve_xm_backend(XmBackend requested,
                                           const XMatrix& xm,
                                           const StoreFactoryOptions& options);

/// Builds the chosen store over @p xm. kAuto resolves first, so the
/// returned store's backend_name() is always concrete. The mmap backend
/// does real I/O here and throws std::ios_base::failure when the
/// filesystem refuses.
[[nodiscard]] std::unique_ptr<XMatrixStore> make_store(
    const XMatrix& xm, XmBackend backend = XmBackend::kAuto,
    const StoreFactoryOptions& options = {});

}  // namespace xh
