#include "storage/store_factory.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>

#include "storage/backend_csr.hpp"
#include "storage/backend_mmap.hpp"

namespace xh {
namespace {

/// Unique-enough backing-file name without wall clock or randomness (both
/// banned in src/ by XH-DET-001): pid disambiguates processes, a process-
/// wide counter disambiguates stores within one.
std::string next_mmap_path(const StoreFactoryOptions& options) {
  static std::atomic<std::uint64_t> sequence{0};
  const std::string dir =
      options.mmap_dir.empty()
          ? std::filesystem::temp_directory_path().string()
          : options.mmap_dir;
  // `sequence` is a filename-uniqueness ticket, not probe accounting: only
  // the atomicity of fetch_add matters (distinct suffixes), no other memory
  // is published under its order. xh-lint: allow(XH-FLOW-003)
  return dir + "/xh_xm_" + std::to_string(::getpid()) + "_" +
         std::to_string(sequence.fetch_add(1, std::memory_order_relaxed)) +
         ".xmm";
}

}  // namespace

const char* xm_backend_name(XmBackend backend) {
  switch (backend) {
    case XmBackend::kAuto: return "auto";
    case XmBackend::kCsr: return "csr";
    case XmBackend::kMmap: return "mmap";
  }
  return "unknown";
}

bool parse_xm_backend(std::string_view name, XmBackend* out) {
  if (name == "auto") {
    *out = XmBackend::kAuto;
  } else if (name == "csr") {
    *out = XmBackend::kCsr;
  } else if (name == "mmap") {
    *out = XmBackend::kMmap;
  } else {
    return false;
  }
  return true;
}

std::uint64_t estimate_csr_bytes(const XMatrix& xm) {
  const std::uint64_t rows = xm.num_x_cells();
  const std::uint64_t words_per_row = (xm.num_patterns() + 63) / 64;
  // Row payload + the two per-row metadata arrays (cell id, count).
  return rows * (words_per_row * sizeof(std::uint64_t) +
                 2 * sizeof(std::uint64_t));
}

XmBackend resolve_xm_backend(XmBackend requested, const XMatrix& xm,
                             const StoreFactoryOptions& options) {
  if (requested != XmBackend::kAuto) return requested;
  return estimate_csr_bytes(xm) > options.auto_mmap_threshold_bytes
             ? XmBackend::kMmap
             : XmBackend::kCsr;
}

std::unique_ptr<XMatrixStore> make_store(const XMatrix& xm, XmBackend backend,
                                         const StoreFactoryOptions& options) {
  switch (resolve_xm_backend(backend, xm, options)) {
    case XmBackend::kMmap: {
      MmapStoreOptions mo;
      mo.path = next_mmap_path(options);
      mo.keep_file = options.keep_mmap_file;
      return std::make_unique<MmapStore>(xm, mo);
    }
    case XmBackend::kAuto:  // resolved above; fall through to the default
    case XmBackend::kCsr:
      break;
  }
  return std::make_unique<CsrStore>(xm);
}

}  // namespace xh
