#include "storage/x_matrix_store.hpp"

#include "obs/trace.hpp"

namespace xh {

StoreStats XMatrixStore::stats() const {
  StoreStats s;
  s.probe_count_in = probe_count_in_.load(std::memory_order_relaxed);
  s.probe_hash_in = probe_hash_in_.load(std::memory_order_relaxed);
  s.probe_intersect = probe_intersect_.load(std::memory_order_relaxed);
  s.rows_touched = s.probe_count_in + s.probe_hash_in + s.probe_intersect;
  s.pages_touched = pages_touched_.load(std::memory_order_relaxed);
  s.resident_bytes = resident_bytes();
  s.mapped_bytes = mapped_bytes();
  return s;
}

void export_store_telemetry(const XMatrixStore& store, Trace* trace) {
  if (trace == nullptr) return;
  const StoreStats s = store.stats();
  obs_count(trace, "store.probe_count_in", s.probe_count_in);
  obs_count(trace, "store.probe_hash_in", s.probe_hash_in);
  obs_count(trace, "store.probe_intersect", s.probe_intersect);
  obs_count(trace, "store.rows_touched", s.rows_touched);
  obs_count(trace, "store.pages_touched", s.pages_touched);
  obs_gauge(trace, "store.resident_bytes",
            static_cast<double>(s.resident_bytes));
  obs_gauge(trace, "store.mapped_bytes", static_cast<double>(s.mapped_bytes));
}

}  // namespace xh
