#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>

#include "kernels/kernels.hpp"

namespace xhb {
namespace {

/// Set-ups per run: at least kMinSetups, and more while set-up has taken
/// less than kMinSetupSeconds in all, so a set-up of milliseconds still
/// gets a steady median. setup_s is the median.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 50;
constexpr double kMinSetupSeconds = 1.0;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample, at percentile 100·(n−10)/n. Below 21 samples that rank
/// falls under the median, so the median is reported instead.
void tail_of(std::vector<double> v, double* value, double* pct) {
  if (v.size() < 21) {
    *value = median(std::move(v));
    *pct = 50.0;
    return;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  *value = v[n - 11];
  *pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_short(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

void print_lines(const std::vector<Metric>& lines) {
  for (const Metric& m : lines) {
    std::printf("  %-26s %14s %-6s %s\n", m.name.c_str(),
                fmt_short(m.value).c_str(), m.unit.c_str(), m.note.c_str());
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Runs the set-ups; returns their median in seconds.
double timed_setups(Workload& w, SpanLog* spans, std::vector<double>* all) {
  double total = 0.0;
  while (all->size() < kMinSetups ||
         (total < kMinSetupSeconds && all->size() < kMaxSetups)) {
    const std::int64_t t0 = now_ns();
    w.setup(spans);
    all->push_back(static_cast<double>(now_ns() - t0) / 1e9);
    total += all->back();
  }
  return median(*all);
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  std::vector<std::optional<double>> bits;  // first total per input

  void fail(std::size_t input, const std::string& why) {
    ++failed;
    if (first_failure.empty()) {
      first_failure = "unit " + std::to_string(attempted) + " (input " +
                      std::to_string(input) + "): " + why;
    }
  }
  /// control_bits_m must repeat exactly for every unit on one input.
  void record_bits(std::size_t input, const Verdict& v) {
    if (!v.ok) {
      fail(input, v.why);
      return;
    }
    std::optional<double>& seen = bits[input];
    if (!seen.has_value()) {
      seen = v.control_bits;
    } else if (*seen != v.control_bits) {
      fail(input, "control bits changed between units on the same input");
    }
  }
  double control_bits_m() const {
    double sum = 0.0;
    for (const auto& b : bits) sum += b.value_or(0.0);
    return sum / 1e6;
  }
};

void print_env(const Options& opt, const Workload& w,
               const std::string& isa) {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("env: isa=%s store_backend=%s nproc=%ld build=%s\n",
              isa.c_str(), w.store_backend().c_str(),
              sysconf(_SC_NPROCESSORS_ONLN), XHB_BUILD_TYPE);
}

int measure_plain(Workload& w, const Options& opt, const std::string& isa) {
  std::vector<double> setups;
  const double setup_s = timed_setups(w, nullptr, &setups);
  const std::size_t n = w.num_inputs();
  Tally tally;
  tally.bits.resize(n);
  std::vector<double> ms;
  std::vector<std::size_t> unit_input;
  std::vector<double> unit_bits;
  const std::int64_t budget = static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::int64_t start = now_ns();
  // Every input runs at least once, so control_bits_m covers all of them.
  for (std::size_t u = 0; now_ns() - start < budget || u < n; ++u) {
    const std::size_t i = u % n;
    try {
      const std::int64_t t0 = now_ns();
      w.run(i);
      const double dt = static_cast<double>(now_ns() - t0) / 1e6;
      const Verdict v = w.check(i);
      tally.record_bits(i, v);
      if (v.ok) {
        ms.push_back(dt);
        unit_input.push_back(i);
        unit_bits.push_back(v.control_bits);
      }
    } catch (const std::exception& e) {
      tally.fail(i, std::string("exception: ") + e.what());
    }
    ++tally.attempted;
  }

  double total_ms = 0.0;
  for (const double t : ms) total_ms += t;
  double tail = 0.0;
  double tail_pct = 0.0;
  tail_of(ms, &tail, &tail_pct);
  const double failed_ratio = static_cast<double>(tally.failed) /
                              static_cast<double>(tally.attempted);
  const std::string nn = "n=" + std::to_string(ms.size());
  std::vector<Metric> json = {
      {"setup_s", setup_s, "s",
       "median of " + std::to_string(setups.size()) + " set-ups"},
      {"throughput_per_s",
       total_ms > 0.0 ? 1000.0 *
                            static_cast<double>(ms.size() *
                                                w.items_per_unit()) /
                            total_ms
                      : 0.0,
       "1/s", std::string(w.unit_name()) + "s per second of unit time"},
      {"unit_ms.p50", median(ms), "ms", nn},
      {"unit_ms.tail", tail, "ms", "p" + fmt_short(tail_pct) + ", " + nn},
      {"peak_rss_mb", peak_rss_mb(), "MB", "whole process"},
      {"control_bits_m", tally.control_bits_m(), "Mbit",
       "summed over " + std::to_string(n) + " inputs"},
  };
  std::vector<Metric> lines = json;
  lines.push_back({"failed_ratio", failed_ratio, "ratio",
                   std::to_string(tally.failed) + "/" +
                       std::to_string(tally.attempted) +
                       " (also the result's failed/attempted)"});
  w.extra_lines(unit_input, ms, unit_bits, lines);

  print_env(opt, w, isa);
  print_lines(lines);
  if (!tally.first_failure.empty()) {
    std::printf("first failure: %s\n", tally.first_failure.c_str());
  }
  print_result(tally.failed == 0, tally.attempted, tally.failed, json);
  return 0;
}

/// Per-layer metric names, in BENCHMARK.json order. "<x>_ms" metrics are
/// the self time of spans named "<x>" per traced unit; plain names are
/// per-unit means of the Layers totals; the ratios are computed below.
const char* const kLayerMetrics[] = {
    "workload.generate_ms",   "response.read_ms",
    "response.read_mb_per_s", "response_io.lines_parsed",
    "storage.build_ms",       "storage.resident_bytes",
    "store.probe_count_in",   "store.probe_hash_in",
    "store.rows_touched",     "engine.root_ms",
    "engine.step_ms",         "engine.materialize_ms",
    "engine.rounds",          "engine.rows_examined",
    "engine.cell_analyses",   "engine.accept_ratio",
    "core.validate_ms",       "masking.violations_ms",
    "masking.apply_ms",       "masking.x_masked",
    "misr.x_cancel_ms",       "xcancel.stops",
    "xcancel.x_seen",         "xcancel.elimination_rows",
    "misr.emit_ratio",        "service.ingest_ms",
    "service.drain_ms",       "service.queue_depth_peak",
    "service.job_retries",    "service.checkpoints_written",
    "service.checkpoint_bytes", "netlist.read_bench_ms",
    "scan.plan_ms",           "scan.capture_ms",
    "atpg.generate_ms",       "atpg.patterns",
    "atpg.aborted_ratio",     "fault.sim_ms",
    "fault.evaluations",      "trace.coverage_ratio",
    "trace.overhead_ratio",
};

std::string layer_unit(const std::string& name) {
  const auto ends = [&](const char* s) {
    const std::string suffix(s);
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  if (ends("_ms")) return "ms";
  if (ends("_ratio")) return "ratio";
  if (ends("_mb_per_s")) return "MB/s";
  if (ends("_bytes")) return "bytes";
  return "count";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int measure_traced(Workload& w, const Options& opt, const std::string& isa) {
  SpanLog spans;
  std::vector<double> setups;
  timed_setups(w, &spans, &setups);
  const std::size_t n = w.num_inputs();
  Tally tally;
  tally.bits.resize(n);
  Layers layers;
  double plain_ms = 0.0;
  double traced_ms = 0.0;
  const std::int64_t budget = static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::int64_t start = now_ns();
  // Whole passes over the inputs, so per-unit counts repeat for a seed.
  for (std::size_t u = 0; now_ns() - start < budget || u % n != 0; ++u) {
    const std::size_t i = u % n;
    try {
      const std::int64_t t0 = now_ns();
      w.run(i);
      const std::int64_t t1 = now_ns();
      Verdict v = w.check(i);
      spans.set_unit(static_cast<long>(u));
      xh::Trace trace;
      const std::int64_t t2 = now_ns();
      {
        const Scope unit(&spans, "unit");
        w.run_traced(i, spans, trace, layers);
      }
      const std::int64_t t3 = now_ns();
      spans.set_unit(-1);
      layers.absorb(trace);
      w.after_traced(i, spans, layers);
      const std::string diff = w.same_outputs(i);
      if (v.ok && !diff.empty()) {
        v.ok = false;
        v.why = "traced breakdown differs: " + diff;
      }
      tally.record_bits(i, v);
      plain_ms += static_cast<double>(t1 - t0) / 1e6;
      traced_ms += static_cast<double>(t3 - t2) / 1e6;
    } catch (const std::exception& e) {
      tally.fail(i, std::string("exception: ") + e.what());
    }
    ++tally.attempted;
  }

  const double units = static_cast<double>(tally.attempted);
  const std::map<std::string, double> self = spans.self_ms();
  const auto span_ms = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double covered = 0.0;
  double unit_total = 0.0;
  spans.coverage("unit", &covered, &unit_total);

  std::vector<Metric> json;
  for (const char* raw : kLayerMetrics) {
    const std::string name(raw);
    double value = 0.0;
    if (name == "workload.generate_ms") {
      value = span_ms("workload.generate") /
              static_cast<double>(setups.size());
    } else if (name == "storage.resident_bytes") {
      value = layers.get("store.resident_bytes") / units;
    } else if (name == "response.read_mb_per_s") {
      value = ratio(layers.get("response.read_bytes") / 1e6,
                    span_ms("response.read") / 1e3);
    } else if (name == "engine.accept_ratio") {
      value = ratio(layers.get("engine.probes_accepted"),
                    layers.get("engine.probes_attempted"));
    } else if (name == "misr.emit_ratio") {
      const double emitted = layers.get("xcancel.combinations_emitted");
      value = ratio(emitted,
                    emitted + layers.get("xcancel.combinations_dropped"));
    } else if (name == "atpg.aborted_ratio") {
      value = ratio(layers.get("atpg.aborted"), layers.get("atpg.targeted"));
    } else if (name == "trace.coverage_ratio") {
      value = ratio(covered, unit_total);
    } else if (name == "trace.overhead_ratio") {
      value = ratio(traced_ms, plain_ms);
    } else if (layer_unit(name) == "ms") {
      value = span_ms(name.substr(0, name.size() - 3)) / units;
    } else {
      value = layers.get(name) / units;
    }
    json.push_back({name, value, layer_unit(name), ""});
  }

  print_env(opt, w, isa);
  print_lines(json);
  if (!tally.first_failure.empty()) {
    std::printf("first failure: %s\n", tally.first_failure.c_str());
  }
  if (!opt.spans_out.empty()) {
    const std::string header =
        "\"workload\": \"" + opt.workload + "\", \"seed\": " +
        std::to_string(opt.seed) + ", \"isa\": \"" + isa +
        "\", \"store_backend\": \"" + w.store_backend() +
        "\", \"build\": \"" XHB_BUILD_TYPE "\"";
    if (spans.write_json(opt.spans_out, header)) {
      std::printf("spans: %zu written to %s\n", spans.spans().size(),
                  opt.spans_out.c_str());
    }
  }
  print_result(tally.failed == 0, tally.attempted, tally.failed, json);
  return 0;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix_seed(std::uint64_t base, std::uint64_t seed,
                       std::uint64_t index) {
  std::uint64_t z = base ^ (seed * 0x9E3779B97F4A7C15ULL) ^
                    (index * 0xD1B54A32D192ED03ULL);
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int SpanLog::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.unit = unit_;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, double> SpanLog::self_ms() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double self_ns =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
        child_ns[i];
    out[spans_[i].name] += self_ns / 1e6;
  }
  return out;
}

void SpanLog::coverage(const std::string& root, double* covered_ms,
                       double* total_ms) const {
  *covered_ms = 0.0;
  *total_ms = 0.0;
  for (const Span& s : spans_) {
    const double d = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    if (s.name == root) *total_ms += d;
    if (s.parent >= 0 &&
        spans_[static_cast<std::size_t>(s.parent)].name == root) {
      *covered_ms += d;
    }
  }
}

bool SpanLog::write_json(const std::string& path,
                         const std::string& header) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"schema\": \"xh-perfbench-spans/1\", " << header
      << ", \"spans\": [\n";
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << (s.start_ns - t0)
        << ", \"end_ns\": " << (s.end_ns - t0) << ", \"parent\": " << s.parent
        << ", \"unit\": " << s.unit << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Layers::absorb(const xh::Trace& trace) {
  for (const auto& [name, c] : trace.counters()) {
    sums_[name] += static_cast<double>(c.value);
  }
  for (const auto& [name, g] : trace.gauges()) sums_[name] += g.value;
}

double Layers::get(const std::string& name) const {
  const auto it = sums_.find(name);
  return it == sums_.end() ? 0.0 : it->second;
}

int measure(Workload& w, const Options& opt) {
  const std::string isa = xh::kernels::active().name;
  return opt.trace ? measure_traced(w, opt, isa) : measure_plain(w, opt, isa);
}

}  // namespace xhb
