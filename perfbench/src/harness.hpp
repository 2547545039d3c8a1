// Measurement harness shared by the four workloads: the unit loop, the
// traced-run span log, the per-layer accumulator and the result line.
//
// A workload owns its inputs and knows how to run one unit on one of them.
// The harness owns time: it repeats set-up, runs units until the time budget
// is spent, checks every unit's outputs outside the timed region, and turns
// the samples into the metrics listed in BENCHMARK.json.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace xhb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   // files the workload writes (emptied by run.py)
  std::string spans_out;  // traced run: where the span log is written
};

std::int64_t now_ns();

/// Per-input seed: splitmix64 over the profile's own seed, the workload
/// seed and the input index, so every input of every seed differs.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t seed,
                       std::uint64_t index);

/// Spans of the traced run, kept in memory and written out at exit. Each
/// span has a name, start, end, the span that was open when it started and
/// the unit it belongs to (-1 outside units: set-up and shadow work).
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    long unit = -1;
  };

  int open(std::string name);
  void close(int id);
  void set_unit(long unit) { unit_ = unit; }

  const std::vector<Span>& spans() const { return spans_; }
  /// Sum of self time (duration minus direct children) per span name, ms.
  std::map<std::string, double> self_ms() const;
  /// Sum over spans named @p root of the time their direct children cover,
  /// and of their own duration, ms.
  void coverage(const std::string& root, double* covered_ms,
                double* total_ms) const;
  bool write_json(const std::string& path, const std::string& header) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  long unit_ = -1;
};

/// RAII span; a null log makes it free, so workload code can share one
/// path between plain and traced runs where that does not change the calls.
class Scope {
 public:
  Scope(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->open(std::move(name)) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Per-layer totals of the traced run: counts the library's xh::Trace
/// reports plus counts the benchmark derives itself. Summed over traced
/// units; the harness divides by the unit count.
class Layers {
 public:
  void add(const std::string& name, double value) { sums_[name] += value; }
  /// Folds one unit's counters and gauges in.
  void absorb(const xh::Trace& trace);
  double get(const std::string& name) const;

 private:
  std::map<std::string, double> sums_;
};

/// Outcome of checking one unit's outputs.
struct Verdict {
  bool ok = true;
  double control_bits = 0.0;  // hybrid total over the unit's input(s)
  std::string why;            // first failed check
};

/// One line of human-readable output; JSON metrics use name/value/unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// What throughput_per_s counts, and how many of them one unit holds.
  virtual const char* unit_name() const = 0;
  virtual std::size_t items_per_unit() const { return 1; }
  /// Builds every input from the seed, replacing earlier ones. Spans (when
  /// traced) mark input generation as "workload.generate".
  virtual void setup(SpanLog* spans) = 0;
  virtual std::size_t num_inputs() const = 0;
  /// Runs the public entry point on input @p i (timed by the harness).
  virtual void run(std::size_t i) = 0;
  /// Checks the outputs of the last run() (not timed).
  virtual Verdict check(std::size_t i) = 0;
  /// The same work broken into the entry point's public parts, with spans
  /// around each part and @p trace attached (timed by the harness).
  virtual void run_traced(std::size_t i, SpanLog& spans, xh::Trace& trace,
                          Layers& layers) = 0;
  /// Compares the outputs of run_traced() with those of run() on the same
  /// input, bit for bit (not timed). Empty when identical, else what differs.
  virtual std::string same_outputs(std::size_t i) = 0;
  /// Untimed per-layer work after a traced unit (shadow measurements).
  virtual void after_traced(std::size_t /*i*/, SpanLog& /*spans*/,
                            Layers& /*layers*/) {}
  /// Extra human-readable lines (workload-specific figures) from the plain
  /// run's passing units: input index, time in ms and control bits.
  virtual void extra_lines(const std::vector<std::size_t>& /*inputs*/,
                           const std::vector<double>& /*ms*/,
                           const std::vector<double>& /*bits*/,
                           std::vector<Metric>& /*out*/) const {}
  /// Environment facts to record ("store_backend" ...).
  virtual std::string store_backend() const = 0;
};

/// Runs @p w under @p opt and prints the result; returns the exit code.
int measure(Workload& w, const Options& opt);

}  // namespace xhb
