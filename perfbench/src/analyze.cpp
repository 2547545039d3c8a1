// analyze-table1: run_hybrid_analysis on CKT-A, CKT-B and CKT-C matrices in
// rotation, serial (the CLI's --threads 1), paper MISR m=32, q=7.
//
// Each geometry has kInstances seeded matrices: analysis time moves by up to
// a third between seeds of one geometry (greedy rounds, cluster layout), so
// one matrix per geometry made the run-to-run spread a property of the seed.
#include <algorithm>
#include <array>
#include <cmath>

#include "checks.hpp"
#include "core/hybrid.hpp"
#include "workloads.hpp"

namespace xhb {
namespace {

struct Geometry {
  const char* label;
  xh::WorkloadProfile (*profile)();
  double paper_bits;  // Table 1, proposed method
};

const std::array<Geometry, 3> kTable1 = {{
    {"ckt-a", xh::ckt_a_profile, 5.35e6},
    {"ckt-b", xh::ckt_b_profile, 12.22e6},
    {"ckt-c", xh::ckt_c_profile, 41.13e6},
}};

constexpr std::size_t kInstances = 3;
constexpr std::size_t kInputs = kInstances * kTable1.size();

/// Input i is instance i / 3 of geometry i % 3: A, B, C, A, B, C, ...
const Geometry& geometry_of(std::size_t i) {
  return kTable1[i % kTable1.size()];
}

class Analyze final : public Workload {
 public:
  explicit Analyze(const Options& opt) : seed_(opt.seed) {
    cfg_.misr = kPaperMisr;
  }

  const char* unit_name() const override { return "analyse"; }
  std::size_t num_inputs() const override { return kInputs; }

  void setup(SpanLog* spans) override {
    for (std::size_t i = 0; i < kInputs; ++i) {
      xm_[i] = generate(seeded_profile(geometry_of(i).profile(), seed_,
                                       i / kTable1.size()),
                        spans);
    }
  }

  void run(std::size_t i) override {
    xh::PipelineContext ctx(cfg_);
    report_ = xh::run_hybrid_analysis(xm_[i], ctx);
  }

  Verdict check(std::size_t i) override {
    Verdict v;
    v.why = check_partition(xm_[i], report_.partitioning, cfg_.misr);
    if (v.why.empty() &&
        report_.proposed_bits != report_.partitioning.total_bits) {
      v.why = "proposed bits differ from the partitioning total";
    }
    v.ok = v.why.empty();
    v.control_bits = report_.proposed_bits;
    return v;
  }

  void run_traced(std::size_t i, SpanLog& spans, xh::Trace& trace,
                  Layers& layers) override {
    xh::PipelineContext ctx(cfg_);
    ctx.set_trace(&trace);
    traced_ = traced_partitioning(xm_[i], ctx, spans, layers);
  }

  std::string same_outputs(std::size_t /*i*/) override {
    return diff_partition(report_.partitioning, traced_);
  }

  void extra_lines(const std::vector<std::size_t>& inputs,
                   const std::vector<double>& ms,
                   const std::vector<double>& bits,
                   std::vector<Metric>& out) const override {
    double worst_gap = 0.0;
    std::string gaps;
    for (std::size_t g = 0; g < kTable1.size(); ++g) {
      std::vector<double> own;
      std::vector<double> per_input(kInstances, 0.0);
      for (std::size_t u = 0; u < inputs.size(); ++u) {
        if (inputs[u] % kTable1.size() != g) continue;
        own.push_back(ms[u]);
        per_input[inputs[u] / kTable1.size()] = bits[u];
      }
      double proposed = 0.0;  // mean over the geometry's instances
      for (const double b : per_input) proposed += b / kInstances;
      std::sort(own.begin(), own.end());
      const std::size_t n = own.size();
      const double med =
          n == 0 ? 0.0
                 : (n % 2 == 1 ? own[n / 2]
                               : 0.5 * (own[n / 2 - 1] + own[n / 2]));
      out.push_back({std::string("analyze_ms.") + kTable1[g].label, med, "ms",
                     "n=" + std::to_string(n)});
      const double gap = 100.0 * std::fabs(proposed - kTable1[g].paper_bits) /
                         kTable1[g].paper_bits;
      worst_gap = std::max(worst_gap, gap);
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s%s %.3fM vs %.2fM",
                    gaps.empty() ? "" : "; ", kTable1[g].label, proposed / 1e6,
                    kTable1[g].paper_bits / 1e6);
      gaps += buf;
    }
    out.push_back({"table1_gap_pct", worst_gap, "%", gaps});
  }

  std::string store_backend() const override {
    return resolved_backends(xm_);
  }

 private:
  std::uint64_t seed_;
  xh::PartitionerConfig cfg_;
  std::array<xh::XMatrix, kInputs> xm_;
  xh::HybridReport report_;
  xh::PartitionResult traced_;
};

}  // namespace

std::unique_ptr<Workload> make_analyze(const Options& opt) {
  return std::make_unique<Analyze>(opt);
}

}  // namespace xhb
