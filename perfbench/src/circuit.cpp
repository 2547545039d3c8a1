// circuit-atpg: the `xhybrid_cli circuit` flow — read_bench, ScanPlan::build,
// generate_test_set, TestApplicator::capture, run_hybrid_simulation and two
// FaultSimulator::run calls (ideal and under the hybrid masks) — on a pool
// of seeded synthetic netlists, each read back from its .bench text. One
// unit is a batch of kBatch flows, as a serve-xm unit is a batch of jobs.
//
// ATPG cost swings several-fold between random netlists (it is dominated by
// faults PODEM aborts at its backtrack limit), so one netlist per run would
// make the run-to-run spread a property of the seed, not of the program,
// and so would a tail taken over single flows. A pool of small netlists,
// run in batches, averages both out.
#include <array>
#include <optional>
#include <sstream>

#include "atpg/test_generation.hpp"
#include "checks.hpp"
#include "core/hybrid.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"
#include "scan/scan_plan.hpp"
#include "scan/test_application.hpp"
#include "workloads.hpp"

namespace xhb {
namespace {

constexpr std::size_t kBatch = 8;     // flows per unit
constexpr std::size_t kBatches = 40;  // units per pass
constexpr std::size_t kPool = kBatch * kBatches;
constexpr std::size_t kChains = 8;      // `xhybrid_cli circuit` default
constexpr std::size_t kPatterns = 200;  // `xhybrid_cli circuit` default

xh::GeneratorConfig netlist_shape(std::uint64_t seed) {
  xh::GeneratorConfig g;
  g.num_inputs = 16;
  g.num_outputs = 16;
  g.num_gates = 40;
  g.num_dffs = 48;
  // X sources: 5 unscanned flops and one tri-state bus. More buses add
  // faults PODEM aborts on, and a heavy tail of ATPG time per netlist.
  g.nonscan_fraction = 0.1;
  g.num_buses = 1;
  g.seed = seed;
  return g;
}

struct Flow {
  std::size_t patterns = 0;
  std::size_t faults = 0;
  std::size_t aborted = 0;
  std::vector<bool> atpg_detected;
  xh::ResponseMatrix response;
  xh::HybridSimulation sim;
  xh::FaultSimResult ideal;
  xh::FaultSimResult masked;
};

class Circuit final : public Workload {
 public:
  explicit Circuit(const Options& opt) : seed_(opt.seed) {
    cfg_.misr = kPaperMisr;
  }

  const char* unit_name() const override { return "flow"; }
  std::size_t items_per_unit() const override { return kBatch; }
  std::size_t num_inputs() const override { return kBatches; }

  void setup(SpanLog* spans) override {
    const Scope span(spans, "workload.generate");
    for (std::size_t i = 0; i < kPool; ++i) {
      netlist_seed_[i] = mix_seed(0xC1C, seed_, i);
      bench_[i] = xh::write_bench_string(
          xh::generate_circuit(netlist_shape(netlist_seed_[i])));
    }
  }

  void run(std::size_t b) override {
    for (std::size_t k = 0; k < kBatch; ++k) {
      plain_[k] = flow(b * kBatch + k, nullptr, nullptr, nullptr);
    }
  }

  Verdict check(std::size_t) override {
    Verdict v;
    for (const Flow& f : plain_) {
      v.why = check_flow(f);
      if (!v.why.empty()) break;
      v.control_bits += f.sim.report.proposed_bits;
    }
    v.ok = v.why.empty();
    return v;
  }

  void run_traced(std::size_t b, SpanLog& spans, xh::Trace& trace,
                  Layers& layers) override {
    for (std::size_t k = 0; k < kBatch; ++k) {
      traced_[k] = flow(b * kBatch + k, &spans, &trace, &layers);
    }
  }

  std::string same_outputs(std::size_t) override {
    for (std::size_t k = 0; k < kBatch; ++k) {
      const Flow& a = plain_[k];
      const Flow& b = traced_[k];
      if (a.patterns != b.patterns || a.atpg_detected != b.atpg_detected) {
        return "ATPG result";
      }
      std::string why = diff_partition(a.sim.report.partitioning,
                                       b.sim.report.partitioning);
      if (why.empty()) why = diff_cancel(a.sim.cancel, b.sim.cancel);
      if (why.empty() && (a.ideal.detected != b.ideal.detected ||
                          a.masked.detected != b.masked.detected)) {
        why = "fault simulation";
      }
      if (!why.empty()) return why;
    }
    return {};
  }

  void extra_lines(const std::vector<std::size_t>&, const std::vector<double>&,
                   const std::vector<double>&,
                   std::vector<Metric>& out) const override {
    out.push_back({"degraded_flows", static_cast<double>(degraded_), "count",
                   "simulations that engaged the MISR starvation recovery"});
  }

  std::string store_backend() const override { return backend_; }

 private:
  std::string check_flow(const Flow& f) {
    const xh::PartitionResult& pr = f.sim.report.partitioning;
    const xh::XMatrix xm = xh::XMatrix::from_response(f.response);
    if (backend_.empty()) backend_ = resolved_backend(xm);
    // A degraded simulation (the MISR's extraction-starvation recovery on
    // an X burst) is not a failure here: `xhybrid_cli circuit` succeeds
    // whenever coverage under the masks is preserved. It is counted.
    if (f.sim.degraded) ++degraded_;
    if (f.sim.masked_response.total_x() != pr.leaked_x) {
      return "remaining X after masking != leaked X";
    }
    if (f.masked.num_detected != f.ideal.num_detected ||
        f.masked.detected != f.ideal.detected) {
      return "coverage under the hybrid masks differs from ideal";
    }
    return check_partition(xm, pr, cfg_.misr);
  }

  Flow flow(std::size_t i, SpanLog* spans, xh::Trace* trace, Layers* layers) {
    Flow f;
    std::optional<xh::Netlist> nl;
    {
      const Scope span(spans, "netlist.read_bench");
      std::istringstream in(bench_[i]);
      nl.emplace(xh::read_bench(in, "netlist-" + std::to_string(i)));
    }
    std::optional<xh::ScanPlan> plan;
    {
      const Scope span(spans, "scan.plan");
      plan.emplace(xh::ScanPlan::build(*nl, kChains));
    }
    xh::AtpgResult atpg;
    {
      const Scope span(spans, "atpg.generate");
      xh::AtpgConfig acfg;
      acfg.random_patterns = std::min<std::size_t>(kPatterns, 256);
      acfg.seed = netlist_seed_[i];
      atpg = xh::generate_test_set(*nl, *plan, acfg);
    }
    {
      const Scope span(spans, "scan.capture");
      const xh::TestApplicator app(*nl, *plan);
      f.response = app.capture(atpg.patterns);
    }
    {
      const Scope span(spans, "hybrid.simulate");
      xh::PipelineContext ctx(cfg_);
      ctx.set_trace(trace);
      f.sim = xh::run_hybrid_simulation(f.response, ctx);
    }
    {
      const Scope span(spans, "fault.sim");
      const xh::FaultSimulator fsim(*nl, *plan);
      f.ideal = fsim.run(atpg.patterns, atpg.faults, xh::observe_all());
      f.masked = fsim.run(atpg.patterns, atpg.faults,
                          xh::observe_with_partition_masks(
                              f.sim.report.partitioning.partitions,
                              f.sim.report.partitioning.masks));
    }
    f.patterns = atpg.patterns.size();
    f.faults = atpg.faults.size();
    f.aborted = atpg.num_aborted;
    f.atpg_detected = atpg.detected;
    if (layers != nullptr) {
      layers->add("atpg.patterns", static_cast<double>(f.patterns));
      layers->add("atpg.aborted", static_cast<double>(f.aborted));
      layers->add("atpg.targeted", static_cast<double>(f.faults));
      layers->add("fault.evaluations",
                  2.0 * static_cast<double>(f.faults) *
                      static_cast<double>(f.patterns));
      layers->add("engine.rounds", static_cast<double>(accepted_rounds(
                                       f.sim.report.partitioning)));
    }
    const Scope span(spans, "flow.release");
    atpg = xh::AtpgResult();
    plan.reset();
    nl.reset();
    return f;
  }

  std::uint64_t seed_;
  xh::PartitionerConfig cfg_;
  std::array<std::uint64_t, kPool> netlist_seed_{};
  std::array<std::string, kPool> bench_;
  std::string backend_;
  std::size_t degraded_ = 0;
  std::array<Flow, kBatch> plain_;
  std::array<Flow, kBatch> traced_;
};

}  // namespace

std::unique_ptr<Workload> make_circuit(const Options& opt) {
  return std::make_unique<Circuit>(opt);
}

}  // namespace xhb
