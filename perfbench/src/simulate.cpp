// simulate-response: run_hybrid_simulation(response, declared, ctx) on seeded
// responses materialized from shortened CKT-C matrices: all 203 chains of
// CKT-C, chains cut to a quarter of their length and patterns to 900.
//
// Keeping the chain count keeps what the X-canceling MISR's stops depend on,
// the X's per shift cycle. Narrower responses engage the MISR's
// extraction-starvation recovery (an X burst overruns the m - q stop
// budget; DESIGN.md section 7), which run_hybrid_simulation reports as
// degraded: CKT-B shapes did so on a share of seeds at every scale tried,
// CKT-C scaled to 40-101 chains on 3-90 % of seeds. This shape showed none
// on 200 seeds.
#include <algorithm>
#include <array>

#include "checks.hpp"
#include "core/hybrid.hpp"
#include "engine/pipeline.hpp"
#include "masking/mask.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace xhb {
namespace {

constexpr std::size_t kInputs = 3;
constexpr double kLengthFactor = 0.25;
constexpr double kPatternFactor = 0.3;

/// CKT-C with shorter chains and fewer patterns; density and cluster shape
/// (scaled the same way) are kept.
xh::WorkloadProfile shortened_ckt_c() {
  xh::WorkloadProfile p = xh::ckt_c_profile();
  const auto scale = [](std::size_t v, double f) {
    return std::max<std::size_t>(2, static_cast<std::size_t>(
                                        static_cast<double>(v) * f));
  };
  p.name += "-short";
  p.geometry.chain_length = scale(p.geometry.chain_length, kLengthFactor);
  p.num_patterns = scale(p.num_patterns, kPatternFactor);
  p.cluster_cells_mean = scale(p.cluster_cells_mean, kLengthFactor);
  p.cluster_patterns_mean = scale(p.cluster_patterns_mean, kPatternFactor);
  return p;
}

/// A concrete response realizing @p xm: random values, X where declared
/// (as `xhybrid_cli inject` materializes its workloads).
xh::ResponseMatrix materialize(const xh::XMatrix& xm, std::uint64_t seed) {
  xh::ResponseMatrix r(xm.geometry(), xm.num_patterns());
  xh::Rng rng(seed);
  for (std::size_t p = 0; p < r.num_patterns(); ++p) {
    for (std::size_t c = 0; c < r.num_cells(); ++c) {
      r.set(p, c, rng.chance(0.5) ? xh::Lv::k1 : xh::Lv::k0);
    }
  }
  for (const std::size_t cell : xm.x_cells()) {
    for (const std::size_t p : xm.patterns_of(cell).set_bits()) {
      r.set(p, cell, xh::Lv::kX);
    }
  }
  return r;
}

/// What the breakdown computes, for the comparison with the entry point.
struct Parts {
  xh::PartitionResult partitioning;
  xh::XValidation validation;
  std::uint64_t masked_observable = 0;
  std::uint64_t remaining_x = 0;
  xh::XCancelResult cancel;
};

class Simulate final : public Workload {
 public:
  explicit Simulate(const Options& opt) : seed_(opt.seed) {
    cfg_.misr = kPaperMisr;
  }

  const char* unit_name() const override { return "simulation"; }
  std::size_t num_inputs() const override { return kInputs; }

  void setup(SpanLog* spans) override {
    for (std::size_t i = 0; i < kInputs; ++i) {
      const xh::WorkloadProfile profile =
          seeded_profile(shortened_ckt_c(), seed_, i);
      xm_[i] = generate(profile, spans);
      const Scope span(spans, "workload.materialize");
      response_[i] = materialize(xm_[i], mix_seed(profile.seed, seed_, 1));
    }
  }

  void run(std::size_t i) override {
    xh::PipelineContext ctx(cfg_);
    sim_ = xh::run_hybrid_simulation(response_[i], xm_[i], ctx);
  }

  Verdict check(std::size_t i) override {
    Verdict v;
    const xh::PartitionResult& pr = sim_.report.partitioning;
    v.control_bits = sim_.report.proposed_bits;
    if (sim_.degraded) {
      v.why = "degraded: " + std::to_string(sim_.cancel.starved_stops) +
              " starved stops, " + std::to_string(sim_.masked_observable) +
              " masked observable values";
    } else if (!sim_.validation.clean()) {
      v.why = "response does not match its declaration";
    } else if (sim_.masked_response.total_x() != pr.leaked_x) {
      v.why = "remaining X after masking != leaked X";
    } else {
      v.why = check_partition(xm_[i], pr, cfg_.misr);
    }
    v.ok = v.why.empty();
    return v;
  }

  /// The validating simulate() path of core/hybrid.cpp, one public call
  /// per span.
  void run_traced(std::size_t i, SpanLog& spans, xh::Trace& trace,
                  Layers& layers) override {
    xh::PipelineContext ctx(cfg_);
    ctx.set_trace(&trace);
    const xh::ResponseMatrix& response = response_[i];
    parts_.partitioning = traced_partitioning(xm_[i], ctx, spans, layers);
    const xh::PartitionResult& pr = parts_.partitioning;
    xh::ResponseMatrix masked;
    {
      const Scope span(&spans, "core.copy_response");
      masked = response;
    }
    {
      const Scope span(&spans, "core.validate");
      parts_.validation = xh::validate_response(response, xm_[i],
                                                ctx.collector());
    }
    {
      const Scope span(&spans, "masking.violations");
      parts_.masked_observable =
          xh::count_mask_violations(response, pr.partitions, pr.masks, ctx);
    }
    {
      const Scope span(&spans, "masking.apply");
      for (std::size_t p = 0; p < pr.partitions.size(); ++p) {
        xh::apply_mask(masked, pr.partitions[p], pr.masks[p], ctx.trace());
      }
      parts_.remaining_x = masked.total_x();
    }
    {
      const Scope span(&spans, "misr.x_cancel");
      parts_.cancel = xh::run_x_canceling(masked, ctx);
    }
    const Scope span(&spans, "core.release");
    masked = xh::ResponseMatrix();
  }

  std::string same_outputs(std::size_t) override {
    std::string why =
        diff_partition(sim_.report.partitioning, parts_.partitioning);
    if (why.empty()) why = diff_cancel(sim_.cancel, parts_.cancel);
    if (why.empty() &&
        (sim_.validation.confirmed_x != parts_.validation.confirmed_x ||
         sim_.validation.undeclared_x != parts_.validation.undeclared_x ||
         sim_.validation.missing_x != parts_.validation.missing_x ||
         sim_.masked_observable != parts_.masked_observable ||
         sim_.x_entering_misr != parts_.cancel.total_x_seen ||
         parts_.remaining_x != parts_.partitioning.leaked_x)) {
      why = "validation / masking counts";
    }
    return why;
  }

  std::string store_backend() const override {
    return resolved_backends(xm_);
  }

 private:
  std::uint64_t seed_;
  xh::PartitionerConfig cfg_;
  std::array<xh::XMatrix, kInputs> xm_;
  std::array<xh::ResponseMatrix, kInputs> response_;
  xh::HybridSimulation sim_;
  Parts parts_;
};

}  // namespace

std::unique_ptr<Workload> make_simulate(const Options& opt) {
  return std::make_unique<Simulate>(opt);
}

}  // namespace xhb
