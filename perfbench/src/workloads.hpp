// The four workloads and the pieces they share.
#pragma once

#include <memory>
#include <string>

#include "engine/pipeline_context.hpp"
#include "harness.hpp"
#include "response/response_matrix.hpp"
#include "response/x_matrix.hpp"
#include "workload/industrial.hpp"

namespace xhb {

/// The paper's MISR: m = 32 outputs, q = 7 X-free combinations per stop.
inline constexpr xh::MisrConfig kPaperMisr{32, 7};

std::unique_ptr<Workload> make_analyze(const Options& opt);
std::unique_ptr<Workload> make_serve(const Options& opt);
std::unique_ptr<Workload> make_simulate(const Options& opt);
std::unique_ptr<Workload> make_circuit(const Options& opt);

/// A Table 1 profile (optionally scaled) with the workload seed mixed into
/// its own seed: profile.seed = mix_seed(profile.seed, seed, index).
xh::WorkloadProfile seeded_profile(xh::WorkloadProfile profile,
                                   std::uint64_t seed, std::uint64_t index);

/// generate_workload() inside a "workload.generate" span.
xh::XMatrix generate(const xh::WorkloadProfile& profile, SpanLog* spans);

/// run_partitioning() split into its public parts — make_store, the
/// PartitionEngine constructor (root analysis), step() per round,
/// materialize() — with a span around each and the store telemetry
/// exported into ctx.trace(). Adds accepted rounds to "engine.rounds".
xh::PartitionResult traced_partitioning(const xh::XMatrix& xm,
                                        xh::PipelineContext& ctx,
                                        SpanLog& spans, Layers& layers);

/// Backend make_store() resolves to for @p xm under default options.
std::string resolved_backend(const xh::XMatrix& xm);

/// The distinct resolved backends of @p matrices, comma-separated.
template <typename Matrices>
std::string resolved_backends(const Matrices& matrices) {
  std::string out;
  for (const xh::XMatrix& xm : matrices) {
    const std::string b = resolved_backend(xm);
    if (out.find(b) == std::string::npos) out += (out.empty() ? "" : ",") + b;
  }
  return out;
}

/// Accepted rounds in a partitioning history.
std::size_t accepted_rounds(const xh::PartitionResult& pr);

}  // namespace xhb
