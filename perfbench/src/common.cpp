#include <optional>

#include "engine/partition_engine.hpp"
#include "storage/store_factory.hpp"
#include "workloads.hpp"

namespace xhb {

xh::WorkloadProfile seeded_profile(xh::WorkloadProfile profile,
                                   std::uint64_t seed, std::uint64_t index) {
  profile.seed = mix_seed(profile.seed, seed, index);
  return profile;
}

xh::XMatrix generate(const xh::WorkloadProfile& profile, SpanLog* spans) {
  const Scope span(spans, "workload.generate");
  return xh::generate_workload(profile);
}

xh::PartitionResult traced_partitioning(const xh::XMatrix& xm,
                                        xh::PipelineContext& ctx,
                                        SpanLog& spans, Layers& layers) {
  ctx.partitioner.misr.validate();
  std::unique_ptr<xh::XMatrixStore> store;
  {
    const Scope span(&spans, "storage.build");
    store = xh::make_store(xm, ctx.xm_backend(), ctx.store_options());
  }
  std::optional<xh::PartitionEngine> engine;
  {
    const Scope span(&spans, "engine.root");
    engine.emplace(*store, ctx);
  }
  for (;;) {
    const Scope span(&spans, "engine.step");
    if (engine->step() != xh::PartitionEngine::StepOutcome::kSplit) break;
  }
  xh::PartitionResult pr;
  {
    const Scope span(&spans, "engine.materialize");
    pr = engine->materialize();
  }
  xh::export_store_telemetry(*store, ctx.trace());
  {
    const Scope span(&spans, "storage.release");
    engine.reset();
    store.reset();
  }
  layers.add("engine.rounds", static_cast<double>(accepted_rounds(pr)));
  return pr;
}

std::string resolved_backend(const xh::XMatrix& xm) {
  return xh::xm_backend_name(
      xh::resolve_xm_backend(xh::XmBackend::kAuto, xm, {}));
}

std::size_t accepted_rounds(const xh::PartitionResult& pr) {
  std::size_t n = 0;
  for (const xh::PartitionRound& r : pr.history) {
    if (r.round > 0 && r.accepted) ++n;
  }
  return n;
}

}  // namespace xhb
