// serve-xm: one unit is a batch of .xm files — one CKT-C and two CKT-B,
// written once during set-up — run through PartitionService the way
// `xhybrid_cli serve` does: ingest_directory, then wait_all, with 2 workers
// and checkpoints every few rounds into a directory emptied before each
// batch. CKT-C sorts first, so each worker is busy for about as long: one
// reads and partitions CKT-C while the other does both CKT-B files.
#include <array>
#include <filesystem>
#include <fstream>
#include <optional>

#include "checks.hpp"
#include "engine/partition_engine.hpp"
#include "kernels/kernels.hpp"
#include "response/io.hpp"
#include "service/checkpoint.hpp"
#include "service/job_runner.hpp"
#include "storage/store_factory.hpp"
#include "workloads.hpp"

namespace xhb {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kCheckpointEvery = 4;  // accepted rounds

struct JobFile {
  const char* name;  // file stem; sorted order is submission order
  xh::WorkloadProfile (*profile)();
};

const std::array<JobFile, 3> kBatch = {{
    {"a-ckt-c", xh::ckt_c_profile},
    {"b-ckt-b", xh::ckt_b_profile},
    {"c-ckt-b", xh::ckt_b_profile},
}};

struct BatchOutcome {
  std::vector<xh::SubmitOutcome> outcomes;
  std::vector<std::optional<xh::JobResult>> results;
  xh::ServiceStats stats;
};

class Serve final : public Workload {
 public:
  explicit Serve(const Options& opt)
      : seed_(opt.seed),
        jobs_dir_(opt.work_dir + "/jobs"),
        ckpt_dir_(opt.work_dir + "/checkpoints") {
    cfg_.workers = kWorkers;
    cfg_.partitioner.misr = kPaperMisr;
    cfg_.checkpoint_dir = ckpt_dir_;
    cfg_.checkpoint_every_rounds = kCheckpointEvery;
    cfg_.watchdog_period_ns = 50'000'000;  // as `xhybrid_cli serve`
  }

  const char* unit_name() const override { return "job"; }
  std::size_t items_per_unit() const override { return kBatch.size(); }
  std::size_t num_inputs() const override { return 1; }

  void setup(SpanLog* spans) override {
    fs::create_directories(jobs_dir_);
    for (std::size_t j = 0; j < kBatch.size(); ++j) {
      xm_[j] = generate(seeded_profile(kBatch[j].profile(), seed_, j), spans);
      const Scope span(spans, "workload.write");
      std::ofstream out(path_of(j), std::ios::binary | std::ios::trunc);
      xh::write_x_matrix(xm_[j], out);
      out.flush();
      if (!out) throw std::runtime_error("cannot write " + path_of(j));
    }
  }

  void run(std::size_t) override { plain_ = run_batch(nullptr, nullptr); }

  Verdict check(std::size_t) override { return check_batch(plain_); }

  void run_traced(std::size_t, SpanLog& spans, xh::Trace& trace,
                  Layers& layers) override {
    traced_ = run_batch(&spans, &trace);
    for (const auto& r : traced_.results) {
      if (r.has_value()) {
        layers.add("engine.rounds", static_cast<double>(r->rounds));
      }
    }
  }

  /// Shadow measurements of the traced batch's files, outside the unit:
  /// the reader's cost on each file (the service reads inside its workers,
  /// where this benchmark has no spans), and the checkpoint bytes the
  /// service wrote, reproduced by replaying each job on a serial engine
  /// that must land on the service's result.
  void after_traced(std::size_t, SpanLog& spans, Layers& layers) override {
    replay_mismatch_.clear();
    std::uint64_t checkpoints = 0;
    for (std::size_t j = 0; j < kBatch.size(); ++j) {
      xh::Trace reader;
      xh::XMatrix xm;
      {
        const Scope span(&spans, "response.read");
        std::ifstream in(path_of(j), std::ios::binary);
        xm = xh::read_x_matrix(in, nullptr, &reader);
      }
      layers.add("response.read_bytes",
                 static_cast<double>(fs::file_size(path_of(j))));
      layers.add("response_io.lines_parsed",
                 static_cast<double>(
                     reader.counter("response_io.lines_parsed").value));
      const std::unique_ptr<xh::XMatrixStore> store = xh::make_store(xm);
      xh::PartitionEngine engine(*store, cfg_.partitioner);
      std::size_t since = 0;
      while (engine.step() == xh::PartitionEngine::StepOutcome::kSplit) {
        if (++since < kCheckpointEvery) continue;
        since = 0;
        ++checkpoints;
        xh::ServiceCheckpoint ckpt;
        ckpt.geometry = store->geometry();
        ckpt.num_patterns = store->num_patterns();
        ckpt.total_x = store->total_x();
        ckpt.config = cfg_.partitioner;
        ckpt.backend = store->backend_name();
        ckpt.isa = xh::kernels::active().name;
        ckpt.snapshot = engine.snapshot();
        layers.add("service.checkpoint_bytes",
                   static_cast<double>(xh::checkpoint_to_string(ckpt).size()));
      }
      const auto& res = traced_.results.at(j);
      const std::string d =
          res ? diff_partition(engine.materialize(), res->partition)
              : "missing job";
      if (!d.empty() && replay_mismatch_.empty()) {
        replay_mismatch_ = std::string(kBatch[j].name) +
                           ": serial replay differs from the service (" + d +
                           ")";
      }
    }
    if (replay_mismatch_.empty() &&
        checkpoints != traced_.stats.checkpoints_written) {
      replay_mismatch_ = "replayed checkpoint count differs from the service";
    }
  }

  std::string same_outputs(std::size_t) override {
    std::string why = check_batch(traced_).why;
    if (why.empty()) why = replay_mismatch_;
    for (std::size_t j = 0; j < kBatch.size() && why.empty(); ++j) {
      why = diff_partition(plain_.results[j]->partition,
                           traced_.results[j]->partition);
    }
    return why;
  }

  std::string store_backend() const override {
    // The service resolves kAuto per job exactly as make_store() does.
    return resolved_backends(xm_);
  }

 private:
  std::string path_of(std::size_t j) const {
    return jobs_dir_ + "/" + kBatch[j].name + ".xm";
  }

  BatchOutcome run_batch(SpanLog* spans, xh::Trace* trace) {
    BatchOutcome out;
    {
      const Scope span(spans, "service.prepare");
      fs::remove_all(ckpt_dir_);
    }
    std::optional<xh::PartitionService> service;
    {
      const Scope span(spans, "service.start");
      service.emplace(cfg_);
    }
    {
      const Scope span(spans, "service.ingest");
      out.outcomes = service->ingest_directory(jobs_dir_);
    }
    {
      const Scope span(spans, "service.drain");
      service->wait_all();
    }
    {
      const Scope span(spans, "service.collect");
      for (const xh::SubmitOutcome& oc : out.outcomes) {
        out.results.push_back(oc.accepted ? service->poll(oc.id)
                                          : std::nullopt);
      }
      out.stats = service->stats();
      service->export_telemetry(trace);
    }
    {
      const Scope span(spans, "service.stop");
      service.reset();
    }
    return out;
  }

  Verdict check_batch(const BatchOutcome& b) const {
    Verdict v;
    if (b.results.size() != kBatch.size()) {
      v.ok = false;
      v.why = "batch ran " + std::to_string(b.results.size()) + " of " +
              std::to_string(kBatch.size()) + " jobs";
      return v;
    }
    for (std::size_t j = 0; j < kBatch.size() && v.why.empty(); ++j) {
      const auto& r = b.results[j];
      if (!b.outcomes[j].accepted || !r.has_value()) {
        v.why = std::string(kBatch[j].name) + ": rejected";
      } else if (r->state != xh::JobState::kCompleted) {
        v.why = std::string(kBatch[j].name) + ": job " +
                xh::job_state_name(r->state) + " " + r->error;
      } else if (r->resumed_from_checkpoint) {
        v.why = std::string(kBatch[j].name) + ": resumed a stale checkpoint";
      } else {
        v.why = check_partition(xm_[j], r->partition, cfg_.partitioner.misr);
        v.control_bits += r->partition.total_bits;
      }
    }
    v.ok = v.why.empty();
    return v;
  }

  std::uint64_t seed_;
  std::string jobs_dir_;
  std::string ckpt_dir_;
  xh::ServiceConfig cfg_;
  std::array<xh::XMatrix, kBatch.size()> xm_;
  BatchOutcome plain_;
  BatchOutcome traced_;
  std::string replay_mismatch_;
};

}  // namespace

std::unique_ptr<Workload> make_serve(const Options& opt) {
  return std::make_unique<Serve>(opt);
}

}  // namespace xhb
