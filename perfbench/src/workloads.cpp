#include "workloads.hpp"

#include <cstring>
#include <memory>
#include <stdexcept>

#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "nn/paper_profiles.hpp"
#include "optim/lr_schedule.hpp"

namespace perfbench {

using namespace selsync;

namespace {

// Budgets keep one run near a second, so a measurement holds many runs.
// The top-1 and LSSR bands contain every value seeds 1-40 gave at these
// budgets, with a margin (perfbench/README.md lists the ranges).
std::vector<WorkloadSpec> make_specs() {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec des16;
  des16.name = "selsync-des16";
  des16.strategy = StrategyKind::kSelSync;
  des16.backend = BackendKind::kRing;
  des16.engine = EngineKind::kDes;
  des16.workers = 16;
  des16.delta = 0.15;
  des16.iterations = 100;
  des16.top1 = {0.15, 0.8};
  des16.lssr = {0.55, 0.95};
  specs.push_back(des16);

  WorkloadSpec ps64;
  ps64.name = "bsp-topk-ps-des64";
  ps64.backend = BackendKind::kParameterServer;
  ps64.ps_shards = 2;
  ps64.topk = true;
  ps64.engine = EngineKind::kDes;
  ps64.workers = 64;
  ps64.iterations = 16;
  ps64.top1 = {0.12, 0.6};
  specs.push_back(ps64);

  WorkloadSpec tcp4;
  tcp4.name = "bsp-ring-tcp4";
  tcp4.backend = BackendKind::kRing;
  tcp4.transport = TransportKind::kTcp;
  tcp4.workers = 4;
  tcp4.iterations = 200;
  tcp4.top1 = {0.3, 0.8};
  specs.push_back(tcp4);

  WorkloadSpec conv4;
  conv4.name = "selsync-conv-threads4";
  conv4.net = Net::kVgg;
  conv4.strategy = StrategyKind::kSelSync;
  conv4.workers = 4;
  // At δ=0.15 this net syncs 1-9 times in 300 steps, so some seed would
  // never sync; 0.08 keeps 11-43 rounds (LSSR 0.86-0.96 on seeds 1-40).
  conv4.delta = 0.08;
  conv4.iterations = 300;
  conv4.top1 = {0.5, 1.0};
  conv4.lssr = {0.75, 0.985};
  specs.push_back(conv4);

  return specs;
}

// The input sizes and class geometry of the repo's ResNet101 / VGG11
// stand-ins (core/workloads.cpp), with the generator seeded per run.
SyntheticClassConfig data_config(Net net, uint64_t seed) {
  SyntheticClassConfig cfg;
  cfg.train_samples = 4096;
  cfg.test_samples = 768;
  cfg.seed = seed;
  if (net == Net::kResNetMlp) {
    cfg.classes = 10;
    cfg.feature_dim = 48;
    cfg.class_separation = 2.0;
    cfg.noise_stddev = 1.0;
  } else {
    cfg.classes = 20;
    cfg.image_mode = true;
    cfg.channels = 3;
    cfg.height = 8;
    cfg.width = 8;
    cfg.class_separation = 0.8;
    cfg.noise_stddev = 1.2;
  }
  return cfg;
}

ClassifierConfig model_config(Net net) {
  ClassifierConfig cfg;
  cfg.hidden = 48;
  if (net == Net::kResNetMlp) {
    cfg.input_dim = 48;
    cfg.classes = 10;
    cfg.resnet_blocks = 3;
  } else {
    cfg.channels = 3;
    cfg.height = 8;
    cfg.width = 8;
    cfg.classes = 20;
  }
  return cfg;
}

uint64_t bits(double v) {
  uint64_t out = 0;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = make_specs();
  return specs;
}

const WorkloadSpec& workload_spec(const std::string& name) {
  for (const WorkloadSpec& spec : workload_specs())
    if (spec.name == name) return spec;
  throw std::invalid_argument("unknown workload: " + name);
}

LrSchedulePtr SgdRecipe::schedule() const {
  return std::make_shared<EpochStepDecay>(lr, decay_epochs, 0.1);
}

SgdRecipe sgd_recipe(const WorkloadSpec& spec) {
  if (spec.net == Net::kResNetMlp)
    return {0.1, {12.0, 24.0}, {.momentum = 0.9, .weight_decay = 4e-4}};
  return {0.05, {10.0, 20.0}, {.momentum = 0.9, .weight_decay = 5e-4}};
}

TrainJob build_job(const WorkloadSpec& spec, uint64_t seed) {
  const SyntheticClassData data =
      make_synthetic_classification(data_config(spec.net, seed));
  TrainJob job;
  job.strategy = spec.strategy;
  job.workers = spec.workers;
  job.batch_size = 16;
  job.max_iterations = spec.iterations;
  job.eval_interval = spec.iterations / 2;
  job.seed = seed;
  job.train_data = data.train;
  job.test_data = data.test;
  job.partition = PartitionScheme::kSelSync;
  job.model_factory = [net = spec.net, model = model_config(spec.net)](
                          uint64_t s) {
    return net == Net::kResNetMlp ? make_resnet_mlp(model, s)
                                  : make_vggnet(model, s);
  };
  const SgdRecipe recipe = sgd_recipe(spec);
  job.optimizer_factory = [recipe]() -> std::unique_ptr<Optimizer> {
    return std::make_unique<Sgd>(recipe.schedule(), recipe.options);
  };
  job.selsync.delta = spec.delta;
  if (spec.topk) job.compression.kind = CompressionKind::kTopK;
  job.paper_model =
      spec.net == Net::kResNetMlp ? paper_resnet101() : paper_vgg11();
  job.backend = spec.backend;
  job.ps_shards = spec.ps_shards;
  job.engine = spec.engine;
  job.transport = spec.transport;
  job.validate();
  return job;
}

TrainJob single_worker_job(const TrainJob& job) {
  TrainJob single = job;
  single.strategy = StrategyKind::kLocalSgd;
  single.workers = 1;
  // The same samples and evaluations as the N-worker run.
  single.max_iterations = job.max_iterations * job.workers;
  single.eval_interval = job.eval_interval * job.workers;
  single.backend = BackendKind::kSharedMemory;
  single.ps_shards = 1;
  single.compression = {};
  single.transport = TransportKind::kInproc;
  single.validate();
  return single;
}

std::string check_output(const WorkloadSpec& spec, const TrainResult& r) {
  const auto fail = [](const std::string& what, double v) {
    return what + " (got " + std::to_string(v) + ")";
  };
  if (r.diverged) return "run diverged";
  if (r.iterations != spec.iterations)
    return fail("iterations != budget " + std::to_string(spec.iterations),
                static_cast<double>(r.iterations));
  if (!spec.top1.contains(r.final_eval.top1))
    return fail("final top-1 outside its seed band", r.final_eval.top1);
  if (spec.strategy == StrategyKind::kSelSync) {
    if (r.sync_steps == 0) return "SelSync never synchronized";
    if (!spec.lssr.contains(r.lssr()))
      return fail("LSSR outside its seed band", r.lssr());
  } else if (r.sync_steps != r.iterations) {
    return fail("BSP skipped a synchronization round",
                static_cast<double>(r.sync_steps));
  }
  if (spec.topk) {
    const SyncCostTotals& c = r.sync_cost;
    if (!(c.dense_bytes > 0.0 && c.wire_bytes < c.dense_bytes))
      return fail("Top-k wire/dense not below 1",
                  c.dense_bytes > 0.0 ? c.wire_bytes / c.dense_bytes : 0.0);
  }
  if (spec.transport == TransportKind::kTcp &&
      !(r.sync_cost.measured_wire_bytes > 0.0))
    return "TCP run measured no wire bytes";
  return {};
}

Fingerprint fingerprint(const TrainResult& r) {
  return {r.iterations,        r.sync_steps,
          bits(r.best_top1),   bits(r.sim_time_s),
          bits(r.comm_bytes),  bits(r.sync_cost.wire_bytes)};
}

}  // namespace perfbench
