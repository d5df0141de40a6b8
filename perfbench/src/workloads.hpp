// The benchmark's workloads: what each one runs, how its inputs are made
// from the seed, and the output check every run of it must pass.
//
// Why these (perfbench/README.md has the full table of which layer each
// one loads and which it bypasses):
//   selsync-des16          SelSync on the DES engine; matmul-bound.
//   bsp-topk-ps-des64      BSP + Top-k + 2-shard PS at N=64; the most time
//                          outside the model (codec, PS ingest, 64 fibers).
//   bsp-ring-tcp4          every replica verb is a loopback TCP round trip.
//   selsync-conv-threads4  conv-bound; threads engine, shared backend. Run
//                          by hand only: BENCHMARK.json leaves it out
//                          because its throughput is too host-dependent to
//                          gate on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "optim/optimizer.hpp"

namespace perfbench {

enum class Net { kResNetMlp, kVgg };

/// Closed interval a run's output must fall in.
struct Band {
  double lo = 0.0;
  double hi = 1.0;
  bool contains(double v) const { return v >= lo && v <= hi; }
};

struct WorkloadSpec {
  std::string name;
  Net net = Net::kResNetMlp;
  selsync::StrategyKind strategy = selsync::StrategyKind::kBsp;
  selsync::BackendKind backend = selsync::BackendKind::kSharedMemory;
  selsync::EngineKind engine = selsync::EngineKind::kThreads;
  selsync::TransportKind transport = selsync::TransportKind::kInproc;
  size_t workers = 4;
  size_t ps_shards = 1;
  bool topk = false;      // Top-k 1% gradient codec
  double delta = 0.15;    // SelSync δ
  uint64_t iterations = 0;  // fixed per-worker step budget
  /// Final top-1 after the budget; measured across seeds, not bit-exact,
  /// so a kernel that reorders float sums still passes.
  Band top1;
  /// SelSync only: local-to-synchronous step ratio (paper Eqn. 4).
  Band lssr;
};

const std::vector<WorkloadSpec>& workload_specs();

/// Throws std::invalid_argument for an unknown name.
const WorkloadSpec& workload_spec(const std::string& name);

/// The workload's SGD recipe (the repo's ResNet101 / VGG11 recipes). Kept
/// apart from the job so the traced run can build the same optimizer as a
/// subclass.
struct SgdRecipe {
  double lr = 0.1;
  std::vector<double> decay_epochs;
  selsync::SgdOptions options;

  selsync::LrSchedulePtr schedule() const;
};

SgdRecipe sgd_recipe(const WorkloadSpec& spec);

/// Builds the workload at `seed`: synthetic train/test sets generated from
/// the seed, model and optimizer factories, and the TrainJob.
selsync::TrainJob build_job(const WorkloadSpec& spec, uint64_t seed);

/// The same task on one worker with local updates, inproc, stepping N
/// times the budget so it trains on as many samples: the denominator of
/// core.scaling_efficiency.
selsync::TrainJob single_worker_job(const selsync::TrainJob& job);

/// Empty when `r` is a correct run of `spec`, else why it is not.
std::string check_output(const WorkloadSpec& spec,
                         const selsync::TrainResult& r);

/// What a run computed, compared bit for bit between runs of one seed.
struct Fingerprint {
  uint64_t iterations = 0;
  uint64_t sync_steps = 0;
  uint64_t best_top1_bits = 0;
  uint64_t sim_time_bits = 0;
  uint64_t comm_bytes_bits = 0;
  uint64_t wire_bytes_bits = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const selsync::TrainResult& r);

}  // namespace perfbench
