// Outside-in tracing for the benchmark's traced runs.
//
// Nothing inside the program is instrumented. The decorators below are
// installed through the TrainJob seams the benchmark already owns: the
// train/test datasets (Dataset::make_batch), the model factory
// (Model::train_step / eval_batch), the optimizer factory (Sgd::apply,
// overridden in a subclass) and, on the TCP transport, the forked worker's
// body (TcpTransportConfig::child_main), which flushes the worker's spans
// to a file when it has served its run.
//
// Each recording thread appends to its own buffer, so the threads engine
// needs no lock per span; under the DES engine every rank runs on one
// thread and shares one buffer. Spans stay in memory until the benchmark
// reads them after run_training returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "workloads.hpp"

namespace perfbench {

enum class Layer : uint8_t { kMakeBatch, kTrainStep, kEvalBatch, kOptimApply };

struct Span {
  Layer layer = Layer::kMakeBatch;
  /// Model instance behind a train_step/eval_batch span. The program builds
  /// rank r's replica as the r-th model of a run (a forked TCP worker's
  /// only model is its rank's), so instance 0 is the root replica.
  uint32_t instance = 0;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

int64_t now_ns();

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Appends to the calling thread's buffer.
  void record(Layer layer, uint32_t instance, int64_t begin_ns,
              int64_t end_ns);

  /// Id of the next model the traced factory builds.
  uint32_t next_model_instance() { return next_model_.fetch_add(1); }

  /// In a forked TCP worker, before it serves: drops what fork copied from
  /// the master and numbers this process's model as `rank`.
  void start_child(uint32_t rank);

  /// Writes every buffered span to `path` (the forked worker's flush).
  void write_file(const std::string& path);

  /// Moves the spans of every file in `dir` into this recorder's buffers
  /// and deletes the files.
  void absorb_files(const std::string& dir);

  /// Every span recorded so far. Call only while no thread records.
  std::vector<Span> spans();

 private:
  std::vector<Span>& local_buffer();

  uint64_t id_;
  std::atomic<uint32_t> next_model_{0};
  std::mutex mu_;
  std::list<std::vector<Span>> buffers_;  // guarded by mu_; stable addresses
};

/// `base` with every seam decorated to record into `recorder`. The
/// optimizer is rebuilt from `recipe` as a traced Sgd; on the TCP
/// transport the forked workers write their spans under `spans_dir`.
selsync::TrainJob traced_job(const selsync::TrainJob& base,
                             const SgdRecipe& recipe,
                             std::shared_ptr<SpanRecorder> recorder,
                             const std::string& spans_dir);

}  // namespace perfbench
