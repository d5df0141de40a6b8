#include "trace.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "core/replica.hpp"
#include "data/dataset.hpp"
#include "nn/model.hpp"

namespace perfbench {

using namespace selsync;

namespace {

std::atomic<uint64_t> g_next_recorder_id{1};

// The calling thread's buffer and the recorder it belongs to. Recorder ids
// are never reused, so a binding left by a finished recorder (or copied
// into a forked worker) is never mistaken for the current one.
thread_local uint64_t tl_recorder_id = 0;
thread_local std::vector<Span>* tl_buffer = nullptr;

/// Times one call and records it on scope exit.
class Timed {
 public:
  Timed(SpanRecorder& recorder, Layer layer, uint32_t instance)
      : recorder_(recorder), layer_(layer), instance_(instance),
        begin_(now_ns()) {}
  ~Timed() { recorder_.record(layer_, instance_, begin_, now_ns()); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SpanRecorder& recorder_;
  Layer layer_;
  uint32_t instance_;
  int64_t begin_;
};

class TracedDataset final : public Dataset {
 public:
  TracedDataset(DatasetPtr inner, std::shared_ptr<SpanRecorder> recorder)
      : inner_(std::move(inner)), recorder_(std::move(recorder)) {}

  size_t size() const override { return inner_->size(); }
  Batch make_batch(const std::vector<size_t>& indices) const override {
    Timed timed(*recorder_, Layer::kMakeBatch, 0);
    return inner_->make_batch(indices);
  }
  int label_of(size_t index) const override { return inner_->label_of(index); }
  size_t num_classes() const override { return inner_->num_classes(); }
  size_t sample_bytes() const override { return inner_->sample_bytes(); }

 private:
  DatasetPtr inner_;
  std::shared_ptr<SpanRecorder> recorder_;
};

class TracedModel final : public Model {
 public:
  TracedModel(std::unique_ptr<Model> inner, SpanRecorder& recorder,
              uint32_t instance)
      : inner_(std::move(inner)), recorder_(recorder), instance_(instance) {}

  float train_step(const Batch& batch) override {
    Timed timed(recorder_, Layer::kTrainStep, instance_);
    return inner_->train_step(batch);
  }
  EvalStats eval_batch(const Batch& batch) override {
    Timed timed(recorder_, Layer::kEvalBatch, instance_);
    return inner_->eval_batch(batch);
  }
  void set_training(bool training) override { inner_->set_training(training); }
  bool is_language_model() const override {
    return inner_->is_language_model();
  }

 protected:
  // The same Param objects in the same order, so flat parameter and
  // gradient vectors are the inner model's.
  void collect_model_params(std::vector<Param*>& out) override {
    const std::vector<Param*>& params = inner_->params();
    out.insert(out.end(), params.begin(), params.end());
  }

 private:
  std::unique_ptr<Model> inner_;
  SpanRecorder& recorder_;
  uint32_t instance_;
};

// Both workloads train with Sgd; its update is the protected apply().
class TracedSgd final : public Sgd {
 public:
  TracedSgd(SpanRecorder& recorder, LrSchedulePtr schedule,
            SgdOptions options)
      : Sgd(std::move(schedule), options), recorder_(recorder) {}

 protected:
  void apply(const std::vector<Param*>& params, double lr) override {
    Timed timed(recorder_, Layer::kOptimApply, 0);
    Sgd::apply(params, lr);
  }

 private:
  SpanRecorder& recorder_;
};

}  // namespace

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::SpanRecorder() : id_(g_next_recorder_id.fetch_add(1)) {}

std::vector<Span>& SpanRecorder::local_buffer() {
  if (tl_recorder_id != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    tl_buffer = &buffers_.emplace_back();
    tl_recorder_id = id_;
  }
  return *tl_buffer;
}

void SpanRecorder::record(Layer layer, uint32_t instance, int64_t begin_ns,
                          int64_t end_ns) {
  local_buffer().push_back({layer, instance, begin_ns, end_ns});
}

void SpanRecorder::start_child(uint32_t rank) {
  // fork() left exactly one thread, so nothing else touches the recorder.
  buffers_.clear();
  id_ = g_next_recorder_id.fetch_add(1);
  next_model_.store(rank);
}

void SpanRecorder::write_file(const std::string& path) {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const size_t written = std::fwrite(all.data(), sizeof(Span), all.size(), f);
  if (std::fclose(f) != 0 || written != all.size())
    throw std::runtime_error("short write to " + path);
}

void SpanRecorder::absorb_files(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    files.push_back(entry.path());
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::filesystem::path& path : files) {
    const uintmax_t bytes = std::filesystem::file_size(path);
    if (bytes % sizeof(Span) != 0)
      throw std::runtime_error("torn span file " + path.string());
    std::vector<Span>& buffer = buffers_.emplace_back(bytes / sizeof(Span));
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) throw std::runtime_error("cannot read " + path.string());
    const size_t read = std::fread(buffer.data(), sizeof(Span), buffer.size(), f);
    std::fclose(f);
    if (read != buffer.size())
      throw std::runtime_error("short read from " + path.string());
    std::filesystem::remove(path);
  }
}

std::vector<Span> SpanRecorder::spans() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const std::vector<Span>& buffer : buffers_)
    all.insert(all.end(), buffer.begin(), buffer.end());
  return all;
}

TrainJob traced_job(const TrainJob& base, const SgdRecipe& recipe,
                    std::shared_ptr<SpanRecorder> recorder,
                    const std::string& spans_dir) {
  TrainJob job = base;
  job.train_data = std::make_shared<TracedDataset>(base.train_data, recorder);
  job.test_data = std::make_shared<TracedDataset>(base.test_data, recorder);
  job.model_factory = [recorder, inner = base.model_factory](uint64_t seed)
      -> std::unique_ptr<Model> {
    return std::make_unique<TracedModel>(inner(seed), *recorder,
                                         recorder->next_model_instance());
  };
  job.optimizer_factory = [recorder, recipe]() -> std::unique_ptr<Optimizer> {
    return std::make_unique<TracedSgd>(*recorder, recipe.schedule(),
                                       recipe.options);
  };
  if (job.transport == TransportKind::kTcp)
    job.tcp.child_main = [recorder, spans_dir](const TrainJob& child_job,
                                               size_t rank, uint16_t port) {
      recorder->start_child(static_cast<uint32_t>(rank));
      serve_tcp_worker(child_job, rank, "127.0.0.1", port);
      recorder->write_file(spans_dir + "/rank" + std::to_string(rank) + "-" +
                           std::to_string(::getpid()) + ".spans");
    };
  return job;
}

}  // namespace perfbench
