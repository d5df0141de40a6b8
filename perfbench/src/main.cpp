// The repo benchmark's measuring program. perfbench/run.py builds it and
// drives it; see perfbench/README.md.
//
//   perfbench list
//   perfbench setup --workload W --seed S
//   perfbench run --workload W --seed S --seconds T --trace 0|1
//                 --spans-dir DIR
//
// `setup` times building one workload (datasets + TrainJob) in this fresh
// process and prints the seconds; `run` starts it between its runs. `run`
// repeats run_training at the workload's fixed budget until T seconds have
// passed, checks every run's output, and prints one JSON line last: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/trainer.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace selsync;

// Fewest timed runs a measurement takes, however short --seconds is.
constexpr size_t kMinRuns = 3;
// Fewest fresh-process set-ups setup_s is the median of.
constexpr size_t kMinSetups = 15;

struct Args {
  std::string self;  // argv[0], to re-run this program for `setup`
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_dir;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench list|setup|run ...");
  Args args;
  args.self = argv[0];
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = std::stoi(value) != 0;
    else if (flag == "--spans-dir") args.spans_dir = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  return args;
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// {"name": {"value": v, "unit": u}, ...} in the order given.
std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.12g", m.value);
    out += (out.size() > 1 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
           value + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

/// Runs attempted and runs that failed a check, with the first reasons.
struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> problems;

  void fail(const std::string& what) {
    ++failed;
    if (problems.size() < 8) problems.push_back(what);
  }
  double failed_share() const {
    return static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

struct Run {
  bool ok = false;
  double wall_s = 0.0;
  double samples_per_s = 0.0;
  TrainResult result;
};

using Check = std::function<std::string(const TrainResult&)>;

/// One run_training call at the fixed budget, timed and checked.
Run run_once(const TrainJob& job, const Check& check, Tally& tally) {
  Run run;
  ++tally.attempted;
  try {
    const int64_t begin = now_ns();
    run.result = run_training(job);
    run.wall_s = static_cast<double>(now_ns() - begin) * 1e-9;
    const std::string problem = check(run.result);
    if (!problem.empty()) throw std::runtime_error(problem);
    run.samples_per_s = static_cast<double>(job.workers) *
                        static_cast<double>(run.result.iterations) *
                        static_cast<double>(job.batch_size) / run.wall_s;
    run.ok = true;
  } catch (const std::exception& e) {
    tally.fail(e.what());
  }
  return run;
}

/// Runs of one seed must compute the same thing, traced or not.
void expect_fingerprint(std::optional<Fingerprint>& first, const Run& run,
                        const char* what, Tally& tally) {
  if (!run.ok) return;
  const Fingerprint fp = fingerprint(run.result);
  if (!first)
    first = fp;
  else if (!(*first == fp))
    tally.fail(std::string(what) + " changed the run's fingerprint");
}

/// Times building the workload in a fresh process: runs this program's
/// `setup` mode and reads the seconds it prints.
double fresh_setup_seconds(const Args& args) {
  int out[2];
  if (pipe(out) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  const std::string seed = std::to_string(args.seed);
  std::vector<std::string> words = {args.self, "setup", "--workload",
                                    args.workload, "--seed", seed};
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  std::string text;
  char buf[256];
  for (ssize_t n; spawned == 0 && (n = read(out[0], buf, sizeof buf)) > 0;)
    text.append(buf, static_cast<size_t>(n));
  close(out[0]);
  int status = 0;
  if (spawned != 0 || waitpid(pid, &status, 0) != pid ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0 || text.empty())
    throw std::runtime_error("setup process failed");
  return std::stod(text);
}

/// Peak resident set in MiB: `who` is RUSAGE_SELF, or RUSAGE_CHILDREN for
/// the largest child waited for so far.
double max_rss_mb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<double> rates(const std::vector<Run>& runs) {
  std::vector<double> out;
  for (const Run& run : runs)
    if (run.ok) out.push_back(run.samples_per_s);
  return out;
}

/// The benchmark's throughput statistic: the 90th percentile of the
/// per-run rates. A shared VM can swing between a fast and a slow state for
/// seconds to minutes at a time. Host noise only ever slows a run, and the
/// median follows the share of slow runs in a window while the upper tail
/// does not (on a shared 4-vCPU Xeon VM, 25-run windows of one process:
/// IQR/median 15% for the median, 7% for p90).
double throughput(const std::vector<Run>& runs) {
  return quantile(rates(runs), 0.9);
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const std::string& p : tally.problems)
    std::fprintf(stderr, "perfbench: FAILED %s\n", p.c_str());
  for (const Metric& m : metrics)
    std::printf("%-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      tally.failed == 0 ? "true" : "false", tally.attempted, tally.failed,
      metrics_json(metrics).c_str());
}

// ---- --trace 0: the end-to-end metrics -------------------------------------

void run_end_to_end(const WorkloadSpec& spec, const Args& args) {
  const TrainJob job = build_job(spec, args.seed);
  const Check check = [&spec](const TrainResult& r) {
    return check_output(spec, r);
  };
  Tally tally;
  std::vector<Run> runs;
  std::vector<double> setups;
  std::optional<Fingerprint> first;
  // Set-ups are timed between the runs, so they sample the host over the
  // whole measurement rather than at one moment. The forked TCP workers'
  // peak is read before the first set-up process, which is a child too.
  double workers_rss_mb = 0.0;
  const int64_t stop = now_ns() + static_cast<int64_t>(args.seconds * 1e9);
  while (runs.size() < kMinRuns || now_ns() < stop) {
    runs.push_back(run_once(job, check, tally));
    expect_fingerprint(first, runs.back(), "repeating the run", tally);
    if (runs.size() == 1 && spec.transport == TransportKind::kTcp)
      workers_rss_mb = max_rss_mb(RUSAGE_CHILDREN);
    setups.push_back(fresh_setup_seconds(args));
  }
  while (setups.size() < kMinSetups)
    setups.push_back(fresh_setup_seconds(args));
  const std::vector<double> r = rates(runs);
  std::printf("samples/s over %zu runs: q1 %.6g, median %.6g, q3 %.6g, "
              "p90 %.6g; failed_run_share %.4g\n",
              r.size(), quantile(r, 0.25), median(r), quantile(r, 0.75),
              throughput(runs), tally.failed_share());
  print_result(
      tally,
      {{"train_samples_per_s", throughput(runs), "samples/s"},
       {"peak_rss_mb", max_rss_mb(RUSAGE_SELF) + workers_rss_mb, "MiB"},
       {"passed_run_share", 1.0 - tally.failed_share(), "ratio"},
       {"setup_s", median(setups), "s"}});
}

// ---- --trace 1: the per-layer metrics --------------------------------------

struct TracedRun {
  Run run;
  std::vector<Span> spans;
};

/// Span time by layer over the passing traced runs.
struct LayerAccount {
  std::map<Layer, std::vector<double>> durations_us;
  std::map<Layer, double> busy_s;
  /// Interval between the root replica's successive train_step entries.
  std::vector<double> root_iter_ms;
  /// Rank time available: wall x the ranks that run in parallel.
  double capacity_s = 0.0;

  double share(Layer layer) const {
    const auto it = busy_s.find(layer);
    return it == busy_s.end() || capacity_s <= 0.0 ? 0.0
                                                   : it->second / capacity_s;
  }
  double p(Layer layer, double q) const {
    const auto it = durations_us.find(layer);
    return it == durations_us.end() ? 0.0 : quantile(it->second, q);
  }
};

LayerAccount account(const std::vector<TracedRun>& traced, double ranks) {
  LayerAccount a;
  for (const TracedRun& t : traced) {
    if (!t.run.ok) continue;
    a.capacity_s += t.run.wall_s * ranks;
    std::vector<int64_t> root_entries;
    for (const Span& s : t.spans) {
      const double ns = static_cast<double>(s.end_ns - s.begin_ns);
      a.durations_us[s.layer].push_back(ns * 1e-3);
      a.busy_s[s.layer] += ns * 1e-9;
      if (s.layer == Layer::kTrainStep && s.instance == 0)
        root_entries.push_back(s.begin_ns);
    }
    std::sort(root_entries.begin(), root_entries.end());
    for (size_t i = 1; i < root_entries.size(); ++i)
      a.root_iter_ms.push_back(
          static_cast<double>(root_entries[i] - root_entries[i - 1]) * 1e-6);
  }
  return a;
}

void run_traced(const WorkloadSpec& spec, const Args& args) {
  const TrainJob job = build_job(spec, args.seed);
  const Check check = [&spec](const TrainResult& r) {
    return check_output(spec, r);
  };
  const SgdRecipe recipe = sgd_recipe(spec);
  if (spec.transport == TransportKind::kTcp) {
    // Files left by an interrupted call would be read as this run's spans.
    std::filesystem::remove_all(args.spans_dir);
    std::filesystem::create_directories(args.spans_dir);
  }
  Tally tally;
  std::optional<Fingerprint> first;
  std::vector<Run> plain;
  std::vector<TracedRun> traced;
  const auto after = [&](double share_of_seconds) {
    return now_ns() + static_cast<int64_t>(args.seconds * share_of_seconds * 1e9);
  };

  // Plain and traced runs of the same seed alternate, so drift on the host
  // hits both; every one must have the same fingerprint.
  int64_t stop = after(0.55);
  while (traced.size() < 2 || now_ns() < stop) {
    plain.push_back(run_once(job, check, tally));
    expect_fingerprint(first, plain.back(), "repeating the run", tally);
    auto recorder = std::make_shared<SpanRecorder>();
    TracedRun t{run_once(traced_job(job, recipe, recorder, args.spans_dir),
                         check, tally),
                {}};
    if (spec.transport == TransportKind::kTcp)
      recorder->absorb_files(args.spans_dir);
    t.spans = recorder->spans();
    expect_fingerprint(first, t.run, "tracing", tally);
    traced.push_back(std::move(t));
  }

  const TrainJob single = single_worker_job(job);
  const Check finished = [&single](const TrainResult& r) -> std::string {
    if (r.diverged || r.iterations != single.max_iterations)
      return "single-worker baseline did not finish its budget";
    return {};
  };
  std::vector<Run> baseline;
  stop = after(0.15);
  while (baseline.size() < kMinRuns || now_ns() < stop)
    baseline.push_back(run_once(single, finished, tally));

  const size_t payload = job.model_factory(job.seed)->param_count();
  const ProbeResults probes =
      run_probes(payload, spec.workers, args.seconds * 0.04);

  // Under the threads engine (the TCP workload's too) each rank has its own
  // thread, so a share is busy time over N x wall; under DES every rank
  // runs on the one host thread.
  const LayerAccount a = account(
      traced, spec.engine == EngineKind::kThreads
                  ? static_cast<double>(spec.workers)
                  : 1.0);
  std::vector<Run> traced_runs;
  SyncCostTotals cost;  // summed over the passing traced runs
  double wall_s = 0.0, steps = 0.0;
  TrainResult last;  // sync counts agree across runs (same fingerprint)
  for (const TracedRun& t : traced) {
    if (!t.run.ok) continue;
    traced_runs.push_back(t.run);
    wall_s += t.run.wall_s;
    steps += static_cast<double>(t.run.result.iterations);
    cost.measured_sync_s += t.run.result.sync_cost.measured_sync_s;
    cost.measured_wire_bytes += t.run.result.sync_cost.measured_wire_bytes;
    cost.wire_bytes += t.run.result.sync_cost.wire_bytes;
    cost.dense_bytes += t.run.result.sync_cost.dense_bytes;
    last = t.run.result;
  }
  const double untraced_rate = throughput(plain);
  const double baseline_rate = throughput(baseline);
  const auto ratio = [](double num, double den, double otherwise) {
    return den > 0.0 ? num / den : otherwise;
  };

  std::printf("traced %zu runs, untraced %zu, single-worker %zu; %zu "
              "train_step spans, %zu root intervals\n",
              traced.size(), plain.size(), baseline.size(),
              a.durations_us.count(Layer::kTrainStep)
                  ? a.durations_us.at(Layer::kTrainStep).size()
                  : 0,
              a.root_iter_ms.size());
  print_result(
      tally,
      {{"tensor.matmul_gmacs", probes.matmul_gmacs, "GMAC/s"},
       {"tensor.conv2d_gmacs", probes.conv2d_gmacs, "GMAC/s"},
       {"nn.train_step_us_p50", a.p(Layer::kTrainStep, 0.5), "us"},
       {"nn.train_step_us_p99", a.p(Layer::kTrainStep, 0.99), "us"},
       {"nn.share", a.share(Layer::kTrainStep), "ratio"},
       {"nn.eval_batch_us_p50", a.p(Layer::kEvalBatch, 0.5), "us"},
       {"nn.eval_share", a.share(Layer::kEvalBatch), "ratio"},
       {"optim.apply_us_p50", a.p(Layer::kOptimApply, 0.5), "us"},
       {"optim.share", a.share(Layer::kOptimApply), "ratio"},
       {"data.make_batch_us_p50", a.p(Layer::kMakeBatch, 0.5), "us"},
       {"data.share", a.share(Layer::kMakeBatch), "ratio"},
       {"stats.grad_change_us", probes.grad_change_us, "us"},
       {"comm.codec_transform_us", probes.codec_transform_us, "us"},
       {"comm.wire_to_dense", ratio(cost.wire_bytes, cost.dense_bytes, 1.0),
        "ratio"},
       {"comm.des_yield_us", probes.des_yield_us, "us"},
       {"comm.wire_frame_us", probes.wire_frame_us, "us"},
       {"comm.measured_sync_share", ratio(cost.measured_sync_s, wall_s, 0.0),
        "ratio"},
       {"comm.measured_wire_kb_per_step",
        ratio(cost.measured_wire_bytes / 1024.0, steps, 0.0), "KiB"},
       {"core.other_share",
        1.0 - a.share(Layer::kTrainStep) - a.share(Layer::kEvalBatch) -
            a.share(Layer::kOptimApply) - a.share(Layer::kMakeBatch),
        "ratio"},
       {"core.iter_ms_p50", quantile(a.root_iter_ms, 0.5), "ms"},
       {"core.iter_ms_p99", quantile(a.root_iter_ms, 0.99), "ms"},
       {"core.sync_rounds", static_cast<double>(last.sync_steps), "count"},
       {"core.lssr", last.lssr(), "ratio"},
       {"core.scaling_efficiency", ratio(untraced_rate, baseline_rate, 0.0),
        "ratio"},
       {"trace.overhead",
        1.0 - ratio(throughput(traced_runs), untraced_rate, 1.0), "ratio"}});
}

int run_main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.mode == "list") {
    for (const WorkloadSpec& spec : workload_specs())
      std::printf("%s\n", spec.name.c_str());
    return 0;
  }
  const WorkloadSpec& spec = workload_spec(args.workload);
  if (args.mode == "setup") {
    const int64_t begin = now_ns();
    const TrainJob job = build_job(spec, args.seed);
    std::printf("%.9g\n", static_cast<double>(now_ns() - begin) * 1e-9);
    return 0;
  }
  if (args.mode != "run") throw std::invalid_argument("unknown mode " + args.mode);
  if (args.trace) {
    if (args.spans_dir.empty())
      throw std::invalid_argument("--trace 1 needs --spans-dir");
    run_traced(spec, args);
  } else {
    run_end_to_end(spec, args);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
