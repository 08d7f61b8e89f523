// Scaling microbenchmark for the deterministic parallel layer: times the
// two hottest kernel call sites — the O(n^2) complexity measures and
// Magellan batch feature extraction — and the matcher line-up fan-out
// (core::ScoreLineup, one pool chunk per matcher) at 1, 2, 4, and 8
// threads, verifies the results are bit-identical across the sweep, and
// records the trajectory in the results block of the run manifest,
// bench_results/BENCH_parallel.json. Speedups
// are honest wall-clock numbers; on a 1-core host they hover near 1.0 by
// construction (the pool adds threads, the work has nowhere to run).
//
// Flags: --scale (default 0.4), --sample (default 1500), --repeats
//        (default 3: best-of), --dataset (default Ds1)
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "core/complexity.h"
#include "core/linearity.h"
#include "core/practical.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "matchers/context.h"
#include "matchers/registry.h"
#include "obs/metrics.h"

using namespace rlbench;

namespace {

constexpr size_t kThreadSweep[] = {1, 2, 4, 8};

// DL epoch budget of the timed line-up: a tenth of the paper's, so the
// sweep stays within a minute while the DL rows still dominate it.
constexpr double kLineupEpochScale = 0.1;

// Best-of-`repeats` wall time of one closure.
template <typename Fn>
double BestOf(int repeats, const Fn& fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    fn();
    double elapsed = watch.ElapsedSeconds();
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

obs::JsonValue WorkloadJson(const char* name,
                            const std::vector<double>& seconds) {
  using obs::JsonValue;
  std::vector<JsonValue> times;
  std::vector<JsonValue> speedups;
  for (size_t i = 0; i < seconds.size(); ++i) {
    times.push_back(JsonValue::Object({
        {"threads", JsonValue::Number(static_cast<double>(kThreadSweep[i]))},
        {"seconds", JsonValue::Number(seconds[i])},
    }));
    speedups.push_back(
        JsonValue::Number(seconds[i] > 0.0 ? seconds[0] / seconds[i] : 0.0));
  }
  return JsonValue::Object({
      {"name", JsonValue::String(name)},
      {"times", JsonValue::Array(std::move(times))},
      {"speedup_vs_1", JsonValue::Array(std::move(speedups))},
  });
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 0.4);
  size_t sample = static_cast<size_t>(flags.GetInt("sample", 1500));
  int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  std::string dataset = flags.GetString("dataset", "Ds1");

  // Metrics are always on here, so the run manifest carries the parallel
  // and columnar-store counters of the sweep.
  obs::Metrics::SetEnabled(true);
  benchutil::BenchRun run("micro_parallel", "BENCH_parallel.json");
  run.manifest().AddDataset(dataset);
  run.manifest().AddConfig("scale", scale);
  run.manifest().AddConfig("sample", static_cast<int64_t>(sample));
  run.manifest().AddConfig("repeats", static_cast<int64_t>(repeats));
  run.manifest().AddConfig("lineup_epoch_scale", kLineupEpochScale);

  const auto* spec = datagen::FindExistingBenchmark(dataset);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown dataset id %s\n", dataset.c_str());
    benchutil::RecordDatasetPhase(
        run, dataset, 0.0, Status::NotFound("unknown dataset id " + dataset));
    run.Finish();
    return 1;
  }
  auto task = datagen::BuildExistingBenchmark(*spec, scale);

  // Feature points are computed once, up front, so the complexity workload
  // times only ComputeComplexity itself.
  SetParallelThreads(1);
  run.manifest().BeginPhase("warm");
  matchers::MatchingContext warm_context(&task);
  auto points = core::PairFeaturePoints(warm_context);
  run.manifest().EndPhase();
  core::ComplexityOptions options;
  options.max_points = sample;

  std::vector<double> complexity_seconds;
  std::vector<double> feature_seconds;
  std::vector<double> lineup_seconds;
  double reference_average = 0.0;
  std::vector<double> reference_f1s;
  matchers::RegistryOptions lineup_options;
  lineup_options.epoch_scale = kLineupEpochScale;
  run.manifest().BeginPhase("sweep");
  for (size_t threads : kThreadSweep) {
    SetParallelThreads(threads);

    double average = 0.0;
    complexity_seconds.push_back(BestOf(repeats, [&] {
      average = core::ComputeComplexity(points, options).Average();
    }));
    // The determinism contract, spot-checked on real work: every thread
    // count must reproduce the 1-thread aggregate bit for bit.
    if (threads == 1) reference_average = average;
    RLBENCH_CHECK_MSG(average == reference_average,
                      "complexity average drifted across thread counts");

    feature_seconds.push_back(BestOf(repeats, [&] {
      matchers::MatchingContext context(&task);
      context.MagellanTrain();  // forces the parallel batch extraction
    }));

    // A fresh context and line-up per repeat: the lazy context builds and
    // the matchers' own caches are part of what the fan-out runs.
    std::vector<double> f1s;
    lineup_seconds.push_back(BestOf(repeats, [&] {
      matchers::MatchingContext context(&task);
      auto lineup = matchers::BuildMatcherLineup(lineup_options);
      f1s.clear();
      for (const auto& score : core::ScoreLineup(context, &lineup)) {
        f1s.push_back(score.f1);
      }
    }));
    if (threads == 1) reference_f1s = f1s;
    RLBENCH_CHECK_MSG(f1s == reference_f1s,
                      "line-up scores drifted across thread counts");

    std::printf("threads=%zu complexity=%.3fs features=%.3fs lineup=%.3fs\n",
                threads, complexity_seconds.back(), feature_seconds.back(),
                lineup_seconds.back());
  }
  run.manifest().EndPhase();
  SetParallelThreads(0);

  run.manifest().AddResult(
      "labelled_pairs",
      obs::JsonValue::Number(static_cast<double>(points.size())));
  run.manifest().AddResult(
      "workloads",
      obs::JsonValue::Array({
          WorkloadJson("complexity_measures", complexity_seconds),
          WorkloadJson("magellan_features", feature_seconds),
          WorkloadJson("matcher_lineup", lineup_seconds),
      }));
  return run.Finish() ? 0 : 1;
}
