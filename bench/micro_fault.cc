// Fault-layer overhead microbenchmark: the failpoint contract is "free
// when disabled" — one relaxed atomic load per evaluation. This harness
// measures that cost directly (ns per disabled evaluation), the armed but
// never-firing cost (probability 0), and the end-to-end import path with
// the layer disabled, then records everything as the results block of
// its run manifest, bench_results/BENCH_fault.json.
//
// Flags: --evals (default 5000000), --repeats (default 5: best-of),
//        --scale (default 0.5, export/import workload size)
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "data/benchmark_io.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "fault/failpoint.h"

using namespace rlbench;

namespace {

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

// One failpoint-evaluation loop; returns the hit count so the optimizer
// cannot drop the evaluations.
size_t EvalLoop(size_t evals) {
  size_t hits = 0;
  for (size_t i = 0; i < evals; ++i) {
    if (RLBENCH_FAULT_POINT("bench/micro/probe")) ++hits;
  }
  return hits;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  size_t evals = static_cast<size_t>(flags.GetInt("evals", 5000000));
  int repeats = static_cast<int>(flags.GetInt("repeats", 5));
  double scale = flags.GetDouble("scale", 0.5);

  benchutil::BenchRun run("micro_fault", "BENCH_fault.json");
  run.manifest().AddDataset("Ds5");
  run.manifest().AddConfig("evals", static_cast<int64_t>(evals));
  run.manifest().AddConfig("repeats", static_cast<int64_t>(repeats));
  run.manifest().AddConfig("scale", scale);

  // 1. Disabled: the zero-cost contract under test.
  fault::Clear();
  size_t sink = 0;
  run.manifest().BeginPhase("disabled_evals");
  double disabled_seconds = BestOf(repeats, [&] { sink += EvalLoop(evals); });
  run.manifest().EndPhase();
  RLBENCH_CHECK_MSG(sink == 0, "disabled failpoint produced hits");

  // 2. Armed at probability 0: full spec matching, decision drawn, no hit.
  RLBENCH_CHECK(fault::SetSpec("seed=1;bench/micro/probe=io:0").ok());
  run.manifest().BeginPhase("armed_zero_prob_evals");
  double armed_seconds = BestOf(repeats, [&] { sink += EvalLoop(evals); });
  run.manifest().EndPhase();
  fault::Clear();
  RLBENCH_CHECK_MSG(sink == 0, "probability-0 failpoint produced hits");

  // 3. End-to-end: the hottest failpoint-bearing path (CSV export/import)
  //    with the layer disabled — the number the ≤1% regression gate on the
  //    real benches protects.
  auto task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds5"), scale);
  std::string scratch = benchutil::ResultsDir() + "/micro_fault_scratch";
  run.manifest().BeginPhase("export");
  double export_seconds = BestOf(repeats, [&] {
    Status status = data::ExportBenchmark(task, scratch);
    RLBENCH_CHECK_MSG(status.ok(), "export failed");
  });
  run.manifest().EndPhase();
  run.manifest().BeginPhase("import");
  double import_seconds = BestOf(repeats, [&] {
    auto loaded = data::ImportBenchmark(scratch);
    RLBENCH_CHECK_MSG(loaded.ok(), "import failed");
  });
  run.manifest().EndPhase();
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);

  double disabled_ns = disabled_seconds / static_cast<double>(evals) * 1e9;
  double armed_ns = armed_seconds / static_cast<double>(evals) * 1e9;
  std::printf("disabled failpoint: %.3f ns/eval\n", disabled_ns);
  std::printf("armed (prob 0):     %.3f ns/eval\n", armed_ns);
  std::printf("export %.4fs, import %.4fs (scale %.2f, faults off)\n",
              export_seconds, import_seconds, scale);

  using obs::JsonValue;
  run.manifest().AddResult("disabled_ns_per_eval",
                           JsonValue::Number(disabled_ns));
  run.manifest().AddResult("armed_zero_prob_ns_per_eval",
                           JsonValue::Number(armed_ns));
  run.manifest().AddResult("export_seconds", JsonValue::Number(export_seconds));
  run.manifest().AddResult("import_seconds", JsonValue::Number(import_seconds));
  return run.Finish() ? 0 : 1;
}
