// Out-of-core bulk resolution macro benchmark (ISSUE 8): stream a
// million-record synthetic source pair through the sharded spill-to-disk
// pipeline in each blocking mode and report throughput — records/sec into
// the spill, candidate pairs/sec through the scoring kernels — plus peak
// RSS, which stays bounded by the shard budget instead of the dataset
// size. Results land in the run manifest, bench_results/BENCH_bulk.json;
// every shard also
// writes its own run manifest (bench_results/macro_bulk_<mode>.shard_NN
// .manifest.json) so a degraded shard is visible in the artefacts, not
// just the exit code.
//
// Flags: --records (total across both sides, default 1000000)
//        --mode    (sn | minhash | both, default both)
//        --shards  (default 64), --budget_mb (default 64)
//        --threshold (default 0.5), --seed (default 1)
//        --smoke   (CI preset: 20000 records, 4 shards, 16 MiB budget)
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bulk/options.h"
#include "bulk/resolver.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "datagen/bulk_source.h"
#include "datagen/spec.h"
#include "obs/resource.h"

using namespace rlbench;

namespace {

struct ModeReport {
  std::string mode;
  double seconds = 0.0;
  uint64_t candidates = 0;
  uint64_t matched = 0;
  uint64_t spilled_bytes = 0;
  size_t shards_failed = 0;
  size_t shards = 0;
  bool ok = false;
  std::string error;
};

double PerSecond(uint64_t count, double seconds) {
  return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  bool smoke = flags.GetBool("smoke", false);
  uint64_t records = static_cast<uint64_t>(
      flags.GetInt("records", smoke ? 20000 : 1000000));
  std::string mode_flag = flags.GetString("mode", "both");
  // 64 shards at full scale keeps the decoded size of any one shard (the
  // real memory high-water mark) in the same ballpark as the spill budget;
  // minhash replicates entries per band key, so its shards are the fattest.
  size_t shards =
      static_cast<size_t>(flags.GetInt("shards", smoke ? 4 : 64));
  size_t budget_mb =
      static_cast<size_t>(flags.GetInt("budget_mb", smoke ? 16 : 64));
  double threshold = flags.GetDouble("threshold", 0.5);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  datagen::SourceDatasetSpec spec;
  spec.id = "bulk";
  spec.d1_name = "BulkA";
  spec.d2_name = "BulkB";
  spec.domain = datagen::Domain::kProduct;
  spec.d1_size = static_cast<size_t>(records / 2);
  spec.d2_size = static_cast<size_t>(records - records / 2);
  spec.matches = static_cast<size_t>(records / 10);
  spec.seed = seed;
  datagen::BulkSourceGenerator source(spec);
  uint64_t total_records = source.size(0) + source.size(1);

  benchutil::BenchRun run("macro_bulk", "BENCH_bulk.json");
  run.manifest().set_seed(seed);
  run.manifest().AddDataset(spec.id);
  run.manifest().AddConfig("records", static_cast<int64_t>(total_records));
  run.manifest().AddConfig("mode", mode_flag);
  run.manifest().AddConfig("shards", static_cast<int64_t>(shards));
  run.manifest().AddConfig("budget_mb", static_cast<int64_t>(budget_mb));
  run.manifest().AddConfig("threshold", threshold);
  run.manifest().AddConfig("smoke", std::string(smoke ? "true" : "false"));

  std::vector<bulk::BulkMode> modes;
  if (mode_flag == "sn" || mode_flag == "both") {
    modes.push_back(bulk::BulkMode::kSortedNeighborhood);
  }
  if (mode_flag == "minhash" || mode_flag == "both") {
    modes.push_back(bulk::BulkMode::kMinHash);
  }
  RLBENCH_CHECK_MSG(!modes.empty(), "unknown --mode (use sn|minhash|both)");

  uint64_t bytes_streamed = 0;
  std::vector<ModeReport> reports;
  for (bulk::BulkMode mode : modes) {
    ModeReport report;
    report.mode = bulk::BulkModeName(mode);
    report.shards = shards;

    bulk::BulkOptions options;
    options.mode = mode;
    options.shards = shards;
    options.memory_budget_bytes = budget_mb << 20;
    options.threshold = threshold;
    // Per-process spill dir: each mode ends with remove_all(spill_dir), so
    // concurrent invocations sharing a cwd must not share spill space.
    options.spill_dir = flags.GetString(
        "spill_dir", "bulk_spill." + std::to_string(getpid()));
    options.manifest_dir = benchutil::ResultsDir();
    options.manifest_stem = std::string("macro_bulk_") + report.mode;
    options.output_path =
        options.spill_dir + "/matches_" + report.mode + ".csv";

    run.manifest().BeginPhase(std::string("mode/") + report.mode);
    Stopwatch watch;
    auto resolved = bulk::BulkResolve(source, options);
    report.seconds = watch.ElapsedSeconds();
    if (resolved.ok()) {
      const bulk::BulkResult& result = *resolved;
      report.ok = true;
      report.candidates = result.candidate_pairs;
      report.spilled_bytes = result.spilled_bytes;
      report.matched = result.matches.size();
      report.shards_failed = result.shards_failed;
      bytes_streamed = result.bytes_streamed;
    } else {
      report.error = resolved.status().ToString();
      run.manifest().FailPhase(report.error);
    }
    run.manifest().EndPhase();

    std::error_code ec;
    std::filesystem::remove_all(options.spill_dir, ec);

    if (report.ok) {
      std::printf(
          "%-8s %9.2fs  %11.0f rec/s  %12.0f cand/s  "
          "%llu candidates, %llu matched, %zu/%zu shards failed\n",
          report.mode.c_str(), report.seconds,
          static_cast<double>(total_records) / report.seconds,
          static_cast<double>(report.candidates) / report.seconds,
          static_cast<unsigned long long>(report.candidates),
          static_cast<unsigned long long>(report.matched),
          report.shards_failed, shards);
    } else {
      std::printf("%-8s FAILED: %s\n", report.mode.c_str(),
                  report.error.c_str());
    }
    reports.push_back(std::move(report));
  }

  int64_t peak_rss = obs::PeakRssBytes();
  std::printf("peak RSS %.1f MiB, streamed %.1f MiB of record bytes\n",
              static_cast<double>(peak_rss) / (1 << 20),
              static_cast<double>(bytes_streamed) / (1 << 20));

  using obs::JsonValue;
  auto count = [](uint64_t n) {
    return JsonValue::Number(static_cast<double>(n));
  };
  std::vector<JsonValue> modes_json;
  for (const ModeReport& r : reports) {
    modes_json.push_back(JsonValue::Object({
        {"mode", JsonValue::String(r.mode)},
        {"ok", JsonValue::Bool(r.ok)},
        {"seconds", JsonValue::Number(r.seconds)},
        {"records_per_sec",
         JsonValue::Number(PerSecond(total_records, r.seconds))},
        {"candidates_per_sec",
         JsonValue::Number(PerSecond(r.candidates, r.seconds))},
        {"candidate_pairs", count(r.candidates)},
        {"matched_pairs", count(r.matched)},
        {"spilled_bytes", count(r.spilled_bytes)},
        {"shards_failed", count(r.shards_failed)},
    }));
  }
  run.manifest().AddResult("bytes_streamed", count(bytes_streamed));
  run.manifest().AddResult("modes", JsonValue::Array(std::move(modes_json)));
  if (!run.Finish()) return 1;

  for (const ModeReport& report : reports) {
    if (!report.ok || report.shards_failed == report.shards) return 1;
  }
  return 0;
}
