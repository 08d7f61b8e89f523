// Closed-loop batch workloads, one op in flight:
//
//   assess  the paper's a-priori assessment of every established benchmark
//           at full scale (datagen -> context -> linearity -> complexity);
//   lineup  train and score the full matcher line-up on a fixed spec list,
//           each spec capped at kLineupPairs labelled pairs;
//   bulk    one out-of-core sorted-neighbourhood job per op over a streamed
//           source of kBulkRecords records, with a spill budget well
//           below the streamed bytes.
//
// A pass is one fixed unit of input (all specs once, or one bulk job).
// The timed phase runs --passes passes. With --trace=1 half of them
// (at least one) run untraced (the reference for trace.overhead) and the
// same number then run with
// RLBENCH_TRACE/RLBENCH_METRICS enabled and a benchmark-side timer around
// every public layer call.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "bulk/resolver.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/complexity.h"
#include "core/linearity.h"
#include "core/practical.h"
#include "datagen/bulk_source.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "matchers/context.h"
#include "matchers/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rlbench::Flags;
namespace datagen = rlbench::datagen;
namespace core = rlbench::core;
namespace matchers = rlbench::matchers;
namespace bulk = rlbench::bulk;

/// Outputs of one op: a digest of everything it computed, whether the
/// values passed the range and finiteness checks, and the work it did.
struct OpOutcome {
  std::string digest;
  bool valid = true;
  std::string note;  // why the values failed their checks
  double items = 0.0;
  LayerLedger counts;  // exact per-op counts (bulk)
};

struct Unit {
  std::string name;
  std::function<OpOutcome(LayerLedger*)> run;
};

// Workload inputs, recorded with every run through the result's "input".
constexpr const char* kLineupSpecs = "Ds3,Dd3,Dt1";
constexpr double kLineupPairs = 300;      // labelled pairs per line-up spec
constexpr uint64_t kBulkRecords = 100000;  // both sides of one bulk job
constexpr size_t kBulkShards = 4;
constexpr size_t kBulkBudgetBytes = 1 << 20;  // well below ~6.4 MB streamed

bool InUnitRange(double v) { return std::isfinite(v) && v >= 0.0 && v <= 1.0; }

void Check(OpOutcome* out, bool ok, const std::string& what) {
  if (!ok && out->valid) {
    out->valid = false;
    out->note = what;
  }
}

/// Per-op dataset seed: a pure function of the workload seed and the spec.
uint64_t SpecSeed(uint64_t workload_seed, const datagen::ExistingBenchmarkSpec& spec) {
  return rlbench::SplitSeed(workload_seed, spec.seed * 1000003ULL + spec.id.size());
}

// --- assess ------------------------------------------------------------------

OpOutcome AssessOp(datagen::ExistingBenchmarkSpec spec, LayerLedger* layers) {
  OpOutcome out;
  std::optional<rlbench::data::MatchingTask> task;
  {
    LayerTimer t(layers, "datagen.build_s");
    task.emplace(datagen::BuildExistingBenchmark(spec, 1.0));
  }
  out.items = static_cast<double>(task->train().size() + task->valid().size() +
                                  task->test().size());
  std::optional<matchers::MatchingContext> context;
  {
    LayerTimer t(layers, "context.build_s");
    context.emplace(&*task);
  }
  core::LinearityResult linearity;
  {
    LayerTimer t(layers, "linearity.s");
    linearity = core::ComputeLinearity(*context);
  }
  std::vector<core::FeaturePoint> points;
  {
    LayerTimer t(layers, "complexity.points_s");
    points = core::PairFeaturePoints(*context);
  }
  core::ComplexityReport report;
  {
    LayerTimer t(layers, "complexity.s");
    report = core::ComputeComplexity(points);
  }
  Digest digest;
  digest.Add(spec.id);
  for (double v : {linearity.f1_cosine, linearity.threshold_cosine,
                   linearity.f1_jaccard, linearity.threshold_jaccard}) {
    digest.Add(v);
    Check(&out, InUnitRange(v), spec.id + ": linearity value out of [0,1]");
  }
  for (const auto& [name, value] : report.Items()) {
    digest.Add(name);
    digest.Add(value);
    Check(&out, std::isfinite(value), spec.id + ": complexity " + name + " not finite");
  }
  Check(&out, InUnitRange(report.Average()), spec.id + ": complexity average out of [0,1]");
  Check(&out, points.size() == task->AllPairs().size(), spec.id + ": point count");
  out.digest = digest.Hex();
  {
    // Freeing a full-scale task is part of the op; time it so the
    // attribution accounts for it.
    LayerTimer t(layers, "teardown_s");
    context.reset();
    task.reset();
  }
  return out;
}

std::vector<Unit> AssessUnits(uint64_t seed) {
  std::vector<Unit> units;
  for (const auto& base : datagen::ExistingBenchmarks()) {
    datagen::ExistingBenchmarkSpec spec = base;
    spec.seed = SpecSeed(seed, base);
    units.push_back({spec.id, [spec](LayerLedger* l) { return AssessOp(spec, l); }});
  }
  return units;
}

// --- lineup ------------------------------------------------------------------

const char* GroupLayer(matchers::MatcherGroup group) {
  switch (group) {
    case matchers::MatcherGroup::kDeepLearning: return "lineup.dl_s";
    case matchers::MatcherGroup::kClassicMl: return "lineup.classic_s";
    case matchers::MatcherGroup::kLinear: return "lineup.linear_s";
    case matchers::MatcherGroup::kZeroShot: return "lineup.zeroshot_s";
  }
  return "lineup.other_s";
}

OpOutcome LineupOp(datagen::ExistingBenchmarkSpec spec, double scale,
                   LayerLedger* layers) {
  OpOutcome out;
  std::optional<rlbench::data::MatchingTask> task;
  {
    LayerTimer t(layers, "datagen.build_s");
    task.emplace(datagen::BuildExistingBenchmark(spec, scale));
  }
  out.items = static_cast<double>(task->train().size() + task->valid().size() +
                                  task->test().size());
  std::optional<matchers::MatchingContext> context;
  {
    LayerTimer t(layers, "context.build_s");
    context.emplace(&*task);
  }
  {
    // Magellan feature sets are shared by four matchers and ZeroER; build
    // them up front so their cost is attributed to the context layer.
    LayerTimer t(layers, "context.magellan_s");
    (void)context->MagellanTrain();
  }
  auto lineup = matchers::BuildMatcherLineup();
  std::vector<core::MatcherScore> scores;
  if (layers == nullptr) {
    scores = core::ScoreLineup(*context, &lineup);
  } else {
    // core::ScoreLineup's loop, with a timer around each entry's TestF1.
    double longest = 0.0;
    for (auto& entry : lineup) {
      core::MatcherScore score;
      score.name = entry.matcher->name();
      score.group = entry.group;
      auto start = Clock::now();
      {
        LayerTimer t(layers, GroupLayer(entry.group));
        score.f1 = entry.matcher->TestF1(*context);
      }
      longest = std::max(longest, SecondsSince(start));
      scores.push_back(std::move(score));
    }
    layers->Add("lineup.critical_s", longest);
  }
  core::PracticalMeasures practical;
  {
    LayerTimer t(layers, "practical.s");
    practical = core::ComputePractical(scores);
  }
  Digest digest;
  digest.Add(spec.id);
  for (const auto& score : scores) {
    digest.Add(score.name);
    digest.Add(score.f1);
    Check(&out, InUnitRange(score.f1), spec.id + ": " + score.name + " F1 out of [0,1]");
  }
  for (double v : {practical.non_linear_boost, practical.learning_based_margin,
                   practical.best_nonlinear_f1, practical.best_linear_f1}) {
    digest.Add(v);
    Check(&out, std::isfinite(v) && std::fabs(v) <= 1.0,
          spec.id + ": practical measure out of [-1,1]");
  }
  Check(&out, scores.size() == lineup.size(), spec.id + ": line-up size");
  out.digest = digest.Hex();
  {
    LayerTimer t(layers, "teardown_s");
    lineup.clear();
    context.reset();
    task.reset();
  }
  return out;
}

std::vector<Unit> LineupUnits(uint64_t seed, const std::string& ids, double cap) {
  std::vector<Unit> units;
  for (const std::string& id : rlbench::SplitAny(ids, ",")) {
    const auto* base = datagen::FindExistingBenchmark(id);
    if (base == nullptr) {
      std::fprintf(stderr, "unknown line-up spec %s\n", id.c_str());
      std::exit(2);
    }
    datagen::ExistingBenchmarkSpec spec = *base;
    spec.seed = SpecSeed(seed, *base);
    double total = static_cast<double>(spec.total_pairs);
    double scale = total <= cap ? 1.0 : cap / total;
    units.push_back({spec.id, [spec, scale](LayerLedger* l) {
                       return LineupOp(spec, scale, l);
                     }});
  }
  return units;
}

// --- bulk --------------------------------------------------------------------

struct BulkConfig {
  uint64_t records = 0;
  size_t shards = 4;
  size_t budget_bytes = 0;
  std::string spill_dir;
};

datagen::SourceDatasetSpec BulkSpec(uint64_t records, uint64_t seed) {
  datagen::SourceDatasetSpec spec;
  spec.id = "bulk";
  spec.d1_name = "BulkA";
  spec.d2_name = "BulkB";
  spec.domain = datagen::Domain::kProduct;
  spec.d1_size = static_cast<size_t>(records / 2);
  spec.d2_size = static_cast<size_t>(records - records / 2);
  spec.matches = static_cast<size_t>(records / 10);
  spec.seed = seed;
  return spec;
}

OpOutcome BulkOp(const BulkConfig& config, uint64_t seed, LayerLedger* layers) {
  OpOutcome out;
  datagen::BulkSourceGenerator source(BulkSpec(config.records, seed));
  bulk::BulkOptions options;
  options.mode = bulk::BulkMode::kSortedNeighborhood;
  options.shards = config.shards;
  options.memory_budget_bytes = config.budget_bytes;
  options.spill_dir = config.spill_dir;
  std::optional<rlbench::Result<bulk::BulkResult>> resolved;
  {
    LayerTimer t(layers, "bulk.resolve_s");
    resolved.emplace(bulk::BulkResolve(source, options));
  }
  std::error_code ec;
  std::filesystem::remove_all(config.spill_dir, ec);
  out.items = static_cast<double>(source.size(0) + source.size(1));
  if (!resolved->ok()) {
    Check(&out, false, "bulk: " + resolved->status().ToString());
    out.digest = "error";
    return out;
  }
  const bulk::BulkResult& result = **resolved;
  Digest digest;
  digest.Add(bulk::SerializeMatches(result.matches));
  out.digest = digest.Hex();
  Check(&out, result.shards_failed == 0, "bulk: shards failed");
  Check(&out, result.records_streamed == source.size(0) + source.size(1),
        "bulk: records streamed");
  Check(&out, result.matches.size() <= result.candidate_pairs, "bulk: matched > candidates");
  Check(&out, !result.matches.empty(), "bulk: no matches");
  Check(&out, result.spilled_bytes > config.budget_bytes, "bulk: nothing spilled past the budget");
  for (const auto& m : result.matches) {
    if (!(std::isfinite(m.score) && m.score >= options.threshold && m.score <= 1.0)) {
      Check(&out, false, "bulk: match score out of [threshold,1]");
      break;
    }
  }
  out.counts.Add("bulk.candidates", static_cast<double>(result.candidate_pairs));
  out.counts.Add("bulk.matched", static_cast<double>(result.matches.size()));
  out.counts.Add("bulk.spilled_mb", static_cast<double>(result.spilled_bytes) / (1024.0 * 1024.0));
  out.counts.Add("bulk.streamed_mb", static_cast<double>(result.bytes_streamed) / (1024.0 * 1024.0));
  out.counts.Add("bulk.shards_failed", static_cast<double>(result.shards_failed));
  return out;
}

/// Iterate the streaming generator alone over both sides of one job's
/// source: the datagen share of a bulk job.
double StreamOnlySeconds(uint64_t records, uint64_t seed) {
  datagen::BulkSourceGenerator source(BulkSpec(records, seed));
  auto start = Clock::now();
  size_t bytes = 0;
  for (size_t side : {datagen::BulkSourceGenerator::kD1, datagen::BulkSourceGenerator::kD2}) {
    source.StreamRecords(side, 0, source.size(side),
                         [&bytes](uint64_t, rlbench::data::Record record) {
                           for (const auto& v : record.values) bytes += v.size();
                         });
  }
  double seconds = SecondsSince(start);
  if (bytes == 0) std::fprintf(stderr, "bulk stream produced no bytes\n");
  return seconds;
}

// --- timed phase -------------------------------------------------------------

struct OpRecord {
  std::string unit;
  double seconds = 0.0;
  double items = 0.0;
  std::string digest;
  bool valid = true;
  std::string note;
  bool traced = false;
};

struct PassRecord {
  double seconds = 0.0;
  bool traced = false;
};

void SetTracing(bool on, const std::string& trace_path) {
  rlbench::obs::SetTraceFile(on ? trace_path : "");
  rlbench::obs::Metrics::SetEnabled(on);
}

}  // namespace

int RunBatch(const Flags& flags) {
  const std::string workload = flags.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  // Passes in the timed phase; run.py derives it from --seconds, so every
  // run does the same work whatever the host's speed.
  const int passes = std::max<int>(1, static_cast<int>(flags.GetInt("passes", 1)));
  const bool trace = flags.GetInt("trace", 0) != 0;
  const bool setup_only = flags.GetBool("setup_only", false);
  const std::string out_path = flags.GetString("out", "");

  // Tracing is enabled by RLBENCH_TRACE in the traced run; hold it off
  // through set-up and the untraced reference passes.
  const char* env_trace = std::getenv("RLBENCH_TRACE");
  const std::string trace_path = env_trace != nullptr ? env_trace : "";
  SetTracing(false, "");

  const double calib_start_ms = CalibrationMs();

  std::vector<Unit> units;
  Unit warmup;
  std::function<void(LayerLedger*)> trace_only_extra;
  std::string input;
  if (workload == "assess") {
    units = AssessUnits(seed);
    // Warm-up: one mid-sized spec (~0.3 s), on its own seed stream.
    const auto* small = datagen::FindExistingBenchmark("Ds1");
    datagen::ExistingBenchmarkSpec spec = *small;
    spec.seed = rlbench::SplitSeed(seed, 0xAA);
    warmup = {"warmup", [spec](LayerLedger* l) { return AssessOp(spec, l); }};
    input = "13 established specs at scale 1.0";
  } else if (workload == "lineup") {
    units = LineupUnits(seed, kLineupSpecs, kLineupPairs);
    const auto* small = datagen::FindExistingBenchmark("Ds5");
    datagen::ExistingBenchmarkSpec spec = *small;
    spec.seed = rlbench::SplitSeed(seed, 0xAA);
    double scale = std::min(1.0, 200.0 / static_cast<double>(spec.total_pairs));
    warmup = {"warmup", [spec, scale](LayerLedger* l) { return LineupOp(spec, scale, l); }};
    input = std::string(kLineupSpecs) + " capped at " +
            std::to_string(static_cast<int64_t>(kLineupPairs)) + " pairs";
  } else if (workload == "bulk") {
    BulkConfig config;
    config.records = kBulkRecords;
    config.shards = kBulkShards;
    config.budget_bytes = kBulkBudgetBytes;
    config.spill_dir = flags.GetString("spill_dir", "bulk_spill") + "." +
                       std::to_string(getpid());
    const uint64_t job_seed = rlbench::SplitSeed(seed, 0xB0);
    units.push_back({"sn", [config, job_seed](LayerLedger* l) {
                       return BulkOp(config, job_seed, l);
                     }});
    BulkConfig small = config;
    small.records = std::max<uint64_t>(config.records / 10, 2000);
    small.budget_bytes = config.budget_bytes / 10;
    const uint64_t warm_seed = rlbench::SplitSeed(seed, 0xAA);
    warmup = {"warmup", [small, warm_seed](LayerLedger* l) {
                return BulkOp(small, warm_seed, l);
              }};
    trace_only_extra = [config, job_seed](LayerLedger* layers) {
      layers->Add("datagen.stream_s", StreamOnlySeconds(config.records, job_seed));
    };
    input = std::to_string(config.records) + " records, SN, " +
            std::to_string(config.shards) + " shards, " +
            std::to_string(config.budget_bytes / 1024) + " KiB budget";
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", workload.c_str());
    return 2;
  }

  OpOutcome warm = warmup.run(nullptr);
  std::printf("perfbench ready\n");
  std::fflush(stdout);
  if (setup_only) return warm.valid ? 0 : 1;

  std::vector<OpRecord> ops;
  std::vector<PassRecord> pass_records;
  LayerLedger layers;
  LayerLedger counts;
  double untraced_wall = 0.0, traced_wall = 0.0;
  double untraced_cpu = 0.0;
  const size_t threads = rlbench::ParallelThreadCount();

  auto run_pass = [&](bool traced) {
    auto start = Clock::now();
    for (const Unit& unit : units) {
      auto op_start = Clock::now();
      OpOutcome outcome = unit.run(traced ? &layers : nullptr);
      OpRecord record;
      record.unit = unit.name;
      record.seconds = SecondsSince(op_start);
      record.items = outcome.items;
      record.digest = outcome.digest;
      record.valid = outcome.valid;
      record.note = outcome.note;
      record.traced = traced;
      if (!traced) {
        for (const auto& [name, value] : outcome.counts.values()) counts.Add(name, value);
      }
      ops.push_back(std::move(record));
    }
    pass_records.push_back({SecondsSince(start), traced});
  };

  const double cpu_start = ProcessCpuSeconds();
  const auto phase_start = Clock::now();
  const int untraced_passes = trace ? std::max(1, passes / 2) : passes;
  for (int i = 0; i < untraced_passes; ++i) run_pass(false);
  untraced_wall = SecondsSince(phase_start);
  untraced_cpu = ProcessCpuSeconds() - cpu_start;

  if (trace) {
    SetTracing(true, trace_path);
    auto traced_start = Clock::now();
    for (int i = 0; i < untraced_passes; ++i) run_pass(true);
    traced_wall = SecondsSince(traced_start);
    rlbench::obs::WriteTraceIfEnabled();
    SetTracing(false, "");
    // Measured untraced: it is a reference cost, not part of any op.
    if (trace_only_extra) trace_only_extra(&layers);
  }
  const double calib_end_ms = CalibrationMs();

  std::vector<std::string> op_json;
  for (const OpRecord& op : ops) {
    op_json.push_back(JsonObject()
                          .String("unit", op.unit)
                          .Number("seconds", op.seconds)
                          .Number("items", op.items)
                          .String("digest", op.digest)
                          .Bool("valid", op.valid)
                          .String("note", op.note)
                          .Bool("traced", op.traced)
                          .Close());
  }
  std::vector<std::string> pass_json;
  for (const PassRecord& pass : pass_records) {
    pass_json.push_back(
        JsonObject().Number("seconds", pass.seconds).Bool("traced", pass.traced).Close());
  }
  auto ledger_json = [](const LayerLedger& ledger) {
    JsonObject obj;
    for (const auto& [name, value] : ledger.values()) obj.Number(name, value);
    return obj.Close();
  };
  JsonObject result;
  result.String("workload", workload)
      .Int("seed", static_cast<int64_t>(seed))
      .Int("threads", static_cast<int64_t>(threads))
      .String("input", input)
      .Bool("warmup_valid", warm.valid)
      .String("warmup_note", warm.note)
      .Raw("ops", JsonArray(op_json))
      .Raw("passes", JsonArray(pass_json))
      .Number("untraced_wall_s", untraced_wall)
      .Number("untraced_cpu_s", untraced_cpu)
      .Number("traced_wall_s", traced_wall)
      .Raw("layers", ledger_json(layers))
      .Raw("counts", ledger_json(counts))
      .Number("peak_rss_mb", PeakRssMb())
      .Numbers("calib_ms", {calib_start_ms, calib_end_ms})
      .String("trace_file", trace ? trace_path : "");
  if (!WriteFile(out_path, result.Close())) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
