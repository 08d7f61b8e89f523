// Difficulty-drift loop benchmark: replay a serve stream whose workload
// difficulty shifts mid-run and measure the whole reaction — detection
// latency, sampling overhead, and swap-to-recovery time.
//
// The stream has two eras built from one dataset's test split. A global
// cosine-similarity cut splits the pairs: era A holds the matches above
// the cut and the non-matches below it (linearly separable by
// construction, the regime learning-based benchmarks reward), era B holds
// the complementary corners (no single threshold works, the paper's hard
// regime). Replaying A then B through a drift-enabled MatchService walks
// the monitor through stable -> watch -> triggered; the bench then runs
// the full reaction: retrain the zero-shot EnsembleLink, verify its
// snapshot round-trips bit-exactly, shadow-gate the candidate, and serve
// until the ladder hot-swaps it in.
//
// Phases / measurements (the results block of the run manifest,
// bench_results/BENCH_drift.json):
//   baseline    — the same stream with drift disabled: scores + seconds.
//   monitor     — drift enabled, no reaction: bit-identity of served
//                 scores vs baseline, windows-to-trigger detection
//                 latency, sampling overhead ratio.
//   reaction    — drift enabled with the trigger consumed: retrain ->
//                 shadow -> promote; swap-to-recovery in requests, and the
//                 post-swap scores checked bit-identical to the candidate
//                 scored directly.
//   fault storm — (--smoke) the next episode's shadow window runs under
//                 an armed serve/shadow/score fault: the ladder must roll
//                 the candidate back, never publish it.
//
// Flags: --dataset (default Ds3), --scale (default 0.5),
//        --matcher (default Magellan-LR), --retrain (default EnsembleLink),
//        --window (default 48), --era_windows (default 4),
//        --pairs (default 4, pairs per request), --smoke
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/blob.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "data/columnar.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "fault/failpoint.h"
#include "matchers/context.h"
#include "matchers/registry.h"
#include "matchers/trained_model.h"
#include "serve/service.h"
#include "text/kernels.h"

using namespace rlbench;

namespace {

/// Interleave the era's matches and non-matches evenly (Bresenham error
/// accumulator) so every reservoir window sees both classes.
std::vector<data::LabeledPair> Interleave(
    const std::vector<data::LabeledPair>& matches,
    const std::vector<data::LabeledPair>& non_matches) {
  std::vector<data::LabeledPair> era;
  era.reserve(matches.size() + non_matches.size());
  size_t m = 0;
  size_t n = 0;
  long long error = 0;
  const long long rise = static_cast<long long>(matches.size());
  const long long run = static_cast<long long>(non_matches.size());
  while (m < matches.size() || n < non_matches.size()) {
    if (n >= non_matches.size() || (m < matches.size() && error >= run)) {
      era.push_back(matches[m++]);
      error -= run;
    } else {
      era.push_back(non_matches[n++]);
      error += rise;
    }
  }
  return era;
}

/// Serve `pair_count` pairs from `era` (round-robin) in `chunk`-pair
/// requests; scores append to `out` in request order when it is non-null.
void ServePairs(serve::MatchService* service,
                const std::vector<data::LabeledPair>& era, size_t* cursor,
                size_t pair_count, size_t chunk, std::vector<double>* out) {
  for (size_t served = 0; served < pair_count; served += chunk) {
    std::vector<data::LabeledPair> request;
    request.reserve(chunk);
    for (size_t i = 0; i < chunk; ++i) {
      request.push_back(era[*cursor % era.size()]);
      ++*cursor;
    }
    auto id = service->Submit(std::move(request),
                              [out](const serve::RequestOutcome& outcome) {
                                RLBENCH_CHECK(outcome.status.ok());
                                if (out == nullptr) return;
                                for (const serve::PairScore& r :
                                     outcome.results) {
                                  out->push_back(r.score);
                                }
                              });
    RLBENCH_CHECK_MSG(id.ok(), "drift bench submit rejected");
    service->Drain();
  }
}

std::shared_ptr<const matchers::TrainedModel> TrainShared(
    const matchers::MatchingContext& context, const std::string& name) {
  auto trained = matchers::TrainServableMatcher(name, context);
  RLBENCH_CHECK_MSG(trained.ok(), "training failed");
  return std::shared_ptr<const matchers::TrainedModel>(std::move(*trained));
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string dataset = flags.GetString("dataset", "Ds3");
  double scale = flags.GetDouble("scale", 0.5);
  std::string matcher = flags.GetString("matcher", "Magellan-LR");
  std::string retrain = flags.GetString("retrain", "EnsembleLink");
  size_t window = static_cast<size_t>(flags.GetInt("window", 48));
  size_t era_windows = static_cast<size_t>(flags.GetInt("era_windows", 4));
  size_t chunk = static_cast<size_t>(flags.GetInt("pairs", 4));
  const bool smoke = flags.GetBool("smoke", false);

  const auto* spec = datagen::FindExistingBenchmark(dataset);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown benchmark %s\n", dataset.c_str());
    return 1;
  }

  benchutil::BenchRun run("micro_drift", "BENCH_drift.json");
  run.manifest().AddDataset(dataset);
  run.manifest().AddConfig("scale", scale);
  run.manifest().AddConfig("matcher", matcher);
  run.manifest().AddConfig("retrain", retrain);
  run.manifest().AddConfig("drift_window_pairs",
                           static_cast<int64_t>(window));
  run.manifest().AddConfig("era_windows", static_cast<int64_t>(era_windows));

  run.manifest().BeginPhase("setup");
  auto task = datagen::BuildExistingBenchmark(*spec, scale);
  matchers::MatchingContext context(&task);
  std::shared_ptr<const matchers::TrainedModel> primary =
      TrainShared(context, matcher);

  // Era construction: one global cosine cut at the median, then the
  // separable corners (era A) vs the inverted corners (era B).
  const data::ColumnarStore& store = context.columnar();
  std::vector<double> cosines(task.test().size());
  for (size_t i = 0; i < task.test().size(); ++i) {
    const data::LabeledPair& pair = task.test()[i];
    cosines[i] = text::kernels::SetFamilySortedU32(
                     store.TokenIdsAll(data::ColumnarStore::kLeft, pair.left),
                     store.TokenIdsAll(data::ColumnarStore::kRight,
                                       pair.right))
                     .cosine;
  }
  std::vector<double> sorted = cosines;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double cut = sorted[sorted.size() / 2];
  std::vector<data::LabeledPair> easy_matches, easy_non, hard_matches,
      hard_non;
  for (size_t i = 0; i < task.test().size(); ++i) {
    const data::LabeledPair& pair = task.test()[i];
    if (pair.is_match) {
      (cosines[i] > cut ? easy_matches : hard_matches).push_back(pair);
    } else {
      (cosines[i] > cut ? hard_non : easy_non).push_back(pair);
    }
  }
  RLBENCH_CHECK_MSG(!easy_matches.empty() && !easy_non.empty(),
                    "era A is degenerate at this scale");
  RLBENCH_CHECK_MSG(!hard_matches.empty() && !hard_non.empty(),
                    "era B is degenerate at this scale");
  std::vector<data::LabeledPair> era_a = Interleave(easy_matches, easy_non);
  std::vector<data::LabeledPair> era_b = Interleave(hard_matches, hard_non);
  run.manifest().EndPhase();

  const size_t era_pairs = era_windows * window;
  serve::MatchServiceOptions drift_options;
  drift_options.drift_enabled = true;
  drift_options.drift.reservoir.window_pairs = window;
  drift_options.drift.monitor.use_truth_labels = true;

  // Phase 1: the stream with drift disabled — the timing and score
  // baseline everything else is compared against.
  std::vector<double> baseline_scores;
  run.manifest().BeginPhase("baseline");
  Stopwatch baseline_watch;
  {
    serve::MatchService service(&context);
    RLBENCH_CHECK(service.SwapModel(primary).ok());
    size_t cursor_a = 0;
    size_t cursor_b = 0;
    ServePairs(&service, era_a, &cursor_a, era_pairs, chunk,
               &baseline_scores);
    ServePairs(&service, era_b, &cursor_b, era_pairs, chunk,
               &baseline_scores);
  }
  double baseline_seconds = baseline_watch.ElapsedSeconds();
  run.manifest().EndPhase();

  // Phase 2: the same stream with the monitor on but no reaction —
  // detection latency and pure sampling overhead.
  std::vector<double> monitored_scores;
  serve::DriftStatus trigger;
  bool triggered = false;
  run.manifest().BeginPhase("monitor");
  Stopwatch monitor_watch;
  {
    serve::MatchService service(&context, drift_options);
    RLBENCH_CHECK(service.SwapModel(primary).ok());
    size_t cursor_a = 0;
    size_t cursor_b = 0;
    ServePairs(&service, era_a, &cursor_a, era_pairs, chunk,
               &monitored_scores);
    RLBENCH_CHECK_MSG(service.DriftSnapshot().state == "stable",
                      "drift: era A should look stable");
    for (size_t served = 0; served < era_pairs; served += chunk) {
      ServePairs(&service, era_b, &cursor_b, chunk, chunk,
                 &monitored_scores);
      if (!triggered && service.TakeDriftTrigger(&trigger)) {
        triggered = true;
      }
    }
  }
  double monitor_seconds = monitor_watch.ElapsedSeconds();
  run.manifest().EndPhase();
  RLBENCH_CHECK_MSG(triggered, "drift: era B never triggered");
  RLBENCH_CHECK_MSG(monitored_scores == baseline_scores,
                    "drift monitoring changed served scores");
  const uint64_t windows_to_trigger = trigger.windows - era_windows;
  const double overhead_ratio =
      baseline_seconds > 0.0 ? monitor_seconds / baseline_seconds : 1.0;

  // Phase 3: the reaction. A fresh service replays the shift; this time
  // the trigger is consumed: retrain -> snapshot round-trip check ->
  // shadow window -> serve until the ladder promotes.
  size_t recovery_pairs = 0;
  run.manifest().BeginPhase("reaction");
  serve::MatchService service(&context, drift_options);
  RLBENCH_CHECK(service.SwapModel(primary).ok());
  size_t cursor_a = 0;
  size_t cursor_b = 0;
  ServePairs(&service, era_a, &cursor_a, era_pairs, chunk, nullptr);
  serve::DriftStatus reaction_trigger;
  bool reacting = false;
  while (!reacting) {
    ServePairs(&service, era_b, &cursor_b, chunk, chunk, nullptr);
    reacting = service.TakeDriftTrigger(&reaction_trigger);
  }
  auto candidate = service.RetrainMatcher(retrain);
  RLBENCH_CHECK_MSG(candidate.ok(), "drift retrain failed");

  // Snapshot round-trip: the retrained candidate's snapshot must decode
  // to a model that re-serializes to the same bytes and scores the same
  // bits (for EnsembleLink the model is pure configuration, so this is
  // exact by construction).
  {
    BlobWriter writer;
    matchers::SerializeTrainedModel(**candidate, &writer);
    std::string bytes = writer.Release();
    BlobReader reader(bytes);
    auto restored = matchers::DeserializeTrainedModel(&reader);
    RLBENCH_CHECK_MSG(restored.ok(), "candidate snapshot did not decode");
    BlobWriter again;
    matchers::SerializeTrainedModel(**restored, &again);
    RLBENCH_CHECK_MSG(again.data() == bytes,
                      "candidate snapshot round trip drifted");
    const size_t probe = std::min<size_t>(era_b.size(), 64);
    std::span<const data::LabeledPair> pairs(era_b.data(), probe);
    std::vector<double> direct(probe), redecoded(probe);
    std::vector<uint8_t> decisions(probe);
    (*restored)->PrepareContext(context);
    RLBENCH_CHECK(
        (*candidate)->ScoreBatch(context, pairs, direct, decisions).ok());
    RLBENCH_CHECK(
        (*restored)->ScoreBatch(context, pairs, redecoded, decisions).ok());
    RLBENCH_CHECK_MSG(direct == redecoded,
                      "restored candidate scores diverged");
  }

  serve::SnapshotMetadata metadata;
  metadata.matcher_name = (*candidate)->matcher_name();
  metadata.dataset_id = task.name();
  metadata.num_attrs = task.left().schema().num_attributes();
  serve::ShadowOptions gate;
  gate.sample_fraction = 1.0;
  gate.min_samples = window / 2;
  gate.target_samples = window;
  gate.min_agreement = 0.0;     // the incumbent is the model that drifted
  gate.max_latency_ratio = 0.0;  // zero-shot candidates may score slower
  RLBENCH_CHECK(service.StartShadow(*candidate, metadata, gate).ok());
  serve::ShadowEvent outcome;
  while (outcome.kind == serve::ShadowEvent::Kind::kNone) {
    ServePairs(&service, era_b, &cursor_b, chunk, chunk, nullptr);
    recovery_pairs += chunk;
    outcome = service.ConsumeShadowEvent();
  }
  service.RearmDrift();
  run.manifest().EndPhase();
  RLBENCH_CHECK_MSG(outcome.kind == serve::ShadowEvent::Kind::kPromoted,
                    "drift candidate was not promoted");

  // Post-swap identity: served scores now come from the candidate's exact
  // bits.
  {
    // A whole number of requests, so the served stream is exactly `pairs`.
    const size_t probe =
        std::min<size_t>(era_b.size(), 64) / chunk * chunk;
    std::span<const data::LabeledPair> pairs(era_b.data(), probe);
    std::vector<double> direct(probe);
    std::vector<uint8_t> decisions(probe);
    RLBENCH_CHECK(
        (*candidate)->ScoreBatch(context, pairs, direct, decisions).ok());
    std::vector<double> served;
    size_t probe_cursor = 0;
    ServePairs(&service, era_b, &probe_cursor, probe, chunk, &served);
    RLBENCH_CHECK_MSG(served == direct,
                      "post-swap serve diverged from the promoted model");
  }

  // Phase 4 (--smoke): the fault storm gate. The next episode's shadow
  // window runs with candidate scoring faults armed; the ladder must
  // refuse to publish (rollback), leaving the promoted model serving.
  bool storm_rolled_back = false;
  if (smoke) {
    run.manifest().BeginPhase("fault_storm");
    serve::DriftStatus storm_trigger;
    bool storm_triggered = false;
    while (!storm_triggered) {
      ServePairs(&service, era_b, &cursor_b, chunk, chunk, nullptr);
      storm_triggered = service.TakeDriftTrigger(&storm_trigger);
    }
    auto storm_candidate = service.RetrainMatcher(retrain);
    RLBENCH_CHECK_MSG(storm_candidate.ok(), "storm retrain failed");
    RLBENCH_CHECK(
        fault::SetSpec("seed=5;serve/shadow/score=any:1").ok());
    RLBENCH_CHECK(
        service.StartShadow(*storm_candidate, metadata, gate).ok());
    serve::ShadowEvent storm_outcome;
    while (storm_outcome.kind == serve::ShadowEvent::Kind::kNone) {
      ServePairs(&service, era_b, &cursor_b, chunk, chunk, nullptr);
      storm_outcome = service.ConsumeShadowEvent();
    }
    fault::Clear();
    service.RearmDrift();
    storm_rolled_back =
        storm_outcome.kind == serve::ShadowEvent::Kind::kRolledBack;
    RLBENCH_CHECK_MSG(storm_rolled_back,
                      "faulted shadow window must roll back");
    // The incumbent (the previously promoted candidate) still serves.
    const size_t probe =
        std::min<size_t>(era_b.size(), 32) / chunk * chunk;
    std::span<const data::LabeledPair> pairs(era_b.data(), probe);
    std::vector<double> direct(probe);
    std::vector<uint8_t> decisions(probe);
    RLBENCH_CHECK(
        (*candidate)->ScoreBatch(context, pairs, direct, decisions).ok());
    std::vector<double> served;
    size_t probe_cursor = 0;
    ServePairs(&service, era_b, &probe_cursor, probe, chunk, &served);
    RLBENCH_CHECK_MSG(served == direct,
                      "rollback did not preserve the incumbent's bits");
    run.manifest().EndPhase();
  }

  serve::DriftStatus final_status = service.DriftSnapshot();
  using obs::JsonValue;
  auto result = [&run](const char* key, double value) {
    run.manifest().AddResult(key, JsonValue::Number(value));
  };
  run.manifest().AddResult("drift_state",
                           JsonValue::String(final_status.state));
  result("drift_windows", static_cast<double>(final_status.windows));
  result("drift_transitions", static_cast<double>(final_status.transitions));
  result("drift_triggers", static_cast<double>(final_status.triggers));
  result("drift_windows_to_trigger", static_cast<double>(windows_to_trigger));
  result("drift_best_linear_f1", trigger.best_linear_f1);
  result("drift_complexity_avg", trigger.complexity_avg);
  result("drift_nlb", trigger.nlb);
  result("drift_lbm", trigger.lbm);
  result("drift_sampling_overhead_ratio", overhead_ratio);
  result("drift_swap_recovery_requests",
         static_cast<double>(recovery_pairs / chunk));
  result("baseline_seconds", baseline_seconds);
  result("monitor_seconds", monitor_seconds);
  run.manifest().AddResult("fault_storm_rolled_back",
                           JsonValue::Bool(storm_rolled_back));

  std::printf("%s on %s (scale %.2f), window %zu pairs\n", matcher.c_str(),
              dataset.c_str(), scale, window);
  std::printf("detect:   triggered %llu windows into era B "
              "(best linear F1 %.4f, complexity %.4f at trigger)\n",
              static_cast<unsigned long long>(windows_to_trigger),
              trigger.best_linear_f1, trigger.complexity_avg);
  std::printf("overhead: %.3fx vs drift off (%.3fs vs %.3fs)\n",
              overhead_ratio, monitor_seconds, baseline_seconds);
  std::printf("recover:  %s promoted after %zu requests%s\n",
              retrain.c_str(), recovery_pairs / chunk,
              smoke ? ", faulted episode rolled back" : "");

  return run.Finish() ? 0 : 1;
}
