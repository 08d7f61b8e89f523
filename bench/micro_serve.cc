// Serving-path microbenchmark: closed-loop latency and coalesced
// throughput through MatchService, measured from the subsystem's own
// serve/* histograms so the recorded tails are exactly what the obs layer
// would report in production. Two phases after training:
//
//   closed_loop — one outstanding request at a time (submit, drain,
//                 repeat): per-request latency p50/p95/p99.
//   pipelined   — fill the admission queue, then drain: micro-batch
//                 coalescing throughput, plus how often admission control
//                 pushed back with ResourceExhausted.
//   storm       — (--storm) open loop: multi-tenant bursts arrive faster
//                 than one pump can serve, through a shed-enabled service
//                 with a linear fallback tier and a shadow window scoring
//                 sampled traffic. Reports p50/p95/p99 under overload,
//                 per-tier counts, shed transitions and the shadow
//                 agreement rate; always verifies that degraded responses
//                 are bit-identical to the fallback scorer run directly.
//                 --smoke additionally asserts that at least one shed
//                 transition fired and that requests were degraded (the
//                 CI overload gate).
//
// Results land in the run manifest, bench_results/BENCH_serve.json, for
// regression tracking.
//
// Flags: --dataset (default Ds3), --scale (default 0.5),
//        --matcher (default Magellan-RF), --requests (default 2000),
//        --pairs (default 4, pairs per request),
//        --storm, --smoke, --storm_steps, --storm_burst,
//        --fallback (default SA-ESDE), --shadow_matcher (default SB-ESDE)
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "matchers/context.h"
#include "matchers/registry.h"
#include "obs/metrics.h"
#include "serve/service.h"

using namespace rlbench;

namespace {

// The latency histogram the service records into (same bounds, so this
// call returns the service's own instance, never a second histogram).
obs::Histogram& LatencyHistogram() {
  return obs::Metrics::Instance().GetHistogram(
      "serve/latency_ms", obs::ExponentialBounds(0.01, 2.0, 20));
}

// The next `count` test pairs, round-robin over the split so every
// request is deterministic and in-range.
std::vector<data::LabeledPair> NextPairs(
    const std::vector<data::LabeledPair>& test, size_t* cursor, size_t count) {
  std::vector<data::LabeledPair> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pairs.push_back(test[*cursor % test.size()]);
    ++*cursor;
  }
  return pairs;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string dataset = flags.GetString("dataset", "Ds3");
  double scale = flags.GetDouble("scale", 0.5);
  std::string matcher = flags.GetString("matcher", "Magellan-RF");
  size_t requests = static_cast<size_t>(flags.GetInt("requests", 2000));
  size_t pairs_per_request = static_cast<size_t>(flags.GetInt("pairs", 4));

  const auto* spec = datagen::FindExistingBenchmark(dataset);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown benchmark %s\n", dataset.c_str());
    return 1;
  }

  benchutil::BenchRun run("micro_serve", "BENCH_serve.json");
  run.manifest().AddDataset(dataset);
  run.manifest().AddConfig("scale", scale);
  run.manifest().AddConfig("matcher", matcher);
  run.manifest().AddConfig("requests", static_cast<int64_t>(requests));
  run.manifest().AddConfig("pairs_per_request",
                           static_cast<int64_t>(pairs_per_request));

  // The serve histograms are the measurement instrument here, so the
  // metrics registry must be on regardless of RLBENCH_METRICS.
  obs::Metrics::SetEnabled(true);

  run.manifest().BeginPhase("train");
  auto task = datagen::BuildExistingBenchmark(*spec, scale);
  matchers::MatchingContext context(&task);
  auto trained = matchers::TrainServableMatcher(matcher, context);
  RLBENCH_CHECK_MSG(trained.ok(), "training failed");
  std::shared_ptr<const matchers::TrainedModel> primary(std::move(*trained));
  serve::MatchService service(&context);
  RLBENCH_CHECK(service.SwapModel(primary).ok());
  run.manifest().EndPhase();

  const auto& test = task.test();
  size_t cursor = 0;

  // Phase 1: closed loop — one request in flight, so serve/latency_ms is
  // pure service time (admission + pump + score), no queueing backlog.
  LatencyHistogram().Reset();
  run.manifest().BeginPhase("closed_loop");
  Stopwatch closed_watch;
  for (size_t i = 0; i < requests; ++i) {
    auto id = service.Submit(NextPairs(test, &cursor, pairs_per_request),
                             [](const serve::RequestOutcome& outcome) {
                               RLBENCH_CHECK(outcome.status.ok());
                             });
    RLBENCH_CHECK_MSG(id.ok(), "closed-loop submit rejected");
    service.Drain();
  }
  double closed_seconds = closed_watch.ElapsedSeconds();
  run.manifest().EndPhase();
  double p50 = LatencyHistogram().Percentile(0.50);
  double p95 = LatencyHistogram().Percentile(0.95);
  double p99 = LatencyHistogram().Percentile(0.99);
  double closed_throughput =
      static_cast<double>(requests * pairs_per_request) / closed_seconds;

  // Phase 2: pipelined — keep submitting until admission control pushes
  // back, then drain the whole queue; the service coalesces the queued
  // requests into max_batch_pairs micro-batches.
  size_t served = 0;
  size_t rejected = 0;
  size_t batches = 0;
  uint64_t batches_before =
      obs::Metrics::Instance().GetCounter("serve/batches").Value();
  run.manifest().BeginPhase("pipelined");
  Stopwatch pipelined_watch;
  while (served < requests) {
    auto id = service.Submit(NextPairs(test, &cursor, pairs_per_request),
                             [&served](const serve::RequestOutcome& outcome) {
                               RLBENCH_CHECK(outcome.status.ok());
                               ++served;
                             });
    if (!id.ok()) {
      RLBENCH_CHECK_MSG(id.status().code() == StatusCode::kResourceExhausted,
                        "unexpected rejection");
      ++rejected;
      service.Drain();
    }
  }
  service.Drain();
  double pipelined_seconds = pipelined_watch.ElapsedSeconds();
  run.manifest().EndPhase();
  batches = static_cast<size_t>(
      obs::Metrics::Instance().GetCounter("serve/batches").Value() -
      batches_before);
  double pipelined_throughput =
      static_cast<double>(served * pairs_per_request) / pipelined_seconds;
  double mean_batch_pairs =
      batches > 0 ? static_cast<double>(served * pairs_per_request) /
                        static_cast<double>(batches)
                  : 0.0;

  // Phase 3 (--storm): open-loop overload. Each step injects a multi-tenant
  // burst larger than the one micro-batch a step pumps, so the queue fills
  // deterministically and walks the shed ladder: full -> degraded (linear
  // fallback) -> reject. A shadow window scores sampled full-tier traffic
  // against a candidate the whole time.
  const bool storm = flags.GetBool("storm", false);
  const bool smoke = flags.GetBool("smoke", false);
  double storm_p50 = 0.0, storm_p95 = 0.0, storm_p99 = 0.0;
  double storm_throughput = 0.0, shadow_agreement = 1.0;
  uint64_t storm_full = 0, storm_degraded = 0, storm_rejected = 0;
  uint64_t storm_transitions = 0;
  size_t identity_checked = 0;
  if (storm) {
    std::string fallback_name = flags.GetString("fallback", "SA-ESDE");
    std::string shadow_name = flags.GetString("shadow_matcher", "SB-ESDE");
    size_t storm_steps = static_cast<size_t>(
        flags.GetInt("storm_steps", smoke ? 24 : 60));
    size_t storm_burst =
        static_cast<size_t>(flags.GetInt("storm_burst", 80));
    run.manifest().AddConfig("storm_steps",
                             static_cast<int64_t>(storm_steps));
    run.manifest().AddConfig("storm_burst",
                             static_cast<int64_t>(storm_burst));
    run.manifest().AddConfig("fallback", fallback_name);
    run.manifest().AddConfig("shadow_matcher", shadow_name);

    run.manifest().BeginPhase("storm_setup");
    serve::MatchServiceOptions storm_options;
    storm_options.shed_enabled = true;
    storm_options.shed.dwell = 1;
    serve::MatchService storm_service(&context, storm_options);
    auto fallback = matchers::TrainServableMatcher(fallback_name, context);
    RLBENCH_CHECK_MSG(fallback.ok(), "fallback training failed");
    auto candidate = matchers::TrainServableMatcher(shadow_name, context);
    RLBENCH_CHECK_MSG(candidate.ok(), "shadow candidate training failed");
    RLBENCH_CHECK(storm_service.SwapModel(primary).ok());
    RLBENCH_CHECK(storm_service
                      .SetFallbackModel(
                          std::shared_ptr<const matchers::TrainedModel>(
                              std::move(*fallback)))
                      .ok());
    serve::SnapshotMetadata shadow_meta;
    shadow_meta.matcher_name = shadow_name;
    shadow_meta.dataset_id = task.name();
    shadow_meta.num_attrs = task.left().schema().num_attributes();
    serve::ShadowOptions shadow_options;
    shadow_options.sample_fraction = 0.3;
    shadow_options.min_samples = 32;
    // Measurement window, not a promotion attempt: an unreachable target
    // and a zero agreement floor keep the window open for the whole storm
    // so the reported agreement covers every sampled batch.
    shadow_options.target_samples = 1u << 30;
    shadow_options.min_agreement = 0.0;
    shadow_options.max_latency_ratio = 0.0;
    RLBENCH_CHECK(storm_service
                      .StartShadow(
                          std::shared_ptr<const matchers::TrainedModel>(
                              std::move(*candidate)),
                          shadow_meta, shadow_options)
                      .ok());
    run.manifest().EndPhase();

    const char* tenants[3] = {"alpha", "beta", "gamma"};
    std::vector<std::pair<std::vector<data::LabeledPair>,
                          std::vector<double>>>
        degraded_samples;
    size_t storm_answered = 0;
    LatencyHistogram().Reset();
    run.manifest().BeginPhase("storm");
    Stopwatch storm_watch;
    for (size_t step = 0; step < storm_steps; ++step) {
      for (size_t b = 0; b < storm_burst; ++b) {
        std::vector<data::LabeledPair> request_pairs =
            NextPairs(test, &cursor, pairs_per_request);
        serve::SubmitOptions submit;
        submit.tenant = tenants[(step + b) % 3];
        std::vector<data::LabeledPair> pairs_copy = request_pairs;
        auto id = storm_service.SubmitRequest(
            std::move(request_pairs), submit,
            [&storm_answered, &storm_full, &storm_degraded,
             &degraded_samples,
             pairs_copy](const serve::RequestOutcome& outcome) {
              ++storm_answered;
              if (!outcome.status.ok()) return;
              if (outcome.tier == serve::ShedTier::kDegraded) {
                ++storm_degraded;
                if (degraded_samples.size() < 64) {
                  std::vector<double> scores;
                  scores.reserve(outcome.results.size());
                  for (const serve::PairScore& r : outcome.results) {
                    scores.push_back(r.score);
                  }
                  degraded_samples.emplace_back(pairs_copy,
                                                std::move(scores));
                }
              } else {
                ++storm_full;
              }
            });
        if (!id.ok()) {
          RLBENCH_CHECK_MSG(
              id.status().code() == StatusCode::kResourceExhausted,
              "unexpected storm rejection");
          ++storm_rejected;
        }
      }
      // One pump per step: the open loop outruns the service on purpose.
      storm_service.PumpOne();
    }
    storm_service.Drain();
    double storm_seconds = storm_watch.ElapsedSeconds();
    run.manifest().EndPhase();

    storm_p50 = LatencyHistogram().Percentile(0.50);
    storm_p95 = LatencyHistogram().Percentile(0.95);
    storm_p99 = LatencyHistogram().Percentile(0.99);
    storm_throughput =
        static_cast<double>(storm_answered * pairs_per_request) /
        storm_seconds;
    storm_transitions = storm_service.ShedTransitions();
    if (const serve::ShadowEvaluator* shadow = storm_service.Shadow();
        shadow != nullptr) {
      shadow_agreement = shadow->stats().Agreement();
    }

    // Degraded responses must be bit-identical to the fallback scorer run
    // directly on the same pairs — shedding picks the model, never changes
    // what a model computes.
    std::shared_ptr<const matchers::TrainedModel> fallback_model =
        storm_service.FallbackModel();
    for (const auto& [sample_pairs, served_scores] : degraded_samples) {
      std::vector<double> direct_scores(sample_pairs.size());
      std::vector<uint8_t> direct_decisions(sample_pairs.size());
      RLBENCH_CHECK(fallback_model
                        ->ScoreBatch(context, sample_pairs, direct_scores,
                                     direct_decisions)
                        .ok());
      for (size_t i = 0; i < sample_pairs.size(); ++i) {
        RLBENCH_CHECK_MSG(served_scores[i] == direct_scores[i],
                          "degraded tier diverged from the linear scorer");
        ++identity_checked;
      }
    }

    if (smoke) {
      RLBENCH_CHECK_MSG(storm_transitions >= 1,
                        "storm smoke: no shed transition fired");
      RLBENCH_CHECK_MSG(storm_degraded > 0,
                        "storm smoke: nothing was served degraded");
      RLBENCH_CHECK_MSG(identity_checked > 0,
                        "storm smoke: no degraded response verified");
    }
  }

  std::printf("%s on %s (scale %.2f)\n", matcher.c_str(), dataset.c_str(),
              scale);
  std::printf("closed loop: %.0f pairs/s, latency p50 %.4f ms, p95 %.4f ms, "
              "p99 %.4f ms\n",
              closed_throughput, p50, p95, p99);
  std::printf("pipelined:   %.0f pairs/s over %zu batches "
              "(%.1f pairs/batch), %zu admission rejections\n",
              pipelined_throughput, batches, mean_batch_pairs, rejected);
  if (storm) {
    std::printf("storm:       %.0f pairs/s, latency p50 %.4f ms, p95 %.4f "
                "ms, p99 %.4f ms\n",
                storm_throughput, storm_p50, storm_p95, storm_p99);
    std::printf("             tiers full=%llu degraded=%llu rejected=%llu, "
                "%llu shed transitions, shadow agreement %.4f, "
                "%zu degraded scores bit-verified\n",
                static_cast<unsigned long long>(storm_full),
                static_cast<unsigned long long>(storm_degraded),
                static_cast<unsigned long long>(storm_rejected),
                static_cast<unsigned long long>(storm_transitions),
                shadow_agreement, identity_checked);
  }

  using obs::JsonValue;
  auto result = [&run](const char* key, double value) {
    run.manifest().AddResult(key, JsonValue::Number(value));
  };
  result("closed_loop_pairs_per_sec", closed_throughput);
  result("latency_p50_ms", p50);
  result("latency_p95_ms", p95);
  result("latency_p99_ms", p99);
  result("pipelined_pairs_per_sec", pipelined_throughput);
  result("pipelined_batches", static_cast<double>(batches));
  result("mean_batch_pairs", mean_batch_pairs);
  result("admission_rejections", static_cast<double>(rejected));
  if (storm) {
    result("storm_pairs_per_sec", storm_throughput);
    result("storm_latency_p50_ms", storm_p50);
    result("storm_latency_p95_ms", storm_p95);
    result("storm_latency_p99_ms", storm_p99);
    result("storm_tier_full", static_cast<double>(storm_full));
    result("storm_tier_degraded", static_cast<double>(storm_degraded));
    result("storm_tier_rejected", static_cast<double>(storm_rejected));
    result("storm_shed_transitions", static_cast<double>(storm_transitions));
    result("storm_shadow_agreement", shadow_agreement);
    result("storm_identity_checked", static_cast<double>(identity_checked));
  }
  return run.Finish() ? 0 : 1;
}
