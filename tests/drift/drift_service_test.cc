// Drift monitoring wired into MatchService: disabled by default with no
// tracker at all, observation-only when enabled (served scores are
// untouched), window state independent of request batch splits and thread
// counts, and sampling restricted to full-tier scored batches.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "drift/tracker.h"
#include "matchers/context.h"
#include "matchers/registry.h"
#include "serve/service.h"

namespace rlbench::serve {
namespace {

class DriftServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    task_ = new data::MatchingTask(datagen::BuildExistingBenchmark(
        *datagen::FindExistingBenchmark("Ds7"), 0.5));
  }
  static void TearDownTestSuite() {
    delete task_;
    task_ = nullptr;
  }

  static std::shared_ptr<const matchers::TrainedModel> Train(
      const matchers::MatchingContext& context, const std::string& name) {
    auto trained = matchers::TrainServableMatcher(name, context);
    EXPECT_TRUE(trained.ok()) << trained.status();
    return std::shared_ptr<const matchers::TrainedModel>(std::move(*trained));
  }

  static MatchServiceOptions DriftOptions(size_t window_pairs) {
    MatchServiceOptions options;
    options.drift_enabled = true;
    options.drift.reservoir.window_pairs = window_pairs;
    options.drift.monitor.use_truth_labels = true;
    return options;
  }

  /// Serve the whole test split in `chunk`-pair requests, collecting the
  /// served scores.
  static std::vector<double> ServeAll(MatchService* service, size_t chunk) {
    std::vector<double> scores;
    const auto& test = task_->test();
    for (size_t begin = 0; begin < test.size(); begin += chunk) {
      std::vector<data::LabeledPair> request(
          test.begin() + begin,
          test.begin() + std::min(test.size(), begin + chunk));
      EXPECT_TRUE(service
                      ->Submit(std::move(request),
                               [&scores](const RequestOutcome& outcome) {
                                 EXPECT_TRUE(outcome.status.ok());
                                 for (const PairScore& r : outcome.results) {
                                   scores.push_back(r.score);
                                 }
                               })
                      .ok());
      service->Drain();
    }
    return scores;
  }

  static data::MatchingTask* task_;
};

data::MatchingTask* DriftServiceTest::task_ = nullptr;

TEST_F(DriftServiceTest, DisabledByDefaultHoldsNoTracker) {
  matchers::MatchingContext context(task_);
  MatchService service(&context);
  EXPECT_EQ(service.Drift(), nullptr);
  DriftStatus status = service.DriftSnapshot();
  EXPECT_FALSE(status.enabled);
  EXPECT_EQ(status.windows, 0u);
  DriftStatus trigger;
  EXPECT_FALSE(service.TakeDriftTrigger(&trigger));
  service.RearmDrift();  // no-op without a tracker, must not crash
}

TEST_F(DriftServiceTest, SamplingIsObservationOnly) {
  auto serve_scores = [&](bool drift_on) {
    matchers::MatchingContext context(task_);
    MatchService service(&context, drift_on ? DriftOptions(64)
                                            : MatchServiceOptions{});
    EXPECT_TRUE(service.SwapModel(Train(context, "SAQ-ESDE")).ok());
    return ServeAll(&service, 13);
  };
  auto off = serve_scores(false);
  auto on = serve_scores(true);
  ASSERT_EQ(off.size(), task_->test().size());
  EXPECT_EQ(off, on);  // bit-identical: the monitor never touches scores
}

TEST_F(DriftServiceTest, WindowStateIsIndependentOfBatchSplits) {
  auto snapshot_at = [&](size_t chunk) {
    matchers::MatchingContext context(task_);
    MatchService service(&context, DriftOptions(32));
    EXPECT_TRUE(service.SwapModel(Train(context, "Magellan-LR")).ok());
    ServeAll(&service, chunk);
    return service.DriftSnapshot();
  };
  DriftStatus three = snapshot_at(3);
  DriftStatus eleven = snapshot_at(11);
  ASSERT_TRUE(three.enabled);
  EXPECT_GT(three.windows, 1u);
  EXPECT_EQ(three.windows, eleven.windows);
  EXPECT_EQ(three.sampled_pairs, eleven.sampled_pairs);
  EXPECT_EQ(three.state, eleven.state);
  EXPECT_EQ(three.transitions, eleven.transitions);
  ASSERT_TRUE(three.has_measures);
  EXPECT_EQ(three.best_linear_f1, eleven.best_linear_f1);
  EXPECT_EQ(three.complexity_avg, eleven.complexity_avg);
  EXPECT_EQ(three.nlb, eleven.nlb);
  EXPECT_EQ(three.lbm, eleven.lbm);
}

TEST_F(DriftServiceTest, WindowStateIsBitIdenticalAcrossThreadCounts) {
  auto snapshot_at = [&](size_t threads) {
    SetParallelThreads(threads);
    matchers::MatchingContext context(task_);
    MatchService service(&context, DriftOptions(32));
    EXPECT_TRUE(service.SwapModel(Train(context, "SAQ-ESDE")).ok());
    ServeAll(&service, 7);
    return service.DriftSnapshot();
  };
  DriftStatus one = snapshot_at(1);
  DriftStatus two = snapshot_at(2);
  DriftStatus seven = snapshot_at(7);
  SetParallelThreads(0);
  ASSERT_GT(one.windows, 0u);
  EXPECT_EQ(one.windows, two.windows);
  EXPECT_EQ(one.windows, seven.windows);
  EXPECT_EQ(one.best_linear_f1, two.best_linear_f1);
  EXPECT_EQ(one.best_linear_f1, seven.best_linear_f1);
  EXPECT_EQ(one.complexity_avg, two.complexity_avg);
  EXPECT_EQ(one.complexity_avg, seven.complexity_avg);
  EXPECT_EQ(one.nlb, seven.nlb);
  EXPECT_EQ(one.lbm, seven.lbm);
  EXPECT_EQ(one.state, seven.state);
}

// Degraded-tier traffic is scored by the fallback model, not the model
// the drift loop monitors, so it must never enter the reservoir.
TEST_F(DriftServiceTest, OnlyFullTierBatchesAreSampled) {
  matchers::MatchingContext context(task_);
  MatchServiceOptions options = DriftOptions(32);
  options.queue_capacity_pairs = 64;
  options.max_batch_pairs = 64;
  options.shed_enabled = true;
  options.shed.degrade_enter_fill = 0.20;
  options.shed.degrade_exit_fill = 0.10;
  options.shed.dwell = 1;
  MatchService service(&context, options);
  ASSERT_TRUE(service.SwapModel(Train(context, "Magellan-LR")).ok());
  ASSERT_TRUE(service.SetFallbackModel(Train(context, "SAQ-ESDE")).ok());

  uint64_t full_tier_pairs = 0;
  const auto& test = task_->test();
  for (size_t begin = 0; begin + 8 <= test.size(); begin += 8) {
    std::vector<data::LabeledPair> request(test.begin() + begin,
                                           test.begin() + begin + 8);
    ASSERT_TRUE(service
                    .Submit(std::move(request),
                            [&full_tier_pairs](const RequestOutcome& o) {
                              ASSERT_TRUE(o.status.ok());
                              if (o.tier == ShedTier::kFull) {
                                full_tier_pairs += o.results.size();
                              }
                            })
                    .ok());
    // Pump every third request: the queue periodically fills past the
    // degrade threshold, so both tiers genuinely occur.
    if (begin % 24 == 16) service.Drain();
  }
  service.Drain();
  ASSERT_NE(service.Drift(), nullptr);
  EXPECT_LT(full_tier_pairs, test.size());  // some batches degraded
  EXPECT_GT(full_tier_pairs, 0u);           // and some did not
  EXPECT_EQ(service.Drift()->reservoir().offered(), full_tier_pairs);
}

}  // namespace
}  // namespace rlbench::serve
