// Tiered load-shedding: the hysteresis controller's transition rules
// (enter/exit bands, dwell, reject releasing into degraded), and — through
// a shed-enabled MatchService — the core robustness contract: degraded
// responses are bit-identical to running the linear fallback scorer
// directly, at any thread count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "matchers/context.h"
#include "matchers/registry.h"
#include "serve/service.h"
#include "serve/shed.h"

namespace rlbench::serve {
namespace {

TEST(ShedControllerTest, WalksTheTierLadderWithDwell) {
  ShedOptions options;
  options.dwell = 2;
  ShedController shed(options);
  EXPECT_EQ(shed.tier(), ShedTier::kFull);

  // One hot observation is not enough: dwell demands two in a row.
  EXPECT_EQ(shed.Observe(0.7, 0.0), ShedTier::kFull);
  EXPECT_EQ(shed.Observe(0.7, 0.0), ShedTier::kDegraded);
  EXPECT_EQ(shed.transitions(), 1u);

  // Past the reject-enter fill, the ladder climbs again.
  shed.Observe(0.95, 0.0);
  EXPECT_EQ(shed.Observe(0.95, 0.0), ShedTier::kReject);
  EXPECT_EQ(shed.transitions(), 2u);

  // Release: reject de-escalates into degraded — never straight to full —
  // and only below the exit threshold, for dwell observations.
  shed.Observe(0.0, 0.0);
  EXPECT_EQ(shed.Observe(0.0, 0.0), ShedTier::kDegraded);
  shed.Observe(0.0, 0.0);
  EXPECT_EQ(shed.Observe(0.0, 0.0), ShedTier::kFull);
  EXPECT_EQ(shed.transitions(), 4u);
}

TEST(ShedControllerTest, HysteresisBandHoldsTheTierBetweenThresholds) {
  ShedOptions options;
  options.dwell = 1;
  ShedController shed(options);
  // Climb into degraded, then hover inside the band (exit 0.30 < fill <
  // enter 0.60): the tier must hold, not flap.
  shed.Observe(0.7, 0.0);
  ASSERT_EQ(shed.tier(), ShedTier::kDegraded);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(shed.Observe(0.45, 0.0), ShedTier::kDegraded);
  }
  EXPECT_EQ(shed.transitions(), 1u);
}

TEST(ShedControllerTest, DwellSuppressesAlternatingFlap) {
  ShedOptions options;
  options.dwell = 2;
  ShedController shed(options);
  // Load alternating across the degrade boundary never dwells long enough
  // to move the tier.
  for (int i = 0; i < 10; ++i) {
    shed.Observe(i % 2 == 0 ? 0.7 : 0.0, 0.0);
    EXPECT_EQ(shed.tier(), ShedTier::kFull);
  }
  EXPECT_EQ(shed.transitions(), 0u);
}

TEST(ShedControllerTest, LatencySignalShedsIndependentlyOfQueueFill) {
  ShedOptions options;
  options.dwell = 1;
  options.p99_enter_ms = 10.0;
  options.p99_exit_ms = 5.0;
  ShedController shed(options);
  // Queue empty, but the rolling p99 is past the enter threshold.
  EXPECT_EQ(shed.Observe(0.0, 20.0), ShedTier::kDegraded);
  // Inside the latency band the tier holds; below the exit it releases.
  EXPECT_EQ(shed.Observe(0.0, 7.0), ShedTier::kDegraded);
  EXPECT_EQ(shed.Observe(0.0, 2.0), ShedTier::kFull);
}

TEST(ShedControllerTest, TierNamesAreStable) {
  EXPECT_STREQ(ShedTierName(ShedTier::kFull), "full");
  EXPECT_STREQ(ShedTierName(ShedTier::kDegraded), "degraded");
  EXPECT_STREQ(ShedTierName(ShedTier::kReject), "reject");
}

class ShedServiceTest : public ::testing::Test {
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

  static data::MatchingTask* task_;
};

data::MatchingTask* ShedServiceTest::task_ = nullptr;

// Open-loop overload against a shed-enabled service: the tier ladder fires,
// rejects carry the configured Retry-After hint, and every degraded
// response is bit-identical to the linear fallback scorer run directly on
// the same pairs — at 1, 2 and 7 threads.
TEST_F(ShedServiceTest, DegradedResponsesBitIdenticalToFallbackAtAnyThreads) {
  struct StormResult {
    std::vector<std::vector<data::LabeledPair>> degraded_pairs;
    std::vector<std::vector<double>> degraded_scores;
    uint64_t rejected = 0;
    uint64_t transitions = 0;
  };
  auto storm_at = [&](size_t threads) {
    SetParallelThreads(threads);
    StormResult result;
    matchers::MatchingContext context(task_);
    MatchServiceOptions options;
    options.queue_capacity_pairs = 64;
    options.max_batch_pairs = 16;
    options.shed_enabled = true;
    options.shed.dwell = 1;
    options.shed_retry_after_ms = 25.0;
    MatchService service(&context, options);
    EXPECT_TRUE(service.SwapModel(Train(context, "Magellan-DT")).ok());
    EXPECT_TRUE(service.SetFallbackModel(Train(context, "SA-ESDE")).ok());

    const auto& test = task_->test();
    size_t cursor = 0;
    for (int step = 0; step < 30; ++step) {
      for (int b = 0; b < 12; ++b) {
        std::vector<data::LabeledPair> pairs;
        for (int p = 0; p < 4; ++p) {
          pairs.push_back(test[cursor++ % test.size()]);
        }
        std::vector<data::LabeledPair> copy = pairs;
        auto id = service.Submit(
            std::move(pairs),
            [&result, copy](const RequestOutcome& outcome) {
              ASSERT_TRUE(outcome.status.ok());
              if (outcome.tier != ShedTier::kDegraded) return;
              std::vector<double> scores;
              for (const PairScore& r : outcome.results) {
                scores.push_back(r.score);
              }
              result.degraded_pairs.push_back(copy);
              result.degraded_scores.push_back(std::move(scores));
            });
        if (!id.ok()) {
          EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
          EXPECT_EQ(service.LastRetryAfterMs(), 25.0);
          ++result.rejected;
        }
      }
      service.PumpOne();
    }
    service.Drain();
    result.transitions = service.ShedTransitions();
    EXPECT_EQ(service.TierCount(ShedTier::kReject), result.rejected);

    // Bit-identity: re-score every degraded request directly through the
    // fallback model.
    std::shared_ptr<const matchers::TrainedModel> fallback =
        service.FallbackModel();
    for (size_t i = 0; i < result.degraded_pairs.size(); ++i) {
      std::vector<double> direct(result.degraded_pairs[i].size());
      std::vector<uint8_t> decisions(result.degraded_pairs[i].size());
      EXPECT_TRUE(fallback
                      ->ScoreBatch(context, result.degraded_pairs[i], direct,
                                   decisions)
                      .ok());
      EXPECT_EQ(result.degraded_scores[i], direct) << "request " << i;
    }
    return result;
  };

  StormResult one = storm_at(1);
  StormResult two = storm_at(2);
  StormResult seven = storm_at(7);
  SetParallelThreads(0);

  // The overload actually exercised the ladder...
  EXPECT_GE(one.transitions, 1u);
  EXPECT_GT(one.degraded_pairs.size(), 0u);
  EXPECT_GT(one.rejected, 0u);
  // ...and identically at every thread count: the open loop is
  // deterministic, so tiering and scores must match bit-for-bit.
  EXPECT_EQ(one.degraded_pairs.size(), two.degraded_pairs.size());
  EXPECT_EQ(one.degraded_pairs.size(), seven.degraded_pairs.size());
  EXPECT_EQ(one.degraded_scores, two.degraded_scores);
  EXPECT_EQ(one.degraded_scores, seven.degraded_scores);
  EXPECT_EQ(one.rejected, two.rejected);
  EXPECT_EQ(one.rejected, seven.rejected);
}

// With shedding disabled (the default), the service never leaves the full
// tier no matter the backlog — the pre-shedding behaviour is preserved.
TEST_F(ShedServiceTest, SheddingIsOptIn) {
  matchers::MatchingContext context(task_);
  MatchServiceOptions options;
  options.queue_capacity_pairs = 16;
  options.max_batch_pairs = 8;
  MatchService service(&context, options);
  ASSERT_TRUE(service.SwapModel(Train(context, "Magellan-DT")).ok());
  ASSERT_TRUE(service.SetFallbackModel(Train(context, "SA-ESDE")).ok());

  data::LabeledPair pair = task_->test().front();
  for (int i = 0; i < 16; ++i) {
    auto id = service.Submit({pair}, [](const RequestOutcome& outcome) {
      ASSERT_TRUE(outcome.status.ok());
      EXPECT_EQ(outcome.tier, ShedTier::kFull);
    });
    ASSERT_TRUE(id.ok()) << id.status();
  }
  service.Drain();
  EXPECT_EQ(service.CurrentTier(), ShedTier::kFull);
  EXPECT_EQ(service.ShedTransitions(), 0u);
  EXPECT_EQ(service.TierCount(ShedTier::kDegraded), 0u);
}

}  // namespace
}  // namespace rlbench::serve
