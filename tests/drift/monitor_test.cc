// ComputeWindowMeasures: the paper's difficulty measures over a live
// window must be internally consistent, label-source aware, bit-identical
// at any thread count, and unperturbed by the zero-shot arm (its row is
// excluded from the practical aggregation by group).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "drift/monitor.h"
#include "matchers/context.h"
#include "matchers/ensemble_link.h"

namespace rlbench::drift {
namespace {

class MonitorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    task_ = new data::MatchingTask(datagen::BuildExistingBenchmark(
        *datagen::FindExistingBenchmark("Ds7"), 0.5));
  }
  static void TearDownTestSuite() {
    delete task_;
    task_ = nullptr;
  }

  /// A window where the served decisions equal the ground truth and the
  /// scores sit on the right side of 0.5.
  static std::vector<ScoredSample> PerfectWindow(size_t pairs) {
    std::vector<ScoredSample> window;
    for (size_t i = 0; i < pairs && i < task_->test().size(); ++i) {
      const data::LabeledPair& pair = task_->test()[i];
      window.push_back(ScoredSample{pair, pair.is_match ? 0.9 : 0.1,
                                    static_cast<uint8_t>(pair.is_match)});
    }
    return window;
  }

  static data::MatchingTask* task_;
};

data::MatchingTask* MonitorTest::task_ = nullptr;

TEST_F(MonitorTest, EmptyWindowYieldsZeroedDefaults) {
  matchers::MatchingContext context(task_);
  WindowMeasures measures = ComputeWindowMeasures(context, {});
  EXPECT_EQ(measures.pairs, 0u);
  EXPECT_EQ(measures.positives, 0u);
  EXPECT_EQ(measures.best_linear_f1, 0.0);
  EXPECT_EQ(measures.zero_shot_f1, -1.0);
}

TEST_F(MonitorTest, MeasuresAreInternallyConsistent) {
  matchers::MatchingContext context(task_);
  auto window = PerfectWindow(256);
  MonitorOptions options;
  options.use_truth_labels = true;
  WindowMeasures measures = ComputeWindowMeasures(context, window, options);

  EXPECT_EQ(measures.pairs, window.size());
  EXPECT_GT(measures.positives, 0u);
  EXPECT_LT(measures.positives, measures.pairs);
  EXPECT_GE(measures.f1_cs, 0.0);
  EXPECT_LE(measures.f1_cs, 1.0);
  EXPECT_GE(measures.f1_js, 0.0);
  EXPECT_LE(measures.f1_js, 1.0);
  EXPECT_EQ(measures.best_linear_f1,
            std::max(measures.f1_cs, measures.f1_js));
  EXPECT_GE(measures.threshold_cs, 0.0);
  EXPECT_LE(measures.threshold_cs, 1.0);
  EXPECT_GE(measures.complexity_avg, 0.0);
  EXPECT_LE(measures.complexity_avg, 1.0);
  // Decisions equal truth, so the served F1 is exact and
  // nlb = served - best_linear by the two-row practical aggregation.
  EXPECT_EQ(measures.served_f1, 1.0);
  EXPECT_DOUBLE_EQ(measures.nlb, measures.served_f1 -
                                     measures.best_linear_f1);
  EXPECT_DOUBLE_EQ(measures.lbm, 1.0 - measures.served_f1);
}

TEST_F(MonitorTest, SelfLabelsFollowTheServedDecisions) {
  matchers::MatchingContext context(task_);
  // Served decisions disagree with truth on every pair; under self-labels
  // the window still scores the service as perfectly self-consistent.
  std::vector<ScoredSample> window;
  for (size_t i = 0; i < 128 && i < task_->test().size(); ++i) {
    const data::LabeledPair& pair = task_->test()[i];
    window.push_back(ScoredSample{pair, pair.is_match ? 0.1 : 0.9,
                                  static_cast<uint8_t>(!pair.is_match)});
  }
  WindowMeasures self = ComputeWindowMeasures(context, window);
  EXPECT_EQ(self.served_f1, 1.0);
  size_t negatives = 0;
  for (const ScoredSample& sample : window) {
    negatives += sample.decision == 0 ? 1 : 0;
  }
  EXPECT_EQ(self.positives, window.size() - negatives);

  MonitorOptions truth;
  truth.use_truth_labels = true;
  WindowMeasures real = ComputeWindowMeasures(context, window, truth);
  EXPECT_EQ(real.served_f1, 0.0);  // every decision is wrong vs truth
  EXPECT_NE(self.positives, real.positives);
}

TEST_F(MonitorTest, ZeroShotArmIsScoredButExcludedFromTheMeasures) {
  matchers::MatchingContext context(task_);
  matchers::EnsembleLinkMatcher ensemble;
  auto arm = ensemble.TrainModel(context);
  ASSERT_TRUE(arm.ok()) << arm.status();
  (*arm)->PrepareContext(context);

  auto window = PerfectWindow(192);
  MonitorOptions options;
  options.use_truth_labels = true;
  WindowMeasures without = ComputeWindowMeasures(context, window, options);
  WindowMeasures with =
      ComputeWindowMeasures(context, window, options, arm->get());

  EXPECT_GE(with.zero_shot_f1, 0.0);
  EXPECT_LE(with.zero_shot_f1, 1.0);
  // Everything except the arm's own F1 is bit-identical: the kZeroShot
  // row never enters NLB/LBM.
  WindowMeasures masked = with;
  masked.zero_shot_f1 = without.zero_shot_f1;
  EXPECT_EQ(std::memcmp(&masked, &without, sizeof(WindowMeasures)), 0);
}

TEST_F(MonitorTest, MeasuresAreBitIdenticalAcrossThreadCounts) {
  auto window = PerfectWindow(256);
  MonitorOptions options;
  options.use_truth_labels = true;
  auto measures_at = [&](size_t threads) {
    SetParallelThreads(threads);
    matchers::MatchingContext context(task_);
    return ComputeWindowMeasures(context, window, options);
  };
  WindowMeasures one = measures_at(1);
  WindowMeasures two = measures_at(2);
  WindowMeasures seven = measures_at(7);
  SetParallelThreads(0);
  EXPECT_EQ(std::memcmp(&one, &two, sizeof(WindowMeasures)), 0);
  EXPECT_EQ(std::memcmp(&one, &seven, sizeof(WindowMeasures)), 0);
}

}  // namespace
}  // namespace rlbench::drift
