// Shadow/canary promotion: deterministic traffic sampling, the
// agreement/latency/fault verdict ladder, and — through MatchService —
// the promotion hot-swap and the ISSUE's core safety property: a seeded
// fault storm during a shadow window triggers rollback, never publishes a
// divergent snapshot, and leaves CURRENT serving bit-identical scores.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "fault/failpoint.h"
#include "matchers/context.h"
#include "matchers/registry.h"
#include "serve/service.h"
#include "serve/shadow.h"

namespace rlbench::serve {
namespace {

class ShadowTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    task_ = new data::MatchingTask(datagen::BuildExistingBenchmark(
        *datagen::FindExistingBenchmark("Ds7"), 0.5));
    context_ = new matchers::MatchingContext(task_);
    model_ = Train("SA-ESDE");
  }
  static void TearDownTestSuite() {
    model_.reset();
    delete context_;
    delete task_;
    context_ = nullptr;
    task_ = nullptr;
  }
  void TearDown() override { fault::Clear(); }

  static std::shared_ptr<const matchers::TrainedModel> Train(
      const std::string& name) {
    auto trained = matchers::TrainServableMatcher(name, *context_);
    EXPECT_TRUE(trained.ok()) << trained.status();
    return std::shared_ptr<const matchers::TrainedModel>(std::move(*trained));
  }

  static SnapshotMetadata Meta(const std::string& name) {
    SnapshotMetadata metadata;
    metadata.matcher_name = name;
    metadata.dataset_id = task_->name();
    metadata.version = 2;
    metadata.num_attrs = task_->left().schema().num_attributes();
    return metadata;
  }

  /// The candidate's own scores/decisions for `pairs`, computed directly.
  static void DirectScore(const matchers::TrainedModel& model,
                          const std::vector<data::LabeledPair>& pairs,
                          std::vector<double>* scores,
                          std::vector<uint8_t>* decisions) {
    scores->assign(pairs.size(), 0.0);
    decisions->assign(pairs.size(), 0);
    ASSERT_TRUE(model.ScoreBatch(*context_, pairs, *scores, *decisions).ok());
  }

  static data::MatchingTask* task_;
  static matchers::MatchingContext* context_;
  static std::shared_ptr<const matchers::TrainedModel> model_;
};

data::MatchingTask* ShadowTest::task_ = nullptr;
matchers::MatchingContext* ShadowTest::context_ = nullptr;
std::shared_ptr<const matchers::TrainedModel> ShadowTest::model_;

TEST_F(ShadowTest, SamplingIsAPureFunctionOfSeedAndPair) {
  ShadowOptions options;
  options.sample_fraction = 0.5;
  ShadowEvaluator evaluator(model_, Meta("SA-ESDE"), options);
  ShadowEvaluator twin(model_, Meta("SA-ESDE"), options);
  ShadowOptions reseeded = options;
  reseeded.seed = 0xfeed;
  ShadowEvaluator other(model_, Meta("SA-ESDE"), reseeded);

  size_t sampled = 0;
  size_t seed_disagreements = 0;
  for (const data::LabeledPair& pair : task_->test()) {
    bool first = evaluator.ShouldSample(pair);
    // Repeatable, and identical across evaluators with the same seed.
    EXPECT_EQ(first, evaluator.ShouldSample(pair));
    EXPECT_EQ(first, twin.ShouldSample(pair));
    if (first != other.ShouldSample(pair)) ++seed_disagreements;
    if (first) ++sampled;
  }
  // Roughly half the split is sampled, and the seed actually matters.
  EXPECT_GT(sampled, task_->test().size() / 4);
  EXPECT_LT(sampled, task_->test().size() * 3 / 4);
  EXPECT_GT(seed_disagreements, 0u);

  ShadowOptions all = options;
  all.sample_fraction = 1.0;
  ShadowEvaluator everything(model_, Meta("SA-ESDE"), all);
  for (const data::LabeledPair& pair : task_->test()) {
    EXPECT_TRUE(everything.ShouldSample(pair));
  }
}

TEST_F(ShadowTest, VerdictLadderPromotesOnAgreementAndRollsBackOnDivergence) {
  std::vector<data::LabeledPair> pairs(task_->test().begin(),
                                       task_->test().begin() + 8);
  std::vector<double> scores;
  std::vector<uint8_t> decisions;
  DirectScore(*model_, pairs, &scores, &decisions);

  ShadowOptions options;
  options.sample_fraction = 1.0;
  options.min_samples = 8;
  options.target_samples = 16;
  options.min_agreement = 0.98;
  options.max_latency_ratio = 0.0;

  // Candidate shadow-scoring its own primary decisions: perfect agreement,
  // pending until target_samples, then promote.
  ShadowEvaluator agreeing(model_, Meta("SA-ESDE"), options);
  EXPECT_EQ(agreeing.RecordBatch(*context_, pairs, decisions, 1.0),
            ShadowEvaluator::Verdict::kPending);
  EXPECT_EQ(agreeing.RecordBatch(*context_, pairs, decisions, 1.0),
            ShadowEvaluator::Verdict::kPromote);
  EXPECT_EQ(agreeing.stats().sampled_pairs, 16u);
  EXPECT_EQ(agreeing.stats().Agreement(), 1.0);

  // Flipping every primary decision fabricates total divergence: once
  // min_samples are in, the verdict is rollback.
  std::vector<uint8_t> flipped(decisions);
  for (uint8_t& d : flipped) d = d == 0 ? 1 : 0;
  ShadowEvaluator diverging(model_, Meta("SA-ESDE"), options);
  EXPECT_EQ(diverging.RecordBatch(*context_, pairs, flipped, 1.0),
            ShadowEvaluator::Verdict::kRollback);
  EXPECT_EQ(diverging.stats().Agreement(), 0.0);
}

TEST_F(ShadowTest, AnyShadowFaultIsAnImmediateRollbackVerdict) {
  ASSERT_TRUE(fault::SetSpec("seed=9;serve/shadow/score=any:1").ok());
  std::vector<data::LabeledPair> pairs(task_->test().begin(),
                                       task_->test().begin() + 4);
  std::vector<double> scores;
  std::vector<uint8_t> decisions;
  fault::Clear();
  DirectScore(*model_, pairs, &scores, &decisions);
  ASSERT_TRUE(fault::SetSpec("seed=9;serve/shadow/score=any:1").ok());

  ShadowOptions options;
  options.sample_fraction = 1.0;
  ShadowEvaluator evaluator(model_, Meta("SA-ESDE"), options);
  EXPECT_EQ(evaluator.RecordBatch(*context_, pairs, decisions, 1.0),
            ShadowEvaluator::Verdict::kRollback);
  EXPECT_GT(evaluator.stats().faults, 0u);
}

TEST_F(ShadowTest, ServicePromotesPassingCandidateViaHotSwap) {
  matchers::MatchingContext context(task_);
  MatchService service(&context);
  auto primary = matchers::TrainServableMatcher("Magellan-DT", context);
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(service
                  .SwapModel(std::shared_ptr<const matchers::TrainedModel>(
                      std::move(*primary)))
                  .ok());
  auto trained = matchers::TrainServableMatcher("SA-ESDE", context);
  ASSERT_TRUE(trained.ok());
  std::shared_ptr<const matchers::TrainedModel> candidate(
      std::move(*trained));

  // Guard rails around the window itself.
  EXPECT_FALSE(service.CancelShadow());
  EXPECT_FALSE(service.StartShadow(nullptr, Meta("SA-ESDE")).ok());

  ShadowOptions options;
  options.sample_fraction = 1.0;
  options.min_samples = 1;
  options.target_samples = 8;
  options.min_agreement = 0.0;  // measurement gate off: promote on volume
  options.max_latency_ratio = 0.0;
  ASSERT_TRUE(service.StartShadow(candidate, Meta("SA-ESDE"), options).ok());
  EXPECT_NE(service.Shadow(), nullptr);
  // One window at a time.
  EXPECT_FALSE(service.StartShadow(candidate, Meta("SA-ESDE"), options).ok());

  const auto& test = task_->test();
  for (size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(service
                    .Submit({test[i % test.size()]},
                            [](const RequestOutcome& outcome) {
                              ASSERT_TRUE(outcome.status.ok());
                            })
                    .ok());
    service.Drain();
  }

  ShadowEvent event = service.ConsumeShadowEvent();
  EXPECT_EQ(event.kind, ShadowEvent::Kind::kPromoted);
  EXPECT_EQ(event.metadata.matcher_name, "SA-ESDE");
  EXPECT_GE(event.stats.sampled_pairs, options.target_samples);
  EXPECT_EQ(service.Shadow(), nullptr);  // window closed by the promotion
  // Consuming is destructive: the event reads cleared afterwards.
  EXPECT_EQ(service.ConsumeShadowEvent().kind, ShadowEvent::Kind::kNone);

  // CURRENT is now the candidate: served scores equal the candidate's own.
  EXPECT_EQ(service.CurrentModel().get(), candidate.get());
  std::vector<data::LabeledPair> probe(test.begin(), test.begin() + 6);
  std::vector<double> direct;
  std::vector<uint8_t> decisions;
  direct.assign(probe.size(), 0.0);
  decisions.assign(probe.size(), 0);
  ASSERT_TRUE(candidate->ScoreBatch(context, probe, direct, decisions).ok());
  std::vector<double> served;
  ASSERT_TRUE(service
                  .Submit(probe,
                          [&served](const RequestOutcome& outcome) {
                            ASSERT_TRUE(outcome.status.ok());
                            for (const PairScore& r : outcome.results) {
                              served.push_back(r.score);
                            }
                          })
                  .ok());
  service.Drain();
  EXPECT_EQ(served, direct);
}

// The ISSUE's promotion-safety drill: a seeded fault storm on the shadow
// scoring path rolls the candidate back, no divergent snapshot is ever
// published, primary traffic is never errored by the shadow, and CURRENT
// keeps serving bit-identical scores afterwards.
TEST_F(ShadowTest, FaultStormRollsBackAndLeavesCurrentBitIdentical) {
  matchers::MatchingContext context(task_);
  MatchService service(&context);
  auto trained = matchers::TrainServableMatcher("Magellan-DT", context);
  ASSERT_TRUE(trained.ok());
  std::shared_ptr<const matchers::TrainedModel> primary(std::move(*trained));
  ASSERT_TRUE(service.SwapModel(primary).ok());
  auto candidate_trained = matchers::TrainServableMatcher("SB-ESDE", context);
  ASSERT_TRUE(candidate_trained.ok());
  std::shared_ptr<const matchers::TrainedModel> candidate(
      std::move(*candidate_trained));

  // Baseline scores before any shadow existed.
  std::vector<data::LabeledPair> probe(task_->test().begin(),
                                       task_->test().begin() + 10);
  auto serve_probe = [&service, &probe]() {
    std::vector<double> scores;
    auto id = service.Submit(probe, [&scores](const RequestOutcome& outcome) {
      ASSERT_TRUE(outcome.status.ok());
      for (const PairScore& r : outcome.results) {
        scores.push_back(r.score);
      }
    });
    EXPECT_TRUE(id.ok()) << id.status();
    service.Drain();
    return scores;
  };
  std::vector<double> baseline = serve_probe();
  ASSERT_EQ(baseline.size(), probe.size());

  for (uint64_t seed : {3u, 11u, 40u}) {
    SCOPED_TRACE(seed);
    ShadowOptions options;
    options.sample_fraction = 1.0;
    options.min_samples = 1;
    options.target_samples = 4;
    options.min_agreement = 0.0;
    options.max_latency_ratio = 0.0;
    ASSERT_TRUE(
        service.StartShadow(candidate, Meta("SB-ESDE"), options).ok());

    // Storm the shadow failpoint only: every sampled batch faults.
    ASSERT_TRUE(fault::SetSpec("seed=" + std::to_string(seed) +
                               ";serve/shadow/score=any:1")
                    .ok());
    size_t answered_ok = 0;
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(service
                      .Submit(probe,
                              [&answered_ok](const RequestOutcome& outcome) {
                                // Shadow faults never error live traffic.
                                ASSERT_TRUE(outcome.status.ok());
                                ++answered_ok;
                              })
                      .ok());
      service.Drain();
      if (service.Shadow() == nullptr) break;  // rolled back already
    }
    fault::Clear();
    EXPECT_GT(answered_ok, 0u);

    ShadowEvent event = service.ConsumeShadowEvent();
    EXPECT_EQ(event.kind, ShadowEvent::Kind::kRolledBack);
    EXPECT_GT(event.stats.faults, 0u);
    EXPECT_EQ(service.Shadow(), nullptr);
    // No divergent snapshot was published: CURRENT is still the original
    // primary, serving bit-identical scores.
    EXPECT_EQ(service.CurrentModel().get(), primary.get());
    EXPECT_EQ(serve_probe(), baseline);
  }
}

}  // namespace
}  // namespace rlbench::serve
