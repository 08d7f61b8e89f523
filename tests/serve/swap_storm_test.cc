// Hot-swap storm: repeated cross-family swaps (each one re-preparing the
// context for every installed family) while a seeded fault storm batters the serve path. The
// storm may fail individual requests, but every request that succeeds
// must carry the exact score bits of the model installed at the time —
// at 1, 2 and 7 threads, with an identical fault schedule.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "fault/failpoint.h"
#include "matchers/context.h"
#include "matchers/registry.h"
#include "serve/service.h"

namespace rlbench::serve {
namespace {

constexpr size_t kStormPairs = 96;  // Ds7@0.5 test split size
constexpr size_t kChunk = 8;
constexpr int kRounds = 4;
constexpr double kRejected = -2.0;  // Submit refused (injected queue full)
constexpr double kFaulted = -3.0;   // scored batch hit an injected fault
constexpr char kStorm[] =
    "seed=11;serve/worker/fault=any:0.2;serve/queue/full=any:0.1";

class SwapStormTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    task_ = new data::MatchingTask(datagen::BuildExistingBenchmark(
        *datagen::FindExistingBenchmark("Ds7"), 0.5));
  }
  static void TearDownTestSuite() {
    delete task_;
    task_ = nullptr;
    fault::Clear();
  }

  static std::shared_ptr<const matchers::TrainedModel> Train(
      const matchers::MatchingContext& context, const std::string& name) {
    auto trained = matchers::TrainServableMatcher(name, context);
    EXPECT_TRUE(trained.ok()) << trained.status();
    return std::shared_ptr<const matchers::TrainedModel>(std::move(*trained));
  }

  /// Serve kStormPairs through the installed model, one kChunk-pair
  /// request per batch; failures land as sentinels, successes as scores.
  static std::vector<double> ServeSlice(MatchService* service) {
    std::vector<double> out;
    const auto& test = task_->test();
    for (size_t begin = 0; begin + kChunk <= kStormPairs; begin += kChunk) {
      std::vector<data::LabeledPair> request(test.begin() + begin,
                                             test.begin() + begin + kChunk);
      size_t before = out.size();
      auto id = service->Submit(
          std::move(request), [&out](const RequestOutcome& outcome) {
            for (size_t j = 0; j < kChunk; ++j) {
              out.push_back(outcome.status.ok() ? outcome.results[j].score
                                                : kFaulted);
            }
          });
      if (!id.ok()) {
        out.resize(before + kChunk, kRejected);
        continue;
      }
      service->Drain();
    }
    return out;
  }

  static data::MatchingTask* task_;
};

data::MatchingTask* SwapStormTest::task_ = nullptr;

TEST_F(SwapStormTest, StormScoresAreExactAndThreadInvariant) {
  ASSERT_LE(kStormPairs, task_->test().size());
  // Per-model baselines, served with no faults armed.
  fault::Clear();
  matchers::MatchingContext context(task_);
  MatchService baseline_service(&context);
  auto magellan = Train(context, "Magellan-RF");
  auto esde = Train(context, "SAS-ESDE");  // different cache families
  ASSERT_TRUE(baseline_service.SwapModel(magellan).ok());
  std::vector<double> baseline_a = ServeSlice(&baseline_service);
  ASSERT_TRUE(baseline_service.SwapModel(esde).ok());
  std::vector<double> baseline_b = ServeSlice(&baseline_service);
  ASSERT_EQ(baseline_a.size(), kStormPairs);
  for (size_t i = 0; i < kStormPairs; ++i) {
    ASSERT_GE(baseline_a[i], 0.0);  // fault-free baselines all succeed
    ASSERT_GE(baseline_b[i], 0.0);
  }

  auto storm_at = [&](size_t threads) {
    SetParallelThreads(threads);
    matchers::MatchingContext fresh(task_);
    MatchService service(&fresh);
    auto model_a = Train(fresh, "Magellan-RF");
    auto model_b = Train(fresh, "SAS-ESDE");
    // Arm after training: an identical storm schedule for every run.
    EXPECT_TRUE(fault::SetSpec(kStorm).ok());
    std::vector<double> collected;
    for (int round = 0; round < kRounds; ++round) {
      EXPECT_TRUE(service.SwapModel(model_a).ok());
      auto served_a = ServeSlice(&service);
      EXPECT_TRUE(service.SwapModel(model_b).ok());
      auto served_b = ServeSlice(&service);
      // Successful requests score the installed model's exact bits even
      // mid-storm; only injected failures may differ from the baseline.
      for (size_t i = 0; i < kStormPairs; ++i) {
        if (served_a[i] >= 0.0) {
          EXPECT_EQ(served_a[i], baseline_a[i]);
        }
        if (served_b[i] >= 0.0) {
          EXPECT_EQ(served_b[i], baseline_b[i]);
        }
      }
      collected.insert(collected.end(), served_a.begin(), served_a.end());
      collected.insert(collected.end(), served_b.begin(), served_b.end());
    }
    fault::Clear();
    return collected;
  };

  std::vector<double> one = storm_at(1);
  std::vector<double> two = storm_at(2);
  std::vector<double> seven = storm_at(7);
  SetParallelThreads(0);

  // The storm really did both things: some requests failed, most scored.
  size_t failures = 0;
  for (double score : one) failures += score < 0.0 ? 1 : 0;
  EXPECT_GT(failures, 0u);
  EXPECT_LT(failures, one.size() / 2);

  // Same fault schedule, same swaps, same bits — at any thread count.
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, seven);
}

}  // namespace
}  // namespace rlbench::serve
