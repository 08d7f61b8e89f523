#include <gtest/gtest.h>

#include "block/deepblocker_sim.h"
#include "block/metrics.h"
#include "datagen/catalog.h"
#include "datagen/source_builder.h"

namespace rlbench::block {
namespace {

TEST(BlockingMetricsTest, ExactValues) {
  std::vector<CandidatePair> matches = {{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  std::vector<CandidatePair> candidates = {{0, 0}, {1, 1}, {5, 5}, {6, 6},
                                           {7, 7}};
  auto metrics = EvaluateBlocking(candidates, matches);
  EXPECT_EQ(metrics.true_candidates, 2u);
  EXPECT_DOUBLE_EQ(metrics.pair_completeness, 0.5);
  EXPECT_DOUBLE_EQ(metrics.pairs_quality, 0.4);
}

TEST(BlockingMetricsTest, EmptyCandidates) {
  auto metrics = EvaluateBlocking({}, {{0, 0}});
  EXPECT_DOUBLE_EQ(metrics.pair_completeness, 0.0);
  EXPECT_DOUBLE_EQ(metrics.pairs_quality, 0.0);
}

class DeepBlockerTest : public ::testing::Test {
 protected:
  datagen::SourcePair MakeSource() {
    auto spec = *datagen::FindSourceDataset("Dn3");
    return datagen::BuildSourceDataset(spec, 0.1);
  }
};

TEST_F(DeepBlockerTest, TopKRecallGrowsWithK) {
  auto source = MakeSource();
  DeepBlockerSim blocker(32, 5);
  BlockerConfig config;
  config.k = 1;
  auto run1 = blocker.Run(source, config);
  config.k = 10;
  auto run10 = blocker.Run(source, config);
  EXPECT_GE(run10.metrics.pair_completeness,
            run1.metrics.pair_completeness);
  EXPECT_GE(run1.metrics.pairs_quality, run10.metrics.pairs_quality);
  EXPECT_EQ(run10.candidates.size(), source.d1.size() * 10);
}

TEST_F(DeepBlockerTest, LowNoiseSourceReachesHighRecallAtSmallK) {
  auto source = MakeSource();  // Dn3: bibliographic, low noise
  DeepBlockerSim blocker(32, 5);
  BlockerConfig config;
  config.k = 5;
  auto run = blocker.Run(source, config);
  EXPECT_GT(run.metrics.pair_completeness, 0.85);
}

TEST_F(DeepBlockerTest, TunerReachesTargetRecall) {
  auto source = MakeSource();
  DeepBlockerSim blocker(32, 5);
  DeepBlockerSim::TuneOptions options;
  options.min_recall = 0.9;
  options.k_max = 16;
  auto best = blocker.TuneForRecall(source, options);
  EXPECT_GE(best.metrics.pair_completeness, 0.9);
  // Tuning must not return an absurdly loose configuration: PQ above the
  // all-pairs baseline.
  double all_pairs_pq =
      static_cast<double>(source.matches.size()) /
      (static_cast<double>(source.d1.size()) * source.d2.size());
  EXPECT_GT(best.metrics.pairs_quality, all_pairs_pq);
}

TEST_F(DeepBlockerTest, IndexSideSwapsOrientation) {
  auto source = MakeSource();
  DeepBlockerSim blocker(32, 5);
  BlockerConfig config;
  config.k = 2;
  config.index_d2 = true;
  auto a = blocker.Run(source, config);
  config.index_d2 = false;
  auto b = blocker.Run(source, config);
  EXPECT_EQ(a.candidates.size(), source.d1.size() * 2);
  EXPECT_EQ(b.candidates.size(), source.d2.size() * 2);
  for (const auto& [l, r] : b.candidates) {
    EXPECT_LT(l, source.d1.size());
    EXPECT_LT(r, source.d2.size());
  }
}

TEST_F(DeepBlockerTest, DeterministicForSeed) {
  auto source = MakeSource();
  DeepBlockerSim a(32, 5);
  DeepBlockerSim b(32, 5);
  BlockerConfig config;
  config.k = 3;
  EXPECT_EQ(a.Run(source, config).candidates,
            b.Run(source, config).candidates);
}

TEST(ConfigToStringTest, Readable) {
  data::Schema schema({"title", "year"});
  BlockerConfig config{1, true, false, 7};
  std::string text = ConfigToString(config, schema);
  EXPECT_NE(text.find("year"), std::string::npos);
  EXPECT_NE(text.find("K=7"), std::string::npos);
  EXPECT_NE(text.find("ind=D1"), std::string::npos);
}

}  // namespace
}  // namespace rlbench::block
