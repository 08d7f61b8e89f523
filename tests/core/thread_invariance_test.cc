// The determinism contract of common/parallel.h, end to end: every
// parallelised measurement and matching path must produce bit-identical
// results at 1, 2, and 7 threads. All comparisons are EXACT double/float
// equality — no tolerances — because the fixed chunk boundaries, ordered
// combines, and split per-chunk RNG streams guarantee byte-level equality,
// not mere closeness.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "block/metrics.h"
#include "block/minhash_blocking.h"
#include "common/parallel.h"
#include "core/complexity.h"
#include "core/linearity.h"
#include "core/practical.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "matchers/context.h"
#include "matchers/esde.h"
#include "matchers/registry.h"

namespace rlbench::core {
namespace {

// Everything the parallel rollout touches, captured at one thread count.
struct Snapshot {
  std::vector<std::pair<std::string, double>> complexity;
  ExcludedMeasures excluded;
  LinearityResult linearity;
  std::vector<float> magellan_rows;
  std::vector<uint8_t> magellan_labels;
  std::vector<uint8_t> esde_token_predictions;
  std::vector<uint8_t> esde_qgram_predictions;
  int esde_feature = -1;
  double esde_threshold = 0.0;
  double esde_valid_f1 = 0.0;
  block::BlockingMetrics blocking;
};

Snapshot Measure(const data::MatchingTask& task, size_t threads) {
  SetParallelThreads(threads);
  Snapshot snap;

  // Fresh context per thread count so cache warm-up itself runs at the
  // thread count under test, not just the downstream consumers.
  matchers::MatchingContext context(&task);

  ComplexityOptions options;
  options.max_points = 400;
  auto points = PairFeaturePoints(context);
  snap.complexity = ComputeComplexity(points, options).Items();
  snap.excluded = ComputeExcludedMeasures(points, options);
  snap.linearity = ComputeLinearity(context);

  const auto& train = context.MagellanTrain();
  for (size_t i = 0; i < train.size(); ++i) {
    auto row = train.row(i);
    snap.magellan_rows.insert(snap.magellan_rows.end(), row.begin(),
                              row.end());
  }
  snap.magellan_labels = train.labels();

  matchers::EsdeMatcher token_esde(matchers::EsdeVariant::kSchemaAgnostic);
  snap.esde_token_predictions = token_esde.Run(context);
  snap.esde_feature = token_esde.best_feature();
  snap.esde_threshold = token_esde.best_threshold();
  snap.esde_valid_f1 = token_esde.best_valid_f1();

  // The q-gram variant exercises the store's q-gram pool build.
  matchers::EsdeMatcher qgram_esde(
      matchers::EsdeVariant::kSchemaAgnosticQgram);
  snap.esde_qgram_predictions = qgram_esde.Run(context);

  auto candidates =
      block::MinHashBlocking(task.left(), task.right(), {});
  std::vector<block::CandidatePair> matches;
  for (const auto& pair : task.AllPairs()) {
    if (pair.is_match) matches.push_back({pair.left, pair.right});
  }
  snap.blocking = block::EvaluateBlocking(candidates, matches);

  SetParallelThreads(0);
  return snap;
}

void ExpectIdentical(const Snapshot& base, const Snapshot& other,
                     size_t threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  ASSERT_EQ(base.complexity.size(), other.complexity.size());
  for (size_t i = 0; i < base.complexity.size(); ++i) {
    EXPECT_EQ(base.complexity[i].first, other.complexity[i].first);
    EXPECT_EQ(base.complexity[i].second, other.complexity[i].second)
        << "measure " << base.complexity[i].first;
  }
  EXPECT_EQ(base.excluded.t2, other.excluded.t2);
  EXPECT_EQ(base.excluded.t3, other.excluded.t3);
  EXPECT_EQ(base.excluded.t4, other.excluded.t4);
  EXPECT_EQ(base.excluded.f4, other.excluded.f4);
  EXPECT_EQ(base.excluded.l3, other.excluded.l3);

  EXPECT_EQ(base.linearity.f1_cosine, other.linearity.f1_cosine);
  EXPECT_EQ(base.linearity.threshold_cosine, other.linearity.threshold_cosine);
  EXPECT_EQ(base.linearity.f1_jaccard, other.linearity.f1_jaccard);
  EXPECT_EQ(base.linearity.threshold_jaccard,
            other.linearity.threshold_jaccard);

  EXPECT_EQ(base.magellan_rows, other.magellan_rows);
  EXPECT_EQ(base.magellan_labels, other.magellan_labels);

  EXPECT_EQ(base.esde_token_predictions, other.esde_token_predictions);
  EXPECT_EQ(base.esde_qgram_predictions, other.esde_qgram_predictions);
  EXPECT_EQ(base.esde_feature, other.esde_feature);
  EXPECT_EQ(base.esde_threshold, other.esde_threshold);
  EXPECT_EQ(base.esde_valid_f1, other.esde_valid_f1);

  EXPECT_EQ(base.blocking.num_candidates, other.blocking.num_candidates);
  EXPECT_EQ(base.blocking.true_candidates, other.blocking.true_candidates);
  EXPECT_EQ(base.blocking.pair_completeness, other.blocking.pair_completeness);
  EXPECT_EQ(base.blocking.pairs_quality, other.blocking.pairs_quality);
}

TEST(ThreadInvarianceTest, AllMeasuresBitIdenticalAt1_2_7Threads) {
  auto task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds5"), 0.25);

  Snapshot base = Measure(task, 1);
  // Sanity: the snapshot carries real work, not empty vectors.
  ASSERT_FALSE(base.complexity.empty());
  ASSERT_FALSE(base.magellan_rows.empty());
  ASSERT_FALSE(base.esde_token_predictions.empty());
  ASSERT_GT(base.blocking.num_candidates, 0U);

  ExpectIdentical(base, Measure(task, 2), 2);
  ExpectIdentical(base, Measure(task, 7), 7);
}

// The full line-up at a reduced epoch budget, scored at one thread count.
// A fresh context per call, so the lazy TF-IDF, Magellan and q-gram builds
// are first reached from inside the line-up fan-out.
std::vector<MatcherScore> ScoreLineupAt(const data::MatchingTask& task,
                                        size_t threads) {
  SetParallelThreads(threads);
  matchers::MatchingContext context(&task);
  matchers::RegistryOptions options;
  options.epoch_scale = 0.1;
  auto lineup = matchers::BuildMatcherLineup(options);
  auto scores = ScoreLineup(context, &lineup);
  // Scores come back in line-up order, not in dispatch order.
  EXPECT_EQ(scores.size(), lineup.size());
  for (size_t i = 0; i < scores.size() && i < lineup.size(); ++i) {
    EXPECT_EQ(scores[i].name, lineup[i].matcher->name());
  }
  SetParallelThreads(0);
  return scores;
}

TEST(ThreadInvarianceTest, LineupScoresBitIdenticalAt1_2_7Threads) {
  auto task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds5"), 0.25);

  std::vector<MatcherScore> base = ScoreLineupAt(task, 1);
  ASSERT_FALSE(base.empty());
  for (size_t threads : {size_t{2}, size_t{7}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<MatcherScore> other = ScoreLineupAt(task, threads);
    ASSERT_EQ(base.size(), other.size());
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base[i].name, other[i].name);
      EXPECT_EQ(base[i].group, other[i].group);
      EXPECT_EQ(base[i].f1, other[i].f1) << base[i].name;
    }
  }
}

}  // namespace
}  // namespace rlbench::core
